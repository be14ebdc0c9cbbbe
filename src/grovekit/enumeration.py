"""Exhaustive generation of allowed topologies and situation expressions.

Chains come from a small grammar of decorated levels and ground
arguments whose rank is the decoration budget; each is kept when its
per-level charges are within the cost model's caps and no exclusion rule
matches it, then deduplicated by canonical form.
The reference tables shipped under ``grovekit/tables`` are the oracle the
default model was fitted against.
"""

from __future__ import annotations

import importlib.resources
import itertools
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from .expr import (
    Grove,
    GroveError,
    TopologyExpr,
    arg,
    base_chain,
    canonicalize,
    op,
    parse,
)
from .model import EXCLUSION_RULES, CostModel, charges, rank

MAX_DEPTH = 2
#: most groves an unpruned partition may have; 3,3,3,1 has 222,264
MAX_GROVES = 250_000

#: Table 2 entry 27 as printed has decoration weight 4 while every other
#: entry has weight 3; the weight-3 enumeration produces the second form.
#: Suspected typo, kept behind ``CostModel.table2_entry27_as_printed``.
ENTRY27_PRINTED = "sig tau phi(m1^(1), m2^(2))"
ENTRY27_MODEL = "sig tau phi(m1^(1), m2^(1))"


@dataclass(frozen=True)
class PartitionSpec:
    """Non-increasing positive parts; their sum is the total subtlety."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise GroveError("partition needs at least one part")
        if any(p < 1 for p in self.parts):
            raise GroveError("partition parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise GroveError("partition parts must be non-increasing")


def partitions_of(n: int) -> list[PartitionSpec]:
    """All partitions of n in non-increasing order, largest-first."""
    return [PartitionSpec(p) for p in _int_partitions(n, n)]


def _int_partitions(n: int, max_parts: int,
                    _largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n into at most max_parts positive parts, non-increasing."""
    if n == 0:
        yield ()
        return
    if max_parts == 0:
        return
    top = n if _largest is None else min(_largest, n)
    for p in range(top, 0, -1):
        for rest in _int_partitions(n - p, max_parts - 1, p):
            yield (p,) + rest


# ---------------------------------------------------------------------------
# decorated chains of one depth
# ---------------------------------------------------------------------------

def _lifts(count: int, units: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing ``count``-tuples of lifts summing to at most ``units``."""
    for total in range(units + 1):
        for parts in _int_partitions(total, count):
            yield parts + (0,) * (count - len(parts))


def _level_shapes(tier: int, depth: int, m: CostModel, budget: int) -> list:
    """The grammar of operator level ``tier`` in a chain of ``depth``.

    ``sig`` carries a lift.  At depth 1 ``tau`` carries a lift or takes one
    inserted ``phi``; at depth 2 it carries a lift or repeats, and the ``phi``
    level is any nonempty multiset of lifted ``phi``.
    """
    units, most = budget // m.lift_cost, budget // m.insert_cost + 1
    if tier == 2:
        return [tuple(op(2, lift=k) for k in lifts)
                for n in range(1, most + 1) for lifts in _lifts(n, units)]
    lifted = [(op(tier, lift=k),) for k in range(units + 1)]
    if tier == 0:
        return lifted
    if depth == 1:
        return lifted + [(op(1), op(2, lift=k)) for k in range(units + 1)]
    return lifted + [(op(1),) * n for n in range(2, most + 1)]


def _ground_shapes(m: CostModel, budget: int) -> list:
    """A map substitution, or point arguments with a lift multiset."""
    shapes = [(arg(map_subst=True),)]
    for n in range(1, budget // m.extra_arg_cost + 2):
        shapes += [tuple(arg(i + 1, lift=k) for i, k in enumerate(lifts))
                   for lifts in _lifts(n, budget // m.lift_cost)]
    return shapes


def _chains(depth: int, m: CostModel) -> Iterator[TopologyExpr]:
    """Every chain of the grammar with ``depth`` and rank ``depth + 1``.

    Rank adds over levels, so each shape is weighed once, by the rank of
    the shortest undecorated chain that holds it, and the shapes combine
    under a running sum of at most the budget.
    """
    budget = depth + 1
    heads = [(0, ())]
    for tier in range(depth + 1):
        bare = tuple((op(t),) for t in range(tier))
        weighed = [(rank(TopologyExpr(bare + (s,), (arg(),)), m), s)
                   for s in _level_shapes(tier, depth, m, budget)]
        heads = [(w + v, levels + (s,)) for w, levels in heads
                 for v, s in weighed if w + v <= budget]
    grounds: dict[int, list] = {}
    for args in _ground_shapes(m, budget):
        v = rank(TopologyExpr(((op(0),),), args), m)
        grounds.setdefault(v, []).append(args)
    for w, levels in heads:
        for args in grounds.get(budget - w, ()):
            yield TopologyExpr(levels, args)


def _check_depth(depth: int) -> int:
    """``depth`` when the shipped build enumerates chains of that depth,
    0 <= depth <= `MAX_DEPTH`."""
    if depth not in range(MAX_DEPTH + 1):
        raise GroveError(f"unsupported depth {depth}; shipped build caps at {MAX_DEPTH}")
    return depth


def enumerate_topologies(depth: int,
                         model: CostModel = CostModel()) -> frozenset[TopologyExpr]:
    """All allowed decorated chains of the given depth.

    The rank budget is depth + 1; a chain is kept when each level's
    :func:`~grovekit.model.charges` is within ``model.caps[depth]`` and no
    enabled exclusion rule matches it.  Results are deduplicated by
    canonical form.  Multi-part partitions describe groves; see
    :func:`enumerate_groves`.
    """
    caps = model.caps[_check_depth(depth)]
    rules = [rule for name, rule in EXCLUSION_RULES.items()
             if name in model.exclusions]
    produced = set()
    for expr in _chains(depth, model):
        ch = charges(expr, model)
        if any(c > cap for c, cap in zip(ch.values(), caps)):
            continue
        if any(rule(expr, ch) for rule in rules):
            continue
        produced.add(canonicalize(expr))
    if model.table2_entry27_as_printed and depth == 2:
        model_form = parse(ENTRY27_MODEL)
        if model_form in produced:
            produced.discard(model_form)
            produced.add(parse(ENTRY27_PRINTED))
    return frozenset(produced)


def enumerate_groves(
    partition: PartitionSpec | tuple[int, ...],
    model: CostModel = CostModel(),
    *,
    pruned: bool = True,
) -> frozenset[Grove]:
    """Groves for any partition.

    With pruning (the shipped behaviour) only the largest part keeps its
    decoration budget and partitions with several parts of size >= 2 are
    collapsed accordingly; an all-ones partition yields the single
    undecorated grove.  Without pruning every part is enumerated with its
    own budget and the cartesian product is returned.
    """
    if isinstance(partition, tuple):
        partition = PartitionSpec(partition)
    parts = partition.parts
    if len(parts) == 1:
        return frozenset(
            Grove((t,)) for t in enumerate_topologies(parts[0] - 1, model))
    if pruned:
        if all(p == 1 for p in parts):
            return frozenset({Grove(tuple(base_chain(0) for _ in parts))})
        head_set = enumerate_topologies(parts[0] - 1, model)
        rest = tuple(base_chain(p - 1) for p in parts[1:])
        return frozenset(Grove((t,) + rest) for t in head_set)
    forms = {p: enumerate_topologies(p - 1, model) for p in set(parts)}
    count = 1
    for p in parts:
        if (count := count * len(forms[p])) > MAX_GROVES:
            raise GroveError(f"more than {MAX_GROVES} unpruned groves")
    return frozenset(map(Grove, itertools.product(*map(forms.get, parts))))


def count_by_rank(r: int, model: CostModel = CostModel()) -> int:
    """Number of allowed topologies of rank r, the chains of depth r - 1."""
    return len(enumerate_topologies(r - 1, model))


def total_multiplicity(depth: int, model: CostModel = CostModel()) -> int:
    """Total pruned description size over all partitions of depth + 1."""
    return sum(len(enumerate_groves(part, model))
               for part in partitions_of(_check_depth(depth) + 1))


# ---------------------------------------------------------------------------
# reference tables and verification
# ---------------------------------------------------------------------------

#: reference table files; table d lists the allowed chains of depth d
TABLE_FILES = {0: "table0.txt", 1: "table1.txt", 2: "table2.txt"}


def table_path(name: str) -> Path:
    """Path of a shipped reference file under ``grovekit/tables``."""
    return Path(str(importlib.resources.files("grovekit") / "tables" / name))


@lru_cache(maxsize=None)
def load_table(table: int) -> frozenset[TopologyExpr]:
    """Reference expressions for a shipped table (0 = zeroth order)."""
    if table not in TABLE_FILES:
        raise GroveError(f"unknown table {table!r}; expected 0, 1 or 2")
    path = table_path(TABLE_FILES[table])
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise GroveError(f"cannot read reference table {path}: {exc}") from exc
    return frozenset(parse(line) for line in lines if line.strip())


@dataclass(frozen=True)
class EnumerationReport:
    """Produced-versus-reference comparison for one table."""

    table: int
    produced: frozenset[TopologyExpr]
    expected: frozenset[TopologyExpr]

    @property
    def missing(self) -> frozenset[TopologyExpr]:
        return self.expected - self.produced

    @property
    def extra(self) -> frozenset[TopologyExpr]:
        return self.produced - self.expected

    @property
    def exact(self) -> bool:
        return not self.missing and not self.extra

    @property
    def entry27_exception_only(self) -> bool:
        """True when the diff is confined to the Table 2 entry-27 pair."""
        return (self.missing <= {parse(ENTRY27_PRINTED)}
                and self.extra <= {parse(ENTRY27_MODEL)})

    @property
    def acceptable(self) -> bool:
        return self.exact or (self.table == 2 and self.entry27_exception_only)


def verify_against_table(table: int,
                         model: CostModel = CostModel()) -> EnumerationReport:
    expected = load_table(table)
    produced = enumerate_topologies(table, model)
    return EnumerationReport(table, produced, expected)


# ---------------------------------------------------------------------------
# situation expressions (the Pow grammar)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SituationExpr:
    """A chain of (possibly lifted) Pow operators over an algebra term.

    ``pow_lifts`` is ordered outermost-first.  ``operands`` holds one lift
    value for a plain argument or two for a tensor pair.
    """

    pow_lifts: tuple[int, ...]
    operands: tuple[int, ...]

    def __post_init__(self):
        if not self.pow_lifts:
            raise GroveError("situation needs at least one Pow")
        if len(self.operands) not in (1, 2):
            raise GroveError("operand tuple must have one or two entries")

    @property
    def is_tensor(self) -> bool:
        return len(self.operands) == 2

    def cost(self) -> int:
        c = sum(self.pow_lifts) + (len(self.pow_lifts) - 1) + sum(self.operands)
        if self.is_tensor and not any(self.operands):
            c += 1  # forming a tensor pair of unlifted operands
        return c

    def render(self) -> str:
        chain = " ".join(
            "Pow" + (f"^({k})" if k else "") for k in self.pow_lifts)
        terms = " @ ".join(
            "A" + (f"^({j})" if j else "") for j in self.operands)
        return f"{chain}({terms})"

    def __str__(self) -> str:
        return self.render()


def enumerate_situations(order: int) -> frozenset[SituationExpr]:
    """All situation expressions of the given order (1, 2 or 3).

    A chain of ``n`` Pows spends ``n - 1`` plus its lifts, and its plain
    form's operand is lifted by what is left of the order.  From order 2
    on, two families of tensor pairs join: under one Pow, operands lifted
    at most once each that share what it leaves; under ``order`` bare
    Pows, the unlifted pair, whose forming costs the unit left.  These
    rules are a fit to the shipped order-2 reference, not derived ones.
    """
    if order not in (1, 2, 3):
        raise GroveError(f"order must be 1, 2 or 3, got {order}")
    found = set()
    for n in range(1, order + 2):
        for lifts in _compositions(order - n + 1, n):
            left = order - n + 1 - sum(lifts)
            found.add(SituationExpr(lifts, (left,)))
            if order >= 2 and n == 1:
                found.update(SituationExpr(lifts, pair) for pair in
                             ((0, 1), (1, 0), (1, 1)) if sum(pair) == left)
            if order >= 2 and n == order and not any(lifts):
                found.add(SituationExpr(lifts, (0, 0)))
    return frozenset(found)


def _compositions(total: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of non-negative ints summing to at most total."""
    return (c for c in itertools.product(range(total + 1), repeat=k)
            if sum(c) <= total)


SITUATIONS_FILE = "situations2.txt"


@lru_cache(maxsize=None)
def load_situations_reference() -> frozenset[str]:
    path = table_path(SITUATIONS_FILE)
    return frozenset(
        line.strip() for line in path.read_text().splitlines() if line.strip())
