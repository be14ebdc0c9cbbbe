"""Exhaustive generation of allowed topologies and situation expressions.

Chains are generated by distributing a decoration budget (the rank) over
the levels of an undecorated base chain, subject to the cost model's
per-level caps and exclusion rules, then deduplicated by canonical form.
The reference tables shipped under ``grovekit/tables`` are the oracle the
default model was fitted against.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from .expr import (
    DecoratedSymbol,
    Grove,
    GroveError,
    TopologyExpr,
    arg,
    base_chain,
    canonicalize,
    op,
    parse,
)
from .model import EXCLUSION_RULES, CostModel, rank

MAX_DEPTH = 2

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

    @property
    def total(self) -> int:
        return sum(self.parts)


def partitions_of(n: int) -> list[PartitionSpec]:
    """All partitions of n in non-increasing order, largest-first."""
    return [PartitionSpec(p) for p in _int_partitions(n, n)]


def _int_partitions(n: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into at most max_parts positive parts, non-increasing."""
    if n == 0:
        yield ()
        return
    if max_parts == 0:
        return

    def rec(remaining: int, cap: int, slots: int, acc: tuple[int, ...]):
        if remaining == 0:
            yield acc
            return
        if slots == 0:
            return
        for p in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - p, p, slots - 1, acc + (p,))

    yield from rec(n, n, max_parts, ())


# ---------------------------------------------------------------------------
# decoration plans for a single chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Plan:
    """One way to spend the budget; charges are per-level weight totals."""

    depth: int
    sigma_lift: int = 0
    tau_lift: int = 0
    tau_inserted: int = 0           # extra tau at depth 2
    tau_phi_insert: bool = False    # phi inserted into the tau level (depth 1)
    tau_phi_lift: int = 0
    phi_base_lift: int = 0
    phi_inserted_lifts: tuple[int, ...] | None = None  # None = no insertion
    arg_lifts: tuple[int, ...] = (0,)   # one entry per point argument
    map_subst: bool = False

    def charges(self, m: CostModel) -> dict[str, int]:
        """Weight per level, ground-to-head like ``m.caps[self.depth]``."""
        out = {"ground": (
            m.extra_arg_cost * max(0, len(self.arg_lifts) - 1)
            + m.lift_cost * sum(self.arg_lifts)
            + (m.map_subst_cost if self.map_subst else 0)
            + m.lift_cost * self.tau_phi_lift
        )}
        if self.depth >= 2:
            out["phi"] = m.lift_cost * self.phi_base_lift
            if self.phi_inserted_lifts is not None:
                out["phi"] += m.insert_cost * len(self.phi_inserted_lifts)
                out["phi"] += m.lift_cost * sum(self.phi_inserted_lifts)
        if self.depth >= 1:
            out["tau"] = (
                m.lift_cost * self.tau_lift
                + m.insert_cost * self.tau_inserted
                + (m.insert_cost if self.tau_phi_insert else 0)
            )
        out["sigma"] = m.lift_cost * self.sigma_lift
        return out

    def cost(self, m: CostModel) -> int:
        return sum(self.charges(m).values())

    def build(self) -> TopologyExpr:
        levels: list[tuple[DecoratedSymbol, ...]] = [(op(0, lift=self.sigma_lift),)]
        if self.depth >= 1:
            level1 = [op(1, lift=self.tau_lift)]
            if self.tau_inserted:
                level1.extend(op(1) for _ in range(self.tau_inserted))
            if self.tau_phi_insert:
                level1.append(op(2, lift=self.tau_phi_lift))
            levels.append(tuple(level1))
        if self.depth >= 2:
            level2 = [op(2, lift=self.phi_base_lift)]
            if self.phi_inserted_lifts is not None:
                level2.extend(op(2, lift=lv) for lv in self.phi_inserted_lifts)
            levels.append(tuple(level2))
        if self.map_subst:
            args = (arg(map_subst=True),)
        else:
            args = tuple(arg(i + 1, lift=lv) for i, lv in enumerate(self.arg_lifts))
        return canonicalize(TopologyExpr(tuple(levels), args))


def _ground_variants(budget: int, model: CostModel) -> Iterator[dict]:
    """Ways to spend exactly ``budget`` on the argument tuple."""
    if budget == model.map_subst_cost:
        yield {"map_subst": True, "arg_lifts": ()}
    for extra in range(0, budget // model.extra_arg_cost + 1):
        left = budget - extra * model.extra_arg_cost
        if left % model.lift_cost:
            continue
        units = left // model.lift_cost
        for lifts in _int_partitions(units, extra + 1):
            padded = tuple(lifts) + (0,) * (extra + 1 - len(lifts))
            yield {"map_subst": False, "arg_lifts": padded}


def _plans(depth: int, model: CostModel) -> Iterator[_Plan]:
    """Every way to spend the rank budget depth + 1 on a chain of ``depth``."""
    m = model
    budget = depth + 1
    for sigma_lift in range(0, budget // m.lift_cost + 1):
        tau_variants: list[dict] = [{}]
        if depth == 1:
            tau_variants += [{"tau_lift": t}
                             for t in range(1, budget // m.lift_cost + 1)]
            for ins_lift in range(0, budget // m.lift_cost + 1):
                tau_variants.append(
                    {"tau_phi_insert": True, "tau_phi_lift": ins_lift})
        elif depth == 2:
            tau_variants += [{"tau_lift": t}
                             for t in range(1, budget // m.lift_cost + 1)]
            tau_variants += [{"tau_inserted": k}
                             for k in range(1, budget // m.insert_cost + 1)]
        phi_variants: list[dict] = [{}]
        if depth == 2:
            phi_variants = []
            for base_lift in range(0, budget // m.lift_cost + 1):
                phi_variants.append({"phi_base_lift": base_lift})
                for k in range(1, budget // m.insert_cost + 1):
                    room = budget - k * m.insert_cost - base_lift * m.lift_cost
                    if room < 0:
                        break
                    for units in range(0, room // m.lift_cost + 1):
                        for lifts in _int_partitions(units, k):
                            padded = tuple(lifts) + (0,) * (k - len(lifts))
                            phi_variants.append({
                                "phi_base_lift": base_lift,
                                "phi_inserted_lifts": padded,
                            })
        for tv in tau_variants:
            for pv in phi_variants:
                partial = _Plan(depth=depth, sigma_lift=sigma_lift,
                                arg_lifts=(0,), **tv, **pv)
                spent = partial.cost(m)
                ground = budget - spent
                if ground < 0:
                    continue
                for gv in _ground_variants(ground, m):
                    yield _Plan(depth=depth, sigma_lift=sigma_lift,
                                **tv, **pv, **gv)


def enumerate_topologies(
    depth: int,
    model: CostModel | None = None,
) -> frozenset[TopologyExpr]:
    """All allowed decorated chains of the given depth.

    The rank budget is depth + 1; a plan is kept when each level's charge
    is within ``model.caps[depth]`` and no enabled exclusion rule matches
    it.  Results are deduplicated by canonical form.  Multi-part
    partitions describe groves; see :func:`enumerate_groves`.
    """
    model = model or CostModel()
    if depth not in range(MAX_DEPTH + 1):
        raise GroveError(f"unsupported depth {depth}; shipped build caps at {MAX_DEPTH}")
    caps = model.caps[depth]
    rules = [rule for name, rule in EXCLUSION_RULES.items()
             if name in model.exclusions]
    produced = set()
    for plan in _plans(depth, model):
        ch = plan.charges(model)
        if any(c > cap for c, cap in zip(ch.values(), caps)):
            continue
        if any(rule(plan, ch) for rule in rules):
            continue
        produced.add(plan.build())
    if model.table2_entry27_as_printed and depth == 2:
        model_form = parse(ENTRY27_MODEL)
        if model_form in produced:
            produced.discard(model_form)
            produced.add(parse(ENTRY27_PRINTED))
    return frozenset(produced)


def enumerate_groves(
    partition: PartitionSpec | tuple[int, ...],
    model: CostModel | None = None,
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
    model = model or CostModel()
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
    pools = [
        sorted(enumerate_topologies(p - 1, model),
               key=lambda e: e.render())
        for p in parts
    ]
    groves = [()]
    for pool in pools:
        groves = [g + (t,) for g in groves for t in pool]
    return frozenset(Grove(g) for g in groves)


def count_by_rank(r: int, model: CostModel | None = None) -> int:
    """Number of allowed topologies whose rank is r (r in 1..3)."""
    if r not in (1, 2, 3):
        raise GroveError(f"rank must be 1, 2 or 3, got {r}")
    return len(enumerate_topologies(r - 1, model))


def total_multiplicity(depth: int, model: CostModel | None = None) -> int:
    """Total pruned description size over all partitions of depth + 1."""
    if depth not in (1, 2):
        raise GroveError(f"total_multiplicity is defined for depths 1 and 2, got {depth}")
    n = depth + 1
    total = 0
    for part in partitions_of(n):
        total += len(enumerate_groves(part, model))
    return total


# ---------------------------------------------------------------------------
# reference tables and verification
# ---------------------------------------------------------------------------

#: reference table files; table d lists the allowed chains of depth d
TABLE_FILES = {0: "table0.txt", 1: "table1.txt", 2: "table2.txt"}


def _table_path(name: str) -> Path:
    return Path(str(importlib.resources.files("grovekit") / "tables" / name))


@lru_cache(maxsize=None)
def load_table(table: int) -> frozenset[TopologyExpr]:
    """Reference expressions for a shipped table (0 = zeroth order)."""
    if table not in TABLE_FILES:
        raise GroveError(f"unknown table {table!r}; expected 0, 1 or 2")
    path = _table_path(TABLE_FILES[table])
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


def verify_against_table(table: int, model: CostModel | None = None) -> EnumerationReport:
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


def _situation_valid(s: SituationExpr) -> bool:
    # Fitted grammar rules; see the package docs for the fit caveat.
    if not s.is_tensor:
        return True
    if s.cost() < 2:
        return False  # tensor pairs only arise at meta-policy order
    if any(j > 1 for j in s.operands):
        return False
    if any(s.operands):
        return len(s.pow_lifts) == 1
    return not any(s.pow_lifts)


def enumerate_situations(order: int) -> frozenset[SituationExpr]:
    """All situation expressions of the given order (1, 2 or 3)."""
    if order not in (1, 2, 3):
        raise GroveError(f"order must be 1, 2 or 3, got {order}")
    found = set()
    for chain_len in range(1, order + 2):
        for lifts in _compositions(order, chain_len):
            budget_left = order - sum(lifts) - (chain_len - 1)
            if budget_left < 0:
                continue
            for a in range(budget_left + 1):
                cand = SituationExpr(tuple(lifts), (a,))
                if cand.cost() == order and _situation_valid(cand):
                    found.add(cand)
            for a in range(budget_left + 2):
                for b in range(budget_left + 2):
                    cand = SituationExpr(tuple(lifts), (a, b))
                    if cand.cost() == order and _situation_valid(cand):
                        found.add(cand)
    return frozenset(found)


def _compositions(total: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of non-negative ints summing to at most total."""
    if k == 1:
        for v in range(total + 1):
            yield (v,)
        return
    for v in range(total + 1):
        for rest in _compositions(total - v, k - 1):
            yield (v,) + rest


SITUATIONS_FILE = "situations2.txt"


@lru_cache(maxsize=None)
def load_situations_reference() -> frozenset[str]:
    path = _table_path(SITUATIONS_FILE)
    return frozenset(
        line.strip() for line in path.read_text().splitlines() if line.strip())
