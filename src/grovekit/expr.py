"""Decorated operator-chain expressions and their algebra.

An expression is a chain of operator levels applied to a tuple of ground
arguments.  The head level is ``sig``, followed by ``tau``, then ``phi``;
products of chains extend the sequence with synthetic ``op<n>`` tiers.
Symbols carry a lift order (rendered ``^(k)``) and a 1-based index among the
symbols of one kind in a tuple (rendered for ``sig``, ``tau`` and ``m``:
``tau1, tau2``).

Values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class GroveError(Exception):
    """Base error for expression construction and algebra."""


class GroveParseError(GroveError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CompositionError(GroveError):
    """Raised when two chains cannot be multiplied."""


_BASE_TIER_NAMES = ("sig", "tau", "phi")
ARG_POINT = "m"
ARG_MAP = "phi"


def tier_name(tier: int) -> str:
    if tier < 0:
        raise GroveError(f"operator tier must be >= 0, got {tier}")
    if tier < len(_BASE_TIER_NAMES):
        return _BASE_TIER_NAMES[tier]
    return f"op{tier}"


def name_tier(name: str) -> int:
    if name in _BASE_TIER_NAMES:
        return _BASE_TIER_NAMES.index(name)
    m = re.fullmatch(r"op(\d+)", name)
    if m:
        return int(m.group(1))
    raise GroveError(f"unknown operator name {name!r}")


@dataclass(frozen=True, order=True)
class DecoratedSymbol:
    """One symbol of an expression: an operator tier or a ground argument.

    ``kind`` is an operator name (``sig``/``tau``/``phi``/``op<n>``), the
    point-argument kind ``m``, or ``phi`` in argument position for the
    map-substitution form.  ``lift`` is the superscript order; lift 0
    renders with no superscript.
    """

    kind: str
    index: int = 1
    lift: int = 0

    def __post_init__(self):
        if self.index < 1:
            raise GroveError(f"symbol index must be >= 1, got {self.index}")
        if self.lift < 0:
            raise GroveError(f"symbol lift must be >= 0, got {self.lift}")


def op(tier: int, index: int = 1, lift: int = 0) -> DecoratedSymbol:
    return DecoratedSymbol(tier_name(tier), index, lift)


def arg(index: int = 1, lift: int = 0, *, map_subst: bool = False) -> DecoratedSymbol:
    return DecoratedSymbol(ARG_MAP if map_subst else ARG_POINT, index, lift)


@dataclass(frozen=True)
class TopologyExpr:
    """A decorated operator chain over a tuple of ground arguments.

    ``levels`` is ordered head-outward: ``levels[0]`` is the ``sig`` level.
    Level ``i`` may contain symbols of tier ``i`` plus inserted symbols of
    tier ``i + 1`` (the ``(tau, phi)`` forms).  The empty chain is the
    multiplicative unit :data:`TRIVIAL`.
    """

    levels: tuple[tuple[DecoratedSymbol, ...], ...]
    args: tuple[DecoratedSymbol, ...]

    def __post_init__(self):
        if not self.levels and not self.args:
            return  # the trivial tree
        if not self.levels:
            raise GroveError("non-trivial expression needs at least one level")
        if not self.args:
            raise GroveError("non-trivial expression needs at least one argument")
        for i, level in enumerate(self.levels):
            if not level:
                raise GroveError(f"level {i} is empty")
            tiers = [name_tier(s.kind) for s in level]
            if min(tiers) != i:
                raise GroveError(
                    f"level {i} has base tier {min(tiers)}; expected {i}"
                )
            if any(t not in (i, i + 1) for t in tiers):
                raise GroveError(f"level {i} mixes tiers {sorted(set(tiers))}")
        kinds = {s.kind for s in self.args}
        if not kinds <= {ARG_POINT, ARG_MAP}:
            raise GroveError(f"bad argument kinds {sorted(kinds)}")
        if ARG_MAP in kinds and len(self.args) != 1:
            raise GroveError("map-substitution argument must stand alone")

    @property
    def is_trivial(self) -> bool:
        return not self.levels

    @property
    def depth(self) -> int:
        """Number of operator levels minus one (-1 for the trivial tree)."""
        return len(self.levels) - 1

    def render(self) -> str:
        return render(self)

    def __str__(self) -> str:
        return render(self)


TRIVIAL = TopologyExpr((), ())


def base_chain(depth: int) -> TopologyExpr:
    """Undecorated chain: ``sig(m1)``, ``sig tau(m1)``, ..."""
    if depth < 0:
        raise GroveError("depth must be >= 0")
    return TopologyExpr(tuple((op(t),) for t in range(depth + 1)), (arg(),))


# ---------------------------------------------------------------------------
# rendering and parsing
# ---------------------------------------------------------------------------

#: Kinds written with their index when a tuple repeats them.  ``phi`` and
#: the synthetic ``op<n>`` tiers are written bare: canonical indices count
#: 1..k in sort order, so the parser's relabelling restores them.
_INDEXED_KINDS = ("sig", "tau", ARG_POINT)


def _render_symbol(sym: DecoratedSymbol, repeated: bool) -> str:
    text = sym.kind
    if repeated and sym.kind in _INDEXED_KINDS:
        text += str(sym.index)
    if sym.lift:
        text += f"^({sym.lift})"
    return text


def render(expr: TopologyExpr) -> str:
    """Canonical text form; ``parse(render(e)) == e`` for canonical ``e``."""
    if expr.is_trivial:
        return "1"
    parts = []
    for level in expr.levels:
        kinds = [s.kind for s in level]
        texts = [_render_symbol(s, kinds.count(s.kind) > 1) for s in level]
        parts.append(texts[0] if len(texts) == 1 else "(" + ", ".join(texts) + ")")
    args = ", ".join(_render_symbol(a, True) for a in expr.args)
    return " ".join(parts) + "(" + args + ")"


# A symbol is a name, digits and an optional lift.  After ``op`` the digits
# are the tier; after any other name they are the index.
_SYMBOL_RE = re.compile(r"\s*([a-z]+)(\d*)(?:\s*\^\((\d+)\))?")
_OPEN_RE = re.compile(r"\s*\(")
# After a symbol inside parentheses: a comma, a closing parenthesis, or a
# comma then a closing parenthesis.
_SEPARATOR_RE = re.compile(r"\s*(,)?\s*(\))?")


def _symbol(text: str, pos: int) -> tuple[DecoratedSymbol, int]:
    """The symbol at ``pos`` and the position after it."""
    m = _SYMBOL_RE.match(text, pos)
    if not m:
        raise GroveParseError("expected a symbol name", pos)
    name, digits, lift = m.group(1), m.group(2), int(m.group(3) or 0)
    try:
        if name == ARG_POINT:
            return arg(int(digits or 1), lift), m.end()
        if name == "op":
            return op(name_tier(name + digits), 1, lift), m.end()
        return op(name_tier(name), int(digits or 1), lift), m.end()
    except GroveError as exc:
        raise GroveParseError(str(exc), m.start(1)) from exc


def parse(text: str) -> TopologyExpr:
    """Parse canonical notation, returning the canonicalized expression.

    The text is a sequence of segments, each one symbol or a parenthesized
    comma-separated tuple of symbols.  The last segment is the argument
    tuple and every segment before it is one operator level.
    """
    text = text.rstrip()
    if text.lstrip() == "1":
        return TRIVIAL
    segments: list[tuple[int, tuple[DecoratedSymbol, ...]]] = []
    pos = 0
    while pos < len(text):
        opened = _OPEN_RE.match(text, pos)
        if not opened:
            sym, end = _symbol(text, pos)
            segments.append((pos, (sym,)))
            pos = end
            continue
        symbols, pos = [], opened.end()
        while True:
            sym, pos = _symbol(text, pos)
            symbols.append(sym)
            sep = _SEPARATOR_RE.match(text, pos)
            pos = sep.end()
            if sep.group(2):
                break
            if not sep.group(1):
                raise GroveParseError("expected ',' or ')'", pos)
        segments.append((opened.start(), tuple(symbols)))
    if len(segments) < 2:
        raise GroveParseError("expression needs levels and an argument tuple", 0)

    *levels, (args_pos, args) = segments
    for level_pos, level in levels:
        if any(s.kind == ARG_POINT for s in level):
            raise GroveParseError("argument symbol in operator position", level_pos)
    if any(s.kind not in (ARG_POINT, ARG_MAP) for s in args):
        raise GroveParseError("operator symbol in argument position", args_pos)
    try:
        expr = TopologyExpr(tuple(level for _, level in levels), args)
    except GroveError as exc:
        raise GroveParseError(str(exc), 0) from exc
    return canonicalize(expr)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _canonical_tuple(symbols: tuple[DecoratedSymbol, ...], key) -> tuple[DecoratedSymbol, ...]:
    ordered = sorted(symbols, key=key)
    counters: dict[str, int] = {}
    relabeled = []
    for s in ordered:
        counters[s.kind] = counters.get(s.kind, 0) + 1
        relabeled.append(DecoratedSymbol(s.kind, counters[s.kind], s.lift))
    return tuple(relabeled)


def canonicalize(expr: TopologyExpr) -> TopologyExpr:
    """Sort tuples by (kind order, lift) and relabel indices from 1.

    Idempotent; expressions equal up to index relabeling and tuple
    reordering map to the same canonical form.
    """
    if expr.is_trivial:
        return TRIVIAL
    levels = tuple(
        _canonical_tuple(level, lambda s: (name_tier(s.kind), s.lift, s.index))
        for level in expr.levels
    )
    args = _canonical_tuple(expr.args, lambda s: (s.kind == ARG_MAP, s.lift, s.index))
    return TopologyExpr(levels, args)


# ---------------------------------------------------------------------------
# algebra: multiplication, primality, factorization
# ---------------------------------------------------------------------------

_UNIT_ARGS = (arg(),)


def _shift(level: tuple[DecoratedSymbol, ...], by: int) -> tuple[DecoratedSymbol, ...]:
    return tuple(
        DecoratedSymbol(tier_name(name_tier(s.kind) + by), s.index, s.lift)
        for s in level
    )


def multiply(left: TopologyExpr, right: TopologyExpr) -> TopologyExpr:
    """Chain concatenation: right's levels continue inward of left's.

    The right factor's tiers are re-kinded to continue the fixed operator
    order, and its argument tuple becomes the product's.  The left factor
    must carry an undecorated single argument (nothing is discarded), which
    makes rank additive and depth satisfy d(a*b) = d(a) + d(b) + 1.
    """
    if left.is_trivial:
        return right
    if right.is_trivial:
        return left
    if left.args != _UNIT_ARGS:
        raise CompositionError(
            "left factor has a decorated argument tuple; its decorations "
            "would be discarded by composition"
        )
    shift = len(left.levels)
    levels = left.levels + tuple(_shift(lv, shift) for lv in right.levels)
    return canonicalize(TopologyExpr(levels, right.args))


def factor(expr: TopologyExpr) -> list[TopologyExpr]:
    """Maximal decomposition into prime (single-level) chains.

    Level ``i`` is shifted down ``i`` tiers; the last level keeps the
    argument tuple and every other one takes the undecorated unit argument.
    The product of the returned factors, folded left to right, equals the
    input.  The trivial tree factors into the empty product.
    """
    last = len(expr.levels) - 1
    return [canonicalize(TopologyExpr(
                (_shift(level, -i),), expr.args if i == last else _UNIT_ARGS))
            for i, level in enumerate(expr.levels)]


def is_prime(expr: TopologyExpr) -> bool:
    """True iff the only factorization is trivial * self.

    A cut between any two levels of a valid chain leaves two non-trivial
    chains, so the primes are exactly the one-level chains.  The trivial
    tree has no levels: it is a unit, not a prime.
    """
    return len(expr.levels) == 1


@dataclass(frozen=True)
class Grove:
    """A set of trees, one per part of an integer partition."""

    trees: tuple[TopologyExpr, ...]

    def __post_init__(self):
        if not self.trees:
            raise GroveError("a grove needs at least one tree")

    def render(self) -> str:
        return " | ".join(t.render() for t in self.trees)

    def __str__(self) -> str:
        return self.render()
