"""Decoration costs, per-level weight caps, and exclusion rules.

The shipped model is a hypothesis fitted to the reference tables: unit
costs per decoration unit, caps following the Fibonacci-style schedules
(2, 1, 1) and (3, 2, 1, 1) ordered ground-to-head, and a small list of
named exclusion rules.  The tables are the oracle; see the enumerator's
verification report for the fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .expr import ARG_MAP, GroveError, TopologyExpr

DEFAULT_CAPS: dict[int, tuple[int, ...]] = {
    0: (1, 1),
    1: (2, 1, 1),
    2: (3, 2, 1, 1),
}

#: Exclusion rules enabled in the shipped model.  Each is a fit to the
#: reference tables, not a derived principle.
DEFAULT_EXCLUSIONS: frozenset[str] = frozenset({
    "no-arg-lift-at-depth-0",
    "map-subst-only-at-depth-0",
    "no-joint-sigma-tau-lift-at-depth-1",
    "depth2-no-tau-phi-ground-mix",
    "depth2-no-double-phi-insert-with-ground",
    "depth2-no-bare-phi-lift-with-double-ground",
})


@dataclass(frozen=True)
class CostModel:
    """Costs and caps driving enumeration; all costs >= 1.

    ``caps`` covers every depth of DEFAULT_CAPS.  ``caps[d]`` has d + 2
    entries ordered ground-to-head: the ground (argument) budget first,
    then one entry per operator level from the innermost up to ``sig``.
    """

    lift_cost: int = 1
    extra_arg_cost: int = 1
    insert_cost: int = 1
    map_subst_cost: int = 1
    caps: dict[int, tuple[int, ...]] = field(
        default_factory=lambda: dict(DEFAULT_CAPS))
    exclusions: frozenset[str] = DEFAULT_EXCLUSIONS
    table2_entry27_as_printed: bool = False

    def __post_init__(self):
        for name in ("lift_cost", "extra_arg_cost", "insert_cost", "map_subst_cost"):
            if getattr(self, name) < 1:
                raise GroveError(f"{name} must be >= 1")
        missing = DEFAULT_CAPS.keys() - self.caps.keys()
        if missing:
            raise GroveError(f"caps missing for depths {sorted(missing)}")
        for depth, caps in self.caps.items():
            if len(caps) != depth + 2:
                raise GroveError(
                    f"caps for depth {depth} must have {depth + 2} entries, "
                    f"got {len(caps)}")
        unknown = self.exclusions - DEFAULT_EXCLUSIONS
        if unknown:
            raise GroveError(f"unknown exclusion rules: {sorted(unknown)}")

    def cap_ground(self, depth: int) -> int:
        return self.caps[depth][0]

    def cap_level(self, depth: int, level: int) -> int:
        """Cap for operator level ``level`` (0 = sig head)."""
        return self.caps[depth][depth + 1 - level]

    def with_entry27_as_printed(self, flag: bool = True) -> "CostModel":
        return replace(self, table2_entry27_as_printed=flag)


def rank(expr: TopologyExpr, model: CostModel | None = None) -> int:
    """Total decoration weight of a canonical expression.

    The undecorated base chain has rank 0; each lift unit, extra argument,
    extra operator symbol, and map substitution adds its model cost.
    """
    model = model or CostModel()
    if expr.is_trivial:
        return 0
    total = 0
    for level in expr.levels:
        total += model.insert_cost * (len(level) - 1)
        total += model.lift_cost * sum(s.lift for s in level)
    point_args = [a for a in expr.args if a.kind != ARG_MAP]
    total += model.map_subst_cost * sum(1 for a in expr.args if a.kind == ARG_MAP)
    if point_args:
        total += model.extra_arg_cost * (len(point_args) - 1)
    total += model.lift_cost * sum(a.lift for a in expr.args)
    return total


# ---------------------------------------------------------------------------
# flat key-value config files
# ---------------------------------------------------------------------------

def parse_config(text: str, origin: str = "<config>") -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GroveError(f"{origin}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_config(path: str | Path) -> dict[str, str]:
    """Read a flat ``key = value`` text file; '#' starts a comment."""
    return parse_config(Path(path).read_text(), origin=str(path))


def model_from_config(path: str | Path) -> CostModel:
    cfg = load_config(path)
    kwargs: dict = {}
    for name in ("lift_cost", "extra_arg_cost", "insert_cost", "map_subst_cost"):
        if name in cfg:
            kwargs[name] = int(cfg[name])
    caps = dict(DEFAULT_CAPS)
    for key, value in cfg.items():
        if key.startswith("caps."):
            depth = int(key.split(".", 1)[1])
            caps[depth] = tuple(int(v) for v in value.split(","))
    kwargs["caps"] = caps
    if "exclusions" in cfg:
        names = [v.strip() for v in cfg["exclusions"].split(",") if v.strip()]
        kwargs["exclusions"] = frozenset(names)
    if "table2_entry27_as_printed" in cfg:
        kwargs["table2_entry27_as_printed"] = (
            cfg["table2_entry27_as_printed"].lower() in ("1", "true", "yes"))
    return CostModel(**kwargs)


def model_to_config(model: CostModel) -> str:
    lines = [
        f"lift_cost = {model.lift_cost}",
        f"extra_arg_cost = {model.extra_arg_cost}",
        f"insert_cost = {model.insert_cost}",
        f"map_subst_cost = {model.map_subst_cost}",
    ]
    for depth in sorted(model.caps):
        lines.append(f"caps.{depth} = " + ",".join(str(c) for c in model.caps[depth]))
    lines.append("exclusions = " + ",".join(sorted(model.exclusions)))
    lines.append(
        f"table2_entry27_as_printed = {str(model.table2_entry27_as_printed).lower()}")
    return "\n".join(lines) + "\n"
