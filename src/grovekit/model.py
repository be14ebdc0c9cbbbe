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
from typing import Callable

from .expr import ARG_MAP, GroveError, TopologyExpr

DEFAULT_CAPS: dict[int, tuple[int, ...]] = {
    0: (1, 1),
    1: (2, 1, 1),
    2: (3, 2, 1, 1),
}

#: Named exclusion rules.  Each predicate takes an enumeration plan and its
#: per-level charges (keys ``ground``, ``phi``, ``tau`` and ``sigma``, the
#: levels the plan's depth has) and is true when the plan is dropped.  Each
#: is a fit to the reference tables, not a derived principle.
EXCLUSION_RULES: dict[str, Callable[[object, dict[str, int]], bool]] = {
    "no-arg-lift-at-depth-0":
        lambda plan, ch: plan.depth == 0 and any(plan.arg_lifts),
    "map-subst-only-at-depth-0":
        lambda plan, ch: plan.depth > 0 and plan.map_subst,
    "no-joint-sigma-tau-lift-at-depth-1":
        lambda plan, ch: (plan.depth == 1 and plan.sigma_lift > 0
                          and plan.tau_lift > 0),
    "depth2-no-tau-phi-ground-mix":
        lambda plan, ch: (plan.depth == 2 and ch["sigma"] == 0
                          and ch["tau"] > 0 and ch["phi"] > 0
                          and ch["ground"] > 0),
    "depth2-no-double-phi-insert-with-ground":
        lambda plan, ch: (plan.depth == 2
                          and plan.phi_inserted_lifts is not None
                          and len(plan.phi_inserted_lifts) >= 2
                          and ch["ground"] > 0),
    "depth2-no-bare-phi-lift-with-double-ground":
        lambda plan, ch: (plan.depth == 2 and ch["sigma"] == 0
                          and ch["tau"] == 0 and plan.phi_base_lift >= 1
                          and plan.phi_inserted_lifts is None
                          and ch["ground"] >= 2),
}

#: The shipped model enables every rule.
DEFAULT_EXCLUSIONS: frozenset[str] = frozenset(EXCLUSION_RULES)

_COST_FIELDS = ("lift_cost", "extra_arg_cost", "insert_cost", "map_subst_cost")


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
        for name in _COST_FIELDS:
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
        unknown = self.exclusions - EXCLUSION_RULES.keys()
        if unknown:
            raise GroveError(f"unknown exclusion rules: {sorted(unknown)}")

    def with_entry27_as_printed(self) -> "CostModel":
        return replace(self, table2_entry27_as_printed=True)


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
    """Parse flat ``key = value`` lines; '#' starts a comment anywhere.

    This is the one reader of model, config and scenario files.  A key
    given twice is an error, so no line is silently dropped.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GroveError(f"{origin}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise GroveError(f"{origin}:{lineno}: repeated key {key!r}")
        out[key] = value
    return out


def load_config(path: str | Path) -> dict[str, str]:
    """Read a flat ``key = value`` text file; '#' starts a comment."""
    return parse_config(Path(path).read_text(), origin=str(path))


def model_from_config(path: str | Path) -> CostModel:
    """Read the keys :func:`model_to_config` writes; any other key is an error."""
    cfg = load_config(path)
    kwargs: dict = {name: int(cfg.pop(name)) for name in _COST_FIELDS
                    if name in cfg}
    caps = dict(DEFAULT_CAPS)
    for key in [k for k in cfg if k.startswith("caps.")]:
        caps[int(key.split(".", 1)[1])] = tuple(
            int(v) for v in cfg.pop(key).split(","))
    kwargs["caps"] = caps
    if "exclusions" in cfg:
        names = [v.strip() for v in cfg.pop("exclusions").split(",") if v.strip()]
        kwargs["exclusions"] = frozenset(names)
    if "table2_entry27_as_printed" in cfg:
        kwargs["table2_entry27_as_printed"] = (
            cfg.pop("table2_entry27_as_printed").lower() in ("1", "true", "yes"))
    if cfg:
        raise GroveError(f"{path}: unknown key {next(iter(cfg))!r}")
    return CostModel(**kwargs)


def model_to_config(model: CostModel) -> str:
    lines = [f"{name} = {getattr(model, name)}" for name in _COST_FIELDS]
    for depth in sorted(model.caps):
        lines.append(f"caps.{depth} = " + ",".join(str(c) for c in model.caps[depth]))
    lines.append("exclusions = " + ",".join(sorted(model.exclusions)))
    lines.append(
        f"table2_entry27_as_printed = {str(model.table2_entry27_as_printed).lower()}")
    return "\n".join(lines) + "\n"
