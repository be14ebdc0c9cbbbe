"""Decoration costs, per-level weight caps, and exclusion rules.

The shipped model is a hypothesis fitted to the reference tables: unit
costs per decoration unit, caps following the Fibonacci-style schedules
(2, 1, 1) and (3, 2, 1, 1) ordered ground-to-head, and a small list of
named exclusion rules.  The tables are the oracle; see the enumerator's
verification report for the fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from .expr import ARG_MAP, ARG_POINT, GroveError, TopologyExpr, tier_name
from .infotheory import InfoError
from .variational import VariationalError

#: the caps of depths 0, 1 and 2, in that order
DEFAULT_CAPS: tuple[tuple[int, ...], ...] = ((1, 1), (2, 1, 1), (3, 2, 1, 1))

#: Named exclusion rules.  Each predicate takes a decorated chain and its
#: :func:`charges` (keys ``ground``, then ``phi``, ``tau`` and ``sig`` as far
#: as the chain's depth reaches) and is true when the chain is dropped.
#: Each is a fit to the reference tables, not a derived principle.
EXCLUSION_RULES: dict[str, Callable[[TopologyExpr, dict[str, int]], bool]] = {
    "no-arg-lift-at-depth-0":
        lambda e, ch: e.depth == 0 and any(a.lift for a in e.args),
    "map-subst-only-at-depth-0":
        lambda e, ch: e.depth > 0 and e.args[0].kind == ARG_MAP,
    "no-joint-sigma-tau-lift-at-depth-1":
        lambda e, ch: (e.depth == 1 and e.levels[0][0].lift > 0
                       and e.levels[1][0].lift > 0),
    "depth2-no-tau-phi-ground-mix":
        lambda e, ch: (e.depth == 2 and ch["sig"] == 0 and ch["tau"] > 0
                       and ch["phi"] > 0 and ch["ground"] > 0),
    "depth2-no-double-phi-insert-with-ground":
        lambda e, ch: e.depth == 2 and len(e.levels[2]) >= 3 and ch["ground"] > 0,
    "depth2-no-bare-phi-lift-with-double-ground":
        lambda e, ch: (e.depth == 2 and ch["sig"] == 0 and ch["tau"] == 0
                       and len(e.levels[2]) == 1 and e.levels[2][0].lift >= 1
                       and ch["ground"] >= 2),
}

#: The shipped model enables every rule.
DEFAULT_EXCLUSIONS: frozenset[str] = frozenset(EXCLUSION_RULES)

_COST_FIELDS = ("lift_cost", "extra_arg_cost", "insert_cost", "map_subst_cost")

#: Spellings a model file may use for a yes/no value, any case.
_BOOLEANS = {"true": True, "false": False, "1": True, "0": False,
             "yes": True, "no": False}


@dataclass(frozen=True)
class CostModel:
    """Costs and caps driving enumeration; all costs >= 1.

    ``caps`` has one tuple per depth of DEFAULT_CAPS.  ``caps[d]`` has
    d + 2 entries ordered ground-to-head: the ground (argument) budget
    first, then one entry per operator level from the innermost up to
    ``sig``.  The caps are stored as tuples and the exclusions as a
    frozenset, whatever collections are given, so a checked model cannot
    change and can be hashed.
    """

    lift_cost: int = 1
    extra_arg_cost: int = 1
    insert_cost: int = 1
    map_subst_cost: int = 1
    caps: tuple[tuple[int, ...], ...] = DEFAULT_CAPS
    exclusions: frozenset[str] = DEFAULT_EXCLUSIONS
    table2_entry27_as_printed: bool = False

    def __post_init__(self):
        for name in _COST_FIELDS:
            if getattr(self, name) < 1:
                raise GroveError(f"{name} must be >= 1")
        object.__setattr__(self, "caps", tuple(map(tuple, self.caps)))
        object.__setattr__(self, "exclusions", frozenset(self.exclusions))
        if len(self.caps) != len(DEFAULT_CAPS):
            raise GroveError(f"caps must give {len(DEFAULT_CAPS)} depths, "
                             f"got {len(self.caps)}")
        for depth, caps in enumerate(self.caps):
            if len(caps) != depth + 2:
                raise GroveError(
                    f"caps for depth {depth} must have {depth + 2} entries, "
                    f"got {len(caps)}")
            if min(caps) < 0:
                raise GroveError(f"caps for depth {depth} must be >= 0, got {caps}")
        unknown = self.exclusions - EXCLUSION_RULES.keys()
        if unknown:
            raise GroveError(f"unknown exclusion rules: {sorted(unknown)}")


def charges(expr: TopologyExpr, model: CostModel = CostModel()) -> dict[str, int]:
    """Decoration weight per level, ground to head, like ``model.caps[depth]``.

    The keys are ``ground``, then the tier name of each level from the
    innermost out.  The ground carries the argument tuple: each point
    argument beyond the first, a map substitution and argument lifts.  A
    level carries ``insert_cost`` per symbol beyond its first plus the lifts
    of its own-tier symbols.  The lift of a symbol inserted from the next
    tier, as in ``sig (tau, phi^(1))(m1)``, is charged to the ground: a fit
    to the reference tables, like the exclusion rules.
    """
    points = sum(1 for a in expr.args if a.kind == ARG_POINT)
    out = {"ground": (model.extra_arg_cost * max(0, points - 1)
                      + model.map_subst_cost * (len(expr.args) - points)
                      + model.lift_cost * sum(a.lift for a in expr.args))}
    for tier in reversed(range(len(expr.levels))):
        own = tier_name(tier)
        level = expr.levels[tier]
        out[own] = (model.insert_cost * (len(level) - 1)
                    + model.lift_cost * sum(s.lift for s in level if s.kind == own))
        out["ground"] += model.lift_cost * sum(
            s.lift for s in level if s.kind != own)
    return out


def rank(expr: TopologyExpr, model: CostModel = CostModel()) -> int:
    """Total decoration weight; the undecorated base chain has rank 0."""
    return sum(charges(expr, model).values())


# ---------------------------------------------------------------------------
# flat key-value config files
# ---------------------------------------------------------------------------

def load_config(path: str | Path | None) -> dict[str, str]:
    """Read flat ``key = value`` lines from ``path``; '#' starts a comment.

    This is the one reader of the lines of model, config and scenario
    files, and `read_key` and `reject_unread` of their keys.  A key given
    twice is an error, so no line is silently dropped.  No file (``path``
    None or '') has no keys, so its loader returns every default.
    """
    if not path:
        return {}
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise GroveError(f"{path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GroveError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise GroveError(f"{path}:{lineno}: repeated key {key!r}")
        out[key] = value
    return out


def numbers(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def integers(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


#: what each parser of `read_key` expects, named when a value fails it
EXPECTED = {int: "an integer", float: "a number",
            numbers: "numbers separated by commas",
            integers: "integers separated by commas"}

#: Longest value `read_key` quotes whole; a longer one is cut to this many
#: characters, its last three "...", so a fault stays one short line.
QUOTED_CHARS = 140


def read_key(cfg: dict[str, str], origin: str | Path, key: str, parse,
             default=None, expected: str | None = None):
    """``parse`` of the value of ``key``, popped from ``cfg``, or ``default``.

    The one way a loader takes a key, and the one place a value fault is
    worded: ``<origin>: <key> = '<value>': <reason>``, a value longer than
    `QUOTED_CHARS` cut short.  A ValueError or KeyError of ``parse`` says
    what was ``expected`` (``EXPECTED[parse]`` unless given).  A parser
    checks a range by building the object around the value or by a
    library's check: a `GroveError` it raises keeps its class and message;
    an `InfoError` or `VariationalError` is a usage error."""
    if key not in cfg:
        return default
    value = cfg.pop(key)
    try:
        return parse(value)
    except (ValueError, KeyError):
        error, reason = GroveError, f"expected {expected or EXPECTED[parse]}"
    except (GroveError, InfoError, VariationalError) as exc:
        error = type(exc) if isinstance(exc, GroveError) else GroveError
        reason = str(exc)
    if len(value) > QUOTED_CHARS:
        value = value[:QUOTED_CHARS - 3] + "..."
    raise error(f"{origin}: {key} = {value!r}: {reason}")


def reject_unread(cfg: dict[str, str], origin: str | Path | None) -> None:
    """Fail on a key left in ``cfg``: its loader pops each key it reads."""
    if cfg:
        raise GroveError(f"{origin}: unknown key {next(iter(cfg))!r}")


def model_from_config(path: str | Path | None) -> CostModel:
    """Read the keys :func:`model_to_config` writes; any other key is an error."""
    cfg = load_config(path)
    model = CostModel()
    for name in _COST_FIELDS:
        model = read_key(cfg, path, name, lambda text: replace(
            model, **{name: int(text)}), model, EXPECTED[int])
    for depth in range(len(DEFAULT_CAPS)):
        model = read_key(cfg, path, f"caps.{depth}", lambda text: replace(
            model, caps=model.caps[:depth] + (integers(text),)
            + model.caps[depth + 1:]), model, EXPECTED[integers])
    model = read_key(cfg, path, "exclusions", lambda text: replace(
        model, exclusions=frozenset(map(str.strip, text.split(","))) - {""}),
        model)
    model = read_key(cfg, path, "table2_entry27_as_printed", lambda text:
        replace(model, table2_entry27_as_printed=_BOOLEANS[text.lower()]),
        model, "one of " + ", ".join(_BOOLEANS))
    reject_unread(cfg, path)
    return model


def model_to_config(model: CostModel) -> str:
    lines = [f"{name} = {getattr(model, name)}" for name in _COST_FIELDS]
    for depth, caps in enumerate(model.caps):
        lines.append(f"caps.{depth} = " + ",".join(map(str, caps)))
    lines.append("exclusions = " + ",".join(sorted(model.exclusions)))
    lines.append(
        f"table2_entry27_as_printed = {str(model.table2_entry27_as_printed).lower()}")
    return "\n".join(lines) + "\n"
