"""Seeded commons game with a permit-issuing regulator.

The canonical instance is a logistic resource shared by N extracting
agents.  A law is a permit cap with slack and probabilistic enforcement;
a policy maps round statistics to a law.  Everything is deterministic
given the seed: each agent owns two numpy substreams (decisions and
enforcement draws), so changing the law never shifts anyone's decision
noise and a q = 0 law reproduces the lawless trace bit for bit.

The game owns its agents: `GameState.admit` is the one place an agent
joins, for the configured agents of one order at round 0 and for influx
agents, always order 0, when they arrive.  Agent i's decision stream is
``default_rng([seed, i]).normal(DESIRE_MEAN, DESIRE_SD)`` and its
enforcement stream ``default_rng([seed, i, 1]).random()``.  `_chunked`
draws each in blocks of `SUBSTREAM_CHUNK` values, which numpy makes equal
to as many scalar draws, so traces are byte-identical to drawing one
scalar at a time; tests/test_regsim_golden.py holds the digests.
"""

from __future__ import annotations

import io
import math
from collections import deque
from dataclasses import FrozenInstanceError, dataclass, field, fields, replace
from functools import reduce
from itertools import chain
from operator import add, index
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import variational
from .expr import GroveError
from .model import EXPECTED, load_config, numbers, read_key, reject_unread
from .variational import CriticalityError, Functional


class RegsimError(GroveError):
    """A game, law, policy or event value out of range: a usage error."""


#: most agents one game holds, configured and influx agents together
MAX_AGENTS = 10_000
#: most rounds one episode plays; its trace keeps a row per round
MAX_ROUNDS = 100_000
#: most agents times rounds one game may hold; a trace keeps about 40 B
#: per agent-round, so this caps it near 400 MB
MAX_AGENT_ROUNDS = 10_000_000


def _plain(value):
    """``value``, or the Python number of a numpy scalar, so that traces,
    events and scenario text hold Python reprs."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class GameConfig:
    n_agents: int = 8
    capacity: float = 100.0
    regrowth: float = 0.15
    rounds: int = 500
    outside_option: float = 0.5
    retention_weight: float = 0.1
    inspection_cost: float = 0.0
    exit_window: int = 25
    seed: int = 1

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _plain(getattr(self, f.name)))
        for name in ("n_agents", "rounds", "exit_window", "seed"):
            value = getattr(self, name)
            try:
                index(value)
            except TypeError:
                raise RegsimError(
                    f"{name} must be an integer, got {value!r}") from None
        if self.n_agents < 2:
            raise RegsimError("need at least 2 agents")
        if self.n_agents > MAX_AGENTS:
            raise RegsimError(f"at most {MAX_AGENTS} agents, "
                              f"got n_agents = {self.n_agents}")
        if not 0 < self.capacity < math.inf:
            raise RegsimError("capacity must be positive and finite")
        if not 0 < self.regrowth < 1:
            raise RegsimError("regrowth rate must lie in (0, 1)")
        if self.rounds < 0:
            raise RegsimError("round count must be nonnegative")
        if self.rounds > MAX_ROUNDS:
            raise RegsimError(f"at most {MAX_ROUNDS} rounds, "
                              f"got rounds = {self.rounds}")
        if self.exit_window < 1:
            raise RegsimError("exit window must be at least 1 round")
        if self.seed < 0:
            raise RegsimError("seed must be nonnegative")
        for name in ("outside_option", "retention_weight"):
            if not math.isfinite(getattr(self, name)):
                raise RegsimError(f"{name} must be finite")
        if not 0 <= self.inspection_cost < math.inf:
            raise RegsimError("inspection_cost must be nonnegative and finite")
        if self.n_agents * self.rounds > MAX_AGENT_ROUNDS:
            raise RegsimError(
                f"at most {MAX_AGENT_ROUNDS} agent-rounds, got n_agents = "
                f"{self.n_agents} and rounds = {self.rounds}")


@dataclass(frozen=True, slots=True)
class Law:
    cap: float
    slack: float = 0.0
    enforcement: float = 1.0
    penalty: float = 1.0
    #: cap x (1 + slack): requests up to it pass without an enforcement draw
    tolerance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.cap >= 0:
            raise RegsimError("permit cap must be nonnegative")
        if not 0.0 <= self.slack <= 1.0:
            raise RegsimError("slack must lie in [0, 1]")
        if not 0.0 <= self.enforcement <= 1.0:
            raise RegsimError("enforcement probability must lie in [0, 1]")
        if not self.penalty >= 0:
            raise RegsimError("penalty multiplier must be nonnegative")
        object.__setattr__(self, "tolerance", self.cap * (1.0 + self.slack))

    def with_cap(self, cap: float) -> "Law":
        """This law with permit cap ``cap`` >= 0.

        The other fields were checked when this law was made, so the copy
        skips `__post_init__`; it is equal to, and has the repr and the
        tolerance of, ``Law(cap, slack, enforcement, penalty)``.
        """
        law = object.__new__(Law)
        set_cap, set_slack, set_q, set_beta, set_tolerance = _LAW_SLOTS
        set_cap(law, cap)
        set_slack(law, self.slack)
        set_q(law, self.enforcement)
        set_beta(law, self.penalty)
        set_tolerance(law, cap * (1.0 + self.slack))
        return law


#: the setters of `Law`'s slots in field order; they write past the
#: frozen class's __setattr__, as its __init__ does
_LAW_SLOTS = tuple(getattr(Law, f.name).__set__ for f in fields(Law))


def _refuse(law, name, *value):
    raise FrozenInstanceError(
        f"cannot {'assign to' if value else 'delete'} field {name!r}")


# dataclass(frozen=True, slots=True) refuses a field with
# FrozenInstanceError but any other name with a TypeError from super()
# (CPython 3.10 to 3.13); a law refuses every name the same way
Law.__setattr__ = Law.__delattr__ = _refuse


#: damping of an order >= 1 agent's desire per unit of believed decline
DECLINE_SENSITIVITY = 8.0
#: prior precision of the decline posterior (known unit observation precision)
PRIOR_PRECISION = 4.0
#: every agent's desired extraction is a normal(DESIRE_MEAN, DESIRE_SD) draw
DESIRE_MEAN = 3.0
DESIRE_SD = 0.5


@dataclass(slots=True)
class AgentModel:
    """Extractor with order-many auxiliary belief distributions.

    Order 0 samples a desired extraction from one fixed normal.  Order 1
    scales desire down by the game's posterior over the resource decline
    rate, which `step` passes to `agent_decide`.  Order 2 further keeps a
    Beta posterior over the regulator's enforcement probability and plays
    a one-step best response to the current law.

    Every agent records its enforcements; `agent_decide` is the one place
    the order is read, so only it decides which beliefs are used.  An
    agent seated by `GameState.admit` also carries its two streams, its
    last ``exit_window`` gains and its utility, outside repr and equality.
    """

    order: int = 0
    decision_draw: Callable[[], float] | None = field(
        default=None, repr=False, compare=False)
    enforcement_draw: Callable[[], float] | None = field(
        default=None, repr=False, compare=False)
    recent: deque[float] = field(
        default_factory=deque, repr=False, compare=False)
    utility: float = field(default=0.0, repr=False, compare=False)
    # enforcement posterior (Beta)
    _enforced: float = field(default=1.0, init=False, repr=False)
    _unenforced: float = field(default=1.0, init=False, repr=False)

    def __post_init__(self):
        if self.order not in (0, 1, 2):
            raise RegsimError("agent order must be 0, 1, or 2")

    def observe_enforcement(self, enforced: bool) -> None:
        if enforced:
            self._enforced += 1.0
        else:
            self._unenforced += 1.0


def agent_decide(agent: AgentModel, law: Law | None, draw: float,
                 decline: float) -> float:
    """Desired extraction for this round; always >= 0.

    ``draw`` is the agent's next normal(DESIRE_MEAN, DESIRE_SD) value and
    ``decline`` the posterior mean of the fractional per-round decline.
    """
    desire = draw if draw > 0.0 else 0.0
    if agent.order >= 1:
        damp = 1.0 - DECLINE_SENSITIVITY * (
            decline if decline > 0.0 else 0.0)
        desire *= damp if damp > 0.0 else 0.0
        if agent.order >= 2 and law is not None and desire > law.tolerance:
            # posterior mean of the enforcement probability
            qhat = agent._enforced / (agent._enforced + agent._unenforced)
            # expected utility of pressing the violation vs staying compliant
            violate = desire * (1.0 - qhat) + qhat * (
                law.cap - law.penalty * (desire - law.cap))
            if law.tolerance >= violate:
                desire = law.tolerance
    return desire


def apply_law(law: Law | None, extraction: float,
              u: float) -> tuple[float, float]:
    """Returns (allowed extraction, penalty).

    Within cap x (1 + slack) the request passes untouched and ``u`` is
    ignored.  Beyond it the uniform draw ``u`` decides: with probability q
    the excess is confiscated and fined, otherwise the violation slips
    through.
    """
    if law is None or extraction <= law.tolerance:
        return extraction, 0.0
    if u < law.enforcement:
        return law.cap, law.penalty * (extraction - law.cap)
    return extraction, 0.0


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

POLICY_FAMILIES = ("none", "fixed", "slack1d")
#: the slack1d law's enforcement probability and penalty multiplier
SLACK1D_ENFORCEMENT = 0.9
SLACK1D_PENALTY = 1.0
#: the slack1d cap steers the stock toward TARGET_FRACTION x capacity
TARGET_FRACTION = 0.6
FEEDBACK_GAIN = 0.05


@dataclass(frozen=True)
class PolicySpec:
    """Maps round statistics to a Law.

    Families:
      none     -- no law ever; theta ignored.
      fixed    -- theta = (cap, slack, enforcement, penalty), constant law.
      slack1d  -- theta = (slack,); the cap is a feedback rule that
                  harvests regrowth plus a correction steering the stock
                  toward TARGET_FRACTION x K, split over active agents.
                  The single lever is slack, clamped to [0, 1].
    """

    family: str
    theta: tuple[float, ...] = ()
    #: the law built and checked once: the ``fixed`` family's constant
    #: law, or the ``slack1d`` law at cap 0, whose cap `law_for` sets each
    #: round; None for the ``none`` family
    law: Law | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(map(_plain, self.theta)))
        if self.family not in POLICY_FAMILIES:
            raise RegsimError(f"unknown policy family {self.family!r}")
        if self.family == "fixed" and len(self.theta) != 4:
            raise RegsimError("fixed family takes (cap, slack, q, beta)")
        if self.family == "slack1d" and len(self.theta) != 1:
            raise RegsimError("slack1d family takes a single slack lever")
        if not all(map(math.isfinite, self.theta)):
            raise RegsimError("policy theta entries must be finite")
        law = None
        if self.family == "fixed":
            law = Law(*self.theta)
        elif self.family == "slack1d":
            law = Law(0.0, min(1.0, max(0.0, self.theta[0])),
                      SLACK1D_ENFORCEMENT, SLACK1D_PENALTY)
        object.__setattr__(self, "law", law)

    def law_for(self, config: GameConfig, resource: float,
                active: int) -> Law | None:
        if self.family != "slack1d":
            return self.law
        capacity = config.capacity
        regrow = config.regrowth * resource * (1.0 - resource / capacity)
        cap = regrow + FEEDBACK_GAIN * (resource - TARGET_FRACTION * capacity)
        # max(0.0, cap) / max(1, active), without the slower builtin calls
        return self.law.with_cap((cap if cap > 0.0 else 0.0)
                                 / (active if active > 1 else 1))


NO_LAW = PolicySpec("none")


# ---------------------------------------------------------------------------
# state, events, episode loop
# ---------------------------------------------------------------------------

EVENT_KINDS = ("null", "capacity_drop", "regrowth_change", "agent_influx")


@dataclass(frozen=True)
class Excession:
    """External rule change landing at a given round."""

    round: int
    kind: str
    value: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "value", _plain(self.value))
        try:
            index(self.round)
        except TypeError:
            raise RegsimError(f"event round must be an integer, "
                              f"got {self.round!r}") from None
        if self.kind not in EVENT_KINDS:
            raise RegsimError(f"unknown excession kind {self.kind!r}")


@dataclass
class GameState:
    """The resource, the round and every agent that ever joined the game.

    ``config`` is the game being played; ``agents`` holds its
    ``config.n_agents`` agents in order of arrival and ``active`` marks
    those still playing.  ``playing`` lists the ``(index, agent)`` pairs
    of the active agents in index order, so a round walks only them.
    `admit` and the exit in `step` are the only places these change.

    ``declined`` sums each round's fractional drop, left to right.  Every
    agent watches the same public drop from the same prior, and only the
    configured agents, seated at round 0, may have order >= 1, so one
    normal posterior with mean ``declined / (PRIOR_PRECISION + round)`` is
    the belief of every agent that reads it.
    """

    config: GameConfig
    resource: float
    round: int = 0
    agents: list[AgentModel] = field(default_factory=list)
    active: list[bool] = field(default_factory=list)
    playing: list[tuple[int, AgentModel]] = field(default_factory=list)
    declined: float = 0.0
    events: list[str] = field(default_factory=list)

    @classmethod
    def initial(cls, config: GameConfig, order: int = 0) -> "GameState":
        state = cls(config, config.capacity)
        state.admit(order)
        return state

    def admit(self, order: int = 0) -> None:
        """Seat agents of ``order`` until there are ``config.n_agents``;
        after round 0 only order 0, which reads no decline."""
        if order and self.round:
            raise RegsimError(f"only order-0 agents join after round 0, "
                              f"got order {order} at round {self.round}")
        seed, window = self.config.seed, self.config.exit_window
        for i in range(len(self.agents), self.config.n_agents):
            agent = AgentModel(
                order,
                _chunked([seed, i], "normal", DESIRE_MEAN, DESIRE_SD).__next__,
                _chunked([seed, i, 1], "random").__next__,
                deque(maxlen=window))
            self.agents.append(agent)
            self.active.append(True)
            self.playing.append((i, agent))


def inject_excession(state: GameState, event: Excession) -> None:
    """Apply ``event`` as a new `GameConfig`, which checks it; a rejected
    event raises RegsimError naming its kind and round."""
    cfg, kind, value = state.config, event.kind, event.value
    try:
        if kind == "capacity_drop":
            cfg = replace(cfg, capacity=cfg.capacity * value)
        elif kind == "regrowth_change":
            cfg = replace(cfg, regrowth=value)
        elif kind == "agent_influx":
            # the comparison is false for nan as well
            if not 0 <= value < math.inf:
                raise RegsimError(f"an influx must be a finite count >= 0, "
                                  f"got {value!r}")
            if value != int(value):
                raise RegsimError(f"an influx must be a whole count, "
                                  f"got {value!r}")
            value = int(value)
            cfg = replace(cfg, n_agents=cfg.n_agents + value)
    except RegsimError as exc:
        raise RegsimError(f"{kind} at round {state.round}: {exc}") from None
    state.config = cfg
    state.resource = min(state.resource, cfg.capacity)
    state.admit()
    state.events.append(f"{state.round}:{kind}" if kind == "null"
                        else f"{state.round}:{kind}:{value!r}")


#: draws taken from a substream's Generator at a time
SUBSTREAM_CHUNK = 256


def _chunked(key: list[int], method: str, *args: float) -> Iterator[float]:
    """Endless draws of ``default_rng(key).<method>(*args)``, in chunks.

    The Generator is made at the first draw, so a substream that is never
    read costs nothing.  `chain` hands out each chunk's values in C, so a
    draw does not resume a Python generator.
    """
    def chunks():
        draw = getattr(np.random.default_rng(key), method)
        while True:
            yield draw(*args, size=SUBSTREAM_CHUNK).tolist()
    return chain.from_iterable(chunks())


def step(state: GameState,
         law: Law | None) -> tuple[list[float], list[float]]:
    """Play one round under ``law``; returns its fresh ``(allowed,
    penalties)`` lists, one entry per agent that ever joined.

    Each active agent decides, then is enforced: its enforcement stream
    is drawn only for a request above the law's tolerance.  The loops walk
    ``state.playing``, so a round costs in proportion to the agents still
    playing.  `step` builds no record: `run_episode` alone does, and only
    when its caller keeps the trace.
    """
    cfg = state.config
    agents, active, playing = state.agents, state.active, state.playing
    n = len(active)
    allowed = [0.0] * n
    penalties = [0.0] * n
    tolerance = math.inf if law is None else law.tolerance
    # every float sum here adds left to right, as the builtin sum did
    # before Python 3.12 made it compensated, so the bits never move
    demand = 0.0
    # the decline posterior's mean, prior mean 0
    decline = state.declined / (PRIOR_PRECISION + state.round)
    for i, agent in playing:
        request = agent_decide(agent, law, agent.decision_draw(), decline)
        if request > tolerance:  # only these requests draw
            granted, penalties[i] = apply_law(
                law, request, agent.enforcement_draw())
            agent.observe_enforcement(granted < request)
            request = granted
        allowed[i] = request
        demand += request
    r_before = state.resource
    if demand > r_before and demand > 0:
        # scale lies in [0, 1), so the inactive agents' 0.0 stay 0.0
        scale = r_before / demand
        for i, _ in playing:
            allowed[i] *= scale
        demand = r_before
    capacity = cfg.capacity
    resource = r_before - demand
    resource += cfg.regrowth * resource * (1.0 - resource / capacity)
    # min(capacity, max(0.0, resource)), without the slower builtin calls
    resource = resource if resource > 0.0 else 0.0
    state.resource = resource = resource if resource < capacity else capacity
    state.declined += (r_before - resource) / capacity

    for i, agent in playing:
        gain = allowed[i] - penalties[i]
        agent.utility += gain
        agent.recent.append(gain)
    # only agent round % n may exit: staggered checks let one departure
    # lift the survivors' shares before the next agent reconsiders
    turn = state.round % n
    if active[turn] and len(agents[turn].recent) == cfg.exit_window:
        total = 0.0
        for past in agents[turn].recent:
            total += past
        if total / cfg.exit_window < cfg.outside_option:
            active[turn] = False
            playing.remove((turn, agents[turn]))
            state.events.append(f"{state.round}:exit:{turn}")
    state.round += 1
    return allowed, penalties


@dataclass(frozen=True)
class Trace:
    rows: tuple[dict, ...]
    events: tuple[str, ...]
    welfare: float
    total_utility: float
    retained_rounds: int
    inspection_charge: float

    def min_resource(self) -> float:
        return min((r["resource"] for r in self.rows), default=math.inf)

    def to_csv(self) -> str:
        """One line per round.  The agent columns cover every agent that
        ever played; rounds before an influx leave the newcomers' cells
        empty, so every line has the header's cell count.

        Every value cell is its value's ``repr``.  A nonzero float is
        rendered once and looked up after that: equal floats share one
        repr, but 0.0 and -0.0, or 3 and 3.0, are equal keys that render
        apart, so zeros and values of any other type bypass the memo.
        """
        memo = _Reprs()

        def cells(values):
            return [memo[x] if x and type(x) is float else repr(x)
                    for x in values]

        buf = io.StringIO()
        n = max((len(row["extraction"]) for row in self.rows), default=0)
        cols = ["round", "resource"]
        cols += [f"extraction{i}" for i in range(n)]
        cols += [f"penalty{i}" for i in range(n)]
        cols += [f"active{i}" for i in range(n)]
        cols += ["law_cap", "law_slack", "law_q", "law_beta", "events"]
        buf.write(",".join(cols) + "\n")
        per_round_events = {}
        for ev in self.events:
            rnd = int(ev.split(":", 1)[0])
            per_round_events.setdefault(rnd, []).append(ev.split(":", 1)[1])
        for row in self.rows:
            law = row["law"]
            evs = ";".join(per_round_events.get(row["round"] - 1, []))
            absent = [""] * (n - len(row["extraction"]))
            line = [str(row["round"]), *cells((row["resource"],))]
            line += cells(row["extraction"]) + absent
            line += cells(row["penalty"]) + absent
            line += ["1" if a else "0" for a in row["active"]] + absent
            line += ["", "", "", ""] if law is None else cells(
                (law.cap, law.slack, law.enforcement, law.penalty))
            line.append(evs)
            buf.write(",".join(line) + "\n")
        return buf.getvalue()


class _Reprs(dict):
    """``repr`` of each key, made at the key's first lookup.  A trace's
    equal values recur within a row or the next, so it starts over at
    `MAX_REPRS` keys instead of keeping every distinct value."""

    def __missing__(self, value):
        if len(self) >= MAX_REPRS:
            self.clear()
        text = self[value] = repr(value)
        return text


#: most renderings one `Trace.to_csv` call keeps at a time
MAX_REPRS = 1024


def run_episode(config: GameConfig, policy: PolicySpec, order: int = 0,
                events: Sequence[Excession] = (), *,
                keep_rows: bool = True) -> Trace:
    """Play one seeded episode of ``config.n_agents`` agents of ``order``
    and return its trace with welfare.

    Welfare is total realized utility plus the retention bonus per
    agent-round spent inside the game, minus inspection costs when the
    config charges them.  A row per round records the resource, each
    agent's extraction, penalty and active flag after the round's exit
    check, and the law; with ``keep_rows`` false none is built and
    ``Trace.rows`` is ``()``, with every other field bit for bit the same.
    """
    state = GameState.initial(config, order)
    by_round = {}
    for ev in events:
        if not 0 <= ev.round < config.rounds:
            raise RegsimError(f"event at round {ev.round} outside the "
                              f"{config.rounds}-round horizon "
                              f"(0 <= round < {config.rounds})")
        by_round.setdefault(ev.round, []).append(ev)

    rows = []
    retained = 0
    inspection = 0.0
    for t in range(config.rounds):
        for ev in by_round.get(t, ()):
            inject_excession(state, ev)
        n_active = len(state.playing)
        law = policy.law_for(state.config, state.resource, n_active)
        retained += n_active
        if law is not None and state.config.inspection_cost > 0:
            inspection += (state.config.inspection_cost
                           * law.enforcement * n_active)
        allowed, penalties = step(state, law)
        if keep_rows:
            rows.append({
                "round": state.round,
                "resource": state.resource,
                "extraction": tuple(allowed),
                "penalty": tuple(penalties),
                "active": tuple(state.active),
                "law": law,
            })
    # left to right, as `step` sums
    total_utility = reduce(add, [a.utility for a in state.agents], 0.0)
    welfare = (total_utility
               + config.retention_weight * retained
               - inspection)
    if not math.isfinite(welfare):
        raise RegsimError(f"welfare is not finite: {welfare!r}")
    return Trace(tuple(rows), tuple(state.events), welfare,
                 total_utility, retained, inspection)


def mean_welfare(config: GameConfig, policy: PolicySpec,
                 seeds: Sequence[int], order: int = 0,
                 events: Sequence[Excession] = ()) -> float:
    if len(seeds) == 0:
        raise RegsimError("need at least one seed")
    total = 0.0
    for s in seeds:
        cfg = replace(config, seed=int(s))
        total += run_episode(cfg, policy, order, events,
                             keep_rows=False).welfare
    return total / len(seeds)


# ---------------------------------------------------------------------------
# slack optimization
# ---------------------------------------------------------------------------

DEFAULT_SEEDS = tuple(range(1, 11))
#: slack values of the coarse scan, evenly spaced over SLACK_BOUNDS
COARSE_POINTS = 9
SLACK_BOUNDS = (0.0, 1.0)


@dataclass(frozen=True)
class OptimizationResult:
    policy: PolicySpec
    welfare: float
    residual: float
    scan_points: tuple[tuple[float, float], ...]


def optimize_slack(config: GameConfig,
                   seeds: Sequence[int] = DEFAULT_SEEDS,
                   order: int = 0,
                   events: Sequence[Excession] = ()) -> OptimizationResult:
    """Pick the ``slack1d`` lever maximizing mean welfare over the seed set.

    A coarse bracket scan seeds a damped-descent refinement of the
    negative welfare; the better of the two candidates wins.  Every
    episode plays ``events``.  An empty seed set raises RegsimError
    before any episode runs.
    """
    lo, hi = SLACK_BOUNDS

    def welfare_of(s: float) -> float:
        s = min(hi, max(lo, float(s)))
        return mean_welfare(config, PolicySpec("slack1d", (s,)), seeds,
                            order, events)

    grid = [lo + (hi - lo) * k / (COARSE_POINTS - 1)
            for k in range(COARSE_POINTS)]
    scan = [(s, welfare_of(s)) for s in grid]
    best_s, best_w = max(scan, key=lambda p: p[1])

    F = Functional(lambda t: -welfare_of(t[0]), 1, "negative mean welfare")
    residual = 0.0
    try:
        refined = variational.solve_critical(
            F, np.array([best_s]), tol=1e-3, h=0.02,
            max_iter=200, step0=0.05)
        s_ref = float(refined[0])
    except CriticalityError as exc:
        s_ref = float(exc.best_theta[0])
        residual = exc.residual
    s_ref = min(hi, max(lo, s_ref))
    w_ref = welfare_of(s_ref)
    if w_ref > best_w:
        best_s, best_w = s_ref, w_ref
    return OptimizationResult(PolicySpec("slack1d", (best_s,)), best_w,
                              residual, tuple(scan))


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

#: scenario keys of the GameConfig fields, in declaration order, with the
#: type that parses each value
_CONFIG_FIELDS = {f.name: type(f.default) for f in fields(GameConfig)}


def _event(text: str) -> Excession:
    rnd, kind, value = (v.strip() for v in text.split(","))
    return Excession(int(rnd), kind, float(value))


def load_scenario(path: str | Path | None) -> tuple[
        GameConfig, PolicySpec, int, list[Excession]]:
    """Read a flat key-value scenario file: config fields, policy, events.

    Each key is read by `model.read_key`, with a parser that builds its
    object from the keys read before it: ``policy.theta`` (comma
    separated; empty for no levers) before ``policy.family``.  Agent
    order: ``agents.order``.  Events: ``event.<n> = round,kind,value``.
    """
    cfg = load_config(path)
    config = GameConfig()
    for key, kind in _CONFIG_FIELDS.items():
        config = read_key(cfg, path, key, lambda text: replace(
            config, **{key: kind(text)}), config, EXPECTED[kind])
    policy = read_key(cfg, path, "policy.theta", lambda text: PolicySpec(
        "none", numbers(text) if text else ()), NO_LAW, EXPECTED[numbers])
    policy = read_key(cfg, path, "policy.family",
                      lambda text: replace(policy, family=text), policy)
    order = read_key(cfg, path, "agents.order", lambda text: AgentModel(
        int(text)).order, 0, EXPECTED[int])
    events = [read_key(cfg, path, key, _event,
                       expected="round,kind,value with an integer round "
                                "and a number value")
              for key in [k for k in cfg if k.startswith("event.")]]
    reject_unread(cfg, path)
    return config, policy, order, events


def dump_scenario(config: GameConfig, policy: PolicySpec, order: int = 0,
                  events: Sequence[Excession] = ()) -> str:
    lines = [f"{name} = {getattr(config, name)}" for name in _CONFIG_FIELDS]
    lines.append(f"policy.family = {policy.family}")
    if policy.theta:
        lines.append("policy.theta = " + ",".join(repr(t) for t in policy.theta))
    lines.append(f"agents.order = {order}")
    for k, ev in enumerate(events):
        lines.append(f"event.{k} = {ev.round},{ev.kind},{ev.value!r}")
    return "\n".join(lines) + "\n"
