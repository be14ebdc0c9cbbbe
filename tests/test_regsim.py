import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grovekit import regsim
from grovekit.expr import GroveError
from grovekit.regsim import (
    EVENT_KINDS,
    FEEDBACK_GAIN,
    MAX_AGENT_ROUNDS,
    MAX_AGENTS,
    MAX_ROUNDS,
    NO_LAW,
    AgentModel,
    Decline,
    Excession,
    GameConfig,
    GameState,
    Law,
    PolicySpec,
    RegsimError,
    SLACK1D_ENFORCEMENT,
    SLACK1D_PENALTY,
    TARGET_FRACTION,
    agent_decide,
    apply_law,
    _chunked,
    dump_scenario,
    inject_excession,
    load_scenario,
    mean_welfare,
    optimize_slack,
    run_episode,
    step,
)

SEEDS = range(1, 11)


def test_config_validation():
    with pytest.raises(RegsimError):
        GameConfig(n_agents=1)
    with pytest.raises(RegsimError):
        GameConfig(n_agents=MAX_AGENTS + 1)
    with pytest.raises(RegsimError):
        GameConfig(regrowth=1.5)
    with pytest.raises(RegsimError):
        GameConfig(capacity=0.0)
    assert GameConfig(rounds=MAX_ROUNDS).rounds == MAX_ROUNDS
    for rounds in (MAX_ROUNDS + 1, 10 ** 18):
        with pytest.raises(RegsimError, match=f"at most {MAX_ROUNDS} rounds"):
            GameConfig(rounds=rounds)


def test_config_bounds_agent_rounds():
    # configs at the bound are only constructed: an episode there would
    # keep about 400 MB of trace
    rounds = MAX_AGENT_ROUNDS // 1000
    at_bound = GameConfig(n_agents=1000, rounds=rounds)
    assert at_bound.n_agents * at_bound.rounds == MAX_AGENT_ROUNDS
    with pytest.raises(RegsimError, match=(
            f"at most {MAX_AGENT_ROUNDS} agent-rounds, "
            f"got n_agents = 1000 and rounds = {rounds + 1}")):
        GameConfig(n_agents=1000, rounds=rounds + 1)
    # each field alone is still checked first, with its own message
    with pytest.raises(RegsimError, match=f"at most {MAX_ROUNDS} rounds"):
        GameConfig(n_agents=MAX_AGENTS, rounds=MAX_ROUNDS + 1)


def test_influx_may_not_cross_the_agent_round_bound():
    rounds = MAX_AGENT_ROUNDS // 1000
    state = GameState.initial(GameConfig(rounds=rounds))
    with pytest.raises(RegsimError, match=f"{MAX_AGENT_ROUNDS} agent-rounds"):
        inject_excession(state, Excession(3, "agent_influx", 1000 - 7.0))
    inject_excession(state, Excession(3, "agent_influx", 1000 - 8.0))
    assert len(state.active) * rounds == MAX_AGENT_ROUNDS


@pytest.mark.parametrize("field,value", [
    ("exit_window", 0), ("seed", -1), ("capacity", float("nan")),
    ("capacity", float("inf")), ("outside_option", float("nan")),
    ("retention_weight", float("inf")), ("inspection_cost", float("nan")),
    ("inspection_cost", -1.0)])
def test_config_rejects_invalid_field(field, value):
    with pytest.raises(RegsimError):
        GameConfig(**{field: value})


def test_config_rejects_non_integral_counts():
    for name in ("n_agents", "rounds", "exit_window", "seed"):
        for value in (2.5, 3.0, "3", None):
            with pytest.raises(RegsimError,
                               match=f"^{name} must be an integer, got "):
                GameConfig(**{name: value})
        # numpy integers index like ints
        assert getattr(GameConfig(**{name: np.int64(3)}), name) == 3


@pytest.mark.parametrize("family,theta", [
    ("none", (float("nan"),)), ("slack1d", (float("nan"),)),
    ("slack1d", (float("inf"),)), ("fixed", (1.0, 0.0, 1.0, float("inf")))])
def test_policy_rejects_non_finite_theta(family, theta):
    with pytest.raises(RegsimError, match="finite"):
        PolicySpec(family, theta)


@pytest.mark.parametrize("kind,value", [
    ("capacity_drop", float("nan")), ("capacity_drop", float("inf")),
    ("capacity_drop", 0.0), ("agent_influx", float("inf")),
    ("agent_influx", float("nan")), ("agent_influx", -1.0),
    ("agent_influx", 1e19), ("agent_influx", MAX_AGENTS - 7.0)])
def test_excession_rejects_bad_value(kind, value):
    state = GameState.initial(GameConfig())
    with pytest.raises(RegsimError):
        inject_excession(state, Excession(3, kind, value))


@pytest.mark.parametrize("kind,value,message", [
    ("capacity_drop", 0.0, "capacity must be positive and finite"),
    ("capacity_drop", float("inf"), "capacity must be positive and finite"),
    ("regrowth_change", 1.5, "regrowth rate must lie in (0, 1)"),
    ("agent_influx", -1.0, "an influx must be a finite count >= 0, got -1.0"),
    ("agent_influx", float("nan"),
     "an influx must be a finite count >= 0, got nan"),
    ("agent_influx", 2.7, "an influx must be a whole count, got 2.7"),
    # n_agents counts the 8 configured agents and the influx
    ("agent_influx", MAX_AGENTS - 7.0,
     f"at most {MAX_AGENTS} agents, got n_agents = {MAX_AGENTS + 1}"),
])
def test_event_failure_names_kind_and_round(kind, value, message):
    state = GameState.initial(GameConfig())
    state.round = 3
    config = state.config
    with pytest.raises(RegsimError) as err:
        inject_excession(state, Excession(3, kind, value))
    assert str(err.value) == f"{kind} at round 3: {message}"
    assert state.config is config and len(state.agents) == 8


def test_whole_float_influx_seats_its_count():
    state = GameState.initial(GameConfig())
    state.round = 3
    inject_excession(state, Excession(3, "agent_influx", 6.0))
    assert len(state.agents) == state.config.n_agents == 14
    assert state.events == ["3:agent_influx:6"]


def test_influx_may_fill_the_game_to_max_agents():
    # configured and influx agents join through one path, which seats
    # each with its own record, and the config counts them all
    state = GameState.initial(GameConfig(), 2)
    inject_excession(state, Excession(3, "agent_influx", MAX_AGENTS - 8.0))
    assert state.config.n_agents == MAX_AGENTS
    assert len(state.agents) == len(state.active) == MAX_AGENTS
    # every agent has its own two streams
    streams = {id(draw.__self__) for a in state.agents
               for draw in (a.decision_draw, a.enforcement_draw)}
    assert len(streams) == 2 * MAX_AGENTS
    assert {a.recent.maxlen for a in state.agents} == {
        state.config.exit_window}
    assert [agent.order for agent in state.agents] == (
        [2] * 8 + [0] * (MAX_AGENTS - 8))
    with pytest.raises(RegsimError):
        inject_excession(state, Excession(4, "agent_influx", 1.0))


def test_law_validation():
    with pytest.raises(RegsimError):
        Law(-1.0)
    with pytest.raises(RegsimError):
        Law(1.0, slack=2.0)
    with pytest.raises(RegsimError):
        Law(1.0, enforcement=1.5)


@pytest.mark.parametrize("theta", [(-1.0, 0.0, 1.0, 1.0), (1.0, 2.0, 1.0, 1.0),
                                   (1.0, 0.0, 1.5, 1.0), (1.0, 0.0, 1.0, -1.0)])
def test_fixed_policy_rejects_invalid_law(theta):
    # the fixed family's law is validated once, when the policy is made
    with pytest.raises(RegsimError):
        PolicySpec("fixed", theta)
    text = "policy.family = fixed\npolicy.theta = " + ",".join(map(repr, theta))
    with pytest.raises(RegsimError):
        load_scenario(text + "\n")


def test_fixed_policy_builds_its_law_once():
    policy = PolicySpec("fixed", (0.5, 0.1, 0.8, 2.0))
    assert policy.law == Law(0.5, 0.1, 0.8, 2.0)
    assert policy.law_for(GameConfig(), 40.0, 3) is policy.law
    assert PolicySpec("fixed", (0.5, 0.1, 0.8, 2.0)) == policy


def test_non_positive_draw_extracts_nothing():
    law = Law(0.4, slack=0.25, enforcement=0.9, penalty=2.0)
    for draw in (0.0, -0.0, -2.5, -math.inf):
        for order in (0, 1, 2):
            assert agent_decide(AgentModel(order=order), law, draw) == 0.0


def test_point_mass_desire():
    agent = AgentModel(order=0)
    assert agent_decide(agent, None, 1.25) == 1.25


def test_one_agent_damps_under_observed_decline():
    for seed in (1, 2, 3):
        rng = np.random.default_rng([seed, 0])
        agent = AgentModel(order=1)
        early, late = [], []
        for t in range(100):
            e = agent_decide(agent, None, rng.normal(3.0, 0.5))
            (early if t < 20 else late).append(e)
            agent.observe(0.02)
        assert np.mean(late[-20:]) < np.mean(early)


def test_beliefs_are_read_by_order():
    # every agent records both observations; its order picks what it reads
    law = Law(0.4, slack=0.25, enforcement=0.9, penalty=2.0)
    observed = [AgentModel(order) for order in (0, 1)]
    declines_only = AgentModel(order=1)
    for _ in range(200):
        for agent in observed:
            agent.observe(0.01)
            agent.observe_enforcement(True)
        declines_only.observe(0.01)
    for draw in (-1.0, 0.0, 0.3, 3.0):
        assert agent_decide(observed[0], law, draw) == max(draw, 0.0)
        assert (agent_decide(observed[1], law, draw)
                == agent_decide(declines_only, law, draw))
    # the order-1 agent does read its declines
    assert 0.0 < agent_decide(observed[1], law, 3.0) < 3.0


def test_records_take_no_unknown_attribute():
    agent, decline, law = AgentModel(), Decline(), Law(1.0)
    with pytest.raises(AttributeError):
        agent.utilty = 1.0
    with pytest.raises(AttributeError):
        decline.totl = 1.0
    with pytest.raises(AttributeError):
        law.capp = 1.0
    # a law has no __dict__ to take a field its __setattr__ would refuse
    with pytest.raises(AttributeError):
        object.__setattr__(law, "capp", 1.0)
    with pytest.raises(FrozenInstanceError):
        law.cap = 2.0
    assert law == Law(1.0)


def test_agents_seated_together_share_one_decline():
    state = GameState.initial(GameConfig(), 1)
    assert len(state.declines) == 1
    assert {id(agent.decline) for agent in state.agents} == {
        id(state.declines[0])}
    # an event that seats no one adds no record
    inject_excession(state, Excession(0, "null"))
    assert len(state.declines) == 1
    inject_excession(state, Excession(0, "agent_influx", 2))
    assert len(state.declines) == 2
    assert state.agents[8].decline is state.agents[9].decline
    assert state.agents[8].decline is not state.agents[0].decline
    # a standalone agent keeps its own, and observe delegates to it
    agent = AgentModel(order=1)
    agent.observe(0.25)
    assert agent.decline == Decline(0.25, 1) != AgentModel().decline


def test_two_agent_complies_when_violating_is_costly():
    agent = AgentModel(order=2)
    law = Law(0.4, slack=0.25, enforcement=0.9, penalty=2.0)
    assert agent_decide(agent, law, 3.0) == pytest.approx(law.tolerance)


def test_apply_law_within_cap_passes():
    law = Law(1.0, slack=0.5)
    # the draw is ignored within the tolerance, even one that would enforce
    assert apply_law(law, 1.4, 0.0) == (1.4, 0.0)


def test_apply_law_full_enforcement_arithmetic():
    law = Law(1.0, slack=0.0, enforcement=1.0, penalty=2.0)
    allowed, penalty = apply_law(law, 2.0, 0.5)
    assert allowed == 1.0
    assert penalty == pytest.approx(2.0)


@pytest.mark.parametrize("u,expected", [(0.0, (1.0, 2.0)), (0.6, (1.0, 2.0)),
                                        (0.75, (2.0, 0.0)), (0.9, (2.0, 0.0))])
def test_apply_law_enforces_when_the_draw_is_below_q(u, expected):
    law = Law(1.0, slack=0.0, enforcement=0.75, penalty=2.0)
    assert apply_law(law, 2.0, u) == expected


def test_monotone_penalty():
    nets = []
    for beta in (0.0, 0.5, 1.0, 2.0):
        allowed, penalty = apply_law(Law(0.4, 0.0, 1.0, beta), 2.0, 0.5)
        nets.append(allowed - penalty)
    assert all(a >= b for a, b in zip(nets, nets[1:]))


def test_logistic_fixed_point_and_regrowth():
    cfg = GameConfig(rounds=1)
    state = GameState.initial(cfg)
    # every agent asks for nothing
    for agent in state.agents:
        agent.decision_draw = lambda: 0.0
    step(state, None)
    assert state.resource == pytest.approx(cfg.capacity)
    state.resource = cfg.capacity / 2
    step(state, None)
    assert state.resource > cfg.capacity / 2


def test_only_the_turn_agent_may_exit():
    cfg = GameConfig()
    state = GameState.initial(cfg)
    state.round = 11
    # every agent's window is full of gains below its outside option
    for agent in state.agents:
        agent.recent.extend([cfg.outside_option / 2] * cfg.exit_window)
    step(state, None)
    turn = 11 % cfg.n_agents
    assert state.events == [f"11:exit:{turn}"]
    assert state.active == [i != turn for i in range(cfg.n_agents)]


def test_resource_bounds_and_growth_cap():
    cfg = GameConfig()
    trace = run_episode(cfg, NO_LAW)
    bound = cfg.regrowth * cfg.capacity / 4 + 1e-9
    previous = cfg.capacity
    for row in trace.rows:
        r = row["resource"]
        assert 0.0 <= r <= cfg.capacity
        assert r - previous <= bound
        previous = r


def test_tragedy_depletion_all_seeds():
    for seed in SEEDS:
        trace = run_episode(GameConfig(seed=seed, rounds=200), NO_LAW)
        assert trace.min_resource() < 0.05 * 100.0


def test_determinism():
    cfg = GameConfig(seed=5)
    policy = PolicySpec("slack1d", (0.2,))
    a = run_episode(cfg, policy, 2)
    b = run_episode(cfg, policy, 2)
    assert a.to_csv() == b.to_csv()
    assert a.welfare == b.welfare


def test_no_enforcement_matches_lawless_trace():
    cfg = GameConfig(seed=2)
    lawless = run_episode(cfg, NO_LAW)
    toothless = run_episode(cfg, PolicySpec("fixed", (0.4, 0.0, 0.0, 2.0)))
    assert lawless.to_csv().splitlines()[1:] == [
        line.replace("0.4,0.0,0.0,2.0", ",,,")
        for line in toothless.to_csv().splitlines()[1:]]
    assert lawless.welfare == toothless.welfare


def test_exited_agents_stay_out():
    trace = run_episode(GameConfig(seed=1), NO_LAW)
    exited_at = {}
    for ev in trace.events:
        parts = ev.split(":")
        if parts[1] == "exit":
            exited_at[int(parts[2])] = int(parts[0])
    assert exited_at  # the tragedy run must push someone out
    for i, rnd in exited_at.items():
        for row in trace.rows[rnd + 1:]:
            assert row["extraction"][i] == 0.0
            assert not row["active"][i]


@pytest.mark.parametrize("overrides,family,theta,value", [
    ({"retention_weight": 1e308}, "none", (), "inf"),
    ({"retention_weight": -1e308}, "none", (), "-inf"),
    ({"inspection_cost": 1e308}, "fixed", (0.4, 0.1, 0.9, 1.0), "-inf"),
    ({"retention_weight": 1e308, "inspection_cost": 1e308}, "fixed",
     (0.4, 0.1, 0.9, 1.0), "nan"),
])
def test_welfare_that_is_not_finite_is_an_error(overrides, family, theta,
                                                 value):
    cfg = GameConfig(rounds=50, **overrides)
    with pytest.raises(RegsimError,
                       match=f"welfare is not finite: {value}$"):
        run_episode(cfg, PolicySpec(family, theta))


def test_empty_horizon():
    trace = run_episode(GameConfig(rounds=0), NO_LAW)
    assert trace.rows == ()
    assert trace.welfare == 0.0


def test_null_event_only_logs():
    state = GameState.initial(GameConfig())
    before = (state.resource, tuple(state.active))
    inject_excession(state, Excession(0, "null"))
    assert (state.resource, tuple(state.active)) == before
    assert state.events == ["0:null"]


def test_capacity_drop_clamps_resource():
    state = GameState.initial(GameConfig())
    inject_excession(state, Excession(0, "capacity_drop", 0.5))
    assert state.config.capacity == 50.0
    assert state.resource == 50.0


def test_unknown_event_kind_rejected():
    with pytest.raises(RegsimError):
        Excession(0, "meteor")


def test_event_beyond_horizon_rejected():
    # a 10-round episode plays rounds 0 to 9
    for rnd in (-3, -1, 10, 11):
        with pytest.raises(RegsimError, match="10-round horizon"):
            run_episode(GameConfig(rounds=10), NO_LAW,
                        events=[Excession(rnd, "null")])
    for rnd in (0, 9):
        trace = run_episode(GameConfig(rounds=10), NO_LAW,
                            events=[Excession(rnd, "null")])
        assert trace.events == (f"{rnd}:null",)


def test_agent_influx_adds_players():
    trace = run_episode(GameConfig(rounds=40), NO_LAW,
                        events=[Excession(20, "agent_influx", 2)])
    assert len(trace.rows[10]["extraction"]) == 8
    assert len(trace.rows[30]["extraction"]) == 10


def test_adaptive_policy_weathers_capacity_shock():
    events = [Excession(200, "capacity_drop", 0.5)]
    adaptive = PolicySpec("slack1d", (0.2,))
    frozen = PolicySpec("fixed", (0.45, 0.2, 0.9, 1.0))
    wa = mean_welfare(GameConfig(), adaptive, SEEDS, order=2, events=events)
    wf = mean_welfare(GameConfig(), frozen, SEEDS, order=2, events=events)
    assert wa >= wf


def test_optimized_policy_beats_lawless_baseline():
    cfg = GameConfig()
    result = optimize_slack(cfg, seeds=range(1, 6), order=2)
    baseline = mean_welfare(cfg, NO_LAW, range(1, 6), order=2)
    assert result.welfare > baseline


def test_optimize_degenerate_family():
    cfg = GameConfig(rounds=50)
    result = optimize_slack(cfg, family="none", seeds=(1,))
    assert result.policy == NO_LAW


def test_optimize_rejects_fixed_family_before_any_episode(monkeypatch):
    def no_episodes(*args, **kwargs):
        raise AssertionError("an episode ran")
    monkeypatch.setattr("grovekit.regsim.run_episode", no_episodes)
    with pytest.raises(RegsimError, match="not 'fixed'"):
        optimize_slack(GameConfig(rounds=50), family="fixed", seeds=(1,))


def test_empty_seed_set_is_an_error_before_any_episode(monkeypatch):
    def no_episodes(*args, **kwargs):
        raise AssertionError("an episode ran")
    monkeypatch.setattr("grovekit.regsim.run_episode", no_episodes)
    config = GameConfig(rounds=50)
    for seeds in ((), [], range(0), np.array([], dtype=int)):
        with pytest.raises(RegsimError, match="need at least one seed"):
            mean_welfare(config, PolicySpec("slack1d", (0.2,)), seeds)
        for family in ("none", "slack1d"):
            with pytest.raises(RegsimError, match="need at least one seed"):
                optimize_slack(config, family=family, seeds=seeds)


def test_interior_enforcement_with_inspection_cost():
    welfare = []
    for q in np.linspace(0.0, 1.0, 11):
        total = 0.0
        for seed in range(1, 6):
            c = GameConfig(inspection_cost=0.1, seed=seed)
            policy = PolicySpec("fixed", (0.45, 0.1, float(q), 0.0))
            total += run_episode(c, policy).welfare
        welfare.append((float(q), total / 5))
    best_q = max(welfare, key=lambda p: p[1])[0]
    assert 0.0 < best_q < 1.0


def test_scenario_round_trip():
    cfg = GameConfig(seed=9, rounds=123)
    policy = PolicySpec("slack1d", (0.25,))
    events = [Excession(50, "regrowth_change", 0.1)]
    text = dump_scenario(cfg, policy, 2, events)
    cfg2, policy2, order, events2 = load_scenario(text)
    assert cfg2 == cfg
    assert policy2.family == "slack1d"
    assert policy2.theta == (0.25,)
    assert order == 2
    assert events2 == events


def test_scenario_rejects_unknown_keys():
    for line in ("nonsense = 1", "mode = sig tau(m1, m2, m3)"):
        with pytest.raises(RegsimError, match="unknown key"):
            load_scenario(line + "\n")


def test_scenario_reads_comments_and_rejects_repeated_keys():
    config, _, _, events = load_scenario(
        "rounds = 40  # short\n# whole line\nevent.0 = 5,null,0  # x\n")
    assert config.rounds == 40
    assert events == [Excession(5, "null", 0.0)]
    with pytest.raises(GroveError, match=r"scenario:2: repeated key 'event.0'"):
        load_scenario("event.0 = 5,null,0\nevent.0 = 9,null,0\n")


def test_trace_csv_shape():
    cfg = GameConfig(rounds=5)
    trace = run_episode(cfg, PolicySpec("slack1d", (0.1,)))
    lines = trace.to_csv().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("round,resource,extraction0")


def test_trace_csv_is_rectangular_after_influx():
    trace = run_episode(GameConfig(rounds=40), NO_LAW,
                        events=[Excession(20, "agent_influx", 2)])
    lines = trace.to_csv().splitlines()
    width = lines[0].count(",")
    assert all(line.count(",") == width for line in lines)
    header = lines[0].split(",")
    assert "extraction9" in header and "active9" in header
    before, after = lines[20].split(","), lines[21].split(",")
    for name in ("extraction8", "penalty9", "active9"):
        assert before[header.index(name)] == ""
        assert after[header.index(name)] != ""


def test_trace_memory_does_not_grow():
    # a trace keeps one row and one law per round; this 500-round
    # episode's trace held 237,900 to 238,400 B under CPython 3.11 when
    # a law kept its fields in a __dict__
    config, policy = GameConfig(), PolicySpec("slack1d", (0.2,))
    run_episode(config, policy, 2)
    tracemalloc.start()
    try:
        trace = run_episode(config, policy, 2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace.rows) == 500
    assert held <= 240_000


def test_substreams_replay_scalar_draws():
    # chunked blocks must equal the scalar draws they stand in for,
    # across chunk boundaries
    draws = 600
    for seed in range(1, 6):
        for i in range(4):
            mean, sd = 3.0 + i, 0.5 * (i + 1)
            scalar = np.random.default_rng([seed, i])
            blocks = _chunked([seed, i], "normal", mean, sd)
            assert [next(blocks) for _ in range(draws)] == [
                scalar.normal(mean, sd) for _ in range(draws)]
            scalar = np.random.default_rng([seed, i, 1])
            blocks = _chunked([seed, i, 1], "random")
            assert [next(blocks) for _ in range(draws)] == [
                scalar.random() for _ in range(draws)]


_finite = st.floats(allow_nan=False, allow_infinity=False)

# the round count is drawn within the agent-round bound for the agents drawn
_configs = st.integers(2, 500).flatmap(lambda n_agents: st.builds(
    GameConfig,
    n_agents=st.just(n_agents),
    capacity=st.floats(0.0, 1e9, exclude_min=True),
    regrowth=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    rounds=st.integers(0, min(MAX_ROUNDS, MAX_AGENT_ROUNDS // n_agents)),
    outside_option=_finite,
    retention_weight=_finite,
    inspection_cost=st.floats(0.0, allow_infinity=False),
    exit_window=st.integers(1, 1000),
    seed=st.integers(0, 2**63),
))

_policies = st.one_of(
    st.just(NO_LAW),
    st.builds(PolicySpec, st.just("fixed"), st.tuples(
        st.floats(0.0, allow_infinity=False), st.floats(0.0, 1.0),
        st.floats(0.0, 1.0), st.floats(0.0, allow_infinity=False))),
    st.builds(PolicySpec, st.just("slack1d"), st.tuples(_finite)),
)

_events = st.lists(st.builds(
    Excession, st.integers(0, 100_000), st.sampled_from(EVENT_KINDS),
    _finite), max_size=4)


@given(_configs, _policies, st.sampled_from((0, 1, 2)), _events)
def test_scenario_round_trip_property(config, policy, order, events):
    loaded = load_scenario(dump_scenario(config, policy, order, events))
    assert loaded == (config, policy, order, events)


def _read_trace_csv(text):
    """Rows and events of `Trace.to_csv` text, parsed back to trace values."""
    lines = text.splitlines()
    header = lines[0].split(",")
    n = (len(header) - 7) // 3  # agent columns: extraction, penalty, active
    assert header == (["round", "resource"]
                      + [f"{c}{i}" for c in ("extraction", "penalty", "active")
                         for i in range(n)]
                      + ["law_cap", "law_slack", "law_q", "law_beta", "events"])
    rows, events = [], []
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(header)
        agents = [cells[2 + k * n:2 + (k + 1) * n] for k in range(3)]
        joined = sum(1 for cell in agents[0] if cell)
        for column in agents:
            # only agents that have not joined yet have empty cells
            assert all(column[:joined]) and not any(column[joined:])
        extraction, penalty, active = (column[:joined] for column in agents)
        assert set(active) <= {"0", "1"}
        law = cells[-5:-1]
        assert all(law) or not any(law)
        rnd = int(cells[0])
        rows.append({
            "round": rnd,
            "resource": float(cells[1]),
            "extraction": tuple(map(float, extraction)),
            "penalty": tuple(map(float, penalty)),
            "active": tuple(cell == "1" for cell in active),
            "law": Law(*map(float, law)) if all(law) else None,
        })
        if cells[-1]:
            events += [f"{rnd - 1}:{ev}" for ev in cells[-1].split(";")]
    return tuple(rows), tuple(events)


@st.composite
def _episodes(draw):
    config = draw(st.builds(
        GameConfig,
        n_agents=st.integers(2, 6),
        capacity=st.floats(1.0, 1e4),
        regrowth=st.floats(0.01, 0.99),
        rounds=st.integers(0, 60),
        outside_option=st.floats(-1.0, 5.0),
        retention_weight=st.floats(0.0, 1.0),
        inspection_cost=st.floats(0.0, 1.0),
        exit_window=st.integers(1, 30),
        seed=st.integers(0, 2 ** 32)))
    policy = draw(st.one_of(
        st.just(NO_LAW),
        st.builds(PolicySpec, st.just("fixed"), st.tuples(
            st.floats(0.0, 50.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
            st.floats(0.0, 5.0))),
        st.builds(PolicySpec, st.just("slack1d"),
                  st.tuples(st.floats(-1.0, 2.0)))))
    values = {"null": st.just(0.0), "capacity_drop": st.floats(0.1, 1.0),
              "regrowth_change": st.floats(0.01, 0.99),
              "agent_influx": st.integers(0, 3).map(float)}
    events = [] if config.rounds == 0 else draw(st.lists(
        st.sampled_from(EVENT_KINDS).flatmap(lambda kind: st.builds(
            Excession, st.integers(0, config.rounds - 1), st.just(kind),
            values[kind])), max_size=2))
    return config, policy, draw(st.sampled_from((0, 1, 2))), events


@settings(max_examples=40, deadline=None)
@given(_episodes())
def test_trace_csv_round_trip_property(episode):
    config, policy, order, events = episode
    trace = run_episode(config, policy, order, events)
    assert _read_trace_csv(trace.to_csv()) == (trace.rows, trace.events)


def _reference_csv(trace):
    """`Trace.to_csv` written cell by cell, with one ``repr`` per value."""
    n = max((len(row["extraction"]) for row in trace.rows), default=0)
    lines = [",".join(
        ["round", "resource"]
        + [f"{c}{i}" for c in ("extraction", "penalty", "active")
           for i in range(n)]
        + ["law_cap", "law_slack", "law_q", "law_beta", "events"])]
    for row in trace.rows:
        law = row["law"]
        absent = [""] * (n - len(row["extraction"]))
        cells = [str(row["round"]), repr(row["resource"])]
        cells += [repr(x) for x in row["extraction"]] + absent
        cells += [repr(x) for x in row["penalty"]] + absent
        cells += ["1" if a else "0" for a in row["active"]] + absent
        cells += ["", "", "", ""] if law is None else [
            repr(law.cap), repr(law.slack), repr(law.enforcement),
            repr(law.penalty)]
        cells.append(";".join(ev.split(":", 1)[1] for ev in trace.events
                              if int(ev.split(":", 1)[0]) == row["round"] - 1))
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines)


@st.composite
def _csv_episodes(draw):
    # beside the drawn episode's own values: int law fields, which equal
    # floats that render apart, a -0.0 cap, whose requests are granted as
    # -0.0, and an int capacity
    config, policy, order, events = draw(_episodes())
    policy = draw(st.one_of(
        st.just(policy),
        st.builds(PolicySpec, st.just("fixed"), st.tuples(
            st.integers(0, 5), st.integers(0, 1), st.integers(0, 1),
            st.integers(0, 3))),
        st.builds(PolicySpec, st.just("fixed"), st.tuples(
            st.just(-0.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
            st.floats(0.0, 5.0)))))
    if draw(st.booleans()):
        config = replace(config, capacity=draw(st.integers(1, 10_000)))
    return config, policy, order, events


@settings(max_examples=60, deadline=None)
@given(_csv_episodes())
def test_trace_csv_renders_each_cell_by_repr(episode):
    trace = run_episode(*episode)
    assert trace.to_csv() == _reference_csv(trace)


@pytest.mark.parametrize("limit", [1, 2, 5])
def test_trace_csv_memo_may_start_over(limit, monkeypatch):
    trace = run_episode(GameConfig(rounds=60), PolicySpec("fixed",
                                                          (3, 0, 1, 1)), 2)
    monkeypatch.setattr(regsim, "MAX_REPRS", limit)
    assert trace.to_csv() == _reference_csv(trace)


def _never():
    raise AssertionError("an agent that left was drawn")


def _run_checking_each_round(episode, check):
    """Play ``episode`` through `run_episode`, calling ``check(state)``
    after every round."""
    config, policy, order, events = episode
    played = regsim.step

    def step(state, law):
        row = played(state, law)
        check(state)
        return row

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regsim, "step", step)
        return run_episode(config, policy, order, events)


@settings(max_examples=60, deadline=None)
@given(_episodes())
def test_playing_lists_the_active_agents_in_index_order(episode):
    def check(state):
        # the same agent objects, not only equal ones
        assert [(i, id(agent)) for i, agent in state.playing] == [
            (i, id(agent)) for i, agent in enumerate(state.agents)
            if state.active[i]]

    _run_checking_each_round(episode, check)


@settings(max_examples=60, deadline=None)
@given(_episodes())
def test_an_agent_that_left_is_never_drawn_again(episode):
    def check(state):
        for agent, active in zip(state.agents, state.active):
            if not active:
                agent.decision_draw = agent.enforcement_draw = _never

    _run_checking_each_round(episode, check)


@settings(max_examples=60, deadline=None)
@given(_episodes())
def test_a_shared_decline_equals_one_per_agent(episode):
    # each agent's posterior is what observing every drop itself while it
    # plays would give, bit for bit; a record no one plays under is dropped
    config, policy, order, events = episode
    played, own = regsim.step, {}

    def step(state, law):
        before, r_before = list(state.playing), state.resource
        row = played(state, law)
        drop = (r_before - state.resource) / state.config.capacity
        for _, agent in before:
            total, count = own.get(id(agent), (0.0, 0))
            own[id(agent)] = (total + drop, count + 1)
        for _, agent in state.playing:
            assert (repr(agent.decline.total), agent.decline.count) == (
                repr(own[id(agent)][0]), own[id(agent)][1])
        assert {id(a.decline) for _, a in state.playing} == {
            id(d) for d in state.declines}
        return row

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regsim, "step", step)
        run_episode(config, policy, order, events)


@given(st.floats(1e-3, 1e6), st.floats(0.0, 1.0, exclude_min=True,
                                        exclude_max=True),
       st.floats(0.0, 1.0), st.integers(0, MAX_AGENTS), _finite)
def test_slack1d_law_equals_the_checked_law(capacity, regrowth, fill, active,
                                            slack):
    config = GameConfig(capacity=capacity, regrowth=regrowth)
    resource = fill * capacity
    law = PolicySpec("slack1d", (slack,)).law_for(config, resource, active)
    regrow = regrowth * resource * (1.0 - resource / capacity)
    correction = FEEDBACK_GAIN * (resource - TARGET_FRACTION * capacity)
    checked = Law(max(0.0, regrow + correction) / max(1, active),
                  min(1.0, max(0.0, slack)), SLACK1D_ENFORCEMENT,
                  SLACK1D_PENALTY)
    assert type(law) is Law and law == checked
    assert repr(law) == repr(checked)
    assert repr(law.tolerance) == repr(checked.tolerance)
