import numpy as np
import pytest
from hypothesis import given, strategies as st

from grovekit.regsim import (
    EVENT_KINDS,
    NO_LAW,
    AgentModel,
    Excession,
    GameConfig,
    GameState,
    Law,
    PolicySpec,
    RegsimError,
    agent_decide,
    apply_law,
    _Substream,
    default_agents,
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
        GameConfig(regrowth=1.5)
    with pytest.raises(RegsimError):
        GameConfig(capacity=0.0)


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


def test_zero_greed_extracts_nothing():
    agent = AgentModel(order=0, greed=0.0)
    rng = np.random.default_rng(0)
    assert agent_decide(agent, None, rng) == 0.0


def test_point_mass_desire():
    agent = AgentModel(order=0, desire_mean=1.25, desire_sd=0.0)
    rng = np.random.default_rng(0)
    assert agent_decide(agent, None, rng) == pytest.approx(1.25)


def test_one_agent_damps_under_observed_decline():
    for seed in (1, 2, 3):
        rng = np.random.default_rng([seed, 0])
        agent = AgentModel(order=1)
        early, late = [], []
        for t in range(100):
            e = agent_decide(agent, None, rng)
            (early if t < 20 else late).append(e)
            agent.observe(0.02)
        assert np.mean(late[-20:]) < np.mean(early)


def test_two_agent_complies_when_violating_is_costly():
    agent = AgentModel(order=2, desire_mean=3.0, desire_sd=0.0)
    law = Law(0.4, slack=0.25, enforcement=0.9, penalty=2.0)
    rng = np.random.default_rng(0)
    assert agent_decide(agent, law, rng) == pytest.approx(law.tolerance)


def test_apply_law_within_cap_passes():
    law = Law(1.0, slack=0.5)
    rng = np.random.default_rng(0)
    assert apply_law(law, 1.4, rng) == (1.4, 0.0)


def test_apply_law_full_enforcement_arithmetic():
    law = Law(1.0, slack=0.0, enforcement=1.0, penalty=2.0)
    rng = np.random.default_rng(0)
    allowed, penalty = apply_law(law, 2.0, rng)
    assert allowed == 1.0
    assert penalty == pytest.approx(2.0)


def test_monotone_penalty():
    rng_state = np.random.default_rng(0).bit_generator.state
    nets = []
    for beta in (0.0, 0.5, 1.0, 2.0):
        rng = np.random.default_rng(0)
        rng.bit_generator.state = rng_state
        allowed, penalty = apply_law(Law(0.4, 0.0, 1.0, beta), 2.0, rng)
        nets.append(allowed - penalty)
    assert all(a >= b for a, b in zip(nets, nets[1:]))


def test_logistic_fixed_point_and_regrowth():
    cfg = GameConfig(rounds=1)
    state = GameState.initial(cfg)
    rngs = [np.random.default_rng([1, i, 1]) for i in range(cfg.n_agents)]
    step(state, [0.0] * cfg.n_agents, None, rngs)
    assert state.resource == pytest.approx(cfg.capacity)
    state.resource = cfg.capacity / 2
    step(state, [0.0] * cfg.n_agents, None, rngs)
    assert state.resource > cfg.capacity / 2


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
    a = run_episode(cfg, policy, default_agents(cfg, 2))
    b = run_episode(cfg, policy, default_agents(cfg, 2))
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
    with pytest.raises(RegsimError):
        run_episode(GameConfig(rounds=10), NO_LAW,
                    events=[Excession(11, "null")])


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


def test_interior_enforcement_with_inspection_cost():
    cfg = GameConfig(inspection_cost=0.1)
    agents = lambda c: [AgentModel(order=0, desire_mean=1.0, desire_sd=0.3)
                        for _ in range(c.n_agents)]
    welfare = []
    for q in np.linspace(0.0, 1.0, 11):
        total = 0.0
        for seed in range(1, 6):
            c = GameConfig(inspection_cost=0.1, seed=seed)
            policy = PolicySpec("fixed", (0.45, 0.1, float(q), 0.0))
            total += run_episode(c, policy, agents(c)).welfare
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


def test_substreams_replay_scalar_draws():
    # chunked blocks must equal the scalar draws they stand in for,
    # across chunk boundaries
    draws = 600
    for seed in range(1, 6):
        for i in range(4):
            mean, sd = 3.0 + i, 0.5 * (i + 1)
            scalar = np.random.default_rng([seed, i])
            cursor = _Substream([seed, i], "normal", mean, sd)
            assert [cursor.normal(mean, sd) for _ in range(draws)] == [
                scalar.normal(mean, sd) for _ in range(draws)]
            scalar = np.random.default_rng([seed, i, 1])
            cursor = _Substream([seed, i, 1], "random")
            assert [cursor.random() for _ in range(draws)] == [
                scalar.random() for _ in range(draws)]


_finite = st.floats(allow_nan=False, allow_infinity=False)

_configs = st.builds(
    GameConfig,
    n_agents=st.integers(2, 500),
    capacity=st.floats(0.0, 1e9, exclude_min=True),
    regrowth=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    rounds=st.integers(0, 100_000),
    outside_option=_finite,
    retention_weight=_finite,
    inspection_cost=_finite,
    exit_window=st.integers(1, 1000),
    seed=st.integers(0, 2**63),
)

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
