"""Acceptance gate: one test per shipped claim, one printed verdict each.

Verdict lines go to the real stdout so they stay visible under pytest's
capture. Every criterion is exercised at the stated tolerance; a failing
criterion prints FAIL and then fails its test.
"""

import contextlib
import math
import sys
import time

import numpy as np
import pytest

from grovekit.cli import EXIT_OK, main as cli_main
from grovekit.enumeration import (
    ENTRY27_MODEL,
    ENTRY27_PRINTED,
    count_by_rank,
    enumerate_situations,
    load_situations_reference,
    total_multiplicity,
    verify_against_table,
)
from grovekit.expr import parse
from grovekit.infotheory import (
    GridDistribution,
    MetricBinding,
    build_nested_distribution,
    cramer_rao_report,
    fisher_information,
    grid,
    smoothed_delta,
)
from grovekit.model import CostModel
from grovekit.regsim import (
    NO_LAW,
    GameConfig,
    PolicySpec,
    mean_welfare,
    optimize_slack,
    run_episode,
)
from grovekit.variational import (
    Functional,
    euclidean_metric,
    first_variation,
    integrate_geodesic,
    solve_critical,
    sphere_metric,
)


@contextlib.contextmanager
def verdict(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}", file=sys.__stdout__)
        raise
    print(f"PASS criterion {number}: {label}", file=sys.__stdout__)


def test_criterion_1_count_reproduction():
    with verdict(1, "prime counts 3 / 11 / 42 by rank"):
        start = time.monotonic()
        assert count_by_rank(1) == 3
        assert count_by_rank(2) == 11
        assert count_by_rank(3) == 42
        assert time.monotonic() - start < 5.0


def test_criterion_2_table_fidelity():
    with verdict(2, "table diffs empty, entry 27 excepted"):
        assert verify_against_table(0).exact
        assert verify_against_table(1).exact
        plain = verify_against_table(2)
        assert not plain.exact
        assert plain.missing == {parse(ENTRY27_PRINTED)}
        assert plain.extra == {parse(ENTRY27_MODEL)}
        assert plain.acceptable
        switched = verify_against_table(
            2, CostModel(table2_entry27_as_printed=True))
        assert switched.exact


def test_criterion_3_totals():
    with verdict(3, "grove totals 12 at depth 1 and 54 at depth 2"):
        assert total_multiplicity(1) == 12
        assert total_multiplicity(2) == 54


def test_criterion_4_situations():
    with verdict(4, "situation sets: 3 order-1 lifts, 11 order-2 forms"):
        order1 = {s.render() for s in enumerate_situations(1)}
        assert order1 == {"Pow^(1)(A)", "Pow(A^(1))", "Pow Pow(A)"}
        order2 = {s.render() for s in enumerate_situations(2)}
        assert order2 == load_situations_reference()
        assert len(order2) == 11


def test_criterion_5_fisher_oracle():
    with verdict(5, "Gaussian Fisher information 1/s^2 within 1%"):
        start = time.monotonic()
        for scale in (0.5, 1.0, 2.0):
            span = 6 * scale
            g = grid(("m", -0.5, 0.5, 16),
                     ("a", -span - 0.5, span + 0.5, 256))
            dist = build_nested_distribution(
                parse("sig(m1)"), MetricBinding(sigma=lambda m: m), g, scale)
            info = fisher_information(dist, "a")
            assert abs(info - 1.0 / scale ** 2) <= 0.01 / scale ** 2
        rng = np.random.default_rng(5)
        gx = grid(("x", -2.0, 2.0, 64))
        x = gx.axes[0].centers()
        for _ in range(100):
            eps = float(rng.uniform(0.05, 0.5))
            vals = sum(smoothed_delta(x, c, eps)
                       for c in rng.uniform(-1.5, 1.5, size=3))
            assert fisher_information(GridDistribution(gx, vals, eps), 0) >= 0
        assert time.monotonic() - start < 10.0


def test_criterion_6_cramer_rao():
    with verdict(6, "variance x information within [0.99, 1.01]"):
        for scale in (0.5, 1.0, 2.0):
            span = 7 * scale
            g = grid(("a", -span, span, 512))
            dist = GridDistribution.from_function(
                g, lambda a: smoothed_delta(a, 0.0, scale), scale)
            product = cramer_rao_report(dist).products[0]
            assert 0.99 <= product <= 1.01


def test_criterion_7_variational():
    with verdict(7, "criticality and gradient oracles"):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = int(rng.integers(1, 9))
            A = rng.normal(size=(d, d))
            H = A @ A.T + d * np.eye(d)
            c = rng.normal(size=d)
            F = Functional(
                lambda t, H=H, c=c: float(0.5 * (t - c) @ H @ (t - c)), d)
            theta = solve_critical(F, rng.normal(size=d), tol=1e-6)
            assert np.max(np.abs(theta - c)) < 1e-4
        for _ in range(100):
            d = int(rng.integers(1, 5))
            a = rng.normal(size=d)
            B = rng.normal(size=(d, d))
            B = B + B.T
            F = Functional(
                lambda t, a=a, B=B: float(a @ t + 0.5 * t @ B @ t
                                          + (t ** 3).sum()), d)
            theta = rng.normal(size=d)
            analytic = a + B @ theta + 3 * theta ** 2
            grad = first_variation(F, theta, h=1e-5)
            scale = max(1.0, float(np.linalg.norm(analytic)))
            assert np.linalg.norm(grad - analytic) / scale < 1e-5


def test_criterion_8_geodesics():
    with verdict(8, "geodesic integration oracles"):
        path = integrate_geodesic(euclidean_metric(2), [0.0, 0.0],
                                  [1.0, 0.5], 1000, 0.001)
        line = np.outer(np.linspace(0.0, 1.0, 1001), [1.0, 0.5])
        assert np.max(np.abs(path.points - line)) < 1e-8
        equator = integrate_geodesic(sphere_metric(), [math.pi / 2, 0.0],
                                     [0.0, 1.0], 1000, 0.002)
        assert np.max(np.abs(equator.points[:, 0] - math.pi / 2)) < 1e-4

        def endpoint(steps):
            return integrate_geodesic(sphere_metric(), [1.0, 0.2],
                                      [0.3, 0.7], steps, 0.5 / steps).end

        e1, e2, e3 = endpoint(50), endpoint(100), endpoint(200)
        ratio = np.linalg.norm(e1 - e2) / np.linalg.norm(e2 - e3)
        assert 13.0 <= ratio <= 19.0


SEEDS = tuple(range(1, 11))


@pytest.fixture(scope="module")
def optimized_default():
    return optimize_slack(GameConfig(), seeds=SEEDS, order=2)


def test_criterion_9_tragedy_reproduction(optimized_default):
    with verdict(9, "commons tragedy and regulated recovery"):
        for seed in SEEDS:
            trace = run_episode(GameConfig(seed=seed, rounds=200), NO_LAW)
            assert trace.min_resource() < 0.05 * 100.0
        baseline = mean_welfare(GameConfig(), NO_LAW, SEEDS, order=2)
        assert optimized_default.welfare > baseline


def test_criterion_10_optimizer_vs_scan(optimized_default):
    with verdict(10, "slack optimizer within one cell of a 64-point scan"):
        cell = 1.0 / 63.0
        scenarios = [
            (GameConfig(), optimized_default),
            (GameConfig(capacity=150.0, regrowth=0.12), None),
            (GameConfig(n_agents=6, regrowth=0.2, rounds=400), None),
        ]
        for config, precomputed in scenarios:
            result = precomputed or optimize_slack(config, seeds=SEEDS, order=2)
            scan = [(k * cell,
                     mean_welfare(config, PolicySpec("slack1d", (k * cell,)),
                                  SEEDS, order=2))
                    for k in range(64)]
            argmax = max(scan, key=lambda p: p[1])[0]
            assert abs(result.policy.theta[0] - argmax) <= cell + 1e-12


def test_criterion_11_determinism(tmp_path, capsys):
    # The contract's scope: repeated runs of one numpy build at one CPU
    # kernel level.  Across kernel levels the information goldens may
    # differ in the last bit; tests/test_kernel_level.py checks which.
    with verdict(11, "byte-identical outputs for repeated runs"):
        commands = [
            ["enumerate", "--depth", "1"],
            ["verify", "--table", "2"],
            ["situations", "--order", "2"],
            ["info"],
            ["critical"],
            ["geodesic"],
            ["simulate", "--seed", "4", "--rounds", "120"],
        ]
        for idx, argv in enumerate(commands):
            dirs = [tmp_path / f"{idx}-{run}" for run in "ab"]
            for out_dir in dirs:
                code = cli_main(argv + ["--out", str(out_dir)])
                capsys.readouterr()
                assert code == EXIT_OK
            files = sorted(p.name for p in dirs[0].iterdir())
            assert files == sorted(p.name for p in dirs[1].iterdir())
            for name in files:
                assert (dirs[0] / name).read_bytes() == \
                    (dirs[1] / name).read_bytes()
