"""Tests of the benchmark itself: smoke runs, checks and tracer counts.

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import grovekit  # noqa: E402
import grovekit.cli  # noqa: E402
import run  # noqa: E402
import workloads as wm  # noqa: E402
from tracer import Tracer  # noqa: E402


def tiny_runner(name, tmp_path):
    w = wm.WORKLOADS[name](7, tiny=True, out_dir=tmp_path)
    if hasattr(w, "write_inputs"):
        w.write_inputs()
    return run.Runner(w, wm)


@pytest.mark.parametrize("name", sorted(wm.WORKLOADS))
def test_tiny_smoke_run(name, tmp_path):
    runner = tiny_runner(name, tmp_path)
    for _ in range(2):
        runner.one_pass()
    assert runner.failures == []
    assert runner.failed == 0
    assert runner.attempted == 2 * len(runner.jobs)
    metrics = runner.w.metrics(runner.rec)
    assert all(m is None or m["value"] >= 0 for m in metrics.values())


def test_inputs_follow_the_seed():
    a, b = wm.Numerics(3), wm.Numerics(3)
    assert a.group_mix == b.group_mix
    assert np.array_equal(a.geodesics[0][1], b.geodesics[0][1])
    assert wm.Numerics(4).group_mix != a.group_mix or \
        not np.array_equal(wm.Numerics(4).geodesics[0][1], a.geodesics[0][1])
    assert wm.CliReports(3).scenarios == wm.CliReports(3).scenarios
    assert wm.CommonsOptimize(3).seed_sets == wm.CommonsOptimize(3).seed_sets


# -- corrupted outputs are failures ------------------------------------------

def test_flipped_report_byte_fails_the_job(tmp_path):
    runner = tiny_runner("cli-reports", tmp_path)
    runner.one_pass()
    assert runner.failed == 0
    report = tmp_path / "cli" / "verify-2" / "verify-report.txt"
    data = bytearray(report.read_bytes())
    data[-2] ^= 0x01
    report.write_bytes(bytes(data))
    with pytest.raises(wm.CheckError):
        runner.w._record_bytes("verify-2", report.parent)


def test_wrong_count_fails():
    listing = "\n".join(f"form{i}" for i in range(11)) + "\n"
    wm.check_count({"count": "11"}, listing, 11)
    with pytest.raises(wm.CheckError):
        wm.check_count({"count": "12"}, listing, 11)
    with pytest.raises(wm.CheckError):
        wm.check_count({"count": "11"}, listing + "extra\n", 11)


def test_optimizer_checks():
    scan = ((0.0, 1.0), (0.5, 3.0), (1.0, 2.0))
    wm.check_optimizer(3.5, scan, 3.5)
    with pytest.raises(wm.CheckError):
        wm.check_optimizer(2.5, scan, 2.5)      # below its own coarse best
    with pytest.raises(wm.CheckError):
        wm.check_optimizer(3.5, scan, 3.25)     # not reproducible


def test_geodesic_oracles_reject_perturbed_paths():
    start, velocity = wm._sphere_start(np.random.default_rng(0))
    g = grovekit.sphere_metric()
    path = grovekit.integrate_geodesic(g, start, velocity, 50, 0.01)
    wm.check_great_circle(path.points, velocity)
    bent = path.points.copy()
    bent[-1, 0] += 1e-3
    with pytest.raises(wm.CheckError):
        wm.check_great_circle(bent, velocity)
    line = start + 0.01 * np.arange(5)[:, None] * velocity
    wm.check_straight_line(line, start, velocity, 0.01)
    line[2, 1] += 1e-6
    with pytest.raises(wm.CheckError):
        wm.check_straight_line(line, start, velocity, 0.01)


def test_runner_counts_raising_and_failing_jobs(tmp_path):
    class Fake:
        def setup(self):
            pass

        def jobs(self):
            def bad_output(rec):
                wm.require(False, "corrupted")

            def raises(rec):
                raise ValueError("boom")
            return [wm.Job("x", "ok", lambda rec: None),
                    wm.Job("x", "bad", bad_output),
                    wm.Job("x", "raises", raises)]

    runner = run.Runner(Fake(), wm)
    runner.one_pass()
    assert (runner.attempted, runner.failed) == (3, 2)
    assert runner.failures[0].startswith("bad: CheckError")


def test_reference_seconds_take_each_job_at_its_median():
    ref = run.calibrate.REFERENCE_S
    log = run.PassLog()
    for seconds, cal in ((3.0, 2 * ref), (9.0, 2 * ref), (2.0, ref)):
        log.add("a", seconds, cal)     # 1.5, 4.5 and 2 loops of reference
    log.add("b", 1.0, 4 * ref)
    assert math.isclose(log.reference_s(), 2.0 + 0.25)


# -- tracer ------------------------------------------------------------------

@pytest.fixture
def tracer():
    tr = Tracer()
    tr.instrument(grovekit)
    yield tr
    tr.restore()


def test_restore_puts_every_binding_back():
    original = grovekit.cli.run_episode
    call = grovekit.variational.MetricField.__call__
    tr = Tracer()
    tr.instrument(grovekit)
    assert grovekit.cli.run_episode is not original
    assert grovekit.regsim.run_episode is grovekit.cli.run_episode
    assert grovekit.run_episode is grovekit.cli.run_episode
    tr.restore()
    assert grovekit.cli.run_episode is original
    assert grovekit.regsim.run_episode is original
    assert grovekit.variational.MetricField.__call__ is call


def test_twenty_metric_evaluations_per_rk4_step(tracer):
    grovekit.integrate_geodesic(grovekit.sphere_metric(), [1.0, 0.2],
                                [0.3, 0.7], 10, 0.01)
    layers = tracer.per_layer(1, 1.0)
    assert layers["variational.integrate_geodesic.metric_evals_per_step"] \
        == (20.0, "1/step")
    assert layers["variational.christoffel.calls"][0] == 40


def test_fifty_nine_welfare_evaluations_per_default_optimize(tracer):
    # the ROADMAP baseline: default config, seeds 1..10, order-2 agents
    grovekit.optimize_slack(grovekit.GameConfig(), order=2)
    layers = tracer.per_layer(1, 1.0)
    assert layers["regsim.optimize_slack.welfare_evals_per_call"][0] == 59
    assert layers["regsim.mean_welfare.calls"][0] == 59
    assert layers["regsim.run_episode.calls"][0] == 590
    # the refinement never converges; the swallowed error still counts
    assert layers["variational.solve_critical.unconverged"][0] == 1
    assert 0 < layers["regsim.optimize_slack.useful_ratio"][0] < 1
    assert 0 < layers["variational.solve_critical.accept_ratio"][0] < 1
    stats = tracer.layer_table()
    assert stats["regsim.step"]["calls"] == 590 * 500
    assert stats["regsim.agent_decide"]["self_s"] > 0


def test_self_time_excludes_children(tracer):
    grovekit.cli.main(["situations", "--order", "2"])
    table = tracer.layer_table()
    main = table["cli.main"]
    children = (table["enumeration.enumerate_situations"]["busy_s"]
                + table["cli.write_atomic"]["busy_s"])
    assert 0 < main["self_s"] < main["busy_s"]
    assert math.isclose(main["busy_s"] - main["self_s"], children,
                        rel_tol=1e-9)


# -- BENCHMARK.json and the command ------------------------------------------

def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wm.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == wm.WORKLOADS[w["name"]].why
    tr = Tracer()
    tr.instrument(grovekit)
    tr.restore()
    layer_names = set(tr.per_layer(1, 1.0)) | set(run.TRACE_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "numerics", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
