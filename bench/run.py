"""grovekit benchmark: one workload, one process, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports grovekit from ``src/``
and writes its scratch files under ``.bench_out/``.  The workloads are
listed in ``BENCHMARK.json`` and built in ``bench/workloads.py`` from the
seed.  Every job's output is checked; a job that raises or fails its check
counts in ``failed``.

A run repeats full passes over the workload's job list, each job starting
when the previous one finished, until another pass would overrun
``--seconds``.  The first pass warms caches and is not timed; at least two
more follow, so every output is also compared with the first pass's
bytes.  The process is pinned to one CPU, numpy's BLAS to one thread, and
nothing else starts a thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median of
several fresh processes' time from start until the first job could run
(the grovekit import plus the workload's set-up, such as table loading and
group construction); ``wall_ref_s``, one pass with each job at its
median over the run; and ``peak_rss_mb`` of this process.  Both timings
are in reference seconds: a fixed calibration loop (calibrate.py) runs
between jobs and before each set-up probe, and each measured time is
scaled by how much slower than its reference the loops around it ran,
which cancels a shared machine's changing speed.
``--trace 1`` alternates untraced and traced passes (each including the
set-up, so set-up calls are counted too) and reports the per-layer
metrics of one traced pass plus the tracing overhead.  The line before the
result holds the full report: run metadata, raw seconds (``wall_s`` is the
median pass), the workload-specific metrics with sample counts (timings
in reference seconds), error rate and failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy reads these when it is first imported, which calibrate.py does.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11      # the first warms the bytecode cache and is dropped
MIN_PASSES = 3         # the first warms caches and is not timed
CALIBRATE_EVERY_S = 0.3
PROBE_TIMEOUT_S = 60
MAX_FAILURES_SHOWN = 5
END_TO_END = ("setup_s", "wall_ref_s", "peak_rss_mb")
TRACE_METRICS = ("trace.overhead_s", "trace.traced_wall_s",
                 "trace.untraced_wall_s", "trace.spans")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def pin_to_one_cpu() -> int:
    """Keep this process and the set-up probes it starts on one CPU, so
    each calibration loop runs on the core whose speed it measures."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Start fresh processes that import grovekit and set up the workload;
    time each from its start until it reports ready.  Returns the probe
    times and the calibration loops run between them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-probe"]
    samples, cal = [], []
    for _ in range(SETUP_PROBES):
        cal.append(statistics.fmean(calibrate.loop() for _ in range(3)))
        t = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter() - t
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
        samples.append(ready)
    return samples[1:], cal[1:]


class PassLog:
    """Timed passes: raw pass durations, and each job's durations over
    the calibration loops run around it (see calibrate.py)."""

    def __init__(self):
        self.passes: list[float] = []
        self.cal: list[float] = []
        self.relative: dict[str, list[float]] = {}

    def add(self, label: str, seconds: float, cal: float) -> None:
        self.relative.setdefault(label, []).append(seconds / cal)

    def reference_s(self) -> float:
        """One pass in reference seconds, each job at its median."""
        return calibrate.REFERENCE_S * sum(
            statistics.median(r) for r in self.relative.values())


class Runner:
    """Runs passes of a workload's job list and counts failures."""

    def __init__(self, workload, workloads_module):
        self.w = workload
        self.rec = workloads_module.Recorder()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.jobs = None

    def one_pass(self, log: PassLog | None = None, tracer=None,
                 with_setup: bool = False) -> float:
        """Run every job once; returns the time spent in set-up and jobs.

        Calibration loops run before the first job, after every
        CALIBRATE_EVERY_S of jobs and after the last; each job is logged
        relative to the mean of the loops just before and just after it.
        """
        busy = 0.0
        since_cal = 0.0
        cal = calibrate.loop()
        pending: list[tuple[str, float, float]] = []
        if log is not None:
            log.cal.append(cal)

        def calibrate_now():
            nonlocal cal, since_cal
            after = calibrate.loop()
            if log is not None:
                log.cal.append(after)
                for label, spent, before in pending:
                    log.add(label, spent, (before + after) / 2)
            pending.clear()
            cal, since_cal = after, 0.0

        def timed(label, fn):
            nonlocal busy, since_cal
            t = time.perf_counter()
            try:
                fn()
            finally:
                spent = time.perf_counter() - t
                busy += spent
                since_cal += spent
                pending.append((label, spent, cal))
                if since_cal >= CALIBRATE_EVERY_S:
                    calibrate_now()

        if with_setup or self.jobs is None:
            if tracer is not None:
                tracer.job = -1

            def setup():
                self.w.setup()
                self.jobs = self.w.jobs()
            timed("(setup)", setup)
        for job in self.jobs:
            if tracer is not None:
                tracer.job = self.attempted
            self.attempted += 1
            try:
                timed(job.label, lambda: job.run(self.rec))
            except Exception as exc:  # noqa: BLE001 - counted and reported
                self.failed += 1
                if len(self.failures) < MAX_FAILURES_SHOWN:
                    self.failures.append(
                        f"{job.label}: {type(exc).__name__}: {exc}")
        if pending:
            calibrate_now()
        if log is not None:
            log.passes.append(busy)
        return busy


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> int:
    import numpy as np

    import grovekit
    import grovekit.cli  # noqa: F401 - bound so the tracer can reach it
    import workloads as wm

    cls = wm.WORKLOADS[args.workload]
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    w = cls(args.seed, out_dir=out_dir)
    if args.setup_probe:
        w.setup()
        print("ready", flush=True)
        return 0

    cpu = pin_to_one_cpu()
    if not args.trace:
        setup, setup_cal = probe_setup(args.workload, args.seed)
    if hasattr(w, "write_inputs"):
        w.write_inputs()
    runner = Runner(w, wm)
    untraced, traced = PassLog(), PassLog()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    start = time.perf_counter()
    runner.one_pass(with_setup=bool(tracer))
    runner.rec = wm.Recorder()  # the warm-up pass is not measured
    while True:
        if tracer is not None and len(untraced.passes) >= len(traced.passes):
            tracer.instrument(grovekit)
            try:
                runner.one_pass(traced, tracer, with_setup=True)
            finally:
                tracer.restore()
        else:
            runner.one_pass(untraced, with_setup=bool(tracer))
        passes = untraced.passes + traced.passes
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES - 1
                and elapsed + statistics.median(passes) > args.seconds):
            break

    report = {
        "workload": args.workload,
        "why": cls.why,
        "trace": args.trace,
        "metadata": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "git_commit": git_commit(),
            "seed": args.seed,
            "seconds": args.seconds,
            "passes_warmup": 1,
            "passes_untraced": len(untraced.passes),
            "passes_traced": len(traced.passes),
            "closed_loop_clients": 1,
        },
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        "failures": runner.failures,
    }
    if tracer is None:
        results = {
            "setup_s": metric(calibrate.REFERENCE_S * statistics.median(
                t / c for t, c in zip(setup, setup_cal)), "s"),
            "wall_ref_s": metric(untraced.reference_s(), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
        detail = {name: {**m, "samples": n} for (name, m), n in zip(
            results.items(), (len(setup), len(untraced.passes), 1))}
        detail["setup_raw_s"] = {"value": statistics.median(setup),
                                 "unit": "s", "samples": len(setup)}
        detail["wall_s"] = {"value": statistics.median(untraced.passes),
                            "unit": "s", "samples": len(untraced.passes)}
        detail["calibration_s"] = {
            "value": statistics.fmean(untraced.cal), "unit": "s",
            "samples": len(untraced.cal)}
        detail["error_rate"] = {"value": report["error_rate"],
                                "unit": "ratio",
                                "samples": runner.attempted}
        # the workload's own timings, in reference seconds like wall_ref_s
        speed = calibrate.REFERENCE_S / statistics.fmean(untraced.cal)
        scale = {"s": speed, "1/s": 1.0 / speed}
        for name, m in w.metrics(runner.rec).items():
            if m:
                detail[name] = {**m, "value": m["value"]
                                * scale.get(m["unit"], 1.0)}
        report["metrics"] = detail
    else:
        n = len(traced.passes)
        traced_wall = traced.reference_s()
        untraced_wall = untraced.reference_s()
        results = {name: metric(v, unit) for name, (v, unit) in
                   tracer.per_layer(n, sum(traced.passes)).items()}
        results["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
        results["trace.traced_wall_s"] = metric(traced_wall, "s")
        results["trace.untraced_wall_s"] = metric(untraced_wall, "s")
        results["trace.spans"] = metric(tracer.span_count / n, "count")
        report["layers"] = {
            name: {k: v / n for k, v in row.items()}
            for name, row in tracer.layer_table().items()}
        report["waiting"] = ("none: one thread, no queue, no second process, "
                             "so no layer waits on another")
        out_dir.mkdir(parents=True, exist_ok=True)
        spans = out_dir / "spans.npz"
        tracer.write_spans(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": results}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "grovekit" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no grovekit sources under {SRC}; run from "
                         "the root of a grovekit checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; choose "
                         f"from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
