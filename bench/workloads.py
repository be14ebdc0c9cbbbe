"""Seeded inputs, jobs and output checks for the benchmark workloads.

Each workload turns the workload seed into its inputs once (game seed
sets, scenario files, geodesic starts and velocities, SPD quadratics,
the group mix) and hands the program only those inputs.  A job is one
closed-loop step: it calls the program, times the call, and raises
`CheckError` when an output disagrees with an oracle the code already
states.  The check functions take plain outputs, so a test can feed them
corrupted ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import grovekit
from grovekit import cli, expr, infotheory, regsim, variational

clock = time.perf_counter


class CheckError(Exception):
    """A job's output disagrees with its oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[["Recorder"], None]


class Recorder:
    """Timings, counts and values gathered by the jobs of one run."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}
        self.values: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}

    def time(self, kind: str, seconds: float) -> None:
        self.times.setdefault(kind, []).append(seconds)

    def value(self, name: str, v: float) -> None:
        self.values.setdefault(name, []).append(v)

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def median_metric(samples: list[float], unit: str):
    if not samples:
        return None
    return {"value": statistics.median(samples), "unit": unit,
            "samples": len(samples)}


# ---------------------------------------------------------------------------
# check functions
# ---------------------------------------------------------------------------

ENUMERATION_COUNTS = (3, 11, 42)   # prime forms at ranks 1, 2, 3
GROVE_TOTALS = {1: 12, 2: 54}      # grove totals at depths 1 and 2


def parse_report(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        require(bool(sep), f"malformed report line {line!r}")
        fields[key] = value
    return fields


def check_count(report: dict[str, str], listing: str, expected: int) -> None:
    require(report.get("count") == str(expected),
            f"count {report.get('count')} != {expected}")
    require(len(listing.splitlines()) == expected,
            f"listing has {len(listing.splitlines())} lines, not {expected}")


def check_same_bytes(label: str, first: dict[str, str],
                     now: dict[str, str]) -> None:
    require(first == now, f"{label}: outputs differ from the first pass")


def check_optimizer(welfare: float, scan_points, recomputed: float) -> None:
    coarse_best = max(w for _, w in scan_points)
    require(welfare >= coarse_best,
            f"optimizer welfare {welfare!r} below its coarse scan best "
            f"{coarse_best!r}")
    require(welfare == recomputed,
            f"optimizer welfare {welfare!r} != recomputed {recomputed!r}")


def great_circle_error(points: np.ndarray, velocity0: np.ndarray) -> float:
    """Largest distance of sphere-path points from the great circle
    through the first point along its initial velocity."""
    th, ph = points[:, 0], points[:, 1]
    xyz = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                    np.cos(th)], axis=1)
    t0, p0 = points[0]
    e_th = np.array([math.cos(t0) * math.cos(p0), math.cos(t0) * math.sin(p0),
                     -math.sin(t0)])
    e_ph = np.array([-math.sin(p0), math.cos(p0), 0.0])
    tangent = velocity0[0] * e_th + velocity0[1] * math.sin(t0) * e_ph
    normal = np.cross(xyz[0], tangent)
    normal /= np.linalg.norm(normal)
    return float(np.max(np.abs(xyz @ normal)))


def check_great_circle(points: np.ndarray, velocity0: np.ndarray,
                       tol: float = 1e-4) -> None:
    err = great_circle_error(points, velocity0)
    require(err < tol, f"geodesic leaves its great circle by {err:.3e}")


def check_straight_line(points: np.ndarray, start: np.ndarray,
                        velocity: np.ndarray, h: float,
                        tol: float = 1e-8) -> None:
    t = h * np.arange(len(points))[:, None]
    err = float(np.max(np.abs(points - (start + t * velocity))))
    require(err < tol, f"constant-metric geodesic is off its line by {err:.3e}")


def check_close(value: float, expected: float, rel: float, what: str) -> None:
    require(abs(value - expected) <= rel * abs(expected),
            f"{what} {value!r} not within {rel:.0%} of {expected!r}")


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


# ---------------------------------------------------------------------------
# commons-optimize
# ---------------------------------------------------------------------------

class CommonsOptimize:
    """optimize_slack on the three criterion-10 scenarios, each judged by
    the 64-point mean_welfare slack scan over the same seed set."""

    name = "commons-optimize"
    why = ("regsim episodes are over 95% of its time; the workload the "
           "batched engine and the optimizer rewrite must speed up")
    SCENARIOS = (
        ("default", {}),
        ("wide", {"capacity": 150.0, "regrowth": 0.12}),
        ("small", {"n_agents": 6, "regrowth": 0.2, "rounds": 400}),
    )
    SEEDS_PER_EVAL = 1
    SCAN_PARTS = 4      # smaller jobs give each its own fastest repeat

    def __init__(self, seed: int, tiny: bool = False, out_dir: Path = None):
        rng = np.random.default_rng([seed, 1])
        self.scan_points = 8 if tiny else 64
        self.overrides = {"rounds": 30} if tiny else {}
        # game seeds per scenario: the seed set every welfare evaluation of
        # that scenario averages over
        self.seed_sets = [tuple(int(s) + 1 for s in rng.choice(
            99_999, self.SEEDS_PER_EVAL, replace=False))
            for _ in self.SCENARIOS]
        self.results = {}
        self.scans = {}

    def setup(self) -> None:
        self.configs = [regsim.GameConfig(**{**kw, **self.overrides})
                        for _, kw in self.SCENARIOS]

    def jobs(self) -> list[Job]:
        out = []
        for (label, _), config, seeds in zip(self.SCENARIOS, self.configs,
                                             self.seed_sets):
            out.append(Job("optimize", f"optimize-{label}",
                           self._optimize(label, config, seeds)))
            out += [Job("scan", f"scan-{label}-{part}",
                        self._scan(label, config, seeds, part))
                    for part in range(self.SCAN_PARTS)]
        return out

    def _optimize(self, label, config, seeds):
        def run(rec: Recorder) -> None:
            self.results.pop(label, None)
            self.scans[label] = [None] * self.scan_points
            t = clock()
            result = regsim.optimize_slack(config, seeds=seeds, order=2)
            rec.time("optimize", clock() - t)
            recomputed = regsim.mean_welfare(config, result.policy, seeds,
                                             order=2)
            check_optimizer(result.welfare, result.scan_points, recomputed)
            self.results[label] = result
        return run

    def _scan(self, label, config, seeds, part):
        """One of SCAN_PARTS slices of the scan; the last one judges."""
        n = self.scan_points
        size = n // self.SCAN_PARTS
        points = range(part * size, (part + 1) * size)

        def run(rec: Recorder) -> None:
            scan = self.scans[label]
            t = clock()
            for k in points:
                scan[k] = regsim.mean_welfare(
                    config, regsim.PolicySpec("slack1d", (k / (n - 1),)),
                    seeds, order=2)
            rec.time("scan", clock() - t)
            rec.count("scan_episodes", size * len(seeds))
            if part < self.SCAN_PARTS - 1:
                return
            require(all(w is not None and math.isfinite(w) for w in scan),
                    "scan incomplete or non-finite")
            result = self.results.get(label)
            require(result is not None, "no optimizer result to judge")
            # slack 0 and 1 lie on both grids: same inputs, same welfare
            require(scan[0] == result.scan_points[0][1]
                    and scan[-1] == result.scan_points[-1][1],
                    "scan disagrees with the optimizer's own scan")
            best = max(scan)
            rec.value(f"regret.{label}",
                      max(0.0, (best - result.welfare) / abs(best)))
        return run

    def metrics(self, rec: Recorder) -> dict:
        out = {"optimize_s": median_metric(rec.times.get("optimize", []), "s")}
        regrets = [statistics.median(v) for k, v in sorted(rec.values.items())
                   if k.startswith("regret.")]
        if regrets:
            out["optimize_regret"] = {"value": statistics.fmean(regrets),
                                      "unit": "ratio",
                                      "samples": len(regrets)}
        scans = rec.times.get("scan", [])
        if scans:
            out["scan_episodes_per_s"] = {
                "value": rec.counts["scan_episodes"] / sum(scans),
                "unit": "1/s", "samples": len(scans)}
        return out


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

def _sphere_start(rng) -> tuple[np.ndarray, np.ndarray]:
    """Start and coordinate velocity on the unit sphere whose great circle
    keeps at least 0.3 rad from both poles, where the chart degenerates."""
    while True:
        th, ph = rng.uniform(0.9, 2.2), rng.uniform(0.0, 2 * math.pi)
        angle, speed = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.8, 1.5)
        # the circle's normal has z-component sin(angle) sin(th), and its
        # closest approach to a pole is arcsin of that
        if abs(math.sin(angle) * math.sin(th)) >= math.sin(0.3):
            return (np.array([th, ph]),
                    np.array([speed * math.cos(angle),
                              speed * math.sin(angle) / math.sin(th)]))


def _rosenbrock_start(rng) -> np.ndarray:
    """A start near the textbook (-1.2, 1): every such start takes the
    same ~14k descent iterations, so the seed does not change the work."""
    return np.array([rng.uniform(-1.3, -1.1), rng.uniform(0.9, 1.1)])


class Numerics:
    """Geodesics, policy paths and information over finite groups,
    criticality solves and Fisher functionals; never touches regsim."""

    name = "numerics"
    why = ("runs variational and infotheory and never regsim, so a "
           "commons-engine change should leave it unchanged")
    GEODESIC_STEPS, GEODESIC_H = 1000, 0.001
    PATH_STEPS, PATH_H = 200, 0.01

    def __init__(self, seed: int, tiny: bool = False, out_dir: Path = None):
        rng = np.random.default_rng([seed, 2])
        self.geodesic_steps = 20 if tiny else self.GEODESIC_STEPS
        self.path_steps = 10 if tiny else self.PATH_STEPS
        self.geodesics = [_sphere_start(rng) for _ in range(2)]
        # group mix: (kind, sizes); every order stays within 64
        a = int(rng.integers(2, 5))
        self.group_mix = [
            ("cyclic", (int(rng.integers(8, 65)),)),
            ("dihedral", (int(rng.integers(4, 33)),)),
            ("dihedral x cyclic", (a, int(rng.integers(2, 64 // (2 * a) + 1)))),
            ("cyclic x cyclic", (int(rng.integers(2, 9)),
                                 int(rng.integers(2, 9)))),
        ]
        self.info_eps = [float(rng.uniform(0.3, 1.5)) for _ in self.group_mix]
        self.rosenbrock_start = _rosenbrock_start(rng)
        self.quadratics = []
        for _ in range(8):
            d = int(rng.integers(2, 9))
            A = rng.normal(size=(d, d))
            self.quadratics.append((A @ A.T + d * np.eye(d),
                                    rng.normal(size=d), rng.normal(size=d)))
        self.fisher_scales = [float(rng.uniform(0.5, 2.0)) for _ in range(2)]
        self.fisher_samples = 64 if tiny else 4096

    def setup(self) -> None:
        v = variational
        groups = []
        for kind, sizes in self.group_mix:
            if kind == "cyclic":
                groups.append(v.cyclic_group(*sizes))
            elif kind == "dihedral":
                groups.append(v.dihedral_group(*sizes))
            elif kind == "dihedral x cyclic":
                groups.append(v.direct_product(v.dihedral_group(sizes[0]),
                                               v.cyclic_group(sizes[1])))
            else:
                groups.append(v.direct_product(v.cyclic_group(sizes[0]),
                                               v.cyclic_group(sizes[1])))
        self.costs = [v.word_distance_cost(g) for g in groups]
        self.sphere = v.sphere_metric()

    def jobs(self) -> list[Job]:
        out = [Job("geodesic", f"geodesic-{i}", self._geodesic(s, vel))
               for i, (s, vel) in enumerate(self.geodesics)]
        for i, (pcf, eps) in enumerate(zip(self.costs, self.info_eps)):
            out.append(Job("policy_path", f"policy-path-{i}",
                           self._policy_path(pcf)))
            out.append(Job("policy_info", f"policy-info-{i}",
                           self._policy_info(pcf, eps)))
        out.append(Job("critical", "critical", self._critical))
        out += [Job("fisher", f"fisher-{i}", self._fisher(s))
                for i, s in enumerate(self.fisher_scales)]
        return out

    def _geodesic(self, start, velocity):
        def run(rec: Recorder) -> None:
            t = clock()
            path = variational.integrate_geodesic(
                self.sphere, start, velocity, self.geodesic_steps,
                self.GEODESIC_H)
            dt = clock() - t
            rec.time("geodesic", dt)
            rec.count("geodesic_steps", self.geodesic_steps)
            check_great_circle(path.points, velocity)
            energies = path.energies(self.sphere)
            rec.value("geodesic_energy_drift",
                      float(np.max(np.abs(energies - energies[0]))))
        return run

    def _policy_path(self, pcf):
        def run(rec: Recorder) -> None:
            d = len(pcf.group.generators)
            start = np.zeros(d)
            velocity = np.zeros(d)
            velocity[0] = 1.0
            t = clock()
            path = variational.optimal_policy_path(pcf, start,
                                                   self.path_steps,
                                                   h=self.PATH_H)
            rec.time("policy_path", clock() - t)
            check_straight_line(path.points, start, velocity, self.PATH_H)
        return run

    def _policy_info(self, pcf, eps):
        def run(rec: Recorder) -> None:
            flat = variational.PolicyCostFunction(pcf.group,
                                                  lambda a, b: 0.0)
            t = clock()
            info = variational.policy_information(pcf, eps)
            neutral = variational.policy_information(flat, eps)
            rec.time("policy_info", clock() - t)
            require(math.isfinite(info) and info > 0,
                    f"policy information {info!r}")
            # a constant cost yields the single-delta value 1/eps^2
            check_close(neutral, 1.0 / eps ** 2, 0.01,
                        "constant-cost policy information")
        return run

    def _critical(self, rec: Recorder) -> None:
        rosen = variational.Functional(
            lambda t: float((1 - t[0]) ** 2 + 100 * (t[1] - t[0] ** 2) ** 2),
            2, "rosenbrock")
        funcs = [(variational.Functional(
            lambda t, H=H, c=c: float(0.5 * (t - c) @ H @ (t - c)), len(c)),
            theta0, c) for H, c, theta0 in self.quadratics]
        t = clock()
        found = [variational.solve_critical(rosen, self.rosenbrock_start,
                                            tol=1e-6)]
        found += [variational.solve_critical(F, theta0, tol=1e-6)
                  for F, theta0, _ in funcs]
        rec.time("critical", clock() - t)
        require(np.max(np.abs(found[0] - 1.0)) < 1e-4,
                f"Rosenbrock solution {found[0]} is not (1, 1)")
        for theta, (_, _, c) in zip(found[1:], funcs):
            require(np.max(np.abs(theta - c)) < 1e-4,
                    "SPD quadratic not solved to its centre")

    def _fisher(self, scale):
        def run(rec: Recorder) -> None:
            n = self.fisher_samples
            half = 6 * scale
            nested = infotheory.GridSpec((
                infotheory.Axis("m", -0.5, 0.5, max(8, n // 16)),
                infotheory.Axis("a", -half - 0.5, half + 0.5, n)))
            span = 7 * scale
            line = infotheory.GridSpec(
                (infotheory.Axis("a", -span, span, 64 * n),))
            t = clock()
            dist = infotheory.build_nested_distribution(
                expr.parse("sig(m1)"),
                infotheory.MetricBinding(sigma=lambda m: m),
                nested, scale)
            info = infotheory.fisher_information(dist, "a")
            gauss = infotheory.GridDistribution.from_function(
                line, lambda a: infotheory.smoothed_delta(a, 0.0, scale),
                scale)
            product = infotheory.cramer_rao_report(gauss).products[0]
            rec.time("fisher", clock() - t)
            check_close(info, 1.0 / scale ** 2, 0.01, "Fisher information")
            require(0.99 <= product <= 1.01,
                    f"Cramer-Rao product {product!r} outside [0.99, 1.01]")
        return run

    def metrics(self, rec: Recorder) -> dict:
        out = {}
        geo = rec.times.get("geodesic", [])
        if geo:
            out["geodesic_steps_per_s"] = {
                "value": rec.counts["geodesic_steps"] / sum(geo),
                "unit": "1/s", "samples": len(geo)}
        out["geodesic_energy_drift"] = median_metric(
            rec.values.get("geodesic_energy_drift", []), "1")
        for kind in ("policy_path", "policy_info", "critical", "fisher"):
            out[f"{kind}_s"] = median_metric(rec.times.get(kind, []), "s")
        return out


# ---------------------------------------------------------------------------
# cli-reports
# ---------------------------------------------------------------------------

class CliReports:
    """In-process cli.main with --out for every report-writing command."""

    name = "cli-reports"
    why = ("runs enumeration, expr, model and the serialisers, and reads "
           "whole traces of few long episodes, the opposite regsim use")

    def __init__(self, seed: int, tiny: bool = False, out_dir: Path = None):
        rng = np.random.default_rng([seed, 3])
        self.out_dir = out_dir
        self.digests: dict[str, dict[str, str]] = {}
        self.unpruned = [tuple(int(p) for p in rng.choice(
            ["3,2", "3,1", "2,2", "2,1,1", "3,1,1"]).split(","))
            for _ in range(2)]
        self.info = {"scale": repr(float(rng.uniform(0.5, 2.0))),
                     "samples": "256" if tiny else "2048", "span": "6.0"}
        d = int(rng.integers(2, 7))
        self.critical = [
            {"functional": "quadratic",
             "center": ",".join(repr(float(x)) for x in rng.normal(size=d)),
             "theta0": ",".join(repr(float(x)) for x in rng.normal(size=d))},
            {"functional": "rosenbrock",
             "theta0": ",".join(repr(float(x))
                                for x in _rosenbrock_start(rng))},
        ]
        start, velocity = _sphere_start(rng)
        self.geodesic_velocity = velocity
        self.geodesic = {"metric": "sphere",
                         "steps": "20" if tiny else "400", "h": "0.0025",
                         "start": ",".join(repr(float(x)) for x in start),
                         "velocity": ",".join(repr(float(x))
                                              for x in velocity)}
        # Agent count, horizon, economy and influx size are fixed so that
        # every seed asks for about the same work; the seed moves the game
        # seed, the slack lever and the events' rounds and drop size.
        # Order-0 populations either collapse early or hold on, which
        # changes an episode's work several-fold, so there is one of them.
        self.scenarios = []
        rounds = 40 if tiny else 3200
        for order in (0, 1, 2, 1, 2):
            lines = [
                "n_agents = 44", "capacity = 400.0", "regrowth = 0.15",
                f"rounds = {rounds}", "outside_option = 0.1",
                f"seed = {int(rng.integers(1, 100_000))}",
                "policy.family = slack1d",
                f"policy.theta = {float(rng.uniform(0.25, 0.35))!r}",
                f"agents.order = {order}",
                f"event.0 = {int(rng.integers(rounds // 5, rounds // 3))},"
                "agent_influx,6.0",
                f"event.1 = {int(rng.integers(rounds // 2, 2 * rounds // 3))},"
                f"capacity_drop,{float(rng.uniform(0.75, 0.8))!r}",
            ]
            self.scenarios.append((rounds, "\n".join(lines) + "\n"))

    def write_inputs(self) -> None:
        inputs = self.out_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)

        def write(name, fields):
            path = inputs / name
            path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
            return str(path)
        self.info_path = write("info.txt", self.info)
        self.critical_paths = [write(f"critical-{i}.txt", c)
                               for i, c in enumerate(self.critical)]
        self.geodesic_path = write("geodesic.txt", self.geodesic)
        self.scenario_paths = []
        for i, (_, text) in enumerate(self.scenarios):
            path = inputs / f"scenario-{i}.txt"
            path.write_text(text)
            self.scenario_paths.append(str(path))

    def setup(self) -> None:
        for table in (0, 1, 2):
            grovekit.enumeration.load_table(table)
        grovekit.enumeration.load_situations_reference()

    def jobs(self) -> list[Job]:
        out = [Job("enumerate", f"enumerate-{d}",
                   self._cli(f"enumerate-{d}",
                             ["enumerate", "--depth", str(d)],
                             self._count_check(ENUMERATION_COUNTS[d])))
               for d in range(3)]
        out += [Job("enumerate", f"groves-{depth}", self._groves(depth))
                for depth in GROVE_TOTALS]
        for parts in self.unpruned:
            arg = ",".join(map(str, parts))
            out.append(Job("enumerate", f"unpruned-{arg}", self._cli(
                f"unpruned-{arg}",
                ["enumerate", "--partition", arg, "--unpruned"],
                self._count_check(math.prod(ENUMERATION_COUNTS[p - 1]
                                            for p in parts)))))
        out += [Job("enumerate", f"verify-{t}", self._cli(
            f"verify-{t}", ["verify", "--table", str(t)], self._verify_check))
            for t in range(3)]
        out += [Job("enumerate", f"situations-{o}", self._cli(
            f"situations-{o}", ["situations", "--order", str(o)],
            self._situations_check(o))) for o in (1, 2, 3)]
        out.append(Job("info", "info", self._cli(
            "info", ["info", "--config", self.info_path], self._info_check)))
        out += [Job("critical", f"critical-{i}", self._cli(
            f"critical-{i}", ["critical", "--config", path],
            self._critical_check(self.critical[i])))
            for i, path in enumerate(self.critical_paths)]
        out.append(Job("geodesic", "geodesic", self._cli(
            "geodesic", ["geodesic", "--config", self.geodesic_path],
            self._geodesic_check)))
        out += [Job("simulate", f"simulate-{i}", self._cli(
            f"simulate-{i}", ["simulate", "--config", path],
            self._simulate_check(self.scenarios[i][0])))
            for i, path in enumerate(self.scenario_paths)]
        return out

    def run_cli(self, label: str, argv: list[str]) -> tuple[Path, float]:
        out = self.out_dir / "cli" / label
        if out.exists():
            shutil.rmtree(out)
        sink = io.StringIO()
        t = clock()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv + ["--out", str(out)])
        dt = clock() - t
        require(code == 0, f"{' '.join(argv)} exited {code}: "
                           f"{sink.getvalue()[-200:]}")
        return out, dt

    def _record_bytes(self, label: str, out: Path) -> None:
        now = digest_dir(out)
        first = self.digests.setdefault(label, now)
        check_same_bytes(label, first, now)

    def _cli(self, label, argv, check):
        kind = argv[0]

        def run(rec: Recorder) -> None:
            out, dt = self.run_cli(label, argv)
            rec.time("simulate" if kind == "simulate" else
                     "enumerate" if kind in ("enumerate", "verify",
                                             "situations") else kind, dt)
            check(out)
            self._record_bytes(label, out)
        return run

    def _groves(self, depth):
        def run(rec: Recorder) -> None:
            total = 0
            for parts in grovekit.enumeration.partitions_of(depth + 1):
                arg = ",".join(map(str, parts.parts))
                label = f"groves-{depth}-{arg}"
                out, dt = self.run_cli(label, ["enumerate", "--partition",
                                               arg])
                rec.time("enumerate", dt)
                report = parse_report(
                    (out / "enumerate-report.txt").read_text())
                total += int(report["count"])
                self._record_bytes(label, out)
            require(total == GROVE_TOTALS[depth],
                    f"grove total {total} != {GROVE_TOTALS[depth]}")
        return run

    @staticmethod
    def _count_check(expected):
        def check(out: Path) -> None:
            check_count(parse_report((out / "enumerate-report.txt").read_text()),
                        (out / "enumerate-list.txt").read_text(), expected)
        return check

    @staticmethod
    def _verify_check(out: Path) -> None:
        report = parse_report((out / "verify-report.txt").read_text())
        require(report.get("acceptable") == "True",
                f"verify table {report.get('table')} not acceptable")

    @staticmethod
    def _situations_check(order):
        def check(out: Path) -> None:
            report = parse_report((out / "situations-report.txt").read_text())
            listing = (out / "situations-list.txt").read_text()
            # no count is stated for order 3; its listing must still match
            expected = {1: 3, 2: 11}.get(order, int(report["count"]))
            check_count(report, listing, expected)
        return check

    @staticmethod
    def _info_check(out: Path) -> None:
        report = parse_report((out / "info-report.txt").read_text())
        check_close(float(report["information"]), float(report["expected"]),
                    0.01, "info Fisher information")
        require((out / "info-distribution.txt").stat().st_size > 0,
                "empty distribution file")

    @staticmethod
    def _critical_check(config):
        if config["functional"] == "quadratic":
            target = np.array([float(x) for x in config["center"].split(",")])
        else:
            target = np.ones(2)

        def check(out: Path) -> None:
            report = parse_report((out / "critical-report.txt").read_text())
            require(report.get("converged") == "True", "critical: unconverged")
            theta = np.array([float(x) for x in report["theta"].split(",")])
            require(np.max(np.abs(theta - target)) < 1e-4,
                    f"critical: {theta} is not {target}")
        return check

    def _geodesic_check(self, out: Path) -> None:
        path = variational.GeodesicPath.from_csv(
            (out / "geodesic-path.csv").read_text())
        check_great_circle(path.points, self.geodesic_velocity)

    @staticmethod
    def _simulate_check(rounds):
        def check(out: Path) -> None:
            report = parse_report((out / "simulate-report.txt").read_text())
            require(report.get("rounds") == str(rounds), "simulate: rounds")
            require(math.isfinite(float(report["welfare"])),
                    "simulate: welfare")
            with open(out / "simulate-trace.csv") as handle:
                lines = sum(1 for _ in handle)
            require(lines == rounds + 1,
                    f"simulate: {lines} CSV lines for {rounds} rounds")
        return check

    def metrics(self, rec: Recorder) -> dict:
        return {f"{kind}_s": median_metric(rec.times.get(kind, []), "s")
                for kind in ("simulate", "enumerate")}


WORKLOADS = {w.name: w for w in (CommonsOptimize, Numerics, CliReports)}
