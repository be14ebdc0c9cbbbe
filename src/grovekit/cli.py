"""Command-line front end.

Every subcommand resolves its flags into a RunReport: a flat key-value
record with stable field order, written atomically next to any CSV
payloads.  Reports embed the seed and the digests of the shipped table
files but never wall-clock data, so repeated runs with the same flags
produce byte-identical files.  Exit codes: 0 success, 1 computation
failure, 2 usage or configuration error, which includes any path that
cannot be read or written (every OSError); errors print one
``grovekit: ...`` line to stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import tempfile
from importlib import resources

import numpy as np

from . import infotheory, regsim
from .enumeration import (
    PartitionSpec,
    enumerate_groves,
    enumerate_situations,
    enumerate_topologies,
    verify_against_table,
)
from .expr import GroveError, parse, render
from .infotheory import (
    Axis,
    GridSpec,
    MetricBinding,
    build_nested_distribution,
    fisher_information,
)
from .model import CostModel, load_config, model_from_config
from .regsim import RegsimError, load_scenario, optimize_slack, run_episode
from .variational import (
    CriticalityError,
    Functional,
    GeodesicPath,
    VariationalError,
    critical_trace_csv,
    euclidean_metric,
    integrate_geodesic,
    solve_critical,
    sphere_metric,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

TABLE_RESOURCES = ("table0.txt", "table1.txt", "table2.txt", "situations2.txt")


class RunReport:
    """Ordered key-value record; the universal summary format."""

    def __init__(self, command: str):
        self.fields: list[tuple[str, str]] = [("command", command)]

    def add(self, key: str, value) -> None:
        if isinstance(value, float):
            value = repr(value)
        self.fields.append((key, str(value)))

    def lines(self) -> list[str]:
        return [f"{k} = {v}" for k, v in self.fields]

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def table_digests() -> list[tuple[str, str]]:
    out = []
    for name in TABLE_RESOURCES:
        data = (resources.files("grovekit.tables") / name).read_bytes()
        out.append((name, hashlib.sha256(data).hexdigest()[:12]))
    return out


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-grovekit-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report: RunReport, out_dir: str | None, stem: str,
          extras: dict[str, str] | None = None) -> None:
    if out_dir:
        write_atomic(os.path.join(out_dir, f"{stem}.txt"), report.text())
        for name, text in (extras or {}).items():
            write_atomic(os.path.join(out_dir, name), text)
    sys.stdout.write(report.text())


def _load_model(path: str | None) -> CostModel:
    if path is None:
        return CostModel()
    return model_from_config(path)


def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    return load_config(path)


# ---------------------------------------------------------------------------
# enumeration commands
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    model = _load_model(args.model)
    report = RunReport("enumerate")
    report.add("depth", args.depth)
    report.add("seed", args.seed)
    if args.partition:
        parts = PartitionSpec(tuple(int(p) for p in args.partition.split(",")))
        groves = enumerate_groves(parts, model, pruned=not args.unpruned)
        lines = [g.render() for g in groves]
        report.add("partition", args.partition)
        report.add("pruned", not args.unpruned)
    else:
        exprs = enumerate_topologies(
            args.depth, PartitionSpec((args.depth + 1,)), model)
        lines = [render(e) for e in exprs]
    report.add("count", len(lines))
    for name, digest in table_digests():
        report.add(f"digest.{name}", digest)
    _emit(report, args.out, "enumerate-report",
          {"enumerate-list.txt": "\n".join(lines) + "\n"})
    for line in lines:
        sys.stdout.write(line + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _load_model(args.model)
    if args.entry27_as_printed:
        model = model.with_entry27_as_printed()
    result = verify_against_table(args.table, model)
    report = RunReport("verify")
    report.add("table", args.table)
    report.add("seed", args.seed)
    report.add("entry27_as_printed", args.entry27_as_printed)
    report.add("expected", len(result.expected))
    report.add("produced", len(result.produced))
    report.add("missing", len(result.missing))
    report.add("extra", len(result.extra))
    report.add("exact", result.exact)
    report.add("acceptable", result.acceptable)
    for name, digest in table_digests():
        report.add(f"digest.{name}", digest)
    diff_lines = [f"missing: {m}" for m in sorted(result.missing)]
    diff_lines += [f"extra: {e}" for e in sorted(result.extra)]
    _emit(report, args.out, "verify-report",
          {"verify-diff.txt": "\n".join(diff_lines) + ("\n" if diff_lines else "")})
    for line in diff_lines:
        sys.stdout.write(line + "\n")
    return EXIT_OK if result.acceptable else EXIT_FAILURE


def cmd_situations(args) -> int:
    sits = enumerate_situations(args.order)
    lines = [s.render() for s in sits]
    report = RunReport("situations")
    report.add("order", args.order)
    report.add("seed", args.seed)
    report.add("count", len(lines))
    for name, digest in table_digests():
        report.add(f"digest.{name}", digest)
    _emit(report, args.out, "situations-report",
          {"situations-list.txt": "\n".join(lines) + "\n"})
    for line in lines:
        sys.stdout.write(line + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# numerics commands
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    cfg = _read_config(args.config)
    scale = float(cfg.get("scale", "1.0"))
    samples = int(cfg.get("samples", "256"))
    span = float(cfg.get("span", "6.0"))
    if scale <= 0 or samples < 8:
        raise CliConfigError("info: scale must be > 0 and samples >= 8")
    half = span * scale
    spec = GridSpec((
        Axis("m", -0.5, 0.5, max(8, samples // 16)),
        Axis("a", -half - 0.5, half + 0.5, samples),
    ))
    dist = build_nested_distribution(
        parse("sig(m1)"), MetricBinding(sigma=lambda m: m),
        spec, eps=scale)
    info = fisher_information(dist, "a")
    expected = 1.0 / (scale * scale)
    report = RunReport("info")
    report.add("seed", args.seed)
    report.add("scale", scale)
    report.add("samples", samples)
    report.add("span", span)
    report.add("information", info)
    report.add("expected", expected)
    report.add("relative_error", abs(info - expected) / expected)
    _emit(report, args.out, "info-report",
          {"info-distribution.txt": dist.dumps()})
    return EXIT_OK


class CliConfigError(Exception):
    pass


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def cmd_critical(args) -> int:
    cfg = _read_config(args.config)
    kind = cfg.get("functional", "quadratic")
    tol = float(cfg.get("tol", "1e-6"))
    if kind == "quadratic":
        center = _parse_vector(cfg.get("center", "0,0"))
        d = len(center)
        F = Functional(lambda t: float((t - center) @ (t - center)), d,
                       "quadratic")
        theta0 = _parse_vector(cfg.get("theta0", ",".join("1" * d)))
    elif kind == "rosenbrock":
        F = Functional(
            lambda t: float((1 - t[0]) ** 2 + 100 * (t[1] - t[0] ** 2) ** 2),
            2, "rosenbrock")
        theta0 = _parse_vector(cfg.get("theta0", "-1.2,1.0"))
    else:
        raise CliConfigError(f"critical: unknown functional {kind!r}")
    trace: list = []
    report = RunReport("critical")
    report.add("seed", args.seed)
    report.add("functional", kind)
    report.add("tol", tol)
    try:
        theta = solve_critical(F, theta0, tol=tol, trace=trace)
    except CriticalityError as exc:
        report.add("converged", False)
        report.add("residual", exc.residual)
        report.add("theta", ",".join(repr(float(t)) for t in exc.best_theta))
        _emit(report, args.out, "critical-report",
              {"critical-trace.csv": critical_trace_csv(trace)})
        return EXIT_FAILURE
    report.add("converged", True)
    report.add("theta", ",".join(repr(float(t)) for t in theta))
    report.add("value", F(theta))
    report.add("iterations", len(trace))
    _emit(report, args.out, "critical-report",
          {"critical-trace.csv": critical_trace_csv(trace)})
    return EXIT_OK


def cmd_geodesic(args) -> int:
    cfg = _read_config(args.config)
    kind = cfg.get("metric", "euclidean")
    steps = int(cfg.get("steps", "1000"))
    h = float(cfg.get("h", "0.001"))
    if kind == "euclidean":
        dim = int(cfg.get("dimension", "2"))
        metric = euclidean_metric(dim)
        start = _parse_vector(cfg.get("start", ",".join("0" * dim)))
        velocity = _parse_vector(cfg.get("velocity", ",".join(["1"] + ["0"] * (dim - 1))))
    elif kind == "sphere":
        metric = sphere_metric()
        start = _parse_vector(cfg.get("start", f"{math.pi / 2!r},0"))
        velocity = _parse_vector(cfg.get("velocity", "0,1"))
    else:
        raise CliConfigError(f"geodesic: unknown metric {kind!r}")
    try:
        path = integrate_geodesic(metric, start, velocity, steps, h)
    except VariationalError as exc:
        report = RunReport("geodesic")
        report.add("seed", args.seed)
        report.add("metric", kind)
        report.add("error", str(exc))
        _emit(report, args.out, "geodesic-report")
        return EXIT_FAILURE
    report = RunReport("geodesic")
    report.add("seed", args.seed)
    report.add("metric", kind)
    report.add("steps", steps)
    report.add("h", h)
    report.add("start", ",".join(repr(float(x)) for x in path.start))
    report.add("end", ",".join(repr(float(x)) for x in path.end))
    energies = path.energies(metric)
    report.add("energy_drift",
               float(np.max(np.abs(energies - energies[0]))))
    _emit(report, args.out, "geodesic-report",
          {"geodesic-path.csv": path.to_csv()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulation commands
# ---------------------------------------------------------------------------

def _scenario_from_args(args):
    if args.config:
        with open(args.config) as handle:
            config, policy, order, events = load_scenario(handle.read())
    else:
        config, policy, order, events = regsim.GameConfig(), regsim.NO_LAW, 0, []
    if args.seed is not None:
        config = regsim.replace(config, seed=args.seed)
    if getattr(args, "rounds", None) is not None:
        config = regsim.replace(config, rounds=args.rounds)
    return config, policy, order, events


def cmd_simulate(args) -> int:
    config, policy, order, events = _scenario_from_args(args)
    trace = run_episode(config, policy,
                        regsim.default_agents(config, order), events)
    report = RunReport("simulate")
    report.add("seed", config.seed)
    report.add("rounds", config.rounds)
    report.add("n_agents", config.n_agents)
    report.add("policy_family", policy.family)
    if policy.theta:
        report.add("policy_theta", ",".join(repr(t) for t in policy.theta))
    report.add("agents_order", order)
    report.add("welfare", trace.welfare)
    report.add("total_utility", trace.total_utility)
    report.add("retained_rounds", trace.retained_rounds)
    report.add("final_resource",
               trace.rows[-1]["resource"] if trace.rows else config.capacity)
    report.add("events", len(trace.events))
    _emit(report, args.out, "simulate-report",
          {"simulate-trace.csv": trace.to_csv()})
    return EXIT_OK


def cmd_optimize(args) -> int:
    config, policy, order, events = _scenario_from_args(args)
    family = args.family or (policy.family if policy.family != "none"
                             else "slack1d")
    result = optimize_slack(config, family=family, order=order)
    report = RunReport("optimize")
    report.add("seed", config.seed)
    report.add("family", family)
    report.add("agents_order", order)
    report.add("theta", ",".join(repr(t) for t in result.policy.theta))
    report.add("welfare", result.welfare)
    report.add("residual", result.residual)
    scan_csv = "slack,welfare\n" + "".join(
        f"{s!r},{w!r}\n" for s, w in result.scan_points)
    _emit(report, args.out, "optimize-report",
          {"optimize-scan.csv": scan_csv})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grovekit",
        description="Topology enumeration, information functionals, "
                    "geodesics, and the regulated commons game.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, metavar="DIR")
        p.add_argument("--model", default=None, metavar="FILE")
        p.add_argument("--config", default=None, metavar="FILE")

    p = sub.add_parser("enumerate", help="list canonical topology expressions")
    common(p)
    p.add_argument("--depth", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--partition", default=None,
                   help="comma separated integer partition for groves")
    p.add_argument("--unpruned", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="diff enumeration against shipped tables")
    common(p)
    p.add_argument("--table", type=int, required=True, choices=(0, 1, 2))
    p.add_argument("--entry27-as-printed", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("situations", help="list situation expressions")
    common(p)
    p.add_argument("--order", type=int, default=2, choices=(1, 2, 3))
    p.set_defaults(func=cmd_situations)

    p = sub.add_parser("info", help="Fisher information of a location family")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("critical", help="solve for a vanishing first variation")
    common(p)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("geodesic", help="integrate a lever-space geodesic")
    common(p)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("simulate", help="run one commons episode")
    common(p)
    p.add_argument("--rounds", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="optimize the permit slack lever")
    common(p)
    p.add_argument("--family", default=None,
                   choices=regsim.OPTIMIZABLE_FAMILIES)
    p.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, CliConfigError, KeyError, ValueError,
            RegsimError, GroveError) as exc:
        sys.stderr.write(f"grovekit: {exc}\n")
        return EXIT_USAGE
    except (VariationalError, infotheory.InfoError) as exc:
        sys.stderr.write(f"grovekit: {exc}\n")
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
