"""Command-line front end.

Every subcommand returns its exit code, its report fields, its payload
files and the lines it echoes after the report; `main` alone formats the
report, a flat key-value record with stable field order, and writes it
to stdout and, atomically, next to the payloads.  Reports embed the seed
and the digests of the shipped table files but never wall-clock data, so
repeated runs with the same flags produce byte-identical files.  Exit
codes: 0 success, 1 computation failure, 2 usage or configuration error,
which includes any path that cannot be read or written (every OSError);
errors print one ``grovekit: ...`` line to stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import tempfile

import numpy as np

from . import infotheory, regsim, variational
from .enumeration import (
    SITUATIONS_FILE,
    TABLE_FILES,
    enumerate_groves,
    enumerate_situations,
    enumerate_topologies,
    table_path,
    verify_against_table,
)
from .expr import GroveError, render
from .infotheory import fisher_information, location_family
from .model import (EXPECTED, integers, load_config, model_from_config,
                    numbers, read_key, reject_unread)
from .regsim import (DEFAULT_SEEDS, NO_LAW, OptimizationResult,
                     load_scenario, mean_welfare, optimize_slack, run_episode)
from .variational import (
    CriticalityError,
    Functional,
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

#: Characters `write_atomic` hands the file per write: a text file encodes
#: each write's whole argument at once, so one write of a long text would
#: hold its bytes besides it.
_WRITE_CHUNK = 1 << 16


def table_digests() -> list[tuple[str, str]]:
    """The ``digest.<table>`` report fields of the shipped table files."""
    return [(f"digest.{name}",
             hashlib.sha256(table_path(name).read_bytes()).hexdigest()[:12])
            for name in (*TABLE_FILES.values(), SITUATIONS_FILE)]


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-grovekit-")
    try:
        with os.fdopen(fd, "w") as handle:
            for start in range(0, len(text), _WRITE_CHUNK):
                handle.write(text[start:start + _WRITE_CHUNK])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _listing(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


#: what a subcommand returns: its exit code, the report fields after
#: ``command``, the ``--out`` payload files by name, and the lines echoed
#: to stdout after the report
CommandResult = tuple[int, list[tuple[str, object]], dict[str, str], list[str]]


# ---------------------------------------------------------------------------
# enumeration commands
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> CommandResult:
    if args.unpruned and args.partition is None:
        raise GroveError("enumerate: --unpruned needs --partition")
    model = model_from_config(args.model)
    if args.partition is not None:
        groves = read_key({"--partition": args.partition}, "enumerate",
                          "--partition", lambda text: enumerate_groves(
                              integers(text), model, pruned=not args.unpruned),
                          expected=EXPECTED[integers])
        lines = sorted(g.render() for g in groves)
        fields = [("seed", args.seed), ("partition", args.partition),
                  ("pruned", not args.unpruned)]
    else:
        lines = sorted(map(render, enumerate_topologies(args.depth, model)))
        fields = [("depth", args.depth), ("seed", args.seed)]
    fields += [("count", len(lines)), *table_digests()]
    return EXIT_OK, fields, {"enumerate-list.txt": _listing(lines)}, lines


def cmd_verify(args) -> CommandResult:
    model = model_from_config(args.model)
    result = verify_against_table(args.table, model)
    fields = [("table", args.table), ("seed", args.seed),
              ("entry27_as_printed", model.table2_entry27_as_printed),
              ("expected", len(result.expected)),
              ("produced", len(result.produced)),
              ("missing", len(result.missing)), ("extra", len(result.extra)),
              ("exact", result.exact), ("acceptable", result.acceptable),
              *table_digests()]
    diff_lines = [f"missing: {m}" for m in sorted(map(render, result.missing))]
    diff_lines += [f"extra: {e}" for e in sorted(map(render, result.extra))]
    return (EXIT_OK if result.acceptable else EXIT_FAILURE, fields,
            {"verify-diff.txt": _listing(diff_lines)}, diff_lines)


def cmd_situations(args) -> CommandResult:
    lines = [s.render() for s in enumerate_situations(args.order)]
    fields = [("order", args.order), ("seed", args.seed),
              ("count", len(lines)), *table_digests()]
    return EXIT_OK, fields, {"situations-list.txt": _listing(lines)}, lines


# ---------------------------------------------------------------------------
# numerics commands
# ---------------------------------------------------------------------------

def _checked(parse, test, reason: str):
    """A `read_key` parser: ``parse`` of a value that ``test`` accepts."""
    def checked(text):
        if not test(value := parse(text)):
            raise GroveError(reason)
        return value
    return checked


def cmd_info(args) -> CommandResult:
    cfg = load_config(args.config)
    given = {k: cfg[k] for k in ("scale", "span", "samples") if k in cfg}
    scale = read_key(cfg, args.config, "scale", lambda text:
                     infotheory.check_scale(float(text)), 1.0, "a number")
    span = read_key(cfg, args.config, "span", lambda text:
                    infotheory.check_span(float(text)), 6.0, "a number")
    samples = read_key(cfg, args.config, "samples", int, 256)
    reject_unread(cfg, args.config)
    # the grid's rules relate all three keys, so a fault names the last key
    # given (the defaults alone give a valid grid)
    key = next(reversed(given), "samples")
    dist = read_key({key: given.get(key, str(samples))}, args.config, key,
                    lambda _: location_family(scale, span, samples))
    info = fisher_information(dist, "a")
    expected = 1.0 / (scale * scale)
    fields = [("seed", args.seed), ("scale", scale), ("samples", samples),
              ("span", span), ("information", info), ("expected", expected),
              ("relative_error", abs(info - expected) / expected)]
    return EXIT_OK, fields, {"info-distribution.txt": dist.dumps()}, []


def _join(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _read_vector(cfg, origin, key: str, default: tuple[float, ...]):
    """The numbers of ``key``: as many finite ones as ``default`` has."""
    d = len(default)
    return read_key(cfg, origin, key, lambda text: variational.check_vector(
        numbers(text), d, key), default, f"{d} numbers separated by commas")


def cmd_critical(args) -> CommandResult:
    cfg = load_config(args.config)
    kind = read_key(cfg, args.config, "functional", _checked(
        str, ("quadratic", "rosenbrock").__contains__,
        "expected quadratic or rosenbrock"), "quadratic")
    tol = read_key(cfg, args.config, "tol", lambda text:
                   variational.check_tolerance(float(text)), 1e-6, "a number")
    if kind == "quadratic":
        center = read_key(cfg, args.config, "center", lambda text: (
            variational.check_vector(c := numbers(text), len(c), "center")),
            (0.0, 0.0), EXPECTED[numbers])
        d = len(center)
        F = Functional(lambda t: float((t - center) @ (t - center)), d,
                       "quadratic")
        theta0 = _read_vector(cfg, args.config, "theta0", (1.0,) * d)
    else:
        F = Functional(
            lambda t: float((1 - t[0]) ** 2 + 100 * (t[1] - t[0] ** 2) ** 2),
            2, "rosenbrock")
        theta0 = _read_vector(cfg, args.config, "theta0", (-1.2, 1.0))
    reject_unread(cfg, args.config)
    trace: list = []
    fields = [("seed", args.seed), ("functional", kind), ("tol", tol)]
    try:
        theta = solve_critical(F, theta0, tol=tol, trace=trace)
    except CriticalityError as exc:
        code = EXIT_FAILURE
        fields += [("converged", False), ("residual", exc.residual),
                   ("theta", _join(exc.best_theta))]
    else:
        code = EXIT_OK
        fields += [("converged", True), ("theta", _join(theta)),
                   ("value", trace[-1][2]), ("iterations", len(trace))]
    return code, fields, {"critical-trace.csv": critical_trace_csv(trace)}, []


def cmd_geodesic(args) -> CommandResult:
    cfg = load_config(args.config)
    kind = read_key(cfg, args.config, "metric", _checked(
        str, ("euclidean", "sphere").__contains__,
        "expected euclidean or sphere"), "euclidean")
    steps = read_key(cfg, args.config, "steps", lambda text:
                     variational.check_steps(int(text)), 1000, "an integer")
    h = read_key(cfg, args.config, "h", lambda text:
                 variational.check_step_size(float(text)), 0.001, "a number")
    if kind == "euclidean":
        dim = read_key(cfg, args.config, "dimension", lambda text: (
            variational.check_lever_dimension(int(text))), 2, "an integer")
        metric = euclidean_metric(dim)
        start = _read_vector(cfg, args.config, "start", (0.0,) * dim)
        velocity = _read_vector(cfg, args.config, "velocity",
                                (1.0,) + (0.0,) * (dim - 1))
    else:
        metric = sphere_metric()
        start = _read_vector(cfg, args.config, "start", (math.pi / 2, 0.0))
        velocity = _read_vector(cfg, args.config, "velocity", (0.0, 1.0))
    reject_unread(cfg, args.config)
    fields = [("seed", args.seed), ("metric", kind)]
    try:
        path = integrate_geodesic(metric, start, velocity, steps, h)
        energies = path.energies(metric)
    except VariationalError as exc:
        return EXIT_FAILURE, fields + [("error", str(exc))], {}, []
    fields += [("steps", steps), ("h", h), ("start", _join(path.start)),
               ("end", _join(path.end)),
               ("energy_drift", float(np.max(np.abs(energies - energies[0]))))]
    return EXIT_OK, fields, {"geodesic-path.csv": path.to_csv()}, []


# ---------------------------------------------------------------------------
# simulation commands
# ---------------------------------------------------------------------------

def _scenario_from_args(args):
    config, policy, order, events = load_scenario(args.config)
    if args.seed is not None:
        config = regsim.replace(config, seed=args.seed)
    if getattr(args, "rounds", None) is not None:
        config = regsim.replace(config, rounds=args.rounds)
    return config, policy, order, events


def cmd_simulate(args) -> CommandResult:
    config, policy, order, events = _scenario_from_args(args)
    trace = run_episode(config, policy, order, events)
    fields = [("seed", config.seed), ("rounds", config.rounds),
              ("n_agents", config.n_agents), ("policy_family", policy.family)]
    if policy.theta:
        fields.append(("policy_theta", _join(policy.theta)))
    fields += [("agents_order", order), ("welfare", trace.welfare),
               ("total_utility", trace.total_utility),
               ("retained_rounds", trace.retained_rounds),
               ("final_resource", trace.rows[-1]["resource"] if trace.rows
                else config.capacity),
               ("events", len(trace.events))]
    return EXIT_OK, fields, {"simulate-trace.csv": trace.to_csv()}, []


def cmd_optimize(args) -> CommandResult:
    config, policy, order, events = _scenario_from_args(args)
    # --family wins; a lawless scenario is tuned, a fixed law has no lever
    family = args.family or read_key(
        {"policy.family": policy.family}, args.config, "policy.family",
        _checked({"none": "slack1d", "slack1d": "slack1d"}.get, bool,
                 "optimize tunes the none or slack1d family"))
    if family == "none":
        result = OptimizationResult(NO_LAW, mean_welfare(
            config, NO_LAW, DEFAULT_SEEDS, order, events), 0.0, ())
    else:
        result = optimize_slack(config, order=order, events=events)
    fields = [("seed", config.seed), ("family", family),
              ("agents_order", order), ("theta", _join(result.policy.theta)),
              ("welfare", result.welfare), ("residual", result.residual)]
    scan_csv = "slack,welfare\n" + "".join(
        f"{s!r},{w!r}\n" for s, w in result.scan_points)
    return EXIT_OK, fields, {"optimize-scan.csv": scan_csv}, []


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grovekit",
        description="Topology enumeration, information functionals, "
                    "geodesics, and the regulated commons game.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, file_flag=None):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, metavar="DIR")
        if file_flag:
            p.add_argument(file_flag, default=None, metavar="FILE")

    p = sub.add_parser("enumerate", help="list canonical topology expressions")
    common(p, "--model")
    listing = p.add_mutually_exclusive_group()
    # argparse counts a flag as given only when its value is not the default
    # object; a string default is converted to a new int, so "--depth 0"
    # still conflicts with --partition.
    listing.add_argument("--depth", type=int, default="0", choices=(0, 1, 2))
    listing.add_argument("--partition", default=None,
                         help="comma separated integer partition for groves")
    p.add_argument("--unpruned", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="diff enumeration against shipped tables")
    common(p, "--model")
    p.add_argument("--table", type=int, required=True, choices=(0, 1, 2))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("situations", help="list situation expressions")
    common(p)
    p.add_argument("--order", type=int, default=2, choices=(1, 2, 3))
    p.set_defaults(func=cmd_situations)

    p = sub.add_parser("info", help="Fisher information of a location family")
    common(p, "--config")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("critical", help="solve for a vanishing first variation")
    common(p, "--config")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("geodesic", help="integrate a lever-space geodesic")
    common(p, "--config")
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("simulate", help="run one commons episode")
    common(p, "--config")
    p.add_argument("--rounds", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="optimize the permit slack lever")
    common(p, "--config")
    p.add_argument("--family", default=None, choices=("none", "slack1d"))
    p.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, fields, files, echo = args.func(args)
        report = "".join(f"{key} = {value!r}\n" if isinstance(value, float)
                         else f"{key} = {value}\n"
                         for key, value in [("command", args.subcommand),
                                            *fields])
        if args.out:
            write_atomic(os.path.join(args.out,
                                      f"{args.subcommand}-report.txt"), report)
            for name, text in files.items():
                write_atomic(os.path.join(args.out, name), text)
    except (OSError, KeyError, ValueError, GroveError) as exc:
        sys.stderr.write(f"grovekit: {exc}\n")
        return EXIT_USAGE
    except (VariationalError, infotheory.InfoError) as exc:
        sys.stderr.write(f"grovekit: {exc}\n")
        return EXIT_FAILURE
    try:
        sys.stdout.write(report + _listing(echo))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early: not an error of this run.  Later
        # writes, including the interpreter's flush at exit, go nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
