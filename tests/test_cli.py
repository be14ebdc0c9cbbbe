import argparse
import io
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grovekit import cli, regsim
from grovekit.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from grovekit.enumeration import MAX_GROVES
from grovekit.infotheory import MAX_GRID_CELLS
from grovekit.model import EXCLUSION_RULES
from grovekit.regsim import (DEFAULT_SEEDS, EVENT_KINDS, MAX_AGENT_ROUNDS,
                             MAX_ROUNDS, PolicySpec, load_scenario,
                             mean_welfare)
from grovekit.variational import (MAX_GEODESIC_STEPS, MAX_LEVER_DIMENSION,
                                  Functional, VariationalError,
                                  euclidean_metric, integrate_geodesic,
                                  solve_critical)

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read(path):
    with open(path) as handle:
        return handle.read()


def test_enumerate_depth_zero(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--depth", "0",
                       "--out", str(tmp_path))
    assert code == EXIT_OK
    listed = read(tmp_path / "enumerate-list.txt").splitlines()
    assert len(listed) == 3
    assert "count = 3" in read(tmp_path / "enumerate-report.txt")


def test_enumerate_depth_one_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--depth", "1")
    assert code == EXIT_OK
    assert "count = 11" in out


def test_verify_tables(capsys):
    assert run(capsys, "verify", "--table", "0")[0] == EXIT_OK
    assert run(capsys, "verify", "--table", "1")[0] == EXIT_OK
    code, out, _ = run(capsys, "verify", "--table", "2")
    assert code == EXIT_OK
    assert "exact = False" in out


def test_verify_diff_is_sorted_by_rendered_form(capsys, tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("exclusions =\n")
    code, out, err = run(capsys, "verify", "--table", "2", "--model",
                         str(model), "--out", str(tmp_path / "out"))
    assert code == EXIT_FAILURE
    assert err == ""
    diff = [ln for ln in out.splitlines()
            if ln.startswith(("missing: ", "extra: "))]
    extra = [ln for ln in diff if ln.startswith("extra: ")]
    assert len(extra) >= 2
    assert extra == sorted(extra)
    assert read(tmp_path / "out" / "verify-diff.txt").splitlines() == diff


@pytest.mark.parametrize("argv", [["enumerate", "--depth", "2"],
                                  ["enumerate", "--partition", "3,1",
                                   "--unpruned"]],
                         ids=["depth-2", "unpruned-3-1"])
def test_enumerate_bytes_do_not_follow_the_hash_seed(argv, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(
            [sys.executable, "-m", "grovekit.cli", *argv, "--out", str(out)],
            env=env, capture_output=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        outputs.append((done.stdout, done.stderr,
                        (out / "enumerate-list.txt").read_bytes()))
    assert outputs[0] == outputs[1]


#: subcommand, flag pairs the parser rejects because the command reads no
#: such file
IGNORED_FLAGS = ([(cmd, "--model") for cmd in ("situations", "info",
                                               "critical", "geodesic",
                                               "simulate", "optimize")]
                 + [(cmd, "--config") for cmd in ("enumerate", "verify",
                                                  "situations")])


@pytest.mark.parametrize("command,flag", IGNORED_FLAGS,
                         ids=lambda v: v.lstrip("-"))
def test_flag_the_command_ignores_is_usage_error(capsys, command, flag):
    argv = [command, flag, "/nonexistent/file.txt"]
    if command == "verify":
        argv += ["--table", "0"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("depth", ["0", "2"])
def test_enumerate_depth_and_partition_are_exclusive(capsys, depth):
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--depth", depth, "--partition", "3,1"])
    assert err.value.code == EXIT_USAGE
    assert "not allowed with argument" in capsys.readouterr().err


#: each --partition that enumerate refuses, with the reason it gives
PARTITION_FAULTS = {"": "expected integers separated by commas",
                    "x": "expected integers separated by commas",
                    "2,,1": "expected integers separated by commas",
                    "1,2": "partition parts must be non-increasing",
                    "0": "partition parts must be positive",
                    "4": "unsupported depth 3; shipped build caps at 2"}


@pytest.mark.parametrize("partition", PARTITION_FAULTS)
def test_unparsable_partition_names_the_flag(capsys, partition):
    code, out, err = run(capsys, "enumerate", "--partition", partition)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: enumerate: --partition = {partition!r}: "
                   f"{PARTITION_FAULTS[partition]}\n")


@pytest.mark.parametrize("argv", [["--unpruned"],
                                  ["--depth", "1", "--unpruned"]],
                         ids=["alone", "with-depth"])
def test_unpruned_without_partition_is_a_usage_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, "enumerate", *argv, "--out", str(tmp_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "grovekit: enumerate: --unpruned needs --partition\n"
    assert os.listdir(tmp_path) == []


def test_unpruned_partition_above_the_grove_bound_is_a_usage_error(capsys):
    code, out, err = run(capsys, "enumerate", "--partition", "3,3,3,3",
                         "--unpruned")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("grovekit: enumerate: --partition = '3,3,3,3': "
                   f"more than {MAX_GROVES} unpruned groves\n")


def test_enumerate_partition_report_has_no_depth(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--partition", "3,1",
                       "--out", str(tmp_path))
    assert code == EXIT_OK
    report = read(tmp_path / "enumerate-report.txt").splitlines()
    assert report[:5] == ["command = enumerate", "seed = None",
                          "partition = 3,1", "pruned = True", "count = 42"]
    assert not any(line.startswith("depth") for line in report)


#: command, file flag, file text, the first key the command does not read
UNREAD_KEYS = [
    ("verify", "--model", "exclusion =\nlift_cots = 2\n", "exclusion"),
    ("enumerate", "--model", "caps.1 = 2,1,1\nsamples = 3\n", "samples"),
    ("info", "--config", "scale = 1.0\nsample = 16\n", "sample"),
    ("critical", "--config", "functional = rosenbrock\ncenter = 1,1\n",
     "center"),
    ("geodesic", "--config", "metric = sphere\ndimension = 3\n",
     "dimension"),
    ("geodesic", "--config", "stepz = 10\n", "stepz"),
]


@pytest.mark.parametrize("command,flag,text,key", UNREAD_KEYS,
                         ids=lambda v: v if v.isidentifier() else "")
def test_config_key_the_command_does_not_read_is_usage_error(
        capsys, tmp_path, command, flag, text, key):
    path = tmp_path / "config.txt"
    path.write_text(text)
    argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
    if command == "verify":
        argv += ["--table", "2"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"grovekit: {path}: unknown key {key!r}\n"
    assert not (tmp_path / "out").exists()


def test_verify_bad_table_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--table", "9"])
    assert err.value.code == EXIT_USAGE
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--frobnicate"])
    assert err.value.code == EXIT_USAGE
    capsys.readouterr()


def test_situations_order_two(capsys):
    code, out, _ = run(capsys, "situations", "--order", "2")
    assert code == EXIT_OK
    assert "count = 11" in out


def test_info_matches_analytic(capsys, tmp_path):
    config = tmp_path / "info.txt"
    config.write_text("scale = 0.5\nsamples = 256\n")
    code, out, _ = run(capsys, "info", "--config", str(config),
                       "--out", str(tmp_path))
    assert code == EXIT_OK
    rel = float([ln for ln in out.splitlines()
                 if ln.startswith("relative_error")][0].split("=")[1])
    assert rel < 0.01


def test_missing_config_is_usage_error(capsys):
    code, _, err = run(capsys, "info", "--config", "/nonexistent/cfg.txt")
    assert code == EXIT_USAGE
    assert "grovekit:" in err


def test_empty_config_path_reads_as_no_file(capsys):
    default = run(capsys, "info")
    assert default[0] == EXIT_OK
    assert run(capsys, "info", "--config", "") == default


def test_readme_and_parser_name_the_same_flags():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    registered = {flag for sub in subparsers.choices.values()
                  for action in sub._actions for flag in action.option_strings}
    registered -= {"-h", "--help"}
    readme = (SRC.parent / "README.md").read_text()
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    documented -= {"--no-build-isolation"}
    assert sorted(registered - documented) == []
    assert sorted(documented - registered) == []


def test_critical_quadratic(capsys, tmp_path):
    config = tmp_path / "crit.txt"
    config.write_text("functional = quadratic\ncenter = 1.5,-0.5\n")
    code, out, _ = run(capsys, "critical", "--config", str(config),
                       "--out", str(tmp_path))
    assert code == EXIT_OK
    assert "converged = True" in out
    assert (tmp_path / "critical-trace.csv").exists()


@pytest.mark.parametrize("text", ["", "functional = rosenbrock\n"],
                         ids=["quadratic", "rosenbrock"])
def test_critical_evaluates_only_in_the_solve(capsys, tmp_path, monkeypatch,
                                              text):
    """The reported value is the solve's last; nothing is evaluated after."""
    calls, after_solve = [], []
    evaluate, solve = Functional.__call__, cli.solve_critical
    monkeypatch.setattr(Functional, "__call__", lambda self, theta: (
        calls.append(theta), evaluate(self, theta))[1])
    monkeypatch.setattr(cli, "solve_critical", lambda *a, **kw: (
        solve(*a, **kw), after_solve.append(len(calls)))[0])
    config = tmp_path / "crit.txt"
    config.write_text(text)
    assert run(capsys, "critical", "--config", str(config))[0] == EXIT_OK
    assert after_solve == [len(calls)]


def test_critical_unknown_functional(capsys, tmp_path):
    config = tmp_path / "crit.txt"
    config.write_text("functional = mystery\n")
    assert run(capsys, "critical", "--config", str(config))[0] == EXIT_USAGE


def test_geodesic_euclidean_straight_line(capsys, tmp_path):
    code, out, _ = run(capsys, "geodesic", "--out", str(tmp_path))
    assert code == EXIT_OK
    rows = read(tmp_path / "geodesic-path.csv").splitlines()[2:]
    assert len(rows) == 1001
    last = [float(v) for v in rows[-1].split(",")]
    assert abs(last[0] - 1.0) < 1e-8
    assert abs(last[1]) < 1e-8


def test_simulate_empty_horizon(capsys, tmp_path):
    code, out, _ = run(capsys, "simulate", "--rounds", "0",
                       "--out", str(tmp_path))
    assert code == EXIT_OK
    assert "welfare = 0.0" in out


def test_simulate_depletes_without_law(capsys, tmp_path):
    code, out, _ = run(capsys, "simulate", "--seed", "1", "--rounds", "200",
                       "--out", str(tmp_path))
    assert code == EXIT_OK
    final = float([ln for ln in out.splitlines()
                   if ln.startswith("final_resource")][0].split("=")[1])
    assert final < 5.0


def test_outputs_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        assert run(capsys, "simulate", "--seed", "3", "--rounds", "50",
                   "--out", str(out_dir))[0] == EXIT_OK
    for name in os.listdir(a):
        assert read(a / name) == read(b / name)


def test_no_stray_temp_files(capsys, tmp_path):
    run(capsys, "enumerate", "--depth", "0", "--out", str(tmp_path))
    assert not [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]


def test_write_atomic_holds_a_slice_of_a_long_text(tmp_path):
    # 4 MiB of report lines; one write would hold all of its bytes at once
    text = "information = 0.9999999999999998\n" * (1 << 17)
    path = tmp_path / "long.txt"
    tracemalloc.start()
    try:
        cli.write_atomic(str(path), text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == text.encode()
    assert peak < 2 ** 20


def test_failed_rename_is_usage_error_and_leaves_no_temp_file(capsys,
                                                              tmp_path):
    # the report's name is taken by a directory, so only the rename fails
    (tmp_path / "situations-report.txt").mkdir()
    code, out, err = run(capsys, "situations", "--out", str(tmp_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("grovekit: ") and err.count("\n") == 1
    assert "Is a directory" in err
    assert sorted(os.listdir(tmp_path)) == ["situations-report.txt"]


def test_info_span_zero_is_a_usage_error(capsys, tmp_path):
    # an offset axis no wider than the location axis misses the kernel's
    # tails: its information was 85% off
    config = tmp_path / "info.txt"
    config.write_text("span = 0\n")
    code, out, err = run(capsys, "info", "--config", str(config),
                         "--out", str(tmp_path / "out"))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {config}: span = '0': span must be at least "
                   "4 kernel widths, got 0.0\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("family,theta,reason", [
    ("slack1d", "0.1,0.2", "slack1d family takes a single slack lever"),
    ("slack1d", "", "slack1d family takes a single slack lever"),
    ("fixed", "1.0,0.1,0.9", "fixed family takes (cap, slack, q, beta)"),
])
def test_scenario_theta_of_the_wrong_length_names_the_family(
        capsys, tmp_path, family, theta, reason):
    scenario = tmp_path / "s.txt"
    scenario.write_text(f"policy.family = {family}\npolicy.theta = {theta}\n")
    code, out, err = run(capsys, "simulate", "--config", str(scenario))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"grovekit: {scenario}: policy.family = {family!r}: {reason}\n"


def test_directory_config_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "simulate", "--config", str(tmp_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("grovekit: ")
    assert err.count("\n") == 1


def test_optimize_rejects_fixed_family(capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["optimize", "--family", "fixed"])
    assert err.value.code == EXIT_USAGE
    capsys.readouterr()

    scenario = tmp_path / "fixed.txt"
    scenario.write_text("rounds = 50\npolicy.family = fixed\n"
                        "policy.theta = 1.0,0.1,0.9,1.0\n")
    code, out, err = run(capsys, "optimize", "--config", str(scenario))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {scenario}: policy.family = 'fixed': "
                   "optimize tunes the none or slack1d family\n")


def test_simulate_rejects_invalid_fixed_law(capsys, tmp_path):
    scenario = tmp_path / "bad-law.txt"
    scenario.write_text("policy.family = fixed\npolicy.theta = -1,0,1,1\n")
    code, out, err = run(capsys, "simulate", "--rounds", "0",
                         "--config", str(scenario))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == (f"grovekit: {scenario}: policy.family = 'fixed': "
                   f"permit cap must be nonnegative\n")


SCENARIO_KEYS = ("n_agents", "capacity", "regrowth", "rounds",
                 "outside_option", "retention_weight", "inspection_cost",
                 "exit_window", "seed", "policy.family", "policy.theta",
                 "agents.order")

#: command, the keys its config file may set, and the lines every matrix
#: file starts with (a short run unless the key under test is the length)
CONFIG_KEYS = [
    ("info", "", ("scale", "samples", "span")),
    ("critical", "", ("functional", "tol", "center", "theta0")),
    ("critical", "functional = rosenbrock\n", ("theta0",)),
    ("geodesic", "steps = 20\n",
     ("metric", "steps", "h", "dimension", "start", "velocity")),
    ("geodesic", "metric = sphere\nsteps = 20\n", ("start", "velocity")),
    *[(command, "rounds = 20\n", SCENARIO_KEYS + ("event.0",))
      for command in ("simulate", "optimize")],
]
#: the values the matrix sets each key to
MATRIX_VALUES = ("nan", "inf", "-1", "0", "", "1e200", "-1e200", "1e308",
                 "-1e308")
EXIT_MATRIX = [(command, base, key, value)
               for command, base, keys in CONFIG_KEYS for key in keys
               for value in MATRIX_VALUES]


def run_config(capsys, tmp_path, command, text):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return run(capsys, command, "--config", str(path))


def assert_exit_contract(code, out, err, caught):
    # numpy's float warnings would reach a user's stderr, but never capsys
    assert [str(w.message) for w in caught] == []
    assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE)
    assert err == "" or (err.startswith("grovekit: ") and err.count("\n") == 1)
    # a value that does not parse is named, never left to Python's message
    assert "invalid literal for" not in err
    assert "could not convert string to float" not in err
    if code == EXIT_USAGE:
        assert out == ""


def names_the_file(err, path):
    """Whether ``err`` is the line of a fault in the file at ``path``: one
    of a key (``<path>: ``) or of a line (``<path>:<n>: ``)."""
    return re.match(rf"grovekit: {re.escape(str(path))}(:\d+)?: ", err)


@pytest.mark.parametrize(
    "command,base,key,value", EXIT_MATRIX,
    ids=[f"{c}{'-' + b.split()[2] if 'functional' in b or 'metric' in b else ''}"
         f"-{k}-{v or 'empty'}" for c, b, k, v in EXIT_MATRIX])
def test_every_config_value_keeps_the_exit_contract(
        capsys, tmp_path, command, base, key, value):
    # the matrix file sets the key once: a repeated key is its own case
    lines = [ln for ln in base.splitlines() if not ln.startswith(key + " ")]
    text = "".join(f"{ln}\n" for ln in lines) + f"{key} = {value}\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_config(capsys, tmp_path, command, text)
    assert_exit_contract(code, out, err, caught)


#: every key of each numerics command's config file
NUMERICS_KEYS = {
    "info": ("scale", "samples", "span"),
    "critical": ("functional", "tol", "center", "theta0"),
    "geodesic": ("metric", "steps", "h", "dimension", "start", "velocity"),
}
_number = st.sampled_from(MATRIX_VALUES + ("5e-324",))
_vector = st.lists(_number, max_size=5).map(",".join)
#: what each key draws that is not a plain number: the names, vectors,
#: and lengths kept short or past their bound, since an exit at a bound
#: needs no long run
NUMERICS_VALUES = {
    "functional": st.one_of(st.sampled_from(("quadratic", "rosenbrock")),
                            _number),
    "metric": st.one_of(st.sampled_from(("euclidean", "sphere")), _number),
    "steps": st.sampled_from(("0", "1", "20", str(MAX_GEODESIC_STEPS + 1))),
    "samples": st.sampled_from(("7", "8", "64", "16385")),
    **{key: _vector for key in ("center", "theta0", "start", "velocity")},
}


def run_config_file(command, text):
    """(code, stdout, stderr, warnings, config path) of ``command`` on a
    config file holding ``text``; a hypothesis test has no ``tmp_path``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.txt")
        with open(path, "w") as handle:
            handle.write(text)
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, "--config", path])
    return code, out.getvalue(), err.getvalue(), caught, path


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(NUMERICS_KEYS)), data=st.data())
def test_fuzzed_numerics_configs_keep_the_exit_contract(command, data):
    keys = data.draw(st.sets(st.sampled_from(NUMERICS_KEYS[command]),
                             min_size=1))
    values = {key: data.draw(NUMERICS_VALUES.get(key, _number))
              for key in sorted(keys)}
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    code, out, err, caught, path = run_config_file(command, text)
    assert_exit_contract(code, out, err, caught)
    # the file is the only input, so every usage error is its fault
    if code == EXIT_USAGE:
        assert names_the_file(err, path)


#: the values a single-key numerics file draws for each key: the refused
#: ones, and valid ones that keep every run short (a geodesic that is not
#: refused takes at most 1000 steps, and `h = 1e308` and the large vectors
#: fail within a step; an `info` grid is at most 256 samples wide)
SINGLE_KEY_VALUES = {
    "scale": ("1.0", "0.25", "2.5e107", "1e300", "1e-200", "0", "-1", "nan",
              "inf", "x"),
    "samples": ("8", "64", "7", "0", "-1", "16385", "100000", "1e3", ""),
    "span": ("0", "6", "1e300", "1e308", "-1", "nan", "inf", "x"),
    "functional": ("quadratic", "rosenbrock", "bogus", ""),
    "tol": ("1e-6", "0.5", "inf", "5e-324", "0", "-1", "nan", "x"),
    "center": ("1.5,-0.5", "2", "1,2,3", "1e200,0", "-1e308,1e308", "nan,0",
               "inf", "1,x", "", ",".join(["0"] * 65)),
    "theta0": ("1,1", "-1.2,1", "1e200,0", "1e308,-1e308", "inf,0", "nan,1",
               "1", "1,2,3", "x"),
    "metric": ("euclidean", "sphere", "torus", ""),
    "steps": ("1", "20", "50", "0", "-5", str(MAX_GEODESIC_STEPS + 1),
              "1000000000000000000", "1e3", ""),
    "h": ("0.001", "1e308", "-1e308", "0", "-1", "nan", "inf", "x"),
    "dimension": ("1", "3", str(MAX_LEVER_DIMENSION), "0",
                  str(MAX_LEVER_DIMENSION + 1), "two"),
    "start": ("0,0", "1e308,-1e308", "0", "0,0,0", "nan,0", "inf,0", "0;0"),
    "velocity": ("1,0", "0,0", "1e200,1e200", "-1,1e308", "1e308,1e308",
                 "inf,0", "0,nan", "1", ""),
}
#: the ways a geodesic run that is not refused may fail
GEODESIC_FAILURES = ("error = metric failed at step ",
                     "error = path is not finite at step ",
                     "error = energy is not finite at sample ")
#: the ways an `info` grid that is not refused may fail
INFO_FAILURES = ("grovekit: Fisher information underflows on this grid\n",
                 "grovekit: density has zero mass on the grid\n")


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(NUMERICS_KEYS)), data=st.data())
def test_single_key_numerics_files_keep_the_exit_contract(command, data):
    key = data.draw(st.sampled_from(NUMERICS_KEYS[command]))
    value = data.draw(st.sampled_from(SINGLE_KEY_VALUES[key]))
    code, out, err, caught, path = run_config_file(command,
                                                   f"{key} = {value}\n")
    assert_exit_contract(code, out, err, caught)
    if code == EXIT_USAGE:
        assert err.startswith(f"grovekit: {path}: {key} = {value!r}: ")
    elif code == EXIT_FAILURE and command == "info":
        assert out == "" and err in INFO_FAILURES
    elif code == EXIT_FAILURE and command == "critical":
        # a solve that ran and did not converge, or a start it refused
        assert ("converged = False\n" in out and err == "") or (
            out == "" and re.fullmatch(
                r"grovekit: value \S+ at theta0 is not finite\n", err))
    elif code == EXIT_FAILURE:
        assert err == ""
        assert out.splitlines()[-1].startswith(GEODESIC_FAILURES)


#: what the scenario fuzz draws values, event rounds and event kinds from
FUZZ_VALUES = ("nan", "inf", "-1", "0", "1e18", "1e19", "1e200",
               "1000000000000000000", "x", "")
FUZZ_ROUNDS = ("-3", "0", "5", "19", "20", "1000000000000000000", "1e19", "x")
FUZZ_KINDS = EVENT_KINDS + ("meteor",)
#: the start of a usage error found while an episode plays, after the file
#: was read: an event that fails or lands outside the horizon, or welfare
PLAY_FAULT = re.compile(r"grovekit: (\w+ at round -?\d+: |event at round "
                        r"-?\d+ outside|welfare is not finite: )")


@settings(max_examples=60, deadline=None)
@given(keys=st.dictionaries(st.sampled_from(SCENARIO_KEYS),
                             st.sampled_from(FUZZ_VALUES),
                             min_size=1, max_size=4),
       events=st.lists(st.tuples(st.sampled_from(FUZZ_ROUNDS),
                                 st.sampled_from(FUZZ_KINDS),
                                 st.sampled_from(FUZZ_VALUES)), max_size=2))
def test_fuzzed_scenarios_keep_the_exit_contract(keys, events):
    text = "".join(f"{key} = {value}\n" for key, value in keys.items())
    text += "".join(f"event.{n} = {','.join(event)}\n"
                    for n, event in enumerate(events))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.txt")
        with open(path, "w") as handle:
            handle.write(text)
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["simulate", "--rounds", "20", "--config", path])
    assert_exit_contract(code, out.getvalue(), err.getvalue(), caught)
    if code == EXIT_USAGE and not PLAY_FAULT.match(err.getvalue()):
        assert names_the_file(err.getvalue(), path)


#: what the --model fuzz draws keys and values from
MODEL_KEYS = ("lift_cost", "extra_arg_cost", "insert_cost", "map_subst_cost",
              "caps.0", "caps.1", "caps.2", "caps.3", "exclusions",
              "table2_entry27_as_printed", "colour")
MODEL_VALUES = ("0", "-1", "1", "2", "1,1", "3,2,1,1", "1e18",
                "1234567890123456789", "nan", "x", "",
                next(iter(EXCLUSION_RULES)))
FUZZ_PARTITIONS = ("1", "3", "2,1", "1,1,1", "3,3", "1,2", "0", "4", "x")
_model_commands = st.one_of(
    st.sampled_from(("0", "1", "2")).map(lambda d: ["enumerate", "--depth", d]),
    st.tuples(st.sampled_from(FUZZ_PARTITIONS), st.booleans()).map(
        lambda pu: ["enumerate", "--partition", pu[0]]
        + ["--unpruned"] * pu[1]),
    st.sampled_from(("0", "1", "2")).map(lambda t: ["verify", "--table", t]),
)


@settings(max_examples=60, deadline=None)
@given(argv=_model_commands,
       lines=st.lists(st.tuples(st.sampled_from(MODEL_KEYS),
                                st.sampled_from(MODEL_VALUES)), max_size=3))
def test_fuzzed_model_files_keep_the_exit_contract(argv, lines):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        with open(path, "w") as handle:
            handle.write("".join(f"{key} = {value}\n" for key, value in lines))
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([*argv, "--model", path])
    assert_exit_contract(code, out.getvalue(), err.getvalue(), caught)
    # a bad flag, such as --partition 1,2, is a fault without the file
    if code == EXIT_USAGE:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            flag_fault = main(argv) == EXIT_USAGE
        if not flag_fault:
            assert names_the_file(err.getvalue(), path)


@pytest.mark.parametrize("command,scenario,flags", [
    ("simulate", "rounds = 1000000000000000000\n", []),
    ("simulate", "rounds = 20\n", ["--rounds", "1000000000000000000"]),
    ("optimize", "rounds = 1000000000000000000\n", []),
], ids=["simulate-key", "simulate-flag", "optimize-key"])
def test_round_count_above_the_bound_is_usage_error(
        capsys, tmp_path, command, scenario, flags):
    path = tmp_path / "scenario.txt"
    path.write_text(scenario)
    code, out, err = run(capsys, command, "--config", str(path), *flags)
    assert (code, out) == (EXIT_USAGE, "")
    # a bound the file breaks names the file and key; the flag keeps its own
    where = "" if flags else f"{path}: rounds = '1000000000000000000': "
    assert err == (f"grovekit: {where}at most {MAX_ROUNDS} rounds, "
                   f"got rounds = 1000000000000000000\n")


FIXED_LAW = "policy.family = fixed\npolicy.theta = 0.4,0.1,0.9,1.0\n"


@pytest.mark.parametrize("command,scenario,value", [
    ("simulate", "retention_weight = 1e308\n", "inf"),
    ("simulate", "retention_weight = -1e308\n", "-inf"),
    ("simulate", "retention_weight = 1e308\ninspection_cost = 1e308\n"
     + FIXED_LAW, "nan"),
    ("optimize", "retention_weight = 1e308\n", "inf"),
], ids=["simulate-inf", "simulate-minus-inf", "simulate-nan", "optimize-inf"])
def test_welfare_that_is_not_finite_is_usage_error(
        capsys, tmp_path, monkeypatch, command, scenario, value):
    # optimize fails at its first episode
    episodes = []
    play = regsim.run_episode
    for module in (cli, regsim):
        monkeypatch.setattr(module, "run_episode", lambda *a, **k:
                            episodes.append(a) or play(*a, **k))
    code, out, err = run_config(capsys, tmp_path, command,
                                "rounds = 50\n" + scenario)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"grovekit: welfare is not finite: {value}\n"
    assert len(episodes) == 1


def test_agent_rounds_above_the_bound_is_usage_error(capsys, tmp_path):
    # rejected when the scenario loads, before any round is played
    code, out, err = run_config(capsys, tmp_path, "simulate",
                                "n_agents = 10000\nrounds = 100000\n")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {tmp_path / 'config.txt'}: rounds = '100000': "
                   f"at most {MAX_AGENT_ROUNDS} agent-rounds, "
                   f"got n_agents = 10000 and rounds = 100000\n")


#: scenario lines whose value does not parse
SCENARIO_PARSE_ERRORS = ["agents.order = x\n", "rounds = 1e3\n",
                         "event.0 = 1.5,null,0\n", "event.0 = 3,agent_influx\n"]
EVENT_SHAPE = ("expected round,kind,value with an integer round and a number "
               "value")


@pytest.mark.parametrize("text", [
    "rounds = 20\nexit_window = 0\n",
    "rounds = 20\ncapacity = nan\n",
    "rounds = 20\nretention_weight = inf\n",
    "rounds = 20\nseed = -1\n",
    "rounds = 20\npolicy.theta = nan\n",
    "rounds = 20\npolicy.family = slack1d\npolicy.theta = nan\n",
    "rounds = 20\nevent.0 = 5,capacity_drop,nan\n",
    "rounds = 20\nevent.0 = 5,capacity_drop,inf\n",
    "rounds = 20\nevent.0 = 5,agent_influx,inf\n",
    "rounds = 20\nevent.0 = 5,null,0\nevent.0 = 9,null,0\n",
    "rounds = 20\ninspection_cost = -1\n",
    "rounds = 20\nevent.0 = 2,agent_influx,1e19\n",
    "rounds = 20\nevent.0 = 2,agent_influx,1e18\n",
    "rounds = 20\nn_agents = 1000000000000000000\n",
    "rounds = 20\nevent.0 = -3,capacity_drop,0.5\n",
    "rounds = 20\nevent.0 = 20,capacity_drop,0.5\n",
    "rounds = 20\nevent.0 = 3,agent_influx,2.7\n",
    *SCENARIO_PARSE_ERRORS,
], ids=["exit-window-0", "capacity-nan", "retention-inf", "seed-negative",
        "theta-nan", "slack1d-theta-nan", "drop-nan", "drop-inf",
        "influx-inf", "repeated-event", "inspection-cost-negative",
        "influx-1e19", "influx-1e18", "n-agents-1e18", "event-before-round-0",
        "event-at-horizon", "influx-fraction",
        *[text.split(" =")[0] + "-unparsed" for text in SCENARIO_PARSE_ERRORS]])
def test_invalid_scenario_is_usage_error(capsys, tmp_path, text):
    code, out, err = run_config(capsys, tmp_path, "simulate", text)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("grovekit: ") and err.count("\n") == 1


@pytest.mark.parametrize("text,message", [
    ("agents.order = x", "agents.order = 'x': expected an integer"),
    ("rounds = 1e3", "rounds = '1e3': expected an integer"),
    ("capacity = lots", "capacity = 'lots': expected a number"),
    ("policy.theta = 0.2,x",
     "policy.theta = '0.2,x': expected numbers separated by commas"),
    ("event.0 = 1.5,null,0", "event.0 = '1.5,null,0': " + EVENT_SHAPE),
    ("event.0 = 3,agent_influx", "event.0 = '3,agent_influx': " + EVENT_SHAPE),
    ("event.0 = 3,flood,1", "event.0 = '3,flood,1': "
     "unknown excession kind 'flood'"),
    ("policy.family = fixed\npolicy.theta = 1,,0,1,1",
     "policy.theta = '1,,0,1,1': expected numbers separated by commas"),
    ("policy.family = slack1d\npolicy.theta = 0.2,",
     "policy.theta = '0.2,': expected numbers separated by commas"),
    ("bogus = 1", "unknown key 'bogus'"),
    ("rounds = 40\nrounds = 50", "2: repeated key 'rounds'"),
])
def test_scenario_parse_error_names_key_and_value(capsys, tmp_path, text,
                                                  message):
    code, out, err = run_config(capsys, tmp_path, "simulate", text + "\n")
    # a line-level fault names its line after the path: "<path>:2: ..."
    path = tmp_path / "config.txt"
    where = f"{path}:" if message[0].isdigit() else f"{path}: "
    assert (code, out, err) == (EXIT_USAGE, "",
                                f"grovekit: {where}{message}\n")


def test_influx_must_be_a_whole_count(capsys, tmp_path):
    code, out, err = run_config(capsys, tmp_path, "simulate",
                                "event.0 = 3,agent_influx,2.7\n")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("grovekit: agent_influx at round 3: an influx must be a "
                   "whole count, got 2.7\n")
    code, out, err = run_config(capsys, tmp_path, "simulate",
                                "rounds = 20\nevent.0 = 3,agent_influx,6.0\n")
    assert (code, err) == (EXIT_OK, "")


def test_repeated_key_names_key_and_line(capsys, tmp_path):
    code, out, err = run_config(capsys, tmp_path, "info",
                                "scale = 1.0\nsamples = 64\nscale = 2.0\n")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"grovekit: {tmp_path / 'config.txt'}:3: repeated key 'scale'\n"


def test_scenario_comment_after_a_value(capsys, tmp_path):
    code, out, err = run_config(
        capsys, tmp_path, "simulate",
        "rounds = 20  # note\ncapacity = 100.0  # note\n")
    assert (code, err) == (EXIT_OK, "")
    assert "rounds = 20\n" in out


@pytest.mark.parametrize("text", ["h = nan\n", "h = inf\n", "h = 0\n",
                                  "metric = sphere\nh = inf\n"])
def test_geodesic_step_size_is_a_usage_error(capsys, tmp_path, text):
    code, out, err = run_config(capsys, tmp_path, "geodesic", text)
    value = text.splitlines()[-1].removeprefix("h = ")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {tmp_path / 'config.txt'}: h = {value!r}: "
                   "step h must be finite and > 0\n")


def test_geodesic_step_count_above_the_bound_is_a_usage_error(
        capsys, tmp_path):
    code, out, err = run_config(capsys, tmp_path, "geodesic",
                                "steps = 1000000000000000000\n")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {tmp_path / 'config.txt'}: "
                   f"steps = '1000000000000000000': at most "
                   f"{MAX_GEODESIC_STEPS} steps, got 1000000000000000000\n")


@pytest.mark.parametrize("dimension", [MAX_LEVER_DIMENSION + 1, 3000])
def test_geodesic_dimension_above_the_bound_is_a_usage_error(
        capsys, tmp_path, dimension):
    code, out, err = run_config(capsys, tmp_path, "geodesic",
                                f"dimension = {dimension}\nsteps = 1\n")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {tmp_path / 'config.txt'}: "
                   f"dimension = '{dimension}': at most "
                   f"{MAX_LEVER_DIMENSION} lever dimensions, "
                   f"got {dimension}\n")


@pytest.mark.parametrize("command,base,key,value,expected", [
    ("info", "", "scale", "abc", "a number"),
    ("info", "", "samples", "2.5", "an integer"),
    ("info", "", "span", "6,0", "a number"),
    ("critical", "", "tol", "tight", "a number"),
    ("critical", "", "center", "1,x", "numbers separated by commas"),
    ("critical", "", "theta0", "1,,2", "numbers separated by commas"),
    ("critical", "functional = rosenbrock\n", "theta0", "",
     "numbers separated by commas"),
    ("geodesic", "", "steps", "1e3", "an integer"),
    ("geodesic", "", "h", "small", "a number"),
    ("geodesic", "", "dimension", "two", "an integer"),
    ("geodesic", "", "start", "0;0", "numbers separated by commas"),
    ("geodesic", "", "velocity", "1,o", "numbers separated by commas"),
    ("geodesic", "metric = sphere\n", "start", "pi/2,0",
     "numbers separated by commas"),
    ("geodesic", "metric = sphere\n", "velocity", "0,one",
     "numbers separated by commas"),
])
def test_unparsable_numerics_value_names_its_key(
        capsys, tmp_path, command, base, key, value, expected):
    code, out, err = run_config(capsys, tmp_path, command,
                                f"{base}{key} = {value}\n")
    if key in ("theta0", "start", "velocity"):
        # every vector of these cases takes 2 numbers
        expected = f"2 {expected}"
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {tmp_path / 'config.txt'}: {key} = {value!r}: "
                   f"expected {expected}\n")


@pytest.mark.parametrize("command,base,key,d", [
    ("critical", "center = 1,2\n", "theta0", 2),
    ("critical", "center = 1,2,3\n", "theta0", 3),
    ("critical", "functional = rosenbrock\n", "theta0", 2),
    ("geodesic", "", "start", 2),
    ("geodesic", "", "velocity", 2),
    ("geodesic", "dimension = 3\n", "start", 3),
    ("geodesic", "dimension = 3\n", "velocity", 3),
    ("geodesic", "metric = sphere\n", "start", 2),
    ("geodesic", "metric = sphere\n", "velocity", 2),
])
@pytest.mark.parametrize("count", ["short", "long"])
def test_vector_of_the_wrong_length_is_a_usage_error(
        capsys, tmp_path, command, base, key, d, count):
    entries = [0.5] * (d - 1 if count == "short" else d + 1)
    value = ",".join(map(str, entries))
    code, out, err = run_config(capsys, tmp_path, command,
                                f"{base}{key} = {value}\n")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {tmp_path / 'config.txt'}: {key} = {value!r}: "
                   f"{key} must be {d} finite numbers, got shape "
                   f"({len(entries)},)\n")


def test_long_vector_fault_stays_one_short_line(capsys, tmp_path,
                                                monkeypatch):
    # the value is quoted cut short, and the reason gives the length
    monkeypatch.chdir(tmp_path)
    Path("config.txt").write_text("theta0 = " + ",".join(["0"] * 20000))
    code, out, err = run(capsys, "critical", "--config", "config.txt")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("grovekit: config.txt: theta0 = '0,0,0,")
    assert err.endswith("...': theta0 must be 2 finite numbers, "
                        "got shape (20000,)\n")
    assert err.count("\n") == 1 and len(err.encode()) < 300


@pytest.mark.parametrize("dimension", [0, -1])
def test_geodesic_dimension_below_one_is_a_usage_error(
        capsys, tmp_path, dimension):
    code, out, err = run_config(capsys, tmp_path, "geodesic",
                                f"dimension = {dimension}\n")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {tmp_path / 'config.txt'}: "
                   f"dimension = '{dimension}': lever dimension must be >= 1, "
                   f"got {dimension}\n")


@pytest.mark.parametrize("text,key,value,entries", [
    ("velocity = nan,1\n", "velocity", "nan,1", "[nan, 1.0]"),
    ("start = 0,inf\n", "start", "0,inf", "[0.0, inf]"),
    ("metric = sphere\nvelocity = inf,0\n", "velocity", "inf,0", "[inf, 0.0]"),
], ids=["velocity-nan", "start-inf", "sphere-velocity-inf"])
def test_geodesic_non_finite_start_or_velocity_is_a_usage_error(
        capsys, tmp_path, text, key, value, entries):
    code, out, err = run_config(capsys, tmp_path, "geodesic", text)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {tmp_path / 'config.txt'}: {key} = {value!r}: "
                   f"{key} must be 2 finite numbers, got {entries}\n")


def test_critical_start_whose_value_overflows_is_a_computation_failure(
        capsys, tmp_path):
    # every centre entry is finite, but the quadratic at the default
    # theta0 = 1,1 overflows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_config(capsys, tmp_path, "critical",
                                    "center = 1e200,0\n")
    assert caught == []
    assert (code, out) == (EXIT_FAILURE, "")
    assert err == "grovekit: value inf at theta0 is not finite\n"


def _quadratic_at_origin():
    """The `critical` default functional: a quadratic centred on 0,0."""
    return Functional(lambda t: float(t @ t), 2, "quadratic")


#: command, key and value of a numerics config, and the library call that
#: refuses the same value
LIBRARY_RULES = [
    ("geodesic", "dimension", "0", lambda v: euclidean_metric(int(v))),
    ("geodesic", "dimension", "65", lambda v: euclidean_metric(int(v))),
    *[("geodesic", "steps", value, lambda v: integrate_geodesic(
        euclidean_metric(2), [0.0, 0.0], [1.0, 0.0], int(v), 0.001))
      for value in ("0", str(MAX_GEODESIC_STEPS + 1))],
    *[("geodesic", "h", value, lambda v: integrate_geodesic(
        euclidean_metric(2), [0.0, 0.0], [1.0, 0.0], 10, float(v)))
      for value in ("0", "nan", "inf")],
    *[("critical", "tol", value, lambda v: solve_critical(
        _quadratic_at_origin(), [1.0, 1.0], tol=float(v)))
      for value in ("0", "nan")],
    ("critical", "theta0", "inf,0", lambda v: solve_critical(
        _quadratic_at_origin(), [float(x) for x in v.split(",")])),
    ("geodesic", "start", "0,inf", lambda v: integrate_geodesic(
        euclidean_metric(2), [float(x) for x in v.split(",")], [1.0, 0.0],
        10, 0.001)),
]


@pytest.mark.parametrize("command,key,value,call", LIBRARY_RULES,
                         ids=[f"{k}-{v}" for _, k, v, _ in LIBRARY_RULES])
def test_cli_gives_the_library_message_for_each_range_rule(
        capsys, tmp_path, command, key, value, call):
    code, out, err = run_config(capsys, tmp_path, command,
                                f"{key} = {value}\n")
    with pytest.raises(VariationalError) as library:
        call(value)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {tmp_path / 'config.txt'}: {key} = {value!r}: "
                   f"{library.value}\n")


@pytest.mark.parametrize("text", ["velocity = 1e200,1e200\n",
                                  "metric = sphere\nvelocity = 1e200,1e200\n"],
                         ids=["euclidean", "sphere"])
def test_geodesic_overflowing_energy_is_a_computation_failure(
        capsys, tmp_path, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_config(capsys, tmp_path, "geodesic",
                                    "steps = 20\n" + text)
    assert caught == []
    assert (code, err) == (EXIT_FAILURE, "")
    assert out.splitlines()[-1] == "error = energy is not finite at sample 0"


@pytest.mark.parametrize("text,error", [
    ("h = 1e308\n", "path is not finite at step 1"),
    ("metric = sphere\nh = 1e308\n", "path is not finite at step 1"),
    ("velocity = -1,1e308\n", "path is not finite at step 0"),
    ("metric = sphere\nvelocity = -1,1e308\n",
     "metric failed at step 0: sphere metric needs a finite theta, got inf"),
], ids=["euclidean-h", "sphere-h", "euclidean-velocity", "sphere-velocity"])
def test_geodesic_that_overflows_is_a_computation_failure(
        capsys, tmp_path, text, error):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_config(capsys, tmp_path, "geodesic",
                                    "steps = 20\n" + text)
    assert caught == []
    assert (code, err) == (EXIT_FAILURE, "")
    assert out.splitlines()[-1] == f"error = {error}"


def test_info_scale_without_a_finite_square_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_config(capsys, tmp_path, "info", "scale = 1e200\n")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {tmp_path / 'config.txt'}: scale = '1e200': "
                   "must be > 0 with 1/scale^2 finite and nonzero\n")


@pytest.mark.parametrize("text,named", [
    ("scale = 1e200\nsamples = 64\n",
     "scale = '1e200': must be > 0 with 1/scale^2 finite and nonzero"),
    ("span = 3\nsamples = 4096\n",
     "span = '3': span must be at least 4 kernel widths, got 3.0"),
    ("scale = 0.001\nsamples = 512\n",
     "samples = '512': an offset cell is (2 * span * scale + 1) / samples "
     "= 0.0019765625 wide, more than scale = 0.001"),
    ("span = 1000\nscale = 2\n",
     "span = '1000': an offset cell is (2 * span * scale + 1) / samples "
     "= 15.62890625 wide, more than scale = 2.0"),
], ids=["scale", "span", "cells-samples", "cells-span"])
def test_info_fault_names_a_key_its_rule_involves(capsys, tmp_path, text,
                                                  named):
    # a rule of one key names that key; the cell rule relates all three
    # and names the last one the file gives
    code, out, err = run_config(capsys, tmp_path, "info", text)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"grovekit: {tmp_path / 'config.txt'}: {named}\n"


@pytest.mark.parametrize("text", ["span = 1000\nsamples = 4096\n",
                                  "scale = 0.001\nsamples = 2048\n"])
def test_info_cell_rule_reads_every_key_given(capsys, tmp_path, text):
    # a span or scale that 256 samples cannot resolve is fine with more
    code, out, err = run_config(capsys, tmp_path, "info", text)
    assert (code, err) == (EXIT_OK, "")
    assert float(_report(out)["relative_error"]) < 1e-6


@pytest.mark.parametrize("samples", ["256", "2048"])
@pytest.mark.parametrize("scale", ["0.5", "1.0", "2.0"])
def test_bench_info_inputs_stay_accepted(capsys, tmp_path, scale, samples):
    # the benchmark's cli-reports job draws scale from [0.5, 2] with
    # span 6.0 and 256 or 2048 samples
    code, out, err = run_config(
        capsys, tmp_path, "info",
        f"scale = {scale}\nsamples = {samples}\nspan = 6.0\n")
    assert (code, err) == (EXIT_OK, "")
    assert float(_report(out)["relative_error"]) < 0.01


@settings(max_examples=120, deadline=None)
@given(scale=st.floats(-3, 3).map(lambda e: 10.0 ** e),
       span=st.floats(0, 150), samples=st.integers(8, 256))
def test_accepted_info_configs_are_within_one_percent(scale, span, samples):
    # criterion 5's claim, 1/scale^2 within 1%, for every grid not refused
    code, out, err, caught, _ = run_config_file(
        "info", f"scale = {scale!r}\nspan = {span!r}\nsamples = {samples}\n")
    assert_exit_contract(code, out, err, caught)
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_OK:
        assert float(_report(out)["relative_error"]) < 0.01


@pytest.mark.parametrize("samples", ["100000", "1000000000"])
def test_info_grid_too_large_is_a_usage_error(capsys, tmp_path, samples):
    code, out, err = run_config(capsys, tmp_path, "info",
                                f"samples = {samples}\n")
    # the offset axis has `samples` cells and the location axis 1/16 of them
    n = int(samples)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {tmp_path / 'config.txt'}: samples = "
                   f"{samples!r}: grid of shape ({n // 16}, {n}) has "
                   f"{n // 16 * n} cells, more than {MAX_GRID_CELLS}\n")


def test_info_huge_scale_within_range_succeeds(capsys, tmp_path):
    code, out, err = run_config(capsys, tmp_path, "info", "scale = 1e100\n")
    assert (code, err) == (EXIT_OK, "")
    assert float(_report(out)["relative_error"]) < 1e-6


@pytest.mark.parametrize("scale", ["2.5e107", "1e150"])
def test_info_underflowing_fisher_sum_is_a_failure(capsys, tmp_path, scale):
    config = tmp_path / "info.txt"
    config.write_text(f"scale = {scale}\n")
    code, out, err = run(capsys, "info", "--config", str(config),
                         "--out", str(tmp_path / "out"))
    assert (code, out) == (EXIT_FAILURE, "")
    assert err == "grovekit: Fisher information underflows on this grid\n"
    assert not (tmp_path / "out" / "info-report.txt").exists()


#: --model file text and the start of the one stderr line it gives
BAD_MODEL_FILES = [
    ("table2_entry27_as_printed = ture\n",
     "table2_entry27_as_printed = 'ture': expected one of"),
    ("caps.3 = 1,1,1,1,1\n", "unknown key 'caps.3'"),
    ("caps.1 = 2,1,-5\n", "caps for depth 1 must be >= 0"),
    ("caps.1 = 2,1,1\ncaps.01 = 0,0,0\n", "unknown key 'caps.01'"),
    ("lift_cost = x\n", "lift_cost = 'x': expected an integer"),
    ("lift_cost = 1e18\n", "lift_cost = '1e18': expected an integer"),
    ("caps.1 = 2,x,1\n",
     "caps.1 = '2,x,1': expected integers separated by commas"),
    ("caps.x = 2,1,1\n", "unknown key 'caps.x'"),
]


@pytest.mark.parametrize("text,message", BAD_MODEL_FILES,
                         ids=["bad-boolean", "unused-depth", "negative-cap",
                              "repeated-depth", "cost-word", "cost-float",
                              "cap-word", "depth-word"])
def test_bad_model_value_is_usage_error(capsys, tmp_path, text, message):
    model = tmp_path / "model.txt"
    model.write_text(text)
    code, out, err = run(capsys, "enumerate", "--depth", "1", "--model",
                         str(model))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("grovekit: ") and err.count("\n") == 1
    assert message in err


#: command, the text of its input file, and the key and value whose range
#: check fails
VALUE_FAULTS = [
    ("simulate", "n_agents = 1\n", "n_agents", "1"),
    ("simulate", "agents.order = 5\n", "agents.order", "5"),
    ("simulate", "policy.family = bogus\n", "policy.family", "bogus"),
    ("simulate", "policy.family = fixed\npolicy.theta = -1,0,1,1\n",
     "policy.family", "fixed"),
    ("simulate", "n_agents = 10000\nrounds = 100000\n", "rounds", "100000"),
    ("enumerate", "lift_cost = 0\n", "lift_cost", "0"),
    ("enumerate", "exclusions = nope\n", "exclusions", "nope"),
    ("enumerate", "table2_entry27_as_printed = ture\n",
     "table2_entry27_as_printed", "ture"),
    ("critical", "functional = bogus\n", "functional", "bogus"),
    ("geodesic", "dimension = 0\n", "dimension", "0"),
    ("geodesic", "dimension = 100\n", "dimension", "100"),
    ("geodesic", "metric = torus\n", "metric", "torus"),
    ("info", "scale = 1e200\n", "scale", "1e200"),
    ("info", "samples = 7\n", "samples", "7"),
    ("info", "samples = 16385\n", "samples", "16385"),
    ("info", "span = -1\n", "span", "-1"),
    ("info", "span = nan\n", "span", "nan"),
    ("info", "span = inf\n", "span", "inf"),
    ("info", "span = 1e308\n", "span", "1e308"),
    # grids that exited 0 with a relative error of 1.53, 0.021 and 0.0083
    ("info", "span = 1000\n", "span", "1000"),
    ("info", "scale = 0.001\n", "scale", "0.001"),
    ("info", "samples = 8\n", "samples", "8"),
    ("critical", "tol = nan\n", "tol", "nan"),
    ("critical", "tol = 0\n", "tol", "0"),
    ("critical", "tol = -1\n", "tol", "-1"),
    ("geodesic", "h = 0\n", "h", "0"),
    ("geodesic", "h = nan\n", "h", "nan"),
    ("geodesic", "h = inf\n", "h", "inf"),
    ("geodesic", "steps = -5\n", "steps", "-5"),
    ("geodesic", "steps = 1000000000000000000\n", "steps",
     "1000000000000000000"),
    ("geodesic", "start = nan,0\n", "start", "nan,0"),
    ("geodesic", "velocity = inf,0\n", "velocity", "inf,0"),
    ("geodesic", "metric = sphere\nstart = inf,0\n", "start", "inf,0"),
    ("critical", "center = nan,0\n", "center", "nan,0"),
    ("critical", "theta0 = inf,0\n", "theta0", "inf,0"),
    ("critical", f"center = {','.join(['0'] * 65)}\n", "center",
     ",".join(["0"] * 65)),
    ("critical", "functional = rosenbrock\ntheta0 = nan,1\n", "theta0",
     "nan,1"),
]


@pytest.mark.parametrize("command,text,key,value", VALUE_FAULTS,
                         ids=[f"{c}-{k}-{v}" for c, _, k, v in VALUE_FAULTS])
def test_value_out_of_range_names_file_key_and_value(
        capsys, tmp_path, command, text, key, value):
    path = tmp_path / "input.txt"
    path.write_text(text)
    flag = "--model" if command == "enumerate" else "--config"
    code, out, err = run(capsys, command, flag, str(path),
                         "--out", str(tmp_path / "out"))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"grovekit: {path}: {key} = {value!r}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["enumerate", "--model"],
                                  ["info", "--config"],
                                  ["simulate", "--config"]],
                         ids=["model", "numerics", "scenario"])
def test_file_that_is_not_utf8_names_its_path(capsys, tmp_path, argv):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xferounds = 5\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"grovekit: {path}: 'utf-8' codec can't decode byte 0xff "
                   f"in position 0: invalid start byte\n")


@pytest.mark.parametrize("word,printed", [("TRUE", True), ("Yes", True),
                                          ("1", True), ("no", False),
                                          ("False", False), ("0", False)])
def test_model_boolean_spellings(capsys, tmp_path, word, printed):
    model = tmp_path / "model.txt"
    model.write_text(f"table2_entry27_as_printed = {word}\n")
    code, out, _ = run(capsys, "verify", "--table", "2", "--model", str(model))
    assert code == EXIT_OK
    assert f"entry27_as_printed = {printed}\n" in out
    assert f"exact = {printed}\n" in out


def test_empty_listings_are_empty_files(capsys, tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("caps.1 = 0,0,0\n")
    code, out, err = run(capsys, "enumerate", "--depth", "1", "--model",
                         str(model), "--out", str(tmp_path))
    assert (code, err) == (EXIT_OK, "")
    assert "count = 0\n" in out
    assert read(tmp_path / "enumerate-list.txt") == ""


def _report(out):
    return dict(ln.split(" = ", 1) for ln in out.splitlines())


def test_optimize_plays_the_scenario_events(capsys, tmp_path):
    shocked = "rounds = 40\nevent.0 = 5,capacity_drop,0.2\n"
    code, out, err = run_config(capsys, tmp_path, "optimize", shocked)
    assert (code, err) == (EXIT_OK, "")
    report = _report(out)
    config, _, order, events = load_scenario(tmp_path / "config.txt")
    assert events
    theta = (float(report["theta"]),)
    assert float(report["welfare"]) == mean_welfare(
        config, PolicySpec("slack1d", theta), DEFAULT_SEEDS, order, events)
    code, out, _ = run_config(capsys, tmp_path, "optimize", "rounds = 40\n")
    assert code == EXIT_OK
    assert _report(out)["welfare"] != report["welfare"]


def test_closed_stdout_keeps_the_exit_code(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "grovekit.cli", "enumerate", "--partition",
             "3,1", "--out", str(tmp_path)],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_OK
    assert done.stderr == b""
    assert (tmp_path / "enumerate-list.txt").read_text().count("\n") == 42


def test_the_package_runs_as_a_module(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run_module(module, *argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, timeout=120)

    listed = run_module("grovekit", "situations", "--order", "2")
    assert (listed.returncode, listed.stderr) == (EXIT_OK, b"")
    assert listed.stdout == run_module("grovekit.cli", "situations",
                                       "--order", "2").stdout
    missing = run_module("grovekit", "info", "--config",
                         str(tmp_path / "missing.txt"))
    assert (missing.returncode, missing.stdout) == (EXIT_USAGE, b"")
