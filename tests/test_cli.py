import io
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grovekit import cli, regsim
from grovekit.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from grovekit.infotheory import MAX_GRID_CELLS
from grovekit.model import EXCLUSION_RULES
from grovekit.regsim import (DEFAULT_SEEDS, EVENT_KINDS, MAX_AGENT_ROUNDS,
                             MAX_ROUNDS, PolicySpec, load_scenario,
                             mean_welfare)
from grovekit.variational import MAX_GEODESIC_STEPS, MAX_METRIC_DIMENSION

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
    code, out, _ = run(capsys, "verify", "--table", "2", "--entry27-as-printed")
    assert code == EXIT_OK
    assert "exact = True" in out


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


def test_critical_quadratic(capsys, tmp_path):
    config = tmp_path / "crit.txt"
    config.write_text("functional = quadratic\ncenter = 1.5,-0.5\n")
    code, out, _ = run(capsys, "critical", "--config", str(config),
                       "--out", str(tmp_path))
    assert code == EXIT_OK
    assert "converged = True" in out
    assert (tmp_path / "critical-trace.csv").exists()


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
    assert code == EXIT_USAGE
    assert out == ""
    assert "not 'fixed'" in err


def test_simulate_rejects_invalid_fixed_law(capsys, tmp_path):
    scenario = tmp_path / "bad-law.txt"
    scenario.write_text("policy.family = fixed\npolicy.theta = -1,0,1,1\n")
    code, out, err = run(capsys, "simulate", "--rounds", "0",
                         "--config", str(scenario))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "grovekit: permit cap must be nonnegative\n"


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
    if code == EXIT_USAGE:
        assert out == ""


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


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(NUMERICS_KEYS)), data=st.data())
def test_fuzzed_numerics_configs_keep_the_exit_contract(command, data):
    keys = data.draw(st.sets(st.sampled_from(NUMERICS_KEYS[command]),
                             min_size=1))
    values = {key: data.draw(NUMERICS_VALUES.get(key, _number))
              for key in sorted(keys)}
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.txt")
        with open(path, "w") as handle:
            handle.write(text)
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, "--config", path])
    assert_exit_contract(code, out.getvalue(), err.getvalue(), caught)


#: what the scenario fuzz draws values, event rounds and event kinds from
FUZZ_VALUES = ("nan", "inf", "-1", "0", "1e18", "1e19", "1e200",
               "1000000000000000000", "x", "")
FUZZ_ROUNDS = ("-3", "0", "5", "19", "20", "1000000000000000000", "1e19", "x")
FUZZ_KINDS = EVENT_KINDS + ("meteor",)


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
    st.tuples(st.sampled_from(("0", "1", "2")), st.booleans()).map(
        lambda tp: ["verify", "--table", tp[0]]
        + ["--entry27-as-printed"] * tp[1]),
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
    assert err == (f"grovekit: at most {MAX_ROUNDS} rounds, "
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
    assert err == (f"grovekit: at most {MAX_AGENT_ROUNDS} agent-rounds, "
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
])
def test_scenario_parse_error_names_key_and_value(capsys, tmp_path, text,
                                                  message):
    code, out, err = run_config(capsys, tmp_path, "simulate", text + "\n")
    assert (code, out, err) == (EXIT_USAGE, "",
                                f"grovekit: scenario: {message}\n")


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
def test_geodesic_step_size_is_a_computation_failure(capsys, tmp_path, text):
    code, out, err = run_config(capsys, tmp_path, "geodesic", text)
    assert code == EXIT_FAILURE
    assert err == ""
    assert out.splitlines()[-1] == "error = step h must be finite and > 0"


def test_geodesic_step_count_above_the_bound_is_a_computation_failure(
        capsys, tmp_path):
    code, out, err = run_config(capsys, tmp_path, "geodesic",
                                "steps = 1000000000000000000\n")
    assert (code, err) == (EXIT_FAILURE, "")
    assert out.splitlines()[-1] == (
        f"error = at most {MAX_GEODESIC_STEPS} steps, "
        f"got 1000000000000000000")


@pytest.mark.parametrize("dimension", [MAX_METRIC_DIMENSION + 1, 3000])
def test_geodesic_dimension_above_the_bound_is_a_computation_failure(
        capsys, tmp_path, dimension):
    code, out, err = run_config(capsys, tmp_path, "geodesic",
                                f"dimension = {dimension}\nsteps = 1\n")
    assert (code, out) == (EXIT_FAILURE, "")
    assert err == (f"grovekit: at most {MAX_METRIC_DIMENSION} metric "
                   f"dimensions, got {dimension}\n")


@pytest.mark.parametrize("text", ["velocity = nan,1\n",
                                  "start = 0,inf\n",
                                  "metric = sphere\nvelocity = inf,0\n"],
                         ids=["velocity-nan", "start-inf", "sphere-velocity-inf"])
def test_geodesic_non_finite_start_or_velocity_is_a_computation_failure(
        capsys, tmp_path, text):
    code, out, err = run_config(capsys, tmp_path, "geodesic", text)
    assert code == EXIT_FAILURE
    assert err == ""
    assert out.splitlines()[-1].startswith(
        "error = start and velocity must be finite")


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
    assert err == ("grovekit: info: scale must be > 0 with 1/scale^2 finite "
                   "and nonzero, got 1e+200\n")


@pytest.mark.parametrize("samples", ["100000", "1000000000"])
def test_info_grid_too_large_is_a_failure(capsys, tmp_path, samples):
    code, out, err = run_config(capsys, tmp_path, "info",
                                f"samples = {samples}\n")
    assert (code, out) == (EXIT_FAILURE, "")
    assert err.startswith("grovekit: grid of shape ")
    assert err.endswith(f" cells, more than {MAX_GRID_CELLS}\n")
    assert err.count("\n") == 1


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
     "table2_entry27_as_printed must be one of"),
    ("caps.3 = 1,1,1,1,1\n", "caps given for unsupported depths [3]"),
    ("caps.1 = 2,1,-5\n", "caps for depth 1 must be >= 0"),
    ("caps.1 = 2,1,1\ncaps.01 = 0,0,0\n", "caps for depth 1 given twice"),
]


@pytest.mark.parametrize("text,message", BAD_MODEL_FILES,
                         ids=["bad-boolean", "unused-depth", "negative-cap",
                              "repeated-depth"])
def test_bad_model_value_is_usage_error(capsys, tmp_path, text, message):
    model = tmp_path / "model.txt"
    model.write_text(text)
    code, out, err = run(capsys, "enumerate", "--depth", "1", "--model",
                         str(model))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("grovekit: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("word,printed", [("TRUE", True), ("Yes", True),
                                          ("1", True), ("no", False),
                                          ("False", False), ("0", False)])
def test_model_boolean_spellings(capsys, tmp_path, word, printed):
    model = tmp_path / "model.txt"
    model.write_text(f"table2_entry27_as_printed = {word}\n")
    code, out, _ = run(capsys, "verify", "--table", "2", "--model", str(model))
    assert code == EXIT_OK
    assert f"exact = {printed}" in out


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
    config, _, order, events = load_scenario(shocked)
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
