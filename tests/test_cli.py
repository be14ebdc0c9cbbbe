import os

import pytest

from grovekit.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main


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
