import json

import pytest

from plpareto.cli import main, read_pl_csv, write_pl_csv
from plpareto import PLFunction, Rewards


@pytest.fixture
def diff_region_file(tmp_path):
    path = tmp_path / "diff.json"
    path.write_text(json.dumps({
        "type": "polygon",
        "vertices": [[4, 4], [16, 16], [11, 16], [4, 9]],
    }))
    return str(path)


def test_cstar_bisect(diff_region_file, capsys):
    assert main(["cstar", "--region", diff_region_file, "--epsilon", "1e-8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("c_star=")
    assert abs(float(out.split()[0].split("=")[1]) - 10 / 11) < 1e-7


def test_cstar_enum(diff_region_file, capsys):
    assert main(["cstar", "--region", diff_region_file, "--method", "enum"]) == 0
    out = capsys.readouterr().out
    assert abs(float(out.split()[0].split("=")[1]) - 10 / 11) < 1e-8


def test_pareto_writes_policy(diff_region_file, tmp_path, capsys):
    out_csv = tmp_path / "pl.csv"
    rc = main(["pareto", "--region", diff_region_file,
               "--consistency", "0.8", "--out", str(out_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "r_star=0.575000000" in out
    pl, rw, x_bar = read_pl_csv(str(out_csv))
    assert rw.m == 20.0 and x_bar == 16.0
    assert pl(0.0) == pytest.approx(10.8, abs=1e-9)
    assert pl(20.0) == pytest.approx(8.5, abs=1e-9)


def test_pareto_infeasible_exit_code(diff_region_file):
    assert main(["pareto", "--region", diff_region_file, "--consistency", "0.95"]) == 3


def test_pareto_missing_consistency(diff_region_file):
    assert main(["pareto", "--region", diff_region_file]) == 2


def test_curve_marks_infeasible(diff_region_file, tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["curve", "--region", diff_region_file, "--c-min", "0.6",
               "--c-max", "0.99", "--steps", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "C,r_star"
    assert len(lines) == 6
    assert lines[-1].endswith("infeasible")
    assert "infeasible" not in lines[1]


def test_ellipse_and_point_regions(tmp_path, capsys):
    ell = tmp_path / "ell.json"
    ell.write_text(json.dumps({
        "type": "ellipse", "center": [12, 12],
        "shape": [[2, 0], [0, 2]], "segments": 32,
    }))
    assert main(["cstar", "--region", str(ell)]) == 0
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps({"type": "point", "at": [12, 6]}))
    assert main(["cstar", "--region", str(pt), "--method", "enum"]) == 0
    out = capsys.readouterr().out.splitlines()[-1]
    assert abs(float(out.split()[0].split("=")[1]) - 1.0) < 1e-8


def test_bad_region_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["cstar", "--region", str(bad)]) == 2
    bad.write_text(json.dumps({"type": "triangle"}))
    assert main(["cstar", "--region", str(bad)]) == 2
    capsys.readouterr()


def test_validate_roundtrip(tmp_path, capsys):
    rw = Rewards(1.0 / 3.0, 1.0, 20.0)
    good = tmp_path / "good.csv"
    write_pl_csv(PLFunction(((0.0, 10.8), (16.0, 10.8), (20.0, 8.5))), rw, str(good))
    assert main(["validate", str(good)]) == 0
    assert "valid" in capsys.readouterr().out
    bad = tmp_path / "bad.csv"
    write_pl_csv(PLFunction(((0.0, 25.0), (20.0, 25.0))), rw, str(bad))
    assert main(["validate", str(bad)]) == 4
    assert "RangeViolation" in capsys.readouterr().out


def test_simulate_json_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "m": 20.0, "r_low": 1 / 3, "r_high": 1.0,
        "model": {"kind": "uniform-mixture"},
        "advice_kind": "none", "K": 2, "n_test": 10,
    }))
    out = tmp_path / "rep.json"
    rc = main(["simulate", "--config", str(cfg), "--seed", "5",
               "--out", str(out), "--format", "json"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["n_trials"] == 2
    assert payload["config"]["seed"] == 5
    assert 0.6 - 1e-9 <= payload["worst_cp"] <= 1.0
    capsys.readouterr()


@pytest.mark.parametrize("bad", [{"n_test": 0}, {"n_perms": 0, "order": "stochastic"},
                                 {"epsilon": 0.0}])
def test_simulate_bad_config_values_exit_code(tmp_path, capsys, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "m": 20.0, "r_low": 1 / 3, "r_high": 1.0, "advice_kind": "none", "K": 1, **bad,
    }))
    assert main(["simulate", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_cstar_zero_epsilon_exit_code(diff_region_file, capsys):
    assert main(["cstar", "--region", diff_region_file, "--epsilon", "0"]) == 2
    assert "epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pareto", "--consistency", "1.5"],
    ["pareto", "--consistency", "nan"],
    ["curve", "--c-max", "1.2", "--steps", "3"],
])
def test_target_outside_unit_interval_exit_code(diff_region_file, capsys, argv):
    assert main([argv[0], "--region", diff_region_file, *argv[1:]]) == 2
    assert "outside [0, 1]" in capsys.readouterr().err


def test_validate_non_finite_csv_exit_code(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("# m=20.0 r_low=0.3333333333333333 r_high=1.0\nx,p\nnan,nan\n")
    assert main(["validate", str(path)]) == 2
    assert "valid" not in capsys.readouterr().out


def test_cstar_infinite_capacity_exit_code(diff_region_file, capsys):
    # an infinite capacity used to hang the bisection; the alarm cuts a hang
    import signal

    def expired(signum, frame):
        raise TimeoutError("plpareto cstar --m inf ran past its wall-time bound")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        rc = main(["cstar", "--region", diff_region_file, "--m", "inf"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def test_simulate_zero_trials_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "m": 20.0, "r_low": 1 / 3, "r_high": 1.0, "advice_kind": "none", "K": 0,
    }))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "avg_cp" not in capsys.readouterr().out


def test_pareto_internal_error_exit_code(diff_region_file, monkeypatch, capsys):
    import plpareto.pareto as pareto

    real = pareto._left_part

    def skewed(ctx, p_r):
        bps, r_left, inf_over = real(ctx, p_r)
        return bps, r_left - 0.01, inf_over

    monkeypatch.setattr(pareto, "_left_part", skewed)
    assert main(["pareto", "--region", diff_region_file, "--consistency", "0.8"]) == 2
    assert "r_star" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, flag", [
    (cmd, flag) for cmd in ("cstar", "pareto", "curve")
    for flag in (["--seed", "3"], ["--format", "json"])
] + [("cstar", ["--out", "x.csv"])])
def test_flags_without_effect_are_rejected(
    diff_region_file, tmp_path, monkeypatch, capsys, cmd, flag
):
    monkeypatch.chdir(tmp_path)
    args = [cmd, "--region", diff_region_file]
    if cmd == "pareto":
        args += ["--consistency", "0.8"]
    with pytest.raises(SystemExit) as exc:
        main(args + flag)
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()
    capsys.readouterr()
