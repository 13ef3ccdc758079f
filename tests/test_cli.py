import json
import time
import warnings

import pytest

from plpareto.cli import MAX_STEPS, load_region, main, read_pl_csv, write_pl_csv
from plpareto import PLFunction, Rewards, cstar_bisection


@pytest.fixture
def diff_region_file(tmp_path):
    path = tmp_path / "diff.json"
    path.write_text(json.dumps({
        "type": "polygon",
        "vertices": [[4, 4], [16, 16], [11, 16], [4, 9]],
    }))
    return str(path)


def test_cstar_bisect(diff_region_file, capsys):
    # the bisection is the library's test oracle for the CLI's enumeration
    assert main(["cstar", "--region", diff_region_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("c_star=")
    region = load_region(diff_region_file)
    oracle = cstar_bisection(region, Rewards(1.0 / 3.0, 1.0, 20.0), 1e-8).c_star
    assert abs(float(out.split()[0].split("=")[1]) - oracle) < 1e-7


def test_cstar_enum(diff_region_file, capsys):
    assert main(["cstar", "--region", diff_region_file]) == 0
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


def test_pareto_policy_with_a_micro_segment_cone_validates(tmp_path, capsys):
    # the floor's cone over a 2.9e-8-wide segment fell faster than slope -1
    # and validate exited 4
    region = tmp_path / "micro.json"
    region.write_text(json.dumps({"type": "polygon", "vertices": [
        [1.377950952722521e-07, 20.00000023103635], [5.000000078719275, 1.9550582783310235e-08],
        [20.000000047637673, 1.2926461227593415e-07], [5.0, 20.00000006635352]]}))
    out_csv = tmp_path / "pl.csv"
    assert main(["pareto", "--region", str(region), "--consistency", "0.85",
                 "--out", str(out_csv)]) == 0
    capsys.readouterr()
    assert main(["validate", str(out_csv)]) == 0
    assert capsys.readouterr().out.strip() == "valid"


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
    assert main(["cstar", "--region", str(pt)]) == 0
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


@pytest.mark.parametrize("bad", [{"n_samples": True}, {"K": True}, {"n_test": True},
                                 {"seed": False}, {"n_perms": True, "order": "stochastic"}])
def test_simulate_boolean_counts_exit_code(tmp_path, capsys, bad):
    # JSON true is a bool, and a bool is an Integral: "n_samples": true died
    # with a TypeError traceback (exit 1) and "K": true ran one trial
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "m": 20.0, "r_low": 1 / 3, "r_high": 1.0, "advice_kind": "box", "K": 1, **bad,
    }))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_simulate_too_many_chunks_exit_code(tmp_path, capsys):
    # stochastic replay of demand around 1e9 would split each point into a
    # billion unit chunks; the engine refuses it before allocating them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "m": 20.0, "r_low": 1 / 3, "r_high": 1.0, "model": {"main_high": 1e9},
        "advice_kind": "none", "order": "stochastic", "K": 1, "n_test": 5,
    }))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "MAX_CHUNKS" in capsys.readouterr().err


@pytest.mark.parametrize("model", [{"main_high": 5.0}, {"main_low": -1.7e308, "main_high": 1.7e308}])
def test_simulate_bad_demand_range_exit_code(tmp_path, capsys, model):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "m": 20.0, "r_low": 1 / 3, "r_high": 1.0, "model": model, "advice_kind": "none", "K": 1,
    }))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "low <= high" in capsys.readouterr().err


def test_cstar_defaults_to_exact_enumeration(diff_region_file, capsys):
    assert main(["cstar", "--region", diff_region_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("c_star=0.909090909 method=enum ")
    assert "n_checks=1" in out


@pytest.mark.parametrize("targets", [["--c-min=nan"], ["--c-max=inf"],
                                     ["--c-min=-inf", "--c-max=0.9"]])
def test_curve_non_finite_targets_exit_code(diff_region_file, capsys, targets):
    # rejected before np.linspace, which warns on them
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["curve", "--region", diff_region_file, *targets]) == 2
    assert "finite" in capsys.readouterr().err


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
] + [("cstar", ["--out", "x.csv"]), ("cstar", ["--method", "bisect"]),
      ("cstar", ["--epsilon", "1e-6"])])
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


def test_oversized_ellipse_exit_code_without_building(tmp_path, capsys, monkeypatch):
    import plpareto.region as region
    from plpareto.region import MAX_SEGMENTS

    def unreachable(*a):
        raise AssertionError("polygon built")

    monkeypatch.setattr(region, "build_polygon", unreachable)
    ell = tmp_path / "ell.json"
    for segments in (MAX_SEGMENTS + 1, 4 * MAX_SEGMENTS):
        ell.write_text(json.dumps({
            "type": "ellipse", "center": [12, 12], "shape": [[2, 0], [0, 2]],
            "segments": segments,
        }))
        assert main(["cstar", "--region", str(ell)]) == 2
        assert "segments" in capsys.readouterr().err


@pytest.mark.parametrize("segments", [64.9, "64"])
def test_non_integer_segments_exit_code(tmp_path, capsys, segments):
    # the count is checked as given, as simulate checks it, not truncated
    ell = tmp_path / "ell.json"
    ell.write_text(json.dumps({
        "type": "ellipse", "center": [12, 12], "shape": [[2, 0], [0, 2]], "segments": segments,
    }))
    assert main(["cstar", "--region", str(ell)]) == 2
    assert "segments" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    b"\xff\xfe{", b'{"type": "polygon", "vertices": [[1' + b"0" * 400 + b', 2]]}',
    b'{"type": "ellipse", "center": [12, 12], "shape": [[2, 0], [0, 2]], "segments": 1e400}',
])
def test_unreadable_region_values_exit_code(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    assert main(["cstar", "--region", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", [b"[1, 2]", b'"config"', b"\xff\xfe{"])
def test_simulate_config_not_an_object_exit_code(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    assert main(["simulate", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_validate_undecodable_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"# m=20\n\xff\xfe,1\n")
    assert main(["validate", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_curve_without_steps_exit_code(diff_region_file, capsys, steps):
    assert main(["curve", "--region", diff_region_file, "--steps", steps]) == 2
    assert "--steps" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [str(MAX_STEPS + 1), "1000000000000"])
def test_curve_too_many_steps_exit_code(diff_region_file, capsys, steps):
    # rejected before the targets are allocated or any Pareto solve runs
    start = time.perf_counter()
    assert main(["curve", "--region", diff_region_file, "--steps", steps]) == 2
    assert time.perf_counter() - start < 2.0
    assert "--steps" in capsys.readouterr().err


STRADDLING_PL = "# m=20.0 r_low=0.3333333333333333 r_high=1.0 x_bar={}\nx,p\n0.0,15.0\n100.0,5.0\n"


def test_validate_sloped_segment_past_the_tail_exit_code(tmp_path, capsys):
    # the segment starts before max(m, x_bar) = 30 and ends past it
    path = tmp_path / "straddle.csv"
    path.write_text(STRADDLING_PL.format("30"))
    assert main(["validate", str(path)]) == 4
    assert "TailViolation" in capsys.readouterr().out


@pytest.mark.parametrize("x_bar", ["inf", "nan", "-5"])
def test_validate_bad_header_x_bar_exit_code(tmp_path, capsys, x_bar):
    # inf made the tail cut inf and nan was dropped by max(m, nan): both
    # turned the tail check off
    path = tmp_path / "pl.csv"
    path.write_text(STRADDLING_PL.format(x_bar))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert "x_bar" in captured.err and "valid" not in captured.out


@pytest.mark.parametrize("argv", [
    ["pareto", "--region", "<region>", "--consistency", "0.8"],
    ["curve", "--region", "<region>", "--steps", "2"],
    ["simulate", "--config", "<config>"],
])
def test_unwritable_out_exit_code(diff_region_file, tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "m": 20.0, "r_low": 1 / 3, "r_high": 1.0, "advice_kind": "none", "K": 1, "n_test": 5,
    }))
    out = tmp_path / "missing" / "out.csv"
    files = {"<region>": diff_region_file, "<config>": str(cfg)}
    assert main([files.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, compute", [
    (["pareto", "--region", "<region>", "--consistency", "0.8"], "solve_pareto"),
    (["curve", "--region", "<region>", "--steps", "2"], "tradeoff_curve"),
    (["simulate", "--config", "<config>"], "run_experiment"),
], ids=["pareto", "curve", "simulate"])
def test_unwritable_out_is_found_before_the_computation(
        diff_region_file, tmp_path, capsys, monkeypatch, argv, compute):
    # simulate ran every trial and printed avg_cp before it found that
    # --out could not be written
    import plpareto.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError(f"{compute} reached")

    monkeypatch.setattr(cli, compute, unreachable)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "m": 20.0, "r_low": 1 / 3, "r_high": 1.0, "advice_kind": "none", "K": 1, "n_test": 5,
    }))
    out = tmp_path / "missing" / "out.csv"
    files = {"<region>": diff_region_file, "<config>": str(cfg)}
    assert main([files.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write {out}" in captured.err
    assert captured.out == ""


def test_failed_command_leaves_out_untouched(diff_region_file, tmp_path):
    # the early check opens --out without truncating it or leaving a new file
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_bytes(b"x,p\n0.0,1.5\n")
    for out in (kept, fresh):
        argv = ["pareto", "--region", diff_region_file, "--consistency", "0.95", "--out", str(out)]
        assert main(argv) == 3
    assert kept.read_bytes() == b"x,p\n0.0,1.5\n"
    assert not fresh.exists()
