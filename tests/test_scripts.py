"""Smoke runs of the scripts under scripts/, which read library types."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_tradeoff_demo(capsys):
    assert _load("sweep_tradeoff").main(["--demo", "diff", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "C*=0.909090909" in out
    assert len(out.strip().splitlines()) == 2 + 3


def test_run_benchmarks_small(capsys):
    assert _load("run_benchmarks").main(["--k", "2", "--n-test", "5"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    assert [r.split()[0] for r in rows] == ["none", "box", "ellipse", "point", "grid"]
    for row in rows:
        avg, worst = (float(v) for v in row.split()[1:3])
        assert 0.0 <= worst <= avg <= 1.0
