"""Smoke runs of the scripts under scripts/, which read library types."""

import importlib.util
import shutil
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


def test_mutate_tolerances_lists_code_sites_only(capsys):
    """Each listed site is a tolerance literal, or a tolerance name in use,
    on a code line; by default every module under src/plpareto/ is read.
    (The script runs this test on mutants too, so it asks nothing of a
    literal that a mutant may change.)"""
    module = _load("mutate_tolerances")
    assert module.main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    names, paths = set(), set()
    for line in lines:
        site, token = line.split()
        path, row, col = site.split(":")
        paths.add(path)
        if token[0].isdigit():
            assert float(token) in {10.0 ** -n for n in range(6, 19)}
        else:
            names.add(token)
        text = (SCRIPTS.parent / path).read_text().splitlines()[int(row) - 1]
        assert text[int(col) - 1:].startswith(token)
        assert int(col) > 1 and "#" not in text[:int(col) - 1] and '"""' not in text
        assert not text.lstrip().startswith(("import ", "from "))
    assert {"FEAS_SLACK", "LEVEL_TIE", "SLOPE_TOL"} <= names
    every = sorted(f"src/plpareto/{p.name}" for p in (SCRIPTS.parent / "src" / "plpareto").glob("*.py"))
    assert module.MODULES == every
    assert {"src/plpareto/advice.py", "src/plpareto/engine.py", "src/plpareto/region.py"} <= paths


def test_mutate_tolerances_finds_every_magnitude(tmp_path, capsys):
    """Each power of ten from 1e-6 down is a site, larger or other literals
    are not, nor is a parameter's default on a def line."""
    (tmp_path / "scripts").mkdir()
    shutil.copy(SCRIPTS / "mutate_tolerances.py", tmp_path / "scripts")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "toy.py").write_text(
        "TINY = 1e-18\n"
        "def f(x, eps=1e-6,\n      cap=1e-7):\n"
        "    return [x > 1e-6, x > 1e-7, x > 1e-10, x > 1e-14, x > 1e-18, x > TINY,\n"
        "            x > 1e-5, x > 5e-10, x > 2e-15, x > 1_000, x > 0.0]\n"
    )
    script = importlib.util.spec_from_file_location("toy_mutate", tmp_path / "scripts" / "mutate_tolerances.py")
    module = importlib.util.module_from_spec(script)
    script.loader.exec_module(module)
    assert module.main(["--list", "src/toy.py"]) == 0
    assert [line.split()[1] for line in capsys.readouterr().out.splitlines()] == [
        "1e-18", "1e-6", "1e-7", "1e-10", "1e-14", "1e-18", "TINY"]


def test_mutate_tolerances_verdicts(tmp_path, capsys):
    """In a small repo of their own, the literals in a docstring and a comment
    and a tolerance name's definition are not sites; of the three
    sites two are killed, each naming its first failing test, and one
    survives."""
    (tmp_path / "scripts").mkdir()
    shutil.copy(SCRIPTS / "mutate_tolerances.py", tmp_path / "scripts")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "toy.py").write_text(
        '"""A docstring that quotes 1e-9."""\n'
        "SLACK = 1e-9  # a comment that quotes 1e-12\n"
        "UNUSED = 2 * 1e-12\n"
        "HALF = SLACK / 2\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(
        "from toy import HALF, SLACK\n\n\ndef test_slack():\n    assert SLACK > 0\n\n\n"
        "def test_half():\n    assert HALF > 0\n"
    )
    script = importlib.util.spec_from_file_location("toy_mutate", tmp_path / "scripts" / "mutate_tolerances.py")
    module = importlib.util.module_from_spec(script)
    script.loader.exec_module(module)
    assert module.main(["--list", "src/toy.py"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "src/toy.py:2:9 1e-9", "src/toy.py:3:14 1e-12", "src/toy.py:4:8 SLACK"]
    assert module.main(["src/toy.py"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "src/toy.py:2:9 killed tests/test_toy.py::test_slack",
        "src/toy.py:3:14 survived",
        "src/toy.py:4:8 killed tests/test_toy.py::test_half",
        "3 sites: 2 killed, 1 survived",
    ]
