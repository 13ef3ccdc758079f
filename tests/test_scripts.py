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
    on a code line."""
    assert _load("mutate_tolerances").main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    names = set()
    for line in lines:
        site, token = line.split()
        path, row, col = site.split(":")
        if token[0].isdigit():
            assert float(token) in (1e-9, 1e-12, 1e-15)
        else:
            names.add(token)
        text = (SCRIPTS.parent / path).read_text().splitlines()[int(row) - 1]
        assert text[int(col) - 1:].startswith(token)
        assert int(col) > 1 and "#" not in text[:int(col) - 1] and '"""' not in text
        assert not text.lstrip().startswith(("import ", "from "))
    assert {"FEAS_SLACK", "LEVEL_TIE", "SLOPE_TOL"} <= names


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
