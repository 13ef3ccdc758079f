#!/usr/bin/env python3
"""Mutation check of the tolerances in plpareto's source.

A site is one literal 1e-9, 1e-12 or 1e-15 on a code line of the given
modules (comments and docstrings are not code), or one use there of a
tolerance name: a module-level name under src/ bound to such a literal,
like SLOPE_TOL.  For each site in turn the script copies the repo to a
temporary directory, sets that literal or use to 0.0 (or multiplies it by
--scale) in the copy, and runs the tier-1 pytest command there with a fixed
hypothesis seed, stopping at the first failure.  It prints one line per
site, then a count:

    src/plpareto/bounds.py:34:14 killed tests/test_consistency.py::test_name
    src/plpareto/bounds.py:55:38 survived

``path:line:column`` locates the literal or name.  ``killed`` means some
test fails with the mutant and names the first one (or ``timeout``, past
TIMEOUT seconds); a ``survived`` site can be changed with every test
passing, so the guard is either unneeded or untested.

Example:
    python scripts/mutate_tolerances.py --list
    python scripts/mutate_tolerances.py
    python scripts/mutate_tolerances.py --scale 1000
    python scripts/mutate_tolerances.py --site bounds.py:34 --tests tests/test_consistency.py
    python scripts/mutate_tolerances.py src/plpareto/ratios.py src/plpareto/region.py
"""

import argparse
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["src/plpareto/pareto.py", "src/plpareto/bounds.py", "src/plpareto/consistency.py"]
LITERALS = {1e-9, 1e-12, 1e-15}
PYTEST = ["-m", "pytest", "-q", "--continue-on-collection-errors",
          "--hypothesis-seed=0", "-p", "no:cacheprovider", "-x"]
TIMEOUT = 900.0  # seconds per mutant; a mutant can loop forever
SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__",
                              "*.egg-info", ".benchmarks", ".perfbench_out")


def tolerance_names() -> set[str]:
    """Module-level names under src/ bound to a tolerance literal."""
    pattern = re.compile(r"^([A-Za-z_]\w*) = ([0-9.]+(?:e[+-]?[0-9]+)?)\s*(?:#.*)?$", re.M)
    return {name for path in ROOT.glob("src/**/*.py")
            for name, value in pattern.findall(path.read_text())
            if float(value) in LITERALS}


def sites(path: str, names: set[str]) -> list[tuple[str, int, int, str]]:
    """(path, line, 0-based column, token) of each tolerance literal on a
    code line of ``path``, relative to the repo root, and of each use there
    of a name in ``names`` (not its definition, not an import)."""
    text = (ROOT / path).read_text()
    found, imports, start = [], False, True
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if start and tok.string in ("import", "from"):
            imports = True
        if tok.type == tokenize.NUMBER and float(tok.string) in LITERALS or \
                tok.type == tokenize.NAME and tok.string in names and not imports \
                and tok.start[1] > 0:
            found.append((path, tok.start[0], tok.start[1], tok.string))
        if tok.type == tokenize.NEWLINE:
            imports = False
        start = tok.type in (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                             tokenize.DEDENT, tokenize.COMMENT)
    return found


def label(site) -> str:
    path, line, col, _ = site
    return f"{path}:{line}:{col + 1}"


def selected(site, specs: list[str]) -> bool:
    """True when some ``file:line`` or ``file:line:column`` spec names the
    site; ``file`` may be any trailing part of its path."""
    path, line, col, _ = site
    for spec in specs:
        file, *where = spec.split(":")
        if (path == file or path.endswith("/" + file)) and \
                where in ([str(line)], [str(line), str(col + 1)]):
            return True
    return not specs


def mutant(site, scale: float) -> str:
    """The source of the site's file with its literal replaced."""
    path, line, col, lit = site
    lines = (ROOT / path).read_text().splitlines(keepends=True)
    if scale == 0.0:
        new = "0.0"
    elif lit[0].isdigit():
        new = repr(float(f"{float(lit) * scale:.12g}"))
    else:
        new = f"({lit} * {scale!r})"
    text = lines[line - 1]
    lines[line - 1] = text[:col] + new + text[col + len(lit):]
    return "".join(lines)


def run(site, scale: float, tests: list[str]) -> str:
    """'killed <first failing test>' or 'survived' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        (copy / site[0]).write_text(mutant(site, scale))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(copy / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        try:
            proc = subprocess.run([sys.executable, *PYTEST, *tests], cwd=copy, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "killed timeout"
    if proc.returncode == 0:
        return "survived"
    first = [line.split(" ", 1)[1].split(" - ")[0] for line in proc.stdout.splitlines()
             if line.startswith(("FAILED ", "ERROR "))]
    return "killed " + (first[0] if first else f"exit {proc.returncode}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("modules", nargs="*", default=MODULES,
                    help="source files relative to the repo root (default: %(default)s)")
    ap.add_argument("--list", action="store_true", help="print the sites and run nothing")
    ap.add_argument("--site", action="append", default=[],
                    help="only this file:line[:column] (repeatable)")
    ap.add_argument("--scale", type=float, default=0.0,
                    help="multiply each literal by this instead of setting it to 0")
    ap.add_argument("--tests", nargs="+", default=[], help="pytest paths (default: tier-1)")
    args = ap.parse_args(argv)
    missing = [path for path in args.modules if not (ROOT / path).is_file()]
    if missing:
        ap.error(f"no such module: {', '.join(missing)}")

    names = tolerance_names()
    todo = [s for path in args.modules for s in sites(path, names) if selected(s, args.site)]
    if args.list:
        for site in todo:
            print(label(site), site[3])
        return 0
    survived = 0
    for site in todo:
        verdict = run(site, args.scale, args.tests)
        survived += verdict == "survived"
        print(label(site), verdict, flush=True)
    print(f"{len(todo)} sites: {len(todo) - survived} killed, {survived} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
