"""Command-line front end.

Subcommands: cstar, pareto, curve, simulate, validate.  Exit codes: 0 ok,
2 input error, 3 infeasible consistency target, 4 invalid protection level.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from .consistency import cstar_enumeration
from .errors import InfeasibleTarget, InvalidInput, PlparetoError
from .harness import DemandModel, ExperimentConfig, run_experiment, write_report_csv, write_report_json
from .pareto import solve_pareto, tradeoff_curve
from .plfunction import PLFunction
from .ratios import Rewards
from .region import MLRegion, build_polygon, polygonize_ellipse

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INVALID_PL = 4
# most targets ``curve --steps`` may sweep; each one is a Pareto solve
MAX_STEPS = 10_000


def load_region(path: str) -> MLRegion:
    """Region JSON: polygon vertices, ellipse center/shape, or a point."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read region file {path}: {exc}") from exc
    try:
        kind = data["type"]
        if kind == "polygon":
            return build_polygon([tuple(p) for p in data["vertices"]])
        if kind == "ellipse":
            return polygonize_ellipse(tuple(data["center"]), data["shape"], data.get("segments", 64))
        if kind == "point":
            return build_polygon([tuple(data["at"])])
    except (KeyError, TypeError, ValueError, OverflowError, PlparetoError) as exc:
        raise InvalidInput(f"malformed region file {path}: {exc}") from exc
    raise InvalidInput(f"unknown region type {kind!r}")


@contextmanager
def _writing(path: str):
    """Report an output path that cannot be written as bad input."""
    try:
        yield
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}") from exc


def _check_out(path: str | None) -> None:
    """Report an ``--out`` that cannot be opened for writing before the
    command computes anything; an existing file is left as it is."""
    if path:
        with _writing(path):
            existed = os.path.lexists(path)
            open(path, "a").close()
            if not existed:
                os.remove(path)


def write_pl_csv(pl: PLFunction, rw: Rewards, path: str, x_bar: float | None = None) -> None:
    """Breakpoint CSV with a comment header carrying the model parameters."""
    with open(path, "w") as fh:
        tail = f" x_bar={x_bar!r}" if x_bar is not None else ""
        fh.write(f"# m={rw.m!r} r_low={rw.r_low!r} r_high={rw.r_high!r}{tail}\n")
        fh.write("x,p\n")
        for x, p in pl.breakpoints:
            fh.write(f"{x!r},{p!r}\n")


def read_pl_csv(path: str):
    """Returns (PLFunction, Rewards, x_bar or None)."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read PL file {path}: {exc}") from exc
    meta: dict[str, float] = {}
    bps: list[tuple[float, float]] = []
    try:
        for ln in lines:
            if ln.startswith("#"):
                for tok in ln[1:].split():
                    key, _, val = tok.partition("=")
                    meta[key] = float(val)
            elif ln.lower().replace(" ", "") == "x,p":
                continue
            else:
                xs, ps = ln.split(",")
                bps.append((float(xs), float(ps)))
        rw = Rewards(meta["r_low"], meta["r_high"], meta["m"])
        pl = PLFunction(tuple(bps))
    except (KeyError, ValueError) as exc:
        raise InvalidInput(f"malformed PL file {path}: {exc}") from exc
    x_bar = meta.get("x_bar")
    if x_bar is not None and not 0.0 <= x_bar < math.inf:
        raise InvalidInput(f"x_bar must be finite and nonnegative, got {x_bar}")
    return pl, rw, x_bar


def cmd_cstar(args) -> int:
    region = load_region(args.region)
    res = cstar_enumeration(region, Rewards(args.rl, args.rh, args.m))
    print(f"c_star={res.c_star:.9f} method={res.method} "
          f"witness_x={res.witness_x:.6f} n_checks={res.n_checks}")
    return EXIT_OK


def cmd_pareto(args) -> int:
    region = load_region(args.region)
    rw = Rewards(args.rl, args.rh, args.m)
    if args.consistency is None:
        raise InvalidInput("--consistency is required for pareto")
    sol = solve_pareto(region, rw, args.consistency)
    print(f"C={sol.C:.9f} r_star={sol.r_star:.9f} "
          f"r_right={sol.r_right:.9f} r_left={sol.r_left:.9f}")
    if args.out:
        with _writing(args.out):
            write_pl_csv(sol.p_star, rw, args.out, x_bar=region.x_hi)
    return EXIT_OK


def cmd_curve(args) -> int:
    region = load_region(args.region)
    rw = Rewards(args.rl, args.rh, args.m)
    if not 1 <= args.steps <= MAX_STEPS:
        raise InvalidInput(f"--steps must be in [1, {MAX_STEPS}], got {args.steps}")
    if not (math.isfinite(args.c_min) and math.isfinite(args.c_max)):
        raise InvalidInput(f"--c-min and --c-max must be finite, got {args.c_min} and {args.c_max}")
    targets = np.linspace(args.c_min, args.c_max, args.steps)
    rows = tradeoff_curve(region, rw, [float(c) for c in targets])
    lines = ["C,r_star"]
    for c, sol in rows:
        lines.append(f"{c!r},{sol.r_star!r}" if sol is not None else f"{c!r},infeasible")
    text = "\n".join(lines) + "\n"
    if args.out:
        with _writing(args.out), open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidInput(f"config {args.config} is not a JSON object")
    try:
        model = DemandModel(**raw.pop("model", {}))
        rw = Rewards(raw.pop("r_low"), raw.pop("r_high"), raw.pop("m"))
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = ExperimentConfig(model=model, **raw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed config {args.config}: {exc}") from exc
    report = run_experiment(cfg, rw)
    print(f"avg_cp={report.avg_cp} worst_cp={report.worst_cp}")
    if args.out:
        with _writing(args.out):
            if args.format == "json":
                write_report_json(report, args.out, cfg)
            else:
                write_report_csv(report, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    pl, rw, x_bar = read_pl_csv(args.pl_file)
    violations = pl.validate(rw.m, x_bar)
    for v in violations:
        print(v)
    if violations:
        return EXIT_INVALID_PL
    print("valid")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="plpareto")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--region", required=True)
        p.add_argument("--m", type=float, default=20.0)
        p.add_argument("--rl", type=float, default=1.0 / 3.0)
        p.add_argument("--rh", type=float, default=1.0)

    p = sub.add_parser("cstar", help="maximum achievable consistency")
    common(p)
    p.set_defaults(fn=cmd_cstar)

    p = sub.add_parser("pareto", help="optimal policy for a consistency target")
    common(p)
    p.add_argument("--consistency", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_pareto)

    p = sub.add_parser("curve", help="consistency/robustness trade-off sweep")
    common(p)
    p.add_argument("--c-min", type=float, default=0.0)
    p.add_argument("--c-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("simulate", help="run a Monte-Carlo experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("validate", help="check a protection-level CSV file")
    p.add_argument("pl_file")
    p.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(getattr(args, "out", None))
        return args.fn(args)
    except InfeasibleTarget as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PlparetoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
