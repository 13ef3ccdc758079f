"""Monte-Carlo experiment pipeline: demand models, advice construction,
policy computation and worst/average ratio aggregation."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, asdict
from numbers import Integral

import numpy as np

from .advice import box_advice, ellipse_advice, point_advice
from .bounds import no_advice_level
from .consistency import cstar_enumeration
from .engine import _work, chunk_runs, replay_ratios
from .errors import InvalidInput
from .pareto import solve_pareto
from .plfunction import PLFunction, constant_pl
from .ratios import DemandPoint, Rewards, cp
from .region import check_segments


@dataclass(frozen=True)
class DemandModel:
    """Two-component mixture over demand coordinates, truncated at zero.

    The main component is Uniform(main_low, main_high) or Normal(mean, sd)
    depending on ``kind``; the contaminant is Uniform(cont_low, cont_high);
    each coordinate is drawn independently from the mixture.
    """

    kind: str = "uniform-mixture"
    weight: float = 0.9
    main_low: float = 10.0
    main_high: float = 20.0
    mean: float = 15.0
    sd: float = 3.0
    cont_low: float = 0.0
    cont_high: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform-mixture", "normal-mixture"):
            raise InvalidInput(f"unknown demand model kind {self.kind!r}")
        if not 0.0 <= self.weight <= 1.0:
            raise InvalidInput("mixture weight must lie in [0, 1]")
        params = (self.main_low, self.main_high, self.mean, self.sd, self.cont_low, self.cont_high)
        if not all(map(math.isfinite, params)):
            raise InvalidInput("demand model parameters must be finite")
        if self.sd < 0.0:
            raise InvalidInput("sd must be nonnegative")
        for low, high in ((self.main_low, self.main_high), (self.cont_low, self.cont_high)):
            if not 0.0 <= high - low < math.inf:
                raise InvalidInput("each uniform range needs low <= high and a finite high - low")


def sample_demand(model: DemandModel, rng: np.random.Generator) -> DemandPoint:
    """Draw one demand point; coordinates are independent mixture draws."""
    coords = []
    for _ in range(2):
        if rng.random() < model.weight:
            if model.kind == "uniform-mixture":
                v = rng.uniform(model.main_low, model.main_high)
            else:
                v = rng.normal(model.mean, model.sd)
        else:
            v = rng.uniform(model.cont_low, model.cont_high)
        coords.append(max(0.0, float(v)))
    return DemandPoint(coords[0], coords[1])


def _sample_points(model: DemandModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """The points of ``n`` calls of ``sample_demand`` as an (n, 2) array of
    x and y, leaving the generator in the same state.  A uniform-mixture
    coordinate takes two doubles, the pick and u, and is
    ``low + (high - low) * u`` as in ``Generator.uniform``: one bulk draw.
    A normal draw takes a varying number of doubles, so that model loops."""
    if model.kind != "uniform-mixture":
        pts = [sample_demand(model, rng) for _ in range(n)]
        return np.array([(pt.x, pt.y) for pt in pts]).reshape(n, 2)
    pick, u = rng.random(4 * n).reshape(n, 2, 2).transpose(2, 0, 1)
    v = np.where(pick < model.weight,
                 model.main_low + (model.main_high - model.main_low) * u,
                 model.cont_low + (model.cont_high - model.cont_low) * u)
    return np.where(v > 0.0, v, 0.0)


@dataclass(frozen=True)
class EvalReport:
    """Worst/average performance ratios of a policy (or of many trials)."""

    avg_cp: float | None
    worst_cp: float | None
    per_instance: tuple[float, ...] = ()
    per_trial: tuple[tuple[float, float], ...] = ()


# replays per kernel call: bounds the batch's arrays whatever n_test and n_perms;
# a block of up to 128 steps then fits the kept buffers (engine._KEEP_CELLS)
_BLOCK_ROWS = 512
# chunk kinds of the adversarial order: all low demand, then all high demand
_ORDERED_LOW = np.array([[True], [False]])


def _blocks(chunks, reps, rng):
    """Zero-padded (steps, replays) sizes and is_low arrays, at most
    _BLOCK_ROWS replays each.

    With ``rng`` None, a block is a slice of the (2, n) array ``chunks`` of
    the test set's x and y.  Else replay r plays instance r // reps's
    ``engine.chunk_runs`` chunks in a random order, held as indices into the
    test set's chunk list: one ``rng.permuted`` call per instance shuffles
    its columns one after another as ``rng.permutation`` does, so the orders
    and the generator's state are those of one call per replay.  Stochastic
    blocks are ``engine._work`` buffers, which the next block overwrites."""
    if rng is None:
        for start in range(0, chunks.shape[1], _BLOCK_ROWS):
            sizes = chunks[:, start:start + _BLOCK_ROWS]
            yield sizes, np.broadcast_to(_ORDERED_LOW, sizes.shape)
        return
    sizes, lengths = chunks
    # every chunk of the test set in instance order, then a 0.0 for padding
    table = np.append(np.repeat(sizes.ravel(), lengths.ravel()), 0.0)
    ids = np.arange(table.size)[:, None]
    n = lengths.sum(axis=1)
    ends = np.cumsum(n)
    low_ends = ends - lengths[:, 2:].sum(axis=1)
    n_rows = n.size * reps
    for start in range(0, n_rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_rows)
        inst = np.arange(start, stop) // reps
        idx = _work("idx", (n[inst].max(), stop - start), np.intp)
        idx.fill(table.size - 1)
        for i in range(inst[0], inst[-1] + 1):
            a, b = max(start, i * reps) - start, min(stop, (i + 1) * reps) - start
            cols = idx[:n[i], a:b]
            cols[...] = ids[ends[i] - n[i]:ends[i]]
            rng.permuted(cols, axis=0, out=cols)
        # mode="clip" writes into out directly; "raise" would buffer it
        yield (table.take(idx, out=_work("sizes", idx.shape, float), mode="clip"),
               np.less(idx, low_ends[inst], out=_work("is_low", idx.shape, bool)))


def evaluate(policy: PLFunction, testset, order: str, rw: Rewards,
             rng: np.random.Generator | None = None, n_perms: int = 100) -> EvalReport:
    """Score a policy on a test set of ``DemandPoint``s under adversarial or
    stochastic order.

    Every replay goes through the batched kernel ``engine.replay_ratios``;
    the ratios equal those of ``run_sequence`` replays bit for bit.  The
    stochastic order counts every instance's unit chunks at once
    (``engine.chunk_runs``) and replays ``n_perms`` random orders of them,
    drawn with one ``rng.permuted`` call per instance and block: the orders
    and generator state of one ``rng.permutation`` per replay, in the order
    the scalar loop drew them.  An instance may split into at most
    ``engine.MAX_CHUNKS`` whole units.
    """
    testset = list(testset)
    xy = [pt.x for pt in testset], [pt.y for pt in testset]
    return _evaluate_xy(policy, xy, order, rw, rng, n_perms)


def _evaluate_xy(policy: PLFunction, xy, order: str, rw: Rewards,
                 rng: np.random.Generator | None, n_perms: int) -> EvalReport:
    """``evaluate`` of the test set whose x and y are the rows of ``xy``."""
    if order not in ("adversarial", "stochastic"):
        raise InvalidInput("order must be 'adversarial' or 'stochastic'")
    # a bool is an Integral: True would count as 1
    if isinstance(n_perms, bool) or not isinstance(n_perms, Integral):
        raise InvalidInput("n_perms must be an integer")
    if n_perms < 1:
        raise InvalidInput("n_perms must be at least 1")
    n = len(xy[0])
    if not n:
        return EvalReport(None, None, ())
    if order == "stochastic":
        chunks, reps = chunk_runs(*xy), n_perms
        rng = np.random.default_rng(0) if rng is None else rng
    else:
        chunks, reps, rng = np.array(xy), 1, None
    per_row = np.concatenate([
        replay_ratios(policy, rw, sizes, is_low)
        for sizes, is_low in _blocks(chunks, reps, rng)
    ]).reshape(n, reps)
    # a running sum over replays, as the scalar reference adds them up;
    # np.mean sums pairwise and rounds differently
    total = np.cumsum(per_row, axis=1)[:, -1]
    ratios = tuple((total / reps).tolist())
    return EvalReport(sum(ratios) / len(ratios), min(ratios), ratios)


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte-Carlo experiment: model, advice kind and evaluation setup."""

    model: DemandModel = field(default_factory=DemandModel)
    advice_kind: str = "box"  # box | ellipse | point | none | grid
    z: float = 1.0
    n_samples: int = 10
    K: int = 1000
    c_rule: float = 1.0
    n_test: int = 100
    order: str = "adversarial"
    seed: int = 0
    n_perms: int = 100
    segments: int = 64

    def __post_init__(self) -> None:
        if self.advice_kind not in ("box", "ellipse", "point", "none", "grid"):
            raise InvalidInput(f"unknown advice kind {self.advice_kind!r}")
        if not 0.0 < self.c_rule <= 1.0:
            raise InvalidInput("c_rule must lie in (0, 1]")
        if not 0.0 < self.z <= 1.0:
            raise InvalidInput("coverage z must lie in (0, 1]")
        if self.order not in ("adversarial", "stochastic"):
            raise InvalidInput(f"unknown order {self.order!r}")
        for name in ("n_samples", "K", "n_test", "seed", "n_perms"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise InvalidInput(f"{name} must be an integer")
        if self.n_samples < 1:
            raise InvalidInput("n_samples must be at least 1")
        if self.seed < 0:
            raise InvalidInput("seed must be nonnegative")
        check_segments(self.segments)
        if self.K < 1:
            raise InvalidInput("K must be at least 1")
        if self.n_test < 1:
            raise InvalidInput("n_test must be at least 1")
        if self.n_perms < 1:
            raise InvalidInput("n_perms must be at least 1")


def _grid_policy(samples, rw: Rewards) -> PLFunction:
    """Best fixed protection level on the training samples by grid search
    (maximizes the worst ordered-arrival ratio); a non-paper baseline."""
    grid = np.linspace(0.0, rw.m, 201)
    best_p, best_v = 0.0, -1.0
    for p in grid:
        v = min(cp(float(p), pt, rw) for pt in samples)
        if v > best_v + 1e-12:
            best_p, best_v = float(p), v
    return constant_pl(best_p, max(rw.m, 1.0))


def _trial_policy(cfg: ExperimentConfig, rw: Rewards, samples) -> PLFunction:
    if cfg.advice_kind == "none":
        return constant_pl(no_advice_level(rw), rw.m)
    if cfg.advice_kind == "grid":
        return _grid_policy(samples, rw)
    if cfg.advice_kind == "box":
        region = box_advice(samples, cfg.z)
    elif cfg.advice_kind == "ellipse":
        region = ellipse_advice(samples, cfg.z, cfg.segments)
    else:
        region = point_advice(samples)
    c_star = cstar_enumeration(region, rw).c_star
    return solve_pareto(region, rw, cfg.c_rule * c_star).p_star


def run_experiment(cfg: ExperimentConfig, rw: Rewards) -> EvalReport:
    """K advice-drawing trials scored on one shared test set.

    Reported Avg CP is the mean over trials of the per-trial average ratio;
    Worst CP is the mean over trials of the per-trial minimum ratio.  Points
    are those of ``sample_demand``, drawn in bulk for a uniform mixture.
    """
    master = np.random.SeedSequence(cfg.seed)
    test_ss, *trial_ss = master.spawn(cfg.K + 1)
    test_rng = np.random.default_rng(test_ss)
    # the test set's x and y as rows, handed to the replay as they are
    test_xy = _sample_points(cfg.model, cfg.n_test, test_rng).T

    per_trial = []
    for ss in trial_ss:
        rng = np.random.default_rng(ss)
        samples = _sample_points(cfg.model, cfg.n_samples, rng).tolist()
        policy = _trial_policy(cfg, rw, samples)
        rep = _evaluate_xy(policy, test_xy, cfg.order, rw, rng, cfg.n_perms)
        per_trial.append((rep.avg_cp, rep.worst_cp))
    avg = sum(t[0] for t in per_trial) / len(per_trial)
    worst = sum(t[1] for t in per_trial) / len(per_trial)
    return EvalReport(avg, worst, (), tuple(per_trial))


def write_report_csv(report: EvalReport, path: str) -> None:
    """One row per trial (or per instance when no trials were run)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if report.per_trial:
            w.writerow(["trial", "avg_cp", "worst_cp"])
            for i, (a, b) in enumerate(report.per_trial):
                w.writerow([i, f"{a:.12g}", f"{b:.12g}"])
        else:
            w.writerow(["instance", "cp"])
            for i, r in enumerate(report.per_instance):
                w.writerow([i, f"{r:.12g}"])


def write_report_json(report: EvalReport, path: str, cfg: ExperimentConfig | None = None) -> None:
    """Summary JSON with optional echo of the experiment configuration."""
    payload = {
        "avg_cp": report.avg_cp,
        "worst_cp": report.worst_cp,
        "n_trials": len(report.per_trial),
        "n_instances": len(report.per_instance),
    }
    if cfg is not None:
        payload["config"] = asdict(cfg)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
