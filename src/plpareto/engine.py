"""Online allocation engine driven by a protection-level policy.

Requests arrive as divisible chunks tagged low or high.  High chunks are
always served from remaining capacity; low chunks are served only with the
capacity left above the protection level evaluated at the low demand seen so
far including the current chunk.

``offer`` and ``run_sequence`` replay one sequence chunk by chunk and are the
scalar reference.  ``replay_ratios`` replays a batch of sequences at once with
the same floating-point operations in the same order, so its ratios equal the
reference's bit for bit; its work arrays are views of buffers kept per thread.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, TooManyChunks
from .plfunction import PLFunction
from .ratios import DemandPoint, Rewards, hindsight_denominator, hindsight_denominators
from .region import TOL

# most whole unit chunks one demand point may split into for stochastic
# replay; a batch of replays holds one padded row per chunk
MAX_CHUNKS = 10_000

# work arrays of up to this many cells (mc-box-stoch blocks: <= 30,720) are views of buffers
# kept per thread, so blocks do not churn the heap; larger are fresh: a thread keeps <= 2.7 MB
_KEEP_CELLS = 1 << 16
_kept = threading.local()


def _work(key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised view of this thread's buffer ``key``, which every call with ``key``
    reuses; above _KEEP_CELLS a fresh array."""
    if math.prod(shape) > _KEEP_CELLS:
        return np.empty(shape, dtype)
    if not hasattr(_kept, key):
        setattr(_kept, key, np.empty(_KEEP_CELLS, dtype))
    return getattr(_kept, key)[:math.prod(shape)].reshape(shape)


@dataclass(frozen=True)
class Arrival:
    """One divisible request chunk."""

    kind: str  # "low" or "high"
    size: float

    def __post_init__(self) -> None:
        if self.kind not in ("low", "high"):
            raise InvalidInput("kind must be 'low' or 'high'")
        if not math.isfinite(self.size):
            raise InvalidInput("size must be finite")
        if self.size < 0:
            raise InvalidInput("size must be nonnegative")


@dataclass
class EngineState:
    """Running totals of one simulated sequence."""

    remaining: float
    low_seen: float = 0.0
    low_accepted: float = 0.0
    high_seen: float = 0.0
    high_accepted: float = 0.0
    reward: float = 0.0

    def _check_totals(self) -> None:
        """Raise InvalidInput unless every total but ``remaining`` is finite and nonnegative."""
        for name in ("low_seen", "low_accepted", "high_seen", "high_accepted", "reward"):
            if not 0.0 <= (v := getattr(self, name)) < math.inf:
                raise InvalidInput(f"{name} must be finite and nonnegative, got {v}")


def offer(state: EngineState, arrival: Arrival, pl: PLFunction, rw: Rewards) -> float:
    """Serve one chunk and return the amount accepted; InvalidInput unless
    every field of ``state`` is finite and nonnegative."""
    if not 0.0 <= state.remaining < math.inf:
        raise InvalidInput(f"remaining capacity must be finite and nonnegative, got {state.remaining}")
    state._check_totals()
    if arrival.kind == "high":
        a = min(arrival.size, state.remaining)
        state.high_seen += arrival.size
        state.high_accepted += a
        state.reward += a * rw.r_high
    else:
        state.low_seen += arrival.size
        cap = rw.m - pl(state.low_seen) - state.low_accepted
        a = min(state.remaining, min(max(cap, 0.0), arrival.size))
        state.low_accepted += a
        state.reward += a * rw.r_low
    state.remaining -= a
    return a


def run_sequence(arrivals, pl: PLFunction, rw: Rewards) -> EngineState:
    """Simulate a whole arrival sequence from full capacity."""
    state = EngineState(remaining=rw.m)
    for arrival in arrivals:
        offer(state, arrival, pl, rw)
    return state


def performance_ratio(state: EngineState, rw: Rewards) -> float:
    """Realized reward over hindsight optimum, 1 on empty sequences; checks the totals as offer does."""
    state._check_totals()
    opt = hindsight_denominator((state.low_seen, state.high_seen), rw)
    if opt <= 0.0:
        return 1.0
    return state.reward / opt


def ordered_sequence(x: float, y: float) -> list[Arrival]:
    """Worst-case arrival order: all low demand, then all high demand.  A
    total in [-TOL, 0] is none: envelope interpolation can round 0 to -1e-15."""
    if not (x >= -TOL and y >= -TOL):
        raise InvalidInput(f"demand must be a number of at least {-TOL}, got ({x}, {y})")
    out = []
    if x > 0:
        out.append(Arrival("low", x))
    if y > 0:
        out.append(Arrival("high", y))
    return out


def chunk_runs(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Unit chunks of the demand arrays x and y as (n, 4) run sizes (1.0, low
    remainder, 1.0, high remainder) and lengths (whole low units, 0 or 1,
    whole high units, 0 or 1); a remainder of at most 1e-12 is no chunk.

    At the first bad instance, raises InvalidInput unless x and y are finite
    and nonnegative, and ``TooManyChunks`` before allocating any chunk when
    the whole units together exceed ``MAX_CHUNKS``.
    """
    xy = np.array([x, y], dtype=float)
    ok = (np.isfinite(xy) & (xy >= 0.0)).all(axis=0)
    units = np.floor(np.where(ok, xy, 0.0))
    bad = ~ok | (units.sum(axis=0) > MAX_CHUNKS)
    if bad.any():
        bx, by = xy[:, bad.argmax()].tolist()
        DemandPoint(bx, by)
        raise TooManyChunks(
            f"demand ({bx!r}, {by!r}) splits into more than MAX_CHUNKS = {MAX_CHUNKS} unit chunks")
    frac = xy - units
    sizes = np.stack([np.ones_like(frac[0]), frac[0], np.ones_like(frac[0]), frac[1]], axis=1)
    lengths = np.stack([units[0], frac[0] > 1e-12, units[1], frac[1] > 1e-12], axis=1)
    return sizes, lengths.astype(np.intp)


def chunk_arrays(x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    """Sizes and low-kind flags of the unit chunks of (x, y), in
    ``unit_chunks`` order; raises as ``chunk_runs`` does."""
    sizes, lengths = chunk_runs([x], [y])
    return np.repeat(sizes[0], lengths[0]), np.arange(lengths.sum()) < lengths[0, :2].sum()


def unit_chunks(x: float, y: float) -> list[Arrival]:
    """Split totals into unit chunks plus fractional remainders (unpermuted)."""
    sizes, is_low = chunk_arrays(x, y)
    return [Arrival("low" if low else "high", size)
            for size, low in zip(sizes.tolist(), is_low.tolist())]


def _step_sum(a: np.ndarray) -> np.ndarray:
    """Column sums of a C-order (steps, n) array, adding the rows one after
    another as a loop over the steps does.  np.add.reduce over axis 0 adds
    whole rows in that order, except for a single column, which it sums
    pairwise."""
    if a.shape[1] == 1:
        return np.cumsum(a, axis=0)[-1]
    return np.add.reduce(a, axis=0)


def replay_ratios(pl: PLFunction, rw: Rewards, sizes, is_low) -> np.ndarray:
    """Performance ratio of every column of a batch of arrival sequences.

    ``sizes`` and ``is_low`` are (steps, sequences) arrays: column r is the
    sequence of chunks (sizes[j, r], low if is_low[j, r] else high).
    Zero-size chunks are exact no-ops, so shorter sequences can be padded
    with them.  Each ratio equals
    ``performance_ratio(run_sequence(column, pl, rw), rw)``: every step
    applies offer's floating-point operations in offer's order.
    """
    s = np.ascontiguousarray(sizes, dtype=float)
    low = np.ascontiguousarray(is_low, dtype=bool)
    n_steps, n = s.shape
    if n_steps == 0:
        return np.ones(n)
    # the kinds as 0.0/1.0: multiplying a size or an acceptance by them is
    # exact, and far cheaper than a bool operand or a where= mask
    low_f = _work("low_f", s.shape, float)
    np.copyto(low_f, low)
    # head holds the low sizes, then the running low demand, then (from the
    # level on) the capacity above the protection level and the acceptances
    head = np.multiply(s, low_f, out=_work("head", s.shape, float))
    y = _step_sum(np.subtract(s, head, out=_work("spare", s.shape, float)))
    # row by row, as np.cumsum(axis=0) adds, without its temporaries
    for j in range(1, n_steps):
        np.add(head[j - 1], head[j], out=head[j])
    x = head[-1].copy()
    # the capacity above the protection level before the sequence's low
    # acceptances; +inf on high steps, where offer's low-chunk formula
    # min(remaining, min(max(cap, 0), size)) reduces to its high-chunk
    # formula min(size, remaining)
    at = np.flatnonzero(low)
    level = head.take(at, out=_work("spare", at.shape, float), mode="clip")
    pl.values(level, out=level)
    np.subtract(rw.m, level, out=level)
    head.fill(np.inf)
    head.put(at, level)

    # step j writes its acceptances over head[j], its low ones over low_f[j]
    remaining = np.full(n, float(rw.m))
    low_accepted = np.zeros(n)
    for j in range(n_steps):
        a = head[j]
        np.subtract(a, low_accepted, out=a)
        np.maximum(a, 0.0, out=a)
        np.minimum(a, s[j], out=a)
        np.minimum(remaining, a, out=a)
        np.multiply(a, low_f[j], out=low_f[j])
        low_accepted += low_f[j]
        remaining -= a
    # each acceptance times its kind's reward; one product is 0.0, added exactly
    np.subtract(head, low_f, out=head)
    head *= rw.r_high
    low_f *= rw.r_low
    head += low_f
    reward = _step_sum(head)

    opt = hindsight_denominators(x, y, rw)
    return np.divide(reward, opt, out=np.ones(n), where=opt > 0.0)
