"""Online allocation engine driven by a protection-level policy.

Requests arrive as divisible chunks tagged low or high.  High chunks are
always served from remaining capacity; low chunks are served only with the
capacity left above the protection level evaluated at the low demand seen so
far including the current chunk.

``offer`` and ``run_sequence`` replay one sequence chunk by chunk and are the
scalar reference.  ``replay_ratios`` replays a batch of sequences at once with
the same floating-point operations in the same order, so its ratios equal the
reference's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooManyChunks
from .plfunction import PLFunction
from .ratios import DemandPoint, Rewards, hindsight_denominator, hindsight_denominators
from .region import TOL

# most whole unit chunks one demand point may split into for stochastic
# replay; a batch of replays holds one padded row per chunk
MAX_CHUNKS = 10_000


@dataclass(frozen=True)
class Arrival:
    """One divisible request chunk."""

    kind: str  # "low" or "high"
    size: float

    def __post_init__(self) -> None:
        if self.kind not in ("low", "high"):
            raise ValueError("kind must be 'low' or 'high'")
        if not math.isfinite(self.size):
            raise ValueError("size must be finite")
        if self.size < 0:
            raise ValueError("size must be nonnegative")


@dataclass
class EngineState:
    """Running totals of one simulated sequence."""

    remaining: float
    low_seen: float = 0.0
    low_accepted: float = 0.0
    high_seen: float = 0.0
    high_accepted: float = 0.0
    reward: float = 0.0


def offer(state: EngineState, arrival: Arrival, pl: PLFunction, rw: Rewards) -> float:
    """Serve one chunk and return the amount accepted."""
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
    """Realized reward over hindsight optimum; 1 on empty sequences."""
    opt = hindsight_denominator((state.low_seen, state.high_seen), rw)
    if opt <= 0.0:
        return 1.0
    return state.reward / opt


def ordered_sequence(x: float, y: float) -> list[Arrival]:
    """Worst-case arrival order: all low demand, then all high demand.  A
    total in [-TOL, 0] is none: envelope interpolation can round 0 to -1e-15."""
    if not (x >= -TOL and y >= -TOL):
        raise ValueError(f"demand must be a number of at least {-TOL}, got ({x}, {y})")
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

    At the first bad instance, raises ValueError unless x and y are finite
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
    low_f = low.astype(float)
    high_f = 1.0 - low_f
    y = _step_sum(s * high_f)
    # running low demand, then (in the same buffer) the capacity above the
    # protection level before the sequence's low acceptances; +inf on high
    # steps, where offer's low-chunk formula min(remaining, min(max(cap, 0),
    # size)) reduces to its high-chunk formula min(size, remaining)
    head = s * low_f
    np.cumsum(head, axis=0, out=head)
    x = head[-1].copy()
    at = np.flatnonzero(low)
    level = pl.values(head.take(at))
    np.subtract(rw.m, level, out=level)
    head.fill(np.inf)
    head.put(at, level)

    # step j overwrites head[j] with its acceptances
    remaining = np.full(n, float(rw.m))
    low_accepted = np.zeros(n)
    a_low = np.empty(n)
    for j in range(n_steps):
        a = head[j]
        np.subtract(a, low_accepted, out=a)
        np.maximum(a, 0.0, out=a)
        np.minimum(a, s[j], out=a)
        np.minimum(remaining, a, out=a)
        np.multiply(a, low_f[j], out=a_low)
        low_accepted += a_low
        remaining -= a
    head *= low_f * rw.r_low + high_f * rw.r_high
    reward = _step_sum(head)

    opt = hindsight_denominators(x, y, rw)
    out = np.ones(n)
    pos = opt > 0.0
    out[pos] = reward[pos] / opt[pos]
    return out
