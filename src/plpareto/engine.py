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

from .plfunction import PLFunction
from .ratios import Rewards, hindsight_denominator


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
    """Worst-case arrival order: all low demand, then all high demand."""
    out = []
    if x > 0:
        out.append(Arrival("low", x))
    if y > 0:
        out.append(Arrival("high", y))
    return out


def chunk_arrays(x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    """Sizes and low-kind flags of the unit chunks of (x, y): low units, low
    fractional remainder, high units, high fractional remainder."""
    sizes: list[float] = []
    is_low: list[bool] = []
    for low, total in ((True, x), (False, y)):
        n = int(total)
        frac = total - n
        part = [1.0] * n + ([frac] if frac > 1e-12 else [])
        sizes += part
        is_low += [low] * len(part)
    return np.array(sizes, dtype=float), np.array(is_low, dtype=bool)


def unit_chunks(x: float, y: float) -> list[Arrival]:
    """Split totals into unit chunks plus fractional remainders (unpermuted)."""
    sizes, is_low = chunk_arrays(x, y)
    return [Arrival("low" if low else "high", size)
            for size, low in zip(sizes.tolist(), is_low.tolist())]


def replay_ratios(pl: PLFunction, rw: Rewards, sizes, is_low) -> np.ndarray:
    """Performance ratio of every column of a batch of arrival sequences.

    ``sizes`` and ``is_low`` are (steps, sequences) arrays: column r is the
    sequence of chunks (sizes[j, r], low if is_low[j, r] else high).
    Zero-size chunks are exact no-ops, so shorter sequences can be padded
    with them.  Each ratio equals
    ``performance_ratio(run_sequence(column, pl, rw), rw)``: every step
    applies offer's floating-point operations in offer's order.
    """
    s = np.asarray(sizes, dtype=float)
    low = np.asarray(is_low, dtype=bool)
    n_steps, n = s.shape
    if n_steps == 0:
        return np.ones(n)
    # running low demand, then (in the same buffer) the capacity above the
    # protection level before the sequence's low acceptances; +inf on high
    # steps, where offer's low-chunk formula min(remaining, min(max(cap, 0),
    # size)) reduces to its high-chunk formula min(size, remaining)
    head = s * low
    for j in range(1, n_steps):
        head[j] += head[j - 1]
    x = head[-1].copy()
    level = pl.values(head[low])
    np.subtract(rw.m, level, out=level)
    head.fill(np.inf)
    head[low] = level
    high = ~low

    remaining = np.full(n, float(rw.m))
    low_accepted = np.zeros(n)
    y = np.zeros(n)
    reward = np.zeros(n)
    a = np.empty(n)
    gain = np.empty(n)
    for j in range(n_steps):
        np.add(y, s[j], out=y, where=high[j])
        np.subtract(head[j], low_accepted, out=a)
        np.maximum(a, 0.0, out=a)
        np.minimum(a, s[j], out=a)
        np.minimum(remaining, a, out=a)
        np.add(low_accepted, a, out=low_accepted, where=low[j])
        np.multiply(a, rw.r_high, out=gain)
        np.multiply(a, rw.r_low, out=gain, where=low[j])
        reward += gain
        remaining -= a

    m = rw.m  # hindsight_denominator, elementwise
    opt = np.minimum(y, m) * rw.r_high + np.minimum(x, np.maximum(m - y, 0.0)) * rw.r_low
    out = np.ones(n)
    pos = opt > 0.0
    out[pos] = reward[pos] / opt[pos]
    return out
