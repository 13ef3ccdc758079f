#!/usr/bin/env python3
"""Time PLFunction.values' two segment lookups against the breakpoint count.

For each count, a seeded curve and seeded x are timed with the comparison
lookup forced (plfunction._COMPARE_BPS = 99) and with searchsorted forced
(0); both must give the same bits.  The x are running low demands as replay
blocks hold them: whole units with a few fractions.  ``--shape spread``
places the breakpoints uniformly in [0, 20], so x fall on every segment;
``--shape box`` puts the interior breakpoints past x = 24, so nearly all x
lie on the first segment, as with the box policies.  Prints microseconds
per call (best of three) and the comparison / searchsorted ratio.

Example:
    python scripts/time_values_lookup.py --shape box --cells 1000 10000
"""

import argparse
import time

import numpy as np

from plpareto import PLFunction, plfunction


def best_us(pl: PLFunction, x: np.ndarray, out: np.ndarray, reps: int) -> float:
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(reps):
            pl.values(x, out=out)
        best = min(best, (time.perf_counter() - t) / reps * 1e6)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", choices=("spread", "box"), default="spread")
    ap.add_argument("--cells", type=int, nargs="+", default=[1000, 10000])
    ap.add_argument("--max-bps", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    cut_in_use = plfunction._COMPARE_BPS
    print("bps  " + "  ".join(f"{n:>7} cells: cmp / searchsorted us" for n in args.cells))
    for n_bps in range(2, args.max_bps + 1):
        if args.shape == "box":
            xs = np.concatenate([[0.0], 24.0 + np.sort(rng.uniform(0.0, 2.0, n_bps - 1))])
        else:
            xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 20.0, n_bps - 1))])
        ps = np.sort(rng.uniform(0.0, 20.0, n_bps))[::-1]
        pl = PLFunction(tuple(zip(xs.tolist(), ps.tolist())))
        row = []
        for n in args.cells:
            x = np.floor(rng.uniform(0.0, 25.0, n)) + (rng.random(n) < 0.2) * rng.random(n)
            out = np.empty(n)
            times, bits = [], []
            for cut in (99, 0):
                plfunction._COMPARE_BPS = cut
                bits.append(pl.values(x).tobytes())
                times.append(best_us(pl, x, out, max(20, 200_000 // n)))
            plfunction._COMPARE_BPS = cut_in_use
            assert bits[0] == bits[1], n_bps
            row.append(f"{times[0]:8.1f} / {times[1]:8.1f} ({times[0] / times[1]:.2f})")
        print(f"{n_bps:3d}  " + "  ".join(f"{r:>33}" for r in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
