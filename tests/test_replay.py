"""The batched replay (``replay_ratios`` / ``evaluate``) against the scalar
reference (``offer`` / ``run_sequence``): ratios must be equal, not close."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from plpareto import (
    Arrival,
    DemandModel,
    DemandPoint,
    ExperimentConfig,
    PLFunction,
    PlparetoError,
    Rewards,
    constant_pl,
    cstar_bisection,
    evaluate,
    ordered_sequence,
    performance_ratio,
    run_experiment,
    run_sequence,
    solve_pareto,
    unit_chunks,
)
import plpareto
from plpareto import engine
from plpareto.engine import MAX_CHUNKS, chunk_arrays, chunk_runs, replay_ratios
from plpareto.errors import TooManyChunks
from plpareto import harness, plfunction

from conftest import random_region

RW = Rewards(1.0 / 3.0, 1.0, 20.0)

# zero demand, whole and fractional chunks, and totals above m = 20
demand = st.one_of(
    st.just(0.0),
    st.integers(0, 45).map(float),
    st.floats(0.0, 45.0, allow_nan=False),
    st.floats(0.0, 1e-11),
)


@st.composite
def valid_pl(draw):
    """Non-increasing, slope >= -1, values in [0, m]; zero-length segments
    allowed."""
    n = draw(st.integers(1, 7))
    xs = sorted(draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        xs.insert(n // 2, xs[n // 2])  # a zero-length segment
    p = draw(st.floats(0.0, RW.m))
    bps = [(xs[0], p)]
    for x1, x2 in zip(xs, xs[1:]):
        p = max(0.0, p - draw(st.floats(0.0, 1.0)) * (x2 - x1))
        bps.append((x2, p))
    return PLFunction(tuple(bps))


def scalar_ratio(arrivals, pl):
    return performance_ratio(run_sequence(arrivals, pl, RW), RW)


def scalar_evaluate(policy, testset, order, rng, n_perms):
    """Per-instance ratios of evaluate as it was written before batching:
    one run_sequence per ordered sequence or permutation."""
    out = []
    for pt in testset:
        if order == "adversarial":
            out.append(scalar_ratio(ordered_sequence(pt.x, pt.y), policy))
            continue
        chunks = unit_chunks(pt.x, pt.y)
        total = 0.0
        for _ in range(n_perms):
            perm = [chunks[i] for i in rng.permutation(len(chunks))]
            total += scalar_ratio(perm, policy)
        out.append(total / n_perms)
    return tuple(out)


def batch(rows):
    """Zero-padded (steps, rows) arrays of a list of (sizes, is_low) rows."""
    width = max(len(s) for s, _ in rows)
    sizes = np.zeros((width, len(rows)))
    is_low = np.zeros((width, len(rows)), dtype=bool)
    for r, (s, low) in enumerate(rows):
        sizes[:len(s), r] = s
        is_low[:len(s), r] = low
    return sizes, is_low


def check_kernel(pl, points, seed):
    rng = np.random.default_rng(seed)
    rows, expected = [], []
    for x, y in points:
        rows.append(([x, y], [True, False]))
        expected.append(scalar_ratio(ordered_sequence(x, y), pl))
        sizes, is_low = chunk_arrays(x, y)
        chunks = unit_chunks(x, y)
        for _ in range(3):
            perm = rng.permutation(len(chunks))
            rows.append((sizes[perm], is_low[perm]))
            expected.append(scalar_ratio([chunks[i] for i in perm], pl))
    got = replay_ratios(pl, RW, *batch(rows)).tolist()
    assert got == expected


@given(valid_pl(), st.lists(st.tuples(demand, demand), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_kernel_equals_scalar_replay_random_policies(pl, points, seed):
    check_kernel(pl, points, seed)


@given(st.integers(0, 2**32 - 1), st.lists(st.tuples(demand, demand), min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_kernel_equals_scalar_replay_pareto_policies(seed, points):
    region = random_region(np.random.default_rng(seed))
    try:
        c_star = cstar_bisection(region, RW, 1e-4).c_star
        pl = solve_pareto(region, RW, 0.9 * c_star).p_star
    except PlparetoError:
        assume(False)
    check_kernel(pl, points, seed)


@given(valid_pl(), st.lists(demand, min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_pl_values_equal_call(pl, xs):
    assert pl.values(np.array(xs)).tolist() == [pl(x) for x in xs]


@pytest.mark.parametrize("n_bps", [2, 3, 4, 8, 9])
@pytest.mark.parametrize("compare_bps", [None, 0, 99])
def test_pl_values_by_comparison_equal_at(n_bps, compare_bps, monkeypatch):
    # up to _COMPARE_BPS breakpoints values finds the segment by comparisons,
    # above by searchsorted; each must give at's bits at every count (0 and 99
    # force one lookup), also at duplicate abscissae, on breakpoints, one ulp
    # beside them and outside the span
    if compare_bps is not None:
        monkeypatch.setattr(plfunction, "_COMPARE_BPS", compare_bps)
    rng = np.random.default_rng(n_bps)
    for dup in range(n_bps):
        xs = np.sort(rng.uniform(0.0, 30.0, n_bps))
        xs[dup] = xs[dup - 1] if dup else xs[0]
        ps = np.sort(rng.uniform(0.0, 20.0, n_bps))[::-1]
        pl = PLFunction(tuple(zip(xs.tolist(), ps.tolist())))
        x = np.concatenate([xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
                            rng.uniform(-5.0, 35.0, 200), [-1e300, -0.0, 0.0, 1e300]])
        want = np.array(pl.at(x.tolist())).tobytes()
        assert pl.values(x).tobytes() == want
        assert pl.values(x, out=x).tobytes() == x.tobytes() == want  # in place, as replay does


def test_pl_values_tolerated_inversion():
    pl = PLFunction(((0.0, 12.0), (5.0, 9.0), (5.0 - 5e-10, 9.0), (20.0, 4.0)))
    xs = [0.0, 2.5, 5.0 - 5e-10, 5.0 - 2.5e-10, 5.0, 12.0, 25.0]
    assert pl.values(np.array(xs)).tolist() == [pl(x) for x in xs]


def test_chunk_arrays_match_unit_chunks():
    for x, y in ((3.5, 2.0), (0.0, 0.0), (1e-13, 4.25), (22.0, 0.75)):
        sizes, is_low = chunk_arrays(x, y)
        chunks = unit_chunks(x, y)
        assert sizes.tolist() == [c.size for c in chunks]
        assert is_low.tolist() == [c.kind == "low" for c in chunks]


def test_chunk_arrays_cap():
    # the cap counts whole units; fractional remainders ride along
    sizes, is_low = chunk_arrays(MAX_CHUNKS - 4000 + 0.5, 4000.75)
    assert sizes.size == MAX_CHUNKS + 2 and is_low.sum() == MAX_CHUNKS - 4000 + 1
    for x, y in ((MAX_CHUNKS + 1.0, 0.0), (0.0, MAX_CHUNKS + 1.5), (6000.0, 4001.0), (1e9, 0.0)):
        with pytest.raises(TooManyChunks):
            chunk_arrays(x, y)


@pytest.mark.parametrize("x,y", [(-3.5, 2.0), (2.0, -0.25), (float("nan"), 1.0), (float("inf"), 0.0)])
def test_chunk_arrays_rejects_bad_demand(x, y):
    with pytest.raises(ValueError, match="demand must be"):
        unit_chunks(x, y)


def test_chunk_runs_raises_for_the_first_bad_instance():
    # the per-instance loop raised the error of the first bad instance
    with pytest.raises(TooManyChunks, match=r"\(1000000000\.0, 0\.0\)"):
        chunk_runs([2.5, 1e9, float("nan")], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="demand must be finite"):
        chunk_runs([2.5, float("nan"), 1e9], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="demand must be nonnegative"):
        chunk_runs([2.5, 3.0], [-1.0, float("inf")])


def test_evaluate_stochastic_rejects_too_many_chunks():
    pl = constant_pl(8.0, 20.0)
    with pytest.raises(TooManyChunks):
        evaluate(pl, [DemandPoint(1e9, 0.0)], "stochastic", RW, np.random.default_rng(0), 3)
    # the adversarial order replays two chunks whatever the totals: 12 of
    # the low demand is served, against 20 in hindsight
    assert evaluate(pl, [DemandPoint(1e9, 0.0)], "adversarial", RW).worst_cp == pytest.approx(0.6)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 62])
@pytest.mark.parametrize("rows", [1, 7, 600])
def test_permuted_rows_equal_sequential_permutations(n, rows):
    # _blocks draws a block's orders of one instance with one rng.permuted
    # call; it must give the rows, and leave the generator in the state, of
    # one rng.permutation call per row
    one, each = np.random.default_rng(n * 1000 + rows), np.random.default_rng(n * 1000 + rows)
    got = one.permuted(np.broadcast_to(np.arange(n), (rows, n)), axis=1)
    want = np.array([each.permutation(n) for _ in range(rows)]).reshape(rows, n)
    assert got.tolist() == want.tolist()
    assert one.random() == each.random()


@pytest.mark.parametrize("n", [0, 1, 2, 5, 62])
@pytest.mark.parametrize("cols", [1, 7, 600])
def test_permuted_column_view_equals_sequential_permutations(n, cols):
    # _blocks shuffles an instance's columns of a block's (steps, replays)
    # index matrix in place; that must give the columns, and leave the
    # generator in the state, of one rng.permutation call per column, and
    # must not touch the matrix outside the view
    one, each = np.random.default_rng(n * 1000 + cols), np.random.default_rng(n * 1000 + cols)
    idx = np.full((n + 3, cols + 5), -1)
    view = idx[:n, 2:2 + cols]
    view[...] = np.arange(n)[:, None]
    one.permuted(view, axis=0, out=view)
    want = np.array([each.permutation(n) for _ in range(cols)]).reshape(cols, n)
    assert view.T.tolist() == want.tolist()
    assert one.bit_generator.state == each.bit_generator.state
    view[...] = -1
    assert (idx == -1).all()


def test_kernel_equals_scalar_replay_single_column():
    # np.add.reduce sums a lone column pairwise, not step by step
    pl = PLFunction(((0.0, 14.0), (6.0, 11.0), (18.0, 5.0)))
    rng = np.random.default_rng(4)
    for x, y in ((17.3, 12.6), (31.7, 3.2), (2.9, 28.4)):
        sizes, is_low = chunk_arrays(x, y)
        chunks = unit_chunks(x, y)
        perm = rng.permutation(len(chunks))
        got = replay_ratios(pl, RW, sizes[perm, None], is_low[perm, None]).tolist()
        assert got == [scalar_ratio([chunks[i] for i in perm], pl)]
    testset = [DemandPoint(17.3, 12.6)]
    got = evaluate(pl, testset, "stochastic", RW, np.random.default_rng(9), n_perms=1)
    assert got.per_instance == scalar_evaluate(pl, testset, "stochastic",
                                               np.random.default_rng(9), 1)


def test_empty_batch_ratios_are_one():
    out = replay_ratios(constant_pl(8.0, 20.0), RW, np.zeros((0, 3)), np.zeros((0, 3), bool))
    assert out.tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("seed", range(6))
def test_zero_size_low_chunks_equal_scalar_replay(seed):
    # zero-size chunks flagged low, mid-sequence and as padding: the kernel
    # finds them among the low cells and must replay them as offer does
    # Arrival("low", 0.0); the batches of evaluate pad with high zeros only
    rng = np.random.default_rng(seed)
    pl = PLFunction(((0.0, 14.0), (6.0, 11.0), (18.0, 5.0)))
    rows, expected = [], []
    for x, y in rng.uniform(0, 30, size=(9, 2)).tolist() + [(0.0, 0.0), (25.0, 0.0)]:
        sizes, is_low = chunk_arrays(x, y)
        perm = rng.permutation(sizes.size)
        sizes, is_low = sizes[perm], is_low[perm]
        at = np.sort(rng.integers(0, sizes.size + 1, size=rng.integers(0, 4)))
        sizes, is_low = np.insert(sizes, at, 0.0), np.insert(is_low, at, True)
        rows.append((sizes, is_low))
        expected.append(scalar_ratio(
            [Arrival("low" if low else "high", s) for s, low in zip(sizes.tolist(), is_low)], pl))
    sizes, is_low = batch(rows)
    is_low |= sizes == 0.0  # the padding too
    assert replay_ratios(pl, RW, sizes, is_low).tolist() == expected


def test_replay_block_peak_memory():
    # one seeded stochastic block of 512 replays; its (steps, replays) work
    # arrays are the thread's kept buffers, made by the first call, so the
    # second call's traced peak stays well below 5 times the sizes matrix
    rng = np.random.default_rng(21)
    xy = harness._sample_points(DemandModel(), 100, rng).T
    sizes, is_low = next(harness._blocks(chunk_runs(*xy), 20, rng))
    assert sizes.shape[1] == harness._BLOCK_ROWS
    pl = PLFunction(((0.0, 14.0), (6.0, 11.0), (18.0, 5.0)))
    want = replay_ratios(pl, RW, sizes, is_low)
    tracemalloc.start()
    try:
        got = replay_ratios(pl, RW, sizes, is_low)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == want.tolist()
    assert peak <= 5 * sizes.nbytes, peak / sizes.nbytes


@pytest.mark.parametrize("order", ["adversarial", "stochastic"])
def test_evaluate_equals_scalar_reference(order):
    rng = np.random.default_rng(11)
    testset = [DemandPoint(float(x), float(y)) for x, y in rng.uniform(0, 35, size=(15, 2))]
    testset += [DemandPoint(0.0, 0.0), DemandPoint(0.0, 7.5), DemandPoint(25.0, 0.0)]
    pl = PLFunction(((0.0, 14.0), (6.0, 11.0), (18.0, 5.0)))
    got = evaluate(pl, testset, order, RW, np.random.default_rng(3), n_perms=9)
    want = scalar_evaluate(pl, testset, order, np.random.default_rng(3), 9)
    assert got.per_instance == want
    assert got.avg_cp == sum(want) / len(want)
    assert got.worst_cp == min(want)


def test_evaluate_equals_scalar_reference_across_blocks():
    # more replays of one instance than one batch holds
    n_perms = harness._BLOCK_ROWS + 37
    testset = [DemandPoint(12.5, 9.25), DemandPoint(3.0, 17.5)]
    pl = constant_pl(8.0, 20.0)
    got = evaluate(pl, testset, "stochastic", RW, np.random.default_rng(8), n_perms)
    assert got.per_instance == scalar_evaluate(pl, testset, "stochastic",
                                               np.random.default_rng(8), n_perms)


def test_evaluate_above_the_kept_cells_equals_scalar_reference():
    # 150-200 units per coordinate: a block of 512 replays has about 350
    # steps, far above _KEEP_CELLS, so its work arrays are fresh ones
    testset = [DemandPoint(171.25, 158.5), DemandPoint(150.0, 196.75), DemandPoint(3.0, 2.5)]
    pl = PLFunction(((0.0, 14.0), (6.0, 11.0), (18.0, 5.0)))
    xy = [pt.x for pt in testset], [pt.y for pt in testset]
    sizes, _ = next(harness._blocks(chunk_runs(*xy), 90, np.random.default_rng(4)))
    assert sizes.size > engine._KEEP_CELLS
    evaluate(pl, testset[2:], "stochastic", RW, n_perms=9)  # fills the kept buffers
    kept = dict(vars(engine._kept))
    got = evaluate(pl, testset, "stochastic", RW, np.random.default_rng(4), n_perms=90)
    assert got.per_instance == scalar_evaluate(pl, testset, "stochastic",
                                               np.random.default_rng(4), 90)
    # a large block pins nothing more: the kept buffers are the same
    assert len(kept) == 6 and vars(engine._kept).keys() == kept.keys()
    assert all(vars(engine._kept)[key] is buf and buf.size == engine._KEEP_CELLS
               for key, buf in kept.items())


def test_threads_replay_in_their_own_buffers():
    # three threads evaluate at once, each in its own kept buffers, and get
    # what serial runs get
    policies = [PLFunction(((0.0, 14.0), (6.0, 11.0), (18.0, 5.0))), constant_pl(8.0, 20.0),
                PLFunction(((0.0, 16.0), (10.0, 6.0)))]
    testset = [DemandPoint(float(x), float(y))
               for x, y in np.random.default_rng(5).uniform(0, 35, size=(60, 2))]

    def run(i):
        return [evaluate(policies[i], testset, "stochastic", RW, np.random.default_rng(i),
                         n_perms=3 + 4 * i).per_instance for _ in range(5)]

    want = [run(i) for i in range(3)]
    got = [None] * 3
    start = threading.Barrier(3)

    def work(i):
        start.wait()
        got[i] = run(i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads between the blocks' numpy calls
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == want


CHURN_PROBE = """
import resource
from plpareto import ExperimentConfig, Rewards, run_experiment

def call(seed):
    cfg = ExperimentConfig(advice_kind="box", order="stochastic", K=1, n_test=100,
                           n_perms=12, z=0.9, c_rule=0.9, seed=seed)
    run_experiment(cfg, Rewards(1.0 / 3.0, 1.0, 20.0))

for seed in range(1, 21):
    call(seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(1, 21):
    call(seed)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt counts minor page faults on Linux")
def test_stochastic_replay_does_not_churn_the_heap():
    # the replay's (steps, replays) arrays reuse kept buffers, so once a pass
    # over the same seeds has touched their pages the heap neither grows nor
    # shrinks per block: the 20 calls read 0-1 faults in all, where fresh
    # arrays per block made about 300 per call.  The warm-up is that pass, not
    # one call, since blocks larger than one call's would first touch kept
    # pages in the count (17-31 faults, placed by the heap layout).  A new
    # interpreter, since the test process's heap need not give pages back
    paths = [str(Path(plpareto.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", CHURN_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert int(out) < 2 * 20, out


def loop_chunk_arrays(x, y):
    """chunk_arrays as it was written per instance, before chunk_runs."""
    DemandPoint(x, y)
    parts = []
    for total in (x, y):
        n, frac = int(total), total - int(total)
        parts.append(np.append(np.ones(n), frac) if frac > 1e-12 else np.ones(n))
    sizes = np.concatenate(parts)
    return sizes, np.arange(sizes.size) < parts[0].size


def per_instance_stochastic_blocks(testset, reps, rng):
    """The stochastic blocks as _blocks built them per instance: one
    loop_chunk_arrays per instance and one rng.permuted call on stacked
    arange rows per instance and block, gathered into the block."""
    chunks = [loop_chunk_arrays(pt.x, pt.y) for pt in testset]
    n_rows = len(chunks) * reps
    for start in range(0, n_rows, harness._BLOCK_ROWS):
        stop = min(start + harness._BLOCK_ROWS, n_rows)
        instances = range(start // reps, (stop - 1) // reps + 1)
        width = max(chunks[i][0].size for i in instances)
        sizes = np.zeros((width, stop - start))
        is_low = np.zeros((width, stop - start), dtype=bool)
        for i in instances:
            a, b = max(start, i * reps) - start, min(stop, (i + 1) * reps) - start
            c_sizes, c_low = chunks[i]
            order = np.broadcast_to(np.arange(c_sizes.size), (b - a, c_sizes.size))
            order = rng.permuted(order, axis=1)
            sizes[:c_sizes.size, a:b] = c_sizes[order.T]
            is_low[:c_sizes.size, a:b] = c_low[order.T]
        yield sizes, is_low


def check_stochastic_blocks(testset, reps, seed):
    one, each = np.random.default_rng(seed), np.random.default_rng(seed)
    xy = [pt.x for pt in testset], [pt.y for pt in testset]
    # a block is the thread's kept buffers until the next one: keep copies
    got = [(s.copy(), low.copy()) for s, low in harness._blocks(chunk_runs(*xy), reps, one)]
    want = list(per_instance_stochastic_blocks(testset, reps, each))
    assert len(got) == len(want) == -(-len(testset) * reps // harness._BLOCK_ROWS)
    for (g_sizes, g_low), (w_sizes, w_low) in zip(got, want):
        assert g_sizes.shape == w_sizes.shape and g_low.shape == w_low.shape
        assert g_sizes.dtype == w_sizes.dtype and g_low.dtype == w_low.dtype
        assert (g_sizes == w_sizes).all() and (g_low == w_low).all()
    assert one.bit_generator.state == each.bit_generator.state


STOCHASTIC_TESTSETS = {
    "integer": [(3.0, 4.0), (17.0, 2.0), (1.0, 1.0)],
    "tiny fractions": [(2.0 + 5e-13, 3.0 + 2e-12), (5e-13, 2e-12), (2e-12, 5e-13), (4.0, 5e-13)],
    "empty": [(0.0, 0.0), (3.5, 1.25), (0.0, 0.0)],
    "all empty": [(0.0, 0.0), (5e-13, 0.0)],
    "x only": [(7.25, 0.0), (12.0, 0.0), (0.5, 0.0)],
    "y only": [(0.0, 7.25), (0.0, 12.0), (0.0, 0.5)],
    "mixed": [(12.5, 9.25), (0.0, 0.0), (3.0, 17.5), (0.75, 0.0), (0.0, 22.0), (31.7, 3.2)],
}


def test_chunk_arrays_equal_per_instance_loop():
    for x, y in [pt for case in STOCHASTIC_TESTSETS.values() for pt in case]:
        for got, want in zip(chunk_arrays(x, y), loop_chunk_arrays(x, y)):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("reps", [1, 7, 512 + 37])
@pytest.mark.parametrize("case", sorted(STOCHASTIC_TESTSETS))
def test_stochastic_blocks_equal_per_instance_construction(case, reps):
    testset = [DemandPoint(x, y) for x, y in STOCHASTIC_TESTSETS[case]]
    check_stochastic_blocks(testset, reps, reps * 31 + len(case))


def test_stochastic_blocks_at_max_chunks():
    # whole units summing to exactly MAX_CHUNKS, with and without remainders
    testset = [DemandPoint(MAX_CHUNKS - 4000 + 0.5, 4000.25), DemandPoint(2.0, 3.0),
               DemandPoint(MAX_CHUNKS - 1.0, 1.0)]
    check_stochastic_blocks(testset, 2, 5)


@pytest.mark.parametrize("n_test,reps", [(511, 1), (512, 1), (513, 1), (73, 7), (74, 7), (147, 7)])
def test_stochastic_blocks_at_the_block_edge(n_test, reps):
    # 511, 512 and 513 replays, and instances that straddle a block edge
    xy = np.random.default_rng(n_test).uniform(0, 35, size=(n_test, 2))
    xy[::7, 0] = 0.0
    xy[::5, 1] = 0.0
    xy[::11] = np.floor(xy[::11])
    check_stochastic_blocks([DemandPoint(float(x), float(y)) for x, y in xy], reps, n_test)


def per_instance_adversarial_blocks(testset):
    """The adversarial blocks as _blocks built them per instance: one
    broadcast ``arange`` order and one gather of (x, y) per instance."""
    chunks = [(np.array([pt.x, pt.y]), np.array([True, False])) for pt in testset]
    for start in range(0, len(chunks), harness._BLOCK_ROWS):
        stop = min(start + harness._BLOCK_ROWS, len(chunks))
        sizes = np.zeros((2, stop - start))
        is_low = np.zeros((2, stop - start), dtype=bool)
        for i in range(start, stop):
            c_sizes, c_low = chunks[i]
            order = np.broadcast_to(np.arange(c_sizes.size), (1, c_sizes.size))
            sizes[:, i - start:i - start + 1] = c_sizes[order.T]
            is_low[:, i - start:i - start + 1] = c_low[order.T]
        yield sizes, is_low


@pytest.mark.parametrize("n_test", [1, 511, 512, 513, 1100])
def test_adversarial_blocks_equal_per_instance_construction(n_test):
    # n_test around _BLOCK_ROWS = 512: one block, a full block, a full block
    # plus one replay, and a partial third block
    xy = np.random.default_rng(n_test).uniform(0, 35, size=(n_test, 2))
    xy[::7, 0] = 0.0
    xy[::5, 1] = 0.0
    testset = [DemandPoint(float(x), float(y)) for x, y in xy]
    got = list(harness._blocks(xy.T.copy(), 1, None))
    want = list(per_instance_adversarial_blocks(testset))
    assert len(got) == len(want) == -(-n_test // harness._BLOCK_ROWS)
    for (g_sizes, g_low), (w_sizes, w_low) in zip(got, want):
        assert g_sizes.shape == w_sizes.shape and g_low.shape == w_low.shape
        assert (g_sizes == w_sizes).all() and (g_low == w_low).all()
    pl = PLFunction(((0.0, 14.0), (6.0, 11.0), (18.0, 5.0)))
    assert evaluate(pl, testset, "adversarial", RW).per_instance == scalar_evaluate(
        pl, testset, "adversarial", None, 1)


# run_experiment(...).per_trial for ExperimentConfig(advice_kind=kind,
# order=order, K=3, n_test=12, n_perms=6, z=0.9, c_rule=0.9, seed=2024) and
# Rewards(1/3, 1, 20).  The ratios were first recorded with the scalar replay
# (one run_sequence per sequence) before evaluate was batched; the box and
# ellipse rows were re-captured when the trials' C* changed from bisection's
# feasible end to the exact value by enumeration (ratios moved by up to
# 5.7e-7).  The ellipse rows were re-captured again when the MVEE fit gained
# its Newton polish and stopped at another point within its tolerance
# (ratios moved by up to 9.0e-11).  The ellipse-stochastic row was
# re-captured when each bound curve was seeded at its own envelope's
# breakpoints only (one ratio moved by 2.2e-16).  The ellipse rows were
# re-captured when the MVEE weights came to be fitted in a whitened frame and
# the polygon's shape from a closed-form 2x2 square root, which moved the
# fitted ellipses in their last bits (ratios moved by up to 1.1e-15).  They
# were re-captured once more when the fit came to start from the extreme
# points, switch to Newton steps at error 0.1 and polish the weights to
# rounding level, and its centre, scatter and distances came to be taken in
# the whitened frame (ratios moved by up to 1.1e-14).
GOLDEN = {
    ('none', 'adversarial'): ((0.7144100949456819, 0.6355028278161113), (0.7144100949456819, 0.6355028278161113), (0.7144100949456819, 0.6355028278161113)),
    ('none', 'stochastic'): ((0.8079382996702819, 0.7606301584837866), (0.8112403740117423, 0.7345810450225545), (0.8022180362233066, 0.7301801727486364)),
    ('point', 'adversarial'): ((0.7761325558901846, 0.6963231783473836), (0.8872216635804103, 0.806160875720094), (0.9592396848278885, 0.8809743445267054)),
    ('point', 'stochastic'): ((0.8457093697868965, 0.7805038527104736), (0.9063109052283504, 0.8200340962074804), (0.9617923193600376, 0.8876558688413425)),
    ('grid', 'adversarial'): ((0.9559863723731424, 0.8826428164112659), (0.9617539907995903, 0.9073568152707812), (0.96286777181769, 0.920514293351568)),
    ('grid', 'stochastic'): ((0.9559863723731424, 0.8826428164112655), (0.9617539907995903, 0.907356815270781), (0.9628677718176899, 0.9205142933515681)),
    ('box', 'adversarial'): ((0.8708681427476458, 0.7935683416896209), (0.912918522364174, 0.8177992363080998), (0.9324843155122834, 0.8417941500140098)),
    ('box', 'stochastic'): ((0.885349946623386, 0.8054323079853777), (0.9147844967319693, 0.8177992363080998), (0.9326594664603315, 0.8417941500140099)),
    ('ellipse', 'adversarial'): ((0.878304320025557, 0.7943921711499135), (0.9015972000763594, 0.8146005749771228), (0.9355765876058846, 0.853178723986272)),
    ('ellipse', 'stochastic'): ((0.888647753359476, 0.8059815276255726), (0.9090052747579648, 0.8146005749771228), (0.9408341136019711, 0.8531787239862719)),
}


@pytest.mark.parametrize("kind,order", sorted(GOLDEN))
def test_run_experiment_golden(kind, order):
    cfg = ExperimentConfig(advice_kind=kind, order=order, K=3, n_test=12,
                           n_perms=6, z=0.9, c_rule=0.9, seed=2024)
    assert run_experiment(cfg, RW).per_trial == GOLDEN[(kind, order)]
