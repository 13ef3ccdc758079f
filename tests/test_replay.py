"""The batched replay (``replay_ratios`` / ``evaluate``) against the scalar
reference (``offer`` / ``run_sequence``): ratios must be equal, not close."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from plpareto import (
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
from plpareto.engine import MAX_CHUNKS, chunk_arrays, chunk_runs, replay_ratios
from plpareto.errors import TooManyChunks
from plpareto import harness

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
    got = list(harness._blocks(chunk_runs(*xy), reps, one))
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
# breakpoints only (one ratio moved by 2.2e-16).
GOLDEN = {
    ('none', 'adversarial'): ((0.7144100949456819, 0.6355028278161113), (0.7144100949456819, 0.6355028278161113), (0.7144100949456819, 0.6355028278161113)),
    ('none', 'stochastic'): ((0.8079382996702819, 0.7606301584837866), (0.8112403740117423, 0.7345810450225545), (0.8022180362233066, 0.7301801727486364)),
    ('point', 'adversarial'): ((0.7761325558901846, 0.6963231783473836), (0.8872216635804103, 0.806160875720094), (0.9592396848278885, 0.8809743445267054)),
    ('point', 'stochastic'): ((0.8457093697868965, 0.7805038527104736), (0.9063109052283504, 0.8200340962074804), (0.9617923193600376, 0.8876558688413425)),
    ('grid', 'adversarial'): ((0.9559863723731424, 0.8826428164112659), (0.9617539907995903, 0.9073568152707812), (0.96286777181769, 0.920514293351568)),
    ('grid', 'stochastic'): ((0.9559863723731424, 0.8826428164112655), (0.9617539907995903, 0.907356815270781), (0.9628677718176899, 0.9205142933515681)),
    ('box', 'adversarial'): ((0.8708681427476458, 0.7935683416896209), (0.912918522364174, 0.8177992363080998), (0.9324843155122834, 0.8417941500140098)),
    ('box', 'stochastic'): ((0.885349946623386, 0.8054323079853777), (0.9147844967319693, 0.8177992363080998), (0.9326594664603315, 0.8417941500140099)),
    ('ellipse', 'adversarial'): ((0.8783043200255674, 0.7943921711499202), (0.9015972000763592, 0.8146005749771226), (0.9355765876058845, 0.8531787239862709)),
    ('ellipse', 'stochastic'): ((0.8886477533594835, 0.8059815276255774), (0.9090052747579648, 0.8146005749771227), (0.9408341136019706, 0.8531787239862708)),
}


@pytest.mark.parametrize("kind,order", sorted(GOLDEN))
def test_run_experiment_golden(kind, order):
    cfg = ExperimentConfig(advice_kind=kind, order=order, K=3, n_test=12,
                           n_perms=6, z=0.9, c_rule=0.9, seed=2024)
    assert run_experiment(cfg, RW).per_trial == GOLDEN[(kind, order)]
