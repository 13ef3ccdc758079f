import pytest

from plpareto import InvalidInput, PLFunction, constant_pl
from plpareto.plfunction import too_steep


def test_interpolation_and_clamping():
    pl = PLFunction(((0.0, 10.0), (10.0, 5.0)))
    assert pl(-1.0) == 10.0
    assert pl(0.0) == 10.0
    assert pl(5.0) == 7.5
    assert pl(10.0) == 5.0
    assert pl(99.0) == 5.0


def test_unsorted_breakpoints_rejected():
    with pytest.raises(ValueError):
        PLFunction(((1.0, 1.0), (0.0, 2.0)))
    with pytest.raises(ValueError):
        PLFunction(())


@pytest.mark.parametrize("back, raises", [(5e-10, False), (1e-8, True)])
def test_breakpoints_may_step_back_by_slope_tol_only(back, raises):
    # SLOPE_TOL = 1e-9 absorbs a built curve's rounding of x, not a real inversion
    bps = ((0.0, 10.0), (5.0, 8.0), (5.0 - back, 8.0), (20.0, 5.0))
    if raises:
        with pytest.raises(InvalidInput, match="sorted by x"):
            PLFunction(bps)
    else:
        assert PLFunction(bps).breakpoints == bps


def test_constant_is_valid():
    pl = constant_pl(8.0, 20.0)
    assert pl.validate(20.0) == []


def test_validate_flags_violations():
    m = 20.0
    assert any("RangeViolation" in v for v in PLFunction(((0.0, 25.0), (5.0, 25.0))).validate(m))
    assert any("SlopeViolation" in v for v in PLFunction(((0.0, 10.0), (5.0, 0.0))).validate(m))
    assert any("IncreaseViolation" in v for v in PLFunction(((0.0, 1.0), (5.0, 2.0))).validate(m))
    assert any("TailViolation" in v for v in
               PLFunction(((0.0, 19.0), (20.0, 19.0), (25.0, 14.0))).validate(m))


def test_validate_tail_respects_x_bar():
    pl = PLFunction(((0.0, 19.0), (20.0, 19.0), (25.0, 14.0)))
    # a sloped part on [20, 25] is fine when the advice extends to x_bar = 25
    assert pl.validate(20.0, x_bar=25.0) == []


@pytest.mark.parametrize("x_bar", [None, 30.0])
def test_validate_flags_a_sloped_segment_straddling_the_tail(x_bar):
    # [0, 100] starts before max(m, x_bar) and ends past it: the check used
    # to look at the segment's start only
    pl = PLFunction(((0.0, 15.0), (100.0, 5.0)))
    assert any("TailViolation" in v for v in pl.validate(20.0, x_bar=x_bar))
    # ending at the cut, or within SLOPE_TOL past it, is fine
    assert PLFunction(((0.0, 15.0), (30.0, 5.0), (100.0, 5.0))).validate(20.0, 30.0) == []
    assert PLFunction(((0.0, 15.0), (30.0 + 5e-10, 5.0))).validate(20.0, 30.0) == []
    # but ending 1e-8 past it is not
    assert PLFunction(((0.0, 15.0), (30.0 + 1e-8, 5.0))).validate(20.0, 30.0) == [
        "TailViolation: non-constant beyond x = 30.0"]


@pytest.mark.parametrize("level, flagged", [
    (-5e-10, False), (20.0 + 5e-10, False), (-1e-8, True), (20.0 + 1e-8, True)])
def test_validate_takes_a_level_within_slope_tol_of_the_range(level, flagged):
    # SLOPE_TOL = 1e-9 absorbs a built level's rounding, not a real excess
    got = constant_pl(level, 30.0).validate(20.0)
    assert {v.split(":")[0] for v in got} == ({"RangeViolation"} if flagged else set())


@pytest.mark.parametrize("rise, flagged", [(5e-10, False), (1e-8, True)])
def test_validate_takes_a_rise_within_slope_tol_as_flat(rise, flagged):
    got = PLFunction(((0.0, 10.0), (1.0, 10.0 + rise), (25.0, 10.0 + rise))).validate(20.0)
    assert [v.split(":")[0] for v in got] == (["IncreaseViolation"] if flagged else [])


@pytest.mark.parametrize("jump, flagged", [(5e-10, False), (1e-8, True)])
def test_validate_takes_a_jump_within_slope_tol_as_continuous(jump, flagged):
    # a segment narrower than SLOPE_TOL is judged by its jump, not its slope
    pl = PLFunction(((0.0, 10.0), (5.0, 10.0), (5.0 + 5e-10, 10.0 - jump), (25.0, 10.0 - jump)))
    assert pl.validate(20.0) == (["SlopeViolation: jump at x = 5.0"] if flagged else [])


@pytest.mark.parametrize("rise, flagged", [(5e-10, False), (1e-8, True)])
def test_validate_takes_a_narrow_rise_within_slope_tol_as_continuous(rise, flagged):
    # a segment narrower than SLOPE_TOL is judged by its jump either way
    pl = PLFunction(((0.0, 10.0), (5.0, 10.0), (5.0 + 5e-10, 10.0 + rise), (25.0, 10.0 + rise)))
    assert pl.validate(20.0) == (["SlopeViolation: jump at x = 5.0"] if flagged else [])


@pytest.mark.parametrize("slope, flagged", [
    (-0.8, []), (-2.0, ["SlopeViolation"]), (0.5, ["IncreaseViolation"])])
def test_validate_judges_a_segment_wider_than_slope_tol_by_its_slope(slope, flagged):
    # 5e-7 wide: a fall at slope -0.8 drops 4e-7, far above SLOPE_TOL, and
    # is valid; one at slope -2 is not, nor a rise, however small their steps
    p = 10.0 + 5e-7 * slope
    pl = PLFunction(((0.0, 10.0), (5.0, 10.0), (5.0 + 5e-7, p), (25.0, p)))
    assert [v.split(":")[0] for v in pl.validate(20.0)] == flagged
    assert too_steep(5e-7, 10.0 - p) is (slope < -1.0)


@pytest.mark.parametrize("excess, flagged", [(5e-10, False), (1e-8, True)])
def test_validate_takes_a_slope_within_slope_tol_of_minus_one_as_minus_one(excess, flagged):
    # slope -(1 + excess) on [0, 10]
    p = 15.0 - 10.0 * (1.0 + excess)
    pl = PLFunction(((0.0, 15.0), (10.0, p), (25.0, p)))
    assert [v.split(":")[0] for v in pl.validate(20.0)] == (["SlopeViolation"] if flagged else [])


@pytest.mark.parametrize("drop, flagged", [(5e-9, False), (1e-7, True)])
def test_validate_takes_a_tail_slope_within_slope_tol_as_flat(drop, flagged):
    # a segment past the cut m = 20 with slope -drop / 10
    got = PLFunction(((0.0, 15.0), (20.0, 15.0), (30.0, 15.0 - drop))).validate(20.0)
    assert got == (["TailViolation: non-constant beyond x = 20.0"] if flagged else [])


def test_validate_reads_a_slope_starting_within_slope_tol_of_the_cut_as_past_it():
    # [20 - 5e-10, 20 + 9e-10] is wider than SLOPE_TOL, ends before cut +
    # SLOPE_TOL and starts within SLOPE_TOL of the cut: it is sloped at the cut
    pl = PLFunction(((0.0, 15.0), (20.0 - 5e-10, 15.0), (20.0 + 9e-10, 15.0 - 1e-9)))
    assert pl.validate(20.0) == ["TailViolation: non-constant beyond x = 20.0"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_breakpoints_rejected(bad):
    with pytest.raises(ValueError):
        PLFunction(((bad, bad),))
    with pytest.raises(ValueError):
        PLFunction(((0.0, 1.0), (2.0, bad)))


@pytest.mark.parametrize("bps", [((3.0, 2.0),), ((0.0, 10.0), (10.0, 5.0)), ((0.0, 9.0), (4.0, 5.0), (9.0, 5.0))])
def test_call_at_nan_raises_out_of_domain(bps):
    from plpareto.errors import OutOfDomain

    with pytest.raises(OutOfDomain):
        PLFunction(bps)(float("nan"))


def test_values_at_nan_raise_out_of_domain():
    from plpareto.errors import OutOfDomain

    pl = PLFunction(((0.0, 1.0), (2.0, 0.0)))
    with pytest.raises(OutOfDomain):
        pl.values([float("nan"), 1.0])
    assert pl.values([1.0]).tolist() == [pl(1.0)]


@pytest.mark.parametrize("m, x_bar", [
    (float("nan"), None), (float("inf"), None), (0.0, None), (-20.0, None),
    (20.0, float("nan")), (20.0, float("inf")), (20.0, -1.0),
], ids=["m-nan", "m-inf", "m-zero", "m-negative", "x_bar-nan", "x_bar-inf", "x_bar-negative"])
def test_validate_rejects_a_bad_capacity_or_x_bar(m, x_bar):
    # a NaN or infinite m used to pass every range check and read as valid
    with pytest.raises(InvalidInput):
        constant_pl(8.0, 20.0).validate(m, x_bar)
