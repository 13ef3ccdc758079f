import pytest

from plpareto import PLFunction, constant_pl


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
