"""Level arithmetic: bottom element, robust dyadic logs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metricserve.levels import (
    BOTTOM,
    adjusted_level,
    ceil_log2,
    clamp_bottom,
    floor_log2,
)
from metricserve.metric import NumericRangeError


def test_bottom_ordering():
    assert BOTTOM <= -100
    assert BOTTOM <= BOTTOM
    assert not 0 <= BOTTOM
    assert max(BOTTOM, 3) == 3
    assert max(-5, BOTTOM) == -5
    assert clamp_bottom(BOTTOM, -2) == -2
    assert clamp_bottom(7, -2) == 7
    assert clamp_bottom(-5, -2) == -5  # not max(level, floor): only BOTTOM is clamped


def test_ceil_log2_values():
    assert ceil_log2(1.0) == 0
    assert ceil_log2(5.0) == 3
    assert ceil_log2(8.0) == 3
    assert ceil_log2(0.3) == -1


def test_ceil_log2_noise_near_powers():
    # eps-sized overshoot of an exact power must not bump the level
    assert ceil_log2(4.0 + 1e-13) == 2
    assert ceil_log2(4.0 - 1e-13) == 2
    assert ceil_log2(4.0 + 1e-6) == 3


def test_floor_log2_values():
    assert floor_log2(1.0) == 0
    assert floor_log2(7.9) == 2
    assert floor_log2(8.0) == 3
    assert floor_log2(8.0 - 1e-13) == 3
    assert floor_log2(0.49) == -2


@given(st.floats(min_value=2e-9, max_value=1e9))
def test_log_bounds_consistent(x):
    k = ceil_log2(x)
    assert 2.0**k >= x - 1e-9
    assert 2.0 ** (k - 1) < x
    j = floor_log2(x)
    assert 2.0**j <= x + 1e-9
    assert 2.0 ** (j + 1) > x


@pytest.mark.parametrize("x", [1e-9, 5e-10, 2.0**-34, 5e-324])
def test_ceil_log2_within_eps_of_zero_is_out_of_range(x):
    """No level is robust to eps-sized noise there; it is a range error, not
    a loop that never ends.  floor_log2 still answers."""
    with pytest.raises(NumericRangeError):
        ceil_log2(x)
    assert 2.0 ** floor_log2(x) <= x + 1e-9


@pytest.mark.parametrize("f", [ceil_log2, floor_log2])
@pytest.mark.parametrize("x", [0.0, -1.0])
def test_log2_of_non_positive_is_a_value_error(f, x):
    with pytest.raises(ValueError):
        f(x)


def test_distance_level_degenerate():
    assert adjusted_level(BOTTOM, 0.0) is BOTTOM
    assert adjusted_level(BOTTOM, 1e-12) is BOTTOM  # below tolerance counts as zero
    assert adjusted_level(BOTTOM, 2.0) == 1


def test_adjusted_level_mixing():
    assert adjusted_level(2, 5.0) == 3
    assert adjusted_level(4, 5.0) == 4
    assert adjusted_level(BOTTOM, 0.0) is BOTTOM
    assert adjusted_level(1, 0.0) == 1
