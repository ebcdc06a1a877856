"""Integer levels with a bottom element.

Request and service levels are integers, except for the initial level of
a fresh request which is unbounded below.  ``BOTTOM`` (``-math.inf``)
plays that role: ``<=`` and ``max`` already order it below every integer,
and it is clamped to a metric-dependent floor before entering
arithmetic, so that budgets of the form ``2**level`` stay positive.
"""

import math

from . import config
from .metric import MetricSpace, NumericRangeError

#: The unbounded-below initial level.
BOTTOM = -math.inf

Level = int | float


def ceil_log2(x: float) -> int:
    """Smallest integer k with 2**k >= x, robust to eps-sized noise.

    Requires x > 0.  A value within eps below an exact power of two is
    treated as that power (so ceil_log2(4 + 1e-15) == 2).  A value within
    eps of 0 has no such k and raises ``NumericRangeError``.
    """
    if x <= 0:
        raise ValueError(f"ceil_log2 requires a positive argument, got {x}")
    if x <= config.EPS:
        raise NumericRangeError(f"ceil_log2 of {x}, which lies within EPS of 0")
    # frexp: x - EPS = frac * 2**exp with 0.5 <= frac < 1, exact
    frac, exp = math.frexp(x - config.EPS)
    return exp - 1 if frac == 0.5 else exp


def floor_log2(x: float) -> int:
    """Largest integer k with 2**k <= x, robust to eps-sized noise."""
    if x <= 0:
        raise ValueError(f"floor_log2 requires a positive argument, got {x}")
    return math.frexp(x + config.EPS)[1] - 1


def min_level(m: MetricSpace) -> int:
    """Floor for bottom levels entering arithmetic: floor(log2 d_min) - 1."""
    return floor_log2(m.d_min) - 1


def adjusted_level(level: Level, dist: float) -> Level:
    """max(level, ceil(log2 dist)); a distance within ``EPS`` of 0 adds nothing."""
    return level if dist <= config.EPS else max(level, ceil_log2(dist))


def clamp_bottom(level: Level, floor: int) -> int:
    """Replace BOTTOM by the metric floor before arithmetic.  Not ``max(level,
    floor)``: a level set by a distance just above ``EPS`` may lie below it."""
    return floor if level is BOTTOM else level
