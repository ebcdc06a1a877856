"""Integer levels with a bottom element.

Request and service levels are integers, except for the initial level of
a fresh request which is unbounded below.  ``BOTTOM`` (``None``) plays
that role: it compares below every integer and is clamped to a
metric-dependent floor before entering arithmetic, so that budgets of
the form ``2**level`` stay positive.
"""

import math

from . import config

#: Sentinel for the unbounded-below initial level.
BOTTOM = None

Level = int | None


def level_le(a: Level, b: Level) -> bool:
    """a <= b with BOTTOM below every integer."""
    if a is BOTTOM:
        return True
    if b is BOTTOM:
        return False
    return a <= b


def level_max(a: Level, b: Level) -> Level:
    return b if level_le(a, b) else a


def ceil_log2(x: float) -> int:
    """Smallest integer k with 2**k >= x, robust to eps-sized noise.

    Requires x > 0.  A value within eps below an exact power of two is
    treated as that power (so ceil_log2(4 + 1e-15) == 2).
    """
    eps = config.EPS_GEO
    if x <= 0:
        raise ValueError(f"ceil_log2 requires a positive argument, got {x}")
    k = math.ceil(math.log2(x))
    while 2.0 ** (k - 1) >= x - eps:
        k -= 1
    while 2.0**k < x - eps:
        k += 1
    return k


def floor_log2(x: float) -> int:
    """Largest integer k with 2**k <= x, robust to eps-sized noise."""
    eps = config.EPS_GEO
    if x <= 0:
        raise ValueError(f"floor_log2 requires a positive argument, got {x}")
    k = math.floor(math.log2(x))
    while 2.0 ** (k + 1) <= x + eps:
        k += 1
    while 2.0**k > x + eps:
        k -= 1
    return k


def distance_level(dist: float) -> Level:
    """The distance term of an adjusted level: ceil(log2 dist), BOTTOM at 0."""
    if dist <= config.EPS_GEO:
        return BOTTOM
    return ceil_log2(dist)


def adjusted_level(level: Level, dist: float) -> Level:
    """max(level, ceil(log2 dist)) with the zero-distance degenerate rule."""
    return level_max(level, distance_level(dist))


def clamp_bottom(level: Level, floor: int) -> int:
    """Replace BOTTOM by the metric floor before arithmetic."""
    return floor if level is BOTTOM else level
