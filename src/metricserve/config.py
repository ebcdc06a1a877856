"""Shared numeric tolerances.

All boundary comparisons in the package (ball membership, budget
thresholds, event-time bisection) use one absolute tolerance, 1e-9,
named below by what it compares.
"""

#: Absolute tolerance for geometric comparisons (distances, measures).
EPS_GEO = 1e-9
#: Absolute tolerance for value comparisons (delay, budgets, counters).
EPS_VAL = EPS_GEO
#: Absolute tolerance for event times (bisection stopping, tie detection).
EPS_TIME = EPS_GEO
