"""The shared numeric tolerance.

All boundary comparisons in the package (ball membership, budget
thresholds, event-time bisection) use one absolute tolerance, ``EPS``.
"""

#: Absolute tolerance for distances, values and event times.
EPS = 1e-9
#: Alias of ``EPS`` read by ``perfbench/workloads.py``; it goes when the benchmark does.
EPS_TIME = EPS
