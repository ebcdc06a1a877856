"""Metric spaces, balls, and the edge-part measure.

The charging analysis never measures node sets; it measures how much of
each graph edge a shape claims.  This script builds a small metric, looks
at a ball's node set versus its edge-part measure, perforates the ball,
and checks the perforation loss against its guaranteed bound.
"""

from metricserve.metric import (
    Ball,
    PerforatedBall,
    WeightedGraph,
    ball_points,
    build_metric,
    shape_edge_measure,
)

g = WeightedGraph(
    node_count=5,
    edges=((0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (1, 4, 4.0), (3, 4, 1.0)),
)
m = build_metric(g)

print("distance matrix:")
print(m.dist)
print(f"smallest positive distance: {m.d_min}")
print(f"aspect ratio: {float(m.dist.max()) / m.d_min:.3f}")

for r in (0.0, 1.0, 2.5, 4.0):
    pts = sorted(ball_points(m, 1, r))
    measure = shape_edge_measure(m, m.edges, Ball(1, r))
    print(f"ball(center=1, r={r}): nodes {pts}, edge measure {measure:.3f}")

# Perforation removes a small ball around every node; what remains is pure
# edge interior.  The loss per edge is at most two hole radii.
r, rho = 3.0, 8.0
ball = shape_edge_measure(m, m.edges, Ball(1, r))
perf = shape_edge_measure(m, m.edges, PerforatedBall(1, r, rho))
bound = 2 * r * m.n**2 / rho
print(f"\nball measure {ball:.3f} vs perforated {perf:.3f} (rho={rho})")
print(f"loss {ball - perf:.3f} <= bound {bound:.3f}:", ball - perf <= bound)
