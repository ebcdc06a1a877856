"""Steiner trees and prize-collecting trees, as the engines solve them.

The online engines only ever call the polynomial approximations, and they
certify them without an exact solver: the metric-closure MST costs at
most twice the optimum (Kou, Markowsky and Berman 1981), so half its cost
is a lower bound on any Steiner tree.  This script shows a Steiner tree
against that bound on a random metric, then the penalty/serve trade-off
that drives the delay engine's time forwarding.
"""

import random

from metricserve.instance import generate
from metricserve.metric import build_metric
from metricserve.steiner import pcst_approx, steiner_approx

rng = random.Random(7)
inst = generate(seed=42, n_points=9, n_requests=0, mode="deadline")
m = build_metric(inst.graph)


def closure_mst_cost(m, terminals):
    """Prim over the metric closure of the terminals."""
    root, *rest = terminals
    best = {t: m.distance(root, t) for t in rest}
    total = 0.0
    while best:
        x = min(best, key=best.get)
        total += best.pop(x)
        for t in best:
            best[t] = min(best[t], m.distance(x, t))
    return total


terminals = set(rng.sample(range(9), 5))
approx = steiner_approx(m, terminals)
lower = closure_mst_cost(m, sorted(terminals)) / 2
print(f"terminals {sorted(terminals)}")
print(f"steiner approx cost {approx.cost:.3f}, OPT >= closure-MST cost / 2 = {lower:.3f}, "
      f"certified ratio {approx.cost / lower:.3f} (guarantee: 2)")
print(f"approx tree edges: {sorted(approx.tree_edges)}")

root = 0
print("\nprize-collecting, root 0: scaling all penalties")
for scale in (0.1, 0.5, 2.0, 10.0):
    pen = {t: scale * m.distance(root, t) for t in terminals}
    a = pcst_approx(m, terminals, pen, root)
    print(f"  scale {scale:5.1f}: tree {a.tree_cost:8.3f} + penalties {a.penalty_cost:8.3f} "
          f"= total {a.total_cost:8.3f} (serves {len(a.served)}/{len(terminals)})")
print("low penalties: pay them all; high penalties: connect everything")
