"""Online service with deadlines/delay on finite metric spaces.

Library layout:

- :mod:`metricserve.metric` -- shortest-path metric, balls, perforated
  balls, edge-part measures.
- :mod:`metricserve.steiner` -- Steiner-tree and prize-collecting
  Steiner-tree solvers (constant-factor approximations; the exact
  solvers that audit them are test oracles in ``tests/exact.py``).
- :mod:`metricserve.instance` -- request/instance model, JSON format,
  seeded generators.
- :mod:`metricserve.config` -- the shared numeric tolerance ``EPS``.
- :mod:`metricserve.levels` -- integer levels with a bottom element.
- :mod:`metricserve.walks` -- walk expansion, walk costs, tree tours.
- :mod:`metricserve.engine` -- state both online engines share.
- :mod:`metricserve.deadline_engine` -- deadline-triggered online
  service runs.
- :mod:`metricserve.delay_engine` -- residual-delay-triggered online
  service runs.
- :mod:`metricserve.offline_oracle` -- exact offline optimum with timed
  traces.
- :mod:`metricserve.analysis` -- service classification, charging
  cylinders, perforated partitions, charge reports.
- :mod:`metricserve.cli` -- operator commands (generate / run / opt /
  verify / report).
"""

from .metric import (
    Ball,
    MetricSpace,
    PerforatedBall,
    WeightedGraph,
    build_metric,
    ball_points,
    shape_edge_measure,
)
from .instance import (
    DeadlineRequest,
    DelayFunction,
    DelayRequest,
    Instance,
    generate,
    parse_instance,
    serialize_instance,
)
from .steiner import pcst_approx, steiner_approx
from .deadline_engine import run_deadline
from .delay_engine import run_delay
from .offline_oracle import opt_deadline, opt_delay, opt_edges_during
from .analysis import charge_report, classify

__all__ = [
    "Ball",
    "MetricSpace",
    "PerforatedBall",
    "WeightedGraph",
    "build_metric",
    "ball_points",
    "shape_edge_measure",
    "DeadlineRequest",
    "DelayFunction",
    "DelayRequest",
    "Instance",
    "generate",
    "parse_instance",
    "serialize_instance",
    "steiner_approx",
    "pcst_approx",
    "run_deadline",
    "run_delay",
    "opt_deadline",
    "opt_delay",
    "opt_edges_during",
    "classify",
    "charge_report",
]
