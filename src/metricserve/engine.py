"""State and bookkeeping shared by the deadline and delay engines.

Both follow one level discipline: a request is revealed at level bottom,
its adjusted level is ``max(level, ceil(log2 d(server, point)))``, and a
service at level L serves some of the requests ``eligible(L)`` returns
while the engine upgrades the rest.  Adjusted levels are memoised.  One
changes only when the server moves or the request's level is upgraded,
so both engines make those two writes through ``move_to`` and
``upgrade``, the only places the memo is cleared.

Under the request regime services build their trees (and the delay engine
picks relocation centers) in the metric closure over released points:
revealed request points plus the start.  So tree hops join released
points only; the closure is rebuilt only when a reveal adds a point.

An engine only ever sees requests revealed to it; the runners feed
releases in time order, so decisions cannot depend on the future.
"""

from __future__ import annotations

from .instance import DeadlineRequest, DelayRequest
from .levels import BOTTOM, Level, adjusted_level, clamp_bottom, min_level
from .metric import MetricSpace, complete_graph_on

__all__ = ["EngineCore", "requests_doc"]


class EngineCore:
    """Online state: revealed pending requests, their levels, the server."""

    def __init__(self, m: MetricSpace, start: int, request_regime: bool = False):
        self.m = m
        self.position = start
        self.request_regime = request_regime
        self.released = {start}  # points of revealed requests, plus the start
        self._space: MetricSpace | None = None
        self.level_floor = min_level(m)
        self.requests: dict[int, DeadlineRequest | DelayRequest] = {}
        self.levels: dict[int, Level] = {}
        self._alevels: dict[int, Level] = {}  # memo of adjusted_level_of
        self.pending: set[int] = set()
        self.records: list = []
        self.service_time: dict[int, float] = {}
        self.serving_service: dict[int, int] = {}

    def reveal(self, q: DeadlineRequest | DelayRequest) -> None:
        self.requests[q.id] = q
        self.levels[q.id] = BOTTOM
        self.pending.add(q.id)
        if q.point not in self.released:
            self.released.add(q.point)
            self._space = None

    def adjusted_level_of(self, qid: int) -> Level:
        """``max(level, ceil(log2 d(server, point)))``, memoised until
        ``move_to`` or ``upgrade`` clears it."""
        alevel = self._alevels.get(qid)
        if alevel is None:  # a miss raises no exception: most are after a move
            q = self.requests[qid]
            alevel = adjusted_level(self.levels[qid], self.m.distance(self.position, q.point))
            self._alevels[qid] = alevel
        return alevel

    def clamped_alevel(self, qid: int) -> int:
        """The adjusted level with BOTTOM clamped to the metric floor."""
        return clamp_bottom(self.adjusted_level_of(qid), self.level_floor)

    def eligible(self, level: int) -> list[int]:
        """Pending requests whose adjusted level is at most ``level``."""
        return [qid for qid in self.pending if self.adjusted_level_of(qid) <= level]

    def move_to(self, point: int) -> None:
        """Move the server; every adjusted level may change."""
        if point != self.position:
            self.position = point
            self._alevels.clear()

    def upgrade(self, qid: int, level: Level) -> None:
        """Raise the level of ``qid``; only its adjusted level may change."""
        self.levels[qid] = level
        self._alevels.pop(qid, None)

    def space(self) -> MetricSpace:
        """The metric services build trees in: the graph metric, or under the
        request regime the closure over released points, built once per set."""
        if self._space is None:
            self._space = (
                complete_graph_on(self.m, self.released) if self.request_regime else self.m
            )
        return self._space

    def serve(self, qids, t: float) -> int:
        """Mark ``qids`` served at time ``t`` by the next service; return its id."""
        sid = len(self.records)
        for qid in qids:
            self.pending.discard(qid)
            self.service_time[qid] = t
            self.serving_service[qid] = sid
        return sid


def requests_doc(service_time: dict[int, float], serving_service: dict[int, int]) -> dict:
    """The trace's ``requests`` block: when and by which service each request was served."""
    return {
        str(qid): {"service_time": service_time[qid], "serving_service": serving_service[qid]}
        for qid in sorted(service_time)
    }
