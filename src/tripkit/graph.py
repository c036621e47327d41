"""Directed profit/cost graph for a query: the shared substrate of both solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .checkins import TimeCostModel, UnknownPoiError
from .scoring import Query, ScoreContext


def budget_limit(budget: float) -> float:
    """The most a trip may cost under `budget`. A running total and a re-summed
    trip cost round differently (by ~1e-13 s); the relative slack of 1e-10
    absorbs that, so a trip whose cost equals its budget fits however its cost
    was added up."""
    return budget + 1e-10 * abs(budget)


def within_budget(cost: float, budget: float) -> bool:
    """The one budget rule: `cost` is at most `budget_limit(budget)`."""
    return cost <= budget_limit(budget)


def better(obj: float, trip: list[int], best_obj: float,
           best_trip: list[int] | None) -> bool:
    """The one tie rule between two trips. B&B sums objectives in path order,
    so two orders of one stop set can differ by a few ulps: objectives within
    a relative 1e-12 tie, and a tie goes to the lexicographically smaller trip;
    otherwise the higher objective wins. Anything beats no trip."""
    if best_trip is None:
        return True
    if math.isclose(obj, best_obj, rel_tol=1e-12):
        return trip < best_trip
    return obj > best_obj


@dataclass(frozen=True)
class Feasibility:
    ok: bool
    reason: str = ""


class PoiGraph:
    """Vertices 0..n-1 with vertex 0 = start POI and vertex n-1 = end POI.

    Vertex profits `vprofit` are query closeness (0 at the endpoints), edge
    profits `eprofit` pairwise similarity, edge costs `cost` = visit time of
    the target plus transit, and `cost_in` its transpose (the costs into each
    vertex). `limit` is `budget_limit(budget)`, held for the solvers' inner
    loops, which compare a cost with it as `within_budget` does. Any n x n
    input (lists or arrays) is stored as plain lists of floats, which the
    solvers index in their inner loops.
    """

    def __init__(self, poi_ids: Sequence[str], vprofit: Sequence[float],
                 eprofit: Sequence[Sequence[float]], cost: Sequence[Sequence[float]],
                 budget: float, start_visit_cost: float):
        self.poi_ids = list(poi_ids)
        self.n = len(poi_ids)
        self.vprofit = [float(p) for p in vprofit]
        self.eprofit = [[float(p) for p in row] for row in eprofit]
        self.cost = [[float(c) for c in row] for row in cost]
        self.cost_in = [list(col) for col in zip(*self.cost)]  # cost_in[v][a] == cost[a][v]
        self.budget = float(budget)
        self.limit = budget_limit(self.budget)
        self.start_visit_cost = float(start_visit_cost)
        if self.n < 2:
            raise ValueError("graph needs at least start and end vertices")
        if self.vprofit[0] != 0.0 or self.vprofit[self.n - 1] != 0.0:
            raise ValueError("endpoint profits must be zero")

    @property
    def start(self) -> int:
        return 0

    @property
    def end(self) -> int:
        return self.n - 1

    def interior(self) -> range:
        return range(1, self.n - 1)

    def trip_cost(self, trip: Sequence[int]) -> float:
        cost = self.start_visit_cost
        for a, b in zip(trip, trip[1:]):
            cost += self.cost[a][b]
        return cost

    def gain(self, v: int, interior: Sequence[int]) -> float:
        """What adding v to a trip with these interior stops adds to its
        objective: v's profit plus its pair profit with each stop, in order."""
        row = self.eprofit[v]
        return self.vprofit[v] + sum(row[u] for u in interior)

    def trip_objective(self, trip: Sequence[int]) -> float:
        """Interior vertex profits plus unordered interior-pair edge profits, summed
        in ascending vertex order, so every order of one stop set has the same bits."""
        interior = sorted(trip[1:-1])
        total = sum(self.vprofit[v] for v in interior)
        for i in range(len(interior)):
            for j in range(i + 1, len(interior)):
                total += self.eprofit[interior[i]][interior[j]]
        return total

    def feasible(self, trip: Sequence[int]) -> Feasibility:
        if len(trip) < 2 or trip[0] != self.start:
            return Feasibility(False, "start")
        if trip[-1] != self.end:
            return Feasibility(False, "end")
        if len(set(trip)) != len(trip):
            return Feasibility(False, "repeat")
        cost = self.trip_cost(trip)
        if not within_budget(cost, self.budget):
            return Feasibility(False, f"budget ({cost:.1f} > {self.budget:.1f})")
        return Feasibility(True)


def reachable_candidates(query: Query, tcm: TimeCostModel,
                         pool: Sequence[str]) -> list[str]:
    """POIs that could appear in some feasible trip: the trip start, p, end must
    fit the budget, summed as `PoiGraph.trip_cost` sums it."""
    start, end = query.start, query.end
    start_visit = tcm.visit_time(start)
    keep = []
    for p in sorted(set(pool)):
        if p in (start, end):
            continue
        if within_budget(start_visit + tcm.leg(start, p) + tcm.leg(p, end), query.budget):
            keep.append(p)
    return [query.start] + keep + [query.end]


def build_graph(ctx: ScoreContext, query: Query, tcm: TimeCostModel,
                candidates: Sequence[str]) -> PoiGraph:
    """Materialize the profit/cost graph over the candidate POIs, scored by
    `ctx` and its model.

    candidates must contain the start and end POIs; when start == end the POI
    occupies two vertices whose mutual transit time is zero.
    """
    cand = list(candidates)
    if query.start not in cand or query.end not in cand:
        raise ValueError("candidates must include the start and end POIs")
    missing = sorted(p for p in cand if p not in ctx.model.poi_vec)
    if missing:
        raise UnknownPoiError(f"candidates missing from the model: {missing}")
    interior = sorted(p for p in set(cand) if p not in (query.start, query.end))
    ids = [query.start] + interior + [query.end]
    n = len(ids)
    vprofit = [0.0] + [ctx.closeness(p) for p in interior] + [0.0]
    eprofit = [[0.0] * n for _ in range(n)]
    cost = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if ids[i] != ids[j]:  # one POI on two vertices (start == end) has no similarity
                eprofit[i][j] = ctx.ncsim(ids[i], ids[j])
            cost[i][j] = tcm.leg(ids[i], ids[j])
    return PoiGraph(ids, vprofit, eprofit, cost, query.budget, tcm.visit_time(query.start))
