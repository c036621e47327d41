"""Exact solving: the linearized integer program, its LP-format text export,
and an optimizer by a Held-Karp dynamic program over stop sets."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

from .graph import PoiGraph, better


@dataclass
class Constraint:
    cid: str
    coeffs: dict[str, float]
    sense: str  # '<=', '>=', '='
    rhs: float


@dataclass
class IlpModel:
    """Linearized trip-selection program over a graph with n vertices.

    Variables (1-based vertex indices): edge indicators x_i_j for every ordered
    pair (self-pairs included), pair indicators xp_i_j for i < j <= n-1, and
    integer position variables p_i for i in [2, n].

    Constraint count for n = |V|:
      2 (start/end degree) + 2(n-2) (interior flow/once)
      + 3*C(n-1, 2) (pair-product linearization) + 1 (budget)
      + (n-1)^2 (position-based subtour elimination).
    """
    n: int
    objective: dict[str, float]
    constraints: list[Constraint]
    binaries: list[str] = field(default_factory=list)
    generals: list[str] = field(default_factory=list)
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def variables(self) -> list[str]:
        return self.binaries + self.generals


def xvar(i: int, j: int) -> str:
    return f"x_{i}_{j}"


def xpvar(i: int, j: int) -> str:
    return f"xp_{i}_{j}"


def pvar(i: int) -> str:
    return f"p_{i}"


def build_ilp(graph: PoiGraph) -> IlpModel:
    n = graph.n
    binaries = [xvar(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    binaries += [xpvar(i, j) for i in range(1, n) for j in range(i + 1, n)]
    generals = [pvar(i) for i in range(2, n + 1)]
    bounds = {pvar(i): (2.0, float(n)) for i in range(2, n + 1)}

    objective: dict[str, float] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            fj = graph.vprofit[j - 1]
            if fj != 0.0:
                objective[xvar(i, j)] = objective.get(xvar(i, j), 0.0) + fj
    for i in range(2, n - 1):
        for j in range(i + 1, n):
            fe = graph.eprofit[i - 1][j - 1]
            if fe != 0.0:
                objective[xpvar(i, j)] = fe

    cons: list[Constraint] = []
    cons.append(Constraint("start_degree", {xvar(1, j): 1.0 for j in range(1, n + 1)}, "=", 1.0))
    cons.append(Constraint("end_degree", {xvar(i, n): 1.0 for i in range(1, n + 1)}, "=", 1.0))
    for i in range(2, n):
        flow = {xvar(i, j): 1.0 for j in range(1, n + 1)}
        for k in range(1, n + 1):
            flow[xvar(k, i)] = flow.get(xvar(k, i), 0.0) - 1.0
        cons.append(Constraint(f"flow_{i}", flow, "=", 0.0))
        cons.append(Constraint(f"once_{i}", {xvar(i, j): 1.0 for j in range(1, n + 1)}, "<=", 1.0))
    for i in range(1, n):
        for j in range(i + 1, n):
            out_i = {xvar(i, k): -1.0 for k in range(1, n + 1)}
            out_j = {xvar(j, k): -1.0 for k in range(1, n + 1)}
            cons.append(Constraint(f"pair_ub1_{i}_{j}", {xpvar(i, j): 1.0, **out_i}, "<=", 0.0))
            cons.append(Constraint(f"pair_ub2_{i}_{j}", {xpvar(i, j): 1.0, **out_j}, "<=", 0.0))
            both = {xpvar(i, j): 1.0}
            both.update(out_i)
            for k in range(1, n + 1):
                both[xvar(j, k)] = both.get(xvar(j, k), 0.0) - 1.0
            cons.append(Constraint(f"pair_lb_{i}_{j}", both, ">=", -1.0))
    budget = {xvar(i, j): graph.cost[i - 1][j - 1]
              for i in range(1, n + 1) for j in range(1, n + 1)}
    cons.append(Constraint("budget", budget, "<=", graph.budget - graph.start_visit_cost))
    big = float(n - 1)
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            coeffs = {xvar(i, j): big}
            if i != j:
                coeffs[pvar(i)] = 1.0
                coeffs[pvar(j)] = -1.0
            cons.append(Constraint(f"pos_{i}_{j}", coeffs, "<=", big - 1.0))
    return IlpModel(n, objective, cons, binaries, generals, bounds)


def write_lp(model: IlpModel, sink: io.TextIOBase):
    """Emit the model in CPLEX-LP text format."""

    def term(coeff: float, var: str, first: bool) -> str:
        sign = "" if first and coeff >= 0 else ("+ " if coeff >= 0 else "- ")
        return f"{sign}{abs(float(coeff))!r} {var}"

    sink.write("Maximize\n obj:")
    parts = [term(c, v, i == 0) for i, (v, c) in enumerate(sorted(model.objective.items()))]
    sink.write(" " + " ".join(parts) if parts else " 0 " + model.binaries[0])
    sink.write("\nSubject To\n")
    for con in model.constraints:
        parts = [term(c, v, i == 0) for i, (v, c) in enumerate(sorted(con.coeffs.items()))]
        op = {"<=": "<=", ">=": ">=", "=": "="}[con.sense]
        sink.write(f" {con.cid}: {' '.join(parts)} {op} {float(con.rhs)!r}\n")
    if model.bounds:
        sink.write("Bounds\n")
        for v, (lo, hi) in sorted(model.bounds.items()):
            sink.write(f" {float(lo)!r} <= {v} <= {float(hi)!r}\n")
    if model.binaries:
        sink.write("Binary\n")
        for v in model.binaries:
            sink.write(f" {v}\n")
    if model.generals:
        sink.write("General\n")
        for v in model.generals:
            sink.write(f" {v}\n")
    sink.write("End\n")


# States the exact solver holds at most: about 115 bytes each, so about 220 MiB at the cap
STATE_CAP = 2_000_000
# Nodes the search for an order of the whole interior visits before it leaves
# the graph to the stop-set program: about 0.2 s at |V| = 15
WHOLE_SEARCH_CAP = 20_000


class StateCapError(Exception):
    """The exact solver needed more than `STATE_CAP` states for a graph."""


@dataclass
class SolveResult:
    trip: list[int]
    objective: float
    nodes: int = 0


def reach_costs(graph: PoiGraph) -> list[float]:
    """The start visit plus the least cost from the start to each vertex over
    `graph.cost` (Dijkstra): no trip reaches a vertex for less, whatever its
    stops, even where a detour costs less than the direct leg."""
    cost, n = graph.cost, graph.n
    reach = [math.inf] * n
    reach[graph.start] = graph.start_visit_cost
    todo = set(range(n))
    while todo:
        u = min(todo, key=reach.__getitem__)
        todo.remove(u)
        row, ru = cost[u], reach[u]
        for v in todo:
            if ru + row[v] < reach[v]:
                reach[v] = ru + row[v]
    return reach


def whole_interior_order(graph: PoiGraph) -> tuple[list[int] | None, int]:
    """The lexicographically smallest order of every interior vertex that fits,
    and the nodes visited: a depth-first search in that order. A prefix is
    dropped once its cost, plus the cheapest way into each vertex still to
    enter from a vertex still to visit, exceeds the budget. None when no order
    fits, or after `WHOLE_SEARCH_CAP` nodes."""
    cost, limit, end = graph.cost, graph.limit, graph.end
    interior = list(graph.interior())
    stack = [([graph.start], graph.start_visit_cost)]
    nodes = 0
    while stack and nodes < WHOLE_SEARCH_CAP:
        trip, spent = stack.pop()
        nodes += 1
        rest = sorted(set(interior) - set(trip), reverse=True)
        out = cost[trip[-1]]
        if not rest:
            if spent + out[end] <= limit:
                return trip + [end], nodes
            continue
        into = {v: min((cost[u][v] for u in rest if u != v), default=0.0)
                for v in [*rest, end]}
        entries = sum(into.values())
        for j in rest:  # pushed largest first, so the smallest is searched first
            if spent + out[j] + (entries - into[j]) <= limit:
                stack.append((trip + [j], spent + out[j]))
    return None, nodes


def solve_exact(graph: PoiGraph) -> SolveResult | None:
    """The best trip, by a backward Held-Karp dynamic program over interior stop
    sets (Held & Karp 1962). The objective depends only on the stop set, so the
    optimum is the best-scoring set whose cheapest order fits the budget.

    With no negative profit, a trip through every interior vertex outscores
    every other trip, which stops at a subset of its vertices, unless leaving
    one vertex out costs less than rounding: `better` could count that as a
    tie and pick the smaller set's trip. So when `whole_interior_order` finds
    that trip, and leaving out any one vertex loses more than a relative 1e-9
    (a thousand times `better`'s tie), it is the answer.

    Otherwise `least[mask][j]` is the least cost from stop j, through the other
    stops of mask, to the end vertex. It is built one set size at a time, and a
    state is kept only while `reach_costs`[j] plus that cost fits
    `graph.limit`: costs are >= 0, so a dropped state lies on no trip that
    fits. `nodes` counts the search's nodes and the states kept; past
    `STATE_CAP` states the solver raises `StateCapError`.

    Each set's trip is its lexicographically smallest order that fits, read
    greedily from `least`. The sets are scored with `trip_objective` and
    compared with `better` in the order `tests/oracles.py::enumerate_all` meets
    them (by size, then lexicographically), so ties break as they do there.
    """
    start, end, interior = graph.start, graph.end, list(graph.interior())
    cost, limit = graph.cost, graph.limit
    if any(c < 0.0 for row in cost for c in row):
        raise ValueError("the exact solver needs edge costs >= 0")
    profits = [graph.vprofit[u] for u in interior]
    profits += [graph.eprofit[u][v] for u in interior for v in interior if u < v]
    nodes = 0
    if min(profits, default=0.0) >= 0.0:
        whole, nodes = whole_interior_order(graph)
        if whole is not None:
            obj = graph.trip_objective(whole)
            if not any(math.isclose(graph.trip_objective([u for u in whole if u != v]), obj,
                                    rel_tol=1e-9) for v in interior):
                return SolveResult(whole, obj, nodes)

    reach = reach_costs(graph)
    least: dict[int, dict[int, float]] = {0: {}}
    levels = [[0]]
    states = 0
    while levels[-1]:
        level = []
        for mask in levels[-1]:
            row = list(least[mask].items()) or [(end, 0.0)]  # a set of one goes to the end
            for j in interior:
                if mask >> j & 1:
                    continue
                out = cost[j]
                b = min(out[i] + bi for i, bi in row)
                if reach[j] + b <= limit:
                    key = mask | 1 << j
                    if key not in least:
                        least[key] = {}
                        level.append(key)
                    least[key][j] = b
                    states += 1
            if states > STATE_CAP:
                raise StateCapError(f"the exact solver needs more than {STATE_CAP:,} "
                                    f"states for this {graph.n}-vertex graph")
        levels.append(level)

    def first_order(mask: int) -> list[int] | None:
        """The lexicographically smallest order of mask's stops that fits."""
        trip, spent = [start], graph.start_visit_cost
        while mask:
            row, out = least[mask], cost[trip[-1]]
            j = next((j for j in sorted(row) if spent + out[j] + row[j] <= limit), None)
            if j is None:
                return None
            spent += out[j]
            trip.append(j)
            mask ^= 1 << j
        return trip + [end] if spent + cost[trip[-1]][end] <= limit else None

    best_obj, best_trip = -math.inf, None
    for level in levels:
        for stops, mask in sorted(([v for v in interior if mask >> v & 1], mask)
                                  for mask in level):
            obj = graph.trip_objective([start, *stops, end])
            # [start] sorts before every trip: could some order of these stops win?
            if better(obj, [start], best_obj, best_trip):
                trip = first_order(mask)
                if trip is not None and better(obj, trip, best_obj, best_trip):
                    best_obj, best_trip = obj, trip
    if best_trip is None:
        return None
    return SolveResult(best_trip, best_obj, nodes + states)
