"""Exact solving: the linearized integer program, its LP-format text export,
and a branch-and-bound optimizer."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

from .graph import PoiGraph, better, within_budget


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


# Keys the stop-set memo holds at most: 154 bytes each, so about 73 MiB at the cap
MEMO_CAP = 500_000


@dataclass
class SolveResult:
    trip: list[int]
    objective: float
    nodes: int = 0


def solve_exact(graph: PoiGraph) -> SolveResult | None:
    """Depth-first branch and bound over paths from the start vertex.

    Pruning uses (i) reachability of the end vertex within the remaining
    budget, (ii) an admissible bound: current objective plus the top-m
    remaining vertex profits and top pair profits, with m capped by
    remaining budget over the cheapest edge cost, and (iii) a memo of stop
    sets: a path whose interior stops and last vertex an earlier path
    reached at no greater cost is dropped, since the objective depends only
    on the stops and every completion open to it was open to the earlier,
    lexicographically smaller path. Ties break to the lexicographically
    smallest vertex sequence.
    """
    n = graph.n
    start, end = graph.start, graph.end
    cost, vprofit, eprofit, budget = graph.cost, graph.vprofit, graph.eprofit, graph.budget
    if not within_budget(graph.start_visit_cost + cost[start][end], budget):
        return None
    interior = list(graph.interior())
    min_edge = min((cost[i][j] for i in range(n) for j in range(n) if i != j), default=0.0)
    min_into_end = min((cost[i][end] for i in range(n) if i != end), default=0.0)

    best_obj = -math.inf
    best_trip: list[int] | None = None
    nodes = 0

    def completion_lb(v: int, remaining: list[int]) -> float:
        direct = cost[v][end]
        if not remaining:
            return direct
        row = cost[v]
        via = min(row[r] for r in remaining) + min_into_end
        return min(direct, via)

    def upper_bound(cur_obj: float, path_interior: list[int],
                    remaining: list[int], budget_left: float) -> float:
        if not remaining:
            return cur_obj
        m = min(len(remaining), int(budget_left // min_edge)) if min_edge > 0 else len(remaining)
        if m <= 0:
            return cur_obj
        vps = sorted((vprofit[r] for r in remaining), reverse=True)[:m]
        bound = cur_obj + sum(vps)
        pair_profits = []
        for a_idx, a in enumerate(remaining):
            row = eprofit[a]
            pair_profits.extend(row[b] for b in remaining[a_idx + 1:])
            pair_profits.extend(row[b] for b in path_interior)
        take = m * (m - 1) // 2 + m * len(path_interior)
        pair_profits.sort(reverse=True)
        bound += sum(pair_profits[:take])
        return bound

    # (interior stops as a bitmask, last vertex) -> least cost of a path seen there
    memo: dict[tuple[int, int], float] = {}

    def dfs(v: int, path_interior: list[int], mask: int, path_cost: float, obj: float):
        nonlocal best_obj, best_trip, nodes
        seen = memo.get((mask, v))
        if seen is not None and path_cost >= seen:
            return
        if seen is not None or len(memo) < MEMO_CAP:
            memo[mask, v] = path_cost
        nodes += 1
        row = cost[v]
        # close the path at the end vertex if possible
        if within_budget(path_cost + row[end], budget):
            trip = [start, *path_interior, end]
            if better(obj, trip, best_obj, best_trip):
                best_obj, best_trip = obj, trip
        remaining = [r for r in interior if not mask >> r & 1]
        # prune unless the bound beats the best; a tie counts as not better
        if best_trip is not None and not better(
                upper_bound(obj, path_interior, remaining, budget - path_cost),
                best_trip, best_obj, best_trip):
            return
        for r in remaining:
            new_cost = path_cost + row[r]
            others = [x for x in remaining if x != r]
            if not within_budget(new_cost + completion_lb(r, others), budget):
                continue
            dfs(r, path_interior + [r], mask | 1 << r, new_cost, obj + graph.gain(r, path_interior))

    dfs(start, [], 0, graph.start_visit_cost, 0.0)
    if best_trip is None:
        return None
    return SolveResult(best_trip, graph.trip_objective(best_trip), nodes)
