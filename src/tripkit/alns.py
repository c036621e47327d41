"""Adaptive large neighborhood search over the trip graph: destroy/build
operator families with roulette-wheel adaptation, 2-opt ordering search,
simulated-annealing acceptance, and a capped solution pool."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from .embedding import EmbeddingModel
from .graph import PoiGraph, within_budget

WEIGHT_FLOOR = 1e-6

DESTROY_OPS = ("random", "least_profit", "most_cost", "shaw")
BUILD_OPS = ("most_profit", "least_cost", "most_similarity", "highest_potential")


@dataclass
class AlnsConfig:
    """What a caller sets: the runs, the iterations per run and the seed. The
    rest is the one tuned parameter set that ALNS runs with."""

    runs: int = 5
    iterations: int = 1000
    rng_seed: int = 42
    removal_fraction: ClassVar[float] = 0.2
    randomness: ClassVar[float] = 6.0  # exponent; larger = more deterministic removals
    scores: ClassVar[tuple[float, ...]] = (10.0, 5.0, 3.0, 1.0, 0.0)
    reaction: ClassVar[float] = 0.9
    temperature: ClassVar[float] = 0.3
    cooling: ClassVar[float] = 0.9995
    pool_size: ClassVar[int] = 10

    def __post_init__(self):
        if self.runs < 0 or self.iterations < 0:
            raise ValueError(f"runs and iterations must be >= 0, not {self.runs} and "
                             f"{self.iterations}")


@dataclass
class SolutionPool:
    capacity: int
    entries: list[tuple[tuple[int, ...], float]] = field(default_factory=list)

    def insert(self, trip: Sequence[int], score: float):
        key = tuple(trip)
        for t, _ in self.entries:
            if t == key:
                return
        self.entries.append((key, score))
        self.entries.sort(key=lambda e: (-e[1], e[0]))
        del self.entries[self.capacity:]

    def select(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Sample a trip with probability proportional to its score;
        uniform when every score is zero."""
        if not self.entries:
            raise ValueError("empty solution pool")
        scores = np.array([s for _, s in self.entries])
        total = scores.sum()
        if total <= 0:
            idx = rng.integers(len(self.entries))
        else:
            idx = rng.choice(len(self.entries), p=scores / total)
        return self.entries[idx][0]

    def best(self) -> tuple[tuple[int, ...], float]:
        return self.entries[0]


def update_weight(weight: float, score: float, reaction: float) -> float:
    """Exponential blend of the old weight and the latest score, floored."""
    return max(reaction * weight + (1.0 - reaction) * score, WEIGHT_FLOOR)


def roulette_select(weights: dict[str, float], rng: np.random.Generator) -> str:
    total = 0.0
    for w in weights.values():
        total += w
    x = rng.random() * total
    acc = 0.0
    for name, w in weights.items():
        acc += w
        if x < acc:
            return name
    return name  # guard against x == total


def removal_count(trip_len: int, fraction: float) -> int:
    return math.ceil(fraction * max(trip_len - 2, 0))


def cheapest_insertions(graph: PoiGraph, trip: Sequence[int],
                        vertices: Iterable[int]) -> dict[int, tuple[int, float]]:
    """Each vertex's cheapest insertion (pos, delta) in `trip`: the first
    position (1 = between the trip's first two vertices) with the least cost
    delta of inserting it. The trip's edges and their costs are listed once."""
    cost, cost_in = graph.cost, graph.cost_in
    edges = [(pos, a, b, cost[a][b]) for pos, (a, b) in enumerate(zip(trip, trip[1:]), 1)]
    table = {}
    for v in vertices:
        into_v, out_v = cost_in[v], cost[v]
        best_pos, best_delta = 1, math.inf
        for pos, a, b, cost_ab in edges:
            delta = into_v[a] + out_v[b] - cost_ab
            if delta < best_delta:
                best_pos, best_delta = pos, delta
        table[v] = (best_pos, best_delta)
    return table


def cheapest_insertion(graph: PoiGraph, trip: Sequence[int], v: int) -> tuple[int, float]:
    return cheapest_insertions(graph, trip, (v,))[v]


def removal_cost_delta(graph: PoiGraph, trip: Sequence[int], pos: int) -> float:
    a, v, b = trip[pos - 1], trip[pos], trip[pos + 1]
    cost = graph.cost
    return cost[a][v] + cost[v][b] - cost[a][b]


def removal_profit_delta(graph: PoiGraph, trip: Sequence[int], pos: int) -> float:
    return graph.gain(trip[pos], trip[1:pos] + trip[pos + 1:-1])


def randomized_index(count: int, randomness: float, fraction: float,
                     rng: np.random.Generator) -> int:
    x = rng.uniform(0.0, 1.0)
    idx = int((x ** (randomness * fraction)) * count)
    return min(idx, count - 1)


Option = tuple[int, int, float]  # (vertex, position, cost delta)


def after_insert(graph: PoiGraph, best: dict[int, tuple[int, float]],
                 trip: Sequence[int], pos: int) -> dict[int, tuple[int, float]]:
    """Each vertex's cheapest insertion (pos, delta) in `trip`, carried from
    `best`, its cheapest insertion before `trip[pos]` was inserted. Pos 0 means
    that delta is only a lower bound, and the vertex needs a rescan.

    Inserting v at pos replaces edge pos by the edges pos and pos + 1 and
    shifts the later edges by one. A vertex whose best edge survived takes the
    least (delta, pos) of it and the two new edges, the first minimum that a
    full scan would find. For a vertex whose best edge was replaced or is
    unknown, every surviving edge costs at least its old delta: a new edge
    strictly below that is its first minimum, else the old delta stays a
    lower bound."""
    edge_cost, cost_in = graph.cost, graph.cost_in
    a, v, b = trip[pos - 1], trip[pos], trip[pos + 1]
    cost_av, cost_vb = edge_cost[a][v], edge_cost[v][b]
    carried = {}
    for w, (w_pos, w_delta) in best.items():
        into_w, out_w = cost_in[w], edge_cost[w]
        new_pos, new_delta = pos, into_w[a] + out_w[v] - cost_av
        delta_vb = into_w[v] + out_w[b] - cost_vb
        if delta_vb < new_delta:
            new_pos, new_delta = pos + 1, delta_vb
        if w_pos == 0 or w_pos == pos:
            carried[w] = (new_pos, new_delta) if new_delta < w_delta else (0, w_delta)
        elif w_delta < new_delta or (w_delta == new_delta and w_pos < pos):
            carried[w] = (w_pos + (w_pos > pos), w_delta)
        else:
            carried[w] = (new_pos, new_delta)
    return carried


def greedy_extend(graph: PoiGraph, trip: Sequence[int],
                  choose: Callable[[list[int], list[Option]], Option | None]) -> list[int]:
    """The one loop that inserts vertices, each at its cheapest position,
    under the budget. While some interior vertex is unvisited, `choose` sees
    the current trip and the options that fit (possibly none) and returns one
    of them, or None to stop. Each unvisited vertex's cheapest insertion is
    carried by `after_insert`, and rescanned only when its lower bound fits."""
    trip = list(trip)
    cost, limit = graph.trip_cost(trip), graph.limit
    visited = set(trip)
    # unvisited vertex -> (pos, delta) of its cheapest insertion, in ascending order
    best = cheapest_insertions(graph, trip, [v for v in graph.interior() if v not in visited])
    while best:
        options = []
        for w, (pos, delta) in best.items():
            if pos == 0 and cost + delta <= limit:
                pos, delta = best[w] = cheapest_insertion(graph, trip, w)
            if cost + delta <= limit:
                options.append((w, pos, delta))
        picked = choose(trip, options)
        if picked is None:
            break
        v, pos, delta = picked
        trip.insert(pos, v)
        cost += delta
        del best[v]
        best = after_insert(graph, best, trip, pos)
    return trip


def _choose_most_profit(graph: PoiGraph):
    return lambda trip, opts: max(
        opts, key=lambda o: (graph.gain(o[0], trip[1:-1]), -o[0]), default=None)


def _choose_least_cost(graph: PoiGraph):
    del graph
    return lambda trip, opts: min(opts, key=lambda o: (o[2], o[0]), default=None)


def _choose_best_ratio(graph: PoiGraph):
    def ratio(trip, o):
        gain = graph.gain(o[0], trip[1:-1])
        return gain / o[2] if o[2] > 0 else math.inf
    return lambda trip, opts: max(opts, key=lambda o: (ratio(trip, o), -o[0]), default=None)


def _choose_highest_potential(graph: PoiGraph):
    """The option with the most profit, summed symmetrically, from itself plus the
    best second vertex that still fits after it; the most profit alone if no pair fits."""
    def choose(cur, opts):
        if not opts:
            return None
        cost, limit = graph.trip_cost(cur), graph.limit
        best = None
        insertions = {w: (w_pos, w_delta) for w, w_pos, w_delta in opts}
        gains = {w: graph.gain(w, cur[1:-1]) for w in insertions}
        for v, pos, delta in opts:
            candidate = list(cur)
            candidate.insert(pos, v)
            for w, (w_pos, delta_w) in after_insert(graph, insertions, candidate, pos).items():
                if w == v:
                    continue
                if w_pos == 0:
                    _, delta_w = cheapest_insertion(graph, candidate, w)
                if cost + delta + delta_w <= limit:
                    key = (gains[v] + gains[w] + graph.eprofit[v][w], -v)
                    if best is None or key > best[0]:
                        best = (key, (v, pos, delta))
        if best is not None:
            return best[1]
        # no feasible pair: fall back to the single best profit insertion
        return max(opts, key=lambda o: (gains[o[0]], -o[0]))
    return choose


def init_pool(graph: PoiGraph, capacity: int) -> SolutionPool:
    """Seed the pool with three greedy trips: best profit increment, least cost
    increment, and best profit/cost ratio."""
    direct = [graph.start, graph.end]
    if not graph.feasible(direct).ok:
        raise ValueError("no feasible trip: the direct start-end trip exceeds the budget")
    pool = SolutionPool(capacity)
    for strategy in (_choose_most_profit, _choose_least_cost, _choose_best_ratio):
        trip = greedy_extend(graph, direct, strategy(graph))
        pool.insert(trip, graph.trip_objective(trip))
    return pool


def destroy(graph: PoiGraph, trip: Sequence[int], operator: str,
            config: AlnsConfig, rng: np.random.Generator) -> list[int]:
    """Remove exactly ceil(fraction * interior size) interior vertices."""
    trip = list(trip)
    n_rm = removal_count(len(trip), config.removal_fraction)
    if n_rm == 0:
        return trip
    if operator == "random":
        positions = sorted(rng.choice(np.arange(1, len(trip) - 1), size=n_rm,
                                      replace=False), reverse=True)
        for pos in positions:
            del trip[pos]
        return trip
    if operator == "shaw":
        pivot_pos = int(rng.integers(1, len(trip) - 1))
        pivot = trip[pivot_pos]
        for _ in range(n_rm):
            interior = trip[1:-1]
            candidates = [v for v in interior if v != pivot]
            if not candidates:
                trip.remove(pivot)
                continue
            # proximity by outgoing edge cost from the pivot
            candidates.sort(key=lambda v: (graph.cost[pivot][v], v))
            idx = randomized_index(len(candidates), config.randomness,
                                   config.removal_fraction, rng)
            trip.remove(candidates[idx])
        return trip
    for _ in range(n_rm):
        interior_pos = list(range(1, len(trip) - 1))
        if operator == "least_profit":
            interior_pos.sort(key=lambda p: (removal_profit_delta(graph, trip, p), trip[p]))
        elif operator == "most_cost":
            interior_pos.sort(key=lambda p: (-removal_cost_delta(graph, trip, p), trip[p]))
        else:
            raise ValueError(f"unknown destroy operator: {operator}")
        idx = randomized_index(len(interior_pos), config.randomness,
                               config.removal_fraction, rng)
        del trip[interior_pos[idx]]
    return trip


class _PivotDistances(dict):
    """pivot -> {interior vertex: distance from the pivot}, filled on first
    use: the embedding distance under a model, else the outgoing edge cost.
    run_alns keeps one for its whole call and hands it to `build`."""

    def __init__(self, graph: PoiGraph, model: EmbeddingModel | None):
        super().__init__()
        self.graph, self.model = graph, model

    def __missing__(self, pivot: int) -> dict[int, float]:
        graph, model = self.graph, self.model
        if model is not None:
            pivot_vec = model.vec(graph.poi_ids[pivot])
            dist = {v: float(np.linalg.norm(pivot_vec - model.vec(graph.poi_ids[v])))
                    for v in graph.interior()}
        else:
            dist = {v: graph.cost[pivot][v] for v in graph.interior()}
        self[pivot] = dist
        return dist


def build(graph: PoiGraph, trip: Sequence[int], operator: str, pivot: int | None,
          similarity: _PivotDistances | None = None) -> list[int]:
    """Insert unvisited vertices (cheapest position each) per the operator's
    rule until no single insertion fits. `most_similarity` orders them by
    their `similarity` distance from `pivot`, a vertex of the trip, by edge
    cost if None; the other operators ignore `pivot`. Nothing is drawn at
    random, so the result is a function of the arguments."""
    trip = list(trip)
    if operator == "most_profit":
        return greedy_extend(graph, trip, _choose_most_profit(graph))
    if operator == "least_cost":
        return greedy_extend(graph, trip, _choose_least_cost(graph))
    if operator == "most_similarity":
        if similarity is None:
            similarity = _PivotDistances(graph, None)
        dist = similarity[pivot]
        return greedy_extend(graph, trip, lambda cur, opts: min(
            opts, key=lambda o: (dist[o[0]], o[0]), default=None))
    if operator == "highest_potential":
        return greedy_extend(graph, trip, _choose_highest_potential(graph))
    raise ValueError(f"unknown build operator: {operator}")


def local_search(graph: PoiGraph, trip: Sequence[int]) -> list[int]:
    """2-opt: reverse interior segments whenever that strictly lowers time cost.

    The visited set is unchanged, so the trip score is preserved.
    """
    trip = list(trip)
    if len(trip) <= 3:
        return trip
    cost = graph.cost
    improved = True
    while improved:
        improved = False
        for i in range(len(trip) - 3):
            # the leg costs inside the segment trip[i+1..j], forward and
            # reversed, summed left to right as j grows and again after a reversal
            internal_old = internal_new = 0.0
            for j in range(i + 2, len(trip) - 1):
                a, b = trip[i], trip[i + 1]
                c, d = trip[j], trip[j + 1]
                internal_old += cost[trip[j - 1]][c]
                internal_new += cost[c][trip[j - 1]]
                old = cost[a][b] + cost[c][d]
                new = cost[a][c] + cost[b][d]
                if new + internal_new < old + internal_old - 1e-12:
                    trip[i + 1:j + 1] = trip[j:i:-1]
                    improved = True
                    internal_old = sum(cost[trip[k]][trip[k + 1]] for k in range(i + 1, j))
                    internal_new = sum(cost[trip[k + 1]][trip[k]] for k in range(i + 1, j))
    return trip


def sa_accept(score_new: float, score_old: float, temperature: float,
              rng: np.random.Generator) -> bool:
    """Accept improvements always; accept worse trips with probability
    exp((new - old) / temperature)."""
    if score_new > score_old:
        return True
    x = rng.uniform(0.0, 1.0)
    return x < math.exp((score_new - score_old) / temperature)


@dataclass
class AlnsResult:
    trip: list[int]
    score: float
    trace: list[dict] = field(default_factory=list)


def classify_scenario(accepted: bool, score_new: float, score_cur: float,
                      global_best: float, run_best: float) -> int:
    """Index into the scoring vector; the highest-value scenario wins."""
    if not accepted:
        return 4
    if score_new > global_best:
        return 0
    if score_new > run_best:
        return 1
    if score_new == run_best:
        return 2
    if score_new < score_cur:
        return 3
    return 4


def run_alns(graph: PoiGraph, config: AlnsConfig | None = None,
             model: EmbeddingModel | None = None,
             collect_trace: bool = False) -> AlnsResult:
    """Multi-run ALNS (seeded, deterministic); returns the best trip found.

    A repair (`build`, then `local_search`) draws nothing at random, so the
    call keeps its results: `repaired` maps (build operator, pivot, *partial
    trip) to the repaired trip and its objective, and `polished` maps each
    built trip to the same, so that 2-opt, the feasibility check and the
    objective run once per distinct built trip. Each holds at most one entry
    per iteration, and lives only as long as the call."""
    config = config or AlnsConfig()
    similarity = _PivotDistances(graph, model)
    repaired: dict[tuple, tuple[tuple[int, ...], float]] = {}
    polished: dict[tuple[int, ...], tuple[tuple[int, ...], float]] = {}
    pool = init_pool(graph, config.pool_size)
    global_trip, global_score = pool.best()
    trace: list[dict] = []

    for run in range(config.runs):
        rng = np.random.default_rng(config.rng_seed + run)
        current = list(pool.select(rng))
        score_cur = graph.trip_objective(current)
        run_trip, run_score = list(current), score_cur
        temp = config.temperature
        d_weights = {op: 1.0 for op in DESTROY_OPS}
        b_weights = {op: 1.0 for op in BUILD_OPS}

        for it in range(config.iterations):
            d_op = roulette_select(d_weights, rng)
            b_op = roulette_select(b_weights, rng)
            partial = destroy(graph, current, d_op, config, rng)
            if not within_budget(graph.trip_cost(partial), graph.budget):
                # costs that break the triangle inequality can make a removal
                # dearer; build from the current trip, which fits
                partial = current
            pivot = (partial[int(rng.integers(len(partial)))]
                     if b_op == "most_similarity" else None)
            key = (b_op, pivot, *partial)
            if key not in repaired:
                built = tuple(build(graph, partial, b_op, pivot, similarity))
                if built not in polished:
                    trip = local_search(graph, built)
                    verdict = graph.feasible(trip)
                    if not verdict.ok:
                        raise RuntimeError(f"ALNS produced an infeasible trip: {verdict.reason}")
                    # 2-opt mostly returns the built trip: hold one tuple for both
                    trip = tuple(trip)
                    polished[built] = (built if trip == built else trip,
                                       graph.trip_objective(trip))
                repaired[key] = polished[built]
            candidate, score_new = repaired[key]
            accepted = sa_accept(score_new, score_cur, temp, rng)
            scenario = classify_scenario(accepted, score_new, score_cur,
                                         global_score, run_score)
            if accepted:
                current, score_cur = candidate, score_new
                if score_cur > run_score:
                    run_trip, run_score = list(current), score_cur
                if score_cur > global_score:
                    global_trip, global_score = tuple(current), score_cur
            temp *= config.cooling
            pi = config.scores[scenario]
            d_weights[d_op] = update_weight(d_weights[d_op], pi, config.reaction)
            b_weights[b_op] = update_weight(b_weights[b_op], pi, config.reaction)
            if collect_trace:
                trace.append({"run": run, "iter": it, "destroy_op": d_op,
                              "build_op": b_op, "score": score_new,
                              "accepted": accepted, "temp": temp})
        pool.insert(run_trip, run_score)

    return AlnsResult(list(global_trip), global_score, trace)


def write_trace_csv(trace: list[dict], sink) -> None:
    sink.write("run,iter,destroy_op,build_op,score,accepted,temp\n")
    for row in trace:
        sink.write(f"{row['run']},{row['iter']},{row['destroy_op']},"
                   f"{row['build_op']},{row['score']!r},{int(row['accepted'])},"
                   f"{row['temp']!r}\n")
