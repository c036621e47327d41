"""Reference code that the tests compare tripkit against, and helpers that
only tests call.

The ALNS part is the straightforward form of the build and 2-opt layers: it
rescans every gap for every vertex at every insertion and re-sums every 2-opt
segment. `tripkit.alns` carries that state between steps instead, and
`test_oracles.py` checks that both give the same lists, bit for bit. The
memo-free `run_alns` builds, 2-opts and scores every iteration's trip
afresh, where `tripkit.alns.run_alns` reuses the repairs it has already made.

The embedding part is the BPR trainer on dicts of vectors keyed by id: each
step sums the context vector POI by POI, and each observation rebuilds the
list of POIs outside its trip before drawing negatives. `tripkit.embedding`
trains on row matrices instead, and `test_oracles.py` checks that both write
the same model files, byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

import tripkit.alns as alns
import tripkit.embedding as embedding
from tripkit.checkins import Trip, UnknownPoiError
from tripkit.embedding import EmbeddingModel, TrainConfig, init_model, sigmoid
from tripkit.exact import Constraint, IlpModel, SolveResult, pvar, xpvar, xvar
from tripkit.graph import PoiGraph, better, within_budget
from tripkit.scoring import ScoreContext

# --- ALNS build and 2-opt, rescanning ------------------------------------------


def insertion_cost(graph: PoiGraph, trip: Sequence[int], v: int, pos: int) -> float:
    a, b = trip[pos - 1], trip[pos]
    cost = graph.cost
    return cost[a][v] + cost[v][b] - cost[a][b]


def cheapest_insertion(graph: PoiGraph, trip: Sequence[int], v: int) -> tuple[int, float]:
    cost = graph.cost
    into_v, out_v = [row[v] for row in cost], cost[v]
    best_pos, best_delta = 1, math.inf
    for pos in range(1, len(trip)):
        a, b = trip[pos - 1], trip[pos]
        delta = into_v[a] + out_v[b] - cost[a][b]
        if delta < best_delta:
            best_pos, best_delta = pos, delta
    return best_pos, best_delta


def greedy_extend(graph: PoiGraph, trip: Sequence[int],
                  choose: Callable[[list[int], list], object]) -> list[int]:
    trip = list(trip)
    used = set(trip)
    cost = graph.trip_cost(trip)
    while len(used) < graph.n:
        options = []
        for v in graph.interior():
            if v in used:
                continue
            pos, delta = cheapest_insertion(graph, trip, v)
            if within_budget(cost + delta, graph.budget):
                options.append((v, pos, delta))
        picked = choose(trip, options)
        if picked is None:
            break
        v, pos, delta = picked
        trip.insert(pos, v)
        used.add(v)
        cost += delta
    return trip


def choose_highest_potential(graph: PoiGraph):
    def choose(cur, opts):
        if not opts:
            return None
        cost = graph.trip_cost(cur)
        best = None
        for v, pos, delta in opts:
            gain_v = graph.gain(v, cur[1:-1])
            candidate = list(cur)
            candidate.insert(pos, v)
            for w, _, _ in opts:
                if w == v:
                    continue
                _, delta_w = cheapest_insertion(graph, candidate, w)
                if not within_budget(cost + delta + delta_w, graph.budget):
                    continue
                pair_gain = gain_v + graph.gain(w, cur[1:-1]) + graph.eprofit[v][w]
                key = (pair_gain, -v)
                if best is None or key > best[0]:
                    best = (key, (v, pos, delta))
        if best is not None:
            return best[1]
        # no feasible pair: fall back to the single best profit insertion
        return max(opts, key=lambda o: (graph.gain(o[0], cur[1:-1]), -o[0]))
    return choose


def local_search(graph: PoiGraph, trip: Sequence[int]) -> list[int]:
    trip = list(trip)
    if len(trip) <= 3:
        return trip
    cost = graph.cost
    improved = True
    while improved:
        improved = False
        for i in range(len(trip) - 3):
            for j in range(i + 2, len(trip) - 1):
                a, b = trip[i], trip[i + 1]
                c, d = trip[j], trip[j + 1]
                old = cost[a][b] + cost[c][d]
                new = cost[a][c] + cost[b][d]
                segment = trip[i + 1:j + 1]
                internal_old = sum(cost[segment[k]][segment[k + 1]]
                                   for k in range(len(segment) - 1))
                internal_new = sum(cost[segment[k + 1]][segment[k]]
                                   for k in range(len(segment) - 1))
                if new + internal_new < old + internal_old - 1e-12:
                    trip[i + 1:j + 1] = segment[::-1]
                    improved = True
    return trip


def similarity_distances(graph: PoiGraph, model: EmbeddingModel | None,
                         pivot: int) -> dict[int, float]:
    """The `most_similarity` operator's distances from its pivot."""
    if model is not None:
        pivot_vec = model.vec(graph.poi_ids[pivot])
        return {v: float(np.linalg.norm(pivot_vec - model.vec(graph.poi_ids[v])))
                for v in graph.interior()}
    return {v: graph.cost[pivot][v] for v in graph.interior()}


class FreshPivotDistances:
    """Stands in for `tripkit.alns._PivotDistances`, recomputing the distances
    on every lookup."""

    def __init__(self, graph: PoiGraph, model: EmbeddingModel | None):
        self.graph, self.model = graph, model

    def __getitem__(self, pivot: int) -> dict[int, float]:
        return similarity_distances(self.graph, self.model, pivot)


def run_alns(graph: PoiGraph, config: alns.AlnsConfig | None = None,
             model: EmbeddingModel | None = None) -> alns.AlnsResult:
    """`tripkit.alns.run_alns` without its memos: every iteration builds,
    2-opts, checks and scores its trip afresh. The `most_similarity` pivot is
    drawn where `build` drew it before it took the pivot as an argument."""
    config = config or alns.AlnsConfig()
    similarity = alns._PivotDistances(graph, model)
    pool = alns.init_pool(graph, config.pool_size)
    global_trip, global_score = pool.best()
    trace: list[dict] = []
    for run in range(config.runs):
        rng = np.random.default_rng(config.rng_seed + run)
        current = list(pool.select(rng))
        score_cur = graph.trip_objective(current)
        run_trip, run_score = list(current), score_cur
        temp = config.temperature
        d_weights = {op: 1.0 for op in alns.DESTROY_OPS}
        b_weights = {op: 1.0 for op in alns.BUILD_OPS}
        for it in range(config.iterations):
            d_op = alns.roulette_select(d_weights, rng)
            b_op = alns.roulette_select(b_weights, rng)
            partial = alns.destroy(graph, current, d_op, config, rng)
            if not within_budget(graph.trip_cost(partial), graph.budget):
                partial = current
            pivot = None
            if b_op == "most_similarity":
                pivot = partial[int(rng.integers(len(partial)))]
            candidate = alns.local_search(graph, alns.build(graph, partial, b_op, pivot,
                                                            similarity))
            verdict = graph.feasible(candidate)
            if not verdict.ok:
                raise RuntimeError(f"ALNS produced an infeasible trip: {verdict.reason}")
            score_new = graph.trip_objective(candidate)
            accepted = alns.sa_accept(score_new, score_cur, temp, rng)
            scenario = alns.classify_scenario(accepted, score_new, score_cur,
                                              global_score, run_score)
            if accepted:
                current, score_cur = candidate, score_new
                if score_cur > run_score:
                    run_trip, run_score = list(current), score_cur
                if score_cur > global_score:
                    global_trip, global_score = tuple(current), score_cur
            temp *= config.cooling
            pi = config.scores[scenario]
            d_weights[d_op] = alns.update_weight(d_weights[d_op], pi, config.reaction)
            b_weights[b_op] = alns.update_weight(b_weights[b_op], pi, config.reaction)
            trace.append({"run": run, "iter": it, "destroy_op": d_op,
                          "build_op": b_op, "score": score_new,
                          "accepted": accepted, "temp": temp})
        pool.insert(run_trip, run_score)
    return alns.AlnsResult(list(global_trip), global_score, trace)


# --- trip score straight from the model ---------------------------------------


def ctq_score(ctx: ScoreContext, trip: Sequence[str]) -> float:
    """Sum of interior closeness plus interior pairwise similarity;
    endpoints contribute nothing."""
    if len(trip) < 2 or trip[0] != ctx.query.start or trip[-1] != ctx.query.end:
        raise ValueError("trip must start at the query start and end at the query end")
    interior = list(trip[1:-1])
    if len(set(interior)) != len(interior):
        raise ValueError("interior POIs must be distinct")
    if ctx.query.start in interior or ctx.query.end in interior:
        raise ValueError("interior POIs must differ from the endpoints")
    score = sum(ctx.closeness(p) for p in interior)
    for i in range(len(interior)):
        for j in range(i + 1, len(interior)):
            score += ctx.ncsim(interior[i], interior[j])
    return score


# --- the pair normalizer from the full matrix -----------------------------------


def zpair_full(model: EmbeddingModel) -> float:
    """z_pair from the dense P x P similarity matrix, as tripkit computed it
    before summing in row blocks; model files written then hold this value."""
    mat = np.stack([model.poi_vec[p] for p in model.poi_ids])
    sims = mat @ mat.T
    np.fill_diagonal(sims, -np.inf)
    return float(np.exp(sims).sum())


# --- brute force over every trip ----------------------------------------------

BRUTE_FORCE_GUARD = 12


def enumerate_all(graph: PoiGraph) -> SolveResult | None:
    """Brute-force oracle: every subset and ordering of interior vertices."""
    if graph.n > BRUTE_FORCE_GUARD:
        raise ValueError(f"brute force guarded at |V| <= {BRUTE_FORCE_GUARD}")
    interior = list(graph.interior())
    best_obj, best_trip = -math.inf, None
    count = 0
    for size in range(len(interior) + 1):
        for subset in itertools.combinations(interior, size):
            for order in itertools.permutations(subset):
                trip = [graph.start, *order, graph.end]
                count += 1
                if not graph.feasible(trip).ok:
                    continue
                obj = graph.trip_objective(trip)
                if better(obj, trip, best_obj, best_trip):
                    best_obj, best_trip = obj, trip
    if best_trip is None:
        return None
    return SolveResult(best_trip, best_obj, count)


# --- the integer program's assignments -----------------------------------------

FLOAT_TOL = 1e-9  # the assignment checker's tolerance for every constraint row


def satisfied(constraint: Constraint, assignment: dict[str, float],
              tol: float = FLOAT_TOL) -> bool:
    lhs = sum(c * assignment[v] for v, c in constraint.coeffs.items())
    if constraint.sense == "<=":
        return lhs <= constraint.rhs + tol
    if constraint.sense == ">=":
        return lhs >= constraint.rhs - tol
    return abs(lhs - constraint.rhs) <= tol


def objective_value(model: IlpModel, assignment: dict[str, float]) -> float:
    return sum(c * assignment[v] for v, c in model.objective.items())


def check_assignment(model: IlpModel, assignment: dict[str, float],
                     tol: float = FLOAT_TOL) -> dict:
    """Evaluate every constraint and the objective for a complete assignment."""
    missing = [v for v in model.variables if v not in assignment]
    if missing:
        raise ValueError(f"assignment missing variables: {missing[:5]}")
    violated = []
    for v in model.binaries:
        if assignment[v] not in (0, 1, 0.0, 1.0):
            violated.append(f"binary_{v}")
    for v, (lo, hi) in model.bounds.items():
        if not lo - tol <= assignment[v] <= hi + tol:
            violated.append(f"bound_{v}")
    violated += [c.cid for c in model.constraints if not satisfied(c, assignment, tol)]
    return {
        "feasible": not violated,
        "violated": violated,
        "objective": objective_value(model, assignment),
    }


def encode_trip(model: IlpModel, trip: Sequence[int]) -> dict[str, float]:
    """Assignment encoding a vertex-index trip (0-based indices, as in PoiGraph)."""
    n = model.n
    one_based = [v + 1 for v in trip]
    assignment = {v: 0.0 for v in model.variables}
    for a, b in zip(one_based, one_based[1:]):
        assignment[xvar(a, b)] = 1.0
    selected = set(one_based) | {1, n}
    for i in range(1, n):
        for j in range(i + 1, n):
            if i in selected and j in selected:
                assignment[xpvar(i, j)] = 1.0
    for pos, v in enumerate(one_based, start=1):
        if v >= 2:
            assignment[pvar(v)] = float(pos)
    for i in range(2, n + 1):
        if i not in selected:
            assignment[pvar(i)] = 2.0
    return assignment


# --- the BPR trainer on dicts ----------------------------------------------------


@dataclass(frozen=True)
class Observation:
    """One (trip, target POI) training example; context is the rest of the trip."""
    user_id: str
    trip_pois: frozenset[str]
    target: str
    context: frozenset[str]


def observations_from_trip(trip: Trip) -> list[Observation]:
    pois = trip.poi_set()
    return [Observation(trip.user_id, pois, v.poi_id, pois - {v.poi_id})
            for v in trip.visits]


def context_vector(model: EmbeddingModel, context: Iterable[str]) -> np.ndarray:
    out = np.zeros(model.dim)
    for poi_id in context:
        out += model.vec(poi_id)
    return out


def assert_finite(model: EmbeddingModel):
    for vec in model.poi_vec.values():
        if not np.all(np.isfinite(vec)):
            raise FloatingPointError("non-finite POI vector")
    for vec in model.user_vec.values():
        if not np.all(np.isfinite(vec)):
            raise FloatingPointError("non-finite user vector")
    if not all(math.isfinite(p) for p in model.poi_pop.values()):
        raise FloatingPointError("non-finite popularity bias")


def sgd_step(model: EmbeddingModel, obs: Observation, negative: str,
             config: TrainConfig):
    """One BPR gradient-ascent step; all updates read pre-step parameter values."""
    eta, lam = config.learning_rate, config.regularization
    mode = config.mode
    u = model.user_vec[obs.user_id]
    lt = model.poi_vec[obs.target]
    ln = model.poi_vec[negative]
    context = sorted(obs.context)
    if mode == "full":
        c = context_vector(model, context)
    else:
        c = np.zeros(model.dim)

    if mode == "pop-only":
        z = model.poi_pop[obs.target] - model.poi_pop[negative]
    else:
        z = float(lt @ c + lt @ u + model.poi_pop[obs.target]
                  - ln @ c - ln @ u - model.poi_pop[negative])
    delta = 1.0 - sigmoid(z)

    u0, lt0, ln0 = u.copy(), lt.copy(), ln.copy()
    if mode != "pop-only":
        model.user_vec[obs.user_id] = u0 + eta * (delta * (lt0 - ln0) - 2 * lam * u0)
        model.poi_vec[obs.target] = lt0 + eta * (delta * (u0 + c) - 2 * lam * lt0)
        if config.corrected_reg:
            model.poi_vec[negative] = ln0 - eta * (delta * (u0 + c) + 2 * lam * ln0)
        else:
            model.poi_vec[negative] = ln0 - eta * (delta * (u0 + c) - 2 * lam * ln0)
    model.poi_pop[obs.target] += eta * (delta - 2 * lam * model.poi_pop[obs.target])
    if config.corrected_reg:
        model.poi_pop[negative] -= eta * (delta + 2 * lam * model.poi_pop[negative])
    else:
        model.poi_pop[negative] -= eta * (delta - 2 * lam * model.poi_pop[negative])
    if mode == "full":
        for poi_id in context:
            li0 = model.poi_vec[poi_id]
            model.poi_vec[poi_id] = li0 + eta * (delta * (lt0 - ln0) - 2 * lam * li0)


def sample_negatives(trip_pois: frozenset[str], all_pois: Sequence[str], k: int,
                     rng: np.random.Generator) -> list[str]:
    """Draw k POIs uniformly with replacement from those outside the trip."""
    eligible = [i for i, p in enumerate(all_pois) if p not in trip_pois]
    if not eligible:
        raise ValueError("trip covers every POI; no negatives available")
    idx = rng.choice(eligible, size=k, replace=True)
    return [all_pois[i] for i in idx]


def train_reference(trips: Sequence[Trip], config: TrainConfig | None = None) -> EmbeddingModel:
    """BPR training with negative sampling over all (trip, target) observations."""
    if not trips:
        raise ValueError("training corpus is empty")
    config = config or TrainConfig()
    rng = np.random.default_rng(config.rng_seed)
    model = init_model(trips, config, rng)
    all_pois = model.poi_ids
    observations = [obs for t in trips for obs in observations_from_trip(t)]
    order = np.arange(len(observations))
    for _ in range(config.max_iterations):
        if config.shuffle:
            order = rng.permutation(len(observations))
        for i in order:
            obs = observations[i]
            negatives = sample_negatives(obs.trip_pois, all_pois, config.negatives, rng)
            for neg in negatives:
                sgd_step(model, obs, neg, config)
        assert_finite(model)
    return model


def array_step(model: EmbeddingModel, obs: Observation, negative: str,
               config: TrainConfig):
    """`tripkit.embedding.sgd_step` applied to a dict model, on the rows that
    `train` gives it: the model's POI vectors, then its user vectors, are
    stacked as rows in sorted-id order, stepped, and written back. As in
    `train`, the context's rows are passed only in full mode."""
    pois, users = model.poi_ids, sorted(model.user_vec)
    row = {p: i for i, p in enumerate(pois)}
    W = np.stack([model.poi_vec[p] for p in pois] + [model.user_vec[u] for u in users])
    pop = [model.poi_pop[p] for p in pois]
    context = [row[p] for p in sorted(obs.context)] if config.mode == "full" else []
    rows = np.array([len(pois) + users.index(obs.user_id), row[obs.target], row[negative],
                     *context], dtype=np.intp)
    embedding.sgd_step(W, pop, rows, embedding.step_factors(len(rows), config), config)
    for p, i in row.items():
        model.poi_vec[p], model.poi_pop[p] = W[i], pop[i]
    for j, u in enumerate(users):
        model.user_vec[u] = W[len(pois) + j]


# --- the embedding's likelihoods -------------------------------------------------


def prob_full(model: EmbeddingModel, poi_id: str, context: Iterable[str] | None = None,
              user_id: str | None = None) -> float:
    """Softmax probability of poi_id; absent context parts are zeroed out."""
    base = np.zeros(model.dim)
    if user_id is not None:
        base = base + model.user(user_id)
    if context is not None:
        base = base + context_vector(model, context)
    scores = {p: float(model.poi_vec[p] @ base) + model.poi_pop[p] for p in model.poi_vec}
    if poi_id not in scores:
        raise UnknownPoiError(f"unknown POI: {poi_id}")
    mx = max(scores.values())
    z = sum(math.exp(s - mx) for s in scores.values())
    return math.exp(scores[poi_id] - mx) / z


def bpr_margin(model: EmbeddingModel, target: str, negative: str,
               context: Iterable[str], user_id: str) -> float:
    """Score gap z between the observed POI and a sampled negative."""
    c = context_vector(model, context)
    u = model.user(user_id)
    lt, ln = model.vec(target), model.vec(negative)
    return float(lt @ c + lt @ u + model.poi_pop[target]
                 - ln @ c - ln @ u - model.poi_pop[negative])


def bpr_objective(trips: Sequence[Trip], model: EmbeddingModel,
                  config: TrainConfig, rng_seed: int = 42) -> float:
    """Monte-Carlo estimate of the regularized BPR log-likelihood (monitoring only)."""
    rng = np.random.default_rng(rng_seed)
    all_pois = model.poi_ids
    total = 0.0
    for t in trips:
        for obs in observations_from_trip(t):
            for neg in sample_negatives(obs.trip_pois, all_pois, config.negatives, rng):
                z = bpr_margin(model, obs.target, neg, sorted(obs.context), obs.user_id)
                total += math.log(sigmoid(z))
    norm = sum(float(v @ v) for v in model.poi_vec.values())
    norm += sum(float(v @ v) for v in model.user_vec.values())
    norm += sum(p * p for p in model.poi_pop.values())
    return total - config.regularization * norm
