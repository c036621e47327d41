"""Leave-one-out evaluation: folds, six quality metrics, Random/Pop baselines,
and the embedding ablation modes."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .alns import AlnsConfig, greedy_extend, run_alns
from .checkins import TimeCostModel, Trip, UnknownPoiError, compute_visit_times
from .embedding import EmbeddingModel, TrainConfig, train
from .exact import StateCapError, solve_exact
from .graph import PoiGraph, build_graph, reachable_candidates
from .scoring import Query, ScoreContext


@dataclass(frozen=True)
class Fold:
    test_trip: Trip
    query: Query
    training: tuple[Trip, ...]


@dataclass
class EvalResult:
    recall: float
    precision: float
    f1: float
    recall_s: float
    precision_s: float
    f1_s: float
    ms: float = 0.0
    solver: str = ""


def _f1(recall: float, precision: float) -> float:
    if recall + precision == 0:
        return 0.0
    return 2 * recall * precision / (recall + precision)


def metrics(trip: Sequence[str], ref: Sequence[str]) -> EvalResult:
    """Recall/precision/F1 over interior POIs, plus endpoint-inclusive variants."""
    if not trip or not ref or trip[0] != ref[0] or trip[-1] != ref[-1]:
        raise ValueError("trips must share their start and end POIs")
    a, b = set(trip[1:-1]), set(ref[1:-1])
    hit = len(a & b)
    recall = hit / len(b) if b else 0.0
    precision = hit / len(a) if a else 0.0
    a_s, b_s = set(trip), set(ref)
    hit_s = len(a_s & b_s)
    recall_s = hit_s / len(b_s)
    precision_s = hit_s / len(a_s)
    return EvalResult(recall, precision, _f1(recall, precision),
                      recall_s, precision_s, _f1(recall_s, precision_s))


def make_folds(trips: Sequence[Trip], pois=None) -> list[Fold]:
    """One fold per trip with >= 3 distinct-POI visits; budget = the trip's own
    time cost under the full-corpus visit-time model."""
    tcm = TimeCostModel(compute_visit_times(trips), pois=pois or {})
    folds = []
    for i, trip in enumerate(trips):
        ids = trip.poi_ids
        if len(ids) < 3 or len(set(ids)) < 3:
            continue
        query = Query(trip.user_id, ids[0], ids[-1], tcm.trip_cost(ids))
        training = tuple(t for j, t in enumerate(trips) if j != i)
        folds.append(Fold(trip, query, training))
    if not folds:
        raise ValueError("no trips with at least 3 POIs")
    return folds


def query_graph(model: EmbeddingModel, query: Query, tcm: TimeCostModel) -> PoiGraph:
    """The query's graph over the model's POIs that `reachable_candidates`
    keeps, scored by the model for this query: what `evaluate` builds for
    each fold and `tripkit recommend` for its query. (It calls
    `reachable_candidates` and `build_graph` through this module's names,
    which `perfbench/spans.py` wraps.)"""
    ctx = ScoreContext(model, query)
    return build_graph(ctx, query, tcm, reachable_candidates(query, tcm, model.poi_ids))


def baseline_random(graph: PoiGraph, rng: np.random.Generator) -> list[int]:
    """Insert uniformly random unvisited candidates at the cheapest position;
    stop when the chosen candidate does not fit."""
    def choose(trip, options):
        unvisited = [v for v in graph.interior() if v not in trip]
        v = unvisited[int(rng.integers(len(unvisited)))]
        return next((o for o in options if o[0] == v), None)
    return greedy_extend(graph, [graph.start, graph.end], choose)


def baseline_pop(graph: PoiGraph, visit_counts: dict[str, int]) -> list[int]:
    """Insert the most-visited unvisited candidate (ties by poi_id); stop when
    the selected candidate does not fit."""
    def rank(v):
        return -visit_counts.get(graph.poi_ids[v], 0), graph.poi_ids[v]

    def choose(trip, options):
        top = min((v for v in graph.interior() if v not in trip), key=rank)
        return next((o for o in options if o[0] == top), None)
    return greedy_extend(graph, [graph.start, graph.end], choose)


def visit_count_by_poi(trips: Sequence[Trip]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for t in trips:
        for v in t.visits:
            counts[v.poi_id] = counts.get(v.poi_id, 0) + 1
    return counts


@dataclass
class EvalReport:
    rows: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)

    def mean_by_solver(self) -> dict[str, EvalResult]:
        out: dict[str, EvalResult] = {}
        by_solver: dict[str, list[dict]] = {}
        for row in self.rows:
            by_solver.setdefault(row["solver"], []).append(row)
        for solver, rows in by_solver.items():
            def mean(key):
                return float(np.mean([r[key] for r in rows]))
            out[solver] = EvalResult(mean("recall"), mean("precision"), mean("f1"),
                                     mean("recall_s"), mean("precision_s"),
                                     mean("f1_s"), mean("ms"), solver)
        return out

    def write_csv(self, sink):
        sink.write("fold_id,solver,recall,precision,f1,recall_s,precision_s,f1_s,ms\n")
        for r in self.rows:
            sink.write(f"{r['fold_id']},{r['solver']},{r['recall']!r},"
                       f"{r['precision']!r},{r['f1']!r},{r['recall_s']!r},"
                       f"{r['precision_s']!r},{r['f1_s']!r},{r['ms']:.3f}\n")

    def summary_table(self) -> str:
        means = self.mean_by_solver()
        header = f"{'solver':<16}{'recall':>9}{'prec':>9}{'f1':>9}{'rec*':>9}{'prec*':>9}{'f1*':>9}{'ms':>10}"
        lines = [header]
        for solver in sorted(means):
            m = means[solver]
            lines.append(f"{solver:<16}{m.recall:>9.3f}{m.precision:>9.3f}{m.f1:>9.3f}"
                         f"{m.recall_s:>9.3f}{m.precision_s:>9.3f}{m.f1_s:>9.3f}{m.ms:>10.1f}")
        return "\n".join(lines)


SOLVERS = ("random", "pop", "alns", "exact")


def evaluate(trips: Sequence[Trip], solvers: Sequence[str],
             train_config: TrainConfig | None = None,
             alns_config: AlnsConfig | None = None,
             rng_seed: int = 42,
             shared_model: bool = False,
             pois=None) -> EvalReport:
    """Per-fold train + solve + score. shared_model trains once on the full
    corpus (faster, approximate leave-one-out). An empty solver list or an
    unknown solver name raises ValueError before any training."""
    if not solvers:
        raise ValueError("no solvers given")
    unknown = [name for name in solvers if name not in SOLVERS]
    if unknown:
        raise ValueError(f"unknown solver(s): {', '.join(unknown)}")
    train_config = train_config or TrainConfig()
    alns_config = alns_config or AlnsConfig()
    folds = make_folds(trips, pois=pois)
    report = EvalReport()
    cached_model = train(trips, train_config) if shared_model else None
    for fold_id, fold in enumerate(folds):
        rng = np.random.default_rng(rng_seed + fold_id)
        try:
            training = fold.training if not shared_model else trips
            model = cached_model or train(list(fold.training), train_config)
            counts = visit_count_by_poi(list(training))
            tcm = TimeCostModel(compute_visit_times(list(training)), pois=pois or {})
            graph = query_graph(model, fold.query, tcm)  # a shared model keeps its first z_pair
            rows = []  # kept only if every solver completes the fold
            for name in solvers:
                t0 = time.perf_counter()
                if name == "random":
                    trip_idx = baseline_random(graph, rng)
                elif name == "pop":
                    trip_idx = baseline_pop(graph, counts)
                elif name == "alns":
                    trip_idx = run_alns(graph, alns_config, model).trip
                else:
                    result = solve_exact(graph)
                    if result is None:
                        raise ValueError("no feasible trip")
                    trip_idx = result.trip
                ms = (time.perf_counter() - t0) * 1000.0
                verdict = graph.feasible(trip_idx)
                if not verdict.ok:
                    raise ValueError(f"{name} returned an infeasible trip: {verdict.reason}")
                m = metrics([graph.poi_ids[v] for v in trip_idx], list(fold.test_trip.poi_ids))
                rows.append({"fold_id": fold_id, "solver": name, "recall": m.recall,
                             "precision": m.precision, "f1": m.f1, "recall_s": m.recall_s,
                             "precision_s": m.precision_s, "f1_s": m.f1_s, "ms": ms})
            report.rows.extend(rows)
        except (ValueError, UnknownPoiError, StateCapError, RuntimeError, FloatingPointError,
                OverflowError) as exc:  # what the pipeline raises on purpose
            report.errors.append({"fold_id": fold_id, "error": str(exc)})
    return report
