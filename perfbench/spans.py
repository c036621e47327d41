"""Spans and counters around tripkit's public functions, attached from outside.

Each wrapper replaces the `tripkit.<module>.<name>` attribute that a caller
looks the function up by (a name imported with `from .x import f` lives in the
importing module too), or a method on its class. Nothing in `src/` changes.
Spans nest on one stack, so a span's self time is its duration minus the time
of the spans it encloses.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.stack: list[float] = []      # enclosed time of each open span
        self.total = defaultdict(float)   # span name -> inclusive seconds
        self.own = defaultdict(float)     # span name -> self seconds
        self.calls = defaultdict(int)     # span name -> calls
        self.count = defaultdict(float)   # counter name -> sum

    def wrap(self, name: str, fn, observe=None):
        """`fn` timed as span `name`; `observe(count, args, result)` may add
        counters from the call's arguments and result."""
        def traced(*args, **kwargs):
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = self.stack.pop()
                self.total[name] += dt
                self.own[name] += dt - inner
                self.calls[name] += 1
                if self.stack:
                    self.stack[-1] += dt
            if observe is not None:
                observe(self.count, args, result)
            return result
        return traced

    def counted(self, name: str, fn):
        """`fn` with a call counter only, for calls too frequent to time."""
        def counted(*args, **kwargs):
            self.count[name] += 1
            return fn(*args, **kwargs)
        return counted

    def mean_ms(self, name: str) -> float:
        return 1000.0 * self.total[name] / self.calls[name] if self.calls[name] else 0.0


def _graph_size(count, args, graph):
    count["graph.vertices"] += graph.n


def _pool_size(count, args, result):
    count["graph.pool_pois"] += len(args[2])


def _trip_stops(count, args, result):
    count["alns.trip_stops"] += len(result.trip) - 2


def _nodes(count, args, result):
    count["exact.nodes"] += result.nodes if result is not None else 0


def _folds(count, args, folds):
    count["evaluation.folds"] += len(folds)


@contextmanager
def attached(tracer: Tracer):
    """Install the spans for the duration of the block."""
    import tripkit.alns as alns
    import tripkit.checkins as checkins
    import tripkit.cli as cli
    import tripkit.embedding as embedding
    import tripkit.evaluation as evaluation
    import tripkit.graph as graph
    import tripkit.scoring as scoring

    t = tracer
    patches = []   # (owner, attribute, replacement)

    def span(owners, attr, name, observe=None):
        for owner in owners:
            patches.append((owner, attr, t.wrap(name, getattr(owner, attr), observe)))

    span([cli], "ingest_checkins", "checkins.ingest")
    span([cli], "load_pois", "checkins.ingest")
    span([cli], "aggregate_visits", "checkins.ingest")
    span([cli], "extract_trips", "checkins.ingest")
    span([cli, evaluation], "compute_visit_times", "checkins.visit_times")
    patches.append((checkins.TimeCostModel, "transit_time",
                    t.counted("checkins.transit_calls", checkins.TimeCostModel.transit_time)))
    span([cli, evaluation], "train", "embedding.train")
    span([embedding], "sgd_step", "embedding.sgd_step")
    span([embedding], "sample_negatives", "embedding.negatives")
    load = embedding.EmbeddingModel.__dict__["load"].__func__
    patches.append((embedding.EmbeddingModel, "load",
                    classmethod(t.wrap("embedding.load", load))))
    patches.append((scoring.ScoreContext, "__init__",
                    t.wrap("scoring.context", scoring.ScoreContext.__init__)))
    span([scoring, cli], "compute_zpair", "scoring.zpair")
    span([cli, evaluation], "reachable_candidates", "graph.reachable", _pool_size)
    span([cli, evaluation], "build_graph", "graph.build", _graph_size)
    span([cli, evaluation], "run_alns", "alns.run", _trip_stops)
    span([alns], "init_pool", "alns.init_pool")
    span([alns], "destroy", "alns.destroy")
    span([alns], "build", "alns.build")
    span([alns], "local_search", "alns.local_search")
    patches.append((graph.PoiGraph, "trip_objective",
                    t.wrap("alns.objective", graph.PoiGraph.trip_objective)))
    span([cli], "solve_exact", "exact.solve", _nodes)
    span([evaluation], "make_folds", "evaluation.folds", _folds)
    span([evaluation], "baseline_random", "evaluation.baselines")
    span([evaluation], "baseline_pop", "evaluation.baselines")
    span([cli], "load_corpus", "cli.load_corpus")

    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tr: Tracer, setup: Tracer, ops: int,
                  ingests: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures. `setup` holds the set-up phase with its `ingests`
    ingest calls, `tr` the timed phase of `ops` CLI calls. Times are means per call of the named function unless
    the README says "per operation"; a layer a workload never calls reads 0."""
    both = Tracer()
    for src in (setup, tr):
        for name in src.calls:
            both.total[name] += src.total[name]
            both.own[name] += src.own[name]
            both.calls[name] += src.calls[name]
        for name in src.count:
            both.count[name] += src.count[name]

    def per(counter: str, span: str, source: Tracer = tr) -> float:
        return source.count[counter] / source.calls[span] if source.calls[span] else 0.0

    def us(span: str, source: Tracer = both) -> float:
        return 1000.0 * source.mean_ms(span)

    solve_s = tr.total["exact.solve"]
    main_calls = tr.calls["cli.main"]
    m = {
        "checkins.ingest_ms": (1000.0 * setup.total["checkins.ingest"] / ingests, "ms"),
        "checkins.visit_times_ms": (1000.0 * tr.total["checkins.visit_times"] / ops, "ms"),
        "checkins.transit_calls": (tr.count["checkins.transit_calls"] / ops, "count"),
        "embedding.train_ms": (both.mean_ms("embedding.train"), "ms"),
        "embedding.sgd_steps": (both.calls["embedding.sgd_step"] / both.calls["embedding.train"]
                                if both.calls["embedding.train"] else 0.0, "count"),
        "embedding.sgd_step_us": (us("embedding.sgd_step"), "us"),
        "embedding.negatives_us": (us("embedding.negatives"), "us"),
        "embedding.load_ms": (tr.mean_ms("embedding.load"), "ms"),
        "scoring.context_ms": (1000.0 * tr.own["scoring.context"] / tr.calls["scoring.context"]
                               if tr.calls["scoring.context"] else 0.0, "ms"),
        "scoring.zpair_ms": (tr.mean_ms("scoring.zpair"), "ms"),
        "scoring.zpair_calls": (tr.calls["scoring.zpair"] / ops, "count"),
        "graph.reachable_ms": (tr.mean_ms("graph.reachable"), "ms"),
        "graph.pool_pois": (per("graph.pool_pois", "graph.reachable"), "count"),
        "graph.build_ms": (tr.mean_ms("graph.build"), "ms"),
        "graph.vertices": (per("graph.vertices", "graph.build"), "count"),
        "alns.run_ms": (tr.mean_ms("alns.run"), "ms"),
        "alns.init_pool_ms": (tr.mean_ms("alns.init_pool"), "ms"),
        "alns.iterations": (tr.calls["alns.destroy"] / tr.calls["alns.run"]
                            if tr.calls["alns.run"] else 0.0, "count"),
        "alns.destroy_us": (us("alns.destroy", tr), "us"),
        "alns.build_us": (us("alns.build", tr), "us"),
        "alns.local_search_us": (us("alns.local_search", tr), "us"),
        "alns.objective_us": (us("alns.objective", tr), "us"),
        "alns.trip_stops": (per("alns.trip_stops", "alns.run"), "count"),
        "exact.solve_ms": (tr.mean_ms("exact.solve"), "ms"),
        "exact.nodes": (per("exact.nodes", "exact.solve"), "count"),
        "exact.nodes_per_s": (tr.count["exact.nodes"] / solve_s if solve_s else 0.0, "1/s"),
        "evaluation.folds": (per("evaluation.folds", "evaluation.folds"), "count"),
        "evaluation.baselines_ms": (1000.0 * tr.total["evaluation.baselines"]
                                    / tr.count["evaluation.folds"]
                                    if tr.count["evaluation.folds"] else 0.0, "ms"),
        "cli.load_corpus_ms": (tr.mean_ms("cli.load_corpus"), "ms"),
        "cli.self_ms": (1000.0 * tr.own["cli.main"] / main_calls if main_calls else 0.0, "ms"),
    }
    return m
