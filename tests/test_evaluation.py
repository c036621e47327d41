import io
from dataclasses import replace

import numpy as np
import pytest

import tripkit.evaluation
import tripkit.exact
import tripkit.scoring
from tripkit.alns import AlnsConfig
from tripkit.checkins import PoiVisit, TimeCostModel, Trip, compute_visit_times
from tripkit.graph import PoiGraph, build_graph
from tripkit.embedding import EmbeddingModel, TrainConfig, train
from tripkit.evaluation import (EvalReport, baseline_pop, baseline_random,
                                evaluate, make_folds, metrics, visit_count_by_poi)
from tripkit.scoring import ScoreContext
from conftest import make_trip, poi_coords, random_graph, two_clique_corpus
from test_acceptance import structured_corpus


class TestMetrics:
    def test_perfect_match(self):
        m = metrics(["s", "a", "b", "e"], ["s", "a", "b", "e"])
        assert (m.recall, m.precision, m.f1) == (1.0, 1.0, 1.0)
        assert (m.recall_s, m.precision_s, m.f1_s) == (1.0, 1.0, 1.0)

    def test_half_hit(self):
        # one of two reference interiors recovered, one of one predicted
        m = metrics(["s", "a", "e"], ["s", "a", "b", "e"])
        assert m.recall == pytest.approx(0.5)
        assert m.precision == pytest.approx(1.0)
        assert m.f1 == pytest.approx(2 / 3)

    def test_no_interior_prediction(self):
        m = metrics(["s", "e"], ["s", "a", "e"])
        assert (m.recall, m.precision, m.f1) == (0.0, 0.0, 0.0)
        # the endpoints still count in the starred variants
        assert m.recall_s == pytest.approx(2 / 3)
        assert m.precision_s == pytest.approx(1.0)

    def test_disjoint_interiors(self):
        m = metrics(["s", "a", "e"], ["s", "b", "e"])
        assert (m.recall, m.precision, m.f1) == (0.0, 0.0, 0.0)

    def test_order_blind(self):
        a = metrics(["s", "a", "b", "e"], ["s", "b", "a", "e"])
        assert (a.recall, a.precision) == (1.0, 1.0)

    def test_requires_matching_endpoints(self):
        with pytest.raises(ValueError):
            metrics(["s", "a", "e"], ["x", "a", "e"])
        with pytest.raises(ValueError):
            metrics([], ["s", "e"])


class TestMakeFolds:
    def test_skips_short_trips(self):
        trips = [make_trip("u1", ["a", "b"]),
                 make_trip("u1", ["a", "b", "c"]),
                 make_trip("u2", ["a", "b", "c", "d"])]
        folds = make_folds(trips, pois=poi_coords(trips))
        assert len(folds) == 2
        assert folds[0].test_trip is trips[1]

    def test_training_excludes_test(self):
        trips = [make_trip("u1", ["a", "b", "c"]),
                 make_trip("u2", ["b", "c", "d"])]
        folds = make_folds(trips, pois=poi_coords(trips))
        assert len(folds[0].training) == 1
        assert folds[0].training[0] is trips[1]

    def test_query_fields(self):
        trips = [make_trip("u1", ["a", "b", "c"]),
                 make_trip("u2", ["b", "c", "d"])]
        fold = make_folds(trips, pois=poi_coords(trips))[0]
        assert fold.query.user_id == "u1"
        assert fold.query.start == "a" and fold.query.end == "c"
        assert fold.query.budget > 0

    def test_budget_covers_own_trip(self):
        # the left-out trip must be affordable under its own budget
        trips = [make_trip("u1", ["a", "b", "c"], duration=500),
                 make_trip("u2", ["b", "c", "d"], duration=300)]
        from tripkit.checkins import TimeCostModel, compute_visit_times
        pois = poi_coords(trips)
        tcm = TimeCostModel(compute_visit_times(trips), pois=pois)
        fold = make_folds(trips, pois=pois)[0]
        assert fold.query.budget == pytest.approx(tcm.trip_cost(["a", "b", "c"]))

    def test_budget_is_the_graph_cost_of_own_trip(self):
        # to the bit: the corpus time model's trip cost and the graph's sum of
        # its legs add the same terms in the same order
        trips, pois = structured_corpus(42)
        tcm = TimeCostModel(compute_visit_times(trips), pois=pois)
        ids = sorted(pois)
        model = EmbeddingModel(2, {p: np.zeros(2) for p in ids}, dict.fromkeys(ids, 0.0),
                               {t.user_id: np.zeros(2) for t in trips})
        folds = make_folds(trips, pois=pois)
        assert len(folds) == len(trips)
        for fold in folds:
            stops = fold.test_trip.poi_ids
            graph = build_graph(ScoreContext(model, fold.query), fold.query, tcm, stops)
            trip = [0, *(graph.poi_ids.index(p) for p in stops[1:-1]), graph.end]
            assert graph.trip_cost(trip) == fold.query.budget

    def test_repeated_pois_dont_count_twice(self):
        trips = [make_trip("u1", ["a", "b", "a"]),
                 make_trip("u2", ["a", "b", "c"])]
        folds = make_folds(trips, pois=poi_coords(trips))
        assert len(folds) == 1  # a,b,a has only two distinct POIs

    def test_all_short_raises(self):
        with pytest.raises(ValueError):
            make_folds([make_trip("u1", ["a", "b"])], pois={})


class TestVisitCounts:
    def test_counts(self):
        trips = [make_trip("u1", ["a", "b", "a"]), make_trip("u2", ["b"])]
        assert visit_count_by_poi(trips) == {"a": 2, "b": 2}


class TestBaselineRandom:
    def test_feasible_and_deterministic_per_seed(self):
        g = random_graph(0, n=8)
        a = baseline_random(g, np.random.default_rng(7))
        b = baseline_random(g, np.random.default_rng(7))
        assert a == b
        assert g.feasible(a).ok

    def test_stops_on_first_misfit(self):
        # tiny budget: the first random pick cannot fit, so the trip stays direct
        g = random_graph(1, n=8)
        from tripkit.graph import PoiGraph
        tight = PoiGraph(g.poi_ids, g.vprofit, g.eprofit, g.cost,
                         g.start_visit_cost + g.cost[0][7] + 1.0,
                         g.start_visit_cost)
        assert baseline_random(tight, np.random.default_rng(0)) == [0, 7]

    def test_generator_draws_pinned(self):
        # one draw per pick, including the pick that does not fit, and none
        # once every vertex is in the trip; the draws that follow are pinned
        g = random_graph(0, n=8, interior_target=3)
        tight = random_graph(1, n=8)
        tight = PoiGraph(tight.poi_ids, tight.vprofit, tight.eprofit, tight.cost,
                         tight.start_visit_cost + tight.cost[0][7] + 1.0,
                         tight.start_visit_cost)
        roomy = random_graph(2, n=6)
        roomy = PoiGraph(roomy.poi_ids, roomy.vprofit, roomy.eprofit, roomy.cost,
                         1e12, roomy.start_visit_cost)
        for graph, seed, trip, after in [(g, 7, [0, 6, 3, 4, 7], [578, 775, 833]),
                                         (tight, 0, [0, 7], [636, 511, 269]),
                                         (roomy, 3, [0, 1, 4, 2, 3, 5], [236, 181, 801])]:
            rng = np.random.default_rng(seed)
            assert baseline_random(graph, rng) == trip
            assert rng.integers(1000, size=3).tolist() == after


class TestBaselinePop:
    def counts_for(self, g, ranking):
        return {g.poi_ids[v]: c for v, c in ranking.items()}

    def uniform_graph(self, budget):
        # visit 100 + transit 100 everywhere: each insertion costs 200
        n = 4
        cost = np.full((n, n), 200.0)
        np.fill_diagonal(cost, 0.0)
        return PoiGraph([f"p{i}" for i in range(n)], np.zeros(n),
                        np.zeros((n, n)), cost, budget=budget,
                        start_visit_cost=100.0)

    def test_picks_most_visited_first(self):
        # budget fits exactly one interior stop; the popular one wins
        g = self.uniform_graph(budget=550.0)
        trip = baseline_pop(g, {"p1": 1, "p2": 99})
        assert trip == [0, 2, 3]

    def test_deterministic(self):
        g = random_graph(3, n=7)
        counts = self.counts_for(g, {v: v for v in g.interior()})
        assert baseline_pop(g, counts) == baseline_pop(g, counts)

    def test_tie_break_by_poi_id(self):
        # zero counts everywhere: the smallest POI id is chosen first
        g = self.uniform_graph(budget=550.0)
        assert baseline_pop(g, {}) == [0, 1, 3]


class TestAblationTrain:
    def test_mode_passthrough(self):
        trips, _ = two_clique_corpus(n_trips=12, pois_per_clique=4)
        cfg = TrainConfig(dim=3, max_iterations=2, rng_seed=0)
        m = train(trips, replace(cfg, mode="pop-only"))
        assert all(np.all(v == 0.0) for v in m.poi_vec.values())


class TestEvalReport:
    def make_report(self):
        r = EvalReport()
        for fold in range(2):
            r.rows.append({"fold_id": fold, "solver": "alns", "recall": 1.0,
                           "precision": 0.5, "f1": 2 / 3, "recall_s": 1.0,
                           "precision_s": 0.75, "f1_s": 6 / 7, "ms": 10.0 + fold})
        r.rows.append({"fold_id": 0, "solver": "pop", "recall": 0.0,
                       "precision": 0.0, "f1": 0.0, "recall_s": 0.5,
                       "precision_s": 1.0, "f1_s": 2 / 3, "ms": 1.0})
        return r

    def test_mean_by_solver(self):
        means = self.make_report().mean_by_solver()
        assert means["alns"].recall == pytest.approx(1.0)
        assert means["alns"].ms == pytest.approx(10.5)
        assert means["pop"].f1 == 0.0

    def test_csv_shape(self):
        buf = io.StringIO()
        self.make_report().write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "fold_id,solver,recall,precision,f1,recall_s,precision_s,f1_s,ms"
        assert len(lines) == 4
        assert lines[1].startswith("0,alns,1.0,0.5,")

    def test_summary_table_sorted(self):
        table = self.make_report().summary_table().splitlines()
        assert table[0].startswith("solver")
        assert table[1].split()[0] == "alns"
        assert table[2].split()[0] == "pop"


@pytest.fixture(scope="module")
def small_corpus():
    trips, _ = two_clique_corpus(seed=1, pois_per_clique=5, n_trips=24,
                                 trip_len=4)
    return trips


@pytest.fixture
def zpair_calls(monkeypatch):
    """One entry per compute_zpair call, counted where ScoreContext looks it up."""
    calls = []
    real = tripkit.scoring.compute_zpair

    def counted(model):
        calls.append(1)
        return real(model)
    monkeypatch.setattr(tripkit.scoring, "compute_zpair", counted)
    return calls


class TestEvaluate:
    def test_end_to_end_rows(self, small_corpus):
        report = evaluate(small_corpus, ["random", "pop", "alns"], pois=poi_coords(small_corpus),
                          train_config=TrainConfig(dim=4, max_iterations=3),
                          alns_config=AlnsConfig(runs=1, iterations=30),
                          shared_model=True)
        assert not report.errors, report.errors
        folds = {r["fold_id"] for r in report.rows}
        assert len(report.rows) == 3 * len(folds)
        for r in report.rows:
            assert 0.0 <= r["recall"] <= 1.0
            assert 0.0 <= r["precision"] <= 1.0
            assert r["ms"] >= 0.0

    def test_deterministic(self, small_corpus):
        kwargs = dict(train_config=TrainConfig(dim=3, max_iterations=2),
                      alns_config=AlnsConfig(runs=1, iterations=20),
                      shared_model=True)
        kwargs["pois"] = poi_coords(small_corpus)
        a = evaluate(small_corpus, ["pop", "alns"], **kwargs)
        b = evaluate(small_corpus, ["pop", "alns"], **kwargs)

        def strip_ms(rows):
            return [{k: v for k, v in r.items() if k != "ms"} for r in rows]
        assert strip_ms(a.rows) == strip_ms(b.rows)

    def test_per_fold_training_excludes_test_user_sometimes(self):
        # a user seen only in the test trip makes the fold error out, not crash
        pois = [f"p{i}" for i in range(8)]
        trips = [make_trip("solo", pois[:3])] + \
                [make_trip(f"u{i}", pois[i:i + 3], start=10000 * (i + 1))
                 for i in range(5)]
        report = evaluate(trips, ["pop"], pois=poi_coords(trips),
                          train_config=TrainConfig(dim=2, max_iterations=1),
                          alns_config=AlnsConfig(runs=1, iterations=5))
        assert any("unknown user: solo" in e["error"] for e in report.errors)

    def test_failed_fold_leaves_no_rows(self):
        # POI a's visits last 20,000 s in every trip but the first, so fold
        # 0's training visit time of a is far above the full-corpus mean that
        # set its budget: even the direct trip is over it
        def trip(user, stays, t):
            visits = []
            for poi, duration in stays:
                visits.append(PoiVisit(user, poi, t, t + duration))
                t += duration + 600
            return Trip(user, tuple(visits))
        trips = [trip("u0", [("a", 0), ("b", 600), ("c", 600)], 0),
                 trip("u0", [("a", 20000), ("c", 600), ("d", 600)], 100000),
                 trip("u1", [("a", 20000), ("b", 600), ("c", 600)], 200000),
                 trip("u1", [("d", 600), ("b", 600), ("c", 600)], 300000)]
        report = evaluate(trips, ["random", "pop", "alns"], pois=poi_coords(trips),
                          train_config=TrainConfig(dim=2, max_iterations=2),
                          alns_config=AlnsConfig(runs=1, iterations=10))
        assert [e["fold_id"] for e in report.errors] == [0]
        assert "random returned an infeasible trip: budget" in report.errors[0]["error"]
        assert [(r["fold_id"], r["solver"]) for r in report.rows] == [
            (f, s) for f in (1, 2, 3) for s in ("random", "pop", "alns")]

    def test_a_bug_is_not_a_failed_fold(self, small_corpus, monkeypatch):
        # only what the pipeline raises on purpose excludes a fold
        def broken(graph, counts):
            raise TypeError("a bug")
        monkeypatch.setattr(tripkit.evaluation, "baseline_pop", broken)
        with pytest.raises(TypeError, match="a bug"):
            evaluate(small_corpus, ["pop"], pois=poi_coords(small_corpus),
                     train_config=TrainConfig(dim=2, max_iterations=1), shared_model=True)

    def test_exact_solver_runs(self, small_corpus):
        report = evaluate(small_corpus[:12], ["exact"], pois=poi_coords(small_corpus),
                          train_config=TrainConfig(dim=3, max_iterations=2),
                          alns_config=AlnsConfig(runs=1, iterations=10),
                          shared_model=True)
        assert report.rows, report.errors

    def test_state_cap_is_a_failed_fold(self, small_corpus, monkeypatch):
        monkeypatch.setattr(tripkit.exact, "STATE_CAP", 0)
        report = evaluate(small_corpus[:12], ["pop", "exact"], pois=poi_coords(small_corpus),
                          train_config=TrainConfig(dim=3, max_iterations=2),
                          shared_model=True)
        assert report.errors
        for error in report.errors:
            assert error["error"].startswith("the exact solver needs more than 0 states")
        failed = {e["fold_id"] for e in report.errors}
        assert not failed & {r["fold_id"] for r in report.rows}

    def test_shared_model_computes_zpair_once(self, small_corpus, zpair_calls):
        report = evaluate(small_corpus, ["pop"], pois=poi_coords(small_corpus),
                          train_config=TrainConfig(dim=3, max_iterations=2),
                          shared_model=True)
        assert not report.errors, report.errors
        assert len({r["fold_id"] for r in report.rows}) > 1
        assert len(zpair_calls) == 1

    def test_per_fold_computes_zpair_per_fold(self, small_corpus, zpair_calls):
        report = evaluate(small_corpus, ["pop"], pois=poi_coords(small_corpus),
                          train_config=TrainConfig(dim=3, max_iterations=1))
        assert len(zpair_calls) == len({r["fold_id"] for r in report.rows}) > 1

    def test_unknown_solver_rejected_before_training(self, small_corpus, monkeypatch):
        trained = []
        monkeypatch.setattr(tripkit.evaluation, "train",
                            lambda *a, **k: trained.append(1))
        with pytest.raises(ValueError, match="unknown solver.*nosuch"):
            evaluate(small_corpus, ["random", "nosuch"], shared_model=True)
        assert not trained

    def test_empty_solver_list_rejected_before_training(self, small_corpus, monkeypatch):
        trained = []
        monkeypatch.setattr(tripkit.evaluation, "train",
                            lambda *a, **k: trained.append(1))
        with pytest.raises(ValueError, match="no solvers"):
            evaluate(small_corpus, [])
        assert not trained

    def test_train_config_mode_reaches_train(self, small_corpus, monkeypatch):
        modes = []
        real = tripkit.evaluation.train

        def spy(trips, config):
            modes.append(config.mode)
            return real(trips, config)
        monkeypatch.setattr(tripkit.evaluation, "train", spy)
        evaluate(small_corpus, ["pop"], pois=poi_coords(small_corpus),
                 train_config=TrainConfig(dim=3, max_iterations=1, mode="pop-only"),
                 shared_model=True)
        assert modes == ["pop-only"]
