
import numpy as np
import pytest

from tripkit.checkins import TimeCostModel, Poi
from tripkit.embedding import EmbeddingModel
from tripkit.graph import PoiGraph, build_graph, reachable_candidates
from tripkit.scoring import Query, ScoreContext
from conftest import random_graph


def toy_setup(seed=0, n_pois=5, budget=20000.0):
    rng = np.random.default_rng(seed)
    ids = [f"p{i}" for i in range(n_pois)]
    model = EmbeddingModel(3,
                           {p: rng.normal(scale=0.5, size=3) for p in ids},
                           {p: 0.0 for p in ids},
                           {"u1": rng.normal(scale=0.5, size=3)})
    pois = {p: Poi(p, float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))
            for p in ids}
    visit = {p: float(rng.uniform(300, 900)) for p in ids}
    tcm = TimeCostModel(visit, pois)
    query = Query("u1", ids[0], ids[-1], budget)
    ctx = ScoreContext(model, query)
    return model, ctx, query, tcm, ids


class TestPoiGraphBasics:
    def test_start_end_vertices(self):
        g = random_graph(0, n=6)
        assert g.start == 0 and g.end == 5
        assert list(g.interior()) == [1, 2, 3, 4]

    def test_endpoint_profit_must_be_zero(self):
        with pytest.raises(ValueError):
            PoiGraph(["a", "b"], np.array([0.5, 0.0]), np.zeros((2, 2)),
                     np.zeros((2, 2)), 100.0, 10.0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            PoiGraph(["a"], np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)),
                     100.0, 10.0)


class TestTripCost:
    def test_direct_trip(self):
        g = random_graph(1, n=5)
        assert g.trip_cost([0, 4]) == pytest.approx(
            g.start_visit_cost + g.cost[0][4])

    def test_hand_sum(self):
        g = random_graph(2, n=6)
        trip = [0, 2, 4, 5]
        expected = (g.start_visit_cost + g.cost[0][2]
                    + g.cost[2][4] + g.cost[4][5])
        assert g.trip_cost(trip) == pytest.approx(expected)


class TestTripObjective:
    def test_direct_trip_zero(self):
        g = random_graph(3, n=6)
        assert g.trip_objective([0, 5]) == 0.0

    def test_hand_sum(self):
        g = random_graph(4, n=6)
        trip = [0, 1, 3, 4, 5]
        expected = (g.vprofit[1] + g.vprofit[3] + g.vprofit[4]
                    + g.eprofit[1][3] + g.eprofit[1][4]
                    + g.eprofit[3][4])
        assert g.trip_objective(trip) == pytest.approx(expected)

    def test_order_invariant(self):
        g = random_graph(5, n=7)
        a = g.trip_objective([0, 1, 2, 3, 6])
        b = g.trip_objective([0, 3, 1, 2, 6])
        assert a == pytest.approx(b, rel=1e-12)


class TestFeasible:
    def test_ok(self):
        g = random_graph(6, n=5)
        assert g.feasible([0, 4]).ok

    def test_wrong_start(self):
        g = random_graph(6, n=5)
        out = g.feasible([1, 4])
        assert not out.ok and out.reason == "start"

    def test_wrong_end(self):
        g = random_graph(6, n=5)
        out = g.feasible([0, 1])
        assert not out.ok and out.reason == "end"

    def test_repeat(self):
        g = random_graph(6, n=5)
        out = g.feasible([0, 1, 1, 4])
        assert not out.ok and out.reason == "repeat"

    def test_budget(self):
        g = random_graph(6, n=5)
        tight = PoiGraph(g.poi_ids, g.vprofit, g.eprofit, g.cost,
                         g.start_visit_cost + g.cost[0][4] - 1.0,
                         g.start_visit_cost)
        out = tight.feasible([0, 4])
        assert not out.ok and out.reason.startswith("budget")


class TestReachableCandidates:
    def test_filters_far_pois(self):
        _, _, _, tcm, ids = toy_setup(seed=11)
        q = Query("u1", ids[0], ids[-1], 1.0)  # nothing fits a 1-second budget
        out = reachable_candidates(q, tcm, ids)
        assert out == [ids[0], ids[-1]]

    def test_keeps_near_pois(self):
        _, _, q, tcm, ids = toy_setup(seed=11, budget=10**7)
        out = reachable_candidates(q, tcm, ids)
        assert out == [ids[0]] + sorted(ids[1:-1]) + [ids[-1]]

    def test_exact_boundary_inclusive(self):
        _, _, _, tcm, ids = toy_setup(seed=12)
        p = ids[2]
        detour = (tcm.visit_time(ids[0]) + tcm.visit_time(ids[-1])
                  + tcm.transit_time(ids[0], p) + tcm.visit_time(p)
                  + tcm.transit_time(p, ids[-1]))
        q = Query("u1", ids[0], ids[-1], detour)
        assert p in reachable_candidates(q, tcm, ids)


class TestBuildGraph:
    def test_vertex_layout(self):
        model, ctx, query, tcm, ids = toy_setup(seed=20)
        g = build_graph(ctx, query, tcm, ids)
        assert g.poi_ids[0] == query.start
        assert g.poi_ids[-1] == query.end
        assert g.poi_ids[1:-1] == sorted(ids[1:-1])

    def test_profits_match_scoring(self):
        model, ctx, query, tcm, ids = toy_setup(seed=21)
        g = build_graph(ctx, query, tcm, ids)
        for i in g.interior():
            assert g.vprofit[i] == pytest.approx(ctx.closeness(g.poi_ids[i]))
        for i in range(g.n):
            for j in range(g.n):
                if i != j and g.poi_ids[i] != g.poi_ids[j]:
                    assert g.eprofit[i][j] == pytest.approx(
                        ctx.ncsim(g.poi_ids[i], g.poi_ids[j]))

    def test_costs_match_time_model(self):
        model, ctx, query, tcm, ids = toy_setup(seed=22)
        g = build_graph(ctx, query, tcm, ids)
        for i in range(g.n):
            for j in range(g.n):
                if i != j:
                    expected = (tcm.visit_time(g.poi_ids[j])
                                + tcm.transit_time(g.poi_ids[i], g.poi_ids[j]))
                    assert g.cost[i][j] == pytest.approx(expected)
        assert g.start_visit_cost == tcm.visit_time(query.start)

    def test_objective_equals_ctq(self):
        # the graph objective and the direct trip score are the same number
        model, ctx, query, tcm, ids = toy_setup(seed=23)
        g = build_graph(ctx, query, tcm, ids)
        trip_v = [0, 1, 2, 3, g.n - 1]
        trip_p = [g.poi_ids[v] for v in trip_v]
        assert g.trip_objective(trip_v) == pytest.approx(
            ctx.ctq_score(trip_p), rel=1e-12)

    def test_cost_equals_time_model_trip_cost(self):
        model, ctx, query, tcm, ids = toy_setup(seed=24)
        g = build_graph(ctx, query, tcm, ids)
        trip_v = [0, 2, 1, g.n - 1]
        trip_p = [g.poi_ids[v] for v in trip_v]
        assert g.trip_cost(trip_v) == pytest.approx(tcm.trip_cost(trip_p))

    def test_same_start_end_two_vertices(self):
        model, _, _, tcm, ids = toy_setup(seed=25)
        query = Query("u1", ids[0], ids[0], 20000.0)
        ctx = ScoreContext(model, query)
        g = build_graph(ctx, query, tcm, ids)
        assert g.n == len(ids) + 1
        assert g.poi_ids[0] == g.poi_ids[-1] == ids[0]
        assert g.cost[0][g.end] == pytest.approx(tcm.visit_time(ids[0]))
        assert g.eprofit[0][g.end] == 0.0

    def test_missing_endpoint_rejected(self):
        model, ctx, query, tcm, ids = toy_setup(seed=26)
        with pytest.raises(ValueError):
            build_graph(ctx, query, tcm, ids[1:])

    def test_unknown_poi_rejected(self):
        model, ctx, query, tcm, ids = toy_setup(seed=27)
        with pytest.raises(KeyError):
            build_graph(ctx, query, tcm, ids + ["nope"])
