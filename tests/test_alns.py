import io
import math

import numpy as np
import pytest

from tripkit.alns import (BUILD_OPS, DESTROY_OPS, AlnsConfig, SolutionPool,
                          build, cheapest_insertion, classify_scenario,
                          destroy, greedy_extend, init_pool,
                          local_search, randomized_index,
                          removal_cost_delta, removal_count,
                          removal_profit_delta, roulette_select, run_alns,
                          sa_accept, update_weight, write_trace_csv)
from tripkit.graph import PoiGraph
from conftest import random_graph
from oracles import enumerate_all, insertion_cost


class TestConfig:
    def test_defaults(self):
        c = AlnsConfig()
        assert (c.runs, c.iterations) == (5, 1000)
        assert c.scores == (10.0, 5.0, 3.0, 1.0, 0.0)

    def test_validation(self):
        AlnsConfig(runs=0, iterations=0)
        with pytest.raises(ValueError):
            AlnsConfig(runs=-1)
        with pytest.raises(ValueError):
            AlnsConfig(iterations=-1)


class TestSolutionPool:
    def test_keeps_best_first(self):
        p = SolutionPool(3)
        p.insert([0, 1, 5], 1.0)
        p.insert([0, 2, 5], 3.0)
        p.insert([0, 3, 5], 2.0)
        assert p.best() == ((0, 2, 5), 3.0)

    def test_capacity_evicts_worst(self):
        p = SolutionPool(2)
        for v, s in [(1, 1.0), (2, 3.0), (3, 2.0)]:
            p.insert([0, v, 5], s)
        assert len(p.entries) == 2
        assert {e[1] for e in p.entries} == {3.0, 2.0}

    def test_duplicate_trip_ignored(self):
        p = SolutionPool(5)
        p.insert([0, 1, 5], 1.0)
        p.insert([0, 1, 5], 99.0)
        assert p.entries == [((0, 1, 5), 1.0)]

    def test_select_proportional(self):
        p = SolutionPool(3)
        p.insert([0, 1, 5], 3.0)
        p.insert([0, 2, 5], 1.0)
        rng = np.random.default_rng(0)
        draws = [p.select(rng) for _ in range(20000)]
        freq = sum(1 for d in draws if d == (0, 1, 5)) / len(draws)
        assert abs(freq - 0.75) < 0.02

    def test_select_uniform_when_zero(self):
        p = SolutionPool(3)
        p.insert([0, 1, 5], 0.0)
        p.insert([0, 2, 5], 0.0)
        rng = np.random.default_rng(1)
        draws = [p.select(rng) for _ in range(20000)]
        freq = sum(1 for d in draws if d == (0, 1, 5)) / len(draws)
        assert abs(freq - 0.5) < 0.02

    def test_empty_select_raises(self):
        with pytest.raises(ValueError):
            SolutionPool(2).select(np.random.default_rng(0))


class TestWeights:
    def test_blend_arithmetic(self):
        assert update_weight(1.0, 10.0, 0.9) == pytest.approx(1.9)
        assert update_weight(2.0, 0.0, 0.9) == pytest.approx(1.8)

    def test_floor(self):
        assert update_weight(0.0, 0.0, 0.9) == 1e-6

    def test_reaction_extremes(self):
        assert update_weight(5.0, 3.0, 1.0) == 5.0
        assert update_weight(5.0, 3.0, 0.0) == 3.0

    def test_roulette_frequencies(self):
        weights = {"a": 3.0, "b": 1.0}
        rng = np.random.default_rng(2)
        draws = [roulette_select(weights, rng) for _ in range(20000)]
        freq = draws.count("a") / len(draws)
        assert abs(freq - 0.75) < 0.02

    def test_roulette_handles_floored_weights(self):
        weights = {"a": 0.0, "b": 1.0}
        rng = np.random.default_rng(3)
        out = {roulette_select(weights, rng) for _ in range(100)}
        assert "b" in out  # "a" nearly never wins but must not crash


class TestRemovalHelpers:
    def test_removal_count(self):
        assert removal_count(2, 0.2) == 0  # direct trip: nothing removable
        assert removal_count(5, 0.2) == 1  # ceil(0.2 * 3)
        assert removal_count(12, 0.2) == 2
        assert removal_count(7, 1.0) == 5

    def test_insertion_cost_identity(self):
        g = random_graph(0, n=6)
        trip = [0, 2, 5]
        before = g.trip_cost(trip)
        delta = insertion_cost(g, trip, 3, 1)
        assert g.trip_cost([0, 3, 2, 5]) == pytest.approx(before + delta)

    def test_cheapest_insertion_scans_all_gaps(self):
        g = random_graph(1, n=6)
        trip = [0, 1, 2, 5]
        pos, delta = cheapest_insertion(g, trip, 3)
        deltas = [insertion_cost(g, trip, 3, p) for p in range(1, len(trip))]
        assert delta == pytest.approx(min(deltas))
        assert pos == deltas.index(min(deltas)) + 1

    def test_removal_cost_delta_inverse_of_insertion(self):
        g = random_graph(2, n=6)
        trip = [0, 1, 3, 5]
        assert removal_cost_delta(g, trip, 2) == pytest.approx(
            g.trip_cost(trip) - g.trip_cost([0, 1, 5]))

    def test_removal_profit_delta(self):
        g = random_graph(3, n=6)
        trip = [0, 1, 3, 4, 5]
        drop = removal_profit_delta(g, trip, 2)
        assert drop == pytest.approx(
            g.trip_objective(trip) - g.trip_objective([0, 1, 4, 5]))

    def test_gain(self):
        g = random_graph(4, n=6)
        trip = [0, 1, 5]
        inc = g.gain(3, trip[1:-1])
        assert inc == pytest.approx(
            g.trip_objective([0, 1, 3, 5]) - g.trip_objective(trip))


class TestRandomizedIndex:
    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            idx = randomized_index(7, 6.0, 0.2, rng)
            assert 0 <= idx < 7

    def test_large_exponent_prefers_front(self):
        rng = np.random.default_rng(6)
        draws = [randomized_index(10, 1e9, 1.0, rng) for _ in range(500)]
        assert all(d == 0 for d in draws)

    def test_unit_exponent_uniformish(self):
        rng = np.random.default_rng(7)
        draws = [randomized_index(4, 1.0, 1.0, rng) for _ in range(40000)]
        for k in range(4):
            assert abs(draws.count(k) / len(draws) - 0.25) < 0.02


class GreedyRng:
    """A generator whose uniform draw is always 0.0: `randomized_index` then
    picks the first index, so a removal is purely greedy."""

    def uniform(self, low, high):
        return 0.0


class TestDestroy:
    @pytest.mark.parametrize("op", DESTROY_OPS)
    def test_removes_exact_count(self, op):
        g = random_graph(8, n=13)
        trip = list(range(13))  # 11 interior stops: ceil(0.2 * 11) = 3 go
        out = destroy(g, trip, op, AlnsConfig(), np.random.default_rng(0))
        assert len(out) == len(trip) - 3
        assert out[0] == 0 and out[-1] == 12
        assert set(out) <= set(trip)

    @pytest.mark.parametrize("op", DESTROY_OPS)
    def test_preserves_relative_order(self, op):
        g = random_graph(9, n=8)
        trip = [0, 3, 1, 4, 2, 5, 7]
        out = destroy(g, trip, op, AlnsConfig(), np.random.default_rng(1))
        kept = [v for v in trip if v in set(out)]
        assert out == kept

    def test_direct_trip_untouched(self):
        g = random_graph(9, n=5)
        out = destroy(g, [0, 4], "random", AlnsConfig(), np.random.default_rng(2))
        assert out == [0, 4]

    def test_least_profit_deterministic_when_greedy(self):
        g = random_graph(10, n=7)
        trip = [0, 1, 2, 3, 6]
        out = destroy(g, trip, "least_profit", AlnsConfig(), GreedyRng())
        deltas = {p: removal_profit_delta(g, trip, p) for p in (1, 2, 3)}
        worst = min(deltas, key=lambda p: (deltas[p], trip[p]))
        expected = [v for i, v in enumerate(trip) if i != worst]
        assert out == expected

    def test_most_cost_deterministic_when_greedy(self):
        g = random_graph(11, n=7)
        trip = [0, 1, 2, 3, 6]
        out = destroy(g, trip, "most_cost", AlnsConfig(), GreedyRng())
        deltas = {p: removal_cost_delta(g, trip, p) for p in (1, 2, 3)}
        priciest = max(deltas, key=lambda p: (deltas[p], -trip[p]))
        expected = [v for i, v in enumerate(trip) if i != priciest]
        assert out == expected

    def test_unknown_operator(self):
        g = random_graph(11, n=5)
        with pytest.raises(ValueError):
            destroy(g, [0, 1, 2, 4], "nope", AlnsConfig(), np.random.default_rng(0))


class TestBuild:
    @pytest.mark.parametrize("op", BUILD_OPS)
    def test_output_feasible(self, op):
        g = random_graph(12, n=8)
        out = build(g, [0, 7], op, 7)
        assert g.feasible(out).ok

    @pytest.mark.parametrize("op", BUILD_OPS)
    def test_maximal(self, op):
        # after building, no single further insertion fits
        g = random_graph(13, n=8)
        out = build(g, [0, 7], op, 0)
        cost = g.trip_cost(out)
        for v in g.interior():
            if v not in set(out):
                _, delta = cheapest_insertion(g, out, v)
                assert cost + delta > g.budget

    def test_most_profit_first_pick(self):
        g = random_graph(14, n=7)
        out = build(g, [0, 6], "most_profit", None)
        gains = {v: g.gain(v, []) for v in g.interior()}
        assert out[1] == max(gains, key=lambda v: (gains[v], -v)) or len(out) == 2

    def test_least_cost_first_pick(self):
        g = random_graph(15, n=7)
        out = build(g, [0, 6], "least_cost", None)
        deltas = {v: cheapest_insertion(g, [0, 6], v)[1] for v in g.interior()}
        assert out[1] == min(deltas, key=lambda v: (deltas[v], v)) or len(out) == 2

    def test_unknown_operator(self):
        g = random_graph(15, n=5)
        with pytest.raises(ValueError):
            build(g, [0, 4], "nope", None)

    def test_greedy_extend_respects_budget(self):
        g = random_graph(16, n=9)
        out = greedy_extend(g, [0, 8], lambda cur, opts: opts[0] if opts else None)
        assert g.trip_cost(out) <= g.budget


class TestLocalSearch:
    def test_preserves_vertex_set_and_endpoints(self):
        g = random_graph(17, n=8)
        trip = [0, 4, 1, 3, 2, 7]
        out = local_search(g, trip)
        assert out[0] == 0 and out[-1] == 7
        assert sorted(out) == sorted(trip)

    def test_never_increases_cost(self):
        for seed in range(10):
            g = random_graph(20 + seed, n=8)
            trip = [0, 4, 1, 3, 2, 7]
            out = local_search(g, trip)
            assert g.trip_cost(out) <= g.trip_cost(trip) + 1e-9

    def test_score_unchanged(self):
        g = random_graph(18, n=8)
        trip = [0, 4, 1, 3, 2, 7]
        out = local_search(g, trip)
        assert g.trip_objective(out) == pytest.approx(g.trip_objective(trip))

    def test_fixes_an_obvious_crossing(self):
        # line metric 0-1-2-3: visiting 2 before 1 wastes two back-and-forths
        pos = np.array([0.0, 1.0, 2.0, 3.0])
        n = 4
        cost = np.abs(pos[:, None] - pos[None, :]) * 100.0
        g = PoiGraph([f"p{i}" for i in range(n)], np.zeros(n),
                     np.zeros((n, n)), cost, budget=10000.0, start_visit_cost=0.0)
        out = local_search(g, [0, 2, 1, 3])
        assert out == [0, 1, 2, 3]

    def test_short_trips_untouched(self):
        g = random_graph(19, n=6)
        assert local_search(g, [0, 5]) == [0, 5]
        assert local_search(g, [0, 2, 5]) == [0, 2, 5]


class TestSaAccept:
    def test_always_accepts_improvement(self):
        rng = np.random.default_rng(0)
        assert all(sa_accept(2.0, 1.0, 0.3, rng) for _ in range(100))

    def test_worse_probability(self):
        # at delta = -temp * ln 2 the acceptance probability is exactly 1/2
        temp = 0.3
        delta = -temp * math.log(2.0)
        rng = np.random.default_rng(1)
        hits = sum(sa_accept(1.0 + delta, 1.0, temp, rng) for _ in range(10**5))
        assert abs(hits / 10**5 - 0.5) < 0.01

    def test_very_bad_rarely_accepted(self):
        rng = np.random.default_rng(2)
        hits = sum(sa_accept(0.0, 100.0, 0.3, rng) for _ in range(1000))
        assert hits == 0


class TestScenarios:
    def test_priority_order(self):
        # new global best outranks everything
        assert classify_scenario(True, 5.0, 1.0, 4.0, 4.0) == 0
        # new run best, not global
        assert classify_scenario(True, 3.0, 1.0, 4.0, 2.0) == 1
        # ties the run best
        assert classify_scenario(True, 2.0, 1.0, 4.0, 2.0) == 2
        # accepted though worse than current
        assert classify_scenario(True, 0.5, 1.0, 4.0, 2.0) == 3
        # rejected
        assert classify_scenario(False, 9.0, 1.0, 4.0, 2.0) == 4
        # accepted, between current and run best
        assert classify_scenario(True, 1.5, 1.0, 4.0, 2.0) == 4


class TestInitPool:
    def test_three_strategies_feasible(self):
        g = random_graph(30, n=8)
        pool = init_pool(g, 10)
        assert 1 <= len(pool.entries) <= 3
        for trip, score in pool.entries:
            assert g.feasible(list(trip)).ok
            assert score == pytest.approx(g.trip_objective(list(trip)))

    def test_raises_when_direct_infeasible(self):
        g = random_graph(30, n=5)
        hopeless = PoiGraph(g.poi_ids, g.vprofit, g.eprofit,
                            g.cost, 1.0, g.start_visit_cost)
        with pytest.raises(ValueError):
            init_pool(hopeless, 10)


class TestRunAlns:
    def test_deterministic(self):
        g = random_graph(40, n=7)
        cfg = AlnsConfig(runs=2, iterations=50)
        a = run_alns(g, cfg)
        b = run_alns(g, cfg)
        assert a.trip == b.trip and a.score == b.score

    def test_result_feasible_and_scored(self):
        for seed in range(5):
            g = random_graph(50 + seed, n=7)
            out = run_alns(g, AlnsConfig(runs=2, iterations=80))
            assert g.feasible(out.trip).ok
            assert out.score == pytest.approx(g.trip_objective(out.trip))

    def test_matches_exact_on_small_instances(self):
        for seed in range(5):
            g = random_graph(60 + seed, n=6)
            heur = run_alns(g, AlnsConfig(runs=3, iterations=150))
            opt = enumerate_all(g)
            assert heur.score >= 0.95 * opt.objective

    def test_never_beats_exact(self):
        for seed in range(5):
            g = random_graph(70 + seed, n=6)
            heur = run_alns(g, AlnsConfig(runs=2, iterations=100))
            opt = enumerate_all(g)
            assert heur.score <= opt.objective + 1e-9

    def test_trace_rows(self):
        g = random_graph(41, n=6)
        cfg = AlnsConfig(runs=2, iterations=30)
        out = run_alns(g, cfg, collect_trace=True)
        assert len(out.trace) == 2 * 30
        assert {r["run"] for r in out.trace} == {0, 1}
        buf = io.StringIO()
        write_trace_csv(out.trace, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "run,iter,destroy_op,build_op,score,accepted,temp"
        assert len(lines) == 61

    def test_more_iterations_never_worse(self):
        g = random_graph(42, n=7)
        short = run_alns(g, AlnsConfig(runs=1, iterations=20))
        long = run_alns(g, AlnsConfig(runs=1, iterations=300))
        assert long.score >= short.score - 1e-12

    def test_trips_do_not_depend_on_rounding(self):
        # scaling every pair profit by (1 + 2^-52) moves objectives by ulps
        # only; with trip-order sums it changed 14 of these 100 trips
        cfg = AlnsConfig(runs=2, iterations=100)
        for seed in range(100):
            g = random_graph(9000 + seed, n=10 + seed % 6, interior_target=5)
            scaled = [[p * (1 + 2.0 ** -52) for p in row] for row in g.eprofit]
            nudged = PoiGraph(g.poi_ids, g.vprofit, scaled, g.cost, g.budget,
                              g.start_visit_cost)
            assert run_alns(nudged, cfg).trip == run_alns(g, cfg).trip, f"seed {seed}"

    @pytest.mark.parametrize("seed", range(40))
    def test_costs_breaking_triangle_inequality(self, seed):
        # with costs of 100, 200 or 300 s a removal can make a trip dearer, so
        # a destroyed trip may already be over the budget
        rng = np.random.default_rng(seed)
        n = 20
        vp = rng.uniform(0.05, 1.0, n)
        vp[0] = vp[-1] = 0.0
        ep = rng.uniform(0.01, 0.4, (n, n))
        ep = (ep + ep.T) / 2
        np.fill_diagonal(ep, 0.0)
        cost = rng.choice([100.0, 200.0, 300.0], size=(n, n))
        np.fill_diagonal(cost, 0.0)
        g = PoiGraph([f"p{i}" for i in range(n)], vp, ep, cost, budget=1200.0,
                     start_visit_cost=100.0)
        out = run_alns(g, AlnsConfig(runs=2, iterations=200))
        assert g.feasible(out.trip).ok
        assert out.score == g.trip_objective(out.trip)
