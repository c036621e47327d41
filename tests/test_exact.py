import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripkit.exact
from tripkit.alns import AlnsConfig, run_alns
from tripkit.evaluation import baseline_pop, baseline_random
from tripkit.exact import (StateCapError, build_ilp, pvar, solve_exact, write_lp, xpvar,
                           xvar)
from tripkit.graph import PoiGraph
from conftest import random_graph
from lp_reader import models_equal, read_lp
from oracles import (check_assignment, encode_trip, enumerate_all, objective_value,
                     solve_with_highs)
from test_oracles import tied_graph


class TestModelShape:
    def test_variable_counts_n4(self):
        g = random_graph(0, n=4)
        m = build_ilp(g)
        assert len([v for v in m.binaries if v.startswith("x_")]) == 16
        assert len([v for v in m.binaries if v.startswith("xp_")]) == 3
        assert m.generals == ["p_2", "p_3", "p_4"]

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_counts_formula(self, n):
        g = random_graph(1, n=n)
        m = build_ilp(g)
        assert len([v for v in m.binaries if v.startswith("x_")]) == n * n
        assert len([v for v in m.binaries if v.startswith("xp_")]) == (n - 1) * (n - 2) // 2
        assert len(m.generals) == n - 1
        expected_cons = 2 + 2 * (n - 2) + 3 * (n - 1) * (n - 2) // 2 + 1 + (n - 1) ** 2
        assert len(m.constraints) == expected_cons

    def test_position_bounds(self):
        g = random_graph(2, n=5)
        m = build_ilp(g)
        for i in range(2, 6):
            assert m.bounds[pvar(i)] == (2.0, 5.0)

    def test_budget_rhs_excludes_start_visit(self):
        g = random_graph(3, n=5)
        m = build_ilp(g)
        budget = next(c for c in m.constraints if c.cid == "budget")
        assert budget.rhs == pytest.approx(g.budget - g.start_visit_cost)
        assert budget.coeffs[xvar(1, 2)] == pytest.approx(g.cost[0][1])


class TestEncodeAndCheck:
    def test_feasible_trip_passes(self):
        g = random_graph(4, n=6)
        m = build_ilp(g)
        trip = [0, 2, 3, 5]
        assert g.feasible(trip).ok
        out = check_assignment(m, encode_trip(m, trip))
        assert out["feasible"], out["violated"]
        assert out["objective"] == pytest.approx(g.trip_objective(trip))

    def test_direct_trip_passes(self):
        g = random_graph(5, n=5)
        m = build_ilp(g)
        out = check_assignment(m, encode_trip(m, [0, 4]))
        assert out["feasible"], out["violated"]
        assert out["objective"] == pytest.approx(0.0)

    def test_all_feasible_orderings_match_graph_objective(self):
        g = random_graph(6, n=5)
        m = build_ilp(g)
        for size in range(4):
            for order in itertools.permutations(g.interior(), size):
                trip = [0, *order, 4]
                if g.feasible(trip).ok:
                    out = check_assignment(m, encode_trip(m, trip))
                    assert out["feasible"], (trip, out["violated"])
                    assert out["objective"] == pytest.approx(g.trip_objective(trip))

    def test_over_budget_trip_flagged(self):
        g = random_graph(7, n=5)
        tight = PoiGraph(g.poi_ids, g.vprofit, g.eprofit, g.cost,
                         g.start_visit_cost + g.cost[0][4] + 1.0,
                         g.start_visit_cost)
        m = build_ilp(tight)
        out = check_assignment(m, encode_trip(m, [0, 1, 2, 4]))
        assert not out["feasible"]
        assert "budget" in out["violated"]

    def test_cycle_caught_by_positions(self):
        g = random_graph(8, n=6)
        m = build_ilp(g)
        a = encode_trip(m, [0, 5])
        # graft a disconnected 2-cycle among interior vertices
        a[xvar(2, 3)] = 1.0
        a[xvar(3, 2)] = 1.0
        a[xpvar(2, 3)] = 1.0
        out = check_assignment(m, a)
        assert not out["feasible"]
        assert any(v.startswith("pos_") for v in out["violated"])

    def test_self_loop_caught(self):
        g = random_graph(9, n=5)
        m = build_ilp(g)
        a = encode_trip(m, [0, 4])
        a[xvar(3, 3)] = 1.0
        out = check_assignment(m, a)
        assert not out["feasible"]
        assert "pos_3_3" in out["violated"]

    def test_missing_variable_rejected(self):
        g = random_graph(9, n=4)
        m = build_ilp(g)
        a = encode_trip(m, [0, 3])
        del a[xvar(1, 2)]
        with pytest.raises(ValueError):
            check_assignment(m, a)


class TestLinearization:
    def test_pair_variables_track_products(self):
        # for every x-assignment coming from a real trip, the three pair
        # constraints hold exactly when xp_i_j equals out_i * out_j
        g = random_graph(10, n=5)
        m = build_ilp(g)
        n = m.n
        for order in itertools.permutations(range(1, 4), 2):
            trip = [0, *order, 4]
            a = encode_trip(m, trip)
            selected = {v + 1 for v in trip}
            for i in range(1, n):
                for j in range(i + 1, n):
                    want = 1.0 if (i in selected and j in selected) else 0.0
                    assert a[xpvar(i, j)] == want
            assert check_assignment(m, a)["feasible"]

    def test_wrong_pair_value_violates(self):
        g = random_graph(11, n=5)
        m = build_ilp(g)
        a = encode_trip(m, [0, 1, 2, 4])
        a[xpvar(2, 3)] = 0.0  # both selected, pair forced to 1
        out = check_assignment(m, a)
        assert "pair_lb_2_3" in out["violated"]
        a[xpvar(2, 3)] = 1.0
        a[xpvar(3, 4)] = 1.0  # vertex 4 unselected, pair must be 0
        out = check_assignment(m, a)
        assert "pair_ub2_3_4" in out["violated"]


class TestLpRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_write_read_equal(self, seed):
        m = build_ilp(random_graph(seed, n=5))
        buf = io.StringIO()
        write_lp(m, buf)
        buf.seek(0)
        m2 = read_lp(buf)
        assert models_equal(m, m2)

    def test_detects_perturbed_coefficient(self):
        m = build_ilp(random_graph(3, n=4))
        buf = io.StringIO()
        write_lp(m, buf)
        buf.seek(0)
        m2 = read_lp(buf)
        m2.constraints[0].coeffs[xvar(1, 2)] += 1e-9
        assert not models_equal(m, m2)

    def test_float_fidelity(self):
        m = build_ilp(random_graph(4, n=4))
        buf = io.StringIO()
        write_lp(m, buf)
        buf.seek(0)
        m2 = read_lp(buf)
        budget_a = next(c for c in m.constraints if c.cid == "budget")
        budget_b = next(c for c in m2.constraints if c.cid == "budget")
        assert budget_a.rhs == budget_b.rhs  # exact, via repr round-trip
        assert budget_a.coeffs == budget_b.coeffs


class TestEnumerateAll:
    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_all(random_graph(0, n=13))

    def test_direct_only_when_budget_tight(self):
        g = random_graph(12, n=5)
        tight = PoiGraph(g.poi_ids, g.vprofit, g.eprofit, g.cost,
                         g.start_visit_cost + g.cost[0][4],
                         g.start_visit_cost)
        out = enumerate_all(tight)
        assert out.trip == [0, 4]

    def test_none_when_nothing_fits(self):
        g = random_graph(12, n=5)
        hopeless = PoiGraph(g.poi_ids, g.vprofit, g.eprofit, g.cost,
                            1.0, g.start_visit_cost)
        assert enumerate_all(hopeless) is None

    def test_node_count(self):
        g = random_graph(13, n=5)
        out = enumerate_all(g)
        # sum over k of P(3, k) orderings = 1 + 3 + 6 + 6
        assert out.nodes == 16


class TestSolveExact:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute_force(self, seed):
        g = random_graph(seed, n=6)
        a, b = solve_exact(g), enumerate_all(g)
        assert a is not None and b is not None
        assert a.objective == pytest.approx(b.objective, abs=1e-12)
        assert a.trip == b.trip

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_larger(self, seed):
        # near-tie optima may legitimately differ in ordering; the
        # objective is the contract
        g = random_graph(100 + seed, n=8)
        a, b = solve_exact(g), enumerate_all(g)
        assert a.objective == pytest.approx(b.objective, abs=1e-12)
        assert g.feasible(a.trip).ok

    def test_none_when_nothing_fits(self):
        g = random_graph(14, n=5)
        hopeless = PoiGraph(g.poi_ids, g.vprofit, g.eprofit, g.cost,
                            1.0, g.start_visit_cost)
        assert solve_exact(hopeless) is None

    def test_tie_break_matches_oracle(self):
        # uniform profits create many ties; both solvers must pick the same trip
        rng = np.random.default_rng(5)
        n = 6
        cost = rng.uniform(100, 200, size=(n, n))
        cost = (cost + cost.T) / 2
        np.fill_diagonal(cost, 0.0)
        vp = np.full(n, 0.5)
        vp[0] = vp[-1] = 0.0
        ep = np.full((n, n), 0.1)
        np.fill_diagonal(ep, 0.0)
        g = PoiGraph([f"p{i}" for i in range(n)], vp, ep, cost + 300.0,
                     budget=2500.0, start_visit_cost=300.0)
        a, b = solve_exact(g), enumerate_all(g)
        assert a.trip == b.trip
        assert a.objective == pytest.approx(b.objective)

    def test_objective_is_the_trip_objective(self):
        # the same bits for the same trip as enumerate_all and ALNS report
        for seed in range(30):
            g = random_graph(300 + seed, n=7 + seed % 3)
            a, b = solve_exact(g), enumerate_all(g)
            assert a.objective == g.trip_objective(a.trip), f"seed {seed}"
            if a.trip == b.trip:
                assert a.objective == b.objective, f"seed {seed}"

    def test_result_is_feasible(self):
        for seed in range(8):
            g = random_graph(200 + seed, n=7)
            out = solve_exact(g)
            assert g.feasible(out.trip).ok
            assert out.objective == pytest.approx(g.trip_objective(out.trip))


# What the solver returned before it had the stop-set memo, on the graphs of
# test_acceptance.py::test_runtime_scaling: (trip, objective bits, nodes)
SCALING_ANSWERS = {
    7000: ([0, 12, 9, 10, 5, 4, 2, 11, 14], "0x1.21206f8749519p+3", 354879),
    7001: ([0, 2, 3, 11, 8, 12, 13, 1, 14], "0x1.3067327a28e83p+3", 639548),
    7002: ([0, 8, 2, 6, 1, 5, 9, 7, 14], "0x1.0d84d5bfa86c1p+3", 404862),
    7003: ([0, 2, 5, 4, 13, 6, 9, 11, 14], "0x1.2c20a23b6b006p+3", 699640),
    7004: ([0, 3, 12, 7, 11, 2, 5, 6, 14], "0x1.3447466227dbfp+3", 515777),
    7005: ([0, 8, 9, 7, 3, 2, 5, 11, 1, 14], "0x1.681ec61adf24bp+3", 709148),
    7006: ([0, 7, 2, 10, 11, 13, 9, 3, 14], "0x1.02de9487e65ddp+3", 481814),
    7007: ([0, 4, 13, 2, 1, 7, 5, 10, 6, 14], "0x1.4413d1fa17bdap+3", 1114646),
    7008: ([0, 3, 1, 8, 4, 9, 7, 12, 14], "0x1.232bf8ac708bap+3", 485010),
    7009: ([0, 6, 7, 8, 13, 3, 2, 11, 14], "0x1.3016a3081ed94p+3", 346355),
}


class TestStopSetMemo:
    @pytest.mark.parametrize("n", range(3, 12))
    def test_matches_enumeration_to_the_bit(self, n):
        # random graphs from short to long trips, and a graph whose costs and
        # profits tie, so that two paths to one stop set often cost the same
        graphs = [tied_graph(600 + n, n)]
        graphs += [random_graph(500 + 10 * n + k, n, interior_target=target)
                   for k, target in enumerate((2, n // 2, n)[:3 if n < 11 else 1])]
        for g in graphs:
            a, b = solve_exact(g), enumerate_all(g)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.trip, float(a.objective).hex()) == (b.trip, float(b.objective).hex())

    @pytest.mark.parametrize("seed", sorted(SCALING_ANSWERS))
    def test_scaling_graphs_keep_their_answers(self, seed):
        trip, objective, nodes = SCALING_ANSWERS[seed]
        out = solve_exact(random_graph(seed, n=15, interior_target=6))
        assert (out.trip, out.objective.hex()) == (trip, objective)
        assert out.nodes <= nodes


# What the solver returned before the stop-set program, on graphs whose whole
# interior fits: random_graph(7000, n, interior_target=n) -> objective bits
WHOLE_INTERIOR_OBJECTIVES = {
    15: "0x1.748bbca9e18d3p+4",
    18: "0x1.11c60b1e12797p+5",
    25: "0x1.07af189da7273p+6",
}


def detour_graph(with_unreachable: bool) -> PoiGraph:
    """s -> b costs 1000 but s -> a -> b costs 20, so b fits in the budget of 30
    only after a. With `with_unreachable`, a vertex c that fits in no trip, so
    that the whole interior does not fit and the stop-set program runs."""
    far = 1000.0
    if not with_unreachable:
        return PoiGraph(["s", "a", "b", "e"], [0, 1, 1, 0], np.zeros((4, 4)),
                        [[0, 10, far, 10], [0, 0, 10, 10], [0, 10, 0, 10], [0, 0, 0, 0]],
                        30.0, 0.0)
    return PoiGraph(["s", "a", "b", "c", "e"], [0, 1, 1, 1, 0], np.zeros((5, 5)),
                    [[0, 10, far, far, 10], [0, 0, 10, far, 10], [0, 10, 0, far, 10],
                     [0, far, far, 0, far], [0, 0, 0, far, 0]], 30.0, 0.0)


def near_tie_graph(seed: int, tight: bool) -> PoiGraph:
    """random_graph(seed, 7) whose whole interior fits, with vertex 3's profits
    set to about zero: the whole set and the set without vertex 3 tie within
    1e-12. With `tight`, the budget is the whole interior's cheapest cost, so
    it fits only in an order other than the ascending one."""
    g = random_graph(seed, 7, interior_target=7)
    vprofit = list(g.vprofit)
    vprofit[3] = 1e-14
    eprofit = [list(row) for row in g.eprofit]
    for v in range(g.n):
        eprofit[3][v] = eprofit[v][3] = 0.0
    budget = g.budget
    if tight:
        budget = min(g.trip_cost([g.start, *order, g.end])
                     for order in itertools.permutations(g.interior()))
    return PoiGraph(g.poi_ids, vprofit, eprofit, g.cost, budget, g.start_visit_cost)


finite_cost = st.one_of(st.integers(0, 20).map(float), st.floats(0.0, 1000.0))
finite_profit = st.one_of(st.integers(0, 4).map(lambda k: k / 4), st.floats(0.0, 1.0))


@st.composite
def any_cost_graph(draw) -> PoiGraph:
    """Up to 7 vertices with any costs >= 0 (the triangle inequality need not
    hold) and any profits >= 0, round values included so that sets tie."""
    n = draw(st.integers(2, 7))
    cost = [[draw(finite_cost) for _ in range(n)] for _ in range(n)]
    eprofit = [[draw(finite_profit) for _ in range(n)] for _ in range(n)]
    vprofit = [0.0] + [draw(finite_profit) for _ in range(n - 2)] + [0.0]
    budget = draw(st.one_of(st.integers(0, 60).map(float), st.floats(0.0, 3000.0)))
    return PoiGraph([f"p{i}" for i in range(n)], vprofit, eprofit, cost, budget,
                    draw(finite_cost))


def same_answer(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (a.trip, float(a.objective).hex()) == (b.trip, float(b.objective).hex())


class TestStopSetProgram:
    @pytest.mark.parametrize("with_unreachable, trip", [(False, [0, 1, 2, 3]),
                                                        (True, [0, 1, 2, 4])])
    def test_a_detour_reaches_what_the_direct_leg_cannot(self, with_unreachable, trip):
        # a state kept only while the direct leg from the start fits would drop b
        g = detour_graph(with_unreachable)
        out = solve_exact(g)
        assert out.trip == trip
        assert same_answer(out, enumerate_all(g))

    @settings(max_examples=300, deadline=None)
    @given(any_cost_graph())
    def test_matches_enumeration_on_any_costs(self, g):
        out = solve_exact(g)
        assert same_answer(out, enumerate_all(g))
        assert out is None or g.feasible(out.trip).ok

    @pytest.mark.parametrize("n", sorted(WHOLE_INTERIOR_OBJECTIVES))
    def test_whole_interior_keeps_its_answer(self, n):
        out = solve_exact(random_graph(7000, n, interior_target=n))
        assert (out.trip, out.objective.hex()) == (list(range(n)), WHOLE_INTERIOR_OBJECTIVES[n])
        assert out.nodes <= n * n

    @pytest.mark.parametrize("n, target, seed", [(9, 7, 7000), (9, 7, 7001), (9, 7, 7004),
                                                 (9, 7, 7005), (17, 15, 7000)])
    def test_whole_interior_in_another_order(self, n, target, seed, monkeypatch):
        # every interior vertex fits, but not in ascending order; with no
        # search the stop-set program must give the same answer
        g = random_graph(seed, n, interior_target=target)
        assert not g.feasible([g.start, *g.interior(), g.end]).ok
        out = solve_exact(g)
        assert len(out.trip) == n
        if n <= 9:
            assert same_answer(out, enumerate_all(g))
        monkeypatch.setattr(tripkit.exact, "WHOLE_SEARCH_CAP", 0)
        program = solve_exact(g)
        assert same_answer(out, program)
        assert out.nodes < program.nodes

    @pytest.mark.parametrize("seed, tight", [(0, False), (0, True), (3, True)])
    def test_a_near_zero_profit_tie_breaks_as_enumeration_does(self, seed, tight):
        g = near_tie_graph(seed, tight)
        whole = [g.start, *g.interior(), g.end]
        assert math.isclose(g.trip_objective(whole),
                            g.trip_objective([v for v in whole if v != 3]), rel_tol=1e-12)
        assert g.feasible(whole).ok is not tight
        out = solve_exact(g)
        assert same_answer(out, enumerate_all(g))
        # when tight, the set without vertex 3 wins the tie: an order of it
        # sorts before every order of the whole set that fits
        assert (3 in out.trip) is not tight

    def test_a_tie_chain_folds_in_enumeration_order(self):
        # sets {1,2}, {1,4} and {2,3} score 1, 1 + 0.9e-12 and 1 + 1.8e-12:
        # each ties the next, but the first and last do not, so the answer
        # depends on the order the sets are met in. enumerate_all meets {1,4}
        # before {2,3}; in bitmask order {2,3} (0b1100) comes first.
        n = 6
        eprofit = np.zeros((n, n))
        for (a, b), gap in {(1, 2): 0.0, (1, 4): 0.9e-12, (2, 3): 1.8e-12}.items():
            eprofit[a][b] = eprofit[b][a] = 0.5 + gap
        cost = np.ones((n, n)) - np.eye(n)
        g = PoiGraph([f"p{i}" for i in range(n)], [0, 0.25, 0.25, 0.25, 0.25, 0], eprofit,
                     cost, 3.0, 0.0)
        out = solve_exact(g)
        assert out.trip == [0, 2, 3, 5]
        assert same_answer(out, enumerate_all(g))

    def test_a_negative_profit_is_left_out_though_everything_fits(self):
        g = random_graph(7102, 6, interior_target=6)
        vprofit = list(g.vprofit)
        vprofit[2] = -5.0
        g = PoiGraph(g.poi_ids, vprofit, g.eprofit, g.cost, g.budget, g.start_visit_cost)
        assert g.feasible([g.start, *g.interior(), g.end]).ok
        out = solve_exact(g)
        assert 2 not in out.trip
        assert same_answer(out, enumerate_all(g))

    def test_state_cap_raises(self, monkeypatch):
        monkeypatch.setattr(tripkit.exact, "STATE_CAP", 10)
        with pytest.raises(StateCapError, match="more than 10 states"):
            solve_exact(random_graph(7100, 10))

    def test_negative_cost_is_refused(self):
        g = random_graph(7101, 5)
        cost = [list(row) for row in g.cost]
        cost[1][2] = -1.0
        with pytest.raises(ValueError, match="costs >= 0"):
            solve_exact(PoiGraph(g.poi_ids, g.vprofit, g.eprofit, cost, g.budget,
                                 g.start_visit_cost))

def budget_edge_graph(seed: int) -> PoiGraph:
    """random_graph(seed, n) with n in 3..7 and the budget set to the cost of
    a random trip, drawn from default_rng(seed): the edge make_folds produces."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    g = random_graph(seed, n)
    interior = list(g.interior())
    k = int(rng.integers(0, len(interior) + 1))
    trip = [g.start, *(int(v) for v in rng.permutation(interior)[:k]), g.end]
    return PoiGraph(g.poi_ids, g.vprofit, g.eprofit, g.cost, g.trip_cost(trip),
                    g.start_visit_cost)


class TestBudgetEdgeFuzz:
    """Two orders of one stop set sum their objective differently; both exact
    solvers must still return the same trip at a budget equal to a trip's cost."""

    def test_solvers_agree_and_fit(self):
        counts = {f"p{i}": (7 * i) % 5 for i in range(8)}
        for seed in range(300):
            g = budget_edge_graph(seed)
            a, b = solve_exact(g), enumerate_all(g)
            assert a.trip == b.trip, f"seed {seed}"
            alns = run_alns(g, AlnsConfig(runs=1, iterations=30))
            trips = [a.trip, b.trip, alns.trip, baseline_pop(g, counts),
                     baseline_random(g, np.random.default_rng(seed))]
            assert all(g.feasible(t).ok for t in trips), f"seed {seed}"
            assert alns.score <= a.objective or math.isclose(
                alns.score, a.objective, rel_tol=1e-12), f"seed {seed}"


class TestExternalReferee:
    @pytest.mark.parametrize("seed", range(6))
    def test_ilp_agrees_with_branch_and_bound(self, seed):
        g = random_graph(300 + seed, n=6)
        m = build_ilp(g)
        obj_milp, values = solve_with_highs(m)
        ours = solve_exact(g)
        assert obj_milp == pytest.approx(ours.objective, abs=1e-7)
        out = check_assignment(m, values, tol=1e-6)
        assert out["feasible"], out["violated"]

    def test_encoded_optimum_scores_the_milp_value(self):
        g = random_graph(310, n=6)
        m = build_ilp(g)
        obj_milp, _ = solve_with_highs(m)
        ours = solve_exact(g)
        encoded = encode_trip(m, ours.trip)
        assert objective_value(m, encoded) == pytest.approx(obj_milp, abs=1e-7)
