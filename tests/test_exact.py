import io
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import lil_matrix

from tripkit.alns import AlnsConfig, run_alns
from tripkit.evaluation import baseline_pop, baseline_random
from tripkit.exact import (Constraint, IlpModel, build_ilp, pvar, solve_exact, write_lp,
                           xpvar, xvar)
from tripkit.graph import PoiGraph
from conftest import random_graph
from lp_reader import models_equal, read_lp
from oracles import check_assignment, encode_trip, enumerate_all, objective_value
from test_oracles import tied_graph


def solve_with_highs(model: IlpModel) -> tuple[float, dict[str, float]]:
    """Independent referee: hand the program to scipy's HiGHS MILP backend."""
    variables = model.variables
    index = {v: k for k, v in enumerate(variables)}
    c = np.zeros(len(variables))
    for v, coeff in model.objective.items():
        c[index[v]] = -coeff  # milp minimizes
    rows = lil_matrix((len(model.constraints), len(variables)))
    lb = np.empty(len(model.constraints))
    ub = np.empty(len(model.constraints))
    for r, con in enumerate(model.constraints):
        for v, coeff in con.coeffs.items():
            rows[r, index[v]] = coeff
        if con.sense == "<=":
            lb[r], ub[r] = -np.inf, con.rhs
        elif con.sense == ">=":
            lb[r], ub[r] = con.rhs, np.inf
        else:
            lb[r] = ub[r] = con.rhs
    var_lb = np.zeros(len(variables))
    var_ub = np.ones(len(variables))
    for v, (lo, hi) in model.bounds.items():
        var_lb[index[v]], var_ub[index[v]] = lo, hi
    res = milp(c, constraints=LinearConstraint(rows.tocsr(), lb, ub),
               integrality=np.ones(len(variables)),
               bounds=__import__("scipy.optimize", fromlist=["Bounds"]).Bounds(var_lb, var_ub))
    assert res.success, res.message
    values = {v: float(round(res.x[index[v]])) if v in model.binaries
              else float(res.x[index[v]]) for v in variables}
    return -res.fun, values


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
