"""Acceptance suite: one test per headline requirement, each printing a
single PASS line with its measured numbers."""

import itertools
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from tripkit.alns import AlnsConfig, SolutionPool, destroy, init_pool, local_search, \
    removal_count, run_alns, sa_accept, DESTROY_OPS
from tripkit.checkins import Poi, TimeCostModel
from tripkit.embedding import EmbeddingModel, TrainConfig, train
from tripkit.evaluation import evaluate
from tripkit.exact import build_ilp, solve_exact, xpvar, xvar
from tripkit.graph import PoiGraph, build_graph
from tripkit.scoring import Query, ScoreContext, compute_zpair
from conftest import make_trip, random_graph, two_clique_corpus
from test_embedding import clique_similarity, finite_diff_gradients
from oracles import (Observation, array_step, check_assignment, encode_trip, enumerate_all,
                     prob_full, satisfied, solve_with_highs)


def report(name: str, detail: str):
    print(f"[PASS] {name}: {detail}")


def embedding_instance(seed: int, n: int, interior_target: int | None = None):
    """Query graph built from a random embedding model and random geometry."""
    rng = np.random.default_rng(seed)
    ids = [f"p{i}" for i in range(n)]
    model = EmbeddingModel(8, {p: rng.normal(scale=0.5, size=8) for p in ids},
                           {p: float(rng.normal(scale=0.3)) for p in ids},
                           {"u": rng.normal(scale=0.5, size=8)})
    pois = {p: Poi(p, 40.0 + float(rng.uniform(0, 0.01)),
                   -74.0 + float(rng.uniform(0, 0.01))) for p in ids}
    visit = {p: float(rng.uniform(300, 900)) for p in ids}
    tcm = TimeCostModel(visit, pois)
    target = interior_target if interior_target is not None else int(rng.integers(3, 6))
    direct = visit[ids[0]] + visit[ids[-1]] + tcm.transit_time(ids[0], ids[-1])
    stops = [visit[p] + tcm.transit_time(ids[0], p) for p in ids[1:-1]]
    budget = direct + target * float(np.mean(stops))
    query = Query("u", ids[0], ids[-1], budget)
    ctx = ScoreContext(model, query)
    return build_graph(ctx, query, tcm, ids), model


def structured_corpus(seed=42, users=16, trips_per=6):
    """Popularity-skewed, clique-structured corpus with planted user
    preferences: two spatial POI cliques, each split into two co-occurrence
    themes; each user mostly sticks to one theme of their home clique."""
    rng = np.random.default_rng(seed)
    pois, weights, themes = {}, {}, {}
    for c in range(2):
        base_lat = 40.0 + 0.03 * c  # cliques ~3 km apart
        clique = [f"c{c}p{i}" for i in range(10)]
        for r, p in enumerate(clique):
            weights[p] = 1.0 / (r + 1)  # popularity skew
            pois[p] = Poi(p, base_lat + float(rng.uniform(0, 0.008)),
                          -74.0 + float(rng.uniform(0, 0.008)))
        themes[(c, 0)] = clique[:5]
        themes[(c, 1)] = clique[5:]
    trips = []
    t0 = 0
    for u in range(users):
        home = u % 2
        pref = (u // 2) % 2
        for _ in range(trips_per):
            theme = pref if rng.random() < 0.75 else 1 - pref
            members = themes[(home, theme)]
            w = np.array([weights[p] for p in members])
            w /= w.sum()
            chosen = rng.choice(5, size=4, replace=False, p=w)
            trips.append(make_trip(f"u{u}", [members[i] for i in chosen],
                                   start=t0, step=900, duration=600))
            t0 += 100000
    return trips, pois


def all_path_assignments(graph):
    """Every trip over the graph's interior vertices (all subsets, all orders)."""
    interior = list(graph.interior())
    for size in range(len(interior) + 1):
        for subset in itertools.combinations(interior, size):
            for order in itertools.permutations(subset):
                yield [graph.start, *order, graph.end]


class TestAcceptance:
    def test_heuristic_vs_exact_gap(self):
        t0 = time.perf_counter()
        ratios = []
        for k in range(100):
            n = 6 + k % 3
            graph, model = embedding_instance(1000 + k, n)
            opt = solve_exact(graph)
            heur = run_alns(graph, AlnsConfig(), model)
            ratios.append(heur.score / opt.objective if opt.objective > 0 else 1.0)
        elapsed = time.perf_counter() - t0
        good = sum(1 for r in ratios if r >= 0.98)
        assert good >= 95, f"only {good}/100 instances reached 0.98x"
        assert min(ratios) >= 0.90, f"worst ratio {min(ratios):.4f}"
        assert elapsed < 60.0, f"took {elapsed:.1f} s"
        report("heuristic-vs-exact gap",
               f"{good}/100 >= 0.98x, worst {min(ratios):.4f}, "
               f"mean {np.mean(ratios):.4f}, {elapsed:.1f} s")

    def test_exact_solver_correctness(self):
        t0 = time.perf_counter()
        for k in range(100):
            n = 4 + k % 4  # |V| in 4..7
            graph = random_graph(2000 + k, n=n, interior_target=min(n - 2, 4))
            a, b = solve_exact(graph), enumerate_all(graph)
            assert (a is None) == (b is None)
            if a is not None:
                assert abs(a.objective - b.objective) <= 1e-12, \
                    f"seed {2000 + k}: {a.objective} vs {b.objective}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        report("exact-solver correctness",
               f"100/100 instances match brute force at 1e-12, {elapsed:.1f} s")

    @pytest.mark.parametrize("n", [4, 5])
    def test_linearization_equivalence(self, n):
        t0 = time.perf_counter()
        graph = random_graph(3000 + n, n=n)
        roomy = PoiGraph(graph.poi_ids, graph.vprofit, graph.eprofit,
                         graph.cost, budget=1e12,
                         start_visit_cost=graph.start_visit_cost)
        model = build_ilp(roomy)
        pair_cons = {}
        for con in model.constraints:
            if con.cid.startswith("pair_"):
                key = tuple(int(x) for x in con.cid.rsplit("_", 2)[1:])
                pair_cons.setdefault(key, []).append(con)
        checked = 0
        for trip in all_path_assignments(roomy):
            a = encode_trip(model, trip)
            out = check_assignment(model, a)
            assert out["feasible"], (trip, out["violated"])
            assert abs(out["objective"] - roomy.trip_objective(trip)) <= 1e-12
            selected = {v + 1 for v in trip}
            for (i, j), cons in pair_cons.items():
                for forced in (0.0, 1.0):
                    want = float(i in selected and j in selected)
                    a[xpvar(i, j)] = forced
                    ok = all(satisfied(c, a) for c in cons)
                    assert ok == (forced == want), \
                        f"xp_{i}_{j}={forced} mischecked on trip {trip}"
                a[xpvar(i, j)] = want
            checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        report(f"linearization equivalence |V|={n}",
               f"{checked} path encodings, every pair variable forced, {elapsed:.1f} s")

    def test_mtz_subtour_soundness(self):
        t0 = time.perf_counter()
        total_cycles = 0
        for n in (4, 5, 6):
            graph = random_graph(4000 + n, n=n)
            roomy = PoiGraph(graph.poi_ids, graph.vprofit, graph.eprofit,
                             graph.cost, budget=1e12,
                             start_visit_cost=graph.start_visit_cost)
            model = build_ilp(roomy)
            pos_cons = [c for c in model.constraints if c.cid.startswith("pos_")]
            base = encode_trip(model, [0, n - 1])
            assert check_assignment(model, base)["feasible"]
            others = list(range(2, n + 1))  # 1-based vertices != v_1
            p_domain = list(range(2, n + 1))
            for size in range(1, n):
                for subset in itertools.combinations(others, size):
                    first = subset[0]
                    for rest in itertools.permutations(subset[1:]):
                        cycle = (first, *rest)
                        a = dict(base)
                        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                            a[xvar(u, v)] = 1.0
                        total_cycles += 1
                        # no position assignment may satisfy the MTZ rows
                        for values in itertools.product(p_domain, repeat=len(subset)):
                            for v, val in zip(subset, values):
                                a[f"p_{v}"] = float(val)
                            assert not all(satisfied(c, a) for c in pos_cons), \
                                f"cycle {cycle} accepted with positions {values}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        report("MTZ subtour soundness",
               f"{total_cycles} cycles avoiding v_1 all rejected "
               f"(|V|=4..6, every position assignment), {elapsed:.1f} s")

    def test_gradient_check(self):
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            pois = tuple(f"p{i}" for i in range(5))
            m = EmbeddingModel(3, {p: rng.normal(scale=0.5, size=3) for p in pois},
                               {p: float(rng.normal(scale=0.5)) for p in pois},
                               {"u1": rng.normal(scale=0.5, size=3)})
            obs = Observation("u1", frozenset({"p0", "p1", "p2"}), "p0",
                              frozenset({"p1", "p2"}))
            negative, lam, eta = "p3", 0.02, 1e-3
            expected = finite_diff_gradients(m, obs, negative, lam, h=1e-5)
            before_vec = {p: m.poi_vec[p].copy() for p in pois}
            before_pop = dict(m.poi_pop)
            before_user = m.user_vec["u1"].copy()
            array_step(m, obs, negative,
                       TrainConfig(dim=3, learning_rate=eta, regularization=lam,
                                   corrected_reg=True))
            actual = {
                "user": (m.user_vec["u1"] - before_user) / eta,
                "target": (m.poi_vec["p0"] - before_vec["p0"]) / eta,
                "negative": (m.poi_vec["p3"] - before_vec["p3"]) / eta,
                "context:p1": (m.poi_vec["p1"] - before_vec["p1"]) / eta,
                "context:p2": (m.poi_vec["p2"] - before_vec["p2"]) / eta,
                "target_pop": (m.poi_pop["p0"] - before_pop["p0"]) / eta,
                "negative_pop": (m.poi_pop["p3"] - before_pop["p3"]) / eta,
            }
            for family, got in actual.items():
                exp = np.atleast_1d(expected[family])
                denom = max(np.max(np.abs(exp)), 1e-8)
                rel = np.max(np.abs(np.atleast_1d(got) - exp)) / denom
                worst = max(worst, rel)
                assert rel < 1e-4, f"seed {seed} {family}: rel error {rel:.2e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        report("gradient check",
               f"50 fixtures x 7 parameter families, worst rel error "
               f"{worst:.2e} < 1e-4, {elapsed:.1f} s")

    def test_normalization_suite(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        ids = [f"p{i}" for i in range(12)]
        model = EmbeddingModel(6, {p: rng.normal(scale=0.5, size=6) for p in ids},
                               {p: float(rng.normal(scale=0.4)) for p in ids},
                               {"u": rng.normal(scale=0.5, size=6)})
        total = sum(prob_full(model, p, ["p1", "p2"], "u") for p in ids)
        assert abs(total - 1.0) <= 1e-9
        ctx = ScoreContext(model, Query("u", "p0", "p11", 3600.0))
        close = sum(ctx.closeness(p) for p in ids)
        assert abs(close - 1.0) <= 1e-9
        pairs = sum(ctx.ncsim(a, b) for a in ids for b in ids if a != b)
        assert abs(pairs - 1.0) <= 1e-9
        before = {p: prob_full(model, p, ["p1"], "u") for p in ids}
        for p in ids:
            model.poi_pop[p] += 11.5
        drift = max(abs(prob_full(model, p, ["p1"], "u") - before[p]) for p in ids)
        assert drift <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report("normalization suite",
               f"prob sums, closeness sum, pair sum within 1e-9; "
               f"bias-shift drift {drift:.1e}, {elapsed:.1f} s")

    def test_embedding_signal(self):
        t0 = time.perf_counter()
        trips, cliques = two_clique_corpus()  # seed 42, 2x10 POIs, 200 trips
        model = train(trips, TrainConfig())   # defaults: d=13, 50 epochs
        within, across = clique_similarity(model, cliques)
        assert within - across > 0.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        report("embedding signal",
               f"within-clique csim {within:.4f} > cross-clique {across:.4f} "
               f"(gap {within - across:.4f}), {elapsed:.1f} s")

    def test_alns_structural_suite(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        cfg = AlnsConfig()
        # 1000 randomized destroy/2-opt iterations
        for k in range(1000):
            graph = random_graph(5000 + k % 25, n=8)
            interior = list(graph.interior())
            size = int(rng.integers(0, len(interior) + 1))
            order = list(rng.permutation(interior)[:size])
            trip = [graph.start, *order, graph.end]
            op = DESTROY_OPS[k % len(DESTROY_OPS)]
            out = destroy(graph, trip, op, cfg, rng)
            expect = len(trip) - removal_count(len(trip), cfg.removal_fraction)
            assert len(out) == expect
            assert out[0] == graph.start and out[-1] == graph.end
            improved = local_search(graph, trip)
            assert graph.trip_cost(improved) <= graph.trip_cost(trip) + 1e-9
            assert abs(graph.trip_objective(improved)
                       - graph.trip_objective(trip)) <= 1e-12
        # pool top-N property over 1000 inserts
        pool = SolutionPool(10)
        scored = []
        for k in range(1000):
            trip = (0, *sorted(rng.choice(np.arange(1, 50), size=3, replace=False)), 50)
            score = float(rng.uniform(0, 10))
            pool.insert(trip, score)
            scored.append((trip, score))
        unique = {}
        for trip, score in scored:
            unique.setdefault(trip, score)  # first insert wins, as in the pool
        top = sorted(unique.items(), key=lambda e: (-e[1], e[0]))[:10]
        assert pool.entries == top
        # intermediate feasibility + monotone global best on a full run
        graph = random_graph(6000, n=8)
        init_best = init_pool(graph, cfg.pool_size).best()[1]
        result = run_alns(graph, cfg, collect_trace=True)
        assert graph.feasible(result.trip).ok
        accepted = [r["score"] for r in result.trace if r["accepted"]]
        assert result.score >= max(accepted) - 1e-12
        assert abs(result.score - max([init_best] + accepted)) <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        report("ALNS structural suite",
               f"1000 destroy/2-opt iterations, pool top-10 of 1000 inserts, "
               f"monotone best over {len(result.trace)} iterations, {elapsed:.1f} s")

    def test_sa_acceptance_calibration(self):
        t0 = time.perf_counter()
        temp = 0.3
        delta = -temp * math.log(2.0)
        rng = np.random.default_rng(99)
        trials = 10**5
        hits = sum(sa_accept(1.0 + delta, 1.0, temp, rng) for _ in range(trials))
        freq = hits / trials
        assert abs(freq - 0.5) <= 0.02
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report("SA acceptance calibration",
               f"empirical {freq:.4f} vs 0.5 +- 0.02 at delta=-temp*ln2, "
               f"{elapsed:.1f} s")

    def test_end_to_end_ordering(self):
        t0 = time.perf_counter()
        trips, pois = structured_corpus(seed=42)
        tc = TrainConfig(dim=8, max_iterations=40)
        ac = AlnsConfig(runs=2, iterations=200)
        rep = evaluate(trips, ["random", "pop", "alns"], pois=pois,
                       train_config=tc, alns_config=ac, shared_model=True)
        assert not rep.errors, rep.errors
        means = {k: v.f1 for k, v in rep.mean_by_solver().items()}
        assert means["random"] < means["pop"] < means["alns"], means
        ablation = {}
        for mode in ("full", "pop+pref", "pop-only"):
            r = evaluate(trips, ["alns"], pois=pois, train_config=replace(tc, mode=mode),
                         alns_config=ac, shared_model=True)
            ablation[mode] = r.mean_by_solver()["alns"].f1
        assert ablation["full"] >= ablation["pop+pref"] >= ablation["pop-only"], \
            ablation
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        report("end-to-end ordering",
               f"F1 random {means['random']:.3f} < pop {means['pop']:.3f} < "
               f"alns {means['alns']:.3f}; ablation full {ablation['full']:.3f} >= "
               f"pop+pref {ablation['pop+pref']:.3f} >= "
               f"pop-only {ablation['pop-only']:.3f}, {elapsed:.1f} s")

    def test_runtime_scaling(self):
        # the abstract's claim: ALNS is far faster than the exact integer
        # program, here `build_ilp` solved by HiGHS. solve_exact, the stop-set
        # program, is faster than ALNS at this size; it checks HiGHS's optimum
        t0 = time.perf_counter()
        alns_times, ilp_times, dp_times = [], [], []
        for k in range(10):
            graph = random_graph(7000 + k, n=15, interior_target=6)
            s0 = time.perf_counter()
            heur = run_alns(graph, AlnsConfig())
            alns_times.append(time.perf_counter() - s0)
            s0 = time.perf_counter()
            ilp_objective, _ = solve_with_highs(build_ilp(graph))
            ilp_times.append(time.perf_counter() - s0)
            s0 = time.perf_counter()
            opt = solve_exact(graph)
            dp_times.append(time.perf_counter() - s0)
            assert ilp_objective == pytest.approx(opt.objective, abs=1e-7)
            assert heur.score <= opt.objective + 1e-9
        med_alns, med_ilp, med_dp = (float(np.median(t))
                                     for t in (alns_times, ilp_times, dp_times))
        assert med_alns <= med_ilp / 10.0, \
            f"median ALNS {med_alns:.2f} s vs ILP {med_ilp:.2f} s"
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        report("runtime scaling",
               f"|V|=15 median ALNS {med_alns:.2f} s vs ILP (HiGHS) {med_ilp:.2f} s "
               f"({med_ilp / med_alns:.1f}x); stop-set program {med_dp:.3f} s, "
               f"{elapsed:.1f} s total")

    @pytest.mark.skipif(not os.environ.get("TRIPKIT_DATASET_DIR"),
                        reason="city check-in datasets not bundled; set "
                               "TRIPKIT_DATASET_DIR to run the replication")
    def test_dataset_replication(self):
        from tripkit.checkins import aggregate_visits, corpus_stats, extract_trips, \
            ingest_checkins
        root = os.environ["TRIPKIT_DATASET_DIR"]
        with open(os.path.join(root, "edinburgh.csv")) as fh:
            records, _ = ingest_checkins(fh)
        trips = extract_trips(aggregate_visits(records))
        stats = corpus_stats(trips)
        assert stats["trips"] == 5028
        assert abs(stats["pois_per_trip"] - 6.75) <= 0.005
        report("dataset replication",
               f"Edinburgh: {stats['trips']} trips, "
               f"{stats['pois_per_trip']:.2f} POIs/trip")
