import io
import itertools
import math

import numpy as np
import pytest

from tripkit.checkins import UnknownPoiError
from tripkit.embedding import (EmbeddingModel, TrainConfig, compile_observations,
                               init_model, sample_negatives, sgd_step, sigmoid,
                               step_factors, train)
from conftest import make_trip, two_clique_corpus
import oracles
from oracles import (Observation, array_step, bpr_margin, bpr_objective, context_vector,
                     prob_full)


def small_model(dim=2, pois=("p1", "p2", "p3"), users=("u1",), seed=0):
    rng = np.random.default_rng(seed)
    poi_vec = {p: rng.normal(size=dim) for p in pois}
    poi_pop = {p: float(rng.normal()) for p in pois}
    user_vec = {u: rng.normal(size=dim) for u in users}
    return EmbeddingModel(dim, poi_vec, poi_pop, user_vec)


def zero_model(dim=2, pois=("p1", "p2", "p3", "p4"), users=("u1",)):
    return EmbeddingModel(dim, {p: np.zeros(dim) for p in pois},
                          {p: 0.0 for p in pois},
                          {u: np.zeros(dim) for u in users})


class TestContextVector:
    def test_empty(self):
        m = small_model()
        assert context_vector(m, []).tolist() == [0.0, 0.0]

    def test_unit_sum(self):
        m = zero_model()
        m.poi_vec["p1"] = np.array([1.0, 0.0])
        m.poi_vec["p2"] = np.array([0.0, 1.0])
        assert context_vector(m, ["p1", "p2"]).tolist() == [1.0, 1.0]

    def test_componentwise(self):
        m = zero_model()
        m.poi_vec["p1"] = np.array([1.0, 2.0])
        m.poi_vec["p2"] = np.array([3.0, 4.0])
        m.poi_vec["p3"] = np.array([-1.0, 0.0])
        assert context_vector(m, ["p1", "p2", "p3"]).tolist() == [3.0, 6.0]

    def test_unknown_poi(self):
        with pytest.raises(UnknownPoiError):
            context_vector(small_model(), ["nope"])


class TestCsim:
    def test_orthogonal(self):
        m = zero_model()
        m.poi_vec["p1"] = np.array([1.0, 0.0])
        m.poi_vec["p2"] = np.array([0.0, 1.0])
        assert m.csim("p1", "p2") == 0.0

    def test_dot(self):
        m = zero_model()
        m.poi_vec["p1"] = np.array([1.0, 2.0])
        m.poi_vec["p2"] = np.array([3.0, 4.0])
        assert m.csim("p1", "p2") == 11.0

    def test_symmetry(self):
        m = small_model(dim=5, seed=3)
        assert m.csim("p1", "p2") == pytest.approx(m.csim("p2", "p1"))


class TestProbFull:
    def test_uniform_when_zero(self):
        m = zero_model()
        assert prob_full(m, "p1", [], "u1") == pytest.approx(0.25)

    def test_two_equal_scores(self):
        m = zero_model(pois=("p1", "p2"))
        assert prob_full(m, "p1", [], "u1") == pytest.approx(0.5)

    def test_matches_direct_softmax(self):
        m = small_model(dim=3, pois=tuple(f"p{i}" for i in range(5)), seed=8)
        context, user = ["p2", "p3"], "u1"
        base = m.user_vec[user] + m.poi_vec["p2"] + m.poi_vec["p3"]
        scores = np.array([m.poi_vec[p] @ base + m.poi_pop[p] for p in sorted(m.poi_vec)])
        expected = np.exp(scores) / np.exp(scores).sum()
        for p, e in zip(sorted(m.poi_vec), expected):
            assert prob_full(m, p, context, user) == pytest.approx(e, rel=1e-12)
        total = sum(prob_full(m, p, context, user) for p in m.poi_vec)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_bias_shift_invariance(self):
        m = small_model(dim=3, seed=5)
        before = {p: prob_full(m, p, ["p2"], "u1") for p in m.poi_vec}
        for p in m.poi_pop:
            m.poi_pop[p] += 7.3
        for p in m.poi_vec:
            assert prob_full(m, p, ["p2"], "u1") == pytest.approx(before[p], abs=1e-9)

    def test_restricted_variants(self):
        m = small_model(dim=3, seed=2)
        # popularity-only distribution
        scores = {p: m.poi_pop[p] for p in m.poi_vec}
        z = sum(math.exp(s) for s in scores.values())
        assert prob_full(m, "p1", None, None) == pytest.approx(math.exp(scores["p1"]) / z)


class TestBprMargin:
    def test_identical_parameters_zero(self):
        m = zero_model()
        m.poi_vec["p1"] = np.array([1.0, 1.0])
        m.poi_vec["p2"] = np.array([1.0, 1.0])
        assert bpr_margin(m, "p1", "p2", ["p3"], "u1") == pytest.approx(0.0)

    def test_zero_model(self):
        assert bpr_margin(zero_model(), "p1", "p2", [], "u1") == 0.0

    def test_hand_expansion(self):
        m = zero_model(pois=("l", "n", "c"))
        m.poi_vec["l"] = np.array([1.0, 2.0])
        m.poi_vec["n"] = np.array([0.5, -1.0])
        m.poi_vec["c"] = np.array([2.0, 0.0])
        m.poi_pop["l"], m.poi_pop["n"] = 0.3, -0.2
        m.user_vec["u1"] = np.array([1.0, 1.0])
        # z = l.c + l.u + l.p - n.c - n.u - n.p
        #   = 2 + 3 + 0.3 - 1 - (-0.5) - (-0.2) = 5.0
        assert bpr_margin(m, "l", "n", ["c"], "u1") == pytest.approx(5.0)


class TestSgdStep:
    def obs(self):
        return Observation("u1", frozenset({"p1", "p3"}), "p1", frozenset({"p3"}))

    def test_zero_learning_rate_unchanged(self):
        m = small_model(seed=1)
        before = {p: m.poi_vec[p].copy() for p in m.poi_vec}
        cfg = TrainConfig(dim=2, learning_rate=1e-300)
        array_step(m, self.obs(), "p2", cfg)
        for p in before:
            assert np.allclose(m.poi_vec[p], before[p], atol=1e-12)

    def test_saturated_margin_tiny_update(self):
        m = zero_model()
        m.poi_pop["p1"] = 40.0  # z = 40 -> delta ~ 4e-18
        cfg = TrainConfig(dim=2, learning_rate=0.1, regularization=0.0)
        before = m.poi_vec["p3"].copy()
        array_step(m, self.obs(), "p2", cfg)
        assert np.max(np.abs(m.poi_vec["p3"] - before)) < 1e-6

    def test_single_step_hand_computed(self):
        # independent recomputation of one update on a 2-dim fixture
        m = zero_model(pois=("p1", "p2", "p3"))
        m.poi_vec["p1"] = np.array([0.1, 0.2])
        m.poi_vec["p2"] = np.array([-0.3, 0.4])
        m.poi_vec["p3"] = np.array([0.5, -0.1])
        m.poi_pop.update({"p1": 0.05, "p2": -0.02, "p3": 0.0})
        m.user_vec["u1"] = np.array([0.2, 0.3])
        eta, lam = 0.01, 0.02
        u = m.user_vec["u1"].copy()
        lt = m.poi_vec["p1"].copy()
        ln = m.poi_vec["p2"].copy()
        c = m.poi_vec["p3"].copy()
        z = lt @ c + lt @ u + 0.05 - ln @ c - ln @ u - (-0.02)
        delta = 1 - 1 / (1 + math.exp(-z))
        exp_u = u + eta * (delta * (lt - ln) - 2 * lam * u)
        exp_lt = lt + eta * (delta * (u + c) - 2 * lam * lt)
        exp_ln = ln - eta * (delta * (u + c) - 2 * lam * ln)
        exp_c = c + eta * (delta * (lt - ln) - 2 * lam * c)
        exp_pt = 0.05 + eta * (delta - 2 * lam * 0.05)
        exp_pn = -0.02 - eta * (delta - 2 * lam * -0.02)
        cfg = TrainConfig(dim=2, learning_rate=eta, regularization=lam)
        ref = EmbeddingModel(2, {p: v.copy() for p, v in m.poi_vec.items()}, dict(m.poi_pop),
                             {u: v.copy() for u, v in m.user_vec.items()})
        array_step(m, self.obs(), "p2", cfg)
        oracles.sgd_step(ref, self.obs(), "p2", cfg)
        for p in m.poi_vec:
            assert np.array_equal(m.poi_vec[p], ref.poi_vec[p])
        assert m.poi_pop == ref.poi_pop
        assert np.array_equal(m.user_vec["u1"], ref.user_vec["u1"])
        assert np.allclose(m.user_vec["u1"], exp_u, atol=1e-15)
        assert np.allclose(m.poi_vec["p1"], exp_lt, atol=1e-15)
        assert np.allclose(m.poi_vec["p2"], exp_ln, atol=1e-15)
        assert np.allclose(m.poi_vec["p3"], exp_c, atol=1e-15)
        assert m.poi_pop["p1"] == pytest.approx(exp_pt, abs=1e-15)
        assert m.poi_pop["p2"] == pytest.approx(exp_pn, abs=1e-15)


def finite_diff_gradients(model, obs, negative, lam, h=1e-5):
    """Central finite differences of log(sigma(z)) - lam*||theta||^2 for each
    parameter touched by a step (the independent gradient oracle)."""
    def objective():
        z = bpr_margin(model, obs.target, negative, sorted(obs.context), obs.user_id)
        reg = float(model.user_vec[obs.user_id] @ model.user_vec[obs.user_id])
        reg += float(model.poi_vec[obs.target] @ model.poi_vec[obs.target])
        reg += float(model.poi_vec[negative] @ model.poi_vec[negative])
        reg += model.poi_pop[obs.target] ** 2 + model.poi_pop[negative] ** 2
        for p in obs.context:
            reg += float(model.poi_vec[p] @ model.poi_vec[p])
        return math.log(sigmoid(z)) - lam * reg

    grads = {}
    for family, store, key in (
            [("user", model.user_vec, obs.user_id),
             ("target", model.poi_vec, obs.target),
             ("negative", model.poi_vec, negative)]
            + [(f"context:{p}", model.poi_vec, p) for p in sorted(obs.context)]):
        vec = store[key]
        g = np.zeros_like(vec)
        for i in range(len(vec)):
            orig = vec[i]
            vec[i] = orig + h
            up = objective()
            vec[i] = orig - h
            down = objective()
            vec[i] = orig
            g[i] = (up - down) / (2 * h)
        grads[family] = g
    for family, key in (("target_pop", obs.target), ("negative_pop", negative)):
        orig = model.poi_pop[key]
        model.poi_pop[key] = orig + h
        up = objective()
        model.poi_pop[key] = orig - h
        down = objective()
        model.poi_pop[key] = orig
        grads[family] = (up - down) / (2 * h)
    return grads


class TestGradientCheck:
    @pytest.mark.parametrize("seed", range(5))
    def test_step_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        pois = tuple(f"p{i}" for i in range(5))
        m = EmbeddingModel(3, {p: rng.normal(scale=0.5, size=3) for p in pois},
                           {p: float(rng.normal(scale=0.5)) for p in pois},
                           {"u1": rng.normal(scale=0.5, size=3)})
        obs = Observation("u1", frozenset({"p0", "p1", "p2"}), "p0",
                          frozenset({"p1", "p2"}))
        negative, lam, eta = "p3", 0.02, 1e-3
        expected = finite_diff_gradients(m, obs, negative, lam)
        before_vec = {p: m.poi_vec[p].copy() for p in pois}
        before_pop = dict(m.poi_pop)
        before_user = m.user_vec["u1"].copy()
        cfg = TrainConfig(dim=3, learning_rate=eta, regularization=lam,
                          corrected_reg=True)
        array_step(m, obs, negative, cfg)
        checks = {
            "user": (m.user_vec["u1"] - before_user) / eta,
            "target": (m.poi_vec["p0"] - before_vec["p0"]) / eta,
            "negative": (m.poi_vec["p3"] - before_vec["p3"]) / eta,
            "context:p1": (m.poi_vec["p1"] - before_vec["p1"]) / eta,
            "context:p2": (m.poi_vec["p2"] - before_vec["p2"]) / eta,
            "target_pop": (m.poi_pop["p0"] - before_pop["p0"]) / eta,
            "negative_pop": (m.poi_pop["p3"] - before_pop["p3"]) / eta,
        }
        for family, actual in checks.items():
            exp = expected[family]
            denom = max(np.max(np.abs(np.atleast_1d(exp))), 1e-8)
            rel = np.max(np.abs(np.atleast_1d(actual) - exp)) / denom
            assert rel < 1e-4, f"{family}: rel error {rel}"


class TestSampleNegatives:
    def test_single_remaining(self):
        rng = np.random.default_rng(0)
        out = sample_negatives([0, 1], 3, 5, rng)
        assert out == [2] * 5

    def test_deterministic(self):
        a = sample_negatives([0], 3, 4, np.random.default_rng(7))
        b = sample_negatives([0], 3, 4, np.random.default_rng(7))
        assert a == b

    def test_all_covered_errors(self):
        with pytest.raises(ValueError):
            sample_negatives([0, 1], 2, 1, np.random.default_rng(0))

    def test_uniformity(self):
        rng = np.random.default_rng(123)
        draws = sample_negatives([0], 5, 10**5, rng)
        for row in range(1, 5):
            freq = draws.count(row) / 10**5
            assert abs(freq - 0.25) < 0.02 * 1.0  # within +-2 points of 0.25

    @staticmethod
    def trips(n):
        """Every trip short of all rows for n <= 6; for larger n, trips at
        the low end, the middle and the high end of the rows, and spread out."""
        if n <= 6:
            for size in range(n):
                yield from itertools.combinations(range(n), size)
            return
        mid = n // 2
        yield from ([0], [0, 1, 2, 3], [mid - 2, mid, mid + 1], [n - 1], [n - 4, n - 3, n - 1],
                    [0, mid, n - 1], list(range(0, n, 3)), list(range(n - 1)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 40, 2000])
    def test_same_rows_and_state_as_choice(self, n):
        # the rows of rng.choice over the rows outside the trip, drawn by the
        # same generator calls
        for inside in self.trips(n):
            eligible = sorted(set(range(n)) - set(inside))
            for seed, k in ((0, 1), (1, 5), (2, 12)):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert sample_negatives(list(inside), n, k, rng) == \
                    ref.choice(eligible, size=k, replace=True).tolist()
                assert rng.bit_generator.state == ref.bit_generator.state

class TestTrain:
    def test_zero_epochs_returns_init(self, clique_corpus):
        trips, _ = clique_corpus
        cfg = TrainConfig(dim=3, max_iterations=0, rng_seed=5)
        m = train(trips[:10], cfg)
        m2 = init_model(trips[:10], cfg, np.random.default_rng(5))
        for p in m.poi_vec:
            assert np.array_equal(m.poi_vec[p], m2.poi_vec[p])

    def test_deterministic(self):
        trips, _ = two_clique_corpus(n_trips=20, pois_per_clique=4)
        cfg = TrainConfig(dim=3, max_iterations=2, rng_seed=9)
        m1, m2 = train(trips, cfg), train(trips, cfg)
        for p in m1.poi_vec:
            assert np.array_equal(m1.poi_vec[p], m2.poi_vec[p])
        for u in m1.user_vec:
            assert np.array_equal(m1.user_vec[u], m2.user_vec[u])
        assert m1.poi_pop == m2.poi_pop

    def test_shuffle_deterministic_and_different(self):
        trips, _ = two_clique_corpus(n_trips=20, pois_per_clique=4)
        cfg = TrainConfig(dim=3, max_iterations=2, rng_seed=9, shuffle=True)
        m1, m2 = train(trips, cfg), train(trips, cfg)
        for p in m1.poi_vec:
            assert np.array_equal(m1.poi_vec[p], m2.poi_vec[p])
        for u in m1.user_vec:
            assert np.array_equal(m1.user_vec[u], m2.user_vec[u])
        assert m1.poi_pop == m2.poi_pop
        plain = train(trips, TrainConfig(dim=3, max_iterations=2, rng_seed=9))
        assert any(not np.array_equal(m1.poi_vec[p], plain.poi_vec[p]) for p in m1.poi_vec)

    def test_clique_separation(self, clique_corpus):
        trips, cliques = clique_corpus
        cfg = TrainConfig(dim=8, max_iterations=50, rng_seed=42,
                          learning_rate=0.05)
        m = train(trips, cfg)
        within, across = clique_similarity(m, cliques)
        assert within > across

    def test_observations(self):
        # rows = [user row (after the 4 POI rows), target, negative slot, context...]
        trip = make_trip("u1", ["c", "a", "b"])
        obs = compile_observations([trip], ["a", "b", "c", "d"], ["u0", "u1"], True)
        assert [inside for inside, _ in obs] == [[0, 1, 2]] * 3
        assert [rows.tolist() for _, rows in obs] == \
            [[5, 2, 0, 0, 1], [5, 0, 0, 1, 2], [5, 1, 0, 0, 2]]
        assert all(rows.dtype == np.intp for _, rows in obs)
        obs = compile_observations([trip], ["a", "b", "c", "d"], ["u0", "u1"], False)
        assert [inside for inside, _ in obs] == [[0, 1, 2]] * 3
        assert [rows.tolist() for _, rows in obs] == [[5, 2, 0], [5, 0, 0], [5, 1, 0]]


def clique_similarity(model, cliques):
    within, across = [], []
    for i, ca in enumerate(cliques):
        for a in ca:
            for b in ca:
                if a < b:
                    within.append(model.csim(a, b))
            for cb in cliques[i + 1:]:
                for b in cb:
                    across.append(model.csim(a, b))
    return float(np.mean(within)), float(np.mean(across))


class TestBprObjective:
    def test_zero_model_closed_form(self):
        trips = [make_trip("u1", ["p1", "p2"]), make_trip("u2", ["p3"])]
        m = zero_model(pois=("p1", "p2", "p3", "p4"), users=("u1", "u2"))
        cfg = TrainConfig(dim=2, negatives=3, regularization=0.0)
        # 3 observations x 3 negatives, each contributing log(0.5)
        assert bpr_objective(trips, m, cfg) == pytest.approx(9 * math.log(0.5))

    def test_regularized_zero_model_same(self):
        trips = [make_trip("u1", ["p1", "p2"])]
        m = zero_model(users=("u1",))
        cfg0 = TrainConfig(dim=2, negatives=2, regularization=0.0)
        cfg1 = TrainConfig(dim=2, negatives=2, regularization=0.5)
        assert bpr_objective(trips, m, cfg0) == bpr_objective(trips, m, cfg1)

    def test_training_improves_objective(self):
        trips, _ = two_clique_corpus(n_trips=40, pois_per_clique=5)
        cfg = TrainConfig(dim=4, max_iterations=15, rng_seed=3, learning_rate=0.05)
        init = init_model(trips, cfg, np.random.default_rng(cfg.rng_seed))
        trained = train(trips, cfg)
        assert bpr_objective(trips, trained, cfg) > bpr_objective(trips, init, cfg)


class TestModelFile:
    def test_round_trip_exact(self):
        m = small_model(dim=3, seed=13)
        m.zpair = 123.456
        buf = io.StringIO()
        m.save(buf)
        buf.seek(0)
        loaded = EmbeddingModel.load(buf)
        assert loaded.dim == m.dim
        for p in m.poi_vec:
            assert np.array_equal(loaded.poi_vec[p], m.poi_vec[p])
            assert loaded.poi_pop[p] == m.poi_pop[p]
        for u in m.user_vec:
            assert np.array_equal(loaded.user_vec[u], m.user_vec[u])
        assert loaded.zpair == 123.456

    def test_first_bad_vector_named(self):
        def model(vectors):
            return EmbeddingModel(2, dict(vectors), {p: 0.0 for p in vectors}, {})
        good = np.zeros(2)
        with pytest.raises(ValueError, match="non-finite vector for p2"):
            model({"p1": good, "p2": np.array([0.0, np.nan]), "p3": np.zeros(3)})
        with pytest.raises(ValueError, match="vector for p2 has shape"):
            model({"p1": good, "p2": np.zeros(3), "p3": np.array([np.inf, 0.0])})
        with pytest.raises(ValueError, match="non-finite vector for p3"):
            model({"p1": good, "p2": good, "p3": np.array([np.inf, 0.0]),
                   "p4": np.array([np.nan, 0.0])})
        with pytest.raises(ValueError, match="non-finite vector for u1"):
            EmbeddingModel(2, {"p1": good}, {"p1": 0.0}, {"u1": np.array([np.nan, 1.0])})

    def test_header_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingModel.load(io.StringIO("WRONG v1 d=2 pois=0 users=0\n"))


class TestAblationModes:
    def test_pop_only_freezes_vectors(self):
        trips, _ = two_clique_corpus(n_trips=20, pois_per_clique=4)
        cfg = TrainConfig(dim=3, max_iterations=3, rng_seed=1, mode="pop-only")
        m = train(trips, cfg)
        for p in m.poi_vec:
            assert np.all(m.poi_vec[p] == 0.0)
        assert any(v != 0.0 for v in m.poi_pop.values())

    @pytest.mark.parametrize("corrected_reg", [False, True])
    def test_step_reads_rows_not_mode(self, corrected_reg):
        # a mode chooses the rows and the initial vectors, not the update:
        # the same rows step the same way under every mode
        W0 = np.random.default_rng(7).uniform(0.0, 1.0, (4, 2))  # p0, p1, p2, then u
        rows = np.array([3, 0, 1], dtype=np.intp)  # [user, target, negative]
        stepped = []
        for mode in ("full", "pop+pref", "pop-only"):
            cfg = TrainConfig(dim=2, learning_rate=0.01, corrected_reg=corrected_reg,
                              mode=mode)
            W, pop = W0.copy(), [0.3, -0.2, 0.1]
            sgd_step(W, pop, rows, step_factors(len(rows), cfg), cfg)
            stepped.append((W, pop))
        (W_full, pop_full), *ablations = stepped
        assert not np.array_equal(W_full, W0)
        for W, pop in ablations:
            assert np.array_equal(W, W_full) and pop == pop_full

    def test_pop_pref_ignores_context(self):
        # with the context zeroed, the step must equal a step on an
        # empty-context observation
        m1 = small_model(seed=4)
        m2 = EmbeddingModel(2, {p: v.copy() for p, v in m1.poi_vec.items()},
                            dict(m1.poi_pop),
                            {u: v.copy() for u, v in m1.user_vec.items()})
        cfg = TrainConfig(dim=2, learning_rate=0.01, mode="pop+pref")
        obs_ctx = Observation("u1", frozenset({"p1", "p3"}), "p1", frozenset({"p3"}))
        obs_no = Observation("u1", frozenset({"p1"}), "p1", frozenset())
        array_step(m1, obs_ctx, "p2", cfg)
        array_step(m2, obs_no, "p2", cfg)
        for p in m1.poi_vec:
            assert np.allclose(m1.poi_vec[p], m2.poi_vec[p], atol=1e-15)
