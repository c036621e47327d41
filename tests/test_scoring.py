import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripkit.embedding import EmbeddingModel
import tripkit.scoring
from tripkit.scoring import (Query, ScoreContext, check_zpair, compute_zpair,
                             query_vector)
from oracles import ctq_score, zpair_full


def model_from(seed=0, dim=3, n_pois=5, users=("u1",)):
    rng = np.random.default_rng(seed)
    pois = [f"p{i}" for i in range(n_pois)]
    return EmbeddingModel(dim,
                          {p: rng.normal(scale=0.6, size=dim) for p in pois},
                          {p: float(rng.normal(scale=0.3)) for p in pois},
                          {u: rng.normal(scale=0.6, size=dim) for u in users})


class TestQuery:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Query("u1", "p0", "p1", 0.0)

    def test_same_endpoint_allowed(self):
        q = Query("u1", "p0", "p0", 100.0)
        assert q.start == q.end


class TestQueryVector:
    def test_sum_of_three(self):
        m = model_from()
        q = Query("u1", "p0", "p1", 3600)
        expected = m.user_vec["u1"] + m.poi_vec["p0"] + m.poi_vec["p1"]
        assert np.allclose(query_vector(m, q), expected, atol=0)

    def test_same_endpoint_counted_twice(self):
        m = model_from()
        q = Query("u1", "p0", "p0", 3600)
        expected = m.user_vec["u1"] + 2 * m.poi_vec["p0"]
        assert np.allclose(query_vector(m, q), expected, atol=0)


class TestCloseness:
    def test_sums_to_one(self):
        m = model_from(seed=2)
        ctx = ScoreContext(m, Query("u1", "p0", "p1", 3600))
        total = sum(ctx.closeness(p) for p in m.poi_vec)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_direct_softmax_oracle(self):
        m = model_from(seed=3)
        q = Query("u1", "p0", "p4", 3600)
        ctx = ScoreContext(m, q)
        base = m.user_vec["u1"] + m.poi_vec["p0"] + m.poi_vec["p4"]
        raw = {p: math.exp(float(m.poi_vec[p] @ base)) for p in m.poi_vec}
        z = sum(raw.values())
        for p in m.poi_vec:
            assert ctx.closeness(p) == pytest.approx(raw[p] / z, rel=1e-12)

    def test_zero_model_uniform(self):
        m = EmbeddingModel(2, {f"p{i}": np.zeros(2) for i in range(4)},
                           {f"p{i}": 0.0 for i in range(4)},
                           {"u1": np.zeros(2)})
        ctx = ScoreContext(m, Query("u1", "p0", "p1", 100))
        assert ctx.closeness("p2") == pytest.approx(0.25)


class TestNcsim:
    def test_symmetric(self):
        m = model_from(seed=5)
        ctx = ScoreContext(m, Query("u1", "p0", "p1", 3600))
        assert ctx.ncsim("p2", "p3") == pytest.approx(ctx.ncsim("p3", "p2"))

    def test_ordered_pair_normalizer(self):
        m = model_from(seed=6, n_pois=4)
        z = sum(math.exp(float(m.poi_vec[a] @ m.poi_vec[b]))
                for a in m.poi_vec for b in m.poi_vec if a != b)
        assert compute_zpair(m) == pytest.approx(z, rel=1e-12)
        ctx = ScoreContext(m, Query("u1", "p0", "p1", 3600))
        total = sum(ctx.ncsim(a, b) for a in m.poi_vec for b in m.poi_vec if a != b)
        assert total == pytest.approx(1.0, abs=1e-9)

    # (POIs, rows per block): the upper triangle has POIs - 1 rows; None keeps
    # the library's block size (at 725 POIs, one full block and a 1-row block)
    @pytest.mark.parametrize("n_pois, rows", [
        (2, None), (3, None), (725, None),
        (10, 10), (10, 9), (10, 8), (10, 4),
    ], ids=["P2", "P3", "P725", "one-block-minus-one", "one-block", "one-block-plus-one",
            "two-blocks-plus-one"])
    def test_blocked_matches_full_matrix(self, n_pois, rows, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(tripkit.scoring, "ZPAIR_BLOCK", n_pois * rows)
        m = model_from(seed=n_pois, dim=4, n_pois=n_pois)
        assert compute_zpair(m) == pytest.approx(zpair_full(m), rel=1e-12)
        assert check_zpair(m, zpair_full(m)) == compute_zpair(m)

    def test_pair_normalizer_holds_no_full_matrix(self):
        # the two 3,000 x 3,000 matrices of the full formula take 72 MB each
        m = model_from(seed=12, dim=8, n_pois=3000)
        tracemalloc.start()
        try:
            compute_zpair(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_same_poi_rejected(self):
        ctx = ScoreContext(model_from(), Query("u1", "p0", "p1", 3600))
        with pytest.raises(ValueError):
            ctx.ncsim("p2", "p2")


class TestCtqScore:
    def test_empty_interior_is_zero(self):
        ctx = ScoreContext(model_from(), Query("u1", "p0", "p1", 3600))
        assert ctq_score(ctx, ["p0", "p1"]) == 0.0

    def test_single_interior(self):
        ctx = ScoreContext(model_from(seed=7), Query("u1", "p0", "p4", 3600))
        assert ctq_score(ctx, ["p0", "p2", "p4"]) == pytest.approx(ctx.closeness("p2"))

    def test_hand_sum(self):
        ctx = ScoreContext(model_from(seed=8), Query("u1", "p0", "p4", 3600))
        expected = (ctx.closeness("p1") + ctx.closeness("p2") + ctx.closeness("p3")
                    + ctx.ncsim("p1", "p2") + ctx.ncsim("p1", "p3")
                    + ctx.ncsim("p2", "p3"))
        assert ctq_score(ctx, ["p0", "p1", "p2", "p3", "p4"]) == pytest.approx(expected)

    def test_order_invariant(self):
        ctx = ScoreContext(model_from(seed=9), Query("u1", "p0", "p4", 3600))
        a = ctq_score(ctx, ["p0", "p1", "p2", "p3", "p4"])
        b = ctq_score(ctx, ["p0", "p3", "p1", "p2", "p4"])
        assert a == pytest.approx(b, rel=1e-12)

    def test_wrong_endpoints_rejected(self):
        ctx = ScoreContext(model_from(), Query("u1", "p0", "p4", 3600))
        with pytest.raises(ValueError):
            ctq_score(ctx, ["p1", "p2", "p4"])
        with pytest.raises(ValueError):
            ctq_score(ctx, ["p0", "p2", "p3"])

    def test_repeated_interior_rejected(self):
        ctx = ScoreContext(model_from(), Query("u1", "p0", "p4", 3600))
        with pytest.raises(ValueError):
            ctq_score(ctx, ["p0", "p2", "p2", "p4"])

    def test_endpoint_in_interior_rejected(self):
        ctx = ScoreContext(model_from(), Query("u1", "p0", "p4", 3600))
        with pytest.raises(ValueError):
            ctq_score(ctx, ["p0", "p0", "p4"])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_monotone_in_interior_additions(self, seed):
        # every term is positive, so growing the interior set grows the score
        m = model_from(seed=seed, n_pois=6)
        ctx = ScoreContext(m, Query("u1", "p0", "p5", 3600))
        small = ctq_score(ctx, ["p0", "p1", "p5"])
        big = ctq_score(ctx, ["p0", "p1", "p2", "p5"])
        assert big > small


class TestZpairCache:
    def test_accepts_fresh_value(self):
        m = model_from(seed=10)
        z = compute_zpair(m)
        assert check_zpair(m, z) == z

    def test_rejects_stale_value(self):
        m = model_from(seed=10)
        z = compute_zpair(m)
        with pytest.raises(ValueError):
            check_zpair(m, z * (1 + 1e-6))

    def test_tolerates_tiny_drift(self):
        m = model_from(seed=10)
        z = compute_zpair(m)
        assert check_zpair(m, z * (1 + 1e-12)) == pytest.approx(z)

    def test_requires_two_pois(self):
        m = EmbeddingModel(2, {"p0": np.zeros(2)}, {"p0": 0.0}, {})
        with pytest.raises(ValueError):
            compute_zpair(m)

    def test_context_fills_and_reuses_model_zpair(self, monkeypatch):
        m = model_from(seed=11)
        assert m.zpair is None
        ScoreContext(m, Query("u1", "p0", "p1", 3600))
        assert m.zpair == compute_zpair(m)
        monkeypatch.setattr(tripkit.scoring, "compute_zpair", None)  # any call fails
        assert ScoreContext(m, Query("u1", "p2", "p3", 3600)).z_pair == m.zpair
