"""Tests of the benchmark's own checkers and generators (kept out of the
repository's test run by the file name).

    python3 -m pytest perfbench/selftest.py      or      python3 perfbench/selftest.py
"""

import itertools
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402


def test_transit_is_haversine_at_walking_speed():
    one_degree = 2 * math.pi * check.EARTH_RADIUS_KM / 360
    assert abs(check.haversine_km(40.0, -74.0, 41.0, -74.0) - one_degree) < 1e-9
    assert abs(check.transit_s(40.0, -74.0, 41.0, -74.0) - one_degree * 900.0) < 1e-6
    assert check.transit_s(40.0, -74.0, 40.0, -74.0) == 0.0


def test_trip_cost_counts_every_visit_and_leg():
    city = check.City({"a": 100.0, "b": 200.0, "c": 50.0},
                      {"a": 40.0, "b": 40.01, "c": 40.02}, {"a": -74.0, "b": -74.0, "c": -74.0})
    legs = check.transit_s(40.0, -74.0, 40.01, -74.0) + check.transit_s(40.01, -74.0, 40.02, -74.0)
    assert abs(city.trip_cost(["a", "b", "c"]) - (350.0 + legs)) < 1e-9
    assert check.fits(100.0, 100.0) and not check.fits(100.001, 100.0)


def test_logsumexp_is_stable():
    x = np.array([1.0, 2.0, 3.0])
    assert abs(check.logsumexp(x) - math.log(sum(math.exp(v) for v in x))) < 1e-12
    assert abs(check.logsumexp(x + 1000.0) - (check.logsumexp(x) + 1000.0)) < 1e-9


def write_model(rng, n_pois, dim, scale=1.0):
    path = Path(tempfile.mkdtemp()) / "model.txt"
    pois = [f"p{i}" for i in range(n_pois)]
    vecs = rng.normal(scale=scale, size=(n_pois, dim))
    user = rng.normal(size=dim)
    with open(path, "w") as fh:
        fh.write(f"CAPE v1 d={dim} pois={n_pois} users=1\n")
        for p, v in zip(pois, vecs):
            fh.write(f"P {p} 0.5 " + " ".join(repr(float(c)) for c in v) + "\n")
        fh.write("U u " + " ".join(repr(float(c)) for c in user) + "\n")
    return path, pois, vecs, user


def test_pair_normaliser_blocks_match_the_full_sum():
    rng = np.random.default_rng(0)
    path, pois, vecs, _ = write_model(rng, 7, 4)
    model = check.Model(path)
    naive = math.log(sum(math.exp(vecs[a] @ vecs[b])
                         for a in range(7) for b in range(7) if a != b))
    assert abs(model._pair_lse(block=3) - naive) < 1e-12
    assert abs(model.pair_lse - naive) < 1e-12


def test_probabilities_sum_to_one_even_for_large_vectors():
    rng = np.random.default_rng(1)
    path, pois, vecs, _ = write_model(rng, 9, 5, scale=30.0)
    scorer = check.Scorer(check.Model(path), "u", "p0", "p1")
    assert abs(sum(scorer.closeness(p) for p in pois) - 1.0) < 1e-9
    assert abs(sum(scorer.pair(a, b) for a in pois for b in pois if a != b) - 1.0) < 1e-9


def test_score_is_closeness_plus_unordered_pairs():
    rng = np.random.default_rng(2)
    path, pois, vecs, user = write_model(rng, 6, 3)
    scorer = check.Scorer(check.Model(path), "u", "p0", "p5")
    q = user + vecs[0] + vecs[5]
    zq = sum(math.exp(v @ q) for v in vecs)
    zp = sum(math.exp(vecs[a] @ vecs[b]) for a in range(6) for b in range(6) if a != b)
    want = sum(math.exp(vecs[i] @ q) / zq for i in (1, 2, 3))
    want += sum(math.exp(vecs[a] @ vecs[b]) / zp for a, b in ((1, 2), (1, 3), (2, 3)))
    assert abs(scorer.score(["p1", "p2", "p3"]) - want) < 1e-12
    assert scorer.score([]) == 0.0


def random_legs(rng, m):
    names = ["s", "e"] + [f"v{i}" for i in range(m)]
    cost = {(a, b): float(rng.uniform(100, 900)) for a in names for b in names if a != b}
    return names[2:], lambda a, b: cost[(a, b)]


def test_held_karp_matches_brute_force():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        interior, leg = random_legs(rng, int(rng.integers(1, 6)))
        costs = check.subset_path_costs("s", "e", interior, leg)
        for mask in range(1 << len(interior)):
            members = [v for j, v in enumerate(interior) if mask >> j & 1]
            brute = min(sum(leg(a, b) for a, b in zip(path, path[1:]))
                        for order in itertools.permutations(members)
                        for path in [["s", *order, "e"]])
            assert abs(costs[mask] - brute) < 1e-9, (seed, mask)


def test_best_subset_matches_enumeration_of_every_trip():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        interior, leg = random_legs(rng, int(rng.integers(1, 6)))
        profit = {v: float(rng.uniform(0, 1)) for v in interior}
        pair = {frozenset(p): float(rng.uniform(0, 0.3))
                for p in itertools.combinations(interior, 2)}

        class Table:
            def closeness(self, v):
                return profit[v]

            def pair(self, a, b):
                return pair[frozenset((a, b))]

            def score(self, members):
                return sum(profit[v] for v in members) + sum(
                    pair[frozenset(p)] for p in itertools.combinations(members, 2))

        scorer = Table()
        budget = 300.0 + float(rng.uniform(500, 2500))
        best, best_set = check.best_subset("s", "e", interior, leg, 300.0, budget, scorer)
        brute = 0.0
        for k in range(len(interior) + 1):
            for order in itertools.permutations(interior, k):
                path = ["s", *order, "e"]
                if 300.0 + sum(leg(a, b) for a, b in zip(path, path[1:])) <= budget:
                    brute = max(brute, scorer.score(order))
        assert abs(best - brute) < 1e-12, seed
        assert abs(scorer.score(best_set) - best) < 1e-12


def test_f1():
    assert check.f1(0.0, 0.0) == 0.0
    assert abs(check.f1(0.5, 1.0) - 2 / 3) < 1e-15


def test_budget_keeps_the_requested_number_of_interior_pois():
    rng = np.random.default_rng(3)
    corpus = gen.structured_corpus(rng, rng, sizes=[13] * 8, spacing_km=4.0, cluster_km=1.0,
                                   users_per_cluster=4, trips_per_user=4, trip_len=5,
                                   anchors=1, visit_s=(600, 1800))
    means = corpus.visit_means()
    assert len(means) == 104
    for k, q in zip((18, 48, 78), gen.ladder_queries(rng, corpus, [18, 48, 78], near=8)):
        kept = sum(1 for d in gen.detours(corpus, means, q.start, q.end) if d <= q.budget)
        assert abs(kept - k) <= 1, (k, kept)


def test_no_two_trips_of_a_user_meet_at_one_poi():
    for corpus in (gen.acceptance_corpus(7),
                   gen.structured_corpus(np.random.default_rng(4), np.random.default_rng(5),
                                         sizes=[10, 10],
                                         spacing_km=3.0, cluster_km=0.9, users_per_cluster=2,
                                         trips_per_user=6, trip_len=4, anchors=1,
                                         visit_s=(600, 1200))):
        for (u1, v1), (u2, v2) in zip(corpus.trips, corpus.trips[1:]):
            assert u1 != u2 or v1[-1][0] != v2[0][0]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
