import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripkit.checkins import (CheckinError, CheckinRecord, PoiVisit, TimeCostModel,
                              Trip, UnknownPoiError, aggregate_visits,
                              compute_visit_times, cooccurrence_counts,
                              corpus_stats, extract_trips, haversine_km,
                              impacted_user_ratio, independent_pair_ratio,
                              ingest_checkins, load_distance_matrix, load_pois,
                              two_sample_chi_square)
from conftest import make_trip


class TestIngest:
    def test_basic_row(self):
        records, skipped = ingest_checkins(io.StringIO("u1,p1,1142731848\n"))
        assert records == [CheckinRecord("u1", "p1", 1142731848)]
        assert skipped == 0

    def test_empty_stream(self):
        records, _ = ingest_checkins(io.StringIO(""))
        assert records == []

    def test_bad_timestamp_reports_line(self):
        with pytest.raises(CheckinError, match="line 1"):
            ingest_checkins(io.StringIO("u1,p1,notanumber\n"))

    def test_skip_and_count(self):
        data = "u1,p1,100\nu1,p1,bad\nu2,p2,200\n"
        records, skipped = ingest_checkins(io.StringIO(data), skip_bad_rows=True)
        assert len(records) == 2
        assert skipped == 1

    def test_header_skipped(self):
        records, _ = ingest_checkins(io.StringIO("user_id,poi_id,timestamp\nu1,p1,5\n"))
        assert records == [CheckinRecord("u1", "p1", 5)]

    def test_order_preserved(self):
        data = "u2,p9,300\nu1,p1,100\n"
        records, _ = ingest_checkins(io.StringIO(data))
        assert [r.user_id for r in records] == ["u2", "u1"]


class TestAggregateVisits:
    def test_run_merging(self):
        recs = [CheckinRecord("u1", "p1", 100), CheckinRecord("u1", "p1", 200),
                CheckinRecord("u1", "p2", 300)]
        visits = aggregate_visits(recs)["u1"]
        assert visits == [PoiVisit("u1", "p1", 100, 200), PoiVisit("u1", "p2", 300, 300)]

    def test_singleton(self):
        visits = aggregate_visits([CheckinRecord("u1", "p1", 100)])["u1"]
        assert visits == [PoiVisit("u1", "p1", 100, 100)]

    def test_nonconsecutive_repeats_preserved(self):
        recs = [CheckinRecord("u1", "p1", 100), CheckinRecord("u1", "p2", 150),
                CheckinRecord("u1", "p1", 200)]
        visits = aggregate_visits(recs)["u1"]
        assert [v.poi_id for v in visits] == ["p1", "p2", "p1"]

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 1000)),
                    min_size=1, max_size=30))
    def test_no_consecutive_duplicates(self, pairs):
        recs = [CheckinRecord("u1", p, t) for p, t in pairs]
        visits = aggregate_visits(recs)["u1"]
        for a, b in zip(visits, visits[1:]):
            assert a.poi_id != b.poi_id


class TestExtractTrips:
    def _visits(self, times):
        return {"u1": [PoiVisit("u1", f"p{i}", t, t) for i, t in enumerate(times)]}

    def test_window_split(self):
        trips = extract_trips(self._visits([0, 10000, 20000, 40000]), window=28800)
        assert [len(t.visits) for t in trips] == [3, 1]

    def test_single_visit(self):
        trips = extract_trips(self._visits([5]))
        assert len(trips) == 1 and len(trips[0].visits) == 1

    def test_boundary_inclusive(self):
        trips = extract_trips(self._visits([0, 28800]), window=28800)
        assert len(trips) == 1

    def test_gap_mode(self):
        # gaps of 20000 chain beyond the window under the anchored rule
        trips = extract_trips(self._visits([0, 20000, 40000]), window=28800,
                              gap_mode=True)
        assert len(trips) == 1
        trips = extract_trips(self._visits([0, 20000, 40000]), window=28800)
        assert len(trips) == 2

    @given(st.lists(st.integers(0, 200000), min_size=1, max_size=25))
    def test_partition_property(self, times):
        visits = self._visits(sorted(times))
        trips = extract_trips(visits)
        flattened = [v for t in trips for v in t.visits]
        assert flattened == visits["u1"]


class TestTimeCostModel:
    def test_visit_time_mean(self):
        trips = [Trip("u1", (PoiVisit("u1", "p1", 0, 100), PoiVisit("u1", "p2", 500, 500))),
                 Trip("u2", (PoiVisit("u2", "p1", 0, 200),))]
        times = compute_visit_times(trips)
        assert times["p1"] == 150.0
        assert times["p2"] == 0.0

    def test_visit_time_fixture_matches_one_pass_mean(self):
        rng = np.random.default_rng(7)
        durations = rng.integers(0, 3600, 6)
        trips = [Trip(f"u{i}", (PoiVisit(f"u{i}", "p3", 0, int(d)),))
                 for i, d in enumerate(durations)]
        expected = sum(int(d) for d in durations) / 6  # independent one-pass mean
        assert compute_visit_times(trips)["p3"] == pytest.approx(expected, abs=1e-12)

    def test_unknown_poi_errors(self):
        tcm = TimeCostModel({"p1": 10.0})
        with pytest.raises(UnknownPoiError):
            tcm.visit_time("p9")

    def test_transit_same_poi_zero(self):
        tcm = TimeCostModel({}, pois=dict_pois())
        assert tcm.transit_time("p1", "p1") == 0.0

    def test_transit_from_matrix(self):
        tcm = TimeCostModel({}, distance_matrix={("a", "b"): 4.0, ("b", "a"): 4.0},
                            walking_speed=4.0)
        assert tcm.transit_time("a", "b") == pytest.approx(3600.0)

    def test_great_circle_one_degree(self):
        # independent oracle: one degree of longitude on the equator is
        # 2*pi*6371/360 km
        expected_km = 2 * math.pi * 6371.0 / 360.0
        assert haversine_km(0, 0, 0, 1) == pytest.approx(expected_km, rel=1e-9)
        tcm = TimeCostModel({}, pois={"a": _poi("a", 0, 0), "b": _poi("b", 0, 1)})
        assert tcm.transit_time("a", "b") == pytest.approx(expected_km / 4.0 * 3600.0,
                                                           rel=1e-9)

    def test_transit_symmetry(self):
        tcm = TimeCostModel({}, pois=dict_pois())
        assert tcm.transit_time("p1", "p2") == pytest.approx(tcm.transit_time("p2", "p1"))

    def test_trip_cost_single(self):
        tcm = TimeCostModel({"p1": 600.0}, pois=dict_pois())
        assert tcm.trip_cost(["p1"]) == 600.0

    def test_trip_cost_pair(self):
        tcm = TimeCostModel({"p1": 600.0, "p2": 900.0},
                            distance_matrix={("p1", "p2"): 1.0, ("p2", "p1"): 1.0},
                            walking_speed=12.0)
        assert tcm.trip_cost(["p1", "p2"]) == pytest.approx(600 + 900 + 300)

    def test_trip_cost_fixture_hand_sum(self):
        ids = [f"p{i}" for i in range(5)]
        visit = {p: 100.0 * (i + 1) for i, p in enumerate(ids)}
        dist = {(a, b): abs(i - j) * 2.0 for i, a in enumerate(ids)
                for j, b in enumerate(ids)}
        tcm = TimeCostModel(visit, distance_matrix=dist, walking_speed=4.0)
        # hand-summed: visits 100+200+300+400+500 = 1500;
        # four legs of 2 km at 4 km/h = 4 * 1800 s
        assert tcm.trip_cost(ids) == pytest.approx(1500 + 4 * 1800)

    def test_trip_cost_monotone_extension(self):
        tcm = TimeCostModel({"p1": 10.0, "p2": 5.0}, pois=dict_pois())
        assert tcm.trip_cost(["p1", "p2"]) > tcm.trip_cost(["p1"])

    def test_distance_matrix_validation(self):
        good = "id,a,b\na,0,2\nb,2,0\n"
        mat = load_distance_matrix(io.StringIO(good))
        assert mat[("a", "b")] == 2.0
        bad = "id,a,b\na,0,2\nb,3,0\n"
        with pytest.raises(CheckinError, match="symmetric"):
            load_distance_matrix(io.StringIO(bad))

    @pytest.mark.parametrize("text,message", [
        ("id,a,b\na,0,2\n", "no row for b"),
        ("id,a,b\nb,2,0\n", "no row for a"),
        ("id,a,b\na,0,2\nb,2,0\nc,1,1\n", "row c is not in the header"),
        ("id,a,b\na,0,2\na,0,2\nb,2,0\n", "row a appears twice"),
        ("id,a,a,b\na,0,0,2\nb,2,2,0\n", "header repeats a"),
    ], ids=["missing-last", "missing-first", "foreign", "duplicate", "duplicate-column"])
    def test_distance_matrix_rows_are_the_header_ids(self, text, message):
        with pytest.raises(CheckinError, match=message):
            load_distance_matrix(io.StringIO(text))

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "-5", "-1e-9"])
    @pytest.mark.parametrize("row,col", [("a", "b"), ("b", "a"), ("a", "a")])
    def test_distance_entries_finite_and_nonnegative(self, cell, row, col):
        table = {("a", "a"): "0", ("a", "b"): "2", ("b", "a"): "2", ("b", "b"): "0"}
        table[(row, col)] = cell
        text = "id,a,b\n" + "".join(f"{r},{table[(r, 'a')]},{table[(r, 'b')]}\n" for r in "ab")
        with pytest.raises(CheckinError, match=rf"distance \({row}, {col}\) must be finite"):
            load_distance_matrix(io.StringIO(text))


def _poi(pid, lat, lon):
    from tripkit.checkins import Poi
    return Poi(pid, lat, lon)


def dict_pois():
    return {"p1": _poi("p1", 10.0, 20.0), "p2": _poi("p2", 10.5, 20.5)}


class TestPoiFile:
    def test_load_pois(self):
        data = "poi_id,lat,lon,category\np1,10.0,20.0,museum\np2,10.5,20.5,\n"
        pois = load_pois(io.StringIO(data))
        assert pois["p1"].category == "museum"
        assert pois["p2"].category is None

    def test_coordinate_range(self):
        with pytest.raises(CheckinError):
            load_pois(io.StringIO("p1,95.0,0.0\n"))


class TestCooccurrence:
    def test_single_partner(self):
        trips = [make_trip("u1", ["p1", "p2"], start=i * 10**6) for i in range(3)]
        counts = cooccurrence_counts("p1", [t.poi_set() for t in trips], {"p1": 0, "p2": 1})
        assert counts.tolist() == [0, 3]

    def test_even_split(self):
        trips = ([make_trip("u1", ["p1", "p2"], start=i * 10**6) for i in range(2)]
                 + [make_trip("u1", ["p1", "p3"], start=(i + 5) * 10**6) for i in range(2)])
        counts = cooccurrence_counts("p1", [t.poi_set() for t in trips],
                                     {"p1": 0, "p2": 1, "p3": 2})
        assert counts.tolist() == [0, 2, 2]

    def test_singleton_trips_zero_vector(self):
        trips = [make_trip("u1", ["p1"]), make_trip("u2", ["p2", "p3"])]
        counts = cooccurrence_counts("p1", [t.poi_set() for t in trips],
                                     {"p1": 0, "p2": 1, "p3": 2})
        assert counts.tolist() == [0, 0, 0]

    def test_counts_every_partner_once_per_trip(self):
        rng = np.random.default_rng(3)
        pois = [f"p{i}" for i in range(6)]
        trips = [make_trip("u1", list(rng.choice(pois, size=3, replace=False)),
                           start=i * 10**6) for i in range(20)]
        counts = cooccurrence_counts("p0", [t.poi_set() for t in trips],
                                     {p: i for i, p in enumerate(pois)})
        expected = [sum(1 for t in trips if "p0" in t.poi_ids and p in t.poi_ids)
                    for p in pois]
        expected[0] = 0
        assert counts.tolist() == expected
        assert counts.sum() == 2 * sum(1 for t in trips if "p0" in t.poi_ids)


class TestIndependentPairRatio:
    def test_identical_counts_never_rejected(self):
        # p1 and p2 always co-occur with p3 the same way: identical counts
        trips = [make_trip("u1", ["p1", "p2", "p3"], start=i * 10**6) for i in range(30)]
        ratio = independent_pair_ratio(trips, sample_fraction=0.5, runs=5,
                                       significance=0.05, rng_seed=1)
        assert ratio == 0.0

    def test_disjoint_supports_rejected(self):
        from scipy.stats import chi2
        trips = ([make_trip("u1", ["p1", "a"], start=i * 10**6) for i in range(40)]
                 + [make_trip("u1", ["p2", "b"], start=(i + 50) * 10**6) for i in range(40)])
        # independent oracle: compute the statistic over the full corpus and
        # compare to the critical value from the chi-square table
        counts1 = np.array([0, 40, 0])  # p1 against (p2, a, b) -- p2 excluded below
        counts2 = np.array([0, 0, 40])
        stat, dof = two_sample_chi_square(counts1, counts2)
        assert stat > chi2.ppf(0.95, dof)
        ratio = independent_pair_ratio(trips, sample_fraction=1.0, runs=3,
                                       significance=0.05, rng_seed=1)
        # every pair involving p1/p2 against their disjoint partners rejects;
        # at minimum the (p1, p2) pair does
        assert ratio > 0.0

    def test_deterministic_under_seed(self):
        trips = ([make_trip("u1", ["p1", "a"], start=i * 10**6) for i in range(20)]
                 + [make_trip("u1", ["p2", "b"], start=(i + 50) * 10**6) for i in range(20)])
        r1 = independent_pair_ratio(trips, sample_fraction=0.5, runs=10,
                                    significance=0.05, rng_seed=9)
        r2 = independent_pair_ratio(trips, sample_fraction=0.5, runs=10,
                                    significance=0.05, rng_seed=9)
        assert r1 == r2

    def test_critical_value_looked_up_once_per_dof(self, clique_corpus, monkeypatch):
        from scipy.stats import chi2
        trips, _ = clique_corpus
        real, asked = chi2.ppf, []
        monkeypatch.setattr(chi2, "ppf", lambda q, dof: asked.append(dof) or real(q, dof))
        ratio = independent_pair_ratio(trips, sample_fraction=0.5, runs=5,
                                       significance=0.05, rng_seed=3)
        assert ratio == 0.5263157894736842  # the value of a lookup for every pair
        assert len(asked) == len(set(asked)) > 1

    def test_needs_two_pois(self):
        with pytest.raises(ValueError):
            independent_pair_ratio([make_trip("u1", ["p1"])], sample_fraction=0.5, runs=1,
                                   significance=0.05, rng_seed=42)


class TestImpactedUserRatio:
    def test_popular_only_user_impacted(self):
        # ten POIs; historical users hammer p0; test users visiting p0 are
        # impacted (rank 1 < 10/2), those visiting p9 are not
        trips = []
        for i in range(8):
            trips.append(make_trip(f"h{i}", ["p0", f"p{1 + i % 3}"], start=i * 10**6))
        for i in range(8):
            trips.append(make_trip(f"h{i}", [f"p{i % 10}", f"p{(i + 1) % 10}"],
                                   start=(i + 20) * 10**6))
        trips.append(make_trip("t1", ["p0"]))
        trips.append(make_trip("t2", ["p9"]))
        ratio = impacted_user_ratio(trips, runs=20, rng_seed=4)
        assert 0.0 <= ratio <= 1.0

    def test_hand_ranked_fixture(self):
        # two users with identical habits: p0 six times, p1/p2/p3 once each.
        # Either split ranks p0=1, p1=2, p2=3, p3=4 (count ties break by id).
        # Test user's mean rank = (6*1 + 2 + 3 + 4)/9 = 5/3 < |L|/2 = 2,
        # so every run reports ratio 1.
        trips = []
        for u in ("u1", "u2"):
            trips.append(make_trip(u, ["p0", "p1", "p0"], start=0))
            trips.append(make_trip(u, ["p0", "p2", "p0"], start=10**6))
            trips.append(make_trip(u, ["p0", "p3", "p0"], start=2 * 10**6))
        ratio = impacted_user_ratio(trips, runs=20, rng_seed=11)
        assert ratio == 1.0

    def test_needs_two_users(self):
        with pytest.raises(ValueError):
            impacted_user_ratio([make_trip("u1", ["p1", "p2"])], runs=1, rng_seed=42)


class TestCorpusStats:
    def test_counts(self):
        trips = [make_trip("u1", ["p1", "p2"]), make_trip("u2", ["p1"])]
        stats = corpus_stats(trips)
        assert stats["users"] == 2
        assert stats["poi_visits"] == 3
        assert stats["trips"] == 2
        assert stats["pois_per_trip"] == pytest.approx(1.5)
