"""Check-in ingestion, visit/trip aggregation, time costs, and corpus analyses."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

EARTH_RADIUS_KM = 6371.0
DEFAULT_TRIP_WINDOW = 8 * 3600
DEFAULT_WALKING_SPEED = 4.0  # km/h


class CheckinError(ValueError):
    """Malformed check-in or POI input."""


class UnknownPoiError(KeyError):
    """A POI id is missing from the model or corpus."""

    __str__ = Exception.__str__  # the message alone; KeyError would quote it


@dataclass(frozen=True)
class CheckinRecord:
    user_id: str
    poi_id: str
    timestamp: int

    def __post_init__(self):
        if not self.user_id or not self.poi_id:
            raise CheckinError("user_id and poi_id must be non-empty")
        if self.timestamp < 0:
            raise CheckinError("timestamp must be >= 0")


@dataclass(frozen=True)
class Poi:
    id: str
    lat: float
    lon: float
    category: str | None = None

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise CheckinError(f"latitude out of range for {self.id}: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise CheckinError(f"longitude out of range for {self.id}: {self.lon}")


@dataclass(frozen=True)
class PoiVisit:
    user_id: str
    poi_id: str
    t_a: int
    t_d: int

    def __post_init__(self):
        if self.t_a > self.t_d:
            raise CheckinError("visit arrival must not be after departure")

    @property
    def duration(self) -> int:
        return self.t_d - self.t_a


@dataclass(frozen=True)
class Trip:
    user_id: str
    visits: tuple[PoiVisit, ...]

    def __post_init__(self):
        for a, b in zip(self.visits, self.visits[1:]):
            if b.t_a < a.t_a:
                raise CheckinError("trip visits must be time-ordered")
            if a.poi_id == b.poi_id:
                raise CheckinError("consecutive visits at the same POI must be merged")

    @property
    def poi_ids(self) -> tuple[str, ...]:
        return tuple(v.poi_id for v in self.visits)

    def poi_set(self) -> frozenset[str]:
        return frozenset(v.poi_id for v in self.visits)


def ingest_checkins(rows: Iterable[str] | io.TextIOBase, *,
                    skip_bad_rows: bool = False) -> tuple[list[CheckinRecord], int]:
    """Parse CSV rows `user_id,poi_id,timestamp` into records.

    Returns (records, skipped_count). With skip_bad_rows=False a malformed
    row raises CheckinError carrying its line number.
    """
    records: list[CheckinRecord] = []
    skipped = 0
    reader = csv.reader(rows)
    for lineno, row in enumerate(reader, start=1):
        if not row:
            continue
        if lineno == 1 and row[0].strip() == "user_id":
            continue
        try:
            if len(row) != 3:
                raise CheckinError(f"expected 3 fields, got {len(row)}")
            user_id, poi_id, ts = (f.strip() for f in row)
            records.append(CheckinRecord(user_id, poi_id, int(ts)))
        except (CheckinError, ValueError) as exc:
            if skip_bad_rows:
                skipped += 1
                continue
            raise CheckinError(f"line {lineno}: {exc}") from exc
    return records, skipped


def load_pois(rows: Iterable[str] | io.TextIOBase) -> dict[str, Poi]:
    """Parse CSV rows `poi_id,lat,lon,category` (category optional/empty)."""
    pois: dict[str, Poi] = {}
    reader = csv.reader(rows)
    for lineno, row in enumerate(reader, start=1):
        if not row:
            continue
        if lineno == 1 and row[0].strip() == "poi_id":
            continue
        try:
            if len(row) < 3:
                raise CheckinError(f"expected at least 3 fields, got {len(row)}")
            poi_id = row[0].strip()
            category = row[3].strip() if len(row) > 3 and row[3].strip() else None
            poi = Poi(poi_id, float(row[1]), float(row[2]), category)
        except (CheckinError, ValueError) as exc:
            raise CheckinError(f"line {lineno}: {exc}") from exc
        if poi_id in pois:
            raise CheckinError(f"line {lineno}: duplicate poi_id {poi_id}")
        pois[poi_id] = poi
    return pois


def aggregate_visits(records: Sequence[CheckinRecord]) -> dict[str, list[PoiVisit]]:
    """Merge each user's maximal runs of consecutive same-POI check-ins into visits."""
    by_user: dict[str, list[CheckinRecord]] = {}
    for rec in records:
        by_user.setdefault(rec.user_id, []).append(rec)
    out: dict[str, list[PoiVisit]] = {}
    for user_id, recs in by_user.items():
        recs = sorted(recs, key=lambda r: r.timestamp)
        visits: list[PoiVisit] = []
        run_poi, run_start, run_end = None, 0, 0
        for rec in recs:
            if rec.poi_id == run_poi:
                run_end = rec.timestamp
            else:
                if run_poi is not None:
                    visits.append(PoiVisit(user_id, run_poi, run_start, run_end))
                run_poi, run_start, run_end = rec.poi_id, rec.timestamp, rec.timestamp
        if run_poi is not None:
            visits.append(PoiVisit(user_id, run_poi, run_start, run_end))
        out[user_id] = visits
    return out


def extract_trips(visits_by_user: dict[str, list[PoiVisit]],
                  window: int = DEFAULT_TRIP_WINDOW,
                  *, gap_mode: bool = False) -> list[Trip]:
    """Greedily group each user's visits into trips.

    Default: a visit joins the current trip iff its t_a is within `window`
    of the trip's first visit's t_a (boundary inclusive). With gap_mode,
    the window instead bounds the gap between consecutive visits.
    """
    trips: list[Trip] = []
    for user_id in visits_by_user:
        current: list[PoiVisit] = []
        for v in visits_by_user[user_id]:
            if not current:
                current = [v]
                continue
            anchor = current[-1].t_a if gap_mode else current[0].t_a
            if v.t_a - anchor <= window:
                current.append(v)
            else:
                trips.append(Trip(user_id, tuple(current)))
                current = [v]
        if current:
            trips.append(Trip(user_id, tuple(current)))
    return trips


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km (Earth radius 6371 km)."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dphi = p2 - p1
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlmb / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


@dataclass
class TimeCostModel:
    """Per-POI visit times plus a walking-time transit model."""

    visit_times: dict[str, float]
    pois: dict[str, Poi] = field(default_factory=dict)
    walking_speed: float = DEFAULT_WALKING_SPEED
    distance_matrix: dict[tuple[str, str], float] | None = None

    def __post_init__(self):
        if not 0 < self.walking_speed < math.inf:
            raise ValueError(f"walking speed must be positive and finite, "
                             f"not {self.walking_speed}")
        for poi_id, t in self.visit_times.items():
            if t < 0:
                raise ValueError(f"negative visit time for {poi_id}")

    def visit_time(self, poi_id: str) -> float:
        try:
            return self.visit_times[poi_id]
        except KeyError:
            raise UnknownPoiError(f"no visit-time data for POI: {poi_id}") from None

    def distance_km(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        if self.distance_matrix is not None:
            try:
                return self.distance_matrix[(a, b)]
            except KeyError:
                raise UnknownPoiError(f"POI pair ({a}, {b}) missing from distance matrix") from None
        try:
            pa, pb = self.pois[a], self.pois[b]
        except KeyError as exc:
            raise UnknownPoiError(f"unknown POI: {exc.args[0]}") from None
        return haversine_km(pa.lat, pa.lon, pb.lat, pb.lon)

    def transit_time(self, a: str, b: str) -> float:
        return self.distance_km(a, b) / self.walking_speed * 3600.0

    def leg(self, a: str, b: str) -> float:
        """The one leg-cost rule: going on from a to b costs b's visit time
        plus the transit."""
        return self.visit_time(b) + self.transit_time(a, b)

    def trip_cost(self, poi_ids: Sequence[str]) -> float:
        """The first stop's visit time plus each leg, summed in trip order, as
        `PoiGraph.trip_cost` sums."""
        if not poi_ids:
            raise ValueError("trip must contain at least one POI")
        cost = self.visit_time(poi_ids[0])
        for a, b in zip(poi_ids, poi_ids[1:]):
            cost += self.leg(a, b)
        return cost


def compute_visit_times(trips: Sequence[Trip]) -> dict[str, float]:
    """Mean visit duration per POI over all visits in the corpus."""
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for trip in trips:
        for v in trip.visits:
            total[v.poi_id] = total.get(v.poi_id, 0.0) + v.duration
            count[v.poi_id] = count.get(v.poi_id, 0) + 1
    return {p: total[p] / count[p] for p in total}


def load_distance_matrix(rows: Iterable[str] | io.TextIOBase) -> dict[tuple[str, str], float]:
    """Parse a CSV distance matrix (header row/column of poi_ids, one row per
    header POI, finite km >= 0); diagonal and asymmetry may be off zero by at most 1e-6 km."""
    reader = csv.reader(rows)
    table = [row for row in reader if row]
    if len(table) < 2:
        raise CheckinError("distance matrix needs a header row and at least one POI row")
    ids = [c.strip() for c in table[0][1:]]
    matrix: dict[tuple[str, str], float] = {}
    header, seen = set(ids), set()
    if len(header) != len(ids):
        raise CheckinError(f"distance header repeats {next(a for a in ids if ids.count(a) > 1)}")
    for row in table[1:]:
        rid = row[0].strip()
        if rid in seen:
            raise CheckinError(f"distance row {rid} appears twice")
        if rid not in header:
            raise CheckinError(f"distance row {rid} is not in the header")
        seen.add(rid)
        if len(row) - 1 != len(ids):
            raise CheckinError(f"distance row {rid} has {len(row) - 1} entries, expected {len(ids)}")
        for cid, cell in zip(ids, row[1:]):
            km = matrix[(rid, cid)] = float(cell)
            if not 0.0 <= km < math.inf:
                raise CheckinError(f"distance ({rid}, {cid}) must be finite and >= 0 km, not {km}")
    missing = [a for a in ids if a not in seen]
    if missing:
        raise CheckinError(f"distance matrix has no row for {missing[0]}")
    for a in ids:
        if abs(matrix[(a, a)]) > 1e-6:
            raise CheckinError(f"distance matrix diagonal not zero at {a}")
        for b in ids:
            if abs(matrix[(a, b)] - matrix[(b, a)]) > 1e-6:
                raise CheckinError(f"distance matrix not symmetric at ({a}, {b})")
    return matrix


def corpus_pois(trips: Sequence[Trip]) -> list[str]:
    """Sorted distinct POI ids appearing in the trips."""
    return sorted({p for trip in trips for p in trip.poi_ids})


def cooccurrence_counts(poi_id: str, poi_sets: Sequence[frozenset[str]],
                        poi_index: dict[str, int]) -> np.ndarray:
    """How many of the trips (given by their POI sets) hold poi_id together
    with each other POI."""
    counts = np.zeros(len(poi_index), dtype=np.int64)
    for pois in poi_sets:
        if poi_id in pois:
            for other in pois:
                if other != poi_id:
                    counts[poi_index[other]] += 1
    return counts


def two_sample_chi_square(counts_a: np.ndarray, counts_b: np.ndarray) -> tuple[float, int]:
    """Two-sample chi-square statistic over bins where either count is nonzero.

    Returns (statistic, degrees of freedom = retained bins - 1).
    """
    keep = (counts_a > 0) | (counts_b > 0)
    a = counts_a[keep].astype(float)
    b = counts_b[keep].astype(float)
    na, nb = a.sum(), b.sum()
    if na == 0 or nb == 0:
        return 0.0, 0
    k1 = math.sqrt(nb / na)
    k2 = math.sqrt(na / nb)
    stat = float(np.sum((k1 * a - k2 * b) ** 2 / (a + b)))
    return stat, int(keep.sum()) - 1


def independent_pair_ratio(trips: Sequence[Trip], sample_fraction: float, runs: int,
                           significance: float, rng_seed: int) -> float:
    """Mean fraction of POI pairs whose co-occurrence distributions differ.

    Per run: sample trips without replacement, build per-POI co-occurrence
    count vectors, apply a two-sample chi-square test to every pair, and
    count pairs where the same-distribution null is rejected.
    """
    # the only scipy use in tripkit; importing scipy.stats costs about 65 MB
    from scipy.stats import chi2
    all_pois = corpus_pois(trips)
    if len(all_pois) < 2:
        raise ValueError("need at least 2 POIs")
    index = {p: i for i, p in enumerate(all_pois)}
    rng = np.random.default_rng(rng_seed)
    critical = {}  # dof -> the chi-square value rejected above
    ratios = []
    for _ in range(runs):
        n_sample = max(1, round(sample_fraction * len(trips)))
        chosen = rng.choice(len(trips), size=n_sample, replace=False)
        sample = [trips[i].poi_set() for i in chosen]
        counts = {p: cooccurrence_counts(p, sample, index) for p in all_pois}
        active = [p for p in all_pois if counts[p].sum() > 0]
        if len(active) < 2:
            raise ValueError("fewer than 2 POIs with nonzero co-occurrence counts")
        independent = 0
        total = 0
        for i, pa in enumerate(active):
            for pb in active[i + 1:]:
                # the pair's own bins are structurally zero on one side;
                # compare the distributions over the remaining POIs only
                mask = np.ones(len(all_pois), dtype=bool)
                mask[index[pa]] = mask[index[pb]] = False
                stat, dof = two_sample_chi_square(counts[pa][mask], counts[pb][mask])
                total += 1
                if dof < 1:
                    continue
                if dof not in critical:
                    critical[dof] = chi2.ppf(1.0 - significance, dof)
                if stat > critical[dof]:
                    independent += 1
        ratios.append(independent / total)
    return float(np.mean(ratios))


def impacted_user_ratio(trips: Sequence[Trip], runs: int, rng_seed: int) -> float:
    """Mean fraction of held-out users whose visits skew toward popular POIs.

    Per run: split users in half; rank POIs by visit count in the first half
    (rank 1 = most visited, ties by poi_id); a second-half user is impacted
    when the mean rank of her visits is strictly inside the popular half.
    """
    users = sorted({t.user_id for t in trips})
    if len(users) < 2:
        raise ValueError("need at least 2 users")
    all_pois = corpus_pois(trips)
    visits_by_user: dict[str, list[str]] = {u: [] for u in users}
    for t in trips:
        for v in t.visits:
            visits_by_user[t.user_id].append(v.poi_id)
    rng = np.random.default_rng(rng_seed)
    ratios = []
    half_mark = len(all_pois) / 2.0
    for _ in range(runs):
        perm = rng.permutation(len(users))
        cut = len(users) // 2
        hist_users = [users[i] for i in perm[:cut]]
        test_users = [users[i] for i in perm[cut:]]
        counts = {p: 0 for p in all_pois}
        for u in hist_users:
            for p in visits_by_user[u]:
                counts[p] += 1
        if sum(counts.values()) == 0 or not any(visits_by_user[u] for u in test_users):
            raise ValueError("a split half has zero visits")
        ranked = sorted(all_pois, key=lambda p: (-counts[p], p))
        rank = {p: i + 1 for i, p in enumerate(ranked)}
        impacted = 0
        active = 0
        for u in test_users:
            visited = visits_by_user[u]
            if not visited:
                continue
            active += 1
            mean_rank = sum(rank[p] for p in visited) / len(visited)
            if mean_rank < half_mark:
                impacted += 1
        ratios.append(impacted / active)
    return float(np.mean(ratios))


def corpus_stats(trips: Sequence[Trip]) -> dict[str, float]:
    """Headline corpus statistics: #users, #POI visits, #trips, POIs/trip."""
    n_visits = sum(len(t.visits) for t in trips)
    return {
        "users": len({t.user_id for t in trips}),
        "poi_visits": n_visits,
        "trips": len(trips),
        "pois_per_trip": n_visits / len(trips) if trips else 0.0,
    }
