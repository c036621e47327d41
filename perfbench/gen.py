"""Seeded input generators: raw check-in CSVs, POI CSVs and trip queries.

Everything here is independent of `src/`: the program only ever sees the CSV
files written by `write_inputs`, exactly as a user would hand them over.

A corpus has planted structure, like the acceptance suite's structured
corpus: POIs sit in spatial clusters, each cluster splits into two
co-occurrence themes, popularity inside a cluster is Zipf-skewed, and every
user mostly keeps to one theme of a home cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from check import transit_s

DAY_S = 86400
TRIP_START_S = 9 * 3600


@dataclass
class Corpus:
    lat: dict[str, float]
    lon: dict[str, float]
    # one entry per trip: (user_id, [(poi_id, t_arrive, t_depart), ...])
    trips: list[tuple[str, list[tuple[str, int, int]]]] = field(default_factory=list)

    def visit_means(self) -> dict[str, float]:
        """Mean visit duration per POI, as any reader of the check-ins gets it."""
        total: dict[str, int] = {}
        count: dict[str, int] = {}
        for _, visits in self.trips:
            for poi, t_a, t_d in visits:
                total[poi] = total.get(poi, 0) + (t_d - t_a)
                count[poi] = count.get(poi, 0) + 1
        return {p: total[p] / count[p] for p in total}

    def users(self) -> list[str]:
        return sorted({u for u, _ in self.trips})


def structured_corpus(layout: np.random.Generator, rng: np.random.Generator, *,
                      sizes: list[int], spacing_km: float,
                      cluster_km: float, users_per_cluster: int, trips_per_user: int,
                      trip_len: int, anchors: int, visit_s: tuple[int, int]) -> Corpus:
    """Clustered, popularity-skewed corpus with planted user preferences.

    `layout` draws the places: cluster c holds sizes[c] POIs inside a
    `cluster_km` square, cluster corners sit on a jittered grid `spacing_km`
    apart, and each POI has a typical visit length. `rng` draws the history:
    who visited what, in which order, for how long. Each cluster splits
    into two themes, and each of its users takes three quarters of their
    trips in a preferred theme. A trip takes `anchors` POIs in turn from a
    shuffled list of its theme, so every POI is visited, and fills up to
    `trip_len` POIs by Zipf popularity. Visit order inside a trip is random.
    """
    km_lat = 1.0 / 111.2
    km_lon = km_lat / math.cos(math.radians(40.0))
    side = math.ceil(math.sqrt(len(sizes)))
    lat: dict[str, float] = {}
    lon: dict[str, float] = {}
    weight: dict[str, float] = {}
    base_s: dict[str, int] = {}
    themes: list[list[list[str]]] = []
    for c, size in enumerate(sizes):
        row, col = divmod(c, side)
        c_lat = 40.0 + (row + layout.uniform(-0.2, 0.2)) * spacing_km * km_lat
        c_lon = -74.0 + (col + layout.uniform(-0.2, 0.2)) * spacing_km * km_lon
        members = [f"p{c}_{i}" for i in range(size)]
        for r, p in enumerate(members):
            lat[p] = round(c_lat + layout.uniform(0.0, cluster_km) * km_lat, 6)
            lon[p] = round(c_lon + layout.uniform(0.0, cluster_km) * km_lon, 6)
            weight[p] = 1.0 / (r + 1)
            base_s[p] = int(layout.integers(visit_s[0], visit_s[1] + 1))
        half = size // 2
        themes.append([members[:half], members[half:]])
    anchor_queue = {(c, t): [] for c in range(len(sizes)) for t in range(2)}
    n_pref = round(0.75 * trips_per_user)
    corpus = Corpus(lat, lon)
    day = 0
    for c in range(len(sizes)):
        for k in range(users_per_cluster):
            user, pref = f"u{c}_{k}", k % 2
            plan = [pref] * n_pref + [1 - pref] * (trips_per_user - n_pref)
            last = None
            for i in rng.permutation(len(plan)):
                theme = plan[i]
                members = themes[c][theme]
                queue = anchor_queue[(c, theme)]
                chosen: list[str] = []
                while len(chosen) < anchors:
                    if not queue:
                        queue.extend(members[j] for j in rng.permutation(len(members)))
                    p = queue.pop()
                    if p not in chosen:
                        chosen.append(p)
                rest = [p for p in members if p not in chosen]
                w = np.array([weight[p] for p in rest])
                picks = rng.choice(len(rest), size=trip_len - len(chosen), replace=False,
                                   p=w / w.sum())
                chosen += [rest[j] for j in picks]
                order = list(rng.permutation(len(chosen)))
                if chosen[order[0]] == last:
                    # check-ins at one POI across two trips would merge into one visit
                    order = order[1:] + order[:1]
                last = chosen[order[-1]]
                t = day * DAY_S + TRIP_START_S
                visits = []
                prev = None
                for j in order:
                    p = chosen[j]
                    if prev is not None:
                        t += int(transit_s(lat[prev], lon[prev], lat[p], lon[p]))
                    stay = base_s[p] + int(rng.integers(-120, 121))
                    visits.append((p, t, t + stay))
                    t += stay
                    prev = p
                corpus.trips.append((user, visits))
                day += 1
    if len(corpus.visit_means()) != len(lat):
        raise ValueError("corpus leaves some POIs unvisited; raise anchors or trips")
    return corpus


def write_inputs(corpus: Corpus, checkins_path, pois_path):
    """The two files a user gives `tripkit ingest`: raw check-ins (an arrival
    and a departure check-in per visit) and POI coordinates."""
    with open(checkins_path, "w") as fh:
        fh.write("user_id,poi_id,timestamp\n")
        for user, visits in corpus.trips:
            for poi, t_a, t_d in visits:
                fh.write(f"{user},{poi},{t_a}\n{user},{poi},{t_d}\n")
    with open(pois_path, "w") as fh:
        fh.write("poi_id,lat,lon,category\n")
        for p in sorted(corpus.lat):
            fh.write(f"{p},{corpus.lat[p]!r},{corpus.lon[p]!r},\n")


@dataclass(frozen=True)
class Query:
    user: str
    start: str
    end: str
    budget: float


def detours(corpus: Corpus, means: dict[str, float], start: str, end: str) -> list[float]:
    """Sorted cost of the trip start -> p -> end for every other visited POI."""
    lat, lon = corpus.lat, corpus.lon
    base = means[start] + means[end]
    out = []
    for p in means:
        if p in (start, end):
            continue
        out.append(base + transit_s(lat[start], lon[start], lat[p], lon[p]) + means[p]
                   + transit_s(lat[p], lon[p], lat[end], lon[end]))
    out.sort()
    return out


def budget_for(corpus: Corpus, means: dict[str, float], start: str, end: str, k: int) -> float:
    """Whole-second budget halfway between the k-th and (k+1)-th cheapest
    detour, so that the round-trip pruning keeps k interior POIs."""
    d = detours(corpus, means, start, end)
    return float(math.floor((d[k - 1] + d[k]) / 2))


def ladder_queries(layout: np.random.Generator, corpus: Corpus, interior: list[int],
                   near: int) -> list[Query]:
    """One query per entry of `interior`: a user and a start POI drawn by
    `layout`, an end POI among the `near` POIs closest to the start, and a
    budget that keeps that many interior POIs."""
    means = corpus.visit_means()
    pois = sorted(means)
    users = corpus.users()
    lat, lon = corpus.lat, corpus.lon
    queries = []
    for k in interior:
        start = pois[int(layout.integers(len(pois)))]
        others = sorted((transit_s(lat[start], lon[start], lat[p], lon[p]), p)
                        for p in pois if p != start)
        end = others[int(layout.integers(near))][1]
        queries.append(Query(users[int(layout.integers(len(users)))], start, end,
                             budget_for(corpus, means, start, end, k)))
    return queries


def cluster_queries(layout: np.random.Generator, corpus: Corpus, sizes: list[int],
                    count: int) -> list[Query]:
    """Queries for a user and a cluster drawn by `layout`, starting and ending
    in that cluster, with a budget that keeps exactly the cluster's other POIs
    (the cheapest detour out of the cluster is far dearer than any inside)."""
    means = corpus.visit_means()
    users = corpus.users()
    queries = []
    for _ in range(count):
        c = int(layout.integers(len(sizes)))
        a, b = layout.choice(sizes[c], size=2, replace=False)
        start, end = f"p{c}_{a}", f"p{c}_{b}"
        queries.append(Query(users[int(layout.integers(len(users)))], start, end,
                             budget_for(corpus, means, start, end, sizes[c] - 2)))
    return queries


def acceptance_corpus(seed: int, users: int = 16, trips_per_user: int = 6) -> Corpus:
    """The acceptance suite's structured corpus, rebuilt draw for draw: two
    POI cliques 3 km apart, each split into two five-POI themes with Zipf
    popularity; each user keeps to one theme three trips in four. Visits last
    600 s and start 900 s apart. A trip that would begin where its user's last
    trip ended is rotated by one visit (no draws change)."""
    rng = np.random.default_rng(seed)
    lat: dict[str, float] = {}
    lon: dict[str, float] = {}
    weight: dict[str, float] = {}
    themes = {}
    for c in range(2):
        clique = [f"c{c}p{i}" for i in range(10)]
        for r, p in enumerate(clique):
            weight[p] = 1.0 / (r + 1)
            lat[p] = 40.0 + 0.03 * c + float(rng.uniform(0, 0.008))
            lon[p] = -74.0 + float(rng.uniform(0, 0.008))
        themes[(c, 0)] = clique[:5]
        themes[(c, 1)] = clique[5:]
    corpus = Corpus(lat, lon)
    t0 = 0
    for u in range(users):
        home, pref = u % 2, (u // 2) % 2
        for _ in range(trips_per_user):
            theme = pref if rng.random() < 0.75 else 1 - pref
            members = themes[(home, theme)]
            w = np.array([weight[p] for p in members])
            chosen = [members[i] for i in rng.choice(5, size=4, replace=False, p=w / w.sum())]
            if corpus.trips and corpus.trips[-1][0] == f"u{u}" \
                    and corpus.trips[-1][1][-1][0] == chosen[0]:
                # check-ins at one POI across two trips would merge into one visit
                chosen = chosen[1:] + chosen[:1]
            corpus.trips.append((f"u{u}", [(p, t0 + 900 * k, t0 + 900 * k + 600)
                                           for k, p in enumerate(chosen)]))
            t0 += 100000
    return corpus
