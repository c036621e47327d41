"""Answer checkers, written from the problem statement and not from `src/`.

- Trip cost: the corpus's mean visit durations plus haversine walking time at
  4 km/h between consecutive POIs.
- Trip score: query closeness of every interior POI plus normalised
  similarity of every unordered interior pair, both read from the model file
  with log-sum-exp normalisers over all POIs and over all ordered POI pairs.
- Exact optimum: a Held-Karp subset dynamic program gives the least path cost
  through each interior subset; the score depends only on the set visited, so
  the optimum is the best-scoring subset that fits the budget.
- Leave-one-out: F1 recomputed from recall and precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0
WALK_KMH = 4.0
# The program and the checker add the same costs in different orders; a trip
# within this relative margin of its budget is taken as fitting it.
COST_RTOL = 1e-9
SCORE_RTOL = 1e-9


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    a = (math.sin((p2 - p1) / 2) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2)
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def transit_s(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    return haversine_km(lat1, lon1, lat2, lon2) / WALK_KMH * 3600.0


@dataclass
class City:
    """What the checker knows of the places: mean visit time and coordinates."""
    visit: dict[str, float]
    lat: dict[str, float]
    lon: dict[str, float]

    def leg(self, a: str, b: str) -> float:
        """Time to walk from a to b and then visit b."""
        return self.visit[b] + transit_s(self.lat[a], self.lon[a], self.lat[b], self.lon[b])

    def trip_cost(self, trip: list[str]) -> float:
        return self.visit[trip[0]] + sum(self.leg(a, b) for a, b in zip(trip, trip[1:]))


def fits(cost: float, budget: float) -> bool:
    return cost <= budget * (1.0 + COST_RTOL)


def close(a: float, b: float, rtol: float = SCORE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + math.log(float(np.sum(np.exp(x - m))))


class Model:
    """POI and user vectors parsed from a `tripkit train` model file."""

    def __init__(self, path):
        pois, vecs, users = [], [], {}
        with open(path) as fh:
            header = fh.readline().split()
            if header[:2] != ["CAPE", "v1"]:
                raise ValueError(f"{path}: not a model file")
            for line in fh:
                parts = line.split()
                if parts and parts[0] == "P":
                    pois.append(parts[1])
                    vecs.append([float(c) for c in parts[3:]])
                elif parts and parts[0] == "U":
                    users[parts[1]] = np.array([float(c) for c in parts[2:]])
        self.pois = pois
        self.index = {p: i for i, p in enumerate(pois)}
        self.vec = np.array(vecs)
        self.users = users
        self.pair_lse = self._pair_lse()

    def _pair_lse(self, block: int = 256) -> float:
        """log of the sum of exp(v_a . v_b) over ordered pairs a != b, in row
        blocks so that memory stays O(block x P)."""
        parts = []
        n = len(self.pois)
        for lo in range(0, n, block):
            sims = self.vec[lo:lo + block] @ self.vec.T
            rows = np.arange(sims.shape[0])
            sims[rows, lo + rows] = -np.inf
            parts.append(logsumexp(sims))
        return logsumexp(np.array(parts))


class Scorer:
    """Trip score of one query under a model."""

    def __init__(self, model: Model, user: str, start: str, end: str):
        self.model = model
        q = model.users[user] + model.vec[model.index[start]] + model.vec[model.index[end]]
        s = model.vec @ q
        self.log_close = s - logsumexp(s)

    def closeness(self, p: str) -> float:
        return math.exp(float(self.log_close[self.model.index[p]]))

    def pair(self, a: str, b: str) -> float:
        m = self.model
        return math.exp(float(m.vec[m.index[a]] @ m.vec[m.index[b]]) - m.pair_lse)

    def score(self, interior) -> float:
        interior = list(interior)
        total = sum(self.closeness(p) for p in interior)
        for i, a in enumerate(interior):
            for b in interior[i + 1:]:
                total += self.pair(a, b)
        return total


def subset_path_costs(start: str, end: str, interior: list[str], leg) -> list[float]:
    """Held-Karp: for every subset mask of `interior`, the least cost of a path
    start -> (each member once, any order) -> end, not counting the start's
    own visit. `leg(a, b)` is the cost of stepping from a to b."""
    m = len(interior)
    size = 1 << m
    first = [leg(start, v) for v in interior]
    step = [[leg(u, v) if u != v else math.inf for v in interior] for u in interior]
    last = [leg(v, end) for v in interior]
    inf = math.inf
    # dp[mask][j]: cheapest path from start through mask, ending at member j
    dp = [[inf] * m for _ in range(size)]
    for j in range(m):
        dp[1 << j][j] = first[j]
    for mask in range(1, size):
        row = dp[mask]
        for j in range(m):
            cj = row[j]
            if cj == inf:
                continue
            sj = step[j]
            for k in range(m):
                bit = 1 << k
                if mask & bit:
                    continue
                c = cj + sj[k]
                nxt = dp[mask | bit]
                if c < nxt[k]:
                    nxt[k] = c
    out = [leg(start, end)] + [inf] * (size - 1)
    for mask in range(1, size):
        out[mask] = min(dp[mask][j] + last[j] for j in range(m) if mask >> j & 1)
    return out


def best_subset(start: str, end: str, interior: list[str], leg, start_visit: float,
                budget: float, scorer: Scorer) -> tuple[float, list[str]]:
    """Best score over interior subsets whose cheapest path fits the budget.
    A subset's score is built from the subset without its lowest member."""
    costs = subset_path_costs(start, end, interior, leg)
    m = len(interior)
    close = [scorer.closeness(v) for v in interior]
    pair = [[scorer.pair(a, b) if a != b else 0.0 for b in interior] for a in interior]
    score = [0.0] * (1 << m)
    best, best_mask = 0.0, 0
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        score[mask] = score[rest] + close[low] + sum(
            pair[low][j] for j in range(low + 1, m) if rest >> j & 1)
        if score[mask] > best and fits(start_visit + costs[mask], budget):
            best, best_mask = score[mask], mask
    return best, [interior[j] for j in range(m) if best_mask >> j & 1]


def f1(recall: float, precision: float) -> float:
    return 0.0 if recall + precision == 0 else 2 * recall * precision / (recall + precision)
