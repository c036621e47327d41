"""Trip quality scoring: query closeness and pairwise co-occurrence similarity,
with their normalizers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingModel


@dataclass(frozen=True)
class Query:
    user_id: str
    start: str
    end: str
    budget: float  # seconds

    def __post_init__(self):
        if not 0 < self.budget < math.inf:
            raise ValueError(f"budget must be positive and finite, not {self.budget}")


def query_vector(model: EmbeddingModel, query: Query) -> np.ndarray:
    """Sum of the user, start, and end vectors (start and end both counted,
    even when they name the same POI)."""
    return model.user(query.user_id) + model.vec(query.start) + model.vec(query.end)


class ScoreContext:
    """Caches the two softmax normalizers: one per query, and one per model,
    which lives on the model: `compute_zpair` runs only while `model.zpair` is
    None, and its result is stored there. Building a context is also where a
    query's user and end points are looked up (`UnknownPoiError` if unseen)."""

    def __init__(self, model: EmbeddingModel, query: Query):
        self.model = model
        self.query = query
        self.qvec = query_vector(model, query)
        self.z_query = 0.0
        for p in model.poi_vec:
            self.z_query += math.exp(float(model.poi_vec[p] @ self.qvec))
        self.z_pair = model.zpair if model.zpair is not None else compute_zpair(model)
        if not (self.z_query > 0 and math.isfinite(self.z_query)):
            raise FloatingPointError("query normalizer must be positive and finite")
        if not (self.z_pair > 0 and math.isfinite(self.z_pair)):
            raise FloatingPointError("pair normalizer must be positive and finite")
        model.zpair = self.z_pair

    def closeness(self, poi_id: str) -> float:
        return math.exp(float(self.model.vec(poi_id) @ self.qvec)) / self.z_query

    def ncsim(self, a: str, b: str) -> float:
        if a == b:
            raise ValueError("ncsim is defined for distinct POIs only")
        return math.exp(self.model.csim(a, b)) / self.z_pair


# pair similarities held at once by `compute_zpair`: 2^19 floats, 4 MB
ZPAIR_BLOCK = 1 << 19


def compute_zpair(model: EmbeddingModel) -> float:
    """Normalizer over all ordered distinct POI pairs: sum of exp(csim).

    csim is symmetric, so this is twice the sum over pairs i < j. It is
    summed in blocks of rows of the upper triangle, so no P x P matrix is
    held. The sum is not shifted: an overflow gives inf, which `ScoreContext`
    rejects."""
    ids = model.poi_ids
    n = len(ids)
    if n < 2:
        raise ValueError("pair normalizer needs at least 2 POIs")
    mat = np.stack([model.poi_vec[p] for p in ids])
    rows = max(1, ZPAIR_BLOCK // n)
    total = 0.0
    for lo in range(0, n - 1, rows):
        hi = min(lo + rows, n - 1)
        # row i against columns j = lo+1 .. n-1; only j > i counts
        sims = mat[lo:hi] @ mat[lo + 1:].T
        sims[:, :hi - lo][np.tri(hi - lo, k=-1, dtype=bool)] = -np.inf
        total += float(np.exp(sims, out=sims).sum())
    return 2.0 * total


def check_zpair(model: EmbeddingModel, cached: float) -> float:
    """The freshly computed pair normalizer, once it agrees with `cached` to a
    relative 1e-9."""
    fresh = compute_zpair(model)
    if abs(fresh - cached) > 1e-9 * max(abs(fresh), abs(cached)):
        raise ValueError(f"cached pair normalizer {cached} disagrees with recomputed {fresh}")
    return fresh
