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
        if self.budget <= 0:
            raise ValueError("budget must be positive")


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


def compute_zpair(model: EmbeddingModel) -> float:
    """Normalizer over all ordered distinct POI pairs: sum of exp(csim)."""
    ids = model.poi_ids
    if len(ids) < 2:
        raise ValueError("pair normalizer needs at least 2 POIs")
    mat = np.stack([model.poi_vec[p] for p in ids])
    sims = mat @ mat.T
    np.fill_diagonal(sims, -np.inf)
    return float(np.exp(sims).sum())


def check_zpair(model: EmbeddingModel, cached: float) -> float:
    """The freshly computed pair normalizer, once it agrees with `cached` to a
    relative 1e-9."""
    fresh = compute_zpair(model)
    if abs(fresh - cached) > 1e-9 * max(abs(fresh), abs(cached)):
        raise ValueError(f"cached pair normalizer {cached} disagrees with recomputed {fresh}")
    return fresh
