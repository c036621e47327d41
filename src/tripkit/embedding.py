"""Context-aware POI embedding: joint co-occurrence / preference / popularity model
trained with Bayesian pairwise ranking and negative sampling."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .checkins import Trip, UnknownPoiError

MODEL_MAGIC = "CAPE"
MODEL_VERSION = "v1"


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass
class TrainConfig:
    dim: int = 13
    learning_rate: float = 0.0005
    regularization: float = 0.02
    negatives: int = 5
    max_iterations: int = 50
    rng_seed: int = 42
    corrected_reg: bool = False  # apply shrinkage (not growth) to the negative POI
    shuffle: bool = False
    mode: str = "full"  # full | pop+pref | pop-only

    def __post_init__(self):
        if self.dim < 1 or self.negatives < 1 or self.max_iterations < 0:
            raise ValueError("dim/negatives must be >= 1, max_iterations >= 0")
        if self.learning_rate <= 0 or self.regularization < 0:
            raise ValueError("learning_rate must be > 0 and regularization >= 0")
        if self.mode not in ("full", "pop+pref", "pop-only"):
            raise ValueError(f"unknown training mode: {self.mode}")


class EmbeddingModel:
    """d-dim POI vectors with a scalar popularity bias, plus d-dim user vectors."""

    def __init__(self, dim: int, poi_vec: dict[str, np.ndarray],
                 poi_pop: dict[str, float], user_vec: dict[str, np.ndarray],
                 zpair: float | None = None):
        self.dim = dim
        self.poi_vec = poi_vec
        self.poi_pop = poi_pop
        self.user_vec = user_vec
        self.zpair = zpair
        if set(poi_vec) != set(poi_pop):
            raise ValueError("every POI needs both a vector and a popularity bias")
        for name, vec in list(poi_vec.items()) + list(user_vec.items()):
            if vec.shape != (dim,):
                raise ValueError(f"vector for {name} has shape {vec.shape}, expected ({dim},)")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"non-finite vector for {name}")

    @property
    def poi_ids(self) -> list[str]:
        return sorted(self.poi_vec)

    def vec(self, poi_id: str) -> np.ndarray:
        try:
            return self.poi_vec[poi_id]
        except KeyError:
            raise UnknownPoiError(f"unknown POI: {poi_id}") from None

    def pop(self, poi_id: str) -> float:
        try:
            return self.poi_pop[poi_id]
        except KeyError:
            raise UnknownPoiError(f"unknown POI: {poi_id}") from None

    def user(self, user_id: str) -> np.ndarray:
        try:
            return self.user_vec[user_id]
        except KeyError:
            raise UnknownPoiError(f"unknown user: {user_id}") from None

    def assert_finite(self):
        for vec in self.poi_vec.values():
            if not np.all(np.isfinite(vec)):
                raise FloatingPointError("non-finite POI vector")
        for vec in self.user_vec.values():
            if not np.all(np.isfinite(vec)):
                raise FloatingPointError("non-finite user vector")
        if not all(math.isfinite(p) for p in self.poi_pop.values()):
            raise FloatingPointError("non-finite popularity bias")

    # --- inference -----------------------------------------------------

    def context_vector(self, context: Iterable[str]) -> np.ndarray:
        out = np.zeros(self.dim)
        for poi_id in context:
            out += self.vec(poi_id)
        return out

    def csim(self, a: str, b: str) -> float:
        return float(self.vec(a) @ self.vec(b))

    # --- serialization -------------------------------------------------

    def save(self, sink: io.TextIOBase):
        n, m = len(self.poi_vec), len(self.user_vec)
        sink.write(f"{MODEL_MAGIC} {MODEL_VERSION} d={self.dim} pois={n} users={m}\n")
        fmt = lambda x: format(float(x), ".17g")
        for poi_id in sorted(self.poi_vec):
            comps = " ".join(fmt(c) for c in self.poi_vec[poi_id])
            sink.write(f"P {poi_id} {fmt(self.poi_pop[poi_id])} {comps}\n")
        for user_id in sorted(self.user_vec):
            comps = " ".join(fmt(c) for c in self.user_vec[user_id])
            sink.write(f"U {user_id} {comps}\n")
        if self.zpair is not None:
            sink.write(f"ZPAIR {fmt(self.zpair)}\n")

    @classmethod
    def load(cls, source: io.TextIOBase) -> "EmbeddingModel":
        header = source.readline().split()
        if len(header) != 5 or header[0] != MODEL_MAGIC or header[1] != MODEL_VERSION:
            raise ValueError("bad model file header")
        dim = int(header[2].removeprefix("d="))
        n_pois = int(header[3].removeprefix("pois="))
        n_users = int(header[4].removeprefix("users="))
        poi_vec, poi_pop, user_vec = {}, {}, {}
        zpair = None
        for line in source:
            parts = line.split()
            if not parts:
                continue
            if parts[0] not in ("P", "U", "ZPAIR") or len(parts) < (3 if parts[0] == "P" else 2):
                raise ValueError(f"bad model file line: {line!r}")
            if parts[0] == "P":
                poi_pop[parts[1]] = float(parts[2])
                poi_vec[parts[1]] = np.array([float(c) for c in parts[3:]])
            elif parts[0] == "U":
                user_vec[parts[1]] = np.array([float(c) for c in parts[2:]])
            else:
                zpair = float(parts[1])
        if len(poi_vec) != n_pois or len(user_vec) != n_users:
            raise ValueError("model file entry counts disagree with header")
        return cls(dim, poi_vec, poi_pop, user_vec, zpair=zpair)


@dataclass(frozen=True)
class Observation:
    """One (trip, target POI) training example; context is the rest of the trip."""
    user_id: str
    trip_pois: frozenset[str]
    target: str
    context: frozenset[str]


def observations_from_trip(trip: Trip) -> list[Observation]:
    pois = trip.poi_set()
    return [Observation(trip.user_id, pois, v.poi_id, pois - {v.poi_id})
            for v in trip.visits]


def sgd_step(model: EmbeddingModel, obs: Observation, negative: str,
             config: TrainConfig):
    """One BPR gradient-ascent step; all updates read pre-step parameter values."""
    eta, lam = config.learning_rate, config.regularization
    mode = config.mode
    u = model.user_vec[obs.user_id]
    lt = model.poi_vec[obs.target]
    ln = model.poi_vec[negative]
    context = sorted(obs.context)
    if mode == "full":
        c = model.context_vector(context)
    else:
        c = np.zeros(model.dim)

    if mode == "pop-only":
        z = model.poi_pop[obs.target] - model.poi_pop[negative]
    else:
        z = float(lt @ c + lt @ u + model.pop(obs.target)
                  - ln @ c - ln @ u - model.pop(negative))
    delta = 1.0 - sigmoid(z)

    u0, lt0, ln0 = u.copy(), lt.copy(), ln.copy()
    if mode != "pop-only":
        model.user_vec[obs.user_id] = u0 + eta * (delta * (lt0 - ln0) - 2 * lam * u0)
        model.poi_vec[obs.target] = lt0 + eta * (delta * (u0 + c) - 2 * lam * lt0)
        if config.corrected_reg:
            model.poi_vec[negative] = ln0 - eta * (delta * (u0 + c) + 2 * lam * ln0)
        else:
            model.poi_vec[negative] = ln0 - eta * (delta * (u0 + c) - 2 * lam * ln0)
    model.poi_pop[obs.target] += eta * (delta - 2 * lam * model.poi_pop[obs.target])
    if config.corrected_reg:
        model.poi_pop[negative] -= eta * (delta + 2 * lam * model.poi_pop[negative])
    else:
        model.poi_pop[negative] -= eta * (delta - 2 * lam * model.poi_pop[negative])
    if mode == "full":
        for poi_id in context:
            li0 = model.poi_vec[poi_id]
            model.poi_vec[poi_id] = li0 + eta * (delta * (lt0 - ln0) - 2 * lam * li0)


def sample_negatives(trip_pois: frozenset[str], all_pois: Sequence[str], k: int,
                     rng: np.random.Generator) -> list[str]:
    """Draw k POIs uniformly with replacement from those outside the trip."""
    eligible = [i for i, p in enumerate(all_pois) if p not in trip_pois]
    if not eligible:
        raise ValueError("trip covers every POI; no negatives available")
    idx = rng.choice(eligible, size=k, replace=True)
    return [all_pois[i] for i in idx]


def init_model(trips: Sequence[Trip], config: TrainConfig,
               rng: np.random.Generator) -> EmbeddingModel:
    """Uniform(0,1) initialization over sorted POI and user ids."""
    pois = sorted({p for t in trips for p in t.poi_ids})
    users = sorted({t.user_id for t in trips})
    zero_vecs = config.mode == "pop-only"
    poi_vec = {}
    poi_pop = {}
    for p in pois:
        v = rng.uniform(0.0, 1.0, config.dim)
        poi_vec[p] = np.zeros(config.dim) if zero_vecs else v
        poi_pop[p] = float(rng.uniform(0.0, 1.0))
    user_vec = {}
    for u in users:
        v = rng.uniform(0.0, 1.0, config.dim)
        user_vec[u] = np.zeros(config.dim) if zero_vecs else v
    return EmbeddingModel(config.dim, poi_vec, poi_pop, user_vec)


def train(trips: Sequence[Trip], config: TrainConfig | None = None) -> EmbeddingModel:
    """BPR training with negative sampling over all (trip, target) observations."""
    if not trips:
        raise ValueError("training corpus is empty")
    config = config or TrainConfig()
    rng = np.random.default_rng(config.rng_seed)
    model = init_model(trips, config, rng)
    all_pois = model.poi_ids
    observations = [obs for t in trips for obs in observations_from_trip(t)]
    order = np.arange(len(observations))
    for _ in range(config.max_iterations):
        if config.shuffle:
            order = rng.permutation(len(observations))
        for i in order:
            obs = observations[i]
            negatives = sample_negatives(obs.trip_pois, all_pois, config.negatives, rng)
            for neg in negatives:
                sgd_step(model, obs, neg, config)
        model.assert_finite()
    return model
