"""Context-aware POI embedding: joint co-occurrence / preference / popularity model
trained with Bayesian pairwise ranking and negative sampling."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checkins import Trip, UnknownPoiError

MODEL_MAGIC = "CAPE"
MODEL_VERSION = "v1"
# the joint model, then the ablations: without the context, then without any vector
MODES = ("full", "pop+pref", "pop-only")


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
    mode: str = "full"  # one of MODES

    def __post_init__(self):
        if self.dim < 1 or self.negatives < 1 or self.max_iterations < 0:
            raise ValueError("dim/negatives must be >= 1, max_iterations >= 0")
        if self.learning_rate <= 0 or self.regularization < 0:
            raise ValueError("learning_rate must be > 0 and regularization >= 0")
        if self.mode not in MODES:
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
        bad_pop = next((p for p, b in poi_pop.items() if not math.isfinite(b)), None)
        if bad_pop is not None:
            raise ValueError(f"non-finite popularity bias for {bad_pop}")
        # the first bad vector in POI-then-user order is named, whether its
        # shape or its values are bad
        named = list(poi_vec.items()) + list(user_vec.items())
        shaped = next((i for i, (_, vec) in enumerate(named) if vec.shape != (dim,)), len(named))
        if shaped:
            finite = np.isfinite(np.stack([vec for _, vec in named[:shaped]])).all(axis=1)
            if not finite.all():
                raise ValueError(f"non-finite vector for {named[int(finite.argmin())][0]}")
        if shaped < len(named):
            name, vec = named[shaped]
            raise ValueError(f"vector for {name} has shape {vec.shape}, expected ({dim},)")

    @property
    def poi_ids(self) -> list[str]:
        return sorted(self.poi_vec)

    def vec(self, poi_id: str) -> np.ndarray:
        try:
            return self.poi_vec[poi_id]
        except KeyError:
            raise UnknownPoiError(f"unknown POI: {poi_id}") from None

    def user(self, user_id: str) -> np.ndarray:
        try:
            return self.user_vec[user_id]
        except KeyError:
            raise UnknownPoiError(f"unknown user: {user_id}") from None

    # --- inference -----------------------------------------------------

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
            if parts[0] == "ZPAIR":
                zpair = float(parts[1])
                continue
            if parts[1] in (poi_vec if parts[0] == "P" else user_vec):
                raise ValueError(f"repeated id in model file: {parts[1]}")
            if parts[0] == "P":
                poi_pop[parts[1]] = float(parts[2])
                poi_vec[parts[1]] = np.array([float(c) for c in parts[3:]])
            else:
                user_vec[parts[1]] = np.array([float(c) for c in parts[2:]])
        if len(poi_vec) != n_pois or len(user_vec) != n_users:
            raise ValueError("model file entry counts disagree with header")
        return cls(dim, poi_vec, poi_pop, user_vec, zpair=zpair)


def compile_observations(trips: Sequence[Trip], pois: Sequence[str], users: Sequence[str],
                         full: bool) -> list[tuple[list[int], np.ndarray]]:
    """Every (trip, target POI) training example as (inside, rows): the trip's
    POI rows ascending, and the `intp` rows [user, target, negative slot,
    context…] of the parameter matrix (POI rows, then user rows) that
    `sgd_step` reads. The slot holds 0 until each step fills it. The context,
    the trip's other POI rows ascending, is there in full mode only; sorted
    ids give ascending rows, so it keeps the order of the sorted context ids."""
    n = len(pois)
    poi_row = {p: i for i, p in enumerate(pois)}
    user_row = {u: n + j for j, u in enumerate(users)}
    observations = []
    for trip in trips:
        user = user_row[trip.user_id]
        inside = sorted(poi_row[p] for p in trip.poi_set())
        for visit in trip.visits:
            target = poi_row[visit.poi_id]
            context = [r for r in inside if r != target] if full else []
            observations.append((inside, np.array([user, target, 0, *context], dtype=np.intp)))
    return observations


Factors = tuple[np.ndarray, np.ndarray, np.ndarray, float, float]


def step_factors(m: int, config: TrainConfig) -> Factors:
    """The constants of a step on m rows [user, target, negative, context…]:
    which rows follow the user-plus-context vector (the target and the
    negative), each row's learning-rate and shrinkage factors, and the target's
    and the negative's bias shrinkage. The negative moves against its gradient,
    so its rate is −η; under `corrected_reg` its shrinkage is −2λ, so that its
    vector and its bias shrink too."""
    lam2 = 2 * config.regularization
    toward_context = np.zeros((m, 1), dtype=bool)
    toward_context[1:3] = True
    scale = np.full((m, config.dim), config.learning_rate)
    scale[2] = -config.learning_rate
    shrink = np.full((m, config.dim), lam2)
    negative_shrink = -lam2 if config.corrected_reg else lam2
    shrink[2] = negative_shrink
    return toward_context, scale, shrink, lam2, negative_shrink


def sgd_step(W: np.ndarray, pop: list[float], rows: np.ndarray, factors: Factors,
             config: TrainConfig):
    """One BPR gradient-ascent step on the rows `rows` = [user, target,
    negative, context…] of the parameter matrix `W` (POI rows, then user rows)
    and on the popularity biases `pop`, with `factors` =
    `step_factors(len(rows), config)`. All rows must be distinct. An ablation
    is this step without a factor: `pop+pref` passes no context rows, and
    `pop-only` steps zero vectors, whose update is exactly 0. The rows are
    gathered once and scattered once, so every update reads pre-step values.
    Negating η and 2λ is exact in IEEE arithmetic, so the negative's row and
    bias get the same bits as lₙ − η(δ(u + c) ∓ 2λlₙ) and pₙ − η(δ ∓ 2λpₙ)."""
    eta = config.learning_rate
    toward_context, scale, shrink, target_shrink, negative_shrink = factors
    target, negative = int(rows[1]), int(rows[2])
    R = W.take(rows, axis=0)
    u0, lt0, ln0 = R[0], R[1], R[2]
    # summed row after row, as the context vector always was: `sum` pairs
    # rows up when d = 1, which moves the last bit
    c = np.add.accumulate(R[3:])[-1] if len(R) > 3 else np.zeros(len(u0))
    z = (lt0.dot(c) + lt0.dot(u0) + pop[target]
         - ln0.dot(c) - ln0.dot(u0) - pop[negative])
    delta = 1.0 - sigmoid(z)
    G = np.where(toward_context, delta * (u0 + c), delta * (lt0 - ln0))
    W[rows] = R + scale * (G - shrink * R)
    pop[target] += eta * (delta - target_shrink * pop[target])
    pop[negative] -= eta * (delta - negative_shrink * pop[negative])


def sample_negatives(inside: Sequence[int], n: int, k: int,
                     rng: np.random.Generator) -> list[int]:
    """Draw k of the n rows uniformly with replacement from those outside the
    trip's rows `inside` (ascending). Draw j is the j-th row outside, so these
    are the rows, and the generator calls, of `rng.choice(eligible, size=k)`."""
    if len(inside) >= n:
        raise ValueError("trip covers every POI; no negatives available")
    rows = []
    for row in rng.integers(0, n - len(inside), size=k).tolist():
        for r in inside:
            if r > row:
                break
            row += 1
        rows.append(row)
    return rows


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
    init = init_model(trips, config, rng)
    pois, users = init.poi_ids, sorted(init.user_vec)
    n = len(pois)
    W = np.stack([init.poi_vec[p] for p in pois] + [init.user_vec[u] for u in users])
    pop = [init.poi_pop[p] for p in pois]
    observations = compile_observations(trips, pois, users, config.mode == "full")
    factors = {m: step_factors(m, config) for m in {len(rows) for _, rows in observations}}
    order = range(len(observations))
    for _ in range(config.max_iterations):
        if config.shuffle:
            order = rng.permutation(len(observations))
        for i in order:
            inside, rows = observations[i]
            step = factors[len(rows)]
            for negative in sample_negatives(inside, n, config.negatives, rng):
                rows[2] = negative
                sgd_step(W, pop, rows, step, config)
        if not np.isfinite(W[:n]).all():
            raise FloatingPointError("non-finite POI vector")
        if not np.isfinite(W[n:]).all():
            raise FloatingPointError("non-finite user vector")
        if not all(math.isfinite(p) for p in pop):
            raise FloatingPointError("non-finite popularity bias")
    return EmbeddingModel(config.dim, dict(zip(pois, W[:n])), dict(zip(pois, pop)),
                          dict(zip(users, W[n:])))
