"""tripkit: context-aware POI embeddings and time-budgeted trip recommendation."""

__version__ = "0.1.0"

from .checkins import (CheckinRecord, Poi, PoiVisit, TimeCostModel, Trip,
                       aggregate_visits, extract_trips, ingest_checkins)
from .embedding import EmbeddingModel, TrainConfig, train
from .scoring import Query, ScoreContext
from .graph import PoiGraph, build_graph, reachable_candidates
from .exact import build_ilp, solve_exact, write_lp
from .alns import AlnsConfig, run_alns
from .evaluation import evaluate, make_folds, metrics

__all__ = [
    "CheckinRecord", "Poi", "PoiVisit", "TimeCostModel", "Trip",
    "aggregate_visits", "extract_trips", "ingest_checkins",
    "EmbeddingModel", "TrainConfig", "train",
    "Query", "ScoreContext",
    "PoiGraph", "build_graph", "reachable_candidates",
    "build_ilp", "solve_exact", "write_lp",
    "AlnsConfig", "run_alns",
    "evaluate", "make_folds", "metrics",
]
