"""Command-line entry point: ingest, analyze, train, recommend, evaluate, export-lp."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .alns import AlnsConfig, run_alns, write_trace_csv
from .checkins import (DEFAULT_TRIP_WINDOW, DEFAULT_WALKING_SPEED, CheckinError,
                       Poi, PoiVisit, TimeCostModel, Trip, UnknownPoiError, aggregate_visits,
                       compute_visit_times, corpus_stats, extract_trips, impacted_user_ratio,
                       independent_pair_ratio, ingest_checkins, load_distance_matrix, load_pois)
from .embedding import MODES, EmbeddingModel, TrainConfig, train
from .evaluation import evaluate, query_graph
from .exact import StateCapError, build_ilp, solve_exact, write_lp
# perfbench/spans.py wraps these two here; recommend reaches them through query_graph
from .graph import build_graph, reachable_candidates  # noqa: F401
from .scoring import Query, check_zpair, compute_zpair

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4
EXIT_STATE_CAP = 5


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def read_config_file(path: str) -> dict[str, str]:
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def config_flags(path: str, args: argparse.Namespace) -> list[str]:
    """The config file's key=value lines as command-line flags: key `a_b` is
    `--a-b=value`, and a boolean option set to 1, true or yes is the bare flag."""
    flags = []
    for key, value in read_config_file(path).items():
        if key in ("command", "fn", "config") or not hasattr(args, key):
            raise CliError(f"{path}: unknown key: {key}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(args, key), bool):
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            flags.append(flag)
    return flags


def write_manifest(args: argparse.Namespace, **extra):
    """Every parsed argument and the computed extras; an absent flag is empty."""
    values = {k: v for k, v in {**vars(args), **extra}.items() if k not in ("command", "fn")}
    lines = [f"command={args.command}", f"artifact_version={__version__}"]
    lines += [f"{k}={'' if v is None else v}" for k, v in sorted(values.items())]
    Path(str(args.out) + ".manifest").write_text("\n".join(lines) + "\n")


def save_corpus(path: str, trips: list[Trip], pois: dict | None = None):
    payload = {
        "version": 1,
        "trips": [{"user_id": t.user_id,
                   "visits": [{"poi_id": v.poi_id, "t_a": v.t_a, "t_d": v.t_d}
                              for v in t.visits]} for t in trips],
        "pois": {p.id: {"lat": p.lat, "lon": p.lon, "category": p.category}
                 for p in (pois or {}).values()},
    }
    Path(path).write_text(json.dumps(payload, indent=None, sort_keys=True))


def load_corpus(path: str):
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read corpus file {path}: {exc}")
    try:
        trips = [Trip(t["user_id"], tuple(PoiVisit(t["user_id"], v["poi_id"], v["t_a"], v["t_d"])
                                          for v in t["visits"]))
                 for t in payload["trips"]]
        pois = {pid: Poi(pid, rec["lat"], rec["lon"], rec.get("category"))
                for pid, rec in payload.get("pois", {}).items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise CliError(f"malformed corpus file {path}: {exc!r}")
    return trips, pois


def cmd_ingest(args) -> int:
    try:
        with open(args.checkins) as fh:
            records, skipped = ingest_checkins(fh, skip_bad_rows=args.skip_bad_rows)
    except (OSError, CheckinError) as exc:
        raise CliError(f"{args.checkins}: {exc}")
    if not records:
        raise CliError(f"{args.checkins}: no check-in records")
    pois = {}
    if args.pois:
        try:
            with open(args.pois) as fh:
                pois = load_pois(fh)
        except (OSError, CheckinError) as exc:
            raise CliError(f"{args.pois}: {exc}")
    visits = aggregate_visits(records)
    trips = extract_trips(visits, args.window, gap_mode=args.gap_mode)
    save_corpus(args.out, trips, pois)
    write_manifest(args, skipped_rows=skipped)
    stats = corpus_stats(trips)
    print(f"users          {stats['users']}")
    print(f"poi_visits     {stats['poi_visits']}")
    print(f"trips          {stats['trips']}")
    print(f"pois_per_trip  {stats['pois_per_trip']:.2f}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    trips, _ = load_corpus(args.corpus)
    ipr = independent_pair_ratio(trips, args.sample_fraction, args.runs, args.significance,
                                 args.seed)
    iur = impacted_user_ratio(trips, args.runs, args.seed)
    print(f"independent_pair_ratio {ipr:.4f}")
    print(f"impacted_user_ratio    {iur:.4f}")
    if args.out:
        Path(args.out).write_text(f"independent_pair_ratio={ipr!r}\n"
                                  f"impacted_user_ratio={iur!r}\n")
        write_manifest(args)
    return EXIT_OK


def cmd_train(args) -> int:
    trips, _ = load_corpus(args.corpus)
    config = TrainConfig(dim=args.dim, learning_rate=args.learning_rate,
                         regularization=args.regularization, negatives=args.negatives,
                         max_iterations=args.epochs, rng_seed=args.seed,
                         corrected_reg=args.corrected_reg, shuffle=args.shuffle, mode=args.mode)
    model = train(trips, config)
    if len(model.poi_vec) >= 2:
        model.zpair = compute_zpair(model)
    with open(args.out, "w") as fh:
        model.save(fh)
    write_manifest(args)
    print(f"trained d={config.dim} pois={len(model.poi_vec)} users={len(model.user_vec)}")
    return EXIT_OK


def _load_model(path: str) -> EmbeddingModel:
    try:
        with open(path) as fh:
            model = EmbeddingModel.load(fh)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read model file {path}: {exc}")
    if model.zpair is not None:
        # keep the fresh value: ScoreContext reuses it, so z_pair is computed once per call
        model.zpair = check_zpair(model, model.zpair)
    return model


def _time_cost_model(args, trips, pois) -> TimeCostModel:
    visit_times = compute_visit_times(trips)
    matrix = None
    if args.distances:
        with open(args.distances) as fh:
            matrix = load_distance_matrix(fh)
    return TimeCostModel(visit_times, pois=pois, walking_speed=args.walking_speed,
                         distance_matrix=matrix)


def _query_graph(args, model, trips, pois):
    query = Query(args.user, args.start, args.end, args.budget)
    return query_graph(model, query, _time_cost_model(args, trips, pois))


def cmd_recommend(args) -> int:
    # checked before any file is read, whichever solver runs
    config = AlnsConfig(runs=args.runs, iterations=args.iterations, rng_seed=args.seed)
    trips, pois = load_corpus(args.corpus)
    model = _load_model(args.model)
    graph = _query_graph(args, model, trips, pois)
    direct = [graph.start, graph.end]
    if not graph.feasible(direct).ok:
        raise CliError("no feasible trip", EXIT_INFEASIBLE)
    if args.solver == "exact":
        try:
            result = solve_exact(graph)  # not None: the direct trip fits
        except StateCapError as exc:
            raise CliError(f"{exc}; --solver alns answers it", EXIT_STATE_CAP)
        trip, score = result.trip, result.objective
    else:
        result = run_alns(graph, config, model, collect_trace=bool(args.trace))
        if args.trace:
            with open(args.trace, "w") as fh:
                write_trace_csv(result.trace, fh)
        trip, score = result.trip, result.score
    total = graph.trip_cost(trip)
    print(f"# solver={args.solver} score={score!r} cost_s={total:.1f} budget_s={graph.budget:.1f}")
    for k, v in enumerate(trip):
        if k == 0:
            print(f"{graph.poi_ids[v]} visit={graph.start_visit_cost:.0f}s")
        else:
            leg = graph.cost[trip[k - 1]][v]
            print(f"{graph.poi_ids[v]} leg={leg:.0f}s")
    if args.out:
        Path(args.out).write_text("\n".join(graph.poi_ids[v] for v in trip) + "\n")
        write_manifest(args)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    trips, pois = load_corpus(args.corpus)
    train_config = TrainConfig(dim=args.dim, max_iterations=args.epochs, rng_seed=args.seed,
                               mode=args.mode)
    alns_config = AlnsConfig(runs=args.runs, iterations=args.iterations, rng_seed=args.seed)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    report = evaluate(trips, solvers, train_config, alns_config,
                      rng_seed=args.seed, shared_model=args.shared_model, pois=pois)
    print(report.summary_table())
    if report.errors:
        print(f"# {len(report.errors)} fold(s) failed and were excluded", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            report.write_csv(fh)
        write_manifest(args)
    return EXIT_OK


def cmd_export_lp(args) -> int:
    trips, pois = load_corpus(args.corpus)
    model = _load_model(args.model)
    graph = _query_graph(args, model, trips, pois)
    ilp = build_ilp(graph)
    with open(args.out, "w") as fh:
        write_lp(ilp, fh)
    write_manifest(args)
    print(f"wrote {args.out}: |V|={graph.n}, {len(ilp.variables)} variables, "
          f"{len(ilp.constraints)} constraints")
    return EXIT_OK


@functools.cache   # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tripkit",
                                     description="Trip recommendation toolkit: learn "
                                     "POI embeddings from check-ins and answer "
                                     "time-budgeted trip queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")

    def seeded(p):
        common(p)
        p.add_argument("--seed", type=int, default=42, help="random seed (default %(default)s)")

    p = sub.add_parser("ingest", help="parse check-ins into a corpus file")
    p.add_argument("checkins")
    p.add_argument("--pois")
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_TRIP_WINDOW,
                   help="trip window in seconds (default %(default)s)")
    p.add_argument("--gap-mode", action="store_true")
    p.add_argument("--skip-bad-rows", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("analyze", help="corpus co-occurrence and popularity analyses")
    p.add_argument("corpus")
    p.add_argument("--out")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--sample-fraction", type=float, default=0.5)
    p.add_argument("--significance", type=float, default=0.05)
    seeded(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("train", help="train the POI/user embedding model")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=TrainConfig.dim)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--regularization", type=float, default=TrainConfig.regularization)
    p.add_argument("--negatives", type=int, default=TrainConfig.negatives)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_iterations)
    p.add_argument("--mode", choices=MODES, default=TrainConfig.mode)
    p.add_argument("--corrected-reg", action="store_true")
    p.add_argument("--shuffle", action="store_true")
    seeded(p)
    p.set_defaults(fn=cmd_train)

    def query_args(p):
        p.add_argument("--user", required=True)
        p.add_argument("--start", required=True)
        p.add_argument("--end", required=True)
        p.add_argument("--budget", type=float, required=True, help="seconds")
        p.add_argument("--distances", help="CSV distance matrix in km")
        p.add_argument("--walking-speed", type=float, default=DEFAULT_WALKING_SPEED,
                       help="km/h (default %(default)s)")

    p = sub.add_parser("recommend", help="answer a trip query")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    query_args(p)
    p.add_argument("--solver", choices=["exact", "alns"], default="alns")
    p.add_argument("--runs", type=int, default=AlnsConfig.runs)
    p.add_argument("--iterations", type=int, default=AlnsConfig.iterations)
    p.add_argument("--trace", help="write the iteration trace CSV here")
    p.add_argument("--out")
    seeded(p)
    p.set_defaults(fn=cmd_recommend)

    p = sub.add_parser("evaluate", help="leave-one-out evaluation")
    p.add_argument("corpus")
    p.add_argument("--solvers", default="random,pop,alns",
                   help="comma list: random,pop,alns,exact (default %(default)s)")
    p.add_argument("--mode", choices=MODES, default=TrainConfig.mode)
    p.add_argument("--dim", type=int, default=TrainConfig.dim)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_iterations)
    p.add_argument("--runs", type=int, default=2)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--shared-model", action="store_true")
    p.add_argument("--out")
    seeded(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("export-lp", help="emit the query's integer program in LP format")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    query_args(p)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(fn=cmd_export_lp)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config flags go right after the subcommand, so command-line flags win
            args, extra = parser.parse_known_args(
                argv[:1] + config_flags(args.config, args) + argv[1:])
            if extra:
                # the command line parsed alone, so a leftover flag came from a
                # key that names a positional argument
                key = extra[0][2:].split("=", 1)[0].replace("-", "_")
                raise CliError(f"{args.config}: {key} cannot be set in a config "
                               f"file; give it on the command line")
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (CheckinError, UnknownPoiError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RuntimeError, FloatingPointError, OverflowError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
