import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tripkit.alns
import tripkit.cli
import tripkit.exact
import tripkit.scoring
from tripkit.cli import load_corpus, main
from tripkit.embedding import EmbeddingModel, TrainConfig, train
from tripkit.scoring import compute_zpair
from lp_reader import read_lp
from oracles import zpair_full


def write_inputs(root: Path, seed=0):
    """Synthetic check-in and POI CSVs: 6 users, 2 trips each over 8 POIs."""
    rng = np.random.default_rng(seed)
    pois = [f"p{i}" for i in range(8)]
    lines = ["poi_id,lat,lon,category"]
    for p in pois:
        lines.append(f"{p},{40.0 + rng.uniform(0, 0.01):.6f},"
                     f"{-74.0 + rng.uniform(0, 0.01):.6f},museum")
    (root / "pois.csv").write_text("\n".join(lines) + "\n")

    rows = ["user_id,poi_id,timestamp"]
    t = 1000
    for u in range(6):
        user = f"u{u}"
        for trip in range(2):
            # alternate POI halves so trips never share boundary POIs
            half = np.arange(4) + 4 * (trip % 2)
            chosen = rng.permutation(half)
            for poi in chosen:
                # duplicate check-in 300 s later: visit duration 300
                rows.append(f"{user},p{poi},{t}")
                rows.append(f"{user},p{poi},{t + 300}")
                t += 900
            t += 100000  # far past the trip window
    (root / "checkins.csv").write_text("\n".join(rows) + "\n")
    return root / "checkins.csv", root / "pois.csv"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    checkins, pois = write_inputs(root)
    corpus = root / "corpus.json"
    assert main(["ingest", str(checkins), "--pois", str(pois),
                 "--out", str(corpus)]) == 0
    model = root / "model.txt"
    assert main(["train", str(corpus), "--out", str(model),
                 "--dim", "4", "--epochs", "5"]) == 0
    return {"root": root, "checkins": checkins, "pois": pois,
            "corpus": corpus, "model": model}


def query_flags(workspace, budget="20000"):
    corpus = json.loads(workspace["corpus"].read_text())
    trip = corpus["trips"][0]
    start = trip["visits"][0]["poi_id"]
    end = trip["visits"][-1]["poi_id"]
    return ["--model", str(workspace["model"]), "--corpus", str(workspace["corpus"]),
            "--user", trip["user_id"], "--start", start, "--end", end,
            "--budget", budget]


class TestIngest:
    def test_stats_output(self, workspace, capsys):
        assert main(["ingest", str(workspace["checkins"]),
                     "--out", str(workspace["root"] / "again.json")]) == 0
        out = capsys.readouterr().out
        assert "users          6" in out
        assert "trips          12" in out
        assert "pois_per_trip  4.00" in out

    def test_manifest_written(self, workspace):
        manifest = (workspace["root"] / "corpus.json.manifest").read_text()
        assert "command=ingest" in manifest
        assert "window=28800" in manifest

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["ingest", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "c.json")]) == 2

    def test_malformed_row_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,poi_id,timestamp\nu1,p1,notanumber\n")
        assert main(["ingest", str(bad), "--out", str(tmp_path / "c.json")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_skip_bad_rows(self, tmp_path):
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("user_id,poi_id,timestamp\nu1,p1,shrug\n"
                         "u1,p1,100\nu1,p2,200\n")
        assert main(["ingest", str(mixed), "--skip-bad-rows",
                     "--out", str(tmp_path / "c.json")]) == 0
        manifest = (tmp_path / "c.json.manifest").read_text()
        assert "skipped_rows=1" in manifest

    def test_empty_input_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("user_id,poi_id,timestamp\n")
        assert main(["ingest", str(empty), "--out", str(tmp_path / "c.json")]) == 2


class TestTrain:
    def test_model_header(self, workspace):
        first = workspace["model"].read_text().splitlines()[0]
        assert first.startswith("CAPE v1 d=4 pois=8 users=6")

    def test_deterministic_file(self, workspace):
        again = workspace["root"] / "model2.txt"
        assert main(["train", str(workspace["corpus"]), "--out", str(again),
                     "--dim", "4", "--epochs", "5"]) == 0
        assert again.read_bytes() == workspace["model"].read_bytes()

    def test_config_file_overridden_by_flag(self, workspace):
        cfg = workspace["root"] / "train.cfg"
        cfg.write_text("epochs=1\ndim=2\n")
        out = workspace["root"] / "model3.txt"
        assert main(["train", str(workspace["corpus"]), "--config", str(cfg),
                     "--out", str(out), "--dim", "3"]) == 0
        header = out.read_text().splitlines()[0]
        assert "d=3" in header  # flag beats config file
        manifest = (workspace["root"] / "model3.txt.manifest").read_text()
        assert "epochs=1" in manifest  # config file beats default

    def test_defaults_reach_library(self, workspace):
        out = workspace["root"] / "model_defaults.txt"
        assert main(["train", str(workspace["corpus"]), "--out", str(out)]) == 0
        trips, _ = load_corpus(str(workspace["corpus"]))
        model = train(trips, TrainConfig())
        model.zpair = compute_zpair(model)
        buf = io.StringIO()
        model.save(buf)
        assert out.read_text() == buf.getvalue()

    def test_bad_corpus_exit_2(self, tmp_path):
        garbled = tmp_path / "corpus.json"
        garbled.write_text("{not json")
        assert main(["train", str(garbled), "--out", str(tmp_path / "m.txt")]) == 2


def write_distances(root: Path, pois: list[str], seed=0) -> Path:
    """A symmetric CSV distance matrix of whole 1, 2 or 3 km over `pois`: such
    distances break the triangle inequality."""
    rng = np.random.default_rng(seed)
    km = np.triu(rng.integers(1, 4, (len(pois), len(pois))), 1)
    km = km + km.T
    lines = ["," + ",".join(pois)]
    lines += [p + "," + ",".join(str(d) for d in row) for p, row in zip(pois, km)]
    path = root / "distances.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestRecommend:
    def test_happy_path(self, workspace, capsys):
        assert main(["recommend", *query_flags(workspace), "--runs", "1",
                     "--iterations", "50"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# solver=alns score=")
        assert len(out.splitlines()) >= 3  # header + at least start and end

    def test_deterministic_stdout(self, workspace, capsys):
        argv = ["recommend", *query_flags(workspace), "--runs", "1",
                "--iterations", "50"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_exact_solver(self, workspace, capsys):
        assert main(["recommend", *query_flags(workspace),
                     "--solver", "exact"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# solver=exact")
        float(out.split("score=")[1].split()[0])

    def test_state_cap_exit_5(self, workspace, capsys, monkeypatch):
        # at a budget of 4000 s the whole interior does not fit, and the
        # stop-set program keeps about 150 states
        monkeypatch.setattr(tripkit.exact, "STATE_CAP", 10)
        assert main(["recommend", *query_flags(workspace, budget="4000"),
                     "--solver", "exact"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: the exact solver needs more than 10 states")
        assert err.count("\n") == 1

    def test_zpair_computed_once(self, workspace, monkeypatch):
        calls = []
        real = tripkit.scoring.compute_zpair

        def counted(model):
            calls.append(1)
            return real(model)
        monkeypatch.setattr(tripkit.scoring, "compute_zpair", counted)
        monkeypatch.setattr(tripkit.cli, "compute_zpair", counted)
        assert main(["recommend", *query_flags(workspace), "--runs", "1",
                     "--iterations", "20"]) == 0
        assert len(calls) == 1

    def test_model_file_with_full_matrix_zpair(self, workspace, tmp_path):
        # model files written before z_pair was summed in row blocks hold the
        # full-matrix sum; check_zpair's relative 1e-9 accepts it
        with open(workspace["model"]) as fh:
            model = EmbeddingModel.load(fh)
        model.zpair = zpair_full(model)
        path = tmp_path / "old.txt"
        with open(path, "w") as fh:
            model.save(fh)
        flags = query_flags(workspace)
        flags[flags.index("--model") + 1] = str(path)
        for solver in ("alns", "exact"):
            assert main(["recommend", *flags, "--solver", solver, "--runs", "1",
                         "--iterations", "20"]) == 0

    def test_normalizer_overflow_exit_4(self, workspace, capsys):
        # vectors of 30.0 in 13 dimensions: exp(user . poi) overflows a double
        corpus = json.loads(workspace["corpus"].read_text())
        pois = {v["poi_id"] for t in corpus["trips"] for v in t["visits"]}
        users = {t["user_id"] for t in corpus["trips"]}
        huge = EmbeddingModel(13, {p: np.full(13, 30.0) for p in pois},
                              {p: 0.0 for p in pois}, {u: np.full(13, 30.0) for u in users})
        path = workspace["root"] / "huge.txt"
        with open(path, "w") as fh:
            huge.save(fh)
        flags = query_flags(workspace)
        flags[flags.index("--model") + 1] = str(path)
        assert main(["recommend", *flags]) == 4
        assert "internal error" in capsys.readouterr().err

    def test_infeasible_alns_trip_exit_4(self, workspace, capsys, monkeypatch):
        # a local search that repeats the start vertex: the explicit check
        # in run_alns must reject the trip
        monkeypatch.setattr(tripkit.alns, "local_search",
                            lambda graph, trip: [trip[0], *trip])
        assert main(["recommend", *query_flags(workspace), "--runs", "1",
                     "--iterations", "5"]) == 4
        assert "infeasible trip" in capsys.readouterr().err

    def test_infeasible_budget_exit_3(self, workspace, capsys):
        assert main(["recommend", *query_flags(workspace, budget="10")]) == 3
        assert "no feasible trip" in capsys.readouterr().err

    def test_zero_walking_speed_exit_2(self, workspace, capsys):
        for speed in ("0", "nan", "inf"):
            assert main(["recommend", *query_flags(workspace), "--walking-speed", speed]) == 2
            assert "walking speed must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["alns", "exact"])
    @pytest.mark.parametrize("budget", ["nan", "inf", "0"])
    def test_budget_not_positive_and_finite_exit_2(self, workspace, capsys, budget, solver):
        assert main(["recommend", *query_flags(workspace, budget=budget),
                     "--solver", solver]) == 2
        assert capsys.readouterr().err.startswith(
            "error: budget must be positive and finite")

    @pytest.mark.parametrize("flag", ["--runs=-3", "--iterations=-5"])
    def test_negative_runs_or_iterations_exit_2(self, workspace, capsys, flag):
        assert main(["recommend", *query_flags(workspace), flag]) == 2
        assert "runs and iterations must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--budget", "10"], ["--solver", "exact"]])
    def test_bad_runs_exit_2_before_any_file_is_read(self, workspace, capsys, extra):
        # an over-tight budget (exit 3) or the exact solver (exit 0) must not
        # hide the bad flag, and neither must a corpus that does not exist
        flags = query_flags(workspace) + extra
        assert main(["recommend", *flags, "--runs=-3"]) == 2
        assert "runs and iterations must be >= 0" in capsys.readouterr().err
        flags[flags.index("--corpus") + 1] = str(workspace["root"] / "missing.json")
        assert main(["recommend", *flags, "--runs=-3"]) == 2
        assert "runs and iterations must be >= 0" in capsys.readouterr().err

    def test_unknown_user_exit_2(self, workspace, capsys):
        flags = query_flags(workspace)
        flags[flags.index("--user") + 1] = "stranger"
        assert main(["recommend", *flags]) == 2
        assert "error: unknown user: stranger" in capsys.readouterr().err

    def test_unknown_start_exit_2(self, workspace, capsys):
        flags = query_flags(workspace)
        flags[flags.index("--start") + 1] = "nosuch"
        assert main(["recommend", *flags]) == 2
        assert "error: unknown POI: nosuch" in capsys.readouterr().err

    def test_distances_missing_poi_unquoted(self, workspace, tmp_path, capsys):
        # p7 has no row: the library's error prints as its bare message
        path = write_distances(tmp_path, [f"p{i}" for i in range(7)])
        assert main(["recommend", *query_flags(workspace), "--distances", str(path)]) == 2
        err = capsys.readouterr().err
        assert "missing from distance matrix" in err
        assert err.startswith("error: POI pair (")

    def test_distances_missing_row(self, workspace, tmp_path, capsys):
        path = write_distances(tmp_path, [f"p{i}" for i in range(8)])
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        assert main(["recommend", *query_flags(workspace), "--distances", str(path)]) == 2
        assert capsys.readouterr().err == "error: distance matrix has no row for p7\n"

    @pytest.mark.parametrize("km", ["nan", "inf", "-inf", "-5"])
    def test_distances_not_finite_or_negative(self, workspace, tmp_path, capsys, km):
        path = write_distances(tmp_path, [f"p{i}" for i in range(8)])
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")  # the p1 row; cell 3 is its p2 column
        cells[3] = km
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert main(["recommend", *query_flags(workspace, budget="11000"),
                     "--distances", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: distance (p1, p2) must be finite and >= 0 km")
        assert len(err.splitlines()) == 1

    def test_same_stops_same_score(self, workspace, capsys):
        # ALNS and exact return the same stops in different orders here, and
        # the score is a function of the stops
        headers, stops = [], []
        for solver in ("alns", "exact"):
            assert main(["recommend", *query_flags(workspace), "--solver", solver]) == 0
            header, *lines = capsys.readouterr().out.splitlines()
            headers.append(header)
            stops.append(sorted(line.split()[0] for line in lines))
        assert stops[0] == stops[1]
        assert headers[0].split()[2] == headers[1].split()[2]
        assert headers[0].split()[2].startswith("score=")

    def test_distances_breaking_triangle_inequality(self, workspace, tmp_path, capsys):
        # dropping a stop can make a trip dearer, so ALNS may destroy a trip
        # into one over the budget
        path = write_distances(tmp_path, [f"p{i}" for i in range(8)])
        out = tmp_path / "trip.txt"
        assert main(["recommend", *query_flags(workspace, budget="11000"), "--distances",
                     str(path), "--runs", "1", "--iterations", "100", "--out", str(out)]) == 0
        cost = float(capsys.readouterr().out.split("cost_s=")[1].split()[0])
        assert cost <= 11000.0
        assert len(out.read_text().splitlines()) >= 2

    def test_trace_csv(self, workspace):
        trace = workspace["root"] / "trace.csv"
        assert main(["recommend", *query_flags(workspace), "--runs", "1",
                     "--iterations", "20", "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "run,iter,destroy_op,build_op,score,accepted,temp"
        assert len(lines) == 21

    def test_out_file_and_manifest(self, workspace):
        out = workspace["root"] / "trip.txt"
        assert main(["recommend", *query_flags(workspace), "--runs", "1",
                     "--iterations", "20", "--out", str(out)]) == 0
        trip = out.read_text().splitlines()
        assert len(trip) >= 2
        manifest = (workspace["root"] / "trip.txt.manifest").read_text().splitlines()
        assert manifest[0] == "command=recommend"
        assert "walking_speed=4.0" in manifest and "distances=" in manifest


class TestEvaluate:
    def test_summary_and_csv(self, workspace, capsys):
        out = workspace["root"] / "eval.csv"
        assert main(["evaluate", str(workspace["corpus"]),
                     "--solvers", "random,pop", "--dim", "3", "--epochs", "2",
                     "--shared-model", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[0].startswith("solver")
        lines = out.read_text().splitlines()
        assert lines[0].startswith("fold_id,solver,recall")
        assert len(lines) > 1

    def test_unknown_solver_exit_2(self, workspace, capsys):
        out = workspace["root"] / "eval_nosuch.csv"
        assert main(["evaluate", str(workspace["corpus"]),
                     "--solvers", "random,nosuch", "--dim", "3", "--epochs", "2",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "unknown solver" in captured.err and "nosuch" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--runs=-3", "--iterations=-5"])
    def test_negative_runs_or_iterations_exit_2(self, workspace, capsys, flag):
        out = workspace["root"] / "eval_negative.csv"
        assert main(["evaluate", str(workspace["corpus"]), "--dim", "3", "--epochs", "2",
                     "--out", str(out), flag]) == 2
        captured = capsys.readouterr()
        assert "runs and iterations must be >= 0" in captured.err and captured.out == ""
        assert not out.exists()

    def test_empty_solver_list_exit_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "solvers.cfg"
        cfg.write_text("solvers=\n")
        out = workspace["root"] / "eval_empty.csv"
        for extra in (["--solvers", ","], ["--config", str(cfg)]):
            assert main(["evaluate", str(workspace["corpus"]), "--dim", "3", "--epochs", "2",
                         "--out", str(out), *extra]) == 2
            captured = capsys.readouterr()
            assert "no solvers" in captured.err and captured.out == ""
            assert not out.exists()


class TestExportLp:
    def test_round_trip(self, workspace, capsys):
        out = workspace["root"] / "query.lp"
        assert main(["export-lp", *query_flags(workspace), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "variables" in stdout
        with open(out) as fh:
            model = read_lp(fh)
        assert model.n >= 2
        assert any(c.cid == "budget" for c in model.constraints)


class TestConfigFile:
    def test_export_lp_walking_speed(self, workspace, tmp_path):
        cfg = tmp_path / "lp.cfg"
        cfg.write_text("walking_speed=5.5\n")
        lp = {}
        for name, extra in [("default", []), ("flag", ["--walking-speed", "5.5"]),
                            ("config", ["--config", str(cfg)])]:
            out = tmp_path / f"{name}.lp"
            assert main(["export-lp", *query_flags(workspace), "--out", str(out), *extra]) == 0
            lp[name] = out.read_text()
        assert lp["config"] == lp["flag"] != lp["default"]
        assert "walking_speed=5.5" in (tmp_path / "config.lp.manifest").read_text().splitlines()

    def test_unknown_key_exit_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("epoch=3\n")
        out = tmp_path / "m.txt"
        assert main(["train", str(workspace["corpus"]), "--out", str(out),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "unknown key: epoch" in err and str(cfg) in err
        assert not out.exists()

    def test_positional_key_exit_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text("corpus=other.json\n")
        out = tmp_path / "m.txt"
        assert main(["train", str(workspace["corpus"]), "--out", str(out),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "corpus" in err and "command line" in err
        assert not out.exists()

    def test_invalid_choice_exit_2(self, workspace, tmp_path):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("solver=nosuch\n")
        with pytest.raises(SystemExit) as exc:
            main(["recommend", *query_flags(workspace), "--config", str(cfg)])
        assert exc.value.code == 2

    def test_boolean_key(self, workspace, tmp_path):
        cfg = tmp_path / "shuffle.cfg"
        cfg.write_text("shuffle=true\n")
        flags = ["--dim", "4", "--epochs", "5"]
        assert main(["train", str(workspace["corpus"]), "--out", str(tmp_path / "cfg.txt"),
                     "--config", str(cfg), *flags]) == 0
        assert main(["train", str(workspace["corpus"]), "--out", str(tmp_path / "flag.txt"),
                     "--shuffle", *flags]) == 0
        assert (tmp_path / "cfg.txt").read_bytes() == (tmp_path / "flag.txt").read_bytes()
        assert (tmp_path / "cfg.txt").read_bytes() != workspace["model"].read_bytes()


def test_one_parser_serves_every_call(workspace, tmp_path, capsys):
    # the parser is built once per process; a second round of the same calls
    # through it gives the same exit codes, output and files
    assert tripkit.cli.build_parser() is tripkit.cli.build_parser()
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\nshuffle=true\n")
    calls = [
        ["ingest", str(workspace["checkins"]), "--pois", str(workspace["pois"]),
         "--out", str(tmp_path / "corpus.json")],
        ["train", str(workspace["corpus"]), "--out", str(tmp_path / "model.txt"),
         "--dim", "3", "--epochs", "2"],
        ["recommend", *query_flags(workspace)],
        ["evaluate", str(workspace["corpus"]), "--solvers", "random,pop", "--dim", "3",
         "--epochs", "1", "--out", str(tmp_path / "eval.csv")],
        ["train", str(workspace["corpus"]), "--config", str(cfg),
         "--out", str(tmp_path / "cfg.txt"), "--dim", "2"],
    ]

    def without_ms(text, sep=None):
        # evaluate's last column is the wall time
        return [line.rsplit(sep, 1)[0] for line in text.splitlines()]

    rounds = []
    for _ in range(2):
        seen = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            seen.append((code, without_ms(captured.out) if argv[0] == "evaluate"
                         else captured.out, captured.err))
        for name in ("corpus.json", "model.txt", "cfg.txt", "cfg.txt.manifest"):
            seen.append((tmp_path / name).read_text())
        seen.append(without_ms((tmp_path / "eval.csv").read_text(), ","))
        rounds.append(seen)
    assert [code for code, *_ in rounds[0][:len(calls)]] == [0] * len(calls)
    assert rounds[0] == rounds[1]


def bad_corpus(text):
    def make(workspace, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(text)
        return ["train", str(path), "--out", str(tmp_path / "m.txt")], str(path)
    return make


def bad_model(line):
    def make(workspace, tmp_path):
        path = tmp_path / "bad_model.txt"
        path.write_text(f"CAPE v1 d=4 pois=1 users=0\n{line}\n")
        flags = query_flags(workspace)
        flags[flags.index("--model") + 1] = str(path)
        return ["recommend", *flags], "bad model file line: " + repr(line + "\n")
    return make


def model_lines(header, lines, needle):
    def make(workspace, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("\n".join([header, *lines]) + "\n")
        flags = query_flags(workspace)
        flags[flags.index("--model") + 1] = str(path)
        return ["recommend", *flags], needle
    return make


def missing_config(workspace, tmp_path):
    return ["train", str(workspace["corpus"]), "--out", str(tmp_path / "m.txt"),
            "--config", str(tmp_path / "nope.cfg")], "nope.cfg"


def missing_distances(workspace, tmp_path):
    return ["recommend", *query_flags(workspace),
            "--distances", str(tmp_path / "nope.csv")], "nope.csv"


def out_in_missing_dir(workspace, tmp_path):
    return ["train", str(workspace["corpus"]), "--epochs", "1",
            "--out", str(tmp_path / "nodir" / "m.txt")], "nodir"


@pytest.mark.parametrize("make", [
    bad_corpus('{"version": 1}'),
    bad_corpus('{"trips": [{"user_id": "u1", "visits": [{"poi_id": "p1", "t_d": 5}]}]}'),
    bad_corpus("[]"),
    bad_model("P p1"),
    bad_model("ZPAIR"),
    model_lines("CAPE v1 d=2 pois=2 users=0", ["P a 0.1 1 2", "P b 0.2 1 2", "P a 0.3 1 2"],
                "repeated id in model file: a"),
    model_lines("CAPE v1 d=2 pois=0 users=2", ["U u0 1 2", "U u1 1 2", "U u0 1 2"],
                "repeated id in model file: u0"),
    model_lines("CAPE v1 d=2 pois=1 users=0", ["P a nan 1 2"], "non-finite popularity bias for a"),
    missing_config,
    missing_distances,
    out_in_missing_dir,
], ids=["corpus-no-trips", "visit-no-t_a", "corpus-list", "model-short-P",
        "model-bare-ZPAIR", "model-repeated-poi", "model-repeated-user",
        "model-nan-bias", "missing-config", "missing-distances", "out-dir-missing"])
def test_malformed_input_exit_2(make, workspace, tmp_path, capsys):
    argv, needle = make(workspace, tmp_path)
    assert main(argv) == 2
    assert needle in capsys.readouterr().err


class TestAnalyze:
    def test_ratios_printed(self, workspace, capsys):
        assert main(["analyze", str(workspace["corpus"]), "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "independent_pair_ratio" in out
        assert "impacted_user_ratio" in out


SCIPY_MODULES_AFTER = """
import contextlib, json, os, sys
from tripkit.cli import main
for argv in json.loads(sys.argv[1]):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if main(argv) != 0:
            sys.exit(f"{argv[0]} failed")
    print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""


def test_only_analyze_imports_scipy(workspace, tmp_path):
    # importing scipy.stats costs a process about 65 MB; the calls below run
    # in turn in one fresh interpreter, which lists the scipy modules after each
    corpus, model = tmp_path / "corpus.json", tmp_path / "model.txt"
    query = query_flags(workspace)
    query[query.index("--model") + 1] = str(model)
    query[query.index("--corpus") + 1] = str(corpus)
    calls = [
        ["ingest", str(workspace["checkins"]), "--pois", str(workspace["pois"]),
         "--out", str(corpus)],
        ["train", str(corpus), "--out", str(model), "--dim", "4", "--epochs", "5"],
        ["recommend", *query, "--solver", "alns", "--runs", "1", "--iterations", "20"],
        ["recommend", *query, "--solver", "exact"],
        ["evaluate", str(corpus), "--solvers", "random,pop,alns", "--dim", "2",
         "--epochs", "1", "--runs", "1", "--iterations", "5", "--out", str(tmp_path / "e.csv")],
        ["export-lp", *query, "--out", str(tmp_path / "q.lp")],
        ["analyze", str(corpus), "--runs", "2"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", SCIPY_MODULES_AFTER, json.dumps(calls)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(loaded) == len(calls)
    assert loaded[:-1] == [[]] * (len(calls) - 1)
    assert "scipy.stats" in loaded[-1]  # the check sees scipy once it is there


ALNS_SPANS = {"alns.run", "alns.init_pool", "alns.destroy", "alns.build",
              "alns.local_search", "alns.objective"}
QUERY_SPANS = {"cli.load_corpus", "checkins.visit_times", "scoring.context", "scoring.zpair",
               "graph.reachable", "graph.build"}


def recommend_call(solver):
    def argv(workspace, tmp_path):
        return ["recommend", *query_flags(workspace), "--solver", solver, "--runs", "1",
                "--iterations", "5"]
    return argv


def evaluate_call(workspace, tmp_path):
    return ["evaluate", str(workspace["corpus"]), "--solvers", "random,pop,alns",
            "--dim", "2", "--epochs", "1", "--runs", "1", "--iterations", "5"]


def ingest_call(workspace, tmp_path):
    return ["ingest", str(workspace["checkins"]), "--pois", str(workspace["pois"]),
            "--out", str(tmp_path / "corpus.json")]


class TestBenchmarkTracer:
    """The benchmark's --trace 1 wraps tripkit functions by module and name
    (perfbench/spans.py); a rename in src/, or a call that stops going through
    the wrapped name, must fail here, not only there."""

    @pytest.mark.parametrize("make, fired, once", [
        (recommend_call("alns"), QUERY_SPANS | ALNS_SPANS | {"embedding.load"},
         {"graph.build", "scoring.zpair"}),
        (recommend_call("exact"), QUERY_SPANS | {"embedding.load", "exact.solve"},
         {"graph.build", "scoring.zpair", "exact.solve"}),
        (evaluate_call, QUERY_SPANS | ALNS_SPANS | {
            "embedding.train", "embedding.sgd_step", "embedding.negatives",
            "evaluation.folds", "evaluation.baselines"}, {"evaluation.folds"}),
        (ingest_call, {"checkins.ingest"}, set()),
    ], ids=["recommend-alns", "recommend-exact", "evaluate", "ingest"])
    def test_spans_attach_and_fire(self, make, fired, once, workspace, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        monkeypatch.delitem(sys.modules, "spans", raising=False)
        import spans
        with spans.attached(spans.Tracer()) as tracer:
            assert main(make(workspace, tmp_path)) == 0
        assert fired - {name for name, calls in tracer.calls.items() if calls} == set()
        assert {name: tracer.calls[name] for name in once} == dict.fromkeys(once, 1)
