"""The workloads: inputs made from the seed, the set-up calls, one round of
timed calls, and the check of every answer against `check.py`."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check
import gen

# The places (coordinates, typical visit lengths) and the queries (user, end
# points) come from this fixed seed; --seed draws the check-in history, and so
# the visit-time means, the budgets and the trained model. A query's cost
# depends mostly on the places, so this keeps the spread of per-run medians
# down to what the history changes.
LAYOUT_SEED = 20180823
SCORE_RE = re.compile(r"score=(?:np\.float64\()?([-+0-9.eE]+|nan|inf)")


@dataclass
class Op:
    argv: list[str]
    key: str
    csv: Path | None = None   # file the call writes and the check reads


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    score: float | None = None
    errors: list[str] = field(default_factory=list)


class Workload:
    setup_reps = 3

    def setup_calls(self) -> list[list[str]]:
        raise NotImplementedError

    def check_setup(self, outputs: list[str]) -> list[str]:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, rc: int, out: str, err: str, csv: str | None) -> Verdict:
        raise NotImplementedError

    def mean_score(self, verdicts: list[Verdict]) -> float:
        scored = [v.score for v in verdicts if v.score is not None]
        return sum(scored) / len(scored)

    def answer(self, rc: int, out: str, csv: str | None) -> tuple:
        """The part of a call's output that must repeat from round to round."""
        return rc, out, csv


def ingest_errors(out: str, corpus: gen.Corpus) -> list[str]:
    want = {"users": len(corpus.users()), "poi_visits": sum(len(v) for _, v in corpus.trips),
            "trips": len(corpus.trips)}
    got = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in want:
            got[parts[0]] = int(parts[1])
    return [] if got == want else [f"ingest printed {got}, expected {want}"]


class Recommend(Workload):
    """`tripkit recommend` queries against one trained model."""

    def __init__(self, solver: str, seed: int, work: Path):
        layout, rng = np.random.default_rng(LAYOUT_SEED), np.random.default_rng(seed)
        self.solver = solver
        if solver == "alns":
            # a city of 104 POIs in eight walkable clusters; the budget ladder
            # keeps 18..78 interior POIs after pruning
            sizes = [13] * 8
            self.corpus = gen.structured_corpus(
                layout, rng, sizes=sizes, spacing_km=4.0, cluster_km=1.0, users_per_cluster=4,
                trips_per_user=4, trip_len=5, anchors=1, visit_s=(600, 1800))
            self.queries = gen.ladder_queries(layout, self.corpus,
                                              list(range(18, 79, 3)) * 2, near=8)
            self.train_flags = ["--epochs", "4"]
            self.solver_flags = ["--solver", "alns", "--runs", "2", "--iterations", "200"]
        else:
            # a region of 2,000 POIs in 200 clusters of 8..12, 4 km apart; each
            # query stays inside one cluster
            sizes = [int(s) for s in layout.permutation([8, 9, 10, 11, 12] * 40)]
            self.corpus = gen.structured_corpus(
                layout, rng, sizes=sizes, spacing_km=4.0, cluster_km=0.5, users_per_cluster=2,
                trips_per_user=2, trip_len=4, anchors=3, visit_s=(300, 1200))
            self.queries = gen.cluster_queries(layout, self.corpus, sizes, 48)
            self.train_flags = ["--epochs", "1"]
            self.solver_flags = ["--solver", "exact"]
        self.checkins, self.pois = work / "checkins.csv", work / "pois.csv"
        self.corpus_file, self.model_file = work / "corpus.json", work / "model.txt"
        gen.write_inputs(self.corpus, self.checkins, self.pois)
        self.city = check.City(self.corpus.visit_means(), self.corpus.lat, self.corpus.lon)
        self.model: check.Model | None = None

    def setup_calls(self):
        return [["ingest", str(self.checkins), "--pois", str(self.pois),
                 "--out", str(self.corpus_file)],
                ["train", str(self.corpus_file), "--out", str(self.model_file)]
                + self.train_flags]

    def check_setup(self, outputs):
        errors = ingest_errors(outputs[0], self.corpus)
        want = f"pois={len(self.city.visit)} users={len(self.corpus.users())}"
        if want not in outputs[1]:
            errors.append(f"train printed {outputs[1].strip()!r}, expected {want}")
        self.model = check.Model(self.model_file)
        return errors

    def ops(self):
        return [Op(["recommend", "--model", str(self.model_file),
                    "--corpus", str(self.corpus_file), "--user", q.user, "--start", q.start,
                    "--end", q.end, "--budget", repr(q.budget)] + self.solver_flags, str(i))
                for i, q in enumerate(self.queries)]

    def check(self, op, rc, out, err, csv):
        q = self.queries[int(op.key)]
        v = Verdict(attempted=1)
        lines = out.splitlines()
        m = SCORE_RE.search(lines[0]) if lines else None
        if rc != 0 or m is None:
            v.failed = 1
            v.errors.append(f"query {op.key}: exit {rc}, {err.strip() or out[:200]!r}")
            return v
        trip = [line.split()[0] for line in lines[1:]]
        interior = trip[1:-1]
        if trip[0] != q.start or trip[-1] != q.end or len(set(interior)) != len(interior) \
                or {q.start, q.end} & set(interior) or any(p not in self.city.visit for p in trip):
            v.errors.append(f"query {op.key}: malformed trip {trip}")
            return v
        cost = self.city.trip_cost(trip)
        if not check.fits(cost, q.budget):
            v.errors.append(f"query {op.key}: cost {cost!r} over budget {q.budget!r}")
        scorer = check.Scorer(self.model, q.user, q.start, q.end)
        v.score = scorer.score(interior)
        if not check.close(v.score, float(m.group(1))):
            v.errors.append(f"query {op.key}: printed score {m.group(1)}, recomputed {v.score!r}")
        candidates = [p for p in self.model.pois if p not in (q.start, q.end)
                      and check.fits(self.city.trip_cost([q.start, p, q.end]), q.budget)]
        if self.solver == "exact":
            best, best_set = check.best_subset(q.start, q.end, candidates, self.city.leg,
                                               self.city.visit[q.start], q.budget, scorer)
            if not check.close(v.score, best):
                v.errors.append(f"query {op.key}: score {v.score!r} but the optimum "
                                f"{sorted(best_set)} scores {best!r}")
        elif candidates and not interior:
            v.errors.append(f"query {op.key}: empty trip though {len(candidates)} stops fit")
        return v


def without_timing(text: str, sep: str | None) -> str:
    """Lines without their last field, which is a time in ms."""
    return "\n".join(line.rsplit(sep, 1)[0] for line in text.splitlines())


def answerable(corpus: gen.Corpus) -> bool:
    """Every leave-one-out fold's user and end points also occur in another trip."""
    for i, (user, visits) in enumerate(corpus.trips):
        rest = corpus.trips[:i] + corpus.trips[i + 1:]
        seen = {p for _, vs in rest for p, _, _ in vs}
        if user not in {u for u, _ in rest} or visits[0][0] not in seen \
                or visits[-1][0] not in seen:
            return False
    return True


class Evaluate(Workload):
    """Per-fold leave-one-out `tripkit evaluate` on small structured corpora.

    Each round evaluates a fixed corpus with random, pop and alns, and four
    seeded corpora with random and pop. The fixed corpus is the first 32 trips
    of the acceptance corpus (seed 42); its folds 15 and 29 hit the ALNS budget
    fault on every run. ALNS fails on seed-dependent folds of other corpora
    for the same reason, so seeded corpora leave it out.
    """
    setup_reps = 9
    flags = ["--dim", "8", "--epochs", "10"]

    def __init__(self, seed: int, work: Path):
        fixed = gen.acceptance_corpus(42)
        fixed.trips = fixed.trips[:32]
        self.corpora = {"fixed": (fixed, "random,pop,alns", "42")}
        for j in range(4):
            s = 4 * seed + j
            while True:
                seeded = gen.acceptance_corpus(s, users=4, trips_per_user=3)
                if answerable(seeded):
                    break
                s += 1_000_003
            self.corpora[f"seeded{j}"] = (seeded, "random,pop", str(s))
        self.files = {}
        for name, (corpus, _, _) in self.corpora.items():
            files = [work / f"{name}_{x}" for x in ("checkins.csv", "pois.csv",
                                                    "corpus.json", "folds.csv")]
            gen.write_inputs(corpus, files[0], files[1])
            self.files[name] = files

    def setup_calls(self):
        return [["ingest", str(f[0]), "--pois", str(f[1]), "--out", str(f[2])]
                for f in self.files.values()]

    def check_setup(self, outputs):
        return [e for out, (corpus, _, _) in zip(outputs, self.corpora.values())
                for e in ingest_errors(out, corpus)]

    def ops(self):
        return [Op(["evaluate", str(self.files[name][2]), "--solvers", solvers,
                    "--seed", seed, "--out", str(self.files[name][3])] + self.flags,
                   name, self.files[name][3])
                for name, (_, solvers, seed) in self.corpora.items()]

    def answer(self, rc, out, csv):
        return rc, without_timing(out, None), csv and without_timing(csv, ",")

    def check(self, op, rc, out, err, csv):
        corpus, solvers, _ = self.corpora[op.key]
        solvers = solvers.split(",")
        folds = sum(1 for _, vs in corpus.trips if len({p for p, _, _ in vs}) >= 3)
        v = Verdict(attempted=folds * len(solvers))
        if rc != 0 or csv is None:
            v.failed = v.attempted
            v.errors.append(f"{op.key}: exit {rc}, {err.strip()!r}")
            return v
        f1 = {s: [0.0] * folds for s in solvers}
        present: dict[str, list[float]] = {s: [] for s in solvers}
        seen = set()
        for line in csv.splitlines()[1:]:
            fold, solver, *vals = line.split(",")
            r, p, f, rs, ps, fs = (float(x) for x in vals[:6])
            if not (0 <= int(fold) < folds and solver in f1) or (fold, solver) in seen:
                v.errors.append(f"{op.key}: unexpected row {line!r}")
                continue
            seen.add((fold, solver))
            if not all(0.0 <= x <= 1.0 for x in (r, p, rs, ps)) \
                    or not check.close(f, check.f1(r, p), 1e-12) \
                    or not check.close(fs, check.f1(rs, ps), 1e-12):
                v.errors.append(f"{op.key}: inconsistent row {line!r}")
            f1[solver][int(fold)] = f
            present[solver].append(f)
        rows = sum(len(r) for r in present.values())
        v.failed = v.attempted - rows
        failed_folds = folds - min(len(present[s]) for s in solvers)
        if failed_folds and f"# {failed_folds} fold(s) failed" not in err:
            v.errors.append(f"{op.key}: {failed_folds} folds lack rows, stderr {err.strip()!r}")
        for line in out.splitlines()[1:]:
            parts = line.split()
            solver, shown = parts[0], float(parts[3])
            if solver not in present or not present[solver] or abs(
                    shown - sum(present[solver]) / len(present[solver])) > 6e-4:
                v.errors.append(f"{op.key}: summary line {line!r} disagrees with the rows")
        if "alns" in solvers:
            # random < pop < alns, over all folds with a failed fold at 0; on
            # a dozen folds random and pop alone can swap by chance
            means = {s: sum(f1[s]) / folds for s in solvers}
            if not all(means[a] < means[b] for a, b in zip(solvers, solvers[1:])):
                v.errors.append(f"{op.key}: mean F1 out of order {means}")
            v.score = means["alns"]
        return v


def make(name: str, seed: int, work: Path) -> Workload:
    if name == "recommend-alns":
        return Recommend("alns", seed, work)
    if name == "recommend-exact":
        return Recommend("exact", seed, work)
    if name == "evaluate-loo":
        return Evaluate(seed, work)
    raise ValueError(f"unknown workload {name!r}")
