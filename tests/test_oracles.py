"""The ALNS build and 2-opt layers, and the BPR trainer, against their
references in `oracles.py`: the same lists, the same floats, the same RNG
draws and the same model files."""

import inspect
import io
import itertools

import numpy as np
import pytest

import tripkit.alns as alns
from tripkit.embedding import TrainConfig, train
from tripkit.graph import PoiGraph
from conftest import make_trip, random_graph
from test_acceptance import embedding_instance
import oracles

SIZES = range(3, 21)


def random_trip(graph: PoiGraph, rng: np.random.Generator) -> list[int]:
    interior = list(graph.interior())
    k = int(rng.integers(0, len(interior) + 1))
    return [graph.start, *rng.permutation(interior)[:k].tolist(), graph.end]


def at_trip_budget(graph: PoiGraph, rng: np.random.Generator) -> PoiGraph:
    """The same graph with its budget set exactly to the cost of a random
    trip, as `make_folds` sets it to the test trip's cost."""
    return PoiGraph(graph.poi_ids, graph.vprofit, graph.eprofit, graph.cost,
                    graph.trip_cost(random_trip(graph, rng)), graph.start_visit_cost)


def tied_graph(seed: int, n: int) -> PoiGraph:
    """A graph whose costs and profits take a few round values, so that many
    insertion deltas, 2-opt moves and chooser keys tie: places on a small
    integer grid, Manhattan transit (a metric, like walking time) and visits
    of 100 or 200."""
    rng = np.random.default_rng(seed)
    vprofit = rng.integers(1, 3, n) / 4
    vprofit[0] = vprofit[-1] = 0.0
    eprofit = rng.integers(0, 2, (n, n)) / 8
    xy = rng.integers(0, 4, (n, 2))
    visit = rng.integers(1, 3, n) * 100.0
    transit = np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2) * 100.0
    return PoiGraph([f"p{i}" for i in range(n)], vprofit, (eprofit + eprofit.T) / 2,
                    visit[None, :] + transit, 300.0 * (n // 3 + 1), visit[0])


def instances():
    """(graph, model) pairs: random and tied graphs of 3..20 vertices at their
    own budget and at a trip's exact cost, and embedding graphs with their model."""
    rng = np.random.default_rng(606)
    for n in SIZES:
        for seed in (n, 100 + n):
            g = random_graph(seed, n, interior_target=max(1, n // 3))
            yield f"random{seed}-n{n}", g, None
            yield f"random{seed}-n{n}-tripbudget", at_trip_budget(g, rng), None
        g = tied_graph(200 + n, n)
        yield f"tied{200 + n}-n{n}", g, None
        yield f"tied{200 + n}-n{n}-tripbudget", at_trip_budget(g, rng), None
    for seed, n in ((1000, 8), (1001, 12), (1002, 16)):
        g, model = embedding_instance(seed, n)
        yield f"embedding{seed}-n{n}", g, model
        yield f"embedding{seed}-n{n}-tripbudget", at_trip_budget(g, rng), model


INSTANCES = list(instances())
IDS = [name for name, _, _ in INSTANCES]


@pytest.fixture
def references(monkeypatch):
    """Put the rescanning references in place of the operators run_alns uses."""
    def install():
        monkeypatch.setattr(alns, "greedy_extend", oracles.greedy_extend)
        monkeypatch.setattr(alns, "_choose_highest_potential", oracles.choose_highest_potential)
        monkeypatch.setattr(alns, "local_search", oracles.local_search)
        monkeypatch.setattr(alns, "_PivotDistances", oracles.FreshPivotDistances)
    return install


@pytest.mark.parametrize("name,graph,model", INSTANCES, ids=IDS)
def test_cheapest_insertion(name, graph, model):
    rng = np.random.default_rng(1)
    for _ in range(10):
        trip = random_trip(graph, rng)
        for v in graph.interior():
            if v not in trip:
                assert alns.cheapest_insertion(graph, trip, v) == \
                    oracles.cheapest_insertion(graph, trip, v)


@pytest.mark.parametrize("name,graph,model", INSTANCES, ids=IDS)
def test_cheapest_insertions(name, graph, model):
    rng = np.random.default_rng(11)
    for _ in range(10):
        trip = random_trip(graph, rng)
        assert alns.cheapest_insertions(graph, trip, range(graph.n)) == \
            {v: oracles.cheapest_insertion(graph, trip, v) for v in range(graph.n)}


@pytest.mark.parametrize("name,graph,model", INSTANCES, ids=IDS)
def test_trip_objective_of_every_order(name, graph, model):
    # the objective is a function of the stop set: every order of up to five
    # stops gets the bits of the sorted order
    rng = np.random.default_rng(9)
    for _ in range(5):
        stops = random_trip(graph, rng)[1:6]
        if stops and stops[-1] == graph.end:
            stops.pop()
        expected = graph.trip_objective([graph.start, *sorted(stops), graph.end])
        for order in itertools.permutations(stops):
            assert graph.trip_objective([graph.start, *order, graph.end]) == expected


@pytest.mark.parametrize("name,graph,model", INSTANCES, ids=IDS)
def test_after_insert(name, graph, model):
    # insert random vertices at random positions and carry the insertions over
    # each, never rescanning, so that lower bounds (pos 0) are carried too
    rng = np.random.default_rng(5)
    for _ in range(10):
        trip = random_trip(graph, rng)
        best = {v: oracles.cheapest_insertion(graph, trip, v)
                for v in graph.interior() if v not in trip}
        while best:
            v = list(best)[int(rng.integers(len(best)))]
            pos = int(rng.integers(1, len(trip)))
            trip.insert(pos, v)
            del best[v]
            best = alns.after_insert(graph, best, trip, pos)
            for w, (w_pos, w_delta) in best.items():
                exact = oracles.cheapest_insertion(graph, trip, w)
                if w_pos == 0:
                    assert w_delta <= exact[1]
                else:
                    assert (w_pos, w_delta) == exact


@pytest.mark.parametrize("name,graph,model", INSTANCES, ids=IDS)
def test_greedy_extend_sees_the_same_options(name, graph, model):
    # a chooser that draws at random among the options (or stops) and records
    # what it was shown
    def recording(seed, log):
        rng = np.random.default_rng(seed)

        def choose(trip, options):
            log.append((list(trip), list(options)))
            k = int(rng.integers(len(options) + 1))
            return options[k] if k < len(options) else None
        return choose

    rng = np.random.default_rng(2)
    for seed in range(10):
        start = random_trip(graph, rng)
        start = start if graph.feasible(start).ok else [graph.start, graph.end]
        seen, expected = [], []
        out = alns.greedy_extend(graph, start, recording(seed, seen))
        assert out == oracles.greedy_extend(graph, start, recording(seed, expected))
        assert seen == expected


@pytest.mark.parametrize("name,graph,model", INSTANCES, ids=IDS)
def test_build_operators(name, graph, model, references):
    rng = np.random.default_rng(3)
    partials = [[graph.start, graph.end]]
    for _ in range(6):
        trip = random_trip(graph, rng)
        if graph.feasible(trip).ok:
            partials.append(trip)
    # most_similarity from every pivot of the trip; the others ignore the pivot
    runs = [(p, op, pivot) for p in partials for op in alns.BUILD_OPS
            for pivot in (p if op == "most_similarity" else [None])]

    def outputs():
        results = []
        for partial, op, pivot in runs:
            similarity = alns._PivotDistances(graph, model)
            results.append(alns.build(graph, partial, op, pivot, similarity))
        return results

    new = outputs()
    references()
    assert new == outputs()


def test_references_reach_build_and_run_alns(monkeypatch, references):
    # a refactor that stops looking these names up through the module would
    # make the tests above compare the new code with itself
    calls = dict.fromkeys(("greedy_extend", "choose_highest_potential", "local_search",
                           "FreshPivotDistances"), 0)

    def counting(name, reference):
        def wrapper(*args):
            calls[name] += 1
            return reference(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(oracles, name, counting(name, getattr(oracles, name)))
    references()
    graph = random_graph(7, 8)
    direct = [graph.start, graph.end]
    alns.build(graph, direct, "highest_potential", None)
    assert calls == {"greedy_extend": 1, "choose_highest_potential": 1,
                     "local_search": 0, "FreshPivotDistances": 0}
    alns.build(graph, direct, "most_similarity", graph.end)
    assert calls["greedy_extend"] == 2 and calls["FreshPivotDistances"] == 1
    # run_alns 2-opts each distinct trip that build returns, once
    built = set()

    def recording(*args):
        trip = build(*args)
        built.add(tuple(trip))
        return trip

    build = alns.build
    monkeypatch.setattr(alns, "build", recording)
    alns.run_alns(graph, alns.AlnsConfig(runs=1, iterations=3))
    assert calls["local_search"] == len(built) >= 1 and calls["FreshPivotDistances"] == 2


@pytest.mark.parametrize("name,graph,model", INSTANCES, ids=IDS)
def test_local_search(name, graph, model):
    rng = np.random.default_rng(4)
    for _ in range(20):
        trip = random_trip(graph, rng)
        assert alns.local_search(graph, trip) == oracles.local_search(graph, trip)


@pytest.mark.parametrize("name,graph,model", INSTANCES, ids=IDS)
def test_pivot_distances(name, graph, model):
    distances = alns._PivotDistances(graph, model)
    for pivot in range(graph.n):
        first = distances[pivot]
        assert first == oracles.similarity_distances(graph, model, pivot)
        assert distances[pivot] is first


ALNS_INSTANCES = [i for i in INSTANCES
                  if i[1].feasible([i[1].start, i[1].end]).ok and i[1].n in (3, 5, 8, 12, 16, 20)]


@pytest.mark.parametrize("name,graph,model", ALNS_INSTANCES, ids=[i[0] for i in ALNS_INSTANCES])
def test_run_alns_same_trace(name, graph, model, references):
    config = alns.AlnsConfig(runs=2, iterations=60)
    new = alns.run_alns(graph, config, model, collect_trace=True)
    references()
    ref = alns.run_alns(graph, config, model, collect_trace=True)
    assert (new.trip, new.score) == (ref.trip, ref.score)
    assert new.trace == ref.trace


# the graphs of test_acceptance.py::test_runtime_scaling, run with the default config
SCALING = [(f"scaling{7000 + k}", random_graph(7000 + k, n=15, interior_target=6), None)
           for k in range(10)]


def same_run(new: alns.AlnsResult, ref: alns.AlnsResult) -> bool:
    """The same trip, the same score bits and the same trace."""
    return ((new.trip, float(new.score).hex(), new.trace)
            == (ref.trip, float(ref.score).hex(), ref.trace))


MEMO_CASES = ([(name, graph, model, alns.AlnsConfig(runs=2, iterations=60))
               for name, graph, model in ALNS_INSTANCES]
              + [(name, graph, model, alns.AlnsConfig()) for name, graph, model in SCALING])


@pytest.mark.parametrize("name,graph,model,config", MEMO_CASES, ids=[c[0] for c in MEMO_CASES])
def test_run_alns_equals_the_memo_free_loop(name, graph, model, config):
    new = alns.run_alns(graph, config, model, collect_trace=True)
    assert same_run(new, oracles.run_alns(graph, config, model))


def test_a_memo_keyed_without_the_pivot_fails():
    # the comparison above must catch a repair memo that forgets the pivot
    source = inspect.getsource(alns.run_alns)
    key = "key = (b_op, pivot, *partial)"
    assert source.count(key) == 1
    namespace = dict(vars(alns))
    exec("from __future__ import annotations\n" + source.replace(key, "key = (b_op, *partial)"),
         namespace)
    pivotless = namespace["run_alns"]
    assert any(not same_run(pivotless(graph, None, model, collect_trace=True),
                            oracles.run_alns(graph, None, model))
               for _, graph, model in SCALING[:2])


# --- the trainer ----------------------------------------------------------------


def random_corpus(seed: int, n_pois: int, n_trips: int, lengths: tuple[int, int],
                  n_users: int) -> list:
    rng = np.random.default_rng(seed)
    pois = [f"p{i:04d}" for i in range(n_pois)]
    return [make_trip(f"u{int(rng.integers(n_users))}",
                      [pois[i] for i in rng.choice(n_pois, int(rng.integers(*lengths)),
                                                    replace=False)],
                      start=t * 10**6)
            for t in range(n_trips)]


# 1,200 POIs, of which each trip covers 3-8; and 60 POIs in trips of 12-20
WIDE = random_corpus(11, 1200, 200, (3, 9), 40)
LONG = random_corpus(12, 60, 30, (12, 21), 8)
# trips of 1-3 POIs, so that some observations have an empty context; and
# 6 POIs, so that 20 negatives drawn from at most 5 outside a trip repeat
SINGLES = random_corpus(13, 20, 40, (1, 4), 6)
FEW = random_corpus(14, 6, 20, (1, 4), 3)
MODES = ("full", "pop+pref", "pop-only")
TRAIN_CASES = (
    [("wide", WIDE, TrainConfig(dim=13, max_iterations=1, mode=mode)) for mode in MODES]
    + [("long", LONG, TrainConfig(dim=8, max_iterations=2, mode=mode, shuffle=shuffle,
                                  corrected_reg=corrected, learning_rate=0.05))
       for mode in MODES for shuffle in (False, True) for corrected in (False, True)]
    + [("long", LONG, TrainConfig(dim=dim, max_iterations=2, mode=mode, shuffle=True,
                                  corrected_reg=True, learning_rate=0.05))
       for mode in MODES for dim in (1, 2, 13)]
    # BLAS switches to blocked kernels at these widths
    + [("long", LONG, TrainConfig(dim=dim, max_iterations=1, mode=mode, shuffle=True,
                                  learning_rate=0.05))
       for mode in MODES for dim in (16, 64)]
    + [("singles", SINGLES, TrainConfig(dim=8, max_iterations=3, mode=mode, learning_rate=0.05))
       for mode in MODES]
    + [("few-neg20", FEW, TrainConfig(dim=4, max_iterations=3, negatives=20, mode=mode,
                                      corrected_reg=True, learning_rate=0.05))
       for mode in MODES])


def model_file(model) -> str:
    buf = io.StringIO()
    model.save(buf)
    return buf.getvalue()


@pytest.mark.parametrize(
    "corpus,config", [case[1:] for case in TRAIN_CASES],
    ids=[f"{name}-{c.mode}-d{c.dim}-shuffle{int(c.shuffle)}-corrected{int(c.corrected_reg)}"
         for name, _, c in TRAIN_CASES])
def test_train_writes_the_reference_model_file(corpus, config):
    assert model_file(train(corpus, config)) == model_file(oracles.train_reference(corpus, config))


def test_trip_covering_every_poi_fails_when_sampled():
    trips = [make_trip("u1", ["a", "b"]), make_trip("u2", ["b", "c", "a"], start=10**6)]
    config = TrainConfig(dim=2, max_iterations=0)
    assert model_file(train(trips, config)) == model_file(oracles.train_reference(trips, config))
    for trainer in (train, oracles.train_reference):
        with pytest.raises(ValueError, match="trip covers every POI"):
            trainer(trips, TrainConfig(dim=2, max_iterations=1))
