"""A serial grid's lockstep loops give the per-run records.

``harness.run_experiment`` runs a serial grid's small-d tasks in chunks of
one algorithm and one dimension, each with the algorithm's stacked
search; the chunks of a dimension's algorithms that repeat no shared
objective run together, as one ``engine.drive_lockstep`` loop, and each
group of a loop's runs of one non-noisy built-in is evaluated by one
objective call.  Every record must equal the one ``engine.run`` gives the
same task, bit for bit, in every field but ``runtime_s``, for each of the
four algorithms.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from nlcmfo import benchmarks, engine, harness
from nlcmfo.benchmarks import clear_composites, register_composite
from nlcmfo.engine import (Chunk, EngineConfig, ObjectiveError,
                           drive_lockstep, evaluate_swarm, run)
from nlcmfo.harness import ExperimentConfig, run_experiment
from nlcmfo.space import SearchSpace
from nlcmfo.stochastic import AHEAD_MIN_VALUES, make_rng

M = harness.LOCKSTEP_MIN_RUNS
ALGORITHMS = tuple(engine.ALGORITHMS)


def bound(algorithm):
    return engine.ALGORITHMS[algorithm].chunk_values


@pytest.fixture
def composite_sandbox():
    clear_composites()
    yield
    clear_composites()


@pytest.fixture
def spies(monkeypatch):
    """Record each loop's chunks as (algorithm, size) and each per-run
    call."""
    seen = {"loops": [], "runs": 0}

    def lockstep(chunks):
        seen["loops"].append([(chunk.configs[0].algorithm, len(chunk.configs))
                              for chunk in chunks])
        return drive_lockstep(chunks)

    def single(config, space, objective):
        seen["runs"] += 1
        return run(config, space, objective)

    monkeypatch.setattr(harness, "drive_lockstep", lockstep)
    for name in ("run", "run_pso", "run_gwo"):
        monkeypatch.setattr(harness, name, single)
    return seen


@pytest.fixture
def body_calls(monkeypatch):
    """Record the row shape of every call of the named built-ins' bodies,
    per id."""
    calls: dict = {}

    def spy(*fids):
        for fid in fids:
            func = benchmarks.lookup(fid)

            def recorded(X, _body=func._eval, _fid=fid, **kwargs):
                calls[_fid].append(X.shape)
                return _body(X, **kwargs)

            calls[fid] = []
            monkeypatch.setattr(func, "_eval", recorded)
        return calls

    return spy


def grid(algorithm="nlcmfo", **overrides):
    values = dict(algorithms=(algorithm,), runs=M, pop_size=5, max_iter=8,
                  base_seed=3, telemetry="curves")
    values.update(overrides)
    return ExperimentConfig(**values)


def bits(value):
    return None if value is None else (np.shape(value),
                                       np.asarray(value).tobytes())


def assert_per_run_records(config, records):
    """Each record equals ``engine.run`` on its task, runtime aside."""
    assert len(records) == config.runs * len(config.functions) * len(
        config.algorithms)
    keep_curves = config.telemetry != "summary"
    for rec in records:
        func = benchmarks.lookup(rec.function)
        space = func.space(rec.dim)
        result = run(EngineConfig(
            algorithm=rec.algorithm, pop_size=config.pop_size,
            max_iter=config.max_iter, seed=rec.seed,
            record_history=config.telemetry == "full-history"),
            space, func.objective(rec.seed))
        assert not rec.aborted
        assert rec.seed == config.base_seed + rec.run_index
        assert bits(rec.best_fitness) == bits(result.best_fitness)
        assert bits(rec.best_position) == bits(result.best_position)
        assert rec.evaluations == result.evaluations
        for got, want in ((rec.convergence, result.convergence),
                          (rec.mean_curve, result.mean_fitness),
                          (rec.trajectory, result.trajectory)):
            assert bits(got) == bits(want if keep_curves else None)
        assert bits(rec.history) == bits(result.history)
        assert rec.runtime_s > 0.0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("fid", benchmarks.BUILTIN_IDS)
def test_each_builtin_chunk_equals_per_run(spies, algorithm, fid):
    # F7's noise stream is each run's own; F19's box has a bound of 0.0
    config = grid(algorithm, functions=(fid,))
    records = run_experiment(config).records
    assert spies == {"loops": [[(algorithm, M)]], "runs": 0}
    assert_per_run_records(config, records)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_chunk_of_one_builtin_makes_one_call_per_swarm(spies, body_calls,
                                                         algorithm):
    calls = body_calls("F1")
    config = grid(algorithm, functions=("F1",))
    records = run_experiment(config).records
    assert spies == {"loops": [[(algorithm, M)]], "runs": 0}
    # the M runs' stacked rows, at the start and after every move
    assert calls["F1"] == [(M * 5, 30)] * (config.max_iter + 1)
    assert_per_run_records(config, records)


def test_one_run_cells_share_each_builtin_across_algorithms(spies,
                                                            body_calls):
    # one loop of four chunks (F1, F7, F10 each): one call per swarm for
    # each shared built-in, while each F7 run draws its own noise
    calls = body_calls("F1", "F7", "F10")
    config = grid(algorithms=ALGORITHMS, functions=("F1", "F7", "F10"),
                  runs=1, dim=30)
    records = run_experiment(config).records
    assert spies == {"loops": [[(a, 3) for a in ALGORITHMS]], "runs": 0}
    swarms = config.max_iter + 1
    assert calls == {"F1": [(4 * 5, 30)] * swarms,
                     "F10": [(4 * 5, 30)] * swarms,
                     "F7": [(5, 30)] * (4 * swarms)}
    assert_per_run_records(config, records)


def test_repeat_free_chunks_of_a_dimension_run_as_one_loop(spies):
    # nine d=30 cells and three d=2 ones per algorithm, n=30: the c-th
    # chunks of each dimension form one loop (pso's bound splits its d=30
    # runs 4 + 5), while with two runs per cell every chunk repeats F1 or
    # another shared built-in and runs alone
    functions = ("F1", "F2", "F3", "F4", "F5", "F6", "F8", "F9", "F10",
                 "F14", "F16", "F17")
    config = grid(algorithms=ALGORITHMS, functions=functions, runs=1,
                  dim=30, pop_size=30, max_iter=2)
    records = run_experiment(config).records
    assert spies == {"loops": [
        [("mfo", 9), ("nlcmfo", 9), ("pso", 4), ("gwo", 9)],
        [("mfo", 3), ("nlcmfo", 3), ("pso", 3), ("gwo", 3)],
        [("pso", 5)]], "runs": 0}
    assert_per_run_records(config, records)
    twice = replace(config, runs=2)
    loops = harness._lockstep_chunks(harness._validate(twice))
    assert [len(loop) for loop in loops] == [1] * len(loops)
    assert sorted(len(loop[0]) for loop in loops) == sorted(
        [9] * 6 + [6] * 7)


@pytest.mark.parametrize("telemetry", ["summary", "full-history"])
def test_cells_of_one_dimension_share_a_chunk(spies, telemetry):
    # four boxes in each algorithm's chunk: a cube, a noisy cube, another
    # cube and F19's fixed [0, 1]^3
    config = grid(algorithms=ALGORITHMS, functions=("F1", "F7", "F9", "F19"),
                  dim=3, runs=2, telemetry=telemetry)
    records = run_experiment(config).records
    # each chunk repeats F1 and F9, so it runs alone
    assert spies == {"loops": [[(a, 8)] for a in ALGORITHMS], "runs": 0}
    assert [(r.algorithm, r.function, r.run_index) for r in records] == [
        (a, f, i) for a in config.algorithms for f in config.functions
        for i in range(2)]
    assert_per_run_records(config, records)


def test_no_chunk_mixes_algorithms_and_each_splits_by_its_bound(spies):
    # three cells per algorithm: F1 and F10 share one dimension, F16 has
    # its own 2; each (algorithm, dimension) group splits into the fewest
    # near-equal chunks its bound allows
    dim = 20
    config = grid(algorithms=("mfo", "nlcmfo", "pso", "gwo"),
                  functions=("F1", "F10", "F16"), runs=3, pop_size=30,
                  dim=dim, max_iter=3)
    tasks = harness._validate(config)
    loops = harness._lockstep_chunks(tasks)
    chunks = [chunk for loop in loops for chunk in loop]
    sizes: dict = {}
    for chunk in chunks:
        keys = {(tasks[i][3].algorithm, tasks[i][1].dim) for i in chunk}
        assert len(keys) == 1
        assert chunk == sorted(chunk)
        sizes.setdefault(keys.pop(), []).append(len(chunk))
    for algorithm in config.algorithms:
        for d, group in ((dim, 6), (2, 3)):
            cap = bound(algorithm) // (30 * d)
            if cap < M:
                assert (algorithm, d) not in sizes
                continue
            count = -(-group // cap)
            want = [group * (c + 1) // count - group * c // count
                    for c in range(count)]
            assert sizes[(algorithm, d)] == [s for s in want if s >= M]
    records = run_experiment(config).records
    assert spies["loops"] == [[(tasks[c[0]][3].algorithm, len(c))
                               for c in loop] for loop in loops]
    assert spies["runs"] == len(tasks) - sum(map(len, chunks))
    assert_per_run_records(config, records)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_registered_composite_gets_its_own_calls(spies, composite_sandbox,
                                                 algorithm):
    calls = []

    def shifted(X):
        calls.append(X.shape)
        return ((X - 1.5) ** 2).sum(axis=1)

    register_composite({"id": "F24", "dim": 3, "lower": -5.0, "upper": 5.0,
                        "eval": shifted})
    config = grid(algorithm, functions=("F24",))
    records = run_experiment(config).records
    assert spies == {"loops": [[(algorithm, M)]], "runs": 0}
    # every run's swarm alone, once per iteration and once at the start
    assert calls == [(5, 3)] * (M * (config.max_iter + 1))
    assert_per_run_records(config, records)


@pytest.mark.parametrize("algorithms, functions, runs", [
    *[pytest.param((a,), ("F24",), M, id=a) for a in ALGORITHMS],
    pytest.param(ALGORITHMS, ("F1", "F10", "F24"), 1, id="joined")])
def test_an_abort_reruns_the_loop_per_run(spies, composite_sandbox,
                                          algorithms, functions, runs):
    # one NaN at F24's 13th call of all, inside the loop: all its runs, a
    # joined loop's other chunks' too, are run again one at a time, and
    # none of those calls returns NaN
    calls = []

    def nan_once(X):
        calls.append(1)
        value = (X * X).sum(axis=1)
        return np.full(X.shape[0], np.nan) if len(calls) == 13 else value

    register_composite({"id": "F24", "dim": 2, "lower": -5.0, "upper": 5.0,
                        "eval": nan_once})
    config = grid(algorithms=algorithms, functions=functions, runs=runs,
                  dim=2)
    records = run_experiment(config).records
    size = runs * len(functions)
    assert spies == {"loops": [[(a, size) for a in algorithms]],
                     "runs": size * len(algorithms)}
    assert len(calls) == 13 + runs * len(algorithms) * (config.max_iter + 1)
    assert_per_run_records(config, records)


def test_a_nan_in_a_shared_call_names_the_runs_own_row(monkeypatch):
    # runs 0 and 2 of an mfo and a gwo chunk share F1 (run 1 of each has
    # an objective of its own), so the loop's one F1 call takes four runs'
    # rows; F1's body gives NaN at row 2 of the third of them, gwo's run 0,
    # in its third call
    func = benchmarks.lookup("F1")
    stacked, values = [], []

    def nan_in_gwo_run_0(X):
        value = (X * X).sum(axis=1)
        stacked.append(X.copy())
        if len(stacked) == 3:
            value[2 * 5 + 2] = np.nan
        values.append(value)
        return value

    def flat(X):
        return np.zeros(X.shape[0])

    monkeypatch.setattr(func, "_eval", nan_in_gwo_run_0)
    space = func.space(4)
    chunks = [Chunk(engine.ALGORITHMS[a].stack,
                    [EngineConfig(a, pop_size=5, max_iter=6, seed=s)
                     for s in range(3)], [space] * 3,
                    [func.objective(0), flat, func.objective(2)],
                    ["F1", None, "F1"])
              for a in ("mfo", "gwo")]
    with pytest.raises(ObjectiveError) as exc:
        drive_lockstep(chunks)
    assert [X.shape for X in stacked] == [(4 * 5, 4)] * 3
    # the text evaluate_swarm gives the run's own swarm
    own = stacked[-1][2 * 5:3 * 5]
    start = space.sample(5, make_rng(0))
    assert bits(stacked[0][2 * 5:3 * 5]) == bits(start)
    with pytest.raises(ObjectiveError) as alone:
        evaluate_swarm(lambda X: values[-1][2 * 5:3 * 5], own)
    assert str(exc.value) == str(alone.value)
    assert "at row 2 (d=4)" in str(exc.value)


@pytest.mark.parametrize("algorithms, functions, runs", [
    *[pytest.param((a,), ("F24",), 8, id=a) for a in ALGORITHMS],
    *[pytest.param((a,), ("F1",), 8, id=f"F1-{a}") for a in ALGORITHMS],
    pytest.param(ALGORITHMS, ("F1", "F9", "F24"), 1, id="joined")])
def test_an_aborted_run_keeps_its_error_text(composite_sandbox, monkeypatch,
                                             algorithms, functions, runs):
    # a NaN wherever a swarm row nears the box's upper edge aborts some
    # runs, in a composite's own calls, in F1's shared ones and in a
    # joined loop; the records, error text included, equal a serial
    # grid's without chunks
    def edgy(X):
        value = (X * X).sum(axis=1)
        return np.where(X[:, 0] > 4.0, np.nan, value)

    def edgy_f1(X):
        return np.where(X[:, 0] > 80.0, np.nan, (X * X).sum(axis=1))

    register_composite({"id": "F24", "dim": 2, "lower": -5.0, "upper": 5.0,
                        "eval": edgy})
    monkeypatch.setattr(benchmarks.lookup("F1"), "_eval", edgy_f1)
    config = grid(algorithms=algorithms, functions=functions, runs=runs,
                  dim=2)
    loops = harness._lockstep_chunks(harness._validate(config))
    assert [len(loop) for loop in loops] == [
        len(algorithms) if runs == 1 else 1]
    chunked = run_experiment(config).records
    monkeypatch.setattr(harness, "LOCKSTEP_MIN_RUNS", 9)
    per_run = run_experiment(config).records
    assert 0 < sum(r.aborted for r in per_run) < len(per_run)
    for a, b in zip(chunked, per_run):
        assert (a.aborted, a.error) == (b.aborted, b.error)
        assert bits(a.best_fitness) == bits(b.best_fitness)
        assert bits(a.best_position) == bits(b.best_position)
        assert bits(a.convergence) == bits(b.convergence)


@pytest.mark.parametrize("shares", [None, ["flat"] * 3],
                         ids=["own", "shared"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_constant_objective_keeps_each_start_swarms_row_0(algorithm,
                                                            shares):
    # no later value is strictly lower, and the first of the tied rows
    # wins: each run's best stays its start swarm's row 0, as in drive
    space = SearchSpace.cube(4, -3.0, 3.0)
    configs = [EngineConfig(algorithm, pop_size=6, max_iter=7, seed=s)
               for s in (0, 4, 11)]

    def flat(X):
        return np.full(X.shape[0], 2.5)

    chunk = drive_lockstep([Chunk(engine.ALGORITHMS[algorithm].stack,
                                  configs, [space] * 3, [flat] * 3, shares)])
    for config, got in zip(configs, chunk):
        start = space.sample(6, make_rng(config.seed))
        want = run(config, space, flat)
        assert bits(got.best_position) == bits(start[0])
        assert got.best_fitness == 2.5
        # every tie in a search's own archive keeps its rule too
        for field in ("best_position", "convergence", "mean_fitness",
                      "trajectory"):
            assert bits(getattr(got, field)) == bits(getattr(want, field))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_chunk_bounds(spies, algorithm):
    # fewer than M runs stay per run
    run_experiment(grid(algorithm, functions=("F1",), runs=M - 1))
    assert spies == {"loops": [], "runs": M - 1}
    # one run more than a stack of the bound's values holds splits in two
    # near-equal chunks
    values = bound(algorithm)
    wide = values // (5 * 2 * M)
    cap = values // (5 * wide)
    spies.update(runs=0)
    config = grid(algorithm, functions=("F1",), runs=cap + 1, dim=wide,
                  max_iter=3)
    records = run_experiment(config).records
    # each chunk repeats F1, so each runs alone
    assert sorted(spies["loops"]) == [[(algorithm, (cap + 1) // 2)],
                                      [(algorithm, (cap + 2) // 2)]]
    sizes = [size for (_, size), in spies["loops"]]
    assert min(sizes) >= M and max(sizes) <= cap
    assert_per_run_records(config, records)
    # where a stack holds M runs, M + 1 split in two chunks below M, which
    # stay per run
    spies.update(loops=[], runs=0)
    run_experiment(grid(algorithm, functions=("F1",), runs=M + 1,
                        dim=values // (5 * M), max_iter=3))
    assert spies == {"loops": [], "runs": M + 1}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_run_too_wide_for_the_bound_stays_per_run(spies, algorithm):
    # M runs of 5 x (bound // (5 M) + 1) values overflow a stack
    run_experiment(grid(algorithm, functions=("F1",),
                        dim=bound(algorithm) // (5 * M) + 1, max_iter=2))
    assert spies == {"loops": [], "runs": M}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_run_a_bound_admits_draws_inline(monkeypatch, algorithm):
    # the widest run the bound admits, at the pop_size floor and at 30,
    # draws each iteration's block below the draw-ahead threshold, so a
    # chunk takes no run off its helper thread
    blocks = []

    class Recorded(engine.DrawAhead):
        def __init__(self, draw, shape, count):
            blocks.append(int(np.prod(shape)))
            super().__init__(draw, shape, count)

    monkeypatch.setattr(engine, "DrawAhead", Recorded)
    for pop_size in (engine.ALGORITHMS[algorithm].floor, 30):
        dim = bound(algorithm) // (M * pop_size)
        config = grid(algorithm, functions=("F1",), pop_size=pop_size,
                      dim=dim, max_iter=1)
        tasks = harness._validate(config)
        assert harness._lockstep_chunks(tasks) == [[list(range(M))]]
        run(tasks[0][3], tasks[0][1], benchmarks.lookup("F1").objective())
    assert all(size < AHEAD_MIN_VALUES for size in blocks)
    # every search but mfo's draws its blocks through DrawAhead
    assert len(blocks) == (0 if algorithm == "mfo" else 2)


def test_runtimes_sum_to_the_loop_wall(monkeypatch):
    walls = []

    def timed(chunks):
        start = time.perf_counter()
        results = drive_lockstep(chunks)
        walls.append((time.perf_counter() - start, results))
        return results

    monkeypatch.setattr(harness, "drive_lockstep", timed)
    # one loop of the four algorithms' chunks
    records = run_experiment(grid(algorithms=ALGORITHMS,
                                  functions=("F1", "F7", "F10"),
                                  runs=1)).records
    (wall, results), = walls
    assert len(results) == len(records) == 12
    assert sum(r.runtime_s for r in records) == pytest.approx(wall, rel=0.05)
    assert [r.runtime_s for r in records] == [r.wall_time for r in results]


def test_a_shared_calls_time_is_split_over_its_runs(monkeypatch):
    # on a clock that only the objectives and the searches' steps move: a
    # call of three runs' rows takes 6 s, a run's own call 1 s and each
    # chunk's step 0.5 s, which is the rest, split over all four runs
    clock = [0.0]
    monkeypatch.setattr(engine, "time",
                        SimpleNamespace(perf_counter=lambda: clock[0]))

    def timed(seconds):
        def objective(X):
            clock[0] += seconds
            return (X * X).sum(axis=1)
        return objective

    def paced(search):
        def stepped(config, spaces, rngs):
            steps = search(config, spaces, rngs)
            swarm = next(steps)
            while True:
                clock[0] += 0.5
                swarm = steps.send((yield swarm))
        return stepped

    space, shared, own = SearchSpace.cube(3, -2.0, 2.0), timed(6.0), timed(1.0)
    chunks = [Chunk(paced(engine.ALGORITHMS[a].stack),
                    [EngineConfig(a, pop_size=4, max_iter=4, seed=s)
                     for s in (0, 1)], [space] * 2, objectives, shares)
              for a, objectives, shares in (
                  ("mfo", [shared, shared], ["s", "s"]),
                  ("gwo", [shared, own], ["s", None]))]
    results = drive_lockstep(chunks)
    # five swarms a run: 6 / 3 s of each shared call, or 1 s of its own,
    # plus (2 chunks x 5 steps x 0.5 s) / 4 runs
    assert [r.wall_time for r in results] == [11.25, 11.25, 11.25, 6.25]
    assert clock[0] == sum(r.wall_time for r in results)
