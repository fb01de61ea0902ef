"""A serial grid's lockstep chunks give the per-run records.

``harness.run_experiment`` runs a serial grid's small-d tasks in chunks of
one algorithm and one dimension through ``engine.drive_lockstep``, with
the algorithm's stacked search.  Every record must equal the one
``engine.run`` gives the same task, bit for bit, in every field but
``runtime_s``, for each of the four algorithms.
"""

import time

import numpy as np
import pytest

from nlcmfo import benchmarks, engine, harness
from nlcmfo.benchmarks import clear_composites, register_composite
from nlcmfo.engine import EngineConfig, drive_lockstep, run
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
    """Record each chunk's (algorithm, size) and each per-run call."""
    seen = {"chunks": [], "runs": 0}

    def lockstep(configs, spaces, objectives, search):
        seen["chunks"].append((configs[0].algorithm, len(configs)))
        return drive_lockstep(configs, spaces, objectives, search)

    def single(config, space, objective):
        seen["runs"] += 1
        return run(config, space, objective)

    monkeypatch.setattr(harness, "drive_lockstep", lockstep)
    for name in ("run", "run_pso", "run_gwo"):
        monkeypatch.setattr(harness, name, single)
    return seen


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
    assert spies == {"chunks": [(algorithm, M)], "runs": 0}
    assert_per_run_records(config, records)


@pytest.mark.parametrize("telemetry", ["summary", "full-history"])
def test_cells_of_one_dimension_share_a_chunk(spies, telemetry):
    # four boxes in each algorithm's chunk: a cube, a noisy cube, another
    # cube and F19's fixed [0, 1]^3
    config = grid(algorithms=ALGORITHMS, functions=("F1", "F7", "F9", "F19"),
                  dim=3, runs=2, telemetry=telemetry)
    records = run_experiment(config).records
    assert spies == {"chunks": [(a, 8) for a in ALGORITHMS], "runs": 0}
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
    chunks = harness._lockstep_chunks(tasks)
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
    assert spies["chunks"] == [(tasks[c[0]][3].algorithm, len(c))
                               for c in chunks]
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
    assert spies == {"chunks": [(algorithm, M)], "runs": 0}
    # every run's swarm alone, once per iteration and once at the start
    assert calls == [(5, 3)] * (M * (config.max_iter + 1))
    assert_per_run_records(config, records)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_an_abort_reruns_the_chunk_per_run(spies, composite_sandbox,
                                           algorithm):
    # one NaN at the 13th call of all, inside the chunk: its runs are run
    # again one at a time, and none of those calls returns NaN
    calls = []

    def nan_once(X):
        calls.append(1)
        value = (X * X).sum(axis=1)
        return np.full(X.shape[0], np.nan) if len(calls) == 13 else value

    register_composite({"id": "F24", "dim": 2, "lower": -5.0, "upper": 5.0,
                        "eval": nan_once})
    config = grid(algorithm, functions=("F24",))
    records = run_experiment(config).records
    assert spies == {"chunks": [(algorithm, M)], "runs": M}
    assert len(calls) == 13 + M * (config.max_iter + 1)
    assert_per_run_records(config, records)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_an_aborted_run_keeps_its_error_text(composite_sandbox, monkeypatch,
                                             algorithm):
    # a NaN wherever a swarm row nears the box's upper edge aborts some
    # runs; the records, error text included, equal a serial grid's
    # without chunks
    def edgy(X):
        value = (X * X).sum(axis=1)
        return np.where(X[:, 0] > 4.0, np.nan, value)

    register_composite({"id": "F24", "dim": 2, "lower": -5.0, "upper": 5.0,
                        "eval": edgy})
    config = grid(algorithm, functions=("F24",), runs=8)
    chunked = run_experiment(config).records
    monkeypatch.setattr(harness, "LOCKSTEP_MIN_RUNS", 9)
    per_run = run_experiment(config).records
    assert 0 < sum(r.aborted for r in per_run) < 8
    for a, b in zip(chunked, per_run):
        assert (a.aborted, a.error) == (b.aborted, b.error)
        assert bits(a.best_fitness) == bits(b.best_fitness)
        assert bits(a.best_position) == bits(b.best_position)
        assert bits(a.convergence) == bits(b.convergence)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_constant_objective_keeps_each_start_swarms_row_0(algorithm):
    # no later value is strictly lower, and the first of the tied rows
    # wins: each run's best stays its start swarm's row 0, as in drive
    space = SearchSpace.cube(4, -3.0, 3.0)
    configs = [EngineConfig(algorithm, pop_size=6, max_iter=7, seed=s)
               for s in (0, 4, 11)]

    def flat(X):
        return np.full(X.shape[0], 2.5)

    chunk = drive_lockstep(configs, [space] * 3, [flat] * 3,
                           engine.ALGORITHMS[algorithm].stack)
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
    assert spies == {"chunks": [], "runs": M - 1}
    # one run more than a stack of the bound's values holds splits in two
    # near-equal chunks
    values = bound(algorithm)
    wide = values // (5 * 2 * M)
    cap = values // (5 * wide)
    spies.update(runs=0)
    config = grid(algorithm, functions=("F1",), runs=cap + 1, dim=wide,
                  max_iter=3)
    records = run_experiment(config).records
    assert sorted(spies["chunks"]) == [(algorithm, (cap + 1) // 2),
                                       (algorithm, (cap + 2) // 2)]
    assert min(spies["chunks"])[1] >= M and max(spies["chunks"])[1] <= cap
    assert_per_run_records(config, records)
    # where a stack holds M runs, M + 1 split in two chunks below M, which
    # stay per run
    spies.update(chunks=[], runs=0)
    run_experiment(grid(algorithm, functions=("F1",), runs=M + 1,
                        dim=values // (5 * M), max_iter=3))
    assert spies == {"chunks": [], "runs": M + 1}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_run_too_wide_for_the_bound_stays_per_run(spies, algorithm):
    # M runs of 5 x (bound // (5 M) + 1) values overflow a stack
    run_experiment(grid(algorithm, functions=("F1",),
                        dim=bound(algorithm) // (5 * M) + 1, max_iter=2))
    assert spies == {"chunks": [], "runs": M}


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
        assert harness._lockstep_chunks(tasks) == [list(range(M))]
        run(tasks[0][3], tasks[0][1], benchmarks.lookup("F1").objective())
    assert all(size < AHEAD_MIN_VALUES for size in blocks)
    # every search but mfo's draws its blocks through DrawAhead
    assert len(blocks) == (0 if algorithm == "mfo" else 2)


def test_runtimes_sum_to_the_chunk_wall(monkeypatch):
    walls = []

    def timed(configs, spaces, objectives, search):
        start = time.perf_counter()
        results = drive_lockstep(configs, spaces, objectives, search)
        walls.append((time.perf_counter() - start, results))
        return results

    monkeypatch.setattr(harness, "drive_lockstep", timed)
    records = run_experiment(grid(functions=("F1",))).records
    (wall, results), = walls
    assert sum(r.runtime_s for r in records) == pytest.approx(wall, rel=0.05)
    assert [r.runtime_s for r in records] == [r.wall_time for r in results]
