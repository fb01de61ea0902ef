"""A serial grid's lockstep nlcmfo chunks give the per-run records.

``harness.run_experiment`` runs a serial grid's small-d nlcmfo tasks in
chunks through ``engine.run_nlcmfo_lockstep``.  Every record must equal the
one ``engine.run`` gives the same task, bit for bit, in every field but
``runtime_s``.
"""

import time

import numpy as np
import pytest

from nlcmfo import benchmarks, harness
from nlcmfo.benchmarks import clear_composites, register_composite
from nlcmfo.engine import EngineConfig, run, run_nlcmfo_lockstep
from nlcmfo.harness import ExperimentConfig, run_experiment
from nlcmfo.stochastic import AHEAD_MIN_VALUES

M, V = harness.LOCKSTEP_MIN_RUNS, harness.LOCKSTEP_MAX_VALUES


@pytest.fixture
def composite_sandbox():
    clear_composites()
    yield
    clear_composites()


@pytest.fixture
def spies(monkeypatch):
    """Record each chunk's size and each per-run ``harness.run`` call."""
    seen = {"chunks": [], "runs": 0}

    def lockstep(configs, spaces, objectives):
        seen["chunks"].append(len(configs))
        return run_nlcmfo_lockstep(configs, spaces, objectives)

    def single(config, space, objective):
        seen["runs"] += 1
        return run(config, space, objective)

    monkeypatch.setattr(harness, "run_nlcmfo_lockstep", lockstep)
    monkeypatch.setattr(harness, "run", single)
    return seen


def grid(**overrides):
    values = dict(algorithms=("nlcmfo",), runs=M, pop_size=5, max_iter=8,
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


@pytest.mark.parametrize("fid", benchmarks.BUILTIN_IDS)
def test_each_builtin_chunk_equals_per_run(spies, fid):
    # F7's noise stream is each run's own; F19's box has a bound of 0.0
    config = grid(functions=(fid,))
    records = run_experiment(config).records
    assert spies == {"chunks": [M], "runs": 0}
    assert_per_run_records(config, records)


@pytest.mark.parametrize("telemetry", ["summary", "full-history"])
def test_cells_of_one_dimension_share_a_chunk(spies, telemetry):
    # four boxes in one chunk: a cube, a noisy cube, mfo's cells around
    # it per run, and F19's fixed [0, 1]^3
    config = grid(algorithms=("nlcmfo", "mfo"),
                  functions=("F1", "F7", "F9", "F19"), dim=3, runs=2,
                  telemetry=telemetry)
    records = run_experiment(config).records
    assert spies == {"chunks": [8], "runs": 8}
    assert [(r.algorithm, r.function, r.run_index) for r in records] == [
        (a, f, i) for a in config.algorithms for f in config.functions
        for i in range(2)]
    assert_per_run_records(config, records)


def test_registered_composite_gets_its_own_calls(spies, composite_sandbox):
    calls = []

    def shifted(X):
        calls.append(X.shape)
        return ((X - 1.5) ** 2).sum(axis=1)

    register_composite({"id": "F24", "dim": 3, "lower": -5.0, "upper": 5.0,
                        "eval": shifted})
    config = grid(functions=("F24",))
    records = run_experiment(config).records
    assert spies == {"chunks": [M], "runs": 0}
    # every run's swarm alone, once per iteration and once at the start
    assert calls == [(5, 3)] * (M * (config.max_iter + 1))
    assert_per_run_records(config, records)


def test_an_abort_reruns_the_chunk_per_run(spies, composite_sandbox):
    # one NaN at the 13th call of all, inside the chunk: its runs are run
    # again one at a time, and none of those calls returns NaN
    calls = []

    def nan_once(X):
        calls.append(1)
        value = (X * X).sum(axis=1)
        return np.full(X.shape[0], np.nan) if len(calls) == 13 else value

    register_composite({"id": "F24", "dim": 2, "lower": -5.0, "upper": 5.0,
                        "eval": nan_once})
    config = grid(functions=("F24",))
    records = run_experiment(config).records
    assert spies == {"chunks": [M], "runs": M}
    assert len(calls) == 13 + M * (config.max_iter + 1)
    assert_per_run_records(config, records)


def test_an_aborted_run_keeps_its_error_text(composite_sandbox, monkeypatch):
    # a NaN wherever a moth nears the box's upper edge aborts some runs;
    # the records, error text included, equal a serial grid's without
    # chunks
    def edgy(X):
        value = (X * X).sum(axis=1)
        return np.where(X[:, 0] > 4.0, np.nan, value)

    register_composite({"id": "F24", "dim": 2, "lower": -5.0, "upper": 5.0,
                        "eval": edgy})
    config = grid(functions=("F24",), runs=8)
    chunked = run_experiment(config).records
    monkeypatch.setattr(harness, "LOCKSTEP_MIN_RUNS", 9)
    per_run = run_experiment(config).records
    assert 0 < sum(r.aborted for r in per_run) < 8
    for a, b in zip(chunked, per_run):
        assert (a.aborted, a.error) == (b.aborted, b.error)
        assert bits(a.best_fitness) == bits(b.best_fitness)
        assert bits(a.convergence) == bits(b.convergence)


def test_chunk_bounds(spies):
    # fewer than M runs stay per run
    run_experiment(grid(functions=("F1",), runs=M - 1))
    assert spies == {"chunks": [], "runs": M - 1}
    # one run more than a stack of V values holds splits in two
    # near-equal chunks
    wide = V // (5 * 2 * M)
    cap = V // (5 * wide)
    config = grid(functions=("F1",), runs=cap + 1, dim=wide, max_iter=3)
    records = run_experiment(config).records
    assert sorted(spies["chunks"]) == [(cap + 1) // 2, (cap + 2) // 2]
    assert min(spies["chunks"]) >= M and max(spies["chunks"]) <= cap
    assert_per_run_records(config, records)
    # where a stack holds M runs, M + 1 split in two chunks below M, which
    # stay per run
    spies.update(chunks=[], runs=0)
    run_experiment(grid(functions=("F1",), runs=M + 1, dim=V // (5 * M),
                        max_iter=3))
    assert spies == {"chunks": [], "runs": M + 1}


def test_a_run_too_wide_for_the_bound_stays_per_run(spies):
    # M runs of 5 x (V // (5 M) + 1) values overflow a stack: per run, as
    # is every run that would draw its Levy block on a helper thread
    run_experiment(grid(functions=("F1",), dim=V // (5 * M) + 1,
                        max_iter=2))
    assert spies == {"chunks": [], "runs": M}
    assert 2 * V // M < AHEAD_MIN_VALUES


def test_runtimes_sum_to_the_chunk_wall(monkeypatch):
    walls = []

    def timed(configs, spaces, objectives):
        start = time.perf_counter()
        results = run_nlcmfo_lockstep(configs, spaces, objectives)
        walls.append((time.perf_counter() - start, results))
        return results

    monkeypatch.setattr(harness, "run_nlcmfo_lockstep", timed)
    records = run_experiment(grid(functions=("F1",))).records
    (wall, results), = walls
    assert sum(r.runtime_s for r in records) == pytest.approx(wall, rel=0.05)
    assert [r.runtime_s for r in records] == [r.wall_time for r in results]
