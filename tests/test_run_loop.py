"""Tests for the run contract all four optimizers share: every runner
replays the original per-algorithm loops byte for byte, and grid runs keep
the contract's properties serially and on a worker pool."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcmfo.baselines import GwoConfig, PsoConfig, run_gwo, run_pso
from nlcmfo.benchmarks import lookup
from nlcmfo.engine import EngineConfig, run
from nlcmfo.harness import ExperimentConfig, run_experiment
from nlcmfo.space import SearchSpace
from nlcmfo.stochastic import make_rng

ALGORITHMS = ("mfo", "nlcmfo", "pso", "gwo")
RUNNERS = {"mfo": run, "nlcmfo": run, "pso": run_pso, "gwo": run_gwo}


def _config(algorithm, **kwargs):
    if algorithm == "pso":
        return PsoConfig(**kwargs)
    if algorithm == "gwo":
        return GwoConfig(**kwargs)
    return EngineConfig(algorithm=algorithm, **kwargs)


def _per_row(x):
    return float(np.sum(x * x - 3.0 * np.cos(x)) + x[0])


def _problem(kind, seed):
    """A fresh (space, objective) pair; F7's noise stream restarts each call."""
    if kind == "per-row":
        return SearchSpace([-4.0, -1.0, 0.5], [3.0, 2.0, 6.0]), _per_row
    func = lookup(kind)
    rng = make_rng(seed, stream=1) if func.noisy else None
    return func.space(3), func.objective(rng=rng)


def _result_bytes(result):
    history = None if result.history is None else result.history.tobytes()
    return (result.best_position.tobytes(),
            np.float64(result.best_fitness).tobytes(),
            result.convergence.tobytes(), result.mean_fitness.tobytes(),
            result.trajectory.tobytes(), result.evaluations, history)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("record_history", [False, True])
@pytest.mark.parametrize("kind", ["F1", "per-row", "F7"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runners_match_reference_loops_bytewise(reference_runs, algorithm,
                                                kind, record_history, seed):
    config = _config(algorithm, pop_size=7, max_iter=12, seed=seed,
                     record_history=record_history)
    space, objective = _problem(kind, seed)
    got = RUNNERS[algorithm](config, space, objective)
    space, objective = _problem(kind, seed)
    want = reference_runs[algorithm](config, space, objective)
    assert _result_bytes(got) == _result_bytes(want)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("algorithm", ["pso", "gwo"])
def test_initial_positions_match_reference_loops_bytewise(reference_runs,
                                                          algorithm, seed):
    # rows partly outside the box, so the start swarm is clipped first
    start = make_rng(100 + seed).uniform(-6.0, 6.0, size=(6, 3))
    config = _config(algorithm, pop_size=6, max_iter=9, seed=seed,
                     record_history=True, initial_positions=start)
    space, objective = _problem("per-row", seed)
    got = RUNNERS[algorithm](config, space, objective)
    want = reference_runs[algorithm](config, space, objective)
    assert _result_bytes(got) == _result_bytes(want)


# ---------------------------------------------------------------------------
# grid properties over all four algorithms
# ---------------------------------------------------------------------------

small_grids = st.fixed_dictionaries({
    "algorithms": st.lists(st.sampled_from(ALGORITHMS), min_size=1,
                           max_size=4, unique=True).map(tuple),
    "functions": st.lists(st.sampled_from(("F1", "F7", "F10", "F16")),
                          min_size=1, max_size=2, unique=True).map(tuple),
    "dim": st.integers(1, 4),
    "runs": st.integers(1, 3),
    "pop_size": st.integers(3, 8),
    "max_iter": st.integers(1, 10),
    "base_seed": st.integers(0, 2**31),
})


def _record_bytes(rec):
    return (rec.algorithm, rec.function, rec.dim, rec.run_index, rec.seed,
            np.float64(rec.best_fitness).tobytes(),
            rec.best_position.tobytes(), rec.evaluations, rec.aborted,
            rec.convergence.tobytes(), rec.mean_curve.tobytes(),
            rec.trajectory.tobytes(), rec.history.tobytes())


@settings(max_examples=25, deadline=None)
@given(grid=small_grids)
def test_grid_runs_keep_the_run_contract(grid):
    result = run_experiment(ExperimentConfig(telemetry="full-history",
                                             workers=1, **grid))
    n, big_t = grid["pop_size"], grid["max_iter"]
    for rec in result.records:
        assert not rec.aborted
        assert rec.evaluations == n * (big_t + 1)
        assert rec.convergence.shape == (big_t,)
        assert np.all(np.diff(rec.convergence) <= 0.0)
        assert rec.convergence[-1] == rec.best_fitness
        space = lookup(rec.function).space(rec.dim)
        assert rec.history.shape == (big_t, n, rec.dim)
        assert space.contains(rec.history.reshape(-1, rec.dim))
        assert space.contains(rec.best_position[None, :])


@settings(max_examples=10, deadline=None)
@given(grid=small_grids.filter(lambda g: g["runs"] >= 2))
def test_pooled_grid_records_equal_serial_bitwise(grid):
    serial = run_experiment(ExperimentConfig(telemetry="full-history",
                                             workers=1, **grid))
    pooled = run_experiment(ExperimentConfig(telemetry="full-history",
                                             workers=2, **grid))
    assert ([_record_bytes(r) for r in serial.records]
            == [_record_bytes(r) for r in pooled.records])
