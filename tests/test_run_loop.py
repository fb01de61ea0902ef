"""Tests for the run contract all four optimizers share: ``drive`` keeps
the best-so-far of any search, every runner replays the original
per-algorithm loops byte for byte, and grid runs keep the contract's
properties serially and on a worker pool."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcmfo.baselines import run_gwo, run_pso
from nlcmfo.benchmarks import lookup
from nlcmfo.engine import EngineConfig, drive, run
from nlcmfo.harness import ExperimentConfig, run_experiment
from nlcmfo.space import SearchSpace
from nlcmfo.stochastic import make_rng

ALGORITHMS = ("mfo", "nlcmfo", "pso", "gwo")
RUNNERS = {"mfo": run, "nlcmfo": run, "pso": run_pso, "gwo": run_gwo}


def _per_row(x):
    return float(np.sum(x * x - 3.0 * np.cos(x)) + x[0])


def _plateau(x):
    """Coarse steps signed by x[0]: many exact ties, and -0.0 against 0.0."""
    return math.copysign(math.floor(float(np.sum(x * x)) / 4.0), x[0])


def _signed_zero(x):
    """Every point ties: -0.0 left of the origin, 0.0 elsewhere."""
    return -0.0 if x[0] < 0 else 0.0


_PER_ROW = {"per-row": _per_row, "plateau": _plateau,
            "signed-zero": _signed_zero}


def _problem(kind, seed):
    """A fresh (space, objective) pair; F7's noise stream restarts each call."""
    if kind in _PER_ROW:
        return SearchSpace([-4.0, -1.0, 0.5], [3.0, 2.0, 6.0]), _PER_ROW[kind]
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
@pytest.mark.parametrize("kind", ["F1", "per-row", "F7", "plateau",
                                  "signed-zero"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runners_match_reference_loops_bytewise(reference_runs, algorithm,
                                                kind, record_history, seed):
    config = EngineConfig(algorithm, pop_size=7, max_iter=12, seed=seed,
                          record_history=record_history)
    space, objective = _problem(kind, seed)
    got = RUNNERS[algorithm](config, space, objective)
    space, objective = _problem(kind, seed)
    want = reference_runs[algorithm](config, space, objective)
    assert _result_bytes(got) == _result_bytes(want)


@pytest.mark.parametrize("algorithm", ["pso", "gwo"])
def test_baseline_runners_match_reference_loops_at_d200(reference_runs,
                                                        algorithm):
    # a non-toy shape for the baselines' per-run draw and work buffers
    config = EngineConfig(algorithm, pop_size=30, max_iter=10, seed=5,
                          record_history=True)
    func = lookup("F1")
    got = RUNNERS[algorithm](config, func.space(200), func.objective())
    want = reference_runs[algorithm](config, func.space(200), func.objective())
    assert _result_bytes(got) == _result_bytes(want)


# ---------------------------------------------------------------------------
# drive's own contract, on a search that yields nothing but moves
# ---------------------------------------------------------------------------

class _Walk:
    pop_size, max_iter, record_history = 5, 9, False

    def __init__(self, seed):
        self.seed = seed


def _random_walk(sent):
    """A search that moves every row by a seeded step and records each
    ``(positions, fitness)`` it is sent.  Each odd row repeats the row
    before it with its last two coordinates swapped: a different point with
    the same plateau value, so ties inside one swarm are common."""
    def search(config, space, rng):
        pos = space.sample(config.pop_size, rng)
        while True:
            move = pos + rng.normal(0.0, 1.0, pos.shape)
            move[1::2] = move[0:-1:2][:, [0, 2, 1]]
            pos, fit = yield move
            sent.append((pos.copy(), fit.copy()))
    return search


@pytest.mark.parametrize("bad", [{"pop_size": 5.0}, {"max_iter": 2.5},
                                 {"max_iter": True}])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_non_integer_counts_rejected_before_the_run(algorithm, bad):
    calls = []

    def objective(x):
        calls.append(x)
        return _per_row(x)

    config = EngineConfig(algorithm, **{"pop_size": 5, "max_iter": 3, **bad})
    space, _ = _problem("per-row", 0)
    with pytest.raises(TypeError, match="must be an integer"):
        RUNNERS[algorithm](config, space, objective)
    assert calls == []


@pytest.mark.parametrize("runner,algorithm", [
    (runner, algorithm) for runner in (run, run_pso, run_gwo)
    for algorithm in ALGORITHMS + ("simplex",)
    if RUNNERS.get(algorithm) is not runner],
    ids=lambda v: getattr(v, "__name__", v))
def test_runners_refuse_other_algorithms_before_the_run(runner, algorithm):
    # each runner drives only its own algorithms; any other is refused by
    # the validator, before the objective sees a point
    calls = []

    def objective(x):
        calls.append(x)
        return _per_row(x)

    space, _ = _problem("per-row", 0)
    config = EngineConfig(algorithm, pop_size=5, max_iter=3)
    with pytest.raises(ValueError, match=f"unsupported algorithm '{algorithm}'"):
        runner(config, space, objective)
    assert calls == []


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["per-row", "plateau", "signed-zero"])
def test_drive_keeps_the_first_lowest_row_of_every_swarm(kind, seed):
    space, objective = SearchSpace.cube(3, -4.0, 4.0), _PER_ROW[kind]
    evaluated = []

    def recorded(x):
        value = objective(x)
        evaluated.append((x.copy(), value))
        return value

    config, sent = _Walk(seed), []
    result = drive(config, space, recorded, _random_walk(sent))
    n, big_t = config.pop_size, config.max_iter
    assert result.evaluations == len(evaluated) == n * (big_t + 1)
    assert len(sent) == big_t
    for i, (pos, fit) in enumerate(sent):
        rows = evaluated[i * n:(i + 1) * n]
        assert np.array_equal(pos, [x for x, _ in rows])
        assert fit.tobytes() == np.array([v for _, v in rows]).tobytes()

    # the first point of the lowest fitness so far, swarm by swarm and row
    # by row; a tie (-0.0 against 0.0 included) never replaces it
    best_x, best = evaluated[0]
    want = []
    for k, (x, value) in enumerate(evaluated):
        if value < best:
            best_x, best = x, value
        if k >= n and (k + 1) % n == 0:
            want.append(best)
    assert result.convergence.tobytes() == np.array(want).tobytes()
    assert np.float64(result.best_fitness).tobytes() == np.float64(best).tobytes()
    assert result.best_position.tobytes() == best_x.tobytes()


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
