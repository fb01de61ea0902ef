"""Tests for the run contract all four optimizers share: ``drive`` keeps
the best-so-far of any search, ``run`` replays the original
per-algorithm loops byte for byte, and grid runs keep the contract's
properties serially and on a worker pool."""

import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcmfo import engine, hypertune, stochastic
from nlcmfo.benchmarks import (clear_composites, load_composite_pack, lookup,
                               register_composite)
from nlcmfo.engine import (EngineConfig, ObjectiveError, _gwo, _mfo, _nlcmfo,
                           _pso, drive, run)
from nlcmfo.harness import ExperimentConfig, run_experiment
from nlcmfo.space import SearchSpace
from nlcmfo.stochastic import AHEAD_MIN_VALUES, LevySampler

ALGORITHMS = ("mfo", "nlcmfo", "pso", "gwo")


def _per_row(x):
    return float(np.sum(x * x - 3.0 * np.cos(x)) + x[0])


def _plateau(x):
    """Coarse steps signed by x[0]: many exact ties, and -0.0 against 0.0."""
    return math.copysign(math.floor(float(np.sum(x * x)) / 4.0), x[0])


def _signed_zero(x):
    """Every point ties: -0.0 left of the origin, 0.0 elsewhere."""
    return -0.0 if x[0] < 0 else 0.0


def _rowwise(f):
    """The swarm objective that gives each row f's value at that point."""
    return lambda xs: np.array([f(x) for x in xs])


_PER_ROW = {"per-row": _rowwise(_per_row), "plateau": _rowwise(_plateau),
            "signed-zero": _rowwise(_signed_zero)}


def _problem(kind, seed):
    """A fresh (space, objective) pair; F7's noise stream restarts each call.

    "unit-cube" is the sphere on [0, 1]^5: its minimum sits on the lower
    bound, so clipped rows, GWO's leaders and its sums land on exact
    zeros, where a -0.0 for 0.0 shows in the bytes.
    """
    if kind in _PER_ROW:
        return SearchSpace([-4.0, -1.0, 0.5], [3.0, 2.0, 6.0]), _PER_ROW[kind]
    if kind == "unit-cube":
        return SearchSpace.cube(5, 0.0, 1.0), lookup("F1").objective()
    func = lookup(kind)
    return func.space(3), func.objective(seed)


def _result_bytes(result):
    history = None if result.history is None else result.history.tobytes()
    return (result.best_position.tobytes(),
            np.float64(result.best_fitness).tobytes(),
            result.convergence.tobytes(), result.mean_fitness.tobytes(),
            result.trajectory.tobytes(), result.evaluations, history)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("record_history", [False, True])
@pytest.mark.parametrize("kind", ["F1", "per-row", "F7", "plateau",
                                  "signed-zero", "unit-cube"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runners_match_reference_loops_bytewise(reference_runs, algorithm,
                                                kind, record_history, seed):
    config = EngineConfig(algorithm, pop_size=7, max_iter=12, seed=seed,
                          record_history=record_history)
    space, objective = _problem(kind, seed)
    got = run(config, space, objective)
    space, objective = _problem(kind, seed)
    want = reference_runs[algorithm](config, space, objective)
    assert _result_bytes(got) == _result_bytes(want)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_unit_cube_case_reaches_exact_zeros(algorithm):
    # the premise of the "unit-cube" reference case: the runs put
    # coordinates on the bound 0.0
    config = EngineConfig(algorithm, pop_size=7, max_iter=12, seed=0,
                          record_history=True)
    space, objective = _problem("unit-cube", 0)
    result = run(config, space, objective)
    assert (result.history == 0.0).any()


@pytest.mark.parametrize("search, algorithm, other",
                         [(_mfo, "mfo", "nlcmfo"), (_nlcmfo, "nlcmfo", "mfo")],
                         ids=["mfo", "nlcmfo"])
def test_searches_never_read_the_algorithm_name(search, algorithm, other):
    # each registry name has its own search: driven under the other name's
    # config, a search still gives its own algorithm's bytes
    space, objective = _problem("F7", 0)
    got = drive(EngineConfig(other, pop_size=7, max_iter=12, seed=3,
                             record_history=True), space, objective, search)
    space, objective = _problem("F7", 0)
    want = run(EngineConfig(algorithm, pop_size=7, max_iter=12, seed=3,
                            record_history=True), space, objective)
    assert _result_bytes(got) == _result_bytes(want)
    searches = [entry[0] for entry in engine.ALGORITHMS.values()]
    assert len(set(searches)) == len(searches) == 4


@pytest.mark.parametrize("algorithm", ["pso", "gwo"])
def test_baseline_runners_match_reference_loops_at_d200(reference_runs,
                                                        algorithm):
    # a non-toy shape for the baselines' per-run draw and work buffers
    config = EngineConfig(algorithm, pop_size=30, max_iter=10, seed=5,
                          record_history=True)
    func = lookup("F1")
    got = run(config, func.space(200), func.objective())
    want = reference_runs[algorithm](config, func.space(200), func.objective())
    assert _result_bytes(got) == _result_bytes(want)


# ---------------------------------------------------------------------------
# draw blocks of AHEAD_MIN_VALUES or more values, filled one iteration ahead
# ---------------------------------------------------------------------------

DRAWN_AHEAD = {"nlcmfo": _nlcmfo, "pso": _pso, "gwo": _gwo}


def _block_dims(algorithm, n):
    """d=30, the largest d whose draw block is filled inline, the smallest
    whose block is filled ahead, and d=1100, at pop_size n."""
    per_row = (6 if algorithm == "gwo" else 2) * n
    below = (AHEAD_MIN_VALUES - 1) // per_row
    return {"d30": 30, "below": below, "above": below + 1, "d1100": 1100}


@pytest.mark.parametrize("size", ["d30", "below", "above", "d1100"])
@pytest.mark.parametrize("algorithm", DRAWN_AHEAD)
def test_runners_match_reference_loops_across_the_draw_ahead_threshold(
        reference_runs, algorithm, size):
    dims = _block_dims(algorithm, 30)
    assert dims["below"] < 1100 and 30 < dims["above"]
    config = EngineConfig(algorithm, pop_size=30, max_iter=6, seed=3,
                          record_history=True)
    func = lookup("F1")
    got = run(config, func.space(dims[size]), func.objective())
    want = reference_runs[algorithm](config, func.space(dims[size]),
                                     func.objective())
    assert _result_bytes(got) == _result_bytes(want)


@pytest.mark.parametrize("algorithm", DRAWN_AHEAD)
def test_draw_ahead_bytes_hold_under_a_short_switch_interval(reference_runs,
                                                             algorithm):
    # the main thread and the draw thread trade the interpreter lock as
    # often as it lets them; the run and the helper share only the rng,
    # one at a time
    config = EngineConfig(algorithm, pop_size=30, max_iter=6, seed=8)
    func = lookup("F1")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run(config, func.space(1100), func.objective())
    finally:
        sys.setswitchinterval(interval)
    want = reference_runs[algorithm](config, func.space(1100),
                                     func.objective())
    assert _result_bytes(got) == _result_bytes(want)


class _RecordedRng:
    """A run's generator that records its draws as ``events``: the start
    swarm, then each block fill's start and end (with whether it ran on
    the main thread) and each exact-zero redraw.  Normal blocks numbered in
    ``zeros`` get two exact-zero denominators."""

    def __init__(self, rng, events, zeros=()):
        self._rng, self.events, self.zeros = rng, events, zeros
        self.fills = 0

    def random(self, size=None, out=None):
        if out is None:
            self.events.append("sample")
            return self._rng.random(size)
        return self._fill(self._rng.random, out)

    def standard_normal(self, out):
        out = self._fill(self._rng.standard_normal, out)
        if self.fills in self.zeros:
            out[1, 0, :2] = 0.0
        return out

    def normal(self, loc, scale, size):
        self.events.append(("redraw", self.fills, size))
        return self._rng.normal(loc, scale, size)

    def _fill(self, method, out):
        self.fills += 1
        on_main = threading.current_thread() is threading.main_thread()
        self.events.append(("fill", self.fills, on_main))
        method(out=out)
        self.events.append(("filled", self.fills))
        return out


@pytest.mark.parametrize("size", ["d30", "d1100"])
@pytest.mark.parametrize("algorithm", DRAWN_AHEAD)
def test_draw_ahead_keeps_the_inline_stream_order(monkeypatch, algorithm,
                                                  size):
    # each fill starts after the last one ended and after the redraws of
    # its iteration (nlcmfo's block 2 holds exact zeros), on the helper
    # thread only above the threshold; the last iteration starts no fill,
    # and the run's bytes are those of the all-inline run
    n, big_t = 30, 4
    dim = _block_dims(algorithm, n)[size]
    zeros = (2,) if algorithm == "nlcmfo" else ()
    config = EngineConfig(algorithm, pop_size=n, max_iter=big_t, seed=2)
    func = lookup("F1")

    def recorded_run():
        events = []
        search = DRAWN_AHEAD[algorithm]
        result = drive(config, func.space(dim), func.objective(),
                       lambda c, s, rng: search(
                           c, s, _RecordedRng(rng, events, zeros)))
        return events, _result_bytes(result)

    events, got = recorded_run()
    on_main = size == "d30"
    want = ["sample"]
    for k in range(1, big_t + 1):
        want += [("fill", k, on_main), ("filled", k)]
        if k in zeros:
            want.append(("redraw", k, 2))
    assert events == want
    monkeypatch.setattr(stochastic, "AHEAD_MIN_VALUES", math.inf)
    inline_events, inline = recorded_run()
    assert inline == got
    assert inline_events == [e[:2] + (True,) if e[0] == "fill" else e
                             for e in want]


class _SignalledRng:
    """A run's generator whose k-th standard-normal fill sets
    ``started[k]`` as it begins."""

    def __init__(self, rng, started):
        self._rng, self.started, self.fills = rng, started, 0

    def random(self, size):
        return self._rng.random(size)

    def standard_normal(self, out):
        self.fills += 1
        self.started[self.fills].set()
        return self._rng.standard_normal(out=out)

    def normal(self, loc, scale, size):
        return self._rng.normal(loc, scale, size)


def test_nlcmfo_starts_the_next_fill_before_the_current_transform(
        monkeypatch, reference_runs):
    # the transform of block k (LevySampler.matrix on a drawn block) waits
    # until block k+1's fill has begun; a fill started only after the
    # transform would leave it waiting, and the timeout fails the test
    n, big_t = 30, 4
    started = [threading.Event() for _ in range(big_t + 2)]
    transform = LevySampler.matrix
    waited = []

    def matrix(self, rows, cols, out):
        k = len(waited) + 1
        waited.append(k == big_t or started[k + 1].wait(5.0))
        assert waited[-1], f"block {k + 1}'s fill had not begun"
        return transform(self, rows, cols, out)

    monkeypatch.setattr(LevySampler, "matrix", matrix)
    config = EngineConfig("nlcmfo", pop_size=n, max_iter=big_t, seed=4)
    func = lookup("F1")
    got = drive(config, func.space(1100), func.objective(),
                lambda c, s, rng: _nlcmfo(c, s, _SignalledRng(rng, started)))
    assert waited == [True] * big_t
    want = reference_runs["nlcmfo"](config, func.space(1100),
                                    func.objective())
    assert _result_bytes(got) == _result_bytes(want)


def test_nlcmfo_transforms_on_the_run_thread_and_draws_on_the_helper(
        monkeypatch):
    # the helper runs only the draw half, which nothing traced wraps; the
    # transform in LevySampler.matrix stays on the run's thread
    entered = {"matrix": [], "draw": []}
    for name in entered:
        original = getattr(LevySampler, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            entered[_name].append(threading.current_thread())
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(LevySampler, name, spy)
    config = EngineConfig("nlcmfo", pop_size=30, max_iter=5, seed=1)
    run(config, SearchSpace.cube(1100, -100.0, 100.0),
        lookup("F1").objective())
    main = threading.main_thread()
    assert entered["matrix"] == [main] * 5
    assert len(entered["draw"]) == 5
    assert all(thread is not main for thread in entered["draw"])


@pytest.mark.parametrize("outcome", ["finished", "non-finite", "bad shape"])
@pytest.mark.parametrize("algorithm", DRAWN_AHEAD)
def test_no_draw_thread_outlives_its_run(algorithm, outcome):
    # the first swarm is evaluated before the draw thread starts, the
    # second while it runs; a run that raises joins it too, while its
    # traceback (which holds the run's frames) is still alive
    before = threading.active_count()
    counts = []

    def objective(xs):
        counts.append(threading.active_count())
        values = np.add.reduce(xs * xs, axis=1)
        if len(counts) == 3 and outcome == "non-finite":
            values[1] = np.nan
        if len(counts) == 3 and outcome == "bad shape":
            values = values[:-1]
        return values

    config = EngineConfig(algorithm, pop_size=30, max_iter=4)
    space = SearchSpace.cube(1100, -100.0, 100.0)
    if outcome == "finished":
        run(config, space, objective)
    else:
        error = ObjectiveError if outcome == "non-finite" else ValueError
        with pytest.raises(error) as raised:
            run(config, space, objective)
        assert raised.tb is not None
    assert counts[:2] == [before, before + 1]
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# every in-tree objective takes the whole swarm
# ---------------------------------------------------------------------------

def _counted(objective, calls):
    """``objective``, recording the shapes of each swarm and its values."""
    def spy(xs):
        values = objective(xs)
        calls.append((xs.shape, values.shape))
        return values
    return spy


@pytest.fixture
def composite_sandbox():
    clear_composites()
    yield
    clear_composites()


@pytest.mark.parametrize("kind", ["F1", "F7", "registered", "pack"])
@pytest.mark.parametrize("algorithm", ["mfo", "nlcmfo"])
def test_in_tree_objectives_take_one_swarm_per_iteration(
        composite_sandbox, make_pack, algorithm, kind):
    n, big_t = 6, 4
    if kind == "registered":
        register_composite({"id": "F24", "dim": 3, "lower": -2, "upper": 2,
                            "eval": lambda X: X.sum(axis=1)})
    elif kind == "pack":
        load_composite_pack(make_pack())
    func = lookup({"registered": "F24", "pack": "F25"}.get(kind, kind))
    space = func.space(3)
    calls = []
    run(EngineConfig(algorithm, pop_size=n, max_iter=big_t), space,
        _counted(func.objective(), calls))
    assert calls == [((n, 3), (n,))] * (big_t + 1)


def test_tune_objective_takes_one_swarm_per_iteration(monkeypatch):
    n, big_t = 5, 3
    calls = []
    monkeypatch.setattr(hypertune, "run", lambda config, space, objective:
                        run(config, space, _counted(objective, calls)))
    hypertune.tune(EngineConfig(pop_size=n, max_iter=big_t),
                   hypertune.make_toy_dataset(40))
    assert calls == [((n, 4), (n,))] * (big_t + 1)


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
                                 {"max_iter": True}, {"seed": 2.5},
                                 {"seed": True}])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_non_integer_counts_rejected_before_the_run(algorithm, bad):
    calls = []

    def objective(xs):
        calls.append(xs)
        return _PER_ROW["per-row"](xs)

    config = EngineConfig(algorithm, **{"pop_size": 5, "max_iter": 3, **bad})
    space, _ = _problem("per-row", 0)
    with pytest.raises(TypeError, match="must be an integer"):
        run(config, space, objective)
    assert calls == []


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_negative_seed_rejected_before_the_run(algorithm):
    calls = []

    def objective(xs):
        calls.append(xs)
        return _PER_ROW["per-row"](xs)

    config = EngineConfig(algorithm, pop_size=5, max_iter=3, seed=-1)
    space, _ = _problem("per-row", 0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        run(config, space, objective)
    assert calls == []


@pytest.mark.parametrize("algorithm,floor", [("mfo", 2), ("nlcmfo", 2),
                                             ("pso", 2), ("gwo", 3)])
def test_each_algorithm_runs_at_its_pop_size_floor_and_not_below(algorithm,
                                                                  floor):
    # the registry's floor is refused one below, before the objective sees a
    # point, and a swarm of exactly the floor runs to the end
    calls = []

    def objective(xs):
        calls.append(xs)
        return _PER_ROW["per-row"](xs)

    space, _ = _problem("per-row", 0)
    with pytest.raises(ValueError, match=f"pop_size must be >= {floor}"):
        run(EngineConfig(algorithm, pop_size=floor - 1, max_iter=3), space,
            objective)
    assert calls == []
    result = run(EngineConfig(algorithm, pop_size=floor, max_iter=3), space,
                 objective)
    assert result.evaluations == floor * (3 + 1)
    assert math.isfinite(result.best_fitness)


@pytest.mark.parametrize("algorithm", ["simplex", ["pso"], "MFO", ""],
                         ids=["simplex", "unhashable", "upper-case", "empty"])
def test_runners_refuse_other_algorithms_before_the_run(algorithm):
    # a name outside the registry is refused by the validator, before the
    # objective sees a point
    calls = []

    def objective(xs):
        calls.append(xs)
        return _PER_ROW["per-row"](xs)

    space, _ = _problem("per-row", 0)
    config = EngineConfig(algorithm, pop_size=5, max_iter=3)
    with pytest.raises(ValueError, match=re.escape(
            f"unsupported algorithm {algorithm!r}")):
        run(config, space, objective)
    assert calls == []


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["per-row", "plateau", "signed-zero"])
def test_drive_keeps_the_first_lowest_row_of_every_swarm(kind, seed):
    space, objective = SearchSpace.cube(3, -4.0, 4.0), _PER_ROW[kind]
    evaluated = []

    def recorded(xs):
        values = objective(xs)
        evaluated.extend(zip(xs.copy(), values))
        return values

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
    # f7 is spelled in lower case; F16 has a fixed dim that ignores "dim"
    "functions": st.lists(st.sampled_from(("F1", "f7", "F10", "F16")),
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
    # one record per run, in algorithm -> function -> run order
    assert [(r.algorithm, r.function, r.dim, r.run_index, r.seed)
            for r in result.records] == [
        (algorithm, fid.upper(),
         grid["dim"] if lookup(fid).scalable else lookup(fid).dim,
         r, grid["base_seed"] + r)
        for algorithm in grid["algorithms"] for fid in grid["functions"]
        for r in range(grid["runs"])]
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
