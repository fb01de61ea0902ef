"""Tests for the particle swarm and grey wolf baselines."""

import itertools

import numpy as np
import pytest

from nlcmfo.engine import (EngineConfig, ObjectiveError, _gwo, _pso,
                           evaluate_swarm, run, update_flames)
from nlcmfo.space import SearchSpace, clip_bounds
from nlcmfo.stochastic import make_rng


def sphere(xs):
    """Each row's squared norm, one np.dot per row."""
    return np.array([np.dot(x, x) for x in xs])


def _space(dim=2, half=5.0):
    return SearchSpace.cube(dim, -half, half)


def _pso_config(**kwargs):
    return EngineConfig(algorithm="pso", **kwargs)


def _gwo_config(**kwargs):
    return EngineConfig(algorithm="gwo", **kwargs)


def test_config_defaults():
    pso = EngineConfig(algorithm="pso")
    assert (pso.pop_size, pso.max_iter, pso.seed) == (30, 500, 0)
    gwo = EngineConfig(algorithm="gwo")
    assert (gwo.pop_size, gwo.max_iter, gwo.seed) == (30, 500, 0)


@pytest.mark.parametrize("cfg", [_pso_config, _gwo_config])
def test_telemetry_contract(cfg):
    n, big_t = 10, 30
    result = run(cfg(pop_size=n, max_iter=big_t, seed=3), _space(3), sphere)
    assert result.evaluations == n * (big_t + 1)
    assert result.convergence.shape == (big_t,)
    assert result.mean_fitness.shape == (big_t,)
    assert result.trajectory.shape == (big_t,)
    assert np.all(np.diff(result.convergence) <= 0.0)
    assert result.best_fitness == result.convergence[-1]
    assert result.best_fitness == sphere(result.best_position[None, :])[0]
    assert _space(3).contains(result.best_position[None, :])


@pytest.mark.parametrize("cfg", [_pso_config, _gwo_config])
def test_bitwise_replay(cfg):
    config = cfg(pop_size=8, max_iter=25, seed=7, record_history=True)
    a = run(config, _space(), sphere)
    b = run(config, _space(), sphere)
    assert a.best_fitness == b.best_fitness
    assert np.array_equal(a.convergence, b.convergence)
    assert np.array_equal(a.history, b.history)


def test_pso_velocity_clamp_bounds_step_size():
    # a box wide enough that the clamp, not the walls, limits every step
    space = _space(2, 50.0)
    result = run(_pso_config(pop_size=8, max_iter=20, seed=1,
                             record_history=True), space, sphere)
    vmax = 0.2 * (space.upper - space.lower)   # 20 per dimension
    steps = np.abs(np.diff(result.history, axis=0))
    assert steps.max() <= vmax.max() + 1e-12
    # early steps reach the clamp, so a looser one would show
    assert steps.max() == pytest.approx(vmax.max())


# (lower, upper, whether the velocity clamp takes float bounds): one
# clamp width on a cube and on a box that is not one, several widths, and
# a width whose clamp 0.2 * 5e-324 rounds to zero, so its bounds are +-0.0
CLAMP_BOXES = [([-100.0] * 3, [100.0] * 3, True),
               ([-1.28] * 3, [1.28] * 3, True),
               ([0.0, 1.0, -3.0], [1.0, 2.0, -2.0], True),
               ([0.0, -1.0, -2.0], [1.0, 0.0, 2.0], False),
               ([0.0] * 3, [5e-324] * 3, False)]


@pytest.mark.parametrize("lower,upper,scalar", CLAMP_BOXES)
def test_pso_velocity_clamp_gives_np_clip_bytes_at_the_edges(lower, upper,
                                                             scalar):
    # signed zeros, infinities, NaN, values on a clamp bound and one ulp
    # past it: the clamp's bounds give np.clip's bytes with the (d,) arrays
    space = SearchSpace(lower, upper)
    vmax = 0.2 * (space.upper - space.lower)
    bounds = clip_bounds(-vmax, vmax)
    assert isinstance(bounds[0], float) == scalar
    edges = {vmax[0], -vmax[0], np.nextafter(vmax[0], np.inf),
             np.nextafter(-vmax[0], -np.inf)}
    specials = [-0.0, 0.0, np.inf, -np.inf, np.nan, -1.0, 0.5, 1.0, *edges]
    vel = np.array(list(itertools.product(specials, repeat=3)))
    want = np.clip(vel, -vmax, vmax)
    vel.clip(*bounds, out=vel)
    assert vel.tobytes() == want.tobytes()


@pytest.mark.parametrize("lower,upper,scalar", CLAMP_BOXES)
def test_pso_matches_reference_loop_on_every_clamp_box(reference_runs, lower,
                                                       upper, scalar):
    config = _pso_config(pop_size=7, max_iter=12, seed=3,
                         record_history=True)
    space = SearchSpace(lower, upper)
    got = run(config, space, sphere)
    want = reference_runs["pso"](config, space, sphere)
    assert got.history.tobytes() == want.history.tobytes()
    assert got.convergence.tobytes() == want.convergence.tobytes()


@pytest.mark.parametrize("search,cfg", [(_pso, _pso_config),
                                        (_gwo, _gwo_config)])
def test_yielded_moves_are_fresh_and_never_rewritten(search, cfg):
    # the moves are computed in per-run buffers; a buffer that leaked into
    # a yielded move would share memory with it and be rewritten later
    config = cfg(pop_size=6, max_iter=10, seed=4)
    space = _space(5)
    steps = search(config, space, make_rng(config.seed))
    pos = next(steps)
    yielded = []
    for _ in range(config.max_iter):
        fit = evaluate_swarm(sphere, pos)
        move = steps.send((pos, fit))
        for earlier, _ in yielded:
            assert not np.shares_memory(move, earlier)
        yielded.append((move, move.copy()))
        pos = space.clip(move)
    for move, copy in yielded:
        assert move.tobytes() == copy.tobytes()


def test_gwo_requires_three_leaders():
    with pytest.raises(ValueError):
        run(_gwo_config(pop_size=2, max_iter=5), _space(), sphere)


@pytest.mark.parametrize("cfg", [_pso_config, _gwo_config])
def test_bad_iteration_count_rejected(cfg):
    with pytest.raises(ValueError):
        run(cfg(pop_size=5, max_iter=0), _space(), sphere)


@pytest.mark.parametrize("cfg", [_pso_config, _gwo_config])
def test_objective_errors_propagate(cfg):
    def bad(xs):
        return np.full(xs.shape[0], np.nan)

    with pytest.raises(ObjectiveError):
        run(cfg(pop_size=5, max_iter=5, seed=0), _space(), bad)


def _fold_wolf_by_wolf(leaders, leader_fit, pos, fit):
    """Sequential strict-< insertion of each wolf into the three leaders."""
    leaders, leader_fit = leaders.copy(), leader_fit.copy()
    for i in range(len(fit)):
        if fit[i] < leader_fit[0]:
            leaders[2], leader_fit[2] = leaders[1], leader_fit[1]
            leaders[1], leader_fit[1] = leaders[0], leader_fit[0]
            leaders[0], leader_fit[0] = pos[i].copy(), fit[i]
        elif fit[i] < leader_fit[1]:
            leaders[2], leader_fit[2] = leaders[1], leader_fit[1]
            leaders[1], leader_fit[1] = pos[i].copy(), fit[i]
        elif fit[i] < leader_fit[2]:
            leaders[2], leader_fit[2] = pos[i].copy(), fit[i]
    return leaders, leader_fit


@pytest.mark.parametrize("seed", range(25))
def test_gwo_leader_fold_is_stable_top3_with_ties(seed):
    rng = np.random.default_rng(seed)
    # fitness from a handful of integers, so leaders and wolves tie often;
    # distinct positions show which of the tied rows was kept
    leader_fit = np.sort(rng.integers(0, 5, 3).astype(float))
    leaders = rng.normal(size=(3, 2))
    fit = rng.integers(0, 5, 8).astype(float)
    pos = rng.normal(size=(8, 2))
    expected = _fold_wolf_by_wolf(leaders, leader_fit, pos, fit)
    folded = update_flames(leaders, leader_fit, pos, fit, 3)
    assert np.array_equal(folded[0], expected[0])
    assert np.array_equal(folded[1], expected[1])


def test_reduced_scale_ordering_on_sphere():
    # all three optimizers descend; the chaotic engine dominates on a
    # quadratic centered at the origin by many orders of magnitude
    space = SearchSpace.cube(10, -100.0, 100.0)
    seeds = range(3)

    def mean_best(algorithm):
        return float(np.mean([
            run(EngineConfig(algorithm, pop_size=15, max_iter=80, seed=s),
                space, sphere).best_fitness for s in seeds]))

    pso, gwo, chaotic = (mean_best(a) for a in ("pso", "gwo", "nlcmfo"))
    initial_scale = 10 * 100.0 ** 2   # typical random point in the box
    assert pso < initial_scale / 100
    assert gwo < 1e-2
    assert chaotic < 1e-100
    assert chaotic < gwo < pso
