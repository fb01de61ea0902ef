"""Tests for the moth-flame engine: schedules, moves, archive, full runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcmfo import engine
from nlcmfo.engine import (EngineConfig, MapScheduler, ObjectiveError,
                           convergence_constant, evaluate_swarm,
                           flame_count, nonlinear_weight, run,
                           spiral_step_mfo, spiral_step_nlcmfo, t_mfo,
                           t_nlcmfo, update_flames)
from nlcmfo.space import SearchSpace
from nlcmfo.stochastic import ChaoticMap, make_rng


def sphere(x):
    return float(np.dot(x, x))


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_flame_count_endpoints_and_midpoint():
    assert flame_count(30, 0, 500) == 30
    assert flame_count(30, 500, 500) == 1
    assert flame_count(30, 250, 500) == 16


def test_flame_count_monotone_nonincreasing():
    for n, big_t in ((30, 500), (7, 13), (2, 1)):
        counts = [flame_count(n, l, big_t) for l in range(big_t + 1)]
        assert counts[0] == n and counts[-1] == 1
        assert all(a >= b for a, b in zip(counts, counts[1:]))


@given(st.integers(2, 80), st.integers(1, 600))
@settings(max_examples=60, deadline=None)
def test_flame_count_bounds(n, big_t):
    for l in (0, big_t // 2, big_t):
        assert 1 <= flame_count(n, l, big_t) <= n


def test_convergence_constant_endpoints():
    assert convergence_constant(0, 500) == -1.0
    assert convergence_constant(500, 500) == -2.0
    assert convergence_constant(250, 500) == -1.5


def test_nonlinear_weight_values():
    assert nonlinear_weight(0, 500) == 4.0
    assert nonlinear_weight(500, 500) < 1e-15
    assert nonlinear_weight(250, 500) == pytest.approx(4.936392163467182e-4,
                                                       rel=1e-12)


def test_nonlinear_weight_monotone_decreasing():
    values = [nonlinear_weight(l, 500) for l in range(501)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_t_mfo_scalar_and_vector():
    rng = make_rng(0)
    scalar = t_mfo(-1.5, rng)
    assert np.ndim(scalar) == 0
    vec = t_mfo(-1.5, rng, size=1000)
    assert vec.shape == (1000,)
    assert np.all(vec > -1.5) and np.all(vec <= 1.0)


def test_t_mfo_deterministic():
    assert np.array_equal(t_mfo(-1.2, make_rng(3), size=8),
                          t_mfo(-1.2, make_rng(3), size=8))


def test_t_nlcmfo_example():
    cm = ChaoticMap("sine", 0.7).step()
    assert t_nlcmfo(-2.0, cm) == pytest.approx(1.4270509831248424, abs=1e-12)


def test_t_nlcmfo_vectorized():
    t = t_nlcmfo(-1.5, np.array([0.0, 0.5, 1.0]))
    assert t.shape == (3,)
    assert np.allclose(t, [1.0, 0.25, 1.5])


@given(st.floats(min_value=-2.0, max_value=-1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_t_nlcmfo_range(a, cm):
    assert 0.0 <= t_nlcmfo(a, cm) <= 2.0


# ---------------------------------------------------------------------------
# spiral moves
# ---------------------------------------------------------------------------


def test_spiral_mfo_example():
    got = spiral_step_mfo(np.array([0.0]), np.array([1.0]), -1.0)
    assert float(got[0]) == pytest.approx(1.3678794411714423, abs=1e-12)


def test_spiral_mfo_zero_distance_returns_flame():
    flame = np.array([2.0, -3.0, 0.5])
    for t in (-1.7, -0.3, 0.9):
        got = spiral_step_mfo(flame, flame, t)
        assert np.array_equal(got, flame)


def test_spiral_mfo_quarter_t_lands_on_flame_exactly():
    moth = np.array([[0.3, -2.0], [4.0, 1.0]])
    flame = np.array([[1.0, 4.0], [-0.5, 2.5]])
    for k in (-3, -1, 0, 1, 4):
        t = 0.25 + k / 2
        got = spiral_step_mfo(moth, flame, t)
        assert np.array_equal(got, flame), t


def test_spiral_nlcmfo_example():
    got = spiral_step_nlcmfo(np.array([0.0]), np.array([1.0]), -1.0,
                             4.0, np.array([0.1]))
    assert float(got[0]) == pytest.approx(0.247152, abs=1e-6)


def test_spiral_nlcmfo_zero_weight_identity_row_returns_flame():
    moth = np.array([0.3, 0.4])
    flame = np.array([1.0, 2.0])
    got = spiral_step_nlcmfo(moth, flame, 0.7, 0.0, np.ones(2))
    assert np.array_equal(got, flame)


def test_spiral_nlcmfo_zero_distance_scales_flame():
    # a converged moth is still perturbed: the move becomes levy * flame
    flame = np.array([2.0, -1.0])
    levy = np.array([0.25, 3.0])
    got = spiral_step_nlcmfo(flame, flame, 0.4, 2.0, levy)
    assert np.array_equal(got, levy * flame)


def test_spiral_broadcast_shapes():
    rng = make_rng(0)
    moth = rng.random((6, 3))
    flame = rng.random((6, 3))
    t = rng.random(6)[:, None]
    assert spiral_step_mfo(moth, flame, t).shape == (6, 3)
    levy = rng.random((6, 3))
    assert spiral_step_nlcmfo(moth, flame, t, 2.0, levy).shape == (6, 3)


# ---------------------------------------------------------------------------
# pairing, evaluation, flame archive
# ---------------------------------------------------------------------------


def test_run_pairs_moths_with_ranked_flames_then_the_worst(monkeypatch):
    # at t = 1/4 the spiral lands exactly on the paired flame, so the first
    # post-move swarm shows the pairing: flame_count(5, 1, 2) = 3 flames
    # survive, moths 0-2 take flames 0-2 and moths 3-4 the worst of them
    monkeypatch.setattr(engine, "t_mfo",
                        lambda a, rng, size=None: np.full(size, 0.25))
    space = SearchSpace.cube(2, -5.0, 5.0)
    result = run(EngineConfig(algorithm="mfo", pop_size=5, max_iter=2, seed=4,
                              record_history=True), space, sphere)
    start = space.sample(5, make_rng(4))
    flames = start[np.argsort([sphere(x) for x in start], kind="stable")]
    assert np.array_equal(result.history[0], flames[[0, 1, 2, 2, 2]])


def test_evaluate_swarm_values():
    pos = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
    assert np.array_equal(evaluate_swarm(sphere, pos), [5.0, 0.0, 25.0])


def test_evaluate_swarm_rejects_nonfinite():
    def bad(x):
        return float("nan") if x[0] > 0 else 0.0

    pos = np.array([[-1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ObjectiveError) as exc:
        evaluate_swarm(bad, pos)
    assert np.array_equal(exc.value.position, [2.0, 0.0])
    assert str(exc.value) == ("objective returned non-finite value nan "
                              "at row 1 (d=2) [2.0, 0.0]")


def test_evaluate_swarm_calls_vectorized_objective_once():
    calls = []

    def swarm_sphere(x):
        calls.append(x.shape)
        return np.sum(x * x, axis=1)

    swarm_sphere.vectorized = True
    pos = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
    assert np.array_equal(evaluate_swarm(swarm_sphere, pos), [5.0, 0.0, 25.0])
    assert calls == [(3, 2)]


def test_evaluate_swarm_vectorized_reports_first_nonfinite_row():
    def swarm_bad(x):
        values = np.zeros(x.shape[0])
        values[x[:, 0] > 0] = np.nan
        values[x[:, 0] > 2] = np.inf
        return values

    swarm_bad.vectorized = True
    pos = np.array([[-1.0, 0.0], [2.0, 5.0], [3.0, 0.0]])
    with pytest.raises(ObjectiveError) as exc:
        evaluate_swarm(swarm_bad, pos)
    assert np.array_equal(exc.value.position, [2.0, 5.0])
    assert math.isnan(exc.value.value)
    assert str(exc.value).endswith("at row 1 (d=2) [2.0, 5.0]")


def test_objective_error_shows_only_the_head_of_a_long_row():
    def swarm_inf(x):
        return np.where(x[:, 0] > 0, np.inf, 0.0)

    swarm_inf.vectorized = True
    pos = np.zeros((4, 1000))
    pos[3, :4] = [0.5, -1.25, 3.0, 7.0]
    with pytest.raises(ObjectiveError) as exc:
        evaluate_swarm(swarm_inf, pos)
    assert exc.value.position.tobytes() == pos[3].tobytes()
    assert str(exc.value) == ("objective returned non-finite value inf "
                              "at row 3 (d=1000) [0.5, -1.25, 3.0, ...]")


def test_update_flames_keeps_best_of_merge():
    flame_pos = np.array([[0.0], [1.0]])
    flame_fit = np.array([1.0, 3.0])
    moth_pos = np.array([[2.0], [3.0]])
    moth_fit = np.array([0.5, 9.0])
    pos, fit = update_flames(flame_pos, flame_fit, moth_pos, moth_fit, 2)
    assert np.array_equal(fit, [0.5, 1.0])
    assert np.array_equal(pos, [[2.0], [0.0]])


def test_update_flames_tie_prefers_archive_row():
    flame_pos = np.array([[0.0]])
    flame_fit = np.array([1.0])
    moth_pos = np.array([[5.0]])
    moth_fit = np.array([1.0])
    pos, fit = update_flames(flame_pos, flame_fit, moth_pos, moth_fit, 1)
    assert pos[0, 0] == 0.0


def test_update_flames_never_worsens():
    rng = make_rng(9)
    flame_pos = rng.random((5, 2))
    flame_fit = np.sort(rng.random(5))
    moth_pos = rng.random((5, 2))
    moth_fit = rng.random(5) + 2.0   # strictly worse than every flame
    pos, fit = update_flames(flame_pos, flame_fit, moth_pos, moth_fit, 5)
    assert np.array_equal(fit, flame_fit)
    assert np.array_equal(pos, flame_pos)


# ---------------------------------------------------------------------------
# map scheduler
# ---------------------------------------------------------------------------


def test_scheduler_starts_on_primary():
    s = MapScheduler()
    assert s.active is s.primary
    assert (s.primary.kind, s.primary.state) == ("sine", 0.7)
    assert (s.secondary.kind, s.secondary.state) == ("chebyshev", 0.7)


def test_scheduler_toggles_after_window_repeats():
    s = MapScheduler()
    same = np.array([1.0, 2.0])
    for _ in range(4):
        assert s.observe(same, same) is False
    assert s.observe(same, same) is True
    assert s.active is s.secondary


def test_scheduler_change_resets_counter():
    s = MapScheduler()
    same = np.array([1.0])
    for _ in range(4):
        s.observe(same, same)
    assert s.observe(same, np.array([0.5])) is False   # progress: reset
    for _ in range(4):
        assert s.observe(same, same) is False
    assert s.observe(same, same) is True


def test_scheduler_toggles_back_after_another_window():
    s = MapScheduler()
    same = np.array([1.0])
    for active in ("secondary", "primary"):
        for _ in range(4):
            assert s.observe(same, same) is False
        assert s.observe(same, same) is True
        assert s.active is getattr(s, active)


def test_scheduler_near_equal_is_progress():
    # stagnation means an exactly repeated fitness vector, not a close one
    s = MapScheduler()
    now = np.array([1.0])
    for _ in range(4):
        s.observe(now, now)
    assert s.observe(now, np.array([1.0 + 1e-12])) is False
    assert s.active is s.primary
    assert s.observe(now, now) is False   # the near-equal reset the count


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def _space(dim=2):
    return SearchSpace.cube(dim, -5.0, 5.0)


@pytest.mark.parametrize("algorithm", ["mfo", "nlcmfo"])
def test_run_telemetry_contract(algorithm):
    n, big_t = 12, 40
    result = run(EngineConfig(algorithm=algorithm, pop_size=n, max_iter=big_t,
                              seed=1), _space(3), sphere)
    assert result.evaluations == n * (big_t + 1)
    assert result.convergence.shape == (big_t,)
    assert result.mean_fitness.shape == (big_t,)
    assert result.trajectory.shape == (big_t,)
    assert result.history is None
    assert np.all(np.diff(result.convergence) <= 0.0)
    assert result.best_fitness == result.convergence[-1]
    assert result.best_fitness == sphere(result.best_position)
    assert _space(3).contains(result.best_position[None, :])
    assert np.all(np.isfinite(result.mean_fitness))
    assert result.wall_time > 0.0


@pytest.mark.parametrize("algorithm", ["mfo", "nlcmfo"])
def test_run_replays_bitwise(algorithm):
    config = EngineConfig(algorithm=algorithm, pop_size=8, max_iter=30, seed=5,
                          record_history=True)
    a = run(config, _space(), sphere)
    b = run(config, _space(), sphere)
    assert np.array_equal(a.best_position, b.best_position)
    assert a.best_fitness == b.best_fitness
    assert np.array_equal(a.convergence, b.convergence)
    assert np.array_equal(a.mean_fitness, b.mean_fitness)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert np.array_equal(a.history, b.history)


def test_run_history_snapshots():
    n, big_t, dim = 6, 25, 2
    result = run(EngineConfig(algorithm="nlcmfo", pop_size=n, max_iter=big_t,
                              seed=2, record_history=True), _space(dim), sphere)
    assert result.history.shape == (big_t, n, dim)
    flat = result.history.reshape(-1, dim)
    assert _space(dim).contains(flat)
    assert np.array_equal(result.trajectory, result.history[:, 0, 0])


def test_run_seed_changes_outcome():
    a = run(EngineConfig(pop_size=8, max_iter=20, seed=0), _space(), sphere)
    b = run(EngineConfig(pop_size=8, max_iter=20, seed=1), _space(), sphere)
    assert not np.array_equal(a.trajectory, b.trajectory)


def test_run_objective_error_carries_position():
    def bad(x):
        return float("nan")

    with pytest.raises(ObjectiveError) as exc:
        run(EngineConfig(pop_size=4, max_iter=5, seed=0), _space(), bad)
    assert exc.value.position.shape == (2,)
    assert _space().contains(exc.value.position[None, :])


@pytest.mark.parametrize("kwargs", [
    {"algorithm": "simplex"},
    {"pop_size": 1},
    {"max_iter": 0},
    {"algorithm": "nlcmfo", "pop_size": 1},
])
def test_run_validation_errors(kwargs):
    with pytest.raises(ValueError):
        run(EngineConfig(**kwargs), _space(), sphere)


def test_mfo_refines_origin_and_shifted_quadratics():
    shifted_min = np.array([2.5, -1.5])

    def shifted(x):
        return float(np.sum((x - shifted_min) ** 2))

    config = EngineConfig(algorithm="mfo", pop_size=20, max_iter=150, seed=0)
    assert run(config, _space(), sphere).best_fitness < 1e-3
    assert run(config, _space(), shifted).best_fitness < 1e-3


def test_nlcmfo_collapses_to_origin_but_stalls_off_origin():
    # the flame term is multiplied by the Levy factor, which drives strong
    # convergence to optima at the origin and poor refinement elsewhere
    shifted_min = np.array([2.5, -1.5])

    def shifted(x):
        return float(np.sum((x - shifted_min) ** 2))

    config = EngineConfig(algorithm="nlcmfo", pop_size=20, max_iter=150, seed=0)
    assert run(config, _space(), sphere).best_fitness < 1e-20
    off_origin = [
        run(EngineConfig(algorithm="nlcmfo", pop_size=20, max_iter=150, seed=s),
            _space(), shifted).best_fitness
        for s in range(5)
    ]
    on_origin_mfo = [
        run(EngineConfig(algorithm="mfo", pop_size=20, max_iter=150, seed=s),
            _space(), shifted).best_fitness
        for s in range(5)
    ]
    assert np.mean(off_origin) > 1e-3
    assert np.mean(off_origin) > np.mean(on_origin_mfo)


def test_single_iteration_run():
    result = run(EngineConfig(pop_size=4, max_iter=1, seed=0), _space(), sphere)
    assert result.convergence.shape == (1,)
    assert result.evaluations == 8
