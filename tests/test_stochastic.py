"""Tests for seeded RNG construction, chaotic maps, and Levy sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcmfo.stochastic import (MAP_KINDS, ChaoticDomainError, ChaoticMap,
                               LevySampler, ParameterError, levy_sigma_x,
                               make_rng)

# ---------------------------------------------------------------------------
# make_rng
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_draws_bitwise():
    a = make_rng(123).random(100)
    b = make_rng(123).random(100)
    assert np.array_equal(a, b)


def test_distinct_seeds_differ():
    assert not np.array_equal(make_rng(0).random(10), make_rng(1).random(10))


def test_streams_of_one_seed_are_distinct_but_reproducible():
    base = make_rng(7, stream=0).random(50)
    noise = make_rng(7, stream=1).random(50)
    assert not np.array_equal(base, noise)
    assert np.array_equal(noise, make_rng(7, stream=1).random(50))


# ---------------------------------------------------------------------------
# levy_sigma_x
# ---------------------------------------------------------------------------

# high-precision reference values, frozen from an offline 40-digit computation
SIGMA_X = {
    0.5: 1.4793375595943194,
    0.8: 1.1399911035806584,
    1.0: 1.0,
    1.2: 0.8788288320297926,
    1.5: 0.6965745025576968,
    1.8: 0.4586381160386818,
    1.99: 0.1106930223072873,
}


def test_sigma_x_reference_values():
    for alpha, expected in SIGMA_X.items():
        assert levy_sigma_x(alpha) == pytest.approx(expected, abs=1e-12)


def test_sigma_x_is_one_at_alpha_one():
    assert levy_sigma_x(1.0) == 1.0


@pytest.mark.parametrize("alpha", [0.3, 0.29, 0.0, -1.0, 1.991, 2.0, 2.5])
def test_sigma_x_rejects_out_of_range_alpha(alpha):
    with pytest.raises(ParameterError):
        levy_sigma_x(alpha)


@given(st.floats(min_value=0.301, max_value=1.99))
def test_sigma_x_finite_and_positive(alpha):
    value = levy_sigma_x(alpha)
    assert math.isfinite(value) and value > 0.0


# ---------------------------------------------------------------------------
# chaotic maps
# ---------------------------------------------------------------------------

# one step from state 0.7 for each map, normalized output; frozen offline
STEP_FROM_07 = {
    "sine": 0.8090169943749475,
    "chebyshev": 0.0004,  # raw value -0.9992, normalized from [-1,1]
}


def test_known_kinds():
    assert set(MAP_KINDS) == set(STEP_FROM_07)


def test_single_step_values_from_common_state():
    for kind, expected in STEP_FROM_07.items():
        assert ChaoticMap(kind, 0.7).step() == pytest.approx(expected, abs=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError):
        ChaoticMap("henon")


@pytest.mark.parametrize("kind,state", [
    ("sine", 1.5),
    ("chebyshev", -1.5),
    ("sine", float("nan")),
])
def test_out_of_domain_state_rejected(kind, state):
    with pytest.raises(ChaoticDomainError):
        ChaoticMap(kind, state)


def test_chebyshev_accepts_negative_native_state():
    # native domain is [-1, 1]; output is normalized into [0, 1]
    value = ChaoticMap("chebyshev", -0.5).step()
    assert 0.0 <= value <= 1.0


@given(st.sampled_from(MAP_KINDS), st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_normalized_orbit_stays_in_unit_interval(kind, state):
    m = ChaoticMap(kind, state)
    for _ in range(100):
        assert 0.0 <= m.step() <= 1.0


def test_boundary_value_is_returned_exactly_then_orbit_recovers():
    # sine maps 0.5 to exactly 1.0; the stored state is nudged inward so
    # the orbit does not collapse to the 1 -> ~0 -> ~0 absorbing chain
    m = ChaoticMap("sine", 0.5)
    assert m.step() == 1.0
    assert m.state == 1.0 - 1e-7
    tail = [m.step() for _ in range(60)]
    assert all(0.0 <= v <= 1.0 for v in tail)
    assert max(tail) > 0.1
    assert len(set(tail)) > 10


@pytest.mark.parametrize("kind,state", [(kind, 0.7) for kind in MAP_KINDS] + [
    ("sine", 0.5),        # sine(0.5) = 1.0 exactly: the keep-alive nudge
    ("chebyshev", -0.5),  # normalized from [-1, 1]
])
def test_steps_equal_successive_single_steps(kind, state):
    batched, single = ChaoticMap(kind, state), ChaoticMap(kind, state)
    drawn = np.concatenate([batched.steps(1), batched.steps(30), batched.steps(169)])
    stepped = np.array([single.step() for _ in range(200)])
    assert drawn.tobytes() == stepped.tobytes()
    assert batched.state == single.state


def test_long_generic_orbits_do_not_die():
    # 500 steps from a generic state: the last stretch still varies
    for kind in MAP_KINDS:
        m = ChaoticMap(kind, 0.7)
        values = [m.step() for _ in range(500)]
        assert all(0.0 <= v <= 1.0 for v in values), kind
        assert len(set(values[-50:])) > 1, kind


# ---------------------------------------------------------------------------
# Levy sampler
# ---------------------------------------------------------------------------


def test_sampler_defaults():
    s = LevySampler()
    assert s.alpha == 1.5
    assert s.sigma_x == levy_sigma_x(1.5)


def test_sampler_rejects_bad_alpha():
    with pytest.raises(ParameterError):
        LevySampler(alpha=2.5)


def test_matrix_matches_manual_reconstruction():
    # draw layout: one x block, then one y block, from the shared generator
    s = LevySampler(1.5)
    got = s.matrix(4, 3, make_rng(42))
    rng = make_rng(42)
    x = rng.normal(0.0, s.sigma_x, size=(4, 3))
    y = rng.normal(0.0, 1.0, size=(4, 3))
    expected = 0.05 * x / np.abs(y) ** (1.0 / 1.5)
    assert np.array_equal(got, expected)


def test_matrix_shape_and_determinism():
    s = LevySampler()
    m = s.matrix(7, 2, make_rng(0))
    assert m.shape == (7, 2)
    assert np.array_equal(m, s.matrix(7, 2, make_rng(0)))
    assert not np.array_equal(m, s.matrix(7, 2, make_rng(1)))


def test_draws_are_heavy_tailed_and_sign_symmetric():
    draws = LevySampler().matrix(200, 100, make_rng(11)).ravel()
    # mostly small steps with occasional long jumps
    assert np.median(np.abs(draws)) < 0.1
    assert np.max(np.abs(draws)) > 0.5
    positive = np.mean(draws > 0)
    assert 0.45 < positive < 0.55
