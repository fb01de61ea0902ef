"""Tests for seeded RNG construction, chaotic maps, and Levy sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcmfo.stochastic import ChaoticMap, LevySampler, levy_sigma_x, make_rng

# the two maps nlcmfo runs
MAP_KINDS = ("chebyshev", "sine")

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


@pytest.mark.parametrize("seed, error, message", [
    (-1, ValueError, "data_seed must be >= 0"),
    (1.0, TypeError, "data_seed must be an integer, got 1.0"),
    (True, TypeError, "data_seed must be an integer, got True")])
def test_bad_seed_is_named_by_the_caller(seed, error, message):
    with pytest.raises(error) as raised:
        make_rng(seed, stream=1, name="data_seed")
    assert str(raised.value) == message
    with pytest.raises(error, match="^seed must be"):
        make_rng(seed)


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
    with pytest.raises(ValueError, match="^levy stability index .* outside"):
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


def test_single_step_values_from_common_state():
    for kind, expected in STEP_FROM_07.items():
        assert ChaoticMap(kind).step() == pytest.approx(expected, abs=1e-12)


def _map_at(kind, state):
    """A ``kind`` map whose orbit goes on from ``state`` (not nlcmfo's 0.7)."""
    m = ChaoticMap(kind)
    m.state = state
    return m


def test_chebyshev_accepts_negative_native_state():
    # native domain is [-1, 1]; output is normalized into [0, 1]
    value = _map_at("chebyshev", -0.5).step()
    assert 0.0 <= value <= 1.0


@given(st.sampled_from(MAP_KINDS), st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_normalized_orbit_stays_in_unit_interval(kind, state):
    m = _map_at(kind, state)
    for _ in range(100):
        assert 0.0 <= m.step() <= 1.0


def test_boundary_value_is_returned_exactly_then_orbit_recovers():
    # sine maps 0.5 to exactly 1.0; the stored state is nudged inward so
    # the orbit does not collapse to the 1 -> ~0 -> ~0 absorbing chain
    m = _map_at("sine", 0.5)
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
    batched, single = _map_at(kind, state), _map_at(kind, state)
    drawn = np.concatenate([batched.steps(1), batched.steps(30), batched.steps(169)])
    stepped = np.array([single.step() for _ in range(200)])
    assert drawn.tobytes() == stepped.tobytes()
    assert batched.state == single.state


def test_long_generic_orbits_do_not_die():
    # 500 steps from a generic state: the last stretch still varies
    for kind in MAP_KINDS:
        m = ChaoticMap(kind)
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
    # class constants: nothing sets them
    assert LevySampler.alpha == 1.5
    assert LevySampler.sigma_x == levy_sigma_x(1.5)
    assert vars(s) == {}


def _sampled(s, rows, cols, rng, out=None):
    """``draw`` into ``out`` (fresh when None), then ``matrix`` on it."""
    if out is None:
        out = np.empty((2, rows, cols))
    s.draw(rng, out)
    return s.matrix(rows, cols, out)


def test_matrix_matches_manual_reconstruction():
    # draw layout: one x block, then one y block, from the shared generator
    s = LevySampler()
    got = _sampled(s, 4, 3, make_rng(42))
    rng = make_rng(42)
    x = rng.normal(0.0, s.sigma_x, size=(4, 3))
    y = rng.normal(0.0, 1.0, size=(4, 3))
    expected = 0.05 * x / np.abs(y) ** (1.0 / 1.5)
    assert np.array_equal(got, expected)


class _StubRng:
    """Writes chosen values through ``standard_normal(out=)``, hands out
    queued redraws from ``normal`` and records every call."""

    def __init__(self, fill, redraws=()):
        self.fill = np.array(fill, dtype=np.float64)
        self.redraws = [np.array(r, dtype=np.float64) for r in redraws]
        self.calls = []

    def standard_normal(self, out):
        self.calls.append(("standard_normal", out.shape))
        out[...] = self.fill

    def normal(self, loc, scale, size):
        self.calls.append(("normal", loc, scale, size))
        return self.redraws.pop(0)


def _levy(sigma_x, z_x, y):
    """Mantegna's quotient with x drawn as rng.normal(0, s) draws it."""
    return 0.05 * (0.0 + sigma_x * np.asarray(z_x)) / np.abs(y) ** (1.0 / 1.5)


def test_matrix_turns_a_negative_zero_numerator_draw_into_zero():
    s = LevySampler()
    got = _sampled(s, 1, 3, _StubRng([[[-0.0, 0.5, -2.0]], [[2.0, -1.5, 0.3]]]))
    assert got[0, 0] == 0.0 and not np.signbit(got[0, 0])
    want = _levy(s.sigma_x, [[-0.0, 0.5, -2.0]], [[2.0, -1.5, 0.3]])
    assert got.tobytes() == want.tobytes()


def test_matrix_redraws_exact_zero_denominators_in_order():
    # y holds 0.0 and -0.0 at three places (C order); the first redraw
    # gives another zero at the first of them, which the second redraws
    s = LevySampler()
    x = [[1.0, -1.0], [0.25, 2.0]]
    rng = _StubRng([x, [[0.0, 1.5], [-0.0, 0.0]]],
                   redraws=[[0.0, 2.0, -4.0], [0.5]])
    got = _sampled(s, 2, 2, rng)
    assert rng.calls == [("standard_normal", (2, 2, 2)),
                         ("normal", 0.0, 1.0, 3), ("normal", 0.0, 1.0, 1)]
    want = _levy(s.sigma_x, x, [[0.5, 1.5], [2.0, -4.0]])
    assert got.tobytes() == want.tobytes()


def test_matrix_into_a_work_array_gives_the_fresh_bytes():
    s = LevySampler()
    buf = np.empty((2, 4, 3))
    rng, fresh_rng, manual_rng = make_rng(42), make_rng(42), make_rng(42)
    for _ in range(3):
        got = _sampled(s, 4, 3, rng, out=buf)
        assert got.base is buf and np.shares_memory(got, buf[0])
        assert got.tobytes() == _sampled(s, 4, 3, fresh_rng).tobytes()
        x = manual_rng.normal(0.0, s.sigma_x, size=(4, 3))
        y = manual_rng.normal(0.0, 1.0, size=(4, 3))
        assert got.tobytes() == (0.05 * x / np.abs(y) ** (1.0 / 1.5)).tobytes()


def test_matrix_shape_and_determinism():
    s = LevySampler()
    m = _sampled(s, 7, 2, make_rng(0))
    assert m.shape == (7, 2)
    assert np.array_equal(m, _sampled(s, 7, 2, make_rng(0)))
    assert not np.array_equal(m, _sampled(s, 7, 2, make_rng(1)))


def test_draws_are_heavy_tailed_and_sign_symmetric():
    draws = _sampled(LevySampler(), 200, 100, make_rng(11)).ravel()
    # mostly small steps with occasional long jumps
    assert np.median(np.abs(draws)) < 0.1
    assert np.max(np.abs(draws)) > 0.5
    positive = np.mean(draws > 0)
    assert 0.45 < positive < 0.55
