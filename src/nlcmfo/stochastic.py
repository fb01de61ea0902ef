"""Randomness primitives: seeded RNG construction, chaotic maps, Levy sampling.

Every stochastic component in this package draws from a
``numpy.random.Generator`` backed by PCG64.  ``make_rng`` is the single
construction point: one root seed governs a whole run, and independent
sub-streams (e.g. the engine's draws vs. an objective's noise) are derived
from the same seed via distinct stream indices, so reseeding reproduces
every draw bitwise.
"""

from __future__ import annotations

import math

import numpy as np

# Nudge applied to a raw next state that lands exactly on a boundary of the
# map's domain (0 or 1 for sine, +-1 for chebyshev).  0 is a fixed point of
# sine, and chebyshev sends both -1 and 1 to its fixed point 1, so without
# the nudge such an orbit would give one constant draw forever.  sine(0.5)
# is exactly 1.0, and sine(1.0) rounds to 1.2e-16, a stretch of some 30
# draws near 0; from the nudged 1 - 1e-7 the orbit is back above 0.1
# within 13 draws.
_EDGE = 1e-7


class ChaoticDomainError(ValueError):
    """Chaotic map state outside the map's native domain."""


class ParameterError(ValueError):
    """A tunable parameter outside its documented range."""


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Build the package-wide RNG: PCG64 seeded through a SeedSequence.

    Parameters
    ----------
    seed : int
        Root seed.  Identical seeds reproduce every draw bitwise.
    stream : int
        Sub-stream index.  Stream 0 is the optimizer's stream; noisy
        objectives (F7) use stream 1 of the same root seed, so a single
        seed still governs the whole run.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


def _chebyshev(x: float) -> float:
    return math.cos(4.0 * math.acos(x))


def _sine(x: float) -> float:
    return math.sin(math.pi * x)


# kind -> (step, native_lo, native_hi).  Each map sends its domain into
# itself.  Chebyshev's [-1,1] is normalized to [0,1] by (x+1)/2 before use;
# sine's unit interval passes through unchanged.
_MAPS = {
    "chebyshev": (_chebyshev, -1.0, 1.0),
    "sine": (_sine, 0.0, 1.0),
}

MAP_KINDS = tuple(_MAPS)


class ChaoticMap:
    """The sine or chebyshev scalar chaotic map with a normalized [0,1] output.

    The map holds its raw state in the native domain (unit interval for
    sine, [-1,1] for chebyshev).  ``step`` returns the exact next value
    normalized to [0,1]; the stored state is additionally nudged off exact
    absorbing boundaries so the orbit stays alive.  ``steps`` draws several
    values at once.
    """

    def __init__(self, kind: str, state: float = 0.7):
        if kind not in _MAPS:
            raise ParameterError(
                f"unknown chaotic map {kind!r}; choose one of {MAP_KINDS}"
            )
        self.kind = kind
        self._step_fn, self._lo, self._hi = _MAPS[kind]
        if not (self._lo <= state <= self._hi) or not math.isfinite(state):
            raise ChaoticDomainError(
                f"{kind} map state {state!r} outside native domain "
                f"[{self._lo}, {self._hi}]"
            )
        self.state = float(state)

    def step(self) -> float:
        """Advance one step; return the normalized next value in [0, 1]."""
        return float(self.steps(1)[0])

    def steps(self, k: int) -> np.ndarray:
        """Advance k steps; return the k normalized next values in [0, 1].

        The state needs no domain check here: the constructor checks the
        start state, both maps send their domain into itself, and the
        keep-alive nudge keeps later states off the absorbing points.
        """
        step_fn, keep_alive = self._step_fn, self._keep_alive
        state = self.state
        raw = []
        for _ in range(k):
            value = step_fn(state)
            raw.append(value)
            state = keep_alive(value)
        self.state = state
        raw = np.array(raw)
        if self._lo == -1.0:
            return (raw + 1.0) / 2.0
        return raw

    def _keep_alive(self, raw: float) -> float:
        if raw == self._lo:
            return self._lo + _EDGE
        if raw == self._hi:
            return self._hi - _EDGE
        return raw


def levy_sigma_x(alpha: float) -> float:
    """Numerator-stream deviation for Mantegna's Levy algorithm.

    sigma_x = [Gamma(1+a) sin(pi a/2) / (Gamma((1+a)/2) a 2^((a-1)/2))]^(1/a),
    valid for stability index alpha in (0.3, 1.99].
    """
    if not 0.3 < alpha <= 1.99:
        raise ParameterError(
            f"levy stability index {alpha!r} outside (0.3, 1.99]"
        )
    num = math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0)
    den = math.gamma((1.0 + alpha) / 2.0) * alpha * 2.0 ** ((alpha - 1.0) / 2.0)
    return (num / den) ** (1.0 / alpha)


class LevySampler:
    """Mantegna sampler: levy = 0.05 * x / |y|^(1/alpha), x~N(0, sigma_x^2), y~N(0,1).

    Heavy-tailed and symmetric about 0, with the scale fixed at 0.05.  A y
    draw of exactly zero (probability zero, but cheap to guard) is redrawn.
    """

    def __init__(self, alpha: float = 1.5):
        self.alpha = float(alpha)
        self.sigma_x = levy_sigma_x(self.alpha)

    def matrix(self, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
        """rows x cols array of independent draws (fresh per call)."""
        x = rng.normal(0.0, self.sigma_x, size=(rows, cols))
        y = rng.normal(0.0, 1.0, size=(rows, cols))
        zero = y == 0.0
        while zero.any():
            y[zero] = rng.normal(0.0, 1.0, size=int(zero.sum()))
            zero = y == 0.0
        return 0.05 * x / np.abs(y) ** (1.0 / self.alpha)
