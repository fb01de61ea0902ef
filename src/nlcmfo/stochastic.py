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

# Nudge applied to a raw next state that lands exactly on an absorbing
# boundary (0 or 1 for unit-interval maps, +-1 for the [-1,1] maps, 0 for
# the iterative map whose next step divides by the state).  Without it a
# dead orbit silently degrades every chaotic draw to a constant; the tent
# map in float64 reaches exactly 1.0 from generic seeds within ~60 steps.
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


def _logistic(x: float) -> float:
    return 4.0 * x * (1.0 - x)


def _tent(x: float) -> float:
    return 2.0 * x if x < 0.5 else 2.0 * (1.0 - x)


def _sinusoidal(x: float) -> float:
    return 2.3 * x * x * math.sin(math.pi * x)


def _circle(x: float) -> float:
    # Tavazoei-Haeri parameterization: a = 0.5, b = 0.2.
    return (x + 0.2 - (0.5 / (2.0 * math.pi)) * math.sin(2.0 * math.pi * x)) % 1.0


def _gauss(x: float) -> float:
    # Gauss/mouse map; the 0 -> 0 branch is part of the map's definition.
    return 0.0 if x == 0.0 else (1.0 / x) % 1.0


def _chebyshev(x: float) -> float:
    return math.cos(4.0 * math.acos(x))


def _singer(x: float) -> float:
    return 7.86 * x - 23.31 * x * x + 28.75 * x**3 - 13.302875 * x**4


def _sine(x: float) -> float:
    return math.sin(math.pi * x)


def _iterative(x: float) -> float:
    return math.sin(0.7 * math.pi / x)


# kind -> (step, native_lo, native_hi).  Maps on [-1,1] are normalized to
# [0,1] by (x+1)/2 before use; unit-interval maps pass through unchanged.
_MAPS = {
    "logistic": (_logistic, 0.0, 1.0),
    "tent": (_tent, 0.0, 1.0),
    "sinusoidal": (_sinusoidal, 0.0, 1.0),
    "circle": (_circle, 0.0, 1.0),
    "gauss": (_gauss, 0.0, 1.0),
    "chebyshev": (_chebyshev, -1.0, 1.0),
    "singer": (_singer, 0.0, 1.0),
    "sine": (_sine, 0.0, 1.0),
    "iterative": (_iterative, -1.0, 1.0),
}

MAP_KINDS = tuple(_MAPS)


class ChaoticMap:
    """One of nine scalar chaotic maps with a normalized [0,1] output.

    The map holds its raw state in the native domain (unit interval, or
    [-1,1] for chebyshev/iterative).  ``step`` returns the exact next value
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
        self._check_domain(state)
        self.state = float(state)

    def _check_domain(self, x: float) -> None:
        if not (self._lo <= x <= self._hi) or not math.isfinite(x):
            raise ChaoticDomainError(
                f"{self.kind} map state {x!r} outside native domain "
                f"[{self._lo}, {self._hi}]"
            )
        if self.kind == "iterative" and x == 0.0:
            raise ChaoticDomainError("iterative map state must be nonzero")

    def step(self) -> float:
        """Advance one step; return the normalized next value in [0, 1]."""
        return float(self.steps(1)[0])

    def steps(self, k: int) -> np.ndarray:
        """Advance k steps; return the k normalized next values in [0, 1].

        The state gets the full domain check once; the keep-alive nudge
        keeps later states off the absorbing points, so the loop only
        compares each state with the bounds.  (Singer maps states near 1
        below 0: that value is returned and the next draw raises, exactly
        as one step at a time.)
        """
        self._check_domain(self.state)
        step_fn, keep_alive, lo, hi = self._step_fn, self._keep_alive, self._lo, self._hi
        state = self.state
        raw = []
        for _ in range(k):
            value = step_fn(state)
            raw.append(value)
            state = keep_alive(value)
            if not lo <= state <= hi:
                break
        self.state = state
        if len(raw) < k:
            self._check_domain(state)
        raw = np.array(raw)
        if self._lo == -1.0:
            return (raw + 1.0) / 2.0
        return raw

    def _keep_alive(self, raw: float) -> float:
        if raw == self._lo:
            return self._lo + _EDGE
        if raw == self._hi:
            return self._hi - _EDGE
        if self.kind == "iterative" and raw == 0.0:
            return _EDGE
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
        if rows < 1 or cols < 1:
            raise ParameterError("levy matrix shape must be at least 1x1")
        x = rng.normal(0.0, self.sigma_x, size=(rows, cols))
        y = rng.normal(0.0, 1.0, size=(rows, cols))
        zero = y == 0.0
        while zero.any():
            y[zero] = rng.normal(0.0, 1.0, size=int(zero.sum()))
            zero = y == 0.0
        return 0.05 * x / np.abs(y) ** (1.0 / self.alpha)
