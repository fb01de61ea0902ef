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
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# A per-iteration draw block of at least this many values is filled one
# iteration ahead on a helper thread; a smaller one is filled inline (see
# ``DrawAhead``).  On 2 cores the handoff costs about 0.1 ms an iteration
# (the thread took 1.7-2.5x a d=30 run's time).  It paid from about 12k
# normal values a block (nlcmfo at d=200) and 36k uniform ones (gwo at
# d=200), though pso's lighter iterations still lost 12-14% at 33-42k
# (d=550-700) and gained 7% at 60k (d=1000).
AHEAD_MIN_VALUES = 1 << 15

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


class DrawAhead:
    """One run's per-iteration random block, filled one iteration ahead.

    A search that draws one ``shape`` block per iteration with
    ``rng.random(out=)`` or ``rng.standard_normal(out=)`` (``method``)
    draws it through this object instead, ``count`` blocks in all:
    ``block`` is the buffer of this iteration's block, ``random(out=block)``
    and ``standard_normal(out=block)`` return it once it holds its draws,
    and ``advance()``, called after every other draw of the iteration,
    moves on to the next block.  ``normal`` draws inline from ``rng``, so
    the object stands in for the rng inside ``LevySampler.matrix``.

    A block of ``AHEAD_MIN_VALUES`` values or more alternates between two
    buffers: the first fill starts here, each ``advance`` but the last
    starts the next one, and a single helper thread runs them while the
    search works on the current block.  numpy fills ``out=`` with the GIL
    released, and the rng belongs to this run alone, so the stream is drawn
    in the inline order and every value is the same.  Only the raw fills
    run on the thread.  A smaller block is filled inline, at the
    ``random``/``standard_normal`` call, into one buffer.  As a context
    manager, leaving it joins the thread.
    """

    def __init__(self, rng: np.random.Generator, method: str, shape,
                 count: int):
        self.normal = rng.normal
        self._fill = getattr(rng, method)
        self.block = np.empty(shape)
        self._pending, self._left = None, 0
        if self.block.size >= AHEAD_MIN_VALUES:
            self._spare = np.empty(shape)
            self._pool = ThreadPoolExecutor(max_workers=1)
            self._pending = self._pool.submit(self._fill, out=self.block)
            self._left = count - 1

    def random(self, out: np.ndarray) -> np.ndarray:
        """Return ``out``, this iteration's block, holding its draws."""
        if self._pending is None:
            self._fill(out=out)
        else:
            self._pending.result()
        return out

    standard_normal = random

    def advance(self) -> None:
        if self._left:
            self.block, self._spare = self._spare, self.block
            self._left -= 1
            self._pending = self._pool.submit(self._fill, out=self.block)

    def __enter__(self) -> "DrawAhead":
        return self

    def __exit__(self, *exc) -> None:
        if self._pending is not None:
            self._pool.shutdown()


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
        step_fn, lo, hi = self._step_fn, self._lo, self._hi
        state = self.state
        raw = []
        for _ in range(k):
            value = step_fn(state)
            raw.append(value)
            # the keep-alive nudge, inline against locals: a method call
            # per draw was about a sixth of this loop's time
            if value == lo:
                state = lo + _EDGE
            elif value == hi:
                state = hi - _EDGE
            else:
                state = value
        self.state = state
        raw = np.array(raw)
        if lo == -1.0:
            return (raw + 1.0) / 2.0
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

    def matrix(self, rows: int, cols: int, rng: np.random.Generator,
               out=None) -> np.ndarray:
        """rows x cols array of independent draws.

        The x block, then the y block, comes from one standard-normal fill
        of ``out``, a float64 (2, rows, cols) work array (fresh when None);
        the draws are ``out[0]``, overwritten by the next call on ``out``.
        ``rng`` needs only ``standard_normal(out=)`` and ``normal``, so a
        ``DrawAhead`` can stand in for it.
        """
        if out is None:
            out = np.empty((2, rows, cols))
        rng.standard_normal(out=out)
        x, y = out
        # rng.normal(0, s) computes 0.0 + s*z; the + 0.0 turns a -0.0 draw
        # into 0.0 as it does
        x *= self.sigma_x
        x += 0.0
        zero = y == 0.0
        while zero.any():
            y[zero] = rng.normal(0.0, 1.0, size=int(zero.sum()))
            zero = y == 0.0
        np.abs(y, out=y)
        np.power(y, 1.0 / self.alpha, out=y)
        np.multiply(0.05, x, out=x)
        return np.divide(x, y, out=x)
