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
import numbers

import numpy as np

# A per-iteration draw block of at least this many values is filled one
# iteration ahead on a helper thread; a smaller one is filled inline (see
# ``DrawAhead``).  On 2 cores the handoff costs about 0.1 ms an iteration
# (the thread took 1.7-2.5x a d=30 run's time).  It paid from about 12k
# normal values a block (nlcmfo at d=200) and 36k uniform ones (gwo at
# d=200), though pso's lighter iterations still lost 12-14% at 33-42k
# (d=550-700) and gained 7% at 60k (d=1000).  These figures predate the
# handoff that starts the next draw before the current block's transform.
AHEAD_MIN_VALUES = 1 << 15

# Nudge applied to a raw next state that lands exactly on a boundary of the
# map's domain (0 or 1 for sine, +-1 for chebyshev).  0 is a fixed point of
# sine, and chebyshev sends both -1 and 1 to its fixed point 1, so without
# the nudge such an orbit would give one constant draw forever.  sine(0.5)
# is exactly 1.0, and sine(1.0) rounds to 1.2e-16, a stretch of some 30
# draws near 0; from the nudged 1 - 1e-7 the orbit is back above 0.1
# within 13 draws.
_EDGE = 1e-7


def check_count(name: str, value, floor: int):
    """Return ``value`` if it is an integer of at least ``floor``; a float,
    string or bool is a TypeError and a smaller one a ValueError, each
    naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise ValueError(f"{name} must be >= {floor}")
    return value


def make_rng(seed: int, stream: int = 0,
             name: str = "seed") -> np.random.Generator:
    """Build the package-wide RNG: PCG64 seeded through a SeedSequence.

    Parameters
    ----------
    seed : int
        Root seed.  Identical seeds reproduce every draw bitwise.
    stream : int
        Sub-stream index.  Stream 0 is the optimizer's stream; noisy
        objectives (F7) use stream 1 of the same root seed, so a single
        seed still governs the whole run.
    name : str
        The caller's name for ``seed``, which must be an integer >= 0.
    """
    ss = np.random.SeedSequence(check_count(name, seed, 0), spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


class DrawAhead:
    """One run's per-iteration random block, drawn one iteration ahead.

    A search that draws one ``shape`` block per iteration, ``count`` blocks
    in all, passes ``draw``, which draws a whole block into its ``out=``
    argument (``rng.random``, or nlcmfo's ``LevySampler.draw``: the fill
    and its exact-zero redraws), and takes each block from ``next()``.

    A block of ``AHEAD_MIN_VALUES`` values or more alternates between two
    buffers: the first draw starts here, and each ``next`` but the last
    starts the next draw as it hands over the current block, so a single
    helper thread draws while the search transforms and reads the block.
    numpy fills ``out=`` with the GIL released, and the rng belongs to this
    run alone, so the stream is drawn in the inline order and every value
    is the same.  A smaller block is drawn inline, at the ``next`` call,
    into one buffer.  As a context manager, leaving it joins the thread.

    The thread pool is imported where the first threaded block starts, not
    with the package: after numpy, ``concurrent.futures.thread`` costs
    about 0.7 MB of resident memory and 10 ms (Python 3.11), which a run
    drawn inline never needs.
    """

    def __init__(self, draw, shape, count: int):
        self._draw = draw
        self._block = np.empty(shape)
        self._pending = None
        if self._block.size >= AHEAD_MIN_VALUES:
            from concurrent.futures import ThreadPoolExecutor
            self._spare = np.empty(shape)
            self._pool = ThreadPoolExecutor(max_workers=1)
            self._pending = self._pool.submit(draw, out=self._block)
            self._left = count - 1

    def next(self) -> np.ndarray:
        """This iteration's block, holding its draws."""
        block = self._block
        if self._pending is None:
            self._draw(out=block)
            return block
        self._pending.result()
        if self._left:
            self._left -= 1
            self._block, self._spare = self._spare, block
            self._pending = self._pool.submit(self._draw, out=self._block)
        return block

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


class ChaoticMap:
    """The sine or chebyshev scalar chaotic map with a normalized [0,1] output.

    ``kind`` is "sine" or "chebyshev", the two maps ``MapScheduler``
    builds, and the orbit starts at 0.7.  The map holds its raw state in
    the native domain (unit interval for sine, [-1,1] for chebyshev).
    ``step`` returns the exact next value normalized to [0,1]; the stored
    state is additionally nudged off exact absorbing boundaries so the
    orbit stays alive.  ``steps`` draws several values at once.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._step_fn, self._lo, self._hi = _MAPS[kind]
        self.state = 0.7

    def step(self) -> float:
        """Advance one step; return the normalized next value in [0, 1]."""
        return float(self.steps(1)[0])

    def steps(self, k: int) -> np.ndarray:
        """Advance k steps; return the k normalized next values in [0, 1].

        The state needs no domain check here: 0.7 is in both domains,
        both maps send their domain into itself, and the keep-alive nudge
        keeps later states off the absorbing points.
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
        raise ValueError(f"levy stability index {alpha!r} outside (0.3, 1.99]")
    num = math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0)
    den = math.gamma((1.0 + alpha) / 2.0) * alpha * 2.0 ** ((alpha - 1.0) / 2.0)
    return (num / den) ** (1.0 / alpha)


class LevySampler:
    """Mantegna sampler: levy = 0.05 * x / |y|^(1/alpha), x~N(0, sigma_x^2), y~N(0,1).

    Heavy-tailed and symmetric about 0, with alpha fixed at 1.5 and the
    scale at 0.05.  A y draw of exactly zero (probability zero, but cheap
    to guard) is redrawn.
    """

    alpha = 1.5
    sigma_x = levy_sigma_x(alpha)

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out``, a float64 (2, rows, cols) array, with ``matrix``'s
        raw draws: one standard-normal fill (the x block, then the y block),
        then each exact-zero y redrawn in C order until none is left."""
        rng.standard_normal(out=out)
        y = out[1]
        zero = y == 0.0
        while zero.any():
            y[zero] = rng.normal(0.0, 1.0, size=int(zero.sum()))
            zero = y == 0.0

    def matrix(self, rows: int, cols: int, out: np.ndarray) -> np.ndarray:
        """rows x cols array of independent draws, transformed in place
        from ``out``, a (2, rows, cols) block that ``draw`` filled.

        The draws are ``out[0]``, overwritten by the next ``draw`` on
        ``out``; the transform itself draws nothing.
        """
        x, y = out
        # rng.normal(0, s) computes 0.0 + s*z; the + 0.0 turns a -0.0 draw
        # into 0.0 as it does
        x *= self.sigma_x
        x += 0.0
        np.abs(y, out=y)
        np.power(y, 1.0 / self.alpha, out=y)
        np.multiply(0.05, x, out=x)
        return np.divide(x, y, out=x)
