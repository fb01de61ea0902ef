"""Box-constrained search spaces: validation, uniform sampling, clamping."""

from __future__ import annotations

import numpy as np


def clip_bounds(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The bounds to pass ``clip`` for the (d,) bound arrays lo and hi.

    Two floats where each array holds one nonzero value, else the arrays:
    clip's scalar-bound loop is faster and gives the array loop's bytes
    except at a bound of +-0.0, where it keeps an opposite-signed zero.
    """
    if ((lo == lo[0]).all() and (hi == hi[0]).all()
            and lo[0] != 0.0 and hi[0] != 0.0):
        return float(lo[0]), float(hi[0])
    return lo, hi


class SearchSpace:
    """Axis-aligned box  lower[j] <= x[j] <= upper[j]  with strict lower < upper.

    Parameters
    ----------
    lower, upper : array_like
        Per-dimension bounds, equal lengths, finite, lower strictly below
        upper in every dimension.
    """

    def __init__(self, lower, upper):
        lo = np.asarray(lower, dtype=np.float64)
        hi = np.asarray(upper, dtype=np.float64)
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape or lo.size < 1:
            raise ValueError("bounds must be 1-d arrays of equal nonzero length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("bounds must be finite")
        if not (lo < hi).all():
            j = int(np.argmin(hi - lo))
            raise ValueError(
                f"degenerate bounds at dimension {j}: lower={lo[j]} upper={hi[j]}"
            )
        self.lower = lo
        self.upper = hi
        self._clip_bounds = clip_bounds(lo, hi)

    @classmethod
    def cube(cls, dim: int, lower: float, upper: float) -> "SearchSpace":
        """Hypercube with identical bounds in every dimension."""
        return cls(np.full(dim, float(lower)), np.full(dim, float(upper)))

    @property
    def dim(self) -> int:
        return self.lower.size

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n uniform points: lower + (upper - lower) * U[0,1), shape (n, dim)."""
        return self.lower + (self.upper - self.lower) * rng.random((n, self.dim))

    def clip(self, positions: np.ndarray) -> np.ndarray:
        """Clamp positions into the box, coordinate-wise (idempotent)."""
        # the ndarray method is what np.clip dispatches to (the same clip
        # ufunc, so the same bytes) without its Python-level wrapper; a
        # cube's float bounds take the faster scalar-bound loop
        return positions.clip(*self._clip_bounds)

    def contains(self, positions: np.ndarray) -> bool:
        return bool(
            (positions >= self.lower).all() and (positions <= self.upper).all()
        )
