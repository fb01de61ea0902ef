"""Box-constrained search spaces: validation, uniform sampling, clamping."""

from __future__ import annotations

import numpy as np


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
        return np.clip(positions, self.lower, self.upper)

    def contains(self, positions: np.ndarray) -> bool:
        return bool(
            (positions >= self.lower).all() and (positions <= self.upper).all()
        )
