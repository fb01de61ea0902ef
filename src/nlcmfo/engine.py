"""Moth-flame search engines and the run loop every optimizer shares.

``drive`` owns the run contract for all four optimizers (these two and the
PSO and GWO baselines): seeding, every objective evaluation, clipping each
move into the box, the best-so-far, the telemetry and the ``RunResult``.
An algorithm only supplies a search generator that yields its start swarm
and its moves (see ``drive``).  The two moth-flame variants:

* ``mfo``     - the classic logarithmic-spiral moth-flame search.
* ``nlcmfo``  - the Levy-chaotic variant: spiral time comes from a chaotic
  map instead of a uniform draw, the spiral is damped by a nonlinear weight
  that decays from 4 to ~0 over the run, and both the spiral term and the
  flame attractor are perturbed element-wise by a heavy-tailed Levy matrix.
  A stagnation watchdog swaps the active chaotic map (sine <-> chebyshev)
  whenever the flame fitness vector freezes for a window of iterations.

A run costs exactly pop_size * (max_iter + 1) objective evaluations: the
initial swarm is evaluated once before the first update, then every
iteration moves and re-evaluates the whole swarm.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .space import SearchSpace
from .stochastic import ChaoticMap, LevySampler, make_rng

Objective = Callable[[np.ndarray], float]

# the algorithms ``run`` drives; ``run_pso`` and ``run_gwo`` drive the rest
MOTH_FLAME = ("mfo", "nlcmfo")

# the smallest pop_size of each algorithm: gwo's moves need three leaders
_POP_FLOORS = {"mfo": 2, "nlcmfo": 2, "pso": 2, "gwo": 3}


class ObjectiveError(RuntimeError):
    """Objective returned NaN/inf; carries the offending position.

    The message names the swarm row and shows at most its first three
    coordinates, so one line stays short at any dimension; ``position``
    holds the whole row.
    """

    def __init__(self, position: np.ndarray, value: float, row: int):
        self.position = np.array(position, copy=True)
        self.value = value
        head = ", ".join(repr(v) for v in self.position[:3].tolist())
        more = ", ..." if self.position.size > 3 else ""
        super().__init__(
            f"objective returned non-finite value {value!r} at row {row} "
            f"(d={self.position.size}) [{head}{more}]"
        )


@dataclass
class EngineConfig:
    """The run config of all four optimizers; ``algorithm`` names one."""

    algorithm: str = "nlcmfo"
    pop_size: int = 30
    max_iter: int = 500
    seed: int = 0
    record_history: bool = False


@dataclass
class RunResult:
    """Outcome of one engine run.

    ``convergence``, ``mean_fitness`` and ``trajectory`` have length
    max_iter: best-so-far fitness, swarm mean fitness, and the first
    variable of the first moth after each iteration.  ``history`` (optional)
    stacks the post-move swarm of every iteration, shape (T, n, dim).
    ``wall_time`` is measured and excluded from the determinism contract;
    every other field replays bitwise under a fixed seed.
    """

    best_position: np.ndarray
    best_fitness: float
    convergence: np.ndarray
    mean_fitness: np.ndarray
    trajectory: np.ndarray
    evaluations: int
    wall_time: float
    history: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# schedule and movement primitives
# ---------------------------------------------------------------------------

def flame_count(n: int, l: int, max_iter: int) -> int:
    """Surviving flames at iteration l: round(n - l*(n-1)/T), floored at 1.

    Half-away-from-zero rounding; decreases from n at l=0 to 1 at l=T.
    """
    return max(1, int(math.floor(n - l * (n - 1) / max_iter + 0.5)))


def convergence_constant(l: int, max_iter: int) -> float:
    """Spiral-time lower bound a, falling linearly from -1 (l=0) to -2 (l=T)."""
    return -1.0 - l / max_iter


def nonlinear_weight(l: int, max_iter: int) -> float:
    """Exploration damping w = 4 exp(-(6 l / T)^2): 4 at l=0, ~1e-15 by l=T."""
    return 4.0 * math.exp(-((6.0 * l / max_iter) ** 2))


def t_mfo(a: float, rng: np.random.Generator, size=None):
    """Classic spiral time t = (a-1)*U[0,1) + 1, in (a, 1]."""
    return (a - 1.0) * rng.random(size) + 1.0


def t_nlcmfo(a: float, cm):
    """Chaotic spiral time t = |(a-1)*cm + 1| for normalized chaotic cm in [0,1].

    Bounded by |a-1|-1 <= 2 for a in [-2,-1], so the spiral radius stays
    within the classic envelope while the sequence of t values is chaotic
    rather than i.i.d. uniform.
    """
    return np.abs((a - 1.0) * np.asarray(cm, dtype=np.float64) + 1.0)


def _cos2pi(t):
    """cos(2 pi t) with exact zeros at t = 0.25 + k/2.

    Plain cos leaves ~1e-16 residue at quarter points, which would break the
    documented identity that such a move lands exactly on the flame.
    """
    t = np.asarray(t, dtype=np.float64)
    c = np.cos(2.0 * math.pi * t)
    return np.where(np.mod(t, 0.5) == 0.25, 0.0, c)


def spiral_step_mfo(moth, flame, t):
    """Log-spiral move: S = |F - M| * e^t * cos(2 pi t) + F (spiral shape b = 1).

    Broadcasts: rows or full (n, d) matrices, with t scalar or shaped to
    broadcast against the position array (e.g. (n, 1) for per-moth times).
    """
    d = np.abs(np.asarray(flame) - np.asarray(moth))
    return d * np.exp(np.asarray(t)) * _cos2pi(t) + flame


def spiral_step_nlcmfo(moth, flame, t, w: float, levy):
    """Levy-perturbed damped spiral: S = w*R.D*e^t cos(2 pi t) + R.F (b = 1).

    R (the Levy row or matrix) multiplies both the spiral term and the
    flame attractor element-wise; the flame term is deliberately perturbed
    too, which is what drives the strong pull toward the origin late in a
    run (and the known weakness on functions whose optimum sits far from
    the origin).
    """
    d = np.abs(np.asarray(flame) - np.asarray(moth))
    levy = np.asarray(levy)
    spiral = w * levy * d * np.exp(np.asarray(t)) * _cos2pi(t)
    return spiral + levy * np.asarray(flame)


def evaluate_swarm(objective: Objective, positions: np.ndarray) -> np.ndarray:
    """Objective value of every row; NaN/inf aborts with the position.

    An objective marked ``vectorized`` takes the whole (n, d) swarm in one
    call; any other is called row by row.  The package's own objectives
    (the benchmark functions and ``hypertune.tune``'s) are all vectorized,
    so the per-row path serves only user callables.
    """
    if getattr(objective, "vectorized", False):
        fitness = objective(positions)
        finite = np.isfinite(fitness)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise ObjectiveError(positions[bad], float(fitness[bad]), bad)
        return fitness
    fitness = np.empty(positions.shape[0])
    for i, row in enumerate(positions):
        value = float(objective(row))
        if not math.isfinite(value):
            raise ObjectiveError(row, value, i)
        fitness[i] = value
    return fitness


def update_flames(
    flame_pos: np.ndarray,
    flame_fit: np.ndarray,
    moth_pos: np.ndarray,
    moth_fit: np.ndarray,
    keep: int,
):
    """Merge the archive with the current swarm, keep the best ``keep`` rows.

    Stable ascending sort on fitness with archive rows listed first, so an
    earlier-seen solution wins ties and the archive never worsens.
    The fitness values come from ``evaluate_swarm``, so they are finite.
    """
    pos = np.concatenate([flame_pos, moth_pos], axis=0)
    fit = np.concatenate([flame_fit, moth_fit])
    order = fit.argsort(kind="stable")[:keep]
    return pos[order].copy(), fit[order].copy()


class MapScheduler:
    """Stagnation-driven toggle between the sine map (primary) and the
    chebyshev map (secondary), both started at 0.7.

    Each iteration the engine compares the flame fitness vector with the
    previous iteration's; five consecutive exact repeats toggle the active
    map and reset the counter, any change resets the counter.
    """

    def __init__(self):
        self.primary = ChaoticMap("sine", 0.7)
        self.secondary = ChaoticMap("chebyshev", 0.7)
        self.active_is_primary = True
        self.counter = 0

    @property
    def active(self) -> ChaoticMap:
        return self.primary if self.active_is_primary else self.secondary

    def observe(self, fitness_now: np.ndarray, fitness_prev: np.ndarray) -> bool:
        """Feed one iteration's flame fitness; True when the map toggled."""
        if np.array_equal(fitness_now, fitness_prev):
            self.counter += 1
            if self.counter >= 5:
                self.active_is_primary = not self.active_is_primary
                self.counter = 0
                return True
        else:
            self.counter = 0
        return False


def check_counts(config, floors: dict) -> None:
    """Check that each field named in ``floors`` is an integer (a float,
    string or bool is a TypeError) and at least its floor (a ValueError)."""
    for name, floor in floors.items():
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        if value < floor:
            raise ValueError(f"{name} must be >= {floor}")


def validate_config(config: EngineConfig,
                    algorithms: tuple = tuple(_POP_FLOORS)) -> None:
    """Raise the error a run with this config would raise, before it starts:
    an algorithm outside ``algorithms`` (by default all four), or pop_size
    below the algorithm's floor (3 for gwo, 2 for the rest) or max_iter < 1
    (each an integer)."""
    if config.algorithm not in algorithms:
        raise ValueError(
            f"unsupported algorithm {config.algorithm!r}; choose one of "
            f"{algorithms}"
        )
    check_counts(config, {"pop_size": _POP_FLOORS[config.algorithm],
                          "max_iter": 1})


def drive(config, space: SearchSpace, objective: Objective, search) -> RunResult:
    """Execute one seeded run of ``search``; the loop every optimizer shares.

    ``search(config, space, rng)`` is a generator over one run.  It yields
    the start swarm, then, each time it is sent the last evaluated swarm as
    ``(positions, fitness)``, its next move, which is clipped into the box
    here; it is sent max_iter times.  ``drive`` keeps the best-so-far: the
    first row of the lowest fitness seen, replaced only by a strictly lower
    one.  ``config`` needs pop_size, max_iter, seed and record_history; the
    rng is ``make_rng(config.seed)`` and belongs to the search alone.
    """
    start = time.perf_counter()
    n, big_t = config.pop_size, config.max_iter
    steps = search(config, space, make_rng(config.seed))
    pos = next(steps)
    fit = evaluate_swarm(objective, pos)
    j = fit.argmin()
    # later bests are written into this one copy: a fresh row per
    # improvement changed glibc's heap trimming at d=1000 enough to lift
    # mfo's minor faults per run from 0.6-9k to 21-24k
    best_position, best_fitness = pos[j].copy(), fit[j]

    convergence = np.empty(big_t)
    mean_fitness = np.empty(big_t)
    trajectory = np.empty(big_t)
    history = np.empty((big_t, n, space.dim)) if config.record_history else None

    for i in range(big_t):
        pos = space.clip(steps.send((pos, fit)))
        fit = evaluate_swarm(objective, pos)
        j = fit.argmin()
        if fit[j] < best_fitness:
            best_position[:] = pos[j]
            best_fitness = fit[j]
        convergence[i] = best_fitness
        mean_fitness[i] = fit.mean()
        trajectory[i] = pos[0, 0]
        if history is not None:
            history[i] = pos

    return RunResult(
        best_position=best_position,
        best_fitness=float(best_fitness),
        convergence=convergence,
        mean_fitness=mean_fitness,
        trajectory=trajectory,
        evaluations=n * (big_t + 1),
        wall_time=time.perf_counter() - start,
        history=history,
    )


def _moth_flame(config: EngineConfig, space: SearchSpace, rng):
    """mfo / nlcmfo search for ``drive``: spiral moves around ranked flames.

    Fixed constants: spiral shape b = 1; for nlcmfo, Levy alpha 1.5 and
    ``MapScheduler``'s maps and window.
    """
    n, big_t, dim = config.pop_size, config.max_iter, space.dim
    chaotic = config.algorithm == "nlcmfo"

    moths, fitness = yield space.sample(n, rng)
    order = fitness.argsort(kind="stable")
    flame_pos, flame_fit = moths[order].copy(), fitness[order].copy()
    if chaotic:
        sampler = LevySampler(1.5)
        scheduler = MapScheduler()

    moth_idx = np.arange(n)
    for l in range(1, big_t + 1):
        k = flame_count(n, l, big_t)
        a = convergence_constant(l, big_t)
        # moth i follows flame i while it survives, else the worst survivor
        paired = flame_pos[np.minimum(moth_idx, k - 1)]
        if chaotic:
            w = nonlinear_weight(l, big_t)
            cm = scheduler.active.steps(n)
            t = t_nlcmfo(a, cm)
            levy = sampler.matrix(n, dim, rng)
            moths = spiral_step_nlcmfo(moths, paired, t[:, None], w, levy)
        else:
            t = t_mfo(a, rng, size=n)
            moths = spiral_step_mfo(moths, paired, t[:, None])
        # the move rebinds ``moths`` before it is yielded, which frees the
        # previous swarm as early as a plain loop would; yielding the
        # spiral expression directly changed glibc's heap trimming at
        # d=1000 enough to cost mfo 65x the page faults and ~1.5x the time
        moths, fitness = yield moths
        prev_fit = flame_fit
        flame_pos, flame_fit = update_flames(flame_pos, flame_fit, moths, fitness, n)
        if chaotic:
            scheduler.observe(flame_fit, prev_fit)


def run(config: EngineConfig, space: SearchSpace, objective: Objective) -> RunResult:
    """Execute one seeded mfo or nlcmfo run; see the module docstring."""
    validate_config(config, MOTH_FLAME)
    return drive(config, space, objective, _moth_flame)
