"""The four swarm optimizers, their registry and the run loop they share.

``run`` is the one entry point: ``ALGORITHMS`` maps each name to its own
search generator, and ``run`` hands the named one to ``drive``, which owns
the run contract: seeding, every objective evaluation, clipping each move
into the box, the best-so-far, the telemetry and the ``RunResult``.  A
search only yields its start swarm and its moves (see ``drive``), so a new
algorithm is a search, its stacked twin and one registry entry.  The four:

* ``mfo``     - the classic logarithmic-spiral moth-flame search.
* ``nlcmfo``  - the Levy-chaotic variant: mfo's flame archive, but spiral
  time comes from a chaotic map instead of a uniform draw, the spiral is
  damped by a nonlinear weight that decays from 4 to ~0 over the run, and
  both the spiral term and the flame attractor are perturbed element-wise
  by a heavy-tailed Levy matrix.
  A stagnation watchdog swaps the active chaotic map (sine <-> chebyshev)
  whenever the flame fitness vector freezes for a window of iterations.
* ``pso``     - global-best particle swarm with a velocity clamp.
* ``gwo``     - the grey wolf optimizer: wolves encircle three leaders.

A run costs exactly pop_size * (max_iter + 1) objective evaluations: the
initial swarm is evaluated once before the first update, then every
iteration moves and re-evaluates the whole swarm.

``drive_lockstep`` runs several runs of one algorithm together, each with
the result ``run`` gives it, through the algorithm's stacked search (its
registry entry's ``stack``); a serial grid uses it for the small-d runs
of all four algorithms, each under its own measured chunk bound.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .space import SearchSpace, clip_bounds
from .stochastic import (ChaoticMap, DrawAhead, LevySampler, check_count,
                         make_rng)

# an objective maps an (n, d) swarm to its n values
Objective = Callable[[np.ndarray], np.ndarray]


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


def spiral_step_nlcmfo(moth, flame, t, w: float, levy, out):
    """Levy-perturbed damped spiral: S = w*R.D*e^t cos(2 pi t) + R.F (b = 1).

    R (the Levy row or matrix) multiplies both the spiral term and the
    flame attractor element-wise; the flame term is deliberately perturbed
    too, which is what drives the strong pull toward the origin late in a
    run (and the known weakness on functions whose optimum sits far from
    the origin).

    ``out`` is a float64 work array of shape (2, *S.shape) that holds the
    two terms; only the returned move is a new array.  The terms are built
    in place in the order ((((w*R)*D)*e^t)*cos) + R*F.
    """
    spiral, attract = out
    np.subtract(flame, moth, out=attract)
    np.abs(attract, out=attract)
    np.multiply(w, levy, out=spiral)
    np.multiply(spiral, attract, out=spiral)
    np.multiply(spiral, np.exp(np.asarray(t)), out=spiral)
    np.multiply(spiral, _cos2pi(t), out=spiral)
    np.multiply(levy, flame, out=attract)
    return np.add(spiral, attract)


def evaluate_swarm(objective: Objective, positions: np.ndarray) -> np.ndarray:
    """Objective value of every row, from one call on the whole swarm.

    An objective maps the (n, d) swarm to its n values; a return of any
    other shape is a ValueError, and a NaN/inf value raises
    ``ObjectiveError`` with the first such row.
    """
    fitness = np.asarray(objective(positions), dtype=np.float64)
    n = positions.shape[0]
    if fitness.shape != (n,):
        raise ValueError(
            f"objective returned shape {fitness.shape}, expected ({n},)")
    finite = np.isfinite(fitness)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ObjectiveError(positions[bad], float(fitness[bad]), bad)
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
        self.primary = ChaoticMap("sine")
        self.secondary = ChaoticMap("chebyshev")
        self.active_is_primary = True
        self.counter = 0

    @property
    def active(self) -> ChaoticMap:
        return self.primary if self.active_is_primary else self.secondary

    def observe(self, fitness_now: np.ndarray, fitness_prev: np.ndarray) -> bool:
        """Feed one iteration's flame fitness; True when the map toggled."""
        # np.array_equal's answer without its wrapper; the shape check
        # keeps it False for vectors of different shapes
        if (fitness_now.shape == fitness_prev.shape
                and bool((fitness_now == fitness_prev).all())):
            self.counter += 1
            if self.counter >= 5:
                self.active_is_primary = not self.active_is_primary
                self.counter = 0
                return True
        else:
            self.counter = 0
        return False


def validate_config(config: EngineConfig) -> None:
    """Raise the error a run with this config would raise, before it starts:
    an algorithm outside ``ALGORITHMS``, pop_size below the algorithm's
    floor (3 for gwo, 2 for the rest), max_iter < 1 or seed < 0 (each an
    integer)."""
    # a tuple compares names, so a name that cannot be hashed is refused too
    names = tuple(ALGORITHMS)
    if config.algorithm not in names:
        raise ValueError(
            f"unsupported algorithm {config.algorithm!r}; choose one of {names}")
    for name, floor in (("pop_size", ALGORITHMS[config.algorithm].floor),
                        ("max_iter", 1), ("seed", 0)):
        check_count(name, getattr(config, name), floor)


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
    # closed however the run ends, so a search's draw thread is joined
    # before the run returns or raises
    try:
        pos = next(steps)
        fit = evaluate_swarm(objective, pos)
        j = fit.argmin()
        # later bests are written into this one copy: a fresh row per
        # improvement changed glibc's heap trimming at d=1000 enough to
        # lift mfo's minor faults per run from 0.6-9k to 21-24k
        best_position, best_fitness = pos[j].copy(), fit[j]

        convergence = np.empty(big_t)
        mean_fitness = np.empty(big_t)
        trajectory = np.empty(big_t)
        history = (np.empty((big_t, n, space.dim)) if config.record_history
                   else None)

        for i in range(big_t):
            pos = space.clip(steps.send((pos, fit)))
            fit = evaluate_swarm(objective, pos)
            j = fit.argmin()
            if fit[j] < best_fitness:
                best_position[:] = pos[j]
                best_fitness = fit[j]
            convergence[i] = best_fitness
            # add.reduce / size is fit.mean()'s arithmetic without its
            # wrapper
            mean_fitness[i] = np.add.reduce(fit) / fit.size
            trajectory[i] = pos[0, 0]
            if history is not None:
                history[i] = pos
    finally:
        steps.close()

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


def _mfo(config: EngineConfig, space: SearchSpace, rng):
    """mfo search for ``drive``: log-spiral moves (shape b = 1) around the
    ranked flames, with uniform spiral times."""
    n, big_t = config.pop_size, config.max_iter
    moths, fitness = yield space.sample(n, rng)
    order = fitness.argsort(kind="stable")
    flame_pos, flame_fit = moths[order].copy(), fitness[order].copy()
    moth_idx = np.arange(n)
    for l in range(1, big_t + 1):
        k = flame_count(n, l, big_t)
        a = convergence_constant(l, big_t)
        # moth i follows flame i while it survives, else the worst survivor
        idx = np.minimum(moth_idx, k - 1)
        # a fresh pairing: a per-run buffer or a take here lifted the
        # faults per F1 d=1000 run from about 400 to 9,000-22,000
        paired = flame_pos[idx]
        t = t_mfo(a, rng, size=n)
        moths = spiral_step_mfo(moths, paired, t[:, None])
        # the move rebinds ``moths`` before it is yielded, which frees the
        # previous swarm as early as a plain loop would; yielding the
        # spiral expression directly changed glibc's heap trimming at
        # d=1000 enough to cost 65x the page faults and ~1.5x the time
        moths, fitness = yield moths
        flame_pos, flame_fit = update_flames(flame_pos, flame_fit, moths,
                                             fitness, n)


def _nlcmfo(config: EngineConfig, space: SearchSpace, rng):
    """nlcmfo search for ``drive``: mfo's flame archive with chaotic spiral
    times, the nonlinear weight and a Levy matrix (alpha 1.5) on both
    spiral terms; ``MapScheduler`` fixes the maps and their window."""
    n, big_t, dim = config.pop_size, config.max_iter, space.dim
    # the move runs in per-run buffers (the pairing, the Levy draws and
    # the two spiral terms): fresh (n, d) temporaries made glibc trim the
    # heap and fault the pages back in (about 36,700 minor faults per F1
    # d=1000 run, 440-500 with the buffers).  Where they are made moves
    # the trimming too: all three before the first swarm cost a grid's
    # later pso and gwo runs 440 and 180 faults each, against none with
    # draws and work made after the flame archive
    sampler, scheduler = LevySampler(), MapScheduler()
    paired = np.empty((n, dim))

    moths, fitness = yield space.sample(n, rng)
    order = fitness.argsort(kind="stable")
    flame_pos, flame_fit = moths[order].copy(), fitness[order].copy()
    # the Levy draws' block and the spiral terms' work array are made
    # here, after the archive; at d=1000 the draws alternate between two
    # blocks, one drawn ahead on a helper thread, and the second block's
    # 118 pages lift the faults per run from 440-500 to 555-614.  The
    # helper draws the fill and its exact-zero redraws; the transform runs
    # here while the next block is drawn (on the helper as well, it slowed
    # the run: the helper is already the busier thread)
    draws = DrawAhead(functools.partial(sampler.draw, rng), (2, n, dim),
                      big_t)
    work = np.empty((2, n, dim))
    moth_idx = np.arange(n)
    with draws:
        for l in range(1, big_t + 1):
            k = flame_count(n, l, big_t)
            a = convergence_constant(l, big_t)
            # moth i follows flame i while it survives, else the worst
            # survivor; the indices are in range, and mode="clip" keeps
            # take from buffering its output as mode="raise" does
            idx = np.minimum(moth_idx, k - 1)
            flame_pos.take(idx, axis=0, out=paired, mode="clip")
            w = nonlinear_weight(l, big_t)
            cm = scheduler.active.steps(n)
            t = t_nlcmfo(a, cm)
            levy = sampler.matrix(n, dim, draws.next())
            # bound to ``moths`` before the yield, as in _mfo
            moths = spiral_step_nlcmfo(moths, paired, t[:, None], w, levy,
                                       out=work)
            moths, fitness = yield moths
            prev_fit = flame_fit
            flame_pos, flame_fit = update_flames(flame_pos, flame_fit, moths,
                                                 fitness, n)
            scheduler.observe(flame_fit, prev_fit)


def _pso(config: EngineConfig, space: SearchSpace, rng):
    """PSO search for ``drive``: global-best particle swarm.

    Every particle is pulled toward its own best and the one swarm-wide
    best, with inertia 0.5 and c1 = c2 = 2; velocities are clamped to
    0.2 * (upper - lower) per dimension.
    """
    n, dim = config.pop_size, space.dim
    pos, fit = yield space.sample(n, rng)
    vel = np.zeros((n, dim))
    vmax = 0.2 * (space.upper - space.lower)
    pbest = pos.copy()
    pbest_fit = fit.copy()
    g = pbest_fit.argmin()
    gbest = pbest[g].copy()
    gbest_fit = float(pbest_fit[g])

    # every step works in these per-run buffers, made here: fresh (n, d)
    # temporaries made glibc trim the heap and fault the pages back in each
    # iteration (25,745 minor faults per F1 d=1000 run, 0-438 with the
    # buffers).  At d=1000 the draws alternate between two blocks, one
    # drawn ahead on a helper thread; the second lifts the faults to
    # 496-555.  The yielded move ``pos + vel`` stays a fresh array, and no
    # buffer aliases pbest or gbest
    draws = DrawAhead(rng.random, (2, n, dim), config.max_iter)
    tmp = np.empty((n, dim))
    # float bounds where 0.2 * (upper - lower) is one nonzero value, as
    # SearchSpace clips: 11 against 42 ms per 500 clamps at (30, 1000)
    vbounds = clip_bounds(-vmax, vmax)
    with draws:
        for _ in range(config.max_iter):
            r1, r2 = draws.next()
            # vel = 0.5 * vel + 2 * r1 * (pbest - pos) + 2 * r2 * (gbest - pos)
            np.multiply(vel, 0.5, out=vel)
            np.multiply(r1, 2.0, out=r1)
            np.subtract(pbest, pos, out=tmp)
            np.multiply(r1, tmp, out=r1)
            np.add(vel, r1, out=vel)
            np.multiply(r2, 2.0, out=r2)
            np.subtract(gbest, pos, out=tmp)
            np.multiply(r2, tmp, out=r2)
            np.add(vel, r2, out=vel)
            # the ndarray method np.clip dispatches to, without its wrapper
            vel.clip(*vbounds, out=vel)
            pos, fit = yield pos + vel

            improved = fit < pbest_fit
            pbest[improved] = pos[improved]
            pbest_fit[improved] = fit[improved]
            g = pbest_fit.argmin()
            if pbest_fit[g] < gbest_fit:
                gbest = pbest[g].copy()
                gbest_fit = float(pbest_fit[g])


def _gwo(config: EngineConfig, space: SearchSpace, rng):
    """GWO search for ``drive``: each wolf averages three encircling moves
    around the alpha, beta and delta, the three best-so-far leaders (so
    pop_size >= 3), while the control parameter a falls linearly from 2 to 0.
    """
    n, big_t, dim = config.pop_size, config.max_iter, space.dim
    pos, fit = yield space.sample(n, rng)
    order = fit.argsort(kind="stable")[:3]
    leaders = pos[order].copy()
    leader_fit = fit[order].copy()

    # one draw block and one sum buffer per run, made here, for the same
    # reason as in _pso (fresh temporaries cost glibc heap trims at
    # d=1000).  At d=1000 the draws alternate between two blocks, one
    # drawn ahead on a helper thread, and the faults per run rise from
    # 0-560 to 705-914.  The yielded move ``moved / 3.0`` stays a fresh
    # array, and no buffer aliases leaders
    draws = DrawAhead(rng.random, (3, 2, n, dim), big_t)
    moved = np.empty((n, dim))
    with draws:
        for l in range(1, big_t + 1):
            a = 2.0 - 2.0 * (l - 1) / big_t
            # PCG64 fills C order: the same values as r1, r2 drawn per leader
            block = draws.next()
            moved.fill(0.0)  # each sum starts at +0.0: 0.0 + -0.0 gives 0.0
            for leader, (r1, r2) in zip(leaders, block):
                # moved += leader - (2a * r1 - a) * |2 * r2 * leader - pos|
                np.multiply(r1, 2.0 * a, out=r1)
                np.subtract(r1, a, out=r1)
                np.multiply(r2, 2.0, out=r2)
                np.multiply(r2, leader, out=r2)
                np.subtract(r2, pos, out=r2)
                np.abs(r2, out=r2)
                np.multiply(r1, r2, out=r1)
                np.subtract(leader, r1, out=r1)
                np.add(moved, r1, out=moved)
            pos, fit = yield moved / 3.0

            # fold the new wolves into the alpha/beta/delta hierarchy: a
            # stable top-3 with the leaders listed first, so a tie never
            # unseats one
            leaders, leader_fit = update_flames(leaders, leader_fit, pos,
                                                fit, 3)


# ---------------------------------------------------------------------------
# lockstep: several runs of one algorithm over (R, n, d) stacks
# ---------------------------------------------------------------------------

def drive_lockstep(configs, spaces, objectives, search) -> list:
    """Run several seeded runs of one stacked ``search`` together; one
    RunResult per run.

    Run r is ``configs[r]`` on ``spaces[r]`` with ``objectives[r]``, and
    its result equals ``drive``'s with the algorithm's per-run search
    bitwise in every field but ``wall_time``.  The configs differ only in
    their seed, and the boxes share one dimension.  ``search(config,
    spaces, rngs)`` is ``drive``'s search over (R, n, d) stacks, with one
    rng per run (``make_rng`` of its seed) and ``configs[0]`` for the
    shared fields.  Each run's objective is called through
    ``evaluate_swarm`` on its own (n, d) rows; the clip (each box's
    bounds repeated over its rows), best-so-far and curves run once over
    the stack.  A run's ``wall_time`` is its own evaluation time plus an
    equal share of the rest, so the runs sum to the call's wall time.
    """
    start = time.perf_counter()
    config, runs = configs[0], len(configs)
    n, big_t, dim = config.pop_size, config.max_iter, spaces[0].dim
    eval_s = [0.0] * runs

    def evaluate(positions):
        fitness = np.empty((runs, n))
        for r, objective in enumerate(objectives):
            began = time.perf_counter()
            fitness[r] = evaluate_swarm(objective, positions[r])
            eval_s[r] += time.perf_counter() - began
        return fitness

    steps = search(config, spaces, [make_rng(c.seed) for c in configs])
    try:
        pos = next(steps)
        fit = evaluate(pos)
        best_position = np.empty((runs, dim))
        best_fitness = np.full(runs, np.inf)
        _keep_best(best_position, best_fitness, pos, fit)

        # the array-bound clip loop gives each box's own clip bytes, a
        # cube's scalar bounds included.  Bounds of the stack's full shape
        # ran chunks of mfo, nlcmfo and gwo 3-6% faster than (R, 1, d)
        # ones, whose inner loops are only d long
        lower = _over_rows([s.lower for s in spaces], n)
        upper = _over_rows([s.upper for s in spaces], n)
        convergence = np.empty((runs, big_t))
        mean_fitness = np.empty((runs, big_t))
        trajectory = np.empty((runs, big_t))
        history = (np.empty((runs, big_t, n, dim)) if config.record_history
                   else None)

        for i in range(big_t):
            pos = steps.send((pos, fit)).clip(lower, upper)
            fit = evaluate(pos)
            _keep_best(best_position, best_fitness, pos, fit)
            convergence[:, i] = best_fitness
            mean_fitness[:, i] = np.add.reduce(fit, axis=1) / n
            trajectory[:, i] = pos[:, 0, 0]
            if history is not None:
                history[:, i] = pos
    finally:
        steps.close()

    share = (time.perf_counter() - start - sum(eval_s)) / runs
    return [RunResult(
        best_position=best_position[r], best_fitness=float(best_fitness[r]),
        convergence=convergence[r], mean_fitness=mean_fitness[r],
        trajectory=trajectory[r], evaluations=n * (big_t + 1),
        wall_time=eval_s[r] + share,
        history=None if history is None else history[r])
        for r in range(runs)]


def _keep_best(best_pos, best_fit, pos, fit) -> None:
    """Give each run's best, an (R, d) row and an (R,) value updated in
    place, the first row of its lowest value in (R, m) ``fit`` where that
    is strictly lower, as ``drive`` keeps its best-so-far."""
    low = fit.min(axis=1)
    better = low < best_fit
    # an iteration that improves no run skips the indexing
    if better.any():
        r = better.nonzero()[0]
        best_pos[r] = pos[r, fit[r].argmin(axis=1)]
        best_fit[r] = low[r]


def _sample_stack(spaces, n: int, rngs) -> np.ndarray:
    """Each run's start swarm, drawn from its own rng, as an (R, n, d)
    stack."""
    return np.stack([s.sample(n, rng) for s, rng in zip(spaces, rngs)])


def _over_rows(rows, n: int) -> np.ndarray:
    """Each run's (d,) row repeated over its n swarm rows, (R, n, d)."""
    return np.repeat(np.stack(rows)[:, None, :], n, axis=1)


def _best_rows(positions, fitness, keep: int):
    """``update_flames`` over a stack: each run's ``keep`` lowest rows of
    (R, m, d) ``positions`` by a stable sort of its (R, m) ``fitness``,
    as ((R, keep, d), (R, keep)) arrays."""
    runs, m, dim = positions.shape
    picks = (fitness.argsort(axis=1, kind="stable")[:, :keep]
             + np.arange(runs)[:, None] * m)
    return positions.reshape(-1, dim).take(picks, axis=0), fitness.take(picks)


def _merge(archive, archive_fit, pos, fit, keep: int):
    """Each run's archive merged with its swarm, archive rows first, as in
    ``update_flames``."""
    return _best_rows(np.concatenate([archive, pos], axis=1),
                      np.concatenate([archive_fit, fit], axis=1), keep)


def _mfo_stack(config: EngineConfig, spaces, rngs):
    """``_mfo`` over a stack: per-run spiral times, one spiral move."""
    n, big_t = config.pop_size, config.max_iter
    moths, fitness = yield _sample_stack(spaces, n, rngs)
    flame_pos, flame_fit = _best_rows(moths, fitness, n)
    t = np.empty((len(rngs), n))
    moth_idx = np.arange(n)
    for l in range(1, big_t + 1):
        k = flame_count(n, l, big_t)
        a = convergence_constant(l, big_t)
        paired = flame_pos[:, np.minimum(moth_idx, k - 1)]
        for r, rng in enumerate(rngs):
            t[r] = t_mfo(a, rng, size=n)
        moths, fitness = yield spiral_step_mfo(moths, paired, t[:, :, None])
        flame_pos, flame_fit = _merge(flame_pos, flame_fit, moths, fitness,
                                      n)


def _nlcmfo_stack(config: EngineConfig, spaces, rngs):
    """``_nlcmfo`` over a stack: each run keeps its own map scheduler and
    Levy fill (drawn inline, into its own (2, n, d) slice); the transform
    and spiral move run once."""
    n, big_t, dim, runs = (config.pop_size, config.max_iter, spaces[0].dim,
                           len(rngs))
    sampler, schedulers = LevySampler(), [MapScheduler() for _ in rngs]
    moths, fitness = yield _sample_stack(spaces, n, rngs)
    flame_pos, flame_fit = _best_rows(moths, fitness, n)
    # each run fills its own (2, n, d) slice of ``block``, as DrawAhead
    # would; the transform runs on a copy with the x and y halves
    # contiguous across runs, as on strided views it ran 10% slower
    block = np.empty((runs, 2, n, dim))
    levy_block = np.empty((2, runs, n, dim))
    work = np.empty((2, runs, n, dim))
    paired = np.empty((runs, n, dim))
    cm = np.empty((runs, n))
    moth_idx = np.arange(n)
    for l in range(1, big_t + 1):
        k = flame_count(n, l, big_t)
        a = convergence_constant(l, big_t)
        idx = np.minimum(moth_idx, k - 1)
        flame_pos.take(idx, axis=1, out=paired, mode="clip")
        w = nonlinear_weight(l, big_t)
        for r, scheduler in enumerate(schedulers):
            cm[r] = scheduler.active.steps(n)
            sampler.draw(rngs[r], out=block[r])
        np.copyto(levy_block, block.transpose(1, 0, 2, 3))
        t = t_nlcmfo(a, cm)
        levy = sampler.matrix(runs * n, dim, levy_block)
        moths, fitness = yield spiral_step_nlcmfo(moths, paired, t[:, :, None],
                                                  w, levy, out=work)
        prev_fit = flame_fit
        flame_pos, flame_fit = _merge(flame_pos, flame_fit, moths, fitness,
                                      n)
        for r, scheduler in enumerate(schedulers):
            scheduler.observe(flame_fit[r], prev_fit[r])


def _pso_stack(config: EngineConfig, spaces, rngs):
    """``_pso`` over a stack: each run fills its own (2, n, d) draw block;
    the velocity update and clamp (each run's bounds repeated over its
    rows) run once."""
    n, dim, runs = config.pop_size, spaces[0].dim, len(rngs)
    pos, fit = yield _sample_stack(spaces, n, rngs)
    vel = np.zeros((runs, n, dim))
    vmax = _over_rows([0.2 * (s.upper - s.lower) for s in spaces], n)
    vmin = -vmax
    pbest, pbest_fit = pos.copy(), fit.copy()
    gbest, gbest_fit = np.empty((runs, dim)), np.full(runs, np.inf)
    _keep_best(gbest, gbest_fit, pbest, pbest_fit)
    # run r fills r1[r], then r2[r], as _pso fills its (2, n, d) block
    r1, r2 = np.empty((2, runs, n, dim))
    tmp = np.empty((runs, n, dim))
    for _ in range(config.max_iter):
        for rng, first, second in zip(rngs, r1, r2):
            rng.random(out=first)
            rng.random(out=second)
        np.multiply(vel, 0.5, out=vel)
        np.multiply(r1, 2.0, out=r1)
        np.subtract(pbest, pos, out=tmp)
        np.multiply(r1, tmp, out=r1)
        np.add(vel, r1, out=vel)
        np.multiply(r2, 2.0, out=r2)
        np.subtract(gbest[:, None], pos, out=tmp)
        np.multiply(r2, tmp, out=r2)
        np.add(vel, r2, out=vel)
        vel.clip(vmin, vmax, out=vel)
        pos, fit = yield pos + vel

        improved = fit < pbest_fit
        np.copyto(pbest, pos, where=improved[:, :, None])
        np.copyto(pbest_fit, fit, where=improved)
        _keep_best(gbest, gbest_fit, pbest, pbest_fit)


def _gwo_stack(config: EngineConfig, spaces, rngs):
    """``_gwo`` over a stack: each run fills its own draws; the three
    encircling moves run once over (3, R, n, d), leaders first, so every
    operand is contiguous."""
    n, big_t, dim, runs = (config.pop_size, config.max_iter, spaces[0].dim,
                           len(rngs))
    pos, fit = yield _sample_stack(spaces, n, rngs)
    leaders, leader_fit = _best_rows(pos, fit, 3)
    # run r fills r1[0, r], r2[0, r], r1[1, r], ..., as _gwo fills its
    # (3, 2, n, d) block
    r1, r2 = np.empty((2, 3, runs, n, dim))
    # the leaders copied over every wolf's row: with full-size operands a
    # chunk of 3 runs at d=30-35 ran about 2% faster (9 of 12 pairs) than
    # with the leaders broadcast inside each ufunc
    spread = np.empty((3, runs, n, dim))
    moved = np.empty((runs, n, dim))
    for l in range(1, big_t + 1):
        a = 2.0 - 2.0 * (l - 1) / big_t
        for r, rng in enumerate(rngs):
            for leader in range(3):
                rng.random(out=r1[leader, r])
                rng.random(out=r2[leader, r])
        np.copyto(spread, leaders.transpose(1, 0, 2)[:, :, None, :])
        np.multiply(r1, 2.0 * a, out=r1)
        np.subtract(r1, a, out=r1)
        np.multiply(r2, 2.0, out=r2)
        np.multiply(r2, spread, out=r2)
        np.subtract(r2, pos, out=r2)
        np.abs(r2, out=r2)
        np.multiply(r1, r2, out=r1)
        np.subtract(spread, r1, out=r1)
        # summed in _gwo's order from +0.0
        moved.fill(0.0)
        for term in r1:
            np.add(moved, term, out=moved)
        pos, fit = yield moved / 3.0
        leaders, leader_fit = _merge(leaders, leader_fit, pos, fit, 3)


class Algorithm(NamedTuple):
    """One registry entry: the per-run search for ``drive``, the pop_size
    floor, the stacked search for ``drive_lockstep`` and ``chunk_values``,
    the most values an (R, n, d) stack of a lockstep chunk holds."""

    search: Callable
    floor: int
    stack: Callable
    chunk_values: int


# The one algorithm registry.  A chunk bound is the largest stack in which
# LOCKSTEP_MIN_RUNS (3, in harness) runs at the widest d it admits still
# beat the same runs one at a time; a stack's gain shrinks as d grows.
# Measured in one process on 2 cores (4 MB of L2 each), n=30, T=500,
# criterion-3 functions in turn: the chunk's median time against the
# same runs one at a time over 16 alternating pairs, 3 runs unless noted:
#
#   bound          widest admitted   d=30, most runs   left out
#   mfo     9,000  d=100 -0 to -7%   9 runs -22%       d=120 -1%, d=133 +7%
#   nlcmfo  9,000  d=100 -0 to -1%   9 runs -23%       d=133 +5%, d=166 +4%
#   pso     7,200  d=80 -3 to -5%    8 runs -20%       d=100 +3%, d=133 +8%
#   gwo     9,000  d=100 -7 to -9%   9 runs -23%       d=133 +0%
ALGORITHMS = {"mfo": Algorithm(_mfo, 2, _mfo_stack, 9_000),
              "nlcmfo": Algorithm(_nlcmfo, 2, _nlcmfo_stack, 9_000),
              "pso": Algorithm(_pso, 2, _pso_stack, 7_200),
              "gwo": Algorithm(_gwo, 3, _gwo_stack, 9_000)}


def run(config: EngineConfig, space: SearchSpace, objective: Objective) -> RunResult:
    """Execute one seeded run of ``config.algorithm``, any of the four; see
    the module docstring."""
    validate_config(config)
    return drive(config, space, objective, ALGORITHMS[config.algorithm].search)
