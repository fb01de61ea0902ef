"""Baseline swarm optimizers run by the engine's shared loop.

Each is a search generator for ``engine.drive``, the loop that also runs
mfo and nlcmfo, so all four optimizers take the same ``EngineConfig`` (its
``algorithm`` "pso" or "gwo"), pass the same validator, return the same
``RunResult`` (same telemetry, same pop_size * (max_iter + 1) evaluation
count) and the harness can mix them into one comparison grid.
"""

from __future__ import annotations

import numpy as np

# evaluate_swarm is bound here too: perfbench's tracer wraps this module's name
from .engine import (EngineConfig, Objective, RunResult, drive,  # noqa: F401
                     evaluate_swarm, update_flames, validate_config)
from .space import SearchSpace


def _pso(config: EngineConfig, space: SearchSpace, rng):
    """PSO search for ``drive``: velocities pulled to pbest and gbest."""
    n, dim = config.pop_size, space.dim
    pos, fit = yield space.sample(n, rng)
    vel = np.zeros((n, dim))
    vmax = 0.2 * (space.upper - space.lower)
    pbest = pos.copy()
    pbest_fit = fit.copy()
    g = pbest_fit.argmin()
    gbest = pbest[g].copy()
    gbest_fit = float(pbest_fit[g])

    # every step works in these per-run buffers: fresh (n, d) temporaries
    # made glibc trim the heap and fault the pages back in each iteration
    # (25,745 minor faults per F1 d=1000 run, 0-438 with the buffers); the
    # yielded move ``pos + vel`` stays a fresh array, and no buffer aliases
    # pbest or gbest
    draws = np.empty((2, n, dim))
    r1, r2 = draws
    tmp = np.empty((n, dim))
    vmin = -vmax
    for _ in range(config.max_iter):
        rng.random(out=draws)
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
        np.clip(vel, vmin, vmax, out=vel)
        pos, fit = yield pos + vel

        improved = fit < pbest_fit
        pbest[improved] = pos[improved]
        pbest_fit[improved] = fit[improved]
        g = pbest_fit.argmin()
        if pbest_fit[g] < gbest_fit:
            gbest = pbest[g].copy()
            gbest_fit = float(pbest_fit[g])


def run_pso(config: EngineConfig, space: SearchSpace, objective: Objective) -> RunResult:
    """Global-best particle swarm with a velocity clamp.

    Fully connected topology: every particle is pulled toward its own best
    and the single swarm-wide best, with inertia 0.5 and c1 = c2 = 2.
    Velocities are clamped to 0.2 * (upper - lower) per dimension,
    positions to the box.  ``config.algorithm`` must be "pso".
    """
    validate_config(config, ("pso",))
    return drive(config, space, objective, _pso)


def _gwo(config: EngineConfig, space: SearchSpace, rng):
    """GWO search for ``drive``: wolves encircle the alpha, beta and delta."""
    n, big_t, dim = config.pop_size, config.max_iter, space.dim
    pos, fit = yield space.sample(n, rng)
    order = fit.argsort(kind="stable")[:3]
    leaders = pos[order].copy()
    leader_fit = fit[order].copy()

    # one draw and one sum buffer per run, for the same reason as in _pso
    # (fresh temporaries cost glibc heap trims at d=1000); the yielded move
    # ``moved / 3.0`` stays a fresh array, and no buffer aliases leaders
    draws = np.empty((3, 2, n, dim))
    moved = np.empty((n, dim))
    for l in range(1, big_t + 1):
        a = 2.0 - 2.0 * (l - 1) / big_t
        # PCG64 fills C order: the same values as r1, r2 drawn per leader
        rng.random(out=draws)
        moved.fill(0.0)  # each sum starts at +0.0, so 0.0 + -0.0 gives 0.0
        for leader, (r1, r2) in zip(leaders, draws):
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

        # fold the new wolves into the alpha/beta/delta hierarchy: a stable
        # top-3 with the leaders listed first, so a tie never unseats one
        leaders, leader_fit = update_flames(leaders, leader_fit, pos, fit, 3)


def run_gwo(config: EngineConfig, space: SearchSpace, objective: Objective) -> RunResult:
    """Grey wolf optimizer: wolves encircle the three best-so-far leaders.

    The control parameter a falls linearly from 2 to 0; each wolf
    averages three encircling moves around the alpha, beta and delta
    leaders, which only ever improve (best-so-far elitism), so it needs
    pop_size >= 3.  ``config.algorithm`` must be "gwo".
    """
    validate_config(config, ("gwo",))
    return drive(config, space, objective, _gwo)
