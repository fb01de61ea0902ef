"""Baseline swarm optimizers run by the engine's shared loop.

Each is a search generator for ``engine.drive``, the loop that also runs
mfo and nlcmfo, so all four optimizers return the same ``RunResult`` (same
telemetry, same pop_size * (max_iter + 1) evaluation count) and the harness
can mix them into one comparison grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# evaluate_swarm is bound here too: perfbench's tracer wraps this module's name
from .engine import (Objective, RunResult, check_swarm_config, drive,  # noqa: F401
                     evaluate_swarm, update_flames)
from .space import SearchSpace


@dataclass
class PsoConfig:
    pop_size: int = 30
    max_iter: int = 500
    seed: int = 0
    inertia: float = 0.5
    c1: float = 2.0
    c2: float = 2.0
    velocity_clamp: float = 0.2       # fraction of the per-dimension range
    record_history: bool = False


@dataclass
class GwoConfig:
    pop_size: int = 30
    max_iter: int = 500
    seed: int = 0
    a_start: float = 2.0
    a_end: float = 0.0
    record_history: bool = False


def validate_pso_config(config: PsoConfig) -> None:
    """Raise the error a PSO run with this config would raise, before it starts.

    Checks the swarm floor of two particles, max_iter >= 1, that inertia,
    c1, c2 and velocity_clamp are finite real numbers (a number given as a
    JSON string is a TypeError, a NaN or infinity a ValueError), and that
    velocity_clamp > 0: a negative clamp moves every particle by the
    constant clamp, and 0 freezes the swarm on its start points.
    """
    check_swarm_config(config, 2, ("inertia", "c1", "c2", "velocity_clamp"))
    if config.velocity_clamp <= 0:
        raise ValueError(
            f"velocity_clamp must be > 0, got {config.velocity_clamp!r}")


def validate_gwo_config(config: GwoConfig) -> None:
    """Raise the error a GWO run with this config would raise, before it starts.

    Checks the swarm floor of three wolves (the alpha, beta and delta
    leaders), max_iter >= 1, and that a_start and a_end are finite real
    numbers.
    """
    check_swarm_config(config, 3, ("a_start", "a_end"))


def _pso(config: PsoConfig, space: SearchSpace, rng):
    """PSO search for ``drive``: velocities pulled to pbest and gbest."""
    n, dim = config.pop_size, space.dim
    pos, fit = yield space.sample(n, rng)
    vel = np.zeros((n, dim))
    vmax = config.velocity_clamp * (space.upper - space.lower)
    pbest = pos.copy()
    pbest_fit = fit.copy()
    g = pbest_fit.argmin()
    gbest = pbest[g].copy()
    gbest_fit = float(pbest_fit[g])

    for _ in range(config.max_iter):
        r1 = rng.random((n, dim))
        r2 = rng.random((n, dim))
        vel = (
            config.inertia * vel
            + config.c1 * r1 * (pbest - pos)
            + config.c2 * r2 * (gbest - pos)
        )
        vel = np.clip(vel, -vmax, vmax)
        pos, fit = yield pos + vel

        improved = fit < pbest_fit
        pbest[improved] = pos[improved]
        pbest_fit[improved] = fit[improved]
        g = pbest_fit.argmin()
        if pbest_fit[g] < gbest_fit:
            gbest = pbest[g].copy()
            gbest_fit = float(pbest_fit[g])


def run_pso(config: PsoConfig, space: SearchSpace, objective: Objective) -> RunResult:
    """Global-best particle swarm with a velocity clamp.

    Fully connected topology: every particle is pulled toward its own best
    and the single swarm-wide best.  Velocities are clamped to
    velocity_clamp * (upper - lower) per dimension, positions to the box.
    """
    validate_pso_config(config)
    return drive(config, space, objective, _pso)


def _gwo(config: GwoConfig, space: SearchSpace, rng):
    """GWO search for ``drive``: wolves encircle the alpha, beta and delta."""
    n, big_t, dim = config.pop_size, config.max_iter, space.dim
    pos, fit = yield space.sample(n, rng)
    order = fit.argsort(kind="stable")[:3]
    leaders = pos[order].copy()
    leader_fit = fit[order].copy()

    for l in range(1, big_t + 1):
        a = config.a_start - (config.a_start - config.a_end) * (l - 1) / big_t
        moved = np.zeros((n, dim))
        for leader in leaders:
            r1 = rng.random((n, dim))
            r2 = rng.random((n, dim))
            big_a = 2.0 * a * r1 - a
            big_c = 2.0 * r2
            dist = np.abs(big_c * leader - pos)
            moved += leader - big_a * dist
        pos, fit = yield moved / 3.0

        # fold the new wolves into the alpha/beta/delta hierarchy: a stable
        # top-3 with the leaders listed first, so a tie never unseats one
        leaders, leader_fit = update_flames(leaders, leader_fit, pos, fit, 3)


def run_gwo(config: GwoConfig, space: SearchSpace, objective: Objective) -> RunResult:
    """Grey wolf optimizer: wolves encircle the three best-so-far leaders.

    The control parameter a falls linearly from a_start to a_end; each wolf
    averages three encircling moves around the alpha, beta and delta
    leaders, which only ever improve (best-so-far elitism).
    """
    validate_gwo_config(config)
    return drive(config, space, objective, _gwo)
