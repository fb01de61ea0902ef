"""Baseline swarm optimizers sharing the engine's run contract.

Both return the same ``RunResult`` as the moth-flame engines (same
telemetry lengths, same pop_size * (max_iter + 1) evaluation count), so the
harness can mix them into one comparison grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import Objective, RunResult, evaluate_swarm, update_flames
from .space import SearchSpace
from .stochastic import make_rng


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
    initial_positions: Optional[np.ndarray] = None


@dataclass
class GwoConfig:
    pop_size: int = 30
    max_iter: int = 500
    seed: int = 0
    a_start: float = 2.0
    a_end: float = 0.0
    record_history: bool = False
    initial_positions: Optional[np.ndarray] = None


def _initial_swarm(config, space: SearchSpace, rng) -> np.ndarray:
    if config.initial_positions is not None:
        pos = np.array(config.initial_positions, dtype=np.float64)
        if pos.shape != (config.pop_size, space.dim):
            raise ValueError(
                f"initial_positions shape {pos.shape} != "
                f"({config.pop_size}, {space.dim})"
            )
        return space.clip(pos)
    return space.sample(config.pop_size, rng)


def run_pso(config: PsoConfig, space: SearchSpace, objective: Objective) -> RunResult:
    """Global-best particle swarm with a velocity clamp.

    Fully connected topology: every particle is pulled toward its own best
    and the single swarm-wide best.  Velocities are clamped to
    velocity_clamp * (upper - lower) per dimension, positions to the box.
    """
    if config.pop_size < 2:
        raise ValueError("pop_size must be >= 2")
    if config.max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    start = time.perf_counter()
    rng = make_rng(config.seed)
    n, big_t, dim = config.pop_size, config.max_iter, space.dim

    pos = _initial_swarm(config, space, rng)
    vel = np.zeros((n, dim))
    vmax = config.velocity_clamp * (space.upper - space.lower)
    fit = evaluate_swarm(objective, pos)
    evaluations = n
    pbest = pos.copy()
    pbest_fit = fit.copy()
    g = int(np.argmin(pbest_fit))
    gbest = pbest[g].copy()
    gbest_fit = float(pbest_fit[g])

    convergence = np.empty(big_t)
    mean_fitness = np.empty(big_t)
    trajectory = np.empty(big_t)
    history = np.empty((big_t, n, dim)) if config.record_history else None

    for l in range(1, big_t + 1):
        r1 = rng.random((n, dim))
        r2 = rng.random((n, dim))
        vel = (
            config.inertia * vel
            + config.c1 * r1 * (pbest - pos)
            + config.c2 * r2 * (gbest - pos)
        )
        vel = np.clip(vel, -vmax, vmax)
        pos = space.clip(pos + vel)
        fit = evaluate_swarm(objective, pos)
        evaluations += n

        improved = fit < pbest_fit
        pbest[improved] = pos[improved]
        pbest_fit[improved] = fit[improved]
        g = int(np.argmin(pbest_fit))
        if pbest_fit[g] < gbest_fit:
            gbest = pbest[g].copy()
            gbest_fit = float(pbest_fit[g])

        convergence[l - 1] = gbest_fit
        mean_fitness[l - 1] = fit.mean()
        trajectory[l - 1] = pos[0, 0]
        if history is not None:
            history[l - 1] = pos

    return RunResult(
        best_position=gbest,
        best_fitness=gbest_fit,
        convergence=convergence,
        mean_fitness=mean_fitness,
        trajectory=trajectory,
        evaluations=evaluations,
        wall_time=time.perf_counter() - start,
        history=history,
    )


def run_gwo(config: GwoConfig, space: SearchSpace, objective: Objective) -> RunResult:
    """Grey wolf optimizer: wolves encircle the three best-so-far leaders.

    The control parameter a falls linearly from a_start to a_end; each wolf
    averages three encircling moves around the alpha, beta and delta
    leaders, which only ever improve (best-so-far elitism).
    """
    if config.pop_size < 3:
        raise ValueError("grey wolf optimizer needs pop_size >= 3 leaders")
    if config.max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    start = time.perf_counter()
    rng = make_rng(config.seed)
    n, big_t, dim = config.pop_size, config.max_iter, space.dim

    pos = _initial_swarm(config, space, rng)
    fit = evaluate_swarm(objective, pos)
    evaluations = n
    order = np.argsort(fit, kind="stable")[:3]
    leaders = pos[order].copy()
    leader_fit = fit[order].copy()

    convergence = np.empty(big_t)
    mean_fitness = np.empty(big_t)
    trajectory = np.empty(big_t)
    history = np.empty((big_t, n, dim)) if config.record_history else None

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
        pos = space.clip(moved / 3.0)
        fit = evaluate_swarm(objective, pos)
        evaluations += n

        # fold the new wolves into the alpha/beta/delta hierarchy: a stable
        # top-3 with the leaders listed first, so a tie never unseats one
        leaders, leader_fit = update_flames(leaders, leader_fit, pos, fit, 3)

        convergence[l - 1] = leader_fit[0]
        mean_fitness[l - 1] = fit.mean()
        trajectory[l - 1] = pos[0, 0]
        if history is not None:
            history[l - 1] = pos

    return RunResult(
        best_position=leaders[0].copy(),
        best_fitness=float(leader_fit[0]),
        convergence=convergence,
        mean_fitness=mean_fitness,
        trajectory=trajectory,
        evaluations=evaluations,
        wall_time=time.perf_counter() - start,
        history=history,
    )
