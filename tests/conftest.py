"""Fixtures shared by several test modules."""

import csv
import json
import math
import os
import time

import numpy as np
import pytest

from nlcmfo.benchmarks import clear_composites, register_composite
from nlcmfo.stochastic import make_rng


@pytest.fixture
def reference_history_writer():
    """The one-csv.writer-row-per-value history writer, kept as the byte
    reference for ``harness.write_search_history``."""
    def write(history, path):
        n_iter, n_moths, d = history.shape
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "moth", "dim", "value"])
            for l in range(n_iter):
                for m in range(n_moths):
                    for j in range(d):
                        writer.writerow(
                            [l + 1, m, j + 1, repr(float(history[l, m, j]))])
    return write


@pytest.fixture
def dying_composite():
    """F24 (d=2) registered with an ``eval`` that ends the process running
    it, one second after it is called; evaluate it in pool workers only.
    The pause lets the runs already on other workers finish first."""
    def die(X):
        time.sleep(1.0)
        os._exit(3)

    clear_composites()
    register_composite({"id": "F24", "dim": 2, "lower": -5.0, "upper": 5.0,
                        "eval": die})
    yield "F24"
    clear_composites()


@pytest.fixture
def make_pack(tmp_path):
    """``make(name, f25_basis)`` writes a two-file composite pack, F24 (d=2,
    bias 10) and F25 (d=3), into ``tmp_path / name`` and returns its path;
    an unknown ``f25_basis`` makes the second file bad."""
    def make(name="pack", f25_basis="sphere"):
        directory = tmp_path / name
        directory.mkdir()
        specs = {
            "f24.json": {"id": "F24", "dim": 2, "lower": -5, "upper": 5,
                         "bias": 10.0, "components": [
                             {"basis": "sphere", "shift": [1.0, -1.0]}]},
            "f25.json": {"id": "F25", "dim": 3, "lower": -5, "upper": 5,
                         "components": [{"basis": f25_basis, "weight": 2.0}]},
        }
        for file_name, spec in specs.items():
            (directory / file_name).write_text(json.dumps(spec))
        return str(directory)
    return make


@pytest.fixture
def reference_fit():
    """The fancy-indexed minibatch loop, kept as the byte reference for
    ``hypertune.train_toy_models``.

    Takes the training split, the ``HyperParams`` fields, the batch size
    and the trainer seed and returns ``(weights, bias, diverged)``.  Its
    sigmoid and gradient are written out here (``np.clip``, ``np.mean``)
    so a change to the package's helpers cannot move the reference with
    it.
    """
    def grad(w, b, X, y, l2):
        p = 1.0 / (1.0 + np.exp(-np.clip(X @ w + b, -60.0, 60.0)))
        resid = p - y
        return X.T @ resid / len(y) + l2 * w, float(np.mean(resid))

    def fit(X, y, momentum, learning_rate, epochs, l2, batch_size, seed):
        n, p = X.shape
        rng = make_rng(seed)
        w = np.zeros(p)
        b = 0.0
        vw = np.zeros(p)
        vb = 0.0
        diverged = False
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                gw, gb = grad(w, b, X[idx], y[idx], l2)
                vw = momentum * vw - learning_rate * gw
                vb = momentum * vb - learning_rate * gb
                w = w + vw
                b = b + vb
            if not np.all(np.isfinite(w)) or np.abs(w).max() > 1e6:
                diverged = True
                break
        return w, b, diverged
    return fit


@pytest.fixture
def reference_runs():
    """The three separate run loops (``engine.run`` for mfo and nlcmfo,
    ``run_pso``, ``run_gwo``) as they stood before the shared loop, kept as
    the byte reference for every runner.

    Maps an algorithm name to ``loop(config, space, objective)``, which
    returns a ``RunResult`` (config validation left out).  Only the loops
    are copied; the schedules, mfo's move, the chaotic maps and the flame
    merge are the package's own.  The clamp into the box is ``np.clip``,
    and the flame pairing, the Levy draws and nlcmfo's move are their
    plain expressions, spelled out here so the reference does not lean on
    ``SearchSpace.clip``, ``LevySampler.matrix`` or
    ``spiral_step_nlcmfo``.  The algorithm constants are spelled out as
    the literals the old config defaults held, in the old operand order.
    """
    from nlcmfo.engine import (MapScheduler, RunResult, convergence_constant,
                               evaluate_swarm, flame_count, nonlinear_weight,
                               spiral_step_mfo, t_mfo, t_nlcmfo, update_flames)
    from nlcmfo.stochastic import levy_sigma_x

    def telemetry(config, space):
        big_t = config.max_iter
        history = (np.empty((big_t, config.pop_size, space.dim))
                   if config.record_history else None)
        return np.empty(big_t), np.empty(big_t), np.empty(big_t), history

    def moth_flame(config, space, objective):
        rng = make_rng(config.seed)
        n, big_t, dim = config.pop_size, config.max_iter, space.dim
        chaotic = config.algorithm == "nlcmfo"
        moths = space.sample(n, rng)
        fitness = evaluate_swarm(objective, moths)
        evaluations = n
        order = np.argsort(fitness, kind="stable")
        flame_pos, flame_fit = moths[order].copy(), fitness[order].copy()
        if chaotic:
            alpha = 1.5
            sigma_x = levy_sigma_x(alpha)
            scheduler = MapScheduler()
            prev_fit = flame_fit.copy()
        convergence, mean_fitness, trajectory, history = telemetry(config, space)
        moth_idx = np.arange(n)
        for l in range(1, big_t + 1):
            k = flame_count(n, l, big_t)
            a = convergence_constant(l, big_t)
            paired = flame_pos[np.minimum(moth_idx, k - 1)]
            if chaotic:
                w = nonlinear_weight(l, big_t)
                t = t_nlcmfo(a, scheduler.active.steps(n))[:, None]
                x = rng.normal(0.0, sigma_x, size=(n, dim))
                y = rng.normal(0.0, 1.0, size=(n, dim))
                zero = y == 0.0
                while zero.any():
                    y[zero] = rng.normal(0.0, 1.0, size=int(zero.sum()))
                    zero = y == 0.0
                levy = 0.05 * x / np.abs(y) ** (1.0 / alpha)
                d = np.abs(paired - moths)
                # cos(2 pi t), exactly 0 at the quarter points
                cos = np.where(np.mod(t, 0.5) == 0.25, 0.0,
                               np.cos(2.0 * math.pi * t))
                moths = w * levy * d * np.exp(t) * cos + levy * paired
            else:
                t = t_mfo(a, rng, size=n)
                moths = spiral_step_mfo(moths, paired, t[:, None])
            moths = np.clip(moths, space.lower, space.upper)
            fitness = evaluate_swarm(objective, moths)
            evaluations += n
            flame_pos, flame_fit = update_flames(flame_pos, flame_fit, moths,
                                                 fitness, n)
            convergence[l - 1] = flame_fit[0]
            mean_fitness[l - 1] = fitness.mean()
            trajectory[l - 1] = moths[0, 0]
            if history is not None:
                history[l - 1] = moths
            if chaotic:
                scheduler.observe(flame_fit, prev_fit)
                prev_fit = flame_fit.copy()
        return RunResult(flame_pos[0].copy(), float(flame_fit[0]), convergence,
                         mean_fitness, trajectory, evaluations, 0.0, history)

    def pso(config, space, objective):
        rng = make_rng(config.seed)
        n, big_t, dim = config.pop_size, config.max_iter, space.dim
        pos = space.sample(n, rng)
        vel = np.zeros((n, dim))
        vmax = 0.2 * (space.upper - space.lower)
        fit = evaluate_swarm(objective, pos)
        evaluations = n
        pbest = pos.copy()
        pbest_fit = fit.copy()
        g = int(np.argmin(pbest_fit))
        gbest = pbest[g].copy()
        gbest_fit = float(pbest_fit[g])
        convergence, mean_fitness, trajectory, history = telemetry(config, space)
        for l in range(1, big_t + 1):
            r1 = rng.random((n, dim))
            r2 = rng.random((n, dim))
            vel = (0.5 * vel + 2.0 * r1 * (pbest - pos)
                   + 2.0 * r2 * (gbest - pos))
            vel = np.clip(vel, -vmax, vmax)
            pos = np.clip(pos + vel, space.lower, space.upper)
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
        return RunResult(gbest, gbest_fit, convergence, mean_fitness,
                         trajectory, evaluations, 0.0, history)

    def gwo(config, space, objective):
        rng = make_rng(config.seed)
        n, big_t, dim = config.pop_size, config.max_iter, space.dim
        pos = space.sample(n, rng)
        fit = evaluate_swarm(objective, pos)
        evaluations = n
        order = np.argsort(fit, kind="stable")[:3]
        leaders = pos[order].copy()
        leader_fit = fit[order].copy()
        convergence, mean_fitness, trajectory, history = telemetry(config, space)
        for l in range(1, big_t + 1):
            a = 2.0 - (2.0 - 0.0) * (l - 1) / big_t
            moved = np.zeros((n, dim))
            for leader in leaders:
                r1 = rng.random((n, dim))
                r2 = rng.random((n, dim))
                big_a = 2.0 * a * r1 - a
                big_c = 2.0 * r2
                moved += leader - big_a * np.abs(big_c * leader - pos)
            pos = np.clip(moved / 3.0, space.lower, space.upper)
            fit = evaluate_swarm(objective, pos)
            evaluations += n
            leaders, leader_fit = update_flames(leaders, leader_fit, pos, fit, 3)
            convergence[l - 1] = leader_fit[0]
            mean_fitness[l - 1] = fit.mean()
            trajectory[l - 1] = pos[0, 0]
            if history is not None:
                history[l - 1] = pos
        return RunResult(leaders[0].copy(), float(leader_fit[0]), convergence,
                         mean_fitness, trajectory, evaluations, 0.0, history)

    return {"mfo": moth_flame, "nlcmfo": moth_flame, "pso": pso, "gwo": gwo}
