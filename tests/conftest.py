"""Fixtures shared by several test modules."""

import csv
import json

import numpy as np
import pytest

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
    """The fancy-indexed, loss-and-gradient minibatch loop, kept as the byte
    reference for ``hypertune.ToyLogisticClassifier.fit``.

    Takes the classifier's constructor arguments and the training split and
    returns ``(weights, bias, diverged, train_losses)``.  Its sigmoid and
    loss are written out here (``np.clip``, ``np.mean``) so a change to the
    package's helpers cannot move the reference with it.
    """
    def loss_grad(w, b, X, y, l2):
        z = X @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
        ce = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
        loss = float(np.mean(ce) + 0.5 * l2 * np.dot(w, w))
        resid = p - y
        return loss, X.T @ resid / len(y) + l2 * w, float(np.mean(resid))

    def fit(X, y, momentum, learning_rate, epochs, l2, batch_size, seed):
        n, p = X.shape
        rng = make_rng(seed)
        w = np.zeros(p)
        b = 0.0
        vw = np.zeros(p)
        vb = 0.0
        diverged = False
        losses = []
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                _, gw, gb = loss_grad(w, b, X[idx], y[idx], l2)
                vw = momentum * vw - learning_rate * gw
                vb = momentum * vb - learning_rate * gb
                w = w + vw
                b = b + vb
            if not np.all(np.isfinite(w)) or np.abs(w).max() > 1e6:
                diverged = True
                break
            losses.append(loss_grad(w, b, X, y, l2)[0])
        return w, b, diverged, losses
    return fit


@pytest.fixture
def reference_runs():
    """The three separate run loops (``engine.run`` for mfo and nlcmfo,
    ``run_pso``, ``run_gwo``) as they stood before the shared loop, kept as
    the byte reference for every runner.

    Maps an algorithm name to ``loop(config, space, objective)``, which
    returns a ``RunResult`` (config validation left out).  Only the loops
    are copied; the schedules, moves, samplers and the flame merge are the
    package's own.
    """
    from nlcmfo.engine import (MapScheduler, RunResult, convergence_constant,
                               evaluate_swarm, flame_count, nonlinear_weight,
                               spiral_step_mfo, spiral_step_nlcmfo, t_mfo,
                               t_nlcmfo, update_flames)
    from nlcmfo.stochastic import ChaoticMap, LevySampler

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
            sampler = LevySampler(config.levy_alpha)
            scheduler = MapScheduler(
                ChaoticMap(config.map_primary, config.map_state0),
                ChaoticMap(config.map_secondary, config.map_state0),
                config.stagnation_window,
            )
            prev_fit = flame_fit.copy()
        convergence, mean_fitness, trajectory, history = telemetry(config, space)
        moth_idx = np.arange(n)
        for l in range(1, big_t + 1):
            k = flame_count(n, l, big_t)
            a = convergence_constant(l, big_t)
            paired = flame_pos[np.minimum(moth_idx, k - 1)]
            if chaotic:
                w = nonlinear_weight(l, big_t)
                t = t_nlcmfo(a, scheduler.active.steps(n))
                levy = sampler.matrix(n, dim, rng)
                moths = spiral_step_nlcmfo(moths, paired, config.b, t[:, None],
                                           w, levy)
            else:
                t = t_mfo(a, rng, size=n)
                moths = spiral_step_mfo(moths, paired, config.b, t[:, None])
            moths = space.clip(moths)
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
        vmax = config.velocity_clamp * (space.upper - space.lower)
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
            vel = (config.inertia * vel + config.c1 * r1 * (pbest - pos)
                   + config.c2 * r2 * (gbest - pos))
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
            a = config.a_start - (config.a_start - config.a_end) * (l - 1) / big_t
            moved = np.zeros((n, dim))
            for leader in leaders:
                r1 = rng.random((n, dim))
                r2 = rng.random((n, dim))
                big_a = 2.0 * a * r1 - a
                big_c = 2.0 * r2
                moved += leader - big_a * np.abs(big_c * leader - pos)
            pos = space.clip(moved / 3.0)
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
