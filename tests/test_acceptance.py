"""Acceptance suite: nine go/no-go checks covering the closed-form
schedules, benchmark fidelity, full-scale comparative behavior, engine
invariants, the tuning stack, the metrics, and scalability.

Each test prints one CRITERION line (visible with pytest -s) and asserts
the same condition, so a failure report carries the full detail.
"""

import math
import time

import numpy as np
import pytest

from nlcmfo.benchmarks import lookup
from nlcmfo.engine import EngineConfig, flame_count, nonlinear_weight, run
from nlcmfo.harness import ExperimentConfig, run_experiment, summarize
from nlcmfo.hypertune import (HYPER_LB, HYPER_UB, ConfusionCounts,
                              _logistic_grad, decode_hyperparams,
                              evaluate_L_D, make_toy_dataset, metrics,
                              train_toy_model, tune)
from nlcmfo.stochastic import ChaoticMap, levy_sigma_x, make_rng


def report(criterion: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


# ---------------------------------------------------------------------------
# full-scale comparative sweep, shared by criteria 3 and 4
# ---------------------------------------------------------------------------

SWEEP_FUNCTIONS = ("F1", "F2", "F3", "F4", "F7", "F8", "F9", "F10", "F11")


@pytest.fixture(scope="module")
def fullscale_means():
    """Mean final best per (algorithm, function) at d=30, n=30, T=500,
    30 runs seeded 0..29."""
    config = ExperimentConfig(algorithms=("nlcmfo", "mfo"),
                              functions=SWEEP_FUNCTIONS, dim=30,
                              runs=30, pop_size=30, max_iter=500,
                              base_seed=0)
    rows = summarize(run_experiment(config).records)
    return {(r.algorithm, r.function): r.ave for r in rows}


# ---------------------------------------------------------------------------
# criterion 1: closed-form schedule and distribution constants
# ---------------------------------------------------------------------------

def test_criterion_1_closed_form_checks():
    t0 = time.perf_counter()
    checks = []

    start = time.perf_counter()
    checks.append(("nonlinear_weight(0,500)=4",
                   nonlinear_weight(0, 500) == 4.0,
                   time.perf_counter() - start))
    start = time.perf_counter()
    checks.append(("nonlinear_weight(500,500)<1e-15",
                   nonlinear_weight(500, 500) < 1e-15,
                   time.perf_counter() - start))
    start = time.perf_counter()
    counts = [flame_count(30, l, 500) for l in range(1, 501)]
    checks.append(("flame_count 30->1 over T=500",
                   counts[0] == 30 and counts[-1] == 1
                   and all(b <= a for a, b in zip(counts, counts[1:])),
                   time.perf_counter() - start))
    start = time.perf_counter()
    checks.append(("levy_sigma_x(1.5)=0.696548+-1e-4",
                   abs(levy_sigma_x(1.5) - 0.696548) <= 1e-4,
                   time.perf_counter() - start))
    start = time.perf_counter()
    checks.append(("levy_sigma_x(1.0)=1 exactly",
                   levy_sigma_x(1.0) == 1.0,
                   time.perf_counter() - start))
    start = time.perf_counter()
    sine = ChaoticMap("sine", state=0.7)
    checks.append(("sine 0.7->0.809017+-1e-6",
                   abs(sine.step() - 0.809017) <= 1e-6,
                   time.perf_counter() - start))

    ok = all(c[1] for c in checks) and all(c[2] < 1.0 for c in checks)
    failed = [c[0] for c in checks if not c[1]]
    detail = (f"6 closed-form checks, slowest "
              f"{max(c[2] for c in checks) * 1e3:.2f} ms"
              if ok else f"failed: {failed}")
    line = report(1, ok, detail)
    assert ok, line
    assert time.perf_counter() - t0 < 6.0


# ---------------------------------------------------------------------------
# criterion 2: benchmark fidelity at the reference minimizers
# ---------------------------------------------------------------------------

# external reference values as printed, at their printed precision
PRINTED_FIXED_MINIMA = {
    "F14": "1", "F15": "0.00030", "F16": "-1.0316", "F17": "0.398",
    "F18": "3", "F19": "-3.86", "F20": "-3.32", "F21": "-10.1532",
    "F22": "-10.4028", "F23": "-10.5363",
}


def printed_tolerance(text: str) -> float:
    decimals = len(text.split(".")[1]) if "." in text else 0
    return max(1e-3, 0.51 * 10.0 ** (-decimals))


def test_criterion_2_benchmark_fidelity():
    t0 = time.perf_counter()
    failures = []

    for i in range(1, 14):
        fid = f"F{i}"
        func = lookup(fid)
        if func.noisy:
            # additive uniform noise: subtract the same generator's draw to
            # expose the deterministic part at the minimizer
            value = func.evaluate(func.minimizer, rng=make_rng(0, stream=1))
            noise = float(make_rng(0, stream=1).random())
            if abs((value - noise) - func.f_min) > 1e-4:
                failures.append(fid)
        elif fid == "F8":
            value = func.evaluate(func.minimizer)
            if abs(value - (-418.9829 * 30)) > 0.01:
                failures.append(fid)
        else:
            value = func.evaluate(func.minimizer)
            if abs(value - func.f_min) > 1e-4:
                failures.append(fid)

    for fid, text in PRINTED_FIXED_MINIMA.items():
        func = lookup(fid)
        value = func.evaluate(func.minimizer)
        if abs(value - func.f_min) > 1e-3:
            failures.append(f"{fid} eval")
        if abs(func.f_min - float(text)) > printed_tolerance(text):
            failures.append(f"{fid} printed")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    detail = (f"23 functions at reference minimizers in {elapsed:.2f} s"
              if ok else f"failed: {failures}, {elapsed:.2f} s")
    line = report(2, ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criteria 3 and 4: full-scale comparative ordering
# ---------------------------------------------------------------------------

def test_criterion_3_fullscale_ordering(fullscale_means):
    means = fullscale_means
    ordering_fns = ("F1", "F2", "F3", "F4", "F7", "F9", "F10", "F11")
    failures = []
    for fid in ordering_fns:
        if not means[("nlcmfo", fid)] < means[("mfo", fid)]:
            failures.append(
                f"{fid}: nlcmfo {means[('nlcmfo', fid)]:.3e} "
                f">= mfo {means[('mfo', fid)]:.3e}")
    if not means[("nlcmfo", "F1")] < 1e-20:
        failures.append(f"F1 mean {means[('nlcmfo', 'F1')]:.3e} >= 1e-20")
    if not means[("nlcmfo", "F10")] <= 1e-14:
        failures.append(f"F10 mean {means[('nlcmfo', 'F10')]:.3e} > 1e-14")

    ok = not failures
    detail = (f"nlcmfo < mfo on all 8 functions; F1 mean "
              f"{means[('nlcmfo', 'F1')]:.2e}, F10 mean "
              f"{means[('nlcmfo', 'F10')]:.2e}"
              if ok else "; ".join(failures))
    line = report(3, ok, detail)
    assert ok, line


def test_criterion_4_f8_anomaly(fullscale_means):
    nl, mfo = fullscale_means[("nlcmfo", "F8")], fullscale_means[("mfo", "F8")]
    ok = nl > mfo
    line = report(4, ok, f"F8 means: nlcmfo {nl:.2f} vs mfo {mfo:.2f} "
                         f"(chaotic variant expected worse)")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 5: fixed-dimension recovery
# ---------------------------------------------------------------------------

def test_criterion_5_fixed_dimension_recovery():
    t0 = time.perf_counter()
    targets = {"F16": -1.0316, "F17": 0.40, "F18": 3.00, "F19": -3.86}
    # nlcmfo's Levy-scaled flame term pulls every move toward the origin
    # (spiral_step_nlcmfo), so it is only held to the optima near the origin;
    # its stall at interior optima such as F17's and F19's is pinned by
    # test_engine.py::test_nlcmfo_collapses_to_origin_but_stalls_off_origin.
    required = {"nlcmfo": ("F16", "F18"), "mfo": tuple(targets)}
    config = ExperimentConfig(algorithms=tuple(required),
                              functions=tuple(targets), runs=30,
                              pop_size=30, max_iter=500, base_seed=0)
    rows = summarize(run_experiment(config).records)
    best_of_30 = {(r.algorithm, r.function): r.best for r in rows}

    failures = []
    for alg, fids in required.items():
        for fid in fids:
            if abs(best_of_30[(alg, fid)] - targets[fid]) > 1e-2:
                failures.append(f"{alg} {fid}: best-of-30 "
                                f"{best_of_30[(alg, fid)]:.4f} "
                                f"vs target {targets[fid]}")
    elapsed = time.perf_counter() - t0

    ok = not failures and elapsed < 60.0
    detail = (f"nlcmfo F16 F18, mfo F16-F19 within 1e-2 in {elapsed:.1f} s"
              if ok else "; ".join(failures) + f" [{elapsed:.1f} s]")
    line = report(5, ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 6: engine invariants across 100 seeds
# ---------------------------------------------------------------------------

def test_criterion_6_engine_invariants():
    t0 = time.perf_counter()
    pop, iters = 10, 60
    cases = [("F1", 10), ("F9", 10), ("F16", None)]
    failures = []

    for fid, dim in cases:
        func = lookup(fid)
        space = func.space(dim)
        for seed in range(100):
            config = EngineConfig(pop_size=pop, max_iter=iters, seed=seed,
                                  record_history=True)
            result = run(config, space, func.objective())
            if not np.all(np.diff(result.convergence) <= 0):
                failures.append(f"{fid} seed {seed}: convergence increases")
                break
            if not (np.all(result.history >= space.lower)
                    and np.all(result.history <= space.upper)):
                failures.append(f"{fid} seed {seed}: position out of bounds")
                break
            if result.evaluations != pop * (iters + 1):
                failures.append(f"{fid} seed {seed}: evaluations "
                                f"{result.evaluations}")
                break
        # bitwise reproducibility at one seed per function
        config = EngineConfig(pop_size=pop, max_iter=iters, seed=0,
                              record_history=True)
        a = run(config, space, func.objective())
        b = run(config, space, func.objective())
        if not (a.best_fitness == b.best_fitness
                and np.array_equal(a.history, b.history)
                and np.array_equal(a.convergence, b.convergence)):
            failures.append(f"{fid}: replay not bitwise identical")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    detail = (f"300 runs: monotone curves, bounded telemetry, "
              f"{pop * (iters + 1)} evals each, bitwise replay; "
              f"{elapsed:.1f} s" if ok else f"{failures} [{elapsed:.1f} s]")
    line = report(6, ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 7: tuning stack
# ---------------------------------------------------------------------------

def test_criterion_7_hypertune():
    def loss(w, b, X, y):  # mean cross-entropy + 0.5*l2*|w|^2, l2 = 1e-3
        z = X @ w + b
        ce = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
        return float(np.mean(ce) + 0.5 * 1e-3 * np.dot(w, w))

    rng = np.random.default_rng(7)
    h = 1e-6
    max_rel = 0.0
    for _ in range(20):
        X = rng.normal(size=(25, 4))
        y = (rng.random(25) > 0.5).astype(np.float64)
        w = rng.normal(size=4) * 0.5
        b = float(rng.normal())
        # the gradient of a lockstep batch holding one member
        gw, gb = _logistic_grad(X, y, w[None], np.array([[b]]),
                                np.array([[1e-3]]))
        gw, gb = gw[0], float(gb[0, 0])
        for i in range(4):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            num = (loss(wp, b, X, y) - loss(wm, b, X, y)) / (2 * h)
            max_rel = max(max_rel, abs(gw[i] - num)
                          / max(1e-12, abs(gw[i]) + abs(num)))
        num_b = (loss(w, b + h, X, y) - loss(w, b - h, X, y)) / (2 * h)
        max_rel = max(max_rel, abs(gb - num_b)
                      / max(1e-12, abs(gb) + abs(num_b)))
    grad_ok = max_rel < 1e-5

    data = make_toy_dataset()
    # the `nlcmfo tune` defaults: pop 30, 20 iterations, 4-d box
    outcome = tune(EngineConfig(pop_size=30, max_iter=20, seed=0), data)
    midpoint = decode_hyperparams(
        (np.array(HYPER_LB) + np.array(HYPER_UB)) / 2.0)
    midpoint_ld = evaluate_L_D(train_toy_model(midpoint, data, seed=0), data)

    tune_ok = (outcome.trainings == 630
               and outcome.best_L_D <= midpoint_ld)
    ok = grad_ok and tune_ok
    detail = (f"gradient rel err {max_rel:.2e}; best L_D "
              f"{outcome.best_L_D:.4g} <= midpoint L_D {midpoint_ld:.4g}; "
              f"{outcome.trainings} trainings")
    line = report(7, ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 8: metrics row
# ---------------------------------------------------------------------------

def test_criterion_8_metrics_row():
    rep = metrics(ConfusionCounts(tp=305, fn=37, fp=16, tn=336))
    expected = {"accuracy": 92.4, "sensitivity": 89.2, "specificity": 95.5,
                "precision": 95.0}
    failures = []
    for name, want in expected.items():
        got = getattr(rep, name) * 100.0
        if abs(got - want) > 0.05:
            failures.append(f"{name} {got:.3f} vs {want}")
    f1_pct = rep.f1 * 100.0
    if abs(f1_pct - 92.0) > 0.05:
        failures.append(f"f1 {f1_pct:.3f} vs 92.0")

    ok = not failures
    detail = (f"accuracy {rep.accuracy * 100:.2f}%, sensitivity "
              f"{rep.sensitivity * 100:.2f}%, specificity "
              f"{rep.specificity * 100:.2f}%, precision "
              f"{rep.precision * 100:.2f}%, f1 {f1_pct:.2f}%"
              if ok else "; ".join(failures))
    line = report(8, ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 9: scalability smoke
# ---------------------------------------------------------------------------

def test_criterion_9_scalability():
    func = lookup("F1")

    def timed_run(dim):
        config = EngineConfig(pop_size=30, max_iter=500, seed=0)
        result = run(config, func.space(dim), func.objective())
        assert math.isfinite(result.best_fitness)
        assert result.wall_time > 0.0
        return result.wall_time

    wall_100 = timed_run(100)
    wall_1000 = timed_run(1000)
    ratio = wall_1000 / wall_100

    # a 10x dimension jump may cost at most 3x the proportional slowdown
    ok = ratio <= 30.0
    line = report(9, ok, f"d=1000 completed in {wall_1000:.2f} s "
                         f"(d=100: {wall_100:.2f} s, ratio {ratio:.2f}x, "
                         f"limit 30x)")
    assert ok, line
