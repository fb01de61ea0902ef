"""Benchmark for the nlcmfo toolkit: four workloads, one command.

    python3 perfbench/run.py --workload sweep-d30 --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  A run does ceil(seconds / nominal
pass time) whole passes back to back (a closed loop), so two commits
compared with the same arguments do identical work.

--trace 0 prints the end-to-end metrics declared in BENCHMARK.json, with
pass times scaled to a reference machine speed (see speed.py).
--trace 1 runs every pass twice, untraced then traced, checks that both
produce the same output digests, and prints the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Details (environment, failures, digests, pass times) go to
perfbench/out/.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in every child, so the
# load stays at the worker count the workload asks for.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference_digests.json"
SETUP_PROBES = 6          # extra fresh-process set-ups, besides this one
DEFAULT_SEED = 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up and print it (used internally)")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's digests as the reference")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(workload_name: str, seed: int, scratch: Path):
    """Import nlcmfo, build the workload's inputs and warm up; time it all."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import nlcmfo
    if Path(nlcmfo.__file__).resolve().parent != SRC / "nlcmfo":
        raise SystemExit(f"imported nlcmfo from {nlcmfo.__file__}, not {SRC}")
    import workloads
    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload_name!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[workload_name]()
    workload.build_inputs(seed)
    workload.warm_up(scratch / "warm-up")
    shutil.rmtree(scratch / "warm-up", ignore_errors=True)
    return workload, time.perf_counter() - start


def probe_setup(args) -> list:
    """Set-up time of SETUP_PROBES fresh interpreters (import included)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def tail(samples):
    """Highest percentile with >= 10 samples beyond it, or the max if n <= 20.

    Returns (percentile, value).
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 20:
        return 100.0, xs[-1]
    k = n - 11
    return 100.0 * (k + 1) / n, xs[k]


def dir_size(path: Path):
    files = [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def environment(args, passes: int) -> dict:
    import numpy
    sha = ""
    if (ROOT / ".git").exists():  # a plain source tree has no sha to report
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 text=True, capture_output=True,
                                 timeout=10).stdout.strip()
        except OSError:
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "nlcmfo").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": passes, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "affinity_cores": len(os.sched_getaffinity(0)),
        "git_sha": sha or None, "src_sha256": src_hash.hexdigest(),
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
    }


@dataclass
class Timed:
    """One timed pass: wall time, checked outcome and speed factors."""
    wall: float
    outcome: object               # workloads.PassOutcome
    factor: float                 # whole pass
    run_factors: list             # per run, in run order


class Runner:
    """Runs the passes of one workload and keeps what the metrics need."""

    def __init__(self, workload, scratch: Path, tracer=None):
        self.workload = workload
        self.scratch = scratch
        self.tracer = tracer
        self.targets = tracing.nlcmfo_targets(tracer) if tracer else None
        self.failures = []            # (pass, message)
        self.remarks = []             # lines for the report, not failures
        self.runs = {}                # pass -> runs attempted
        self.failed = {}              # pass -> runs failed
        self.passes = {}              # pass -> Timed, untraced
        self.traced = {}              # pass -> Timed, traced

    def run(self, passes: int, budget_s: float) -> None:
        started = time.perf_counter()
        for index in range(passes):
            if index and time.perf_counter() - started > budget_s:
                self.remarks.append(f"stopped after {index} of {passes} passes: "
                                  f"time budget {budget_s:.0f} s spent")
                break
            done = self.one_pass(index)
            if done is None:
                continue
            self.passes[index] = done
            if self.tracer is not None:
                traced = self.one_pass(index, traced=True)
                if traced is None:
                    continue
                self.traced[index] = traced
                if traced.outcome.digests != done.outcome.digests:
                    self.fail(index, "traced pass digests differ from untraced")

    def one_pass(self, index: int, traced=False):
        """Time one pass and check it; None if it raised (fail soft)."""
        out_dir = self.scratch / f"pass{index}"
        try:
            return self._timed_pass(index, traced, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _timed_pass(self, index, traced, out_dir):
        gc.collect()
        if traced:
            self.tracer.install(self.targets)
        start = time.perf_counter()
        try:
            with speed.SpeedSampler() as sampler:
                raw = self.workload.execute(index, out_dir)
            wall = time.perf_counter() - start
        except Exception as exc:
            return self.fail(index, f"pass raised {type(exc).__name__}: {exc}")
        finally:
            if traced:
                self.tracer.uninstall()
        try:
            outcome = self.workload.check(raw, out_dir)
        except Exception as exc:
            return self.fail(index, f"check raised {type(exc).__name__}: {exc}")
        if not traced:
            self.runs[index] = outcome.runs
            self.failed[index] = min(len(outcome.failures), outcome.runs)
            self.failures.extend((index, m) for m in outcome.failures)
        else:
            outcome.written = dir_size(out_dir)
            outcome.result_bytes = sum(
                len(pickle.dumps(r, pickle.HIGHEST_PROTOCOL))
                for r in outcome.records)
        return Timed(wall, outcome, sampler.factor() or 1.0,
                     sampler.run_factors(start, outcome.runtimes))

    def fail(self, index, message):
        """Count every run of pass ``index`` as failed."""
        runs = self.workload.runs_per_pass
        self.runs.setdefault(index, runs)
        self.failed[index] = self.runs[index]
        self.failures.append((index, message))

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed_runs(self) -> int:
        return sum(self.failed.values())


def per_layer(runner: Runner) -> dict:
    """Per-pass means of each layer metric over the traced passes."""
    tr = runner.tracer
    traced = list(runner.traced.values())
    passes = len(traced)
    workers = getattr(runner.workload, "workers", 1)
    run_time = sum(sum(t.outcome.runtimes) for t in traced)
    experiment = tr.total("harness.run_experiment")
    totals = {
        "benchmarks.objective_calls": tr.calls("benchmarks.objective"),
        "benchmarks.objective_s": tr.total("benchmarks.objective"),
        "engine.evaluate_swarm_s": tr.self_time("engine.evaluate_swarm"),
        "engine.move_s": tr.total("engine.t_mfo", "engine.t_nlcmfo",
                                  "engine.spiral_step_mfo",
                                  "engine.spiral_step_nlcmfo"),
        "engine.flames_s": tr.total("engine.update_flames"),
        "engine.loop_self_s": tr.self_time("engine.run"),
        "stochastic.chaos_steps": tr.calls("stochastic.chaos_step"),
        "stochastic.chaos_s": tr.total("stochastic.chaos_step"),
        "stochastic.levy_draws": tr.items("stochastic.levy_matrix"),
        "stochastic.levy_s": tr.total("stochastic.levy_matrix"),
        "space.clip_s": tr.total("space.clip"),
        "space.sample_s": tr.total("space.sample"),
        "baselines.pso_self_s": tr.self_time("baselines.run_pso"),
        "baselines.gwo_self_s": tr.self_time("baselines.run_gwo"),
        # wall of run_experiment not covered by runs spread over the workers
        "harness.dispatch_s": experiment - run_time / workers if experiment else 0.0,
        "harness.result_bytes": sum(t.outcome.result_bytes for t in traced),
        "harness.export_s": tr.total("harness.export_experiment"),
        "harness.bytes_written": sum(t.outcome.written[0] for t in traced),
        "harness.files_written": sum(t.outcome.written[1] for t in traced),
        "harness.summarize_s": tr.total("harness.summarize"),
        "hypertune.trainings": tr.calls("hypertune.train"),
        "hypertune.train_s": tr.total("hypertune.train"),
        "hypertune.score_s": tr.total("hypertune.score"),
        # both at reference speed, or host drift would swamp the difference
        "trace.overhead_s": sum(t.wall * t.factor for t in traced) - sum(
            runner.passes[i].wall * runner.passes[i].factor for i in runner.traced),
    }
    values = {name: total / passes for name, total in totals.items()}
    values["harness.pool_efficiency"] = (
        run_time / (workers * experiment) if experiment else 0.0)
    return values


# Layer times that do not contain one another, for naming the dominant one.
# The objective contains hypertune.train_s and score_s; export contains
# summarize; so those stay out.
DISJOINT_LAYERS = (
    "benchmarks.objective_s", "engine.evaluate_swarm_s", "engine.move_s",
    "engine.flames_s", "engine.loop_self_s", "stochastic.chaos_s",
    "stochastic.levy_s", "space.clip_s", "space.sample_s",
    "baselines.pso_self_s", "baselines.gwo_self_s", "harness.dispatch_s",
    "harness.export_s")


def dominant_layers(runner: Runner, values: dict) -> list:
    """Lines naming the biggest layers and their share of traced pass time."""
    traced = list(runner.traced.values())
    wall = sum(t.wall for t in traced) / len(traced)
    ranked = sorted(DISJOINT_LAYERS, key=values.get, reverse=True)[:3]
    lines = [f"dominant layer {name}: {100 * values[name] / wall:.1f}% "
             f"of traced pass wall" for name in ranked]
    nlcmfo = sum(r.runtime_s for t in traced for r in t.outcome.records
                 if r.algorithm == "nlcmfo") / len(traced)
    for name, base, label in (
            ("hypertune.train_s", wall, "traced pass wall"),
            ("stochastic.levy_s", nlcmfo, "nlcmfo run time")):
        if values[name] and base:
            lines.append(f"{name}: {100 * values[name] / base:.1f}% of {label}")
    return lines


def end_to_end(runner: Runner, setup_times: list, rss_mb: float, scaled=True):
    """End-to-end metrics; times at reference speed when ``scaled``.

    Set-up is too short to sample the machine's speed, so ``setup_s`` is
    always as timed.
    """
    passes = runner.passes.items()

    def scale(factor):
        return factor if scaled else 1.0

    runtimes = [scale(f) * runtime for _, t in passes
                for runtime, ok, f in zip(t.outcome.runtimes, t.outcome.finished,
                                          t.run_factors) if ok]
    percentile, tail_value = tail(runtimes)
    values = {
        "wall_s": statistics.median(scale(t.factor) * t.wall for _, t in passes),
        "setup_s": statistics.median(setup_times),
        "runs_per_s": statistics.median(
            (t.outcome.runs - runner.failed[i]) / (scale(t.factor) * t.wall)
            for i, t in passes),
        "evals_per_s": statistics.median(
            t.outcome.evaluations / (scale(t.factor) * t.wall) for _, t in passes),
        "run_s_p50": statistics.median(runtimes),
        "run_s_tail": tail_value,
        "peak_rss_mb": rss_mb,
    }
    notes = {"wall_s": f"median of {len(passes)} passes",
             "setup_s": f"median of {len(setup_times)} set-ups",
             "runs_per_s": f"median of {len(passes)} passes",
             "evals_per_s": f"median of {len(passes)} passes",
             "run_s_p50": f"of {len(runtimes)} runs",
             "run_s_tail": f"p{percentile:.1f} of {len(runtimes)} runs"}
    return values, notes


def check_reference(runner: Runner, args) -> None:
    """Compare each pass's digests with the stored reference, if any."""
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table = stored.setdefault(args.workload, {})
    for index, timed in sorted(runner.passes.items()):
        digests = timed.outcome.digests
        key = f"{args.seed}:{index}"
        if args.record_reference:
            table[key] = digests
        elif key in table and table[key] != digests:
            bad = sorted(k for k in digests if table[key].get(k) != digests[k])
            runner.fail(index, f"digests differ from the reference: {bad}")
    if args.record_reference:
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nlcmfo" / "__init__.py").is_file():
        print(f"error: no nlcmfo sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload, setup_s = set_up(args.workload, args.seed, scratch)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, spec, workload, setup_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, spec, workload, setup_s, scratch) -> int:
    passes = max(1, math.ceil(args.seconds / workload.nominal_pass_s))
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(workload, scratch, tracer)
    # a slow machine gets twice the planned time, then the run stops early
    runner.run(passes, min(2.0 * args.seconds * (1 + args.trace), 140.0))
    if not runner.passes:
        for index, message in runner.failures:
            print(f"pass {index}: {message}", file=sys.stderr)
        print("error: no pass completed", file=sys.stderr)
        return 1
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_reference(runner, args)

    if args.trace:
        values, notes = per_layer(runner), {}
        runner.remarks.extend(dominant_layers(runner, values))
        declared = spec["per_layer"]
    else:
        setup_times = [setup_s] + probe_setup(args)
        values, notes = end_to_end(runner, setup_times, rss_kb / 1024.0)
        raw, _ = end_to_end(runner, setup_times, rss_kb / 1024.0, scaled=False)
        for name in notes:
            if name != "setup_s":
                notes[name] += f"; {raw[name]:.4g} as timed"
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit("computed metrics differ from those BENCHMARK.json declares")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    env = environment(args, passes)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "environment": env,
        "metrics": metrics,
        "notes": notes,
        "failed_frac": runner.failed_runs / runner.attempted,
        "failures": [{"pass": i, "message": m} for i, m in runner.failures],
        "remarks": runner.remarks,
        "pass_wall_s": {i: t.wall for i, t in runner.passes.items()},
        "speed_factor": {i: t.factor for i, t in runner.passes.items()},
        "digests": {i: t.outcome.digests for i, t in runner.passes.items()},
    }
    if args.trace:
        details["traced_pass_wall_s"] = {i: t.wall for i, t in runner.traced.items()}
        details["spans"] = tracer.write_spans(OUT / f"{stem}-spans.csv.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()
                            if k != "threads_env"))
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"failed_frac {details['failed_frac']:.4g} "
          f"({runner.failed_runs} of {runner.attempted} runs)")
    for index, message in runner.failures:
        print(f"failure: pass {index}: {message}")
    for remark in runner.remarks:
        print(f"note: {remark}")
    print(json.dumps({"correct": not runner.failures,
                      "attempted": runner.attempted,
                      "failed": runner.failed_runs, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
