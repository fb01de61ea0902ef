"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

A pass is one closed-loop unit of work (a grid or a tune); the runner repeats
passes back to back.  Pass ``i`` of seed ``s`` uses base seed ``1000*s + i``,
so seed 0 pass 0 is exactly the command-line defaults (`nlcmfo bench --seed 0`
with one run per cell, `nlcmfo tune`).

Why these four (sizes from the paper's experiment, Mirjalili 2015):

sweep-d30       all four algorithms x the nine criterion-3 functions, d=30,
                n=30, T=500, summary telemetry.  Per-row objective calls and
                scalar chaotic-map steps dominate, so batched evaluation and
                a lean chaotic-draw path show here.
scale-d1000     F1 at d=1000, all four algorithms.  numpy array work (the
                Levy matrix) dominates and per-row call overhead is small, so
                batched evaluation should gain little and the chaotic-draw
                change nothing.
tune-default    `nlcmfo tune` at its defaults (630 trainings of a Python SGD
                loop).  Engine layers are nearly idle: the no-change control
                for engine and benchmark-function work.
history-export  nlcmfo+mfo x F1,F10 at full-history telemetry, then export.
                CSV writing and memory dominate; they are negligible in the
                sweep.  One worker: with two pool workers on two cores the
                per-run times spread 35% between runs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nlcmfo import benchmarks, cli, harness, hypertune

# Wall-clock columns sit outside the package's reproducibility contract.
RUNTIME_COLUMNS = frozenset({"runtime_s", "ave_runtime_s", "std_runtime_s"})


def pass_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def _csv_digest(path: Path) -> str:
    """sha256 of a CSV with its wall-clock columns removed."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name not in RUNTIME_COLUMNS]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _files_digest(paths) -> str:
    """sha256 over (name, sha256 of bytes) of each file, in name order."""
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        file_hash = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                file_hash.update(block)
        h.update(f"{path.name} {file_hash.hexdigest()}\n".encode())
    return h.hexdigest()


@dataclass
class PassOutcome:
    runs: int                       # optimizer runs attempted
    runtimes: list                  # runtime_s of every run, in run order
    finished: list                  # per run: passed every check
    evaluations: int                # objective evaluations done
    failures: list                  # one message per failed run
    digests: dict                   # output name -> sha256
    records: list = field(default_factory=list)
    # traced passes only: (bytes, files) in the output dir, pickled records
    written: tuple = (0, 0)
    result_bytes: int = 0


class GridWorkload:
    """`harness.run_experiment` + `export_experiment` over a fixed grid."""

    def __init__(self, algorithms, functions, dim, telemetry, workers,
                 nominal_pass_s):
        self.algorithms = algorithms
        self.function_ids = functions
        self.dim = dim
        self.telemetry = telemetry
        self.workers = workers
        self.nominal_pass_s = nominal_pass_s
        self.pop_size, self.max_iter = 30, 500
        self.runs_per_pass = len(algorithms) * len(functions)

    def build_inputs(self, seed: int) -> None:
        self.seed = seed
        self.functions = {fid: benchmarks.lookup(fid) for fid in self.function_ids}
        self.spaces = {fid: f.space(self.dim) for fid, f in self.functions.items()}

    def config(self, base_seed, **overrides) -> harness.ExperimentConfig:
        values = dict(algorithms=self.algorithms, functions=self.function_ids,
                      dim=self.dim, runs=1, pop_size=self.pop_size,
                      max_iter=self.max_iter, base_seed=base_seed,
                      telemetry=self.telemetry, workers=self.workers)
        values.update(overrides)
        return harness.ExperimentConfig(**values)

    def warm_up(self, out_dir: Path) -> None:
        """Every algorithm and the export once on a tiny grid."""
        config = self.config(0, functions=self.function_ids[:1], dim=2,
                             pop_size=5, max_iter=3)
        harness.export_experiment(harness.run_experiment(config), out_dir)

    def execute(self, index: int, out_dir: Path):
        config = self.config(pass_seed(self.seed, index))
        result = harness.run_experiment(config)
        harness.export_experiment(result, out_dir)
        return result

    def check(self, result, out_dir: Path) -> PassOutcome:
        n, big_t = self.pop_size, self.max_iter
        expected = len(self.algorithms) * len(self.function_ids)
        failures = []
        if len(result.records) != expected:
            failures.append(f"{len(result.records)} records, expected {expected}")
        evaluations, finished = 0, []
        for rec in result.records:
            problem = self._check_record(rec, n, big_t)
            evaluations += rec.evaluations
            finished.append(not problem)
            if problem:
                failures.append(f"{rec.algorithm} {rec.function} seed "
                                f"{rec.seed}: {problem}")
        with open(out_dir / "finals.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(result.records) or any(r["aborted"] != "0" for r in rows):
            failures.append("finals.csv does not list every run as finished")
        digests = {"finals": _csv_digest(out_dir / "finals.csv"),
                   "stats_full": _csv_digest(out_dir / "stats_full.csv")}
        if self.telemetry != "summary":
            digests["curves"] = _files_digest((out_dir / "curves").iterdir())
        return PassOutcome(max(expected, len(result.records)),
                           [rec.runtime_s for rec in result.records], finished,
                           evaluations, failures, digests, result.records)

    def _check_record(self, rec, n, big_t) -> str:
        if rec.aborted:
            return f"aborted: {rec.error}"
        if rec.evaluations != n * (big_t + 1):
            return f"evaluations {rec.evaluations} != n*(T+1) = {n * (big_t + 1)}"
        func, space = self.functions[rec.function], self.spaces[rec.function]
        if not math.isfinite(rec.best_fitness):
            return f"best fitness {rec.best_fitness!r}"
        floor = func.f_min - 1e-9 * max(1.0, abs(func.f_min))
        if rec.best_fitness < floor:
            return f"best fitness {rec.best_fitness!r} below f_min {func.f_min!r}"
        if not space.contains(rec.best_position):
            return "best position outside the box"
        if self.telemetry == "summary":
            return ""
        curve = rec.convergence
        if curve.shape != (big_t,) or np.any(np.diff(curve) > 0):
            return "convergence curve not monotone over T iterations"
        if curve[-1] != rec.best_fitness:
            return "convergence curve does not end at the best fitness"
        if self.telemetry == "full-history":
            if rec.history.shape != (big_t, n, space.dim):
                return f"history shape {rec.history.shape}"
            if not space.contains(rec.history):
                return "history leaves the box"
        return ""


class TuneWorkload:
    """`nlcmfo tune` at its defaults: tune, retrain, metrics, ROC, CSVs."""

    nominal_pass_s = 2.4
    pop_size, max_iter = 30, 20
    runs_per_pass = 1
    OUTPUTS = ("hyperparams.csv", "metrics.csv", "model.txt")

    def build_inputs(self, seed: int) -> None:
        self.seed = seed
        # the CLI's default toy dataset, rebuilt here to check the outputs
        self.data = hypertune.make_toy_dataset(600, 2, 0, 1.0)

    def _cli(self, argv) -> hypertune.TuneResult:
        """Run `nlcmfo tune` and hand back the TuneResult it computed."""
        captured = []
        tune = cli.tune

        def keep(*args, **kwargs):
            captured.append(tune(*args, **kwargs))
            return captured[-1]

        cli.tune = keep
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["tune", *argv])
        finally:
            cli.tune = tune
        if code != 0:
            raise RuntimeError(f"nlcmfo tune exited with {code}")
        return captured[0]

    def warm_up(self, out_dir: Path) -> None:
        self._cli(["--pop-size", "5", "--max-iter", "2", "--out", str(out_dir)])

    def execute(self, index: int, out_dir: Path):
        return self._cli(["--seed", str(pass_seed(self.seed, index)),
                          "--out", str(out_dir)])

    def check(self, outcome, out_dir: Path) -> PassOutcome:
        n, big_t = self.pop_size, self.max_iter
        run = outcome.run_result
        failures = []
        if outcome.trainings != n * (big_t + 1) or run.evaluations != n * (big_t + 1):
            failures.append(f"{outcome.trainings} trainings, {run.evaluations} "
                            f"evaluations; expected n*(T+1) = {n * (big_t + 1)}")
        if not 0.0 <= outcome.best_L_D <= 100.0:
            failures.append(f"L_D {outcome.best_L_D!r} outside [0, 100]")
        model = hypertune.load_model(out_dir / "model.txt")
        if hypertune.evaluate_L_D(model, self.data) != outcome.best_L_D:
            failures.append("retrained model does not reproduce the tuned L_D")
        with open(out_dir / "metrics.csv", newline="") as fh:
            values = [float(row["value"]) for row in csv.DictReader(fh)]
        if not all(0.0 <= v <= 1.0 for v in values):
            failures.append("a metric lies outside [0, 1]")
        digests = {"tune": _files_digest(out_dir / name for name in self.OUTPUTS)}
        return PassOutcome(1, [run.wall_time], [not failures], run.evaluations,
                           failures, digests)


CRITERION3 = ("F1", "F2", "F3", "F4", "F7", "F8", "F9", "F10", "F11")
ALGORITHMS = ("mfo", "nlcmfo", "pso", "gwo")

# nominal_pass_s: one pass's wall time on the reference machine (2 cores);
# a run does ceil(seconds / nominal_pass_s) passes.
WORKLOADS = {
    "sweep-d30": lambda: GridWorkload(
        ALGORITHMS, CRITERION3, 30, "summary", 1, 5.5),
    "scale-d1000": lambda: GridWorkload(
        ALGORITHMS, ("F1",), 1000, "summary", 1, 2.6),
    "tune-default": TuneWorkload,
    "history-export": lambda: GridWorkload(
        ("nlcmfo", "mfo"), ("F1", "F10"), 30, "full-history", 1, 7.0),
}
