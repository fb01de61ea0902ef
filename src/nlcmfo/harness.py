"""Batch experiment harness: run algorithm x function grids and export CSV.

A grid cell is (algorithm, function, dim); each cell is repeated for a fixed
number of independent runs with per-run seeds base_seed + run_index, so the
same seed set is used in every cell and cross-algorithm comparisons are
paired.  Results aggregate to mean/std summaries (sample std, ddof=1) and
can be exported at three telemetry levels:

    summary       final fitness per run only
    curves        + per-iteration best/mean/trajectory curves
    full-history  + full per-iteration population snapshots

All CSV output is deterministic for a fixed config and base seed except the
runtime columns, which report wall-clock measurements and are explicitly
outside the reproducibility contract.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import benchmarks
from .baselines import run_gwo, run_pso
from .engine import (EngineConfig, ObjectiveError, check_counts, run,
                     validate_config)

# The one algorithm registry: name -> runner name.  A runner is looked up
# in this module by name when a run starts, so a wrapper installed on
# harness.run / run_pso / run_gwo sees every run.
ALGORITHMS = {"mfo": "run", "nlcmfo": "run", "pso": "run_pso", "gwo": "run_gwo"}
TELEMETRY_LEVELS = ("summary", "curves", "full-history")


class ConfigError(ValueError):
    """Invalid experiment configuration (caught before any run starts)."""


@dataclass
class ExperimentConfig:
    algorithms: tuple = ("nlcmfo",)
    functions: tuple = ("F1",)
    dim: Optional[int] = None        # override for scalable functions only
    runs: int = 30
    pop_size: int = 30
    max_iter: int = 500
    base_seed: int = 0
    telemetry: str = "summary"
    workers: int = 1
    composite_pack: Optional[str] = None


@dataclass
class RunRecord:
    algorithm: str
    function: str
    dim: int
    run_index: int
    seed: int
    best_fitness: float
    best_position: Optional[np.ndarray]
    evaluations: int
    runtime_s: float
    aborted: bool = False
    error: str = ""
    convergence: Optional[np.ndarray] = None
    mean_curve: Optional[np.ndarray] = None
    trajectory: Optional[np.ndarray] = None
    history: Optional[np.ndarray] = None


@dataclass
class SummaryRow:
    algorithm: str
    function: str
    dim: int
    aborted: int
    ave: float
    std: float
    best: float
    ave_runtime_s: float
    std_runtime_s: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list

    @property
    def aborted(self) -> int:
        return sum(1 for r in self.records if r.aborted)


def load_experiment_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON object; unknown keys are errors."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("algorithms", "functions"):
        value = raw.get(key)
        if isinstance(value, str):
            raw[key] = (value,)
        elif isinstance(value, list):
            raw[key] = tuple(value)
    return ExperimentConfig(**raw)


def _validate(config: ExperimentConfig) -> dict:
    """Check the whole grid before any run; return each algorithm's config.

    A returned config carries ``seed=base_seed``; each run replaces the seed
    with its own.
    """
    # JSON gives any type; a wrong one must not surface as a TypeError later
    for name in ("algorithms", "functions"):
        value = getattr(config, name)
        if (not isinstance(value, (tuple, list))
                or not all(isinstance(v, str) for v in value)):
            raise ConfigError(f"{name} must be a list of names, got {value!r}")
        # a repeat would run its cells twice and pool the copies in the
        # stats; function ids match in any letter case
        seen = set()
        for v in value:
            if v.upper() in seen:
                raise ConfigError(f"{name} lists {v!r} more than once")
            seen.add(v.upper())
    if not isinstance(config.composite_pack, (type(None), str, os.PathLike)):
        raise ConfigError(
            f"composite_pack must be a directory, got {config.composite_pack!r}")
    if not config.algorithms:
        raise ConfigError("no algorithms selected")
    for algorithm in config.algorithms:
        if algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {algorithm!r}; choose from {tuple(ALGORITHMS)}"
            )
    if not config.functions:
        raise ConfigError("no functions selected")
    if config.composite_pack is not None:
        _ensure_pack(config.composite_pack)
    for fid in config.functions:
        benchmarks.lookup(fid)  # raises on unknown / unavailable ids
    try:
        check_counts(config, {"runs": 1, "base_seed": 0, "workers": 1})
        if config.dim is not None:
            check_counts(config, {"dim": 1})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if config.telemetry not in TELEMETRY_LEVELS:
        raise ConfigError(
            f"telemetry must be one of {TELEMETRY_LEVELS}, got {config.telemetry!r}"
        )
    # the engine's validator owns the pop_size and max_iter checks
    configs = {}
    for algorithm in config.algorithms:
        configs[algorithm] = EngineConfig(
            algorithm=algorithm, pop_size=config.pop_size,
            max_iter=config.max_iter, seed=config.base_seed,
            record_history=config.telemetry == "full-history")
        try:
            validate_config(configs[algorithm])
        except (TypeError, ValueError) as exc:  # TypeError: e.g. 30.0 from JSON
            raise ConfigError(f"{algorithm}: {exc}") from exc
    return configs


def _ensure_pack(directory) -> None:
    try:
        benchmarks.load_composite_pack(directory)
    except (OSError, LookupError, ValueError) as exc:
        # a collision means other functions already hold this pack's ids
        raise ConfigError(f"composite pack {directory}: {exc}") from exc


def _cell_dim(func: benchmarks.BenchmarkFunction, dim: Optional[int]) -> int:
    if dim is not None and func.scalable:
        return dim
    return func.dim


def _aborted(task, exc: Exception) -> RunRecord:
    algorithm, fid, dim, run_index, config = task[:5]
    error = (str(exc) if isinstance(exc, ObjectiveError)
             else f"{type(exc).__name__}: {exc}")
    return RunRecord(algorithm, fid, dim, run_index, config.seed,
                     float("nan"), None, 0, 0.0, aborted=True, error=error)


def _execute_task(task) -> RunRecord:
    algorithm, fid, dim, run_index, config, telemetry, pack_dir = task
    if pack_dir is not None:
        _ensure_pack(pack_dir)
    func = benchmarks.lookup(fid)
    space = func.space(dim)
    objective = func.objective(rng=func.noise_rng(config.seed))
    try:
        result = globals()[ALGORITHMS[algorithm]](config, space, objective)
    except Exception as exc:  # a failed run is recorded; the grid goes on
        return _aborted(task, exc)
    keep_curves = telemetry in ("curves", "full-history")
    return RunRecord(
        algorithm, fid, dim, run_index, config.seed,
        result.best_fitness, result.best_position,
        result.evaluations, result.wall_time,
        convergence=result.convergence if keep_curves else None,
        mean_curve=result.mean_fitness if keep_curves else None,
        trajectory=result.trajectory if keep_curves else None,
        history=result.history if telemetry == "full-history" else None,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full grid; per-run failures are recorded, not raised.

    A dead pool worker aborts every run without a result; the rest are kept.
    """
    configs = _validate(config)
    tasks = []
    for algorithm in config.algorithms:
        for fid in config.functions:
            func = benchmarks.lookup(fid)
            dim = _cell_dim(func, config.dim)
            for r in range(config.runs):
                tasks.append((
                    algorithm, str(fid).upper(), dim, r,
                    replace(configs[algorithm], seed=config.base_seed + r),
                    config.telemetry, config.composite_pack,
                ))
    if config.workers == 1 or len(tasks) == 1:
        records = [_execute_task(t) for t in tasks]
    else:
        # read in task order, so output is independent of scheduling
        # a fork pool starts all max_workers at the first submit
        with ProcessPoolExecutor(
                max_workers=min(config.workers, len(tasks))) as pool:
            futures = [pool.submit(_execute_task, t) for t in tasks]
            records = []
            for task, future in zip(tasks, futures):
                try:
                    records.append(future.result())
                except BrokenProcessPool as exc:
                    records.append(_aborted(task, exc))
    return ExperimentResult(config, records)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def summarize(records) -> list:
    """One SummaryRow per grid cell, in first-seen cell order.

    Aborted runs are counted but excluded from the fitness statistics.
    ave/std are the mean and sample std (ddof=1) of the finished runs' best
    fitness, likewise for runtime, and best is their lowest best fitness; a
    cell with one finished run reports std 0, and one with none reports NaN.
    """
    cells: dict = {}
    for rec in records:
        cells.setdefault((rec.algorithm, rec.function, rec.dim), []).append(rec)
    rows = []
    for (algorithm, fid, dim), group in cells.items():
        finished = [r for r in group if not r.aborted]
        aborted = len(group) - len(finished)
        if not finished:
            rows.append(SummaryRow(algorithm, fid, dim, aborted, *[np.nan] * 5))
            continue
        fits = np.array([r.best_fitness for r in finished])
        runtimes = np.array([r.runtime_s for r in finished])
        single = len(finished) == 1
        rows.append(SummaryRow(
            algorithm, fid, dim, aborted,
            float(np.mean(fits)), 0.0 if single else float(np.std(fits, ddof=1)),
            float(np.min(fits)), float(np.mean(runtimes)),
            0.0 if single else float(np.std(runtimes, ddof=1)),
        ))
    return rows


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

_STATS_HEADER = ("algorithm", "function", "dim", "ave", "std",
                 "ave_runtime_s", "std_runtime_s", "aborted_runs")


def _g6(value: float) -> str:
    return f"{value:.6g}"


def write_table(path, header, rows) -> None:
    """The one CSV table writer: ``header``, then ``rows``, through
    csv.writer's default dialect (CRLF line ends, minimal quoting)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_stats(rows, path, full_precision: bool = False) -> None:
    """Summary table; 6 significant digits by default, repr() when full.

    The runtime columns are wall-clock and not byte-reproducible across
    re-runs; every other column is.
    """
    fmt = repr if full_precision else _g6
    write_table(path, _STATS_HEADER, (
        [row.algorithm, row.function, row.dim, fmt(row.ave), fmt(row.std),
         fmt(row.ave_runtime_s), fmt(row.std_runtime_s), row.aborted]
        for row in rows))


_FINALS_HEADER = ("algorithm", "function", "dim", "run", "seed",
                  "best_fitness", "evaluations", "runtime_s", "aborted")


def write_finals(records, path) -> None:
    """Per-run final results at full precision (runtime_s is wall-clock)."""
    write_table(path, _FINALS_HEADER, (
        [r.algorithm, r.function, r.dim, r.run_index, r.seed,
         repr(r.best_fitness), r.evaluations, repr(r.runtime_s),
         int(r.aborted)]
        for r in records))


def export_curves(records, out_dir) -> list:
    """Write per-cell curve CSVs (iter column + one column per run).

    Returns the written paths.  Records without curve telemetry are skipped.
    Full-history snapshots go to one file per run (see write_search_history).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells: dict = {}
    for rec in records:
        if rec.convergence is None:
            continue
        cells.setdefault((rec.algorithm, rec.function, rec.dim), []).append(rec)
    written = []
    for (algorithm, fid, dim), group in cells.items():
        group = sorted(group, key=lambda r: r.run_index)
        stem = f"{algorithm}_{fid}_d{dim}"
        for metric, attr in (("convergence", "convergence"),
                             ("mean_fitness", "mean_curve"),
                             ("trajectory", "trajectory")):
            path = out_dir / f"{stem}_{metric}.csv"
            write_curves(path, [f"run{r.run_index}" for r in group],
                         [getattr(r, attr) for r in group])
            written.append(path)
        for rec in group:
            if rec.history is None:
                continue
            path = out_dir / f"{stem}_run{rec.run_index}_search_history.csv"
            write_search_history(rec.history, path)
            written.append(path)
    return written


def write_curves(path, names, curves) -> None:
    """An ``iter`` column counting from 1, then one column per curve.

    ``names`` head the curve columns; values are repr() of the float.
    """
    write_table(path, ["iter", *names],
                ([l] + [repr(float(v)) for v in values]
                 for l, values in enumerate(zip(*curves), start=1)))


def write_search_history(history: np.ndarray, path) -> None:
    """Long-format position snapshots: one (iter, moth, dim, value) row each.

    Rows run in iter, moth, dim order; iter and dim count from 1, moth from
    0; values are repr() of the float, lines end in CRLF.  These are the
    bytes write_table gives (no field can need quoting), written here one
    iteration per write: one csv.writer row per value takes about twice as
    long on a (500, 30, 30) history, the largest table the toolkit writes.
    """
    n_iter, n_moths, d = history.shape
    keys = [f",{m},{j}," for m in range(n_moths) for j in range(1, d + 1)]
    rows = history.reshape(n_iter, -1)
    with open(path, "w", newline="") as fh:
        fh.write("iter,moth,dim,value\r\n")
        # tolist() per iteration: on a (500, 30, 30) history a whole-array
        # tolist() adds about 18 MB of peak memory
        for l, row in enumerate(rows, start=1):
            fh.write("".join([f"{l}{key}{v!r}\r\n"
                              for key, v in zip(keys, row.tolist())]))


def export_experiment(result: ExperimentResult, out_dir) -> dict:
    """Standard output bundle: stats.csv, stats_full.csv, finals.csv, curves."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = summarize(result.records)
    paths = {
        "stats": out_dir / "stats.csv",
        "stats_full": out_dir / "stats_full.csv",
        "finals": out_dir / "finals.csv",
    }
    write_stats(rows, paths["stats"])
    write_stats(rows, paths["stats_full"], full_precision=True)
    write_finals(result.records, paths["finals"])
    if result.config.telemetry in ("curves", "full-history"):
        paths["curves"] = export_curves(result.records, out_dir / "curves")
    return paths
