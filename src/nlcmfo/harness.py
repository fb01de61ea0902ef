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
import threading
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import benchmarks, stochastic
from .baselines import run_gwo, run_pso
from .engine import (ALGORITHMS, Chunk, EngineConfig, ObjectiveError,
                     drive_lockstep, run, validate_config)
from .stochastic import check_count

TELEMETRY_LEVELS = ("summary", "curves", "full-history")

# Pools fork where ``os`` has ``sched_getaffinity`` (Linux): a worker that
# forkserver (Python 3.14's default there) or spawn starts imports the
# package afresh, without the composites registered in this process.
# Elsewhere (None) a run pool takes the interpreter's default start method.
# Both pools import multiprocessing as they start, in ``_process_pool``.
_START_METHOD = "fork" if hasattr(os, "sched_getaffinity") else None


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


def _validate(config: ExperimentConfig) -> list:
    """Check the whole grid before any run; return its run tasks.

    A task is (fid, space, run_index, config, telemetry, composite_pack),
    in algorithm -> function -> run order.  space is the function's box at
    its cell's dimension, built once here and shared by every run of the
    function; config is the algorithm's validated EngineConfig with the
    run's seed, base_seed + run_index.
    """
    # JSON gives any type; a wrong one must not surface as a TypeError later
    for name in ("algorithms", "functions"):
        value = getattr(config, name)
        if (not isinstance(value, (tuple, list))
                or not all(isinstance(v, str) for v in value)):
            raise ConfigError(f"{name} must be a list of names, got {value!r}")
        # a repeat would run its cells twice and pool the copies in the
        # stats; function ids match in any letter case, algorithm names
        # only exactly
        seen = set()
        for v in value:
            key = v.upper() if name == "functions" else v
            if key in seen:
                raise ConfigError(f"{name} lists {v!r} more than once")
            seen.add(key)
    if not isinstance(config.composite_pack, (type(None), str, os.PathLike)):
        raise ConfigError(
            f"composite_pack must be a directory, got {config.composite_pack!r}")
    if not config.algorithms:
        raise ConfigError("no algorithms selected")
    if not config.functions:
        raise ConfigError("no functions selected")
    try:
        for name, floor in (("runs", 1), ("base_seed", 0), ("workers", 1)):
            check_count(name, getattr(config, name), floor)
        if config.dim is not None:
            check_count("dim", config.dim, 1)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if config.composite_pack is not None:
        _ensure_pack(config.composite_pack)
    boxes = []
    for fid in config.functions:
        func = benchmarks.lookup(fid)  # raises on unknown / unavailable ids
        dim = func.dim if config.dim is None or not func.scalable else config.dim
        try:  # a pack's box may be empty or degenerate
            boxes.append((func.fid, func.space(dim)))
        except ValueError as exc:
            raise ConfigError(f"{func.fid}: {exc}") from exc
    if config.telemetry not in TELEMETRY_LEVELS:
        raise ConfigError(
            f"telemetry must be one of {TELEMETRY_LEVELS}, got {config.telemetry!r}"
        )
    # the engine's validator owns the algorithm name and the pop_size,
    # max_iter and seed checks
    tasks = []
    for algorithm in config.algorithms:
        engine_config = EngineConfig(
            algorithm=algorithm, pop_size=config.pop_size,
            max_iter=config.max_iter, seed=config.base_seed,
            record_history=config.telemetry == "full-history")
        try:
            validate_config(engine_config)
        except (TypeError, ValueError) as exc:  # TypeError: e.g. 30.0 from JSON
            raise ConfigError(f"{algorithm}: {exc}") from exc
        tasks += [(fid, space, r,
                   replace(engine_config, seed=config.base_seed + r),
                   config.telemetry, config.composite_pack)
                  for fid, space in boxes for r in range(config.runs)]
    return tasks


def _ensure_pack(directory) -> None:
    try:
        benchmarks.load_composite_pack(directory)
    except (OSError, LookupError, ValueError) as exc:
        # a collision means other functions already hold this pack's ids
        raise ConfigError(f"composite pack {directory}: {exc}") from exc


def _aborted(task, exc: Exception) -> RunRecord:
    fid, space, run_index, config = task[:4]
    error = (str(exc) if isinstance(exc, ObjectiveError)
             else f"{type(exc).__name__}: {exc}")
    return RunRecord(config.algorithm, fid, space.dim, run_index, config.seed,
                     float("nan"), None, 0, 0.0, aborted=True, error=error)


def _execute_task(task) -> RunRecord:
    """Run one task of ``_validate`` on its own box and config."""
    fid, space, run_index, config, telemetry, pack_dir = task
    try:
        # a worker that does not fork lacks the parent's registered
        # composites: their lookup fails here and aborts only their runs
        if pack_dir is not None:
            _ensure_pack(pack_dir)
        objective = benchmarks.lookup(fid).objective(config.seed)
        # pso and gwo run through run_pso and run_gwo, engine.run under the
        # names perfbench's tracer times them by (ROADMAP item 18), read as
        # the run starts so a wrapper on harness.run/run_pso/run_gwo sees it
        runner = {"pso": run_pso, "gwo": run_gwo}.get(config.algorithm, run)
        result = runner(config, space, objective)
    except Exception as exc:  # a failed run is recorded; the grid goes on
        return _aborted(task, exc)
    return _record(task, result)


def _record(task, result) -> RunRecord:
    fid, space, run_index, config, telemetry = task[:5]
    keep_curves = telemetry in ("curves", "full-history")
    return RunRecord(
        config.algorithm, fid, space.dim, run_index, config.seed,
        result.best_fitness, result.best_position,
        result.evaluations, result.wall_time,
        convergence=result.convergence if keep_curves else None,
        mean_curve=result.mean_fitness if keep_curves else None,
        trajectory=result.trajectory if keep_curves else None,
        history=result.history,
    )


# A serial grid runs its runs in lockstep chunks of at least
# LOCKSTEP_MIN_RUNS runs of one algorithm and dimension, whose (R, n, d)
# stack holds at most the algorithm's ``chunk_values`` (see
# _lockstep_chunks; each bound's break-even table is above
# ``engine.ALGORITHMS``).  2-run cells stay per run.
LOCKSTEP_MIN_RUNS = 3


def _shared(fid: str):
    """The name under which a lockstep loop's runs of ``fid`` share one
    objective call: the id of a non-noisy built-in, whose body maps rows
    independently bit for bit, else None (F7's noise stream is each run's
    own, and a composite's rows need not be independent)."""
    if fid in benchmarks.BUILTIN_IDS and not benchmarks.lookup(fid).noisy:
        return fid
    return None


def _lockstep_chunks(tasks) -> list:
    """The lockstep loops a serial grid runs through ``drive_lockstep``,
    each a list of chunks of task indices, in the order of their first
    task.

    The tasks of which LOCKSTEP_MIN_RUNS runs fit in their algorithm's
    chunk bound are grouped by (algorithm, dimension), in task order.
    Each group splits into the fewest near-equal chunks within the bound;
    a chunk of fewer than LOCKSTEP_MIN_RUNS tasks stays per run.  Every
    bound keeps such a run's draw block below
    ``stochastic.AHEAD_MIN_VALUES``, so no chunk takes a run off its draw
    thread.  The c-th chunks of a dimension's algorithms run as one loop,
    which calls each shared objective (``_shared``) once per iteration,
    unless one of them holds two runs of one shared objective: such a
    chunk already shares by itself, and each of them runs alone.
    """
    groups: dict = {}
    for i, (_, space, _, config, _, _) in enumerate(tasks):
        bound = ALGORITHMS[config.algorithm].chunk_values
        if LOCKSTEP_MIN_RUNS * config.pop_size * space.dim <= bound:
            groups.setdefault((config.algorithm, space.dim), []).append(i)
    together: dict = {}
    for (algorithm, dim), group in groups.items():
        size = ALGORITHMS[algorithm].chunk_values // (
            tasks[group[0]][3].pop_size * dim)
        count = -(-len(group) // size)
        chunks = [chunk for chunk in (
            group[c * len(group) // count:(c + 1) * len(group) // count]
            for c in range(count)) if len(chunk) >= LOCKSTEP_MIN_RUNS]
        for c, chunk in enumerate(chunks):
            together.setdefault((dim, c), []).append(chunk)
    loops = []
    for chunks in together.values():
        if any(_repeats_shared([tasks[i][0] for i in chunk])
               for chunk in chunks):
            loops += [[chunk] for chunk in chunks]
        else:
            loops.append(chunks)
    return sorted(loops, key=lambda loop: loop[0][0])


def _repeats_shared(fids) -> bool:
    """Whether two of ``fids`` share one objective."""
    names = [name for name in map(_shared, fids) if name is not None]
    return len(set(names)) < len(names)


def _execute_loop(chunks) -> list:
    """Run a loop of ``_lockstep_chunks``, its chunks given as lists of
    tasks; if anything raises, run all its tasks one at a time, so the
    records are ``_execute_task``'s."""
    tasks = [task for chunk in chunks for task in chunk]
    try:
        results = drive_lockstep([Chunk(
            ALGORITHMS[chunk[0][3].algorithm].stack,
            [task[3] for task in chunk], [task[1] for task in chunk],
            [benchmarks.lookup(fid).objective(config.seed)
             for fid, _, _, config, _, _ in chunk],
            [_shared(task[0]) for task in chunk]) for chunk in chunks])
    except Exception:
        return [_execute_task(task) for task in tasks]
    return [_record(task, result) for task, result in zip(tasks, results)]


def _process_pool(max_workers: int, **kwargs):
    """A ProcessPoolExecutor of ``max_workers`` processes started by
    ``_START_METHOD``; ``kwargs`` go to the executor.

    multiprocessing and the executor are imported here, not with the
    package: after numpy they cost about 2.0 MB of resident memory and
    27 ms (Python 3.11), which a serial grid, ``tune``, ``eval`` and
    ``diag`` never use.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=multiprocessing.get_context(_START_METHOD), **kwargs)


def _allowed_cores() -> int:
    """The cores this process may use; 1 without ``os.sched_getaffinity``."""
    return (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)


def _draw_inline() -> None:
    """A run pool's initializer where its workers take every allowed core:
    each ``DrawAhead`` block is filled inline, as a draw thread would only
    compete with the other workers' runs."""
    stochastic.AHEAD_MIN_VALUES = float("inf")


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full grid; per-run failures are recorded, not raised.

    A dead pool worker aborts every run without a result; the rest are kept.
    """
    tasks = _validate(config)
    if config.workers == 1 or len(tasks) == 1:
        # a loop runs in its first task's place, so runs keep task order
        loops = {loop[0][0]: loop for loop in _lockstep_chunks(tasks)}
        records = [None] * len(tasks)
        for i, task in enumerate(tasks):
            if i in loops:
                loop = [[tasks[c] for c in chunk] for chunk in loops[i]]
                for c, rec in zip([c for chunk in loops[i] for c in chunk],
                                  _execute_loop(loop)):
                    records[c] = rec
            elif records[i] is None:
                records[i] = _execute_task(task)
    else:
        from concurrent.futures.process import BrokenProcessPool
        workers = min(config.workers, len(tasks))
        initializer = _draw_inline if workers >= _allowed_cores() else None
        # read in task order, so output is independent of scheduling
        # a fork pool starts all max_workers at the first submit
        with _process_pool(workers, initializer=initializer) as pool:
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

def _cells(records) -> dict:
    """``records`` grouped by (algorithm, function, dim) cell, in first-seen
    cell order."""
    cells: dict = {}
    for rec in records:
        cells.setdefault((rec.algorithm, rec.function, rec.dim), []).append(rec)
    return cells


def summarize(records) -> list:
    """One SummaryRow per grid cell, in first-seen cell order.

    Aborted runs are counted but excluded from the fitness statistics.
    ave/std are the mean and sample std (ddof=1) of the finished runs' best
    fitness, likewise for runtime, and best is their lowest best fitness; a
    cell with one finished run reports std 0, and one with none reports NaN.
    """
    rows = []
    for (algorithm, fid, dim), group in _cells(records).items():
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
    Full-history snapshots go to one file per run (see write_search_history),
    written after the curves and, for a large enough export, in parallel
    (see _write_histories); the paths keep the per-cell order either way.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written, histories = [], []
    cells = _cells(r for r in records if r.convergence is not None)
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
            histories.append((rec.history, path))
            written.append(path)
    _write_histories(histories)
    return written


# Histories of fewer values than this in total are written serially: on
# 2 cores four (T, 30, 30) histories took 0.007-0.010 s serially against
# 0.016-0.025 s pooled at 7,200 values, 0.020-0.027 against 0.023-0.030 s
# at 28,800, 0.047-0.053 against 0.047-0.050 s at 86,400, 0.052-0.070
# against 0.050-0.058 s at 115,200 and 0.24 against 0.15 s at 450,000 (the
# pool's start-up is about 15 ms).
POOL_MIN_VALUES = 100_000

# (history, path) pairs of the pool that started this worker process; set
# by its initializer, never in the parent
_JOBS: list = []


def _keep_jobs(jobs) -> None:
    global _JOBS
    _JOBS = jobs


def _write_job(index: int) -> None:
    write_search_history(*_JOBS[index])


def _write_histories(jobs) -> None:
    """Write each ``(history, path)`` of ``jobs`` with write_search_history.

    A file's cost grows with its values, so at ``POOL_MIN_VALUES`` values
    or more the files are written one per task on a fork-started
    process pool of up to ``len(os.sched_getaffinity(0))`` processes.  The
    workers inherit ``jobs`` through fork rather than a pickle, and each
    task is an index into it.  The bytes are those of a serial write, a
    failed write raises its own exception here, and every worker has been
    joined when this returns or raises.  Where ``os`` has no
    ``sched_getaffinity`` (where fork is missing or unsafe), on one allowed
    core, or while another thread runs (a fork copies no thread, only the
    locks they hold), the files are written serially in this process.
    """
    k = min(len(jobs), _allowed_cores())
    if (k < 2 or threading.active_count() > 1
            or sum(history.size for history, _ in jobs) < POOL_MIN_VALUES):
        for history, path in jobs:
            write_search_history(history, path)
        return
    with _process_pool(k, initializer=_keep_jobs, initargs=(jobs,)) as pool:
        list(pool.map(_write_job, range(len(jobs))))


def write_curves(path, names, curves) -> None:
    """An ``iter`` column counting from 1, then one column per curve.

    ``names`` head the curve columns; values are repr() of the float.
    """
    write_table(path, ["iter", *names],
                ([l] + [repr(float(v)) for v in values]
                 for l, values in enumerate(zip(*curves), start=1)))


# write_search_history formats whole iterations, at most this many values
# (but at least one iteration) at a time, so the kernel's temporaries stay
# in the CPU caches: on a (500, 30, 30) history its text took 0.11 s in
# blocks of 8,100 values and 0.20 s in blocks of 22,500.
_BLOCK_VALUES = 1 << 13


def write_search_history(history: np.ndarray, path) -> None:
    """Long-format position snapshots: one (iter, moth, dim, value) row each.

    Rows run in iter, moth, dim order; iter and dim count from 1, moth from
    0; values are repr() of the float, lines end in CRLF.  These are the
    bytes write_table gives (no field can need quoting), written here one
    iteration per write through one ``%b`` line template built once.  The
    values' text comes from ``_shortrepr.repr_bytes``, a block of
    iterations at a time, whose bytes equal repr()'s.  On a (500, 30, 30)
    history, the largest table the toolkit writes, this takes 0.18-0.20 s,
    of which that text is 0.11 s; a repr() per value took 0.50-0.60 s on
    the same machine.  A bundle's files are also written in parallel (see
    _write_histories).
    """
    from ._shortrepr import repr_bytes
    n_iter, n_moths, d = history.shape
    # "\0" stands for the iteration number, filled in per iteration
    line = "".join([f"\0,{m},{j},%b\r\n" for m in range(n_moths)
                    for j in range(1, d + 1)]).encode()
    rows = history.reshape(n_iter, -1)
    block = max(1, _BLOCK_VALUES // max(rows.shape[1], 1))
    with open(path, "wb") as fh:
        fh.write(b"iter,moth,dim,value\r\n")
        for start in range(0, n_iter, block):
            texts = repr_bytes(rows[start:start + block]).tolist()
            for l, row in enumerate(texts, start=start + 1):
                fh.write(line.replace(b"\0", b"%d" % l) % tuple(row))


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
