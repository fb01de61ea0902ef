"""Command line interface.

Subcommands:
    bench   run an algorithm x function experiment grid, export CSV
    tune    tune the toy classifier's hyperparameters with any of the four
            optimizers, export CSV reports
    eval    evaluate one benchmark function at a point
    diag    single diagnostic run with full telemetry CSVs

Exit codes: 0 success, 1 configuration error (bad arguments, unknown
function or algorithm, unreadable config, an --out that cannot be a
directory, a composite whose box is empty or degenerate, a tune dataset
whose test split holds one class) detected before any runs, 2 runtime
failure (a run aborted mid-experiment, tune's best model diverged in
training, or a bundle file could not be written after the runs).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import benchmarks
from .engine import ALGORITHMS, EngineConfig, ObjectiveError
from .harness import (TELEMETRY_LEVELS, ExperimentConfig, export_experiment,
                      load_experiment_config, run_experiment, summarize,
                      write_curves, write_search_history, write_table)
from .hypertune import (confusion, export_dataset, make_toy_dataset, metrics,
                        roc_auc, roc_points, save_model, train_toy_model,
                        tune)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -1 and -1.5 for negative numbers; eval's
        # points are floats, so -1e5, -.5, -inf and -nan are points too
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)",
                                                   re.IGNORECASE)

    # argparse exits with 2 on usage errors by default; 2 is reserved for
    # runtime aborts here, so remap usage problems to the config-error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _expand_functions(names):
    out = []
    for name in names:
        if name.lower() == "all":
            out.extend(benchmarks.BUILTIN_IDS)
        elif name.lower() == "scalable":
            out.extend(fid for fid in benchmarks.BUILTIN_IDS
                       if benchmarks.lookup(fid).scalable)
        elif name.lower() == "fixed":
            out.extend(fid for fid in benchmarks.BUILTIN_IDS
                       if not benchmarks.lookup(fid).scalable)
        else:
            out.append(name.upper())
    return tuple(dict.fromkeys(out))  # drop repeats, keep first-seen order


def _out_dir(path) -> Path:
    """``--out`` as a Path, checked before any run but not created: the
    nearest part of it that exists must be a directory."""
    out_dir = Path(path)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {path}: {existing} is not a directory")
    return out_dir


def _cmd_bench(args) -> int:
    out_dir = _out_dir(args.out)
    if args.config:
        config = load_experiment_config(args.config)
    else:
        config = ExperimentConfig()
    if args.algorithms:
        config.algorithms = tuple(a.lower() for a in args.algorithms)
    if args.functions:
        config.functions = _expand_functions(args.functions)
    for name in ("dim", "runs", "pop_size", "max_iter", "telemetry",
                 "workers", "composite_pack"):
        value = getattr(args, name)
        if value is not None:
            setattr(config, name, value)
    if args.seed is not None:
        config.base_seed = args.seed

    result = run_experiment(config)
    export_experiment(result, out_dir)
    for row in summarize(result.records):
        print(f"{row.algorithm:7s} {row.function:4s} d={row.dim:<5d} "
              f"ave={row.ave:.6g} std={row.std:.6g} best={row.best:.6g}")
    print(f"wrote {out_dir / 'stats.csv'}")
    if result.aborted:
        for rec in result.records:
            if rec.aborted:
                print(f"error: {rec.algorithm} {rec.function} d={rec.dim} "
                      f"run {rec.run_index} seed {rec.seed}: {rec.error}",
                      file=sys.stderr)
        print(f"error: {result.aborted} run(s) aborted; see finals.csv",
              file=sys.stderr)
        return 2
    return 0


def _cmd_tune(args) -> int:
    out_dir = _out_dir(args.out)
    data = make_toy_dataset(args.samples, args.features, args.data_seed,
                            args.separation)
    config = EngineConfig(algorithm=args.algorithm, pop_size=args.pop_size,
                          max_iter=args.max_iter, seed=args.seed)
    outcome = tune(config, data, trainer_seed=args.trainer_seed)
    model = train_toy_model(outcome.best_hyperparams, data,
                            seed=args.trainer_seed)
    if model.diverged_:
        print(f"error: the tuned model diverged in training (best L_D="
              f"{outcome.best_L_D:.6g}); nothing written", file=sys.stderr)
        return 2
    scores = model.predict_proba(data.X_test)
    pred = (scores >= 0.5).astype(np.int64)  # predict's own rule
    cm = confusion(pred, data.y_test)
    report = metrics(cm)
    points = roc_points(scores, data.y_test)
    auc = roc_auc(points)

    out_dir.mkdir(parents=True, exist_ok=True)
    hp = outcome.best_hyperparams
    write_table(out_dir / "hyperparams.csv", ["name", "value"], [
        *([key, repr(value)] for key, value in asdict(hp).items()),
        ["L_D", repr(outcome.best_L_D)], ["trainings", outcome.trainings]])
    write_table(out_dir / "confusion.csv", ["tp", "fn", "fp", "tn"],
                [[cm.tp, cm.fn, cm.fp, cm.tn]])
    write_table(out_dir / "metrics.csv", ["metric", "value", "percent"],
                [[key, repr(value), f"{100.0 * value:.2f}"]
                 for key, value in [*asdict(report).items(), ("auc", auc)]])
    write_table(out_dir / "roc.csv", ["fpr", "tpr"],
                [[repr(float(fpr)), repr(float(tpr))] for fpr, tpr in points])
    names = list(asdict(hp))
    lower, upper = outcome.bound_hits.tolist()
    write_table(out_dir / "tune_diag.csv", ["name", "value"], [
        ["distinct_candidates", outcome.distinct_candidates],
        ["last_improvement", outcome.last_improvement],
        *([f"{name}_at_{side}", count]
          for side, hits in (("lower", lower), ("upper", upper))
          for name, count in zip(names, hits))])
    save_model(model, out_dir / "model.txt")
    if args.export_data:
        export_dataset(data, out_dir / "dataset.csv")

    print(f"best L_D={outcome.best_L_D:.6g} after {outcome.trainings} "
          f"evaluations ({outcome.distinct_candidates} trainings)")
    print(f"momentum={hp.momentum:.6g} learning_rate={hp.learning_rate:.6g} "
          f"epochs={hp.epochs} l2={hp.l2:.6g}")
    print(f"test accuracy={report.accuracy * 100:.2f}% "
          f"f1={report.f1 * 100:.2f}% auc={auc * 100:.2f}%")
    hits = " ".join(f"{name}={lo}/{up}"
                    for name, lo, up in zip(names, lower, upper))
    print(f"{outcome.distinct_candidates} distinct candidates; last "
          f"improvement at iteration {outcome.last_improvement}; "
          f"evaluations at lower/upper bound: {hits}")
    print(f"wrote {out_dir / 'hyperparams.csv'}")
    return 0


def _cmd_eval(args) -> int:
    print(benchmarks.lookup(args.function).evaluate(args.point, args.seed))
    return 0


def _cmd_diag(args) -> int:
    out_dir = _out_dir(args.out)
    rec = run_experiment(ExperimentConfig(
        algorithms=(args.algorithm,), functions=(args.function,),
        dim=args.dim, runs=1, pop_size=args.pop_size, max_iter=args.max_iter,
        base_seed=args.seed, telemetry="full-history")).records[0]
    if rec.aborted:
        print(f"error: {rec.error}", file=sys.stderr)
        return 2

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, header, curve in (
            ("convergence", "best_so_far", rec.convergence),
            ("mean_fitness", "mean_fitness", rec.mean_curve),
            ("trajectory", "first_variable", rec.trajectory)):
        write_curves(out_dir / f"{name}.csv", [header], [curve])
    write_search_history(rec.history, out_dir / "search_history.csv")
    print(f"best={rec.best_fitness:.6g} evaluations={rec.evaluations}")
    print(f"wrote telemetry to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nlcmfo",
                     description="moth-flame optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", parents=[], help="run an experiment grid")
    bench.add_argument("--config", help="JSON experiment config file")
    bench.add_argument("--algorithms", nargs="+", metavar="ALG",
                       help=f"subset of {tuple(ALGORITHMS)}")
    bench.add_argument("--functions", nargs="+", metavar="FID",
                       help="function ids (F1..F29) or all/scalable/fixed")
    bench.add_argument("--dim", type=int)
    bench.add_argument("--runs", type=int)
    bench.add_argument("--pop-size", dest="pop_size", type=int)
    bench.add_argument("--max-iter", dest="max_iter", type=int)
    bench.add_argument("--seed", type=int, help="base seed (run r adds r)")
    bench.add_argument("--telemetry", choices=TELEMETRY_LEVELS)
    bench.add_argument("--workers", type=int)
    bench.add_argument("--composite-pack", dest="composite_pack",
                       help="directory of composite *.json definitions")
    bench.add_argument("--out", default="results")
    bench.set_defaults(func=_cmd_bench)

    tune_p = sub.add_parser("tune", help="tune the toy classifier")
    tune_p.add_argument("--algorithm", default="nlcmfo", choices=ALGORITHMS)
    tune_p.add_argument("--pop-size", dest="pop_size", type=int, default=30)
    tune_p.add_argument("--max-iter", dest="max_iter", type=int, default=20)
    tune_p.add_argument("--seed", type=int, default=0)
    tune_p.add_argument("--trainer-seed", dest="trainer_seed", type=int,
                        default=0)
    tune_p.add_argument("--samples", type=int, default=600)
    tune_p.add_argument("--features", type=int, default=2)
    tune_p.add_argument("--data-seed", dest="data_seed", type=int, default=0)
    tune_p.add_argument("--separation", type=float, default=1.0)
    tune_p.add_argument("--export-data", dest="export_data",
                        action="store_true")
    tune_p.add_argument("--out", default="tune_results")
    tune_p.set_defaults(func=_cmd_tune)

    eval_p = sub.add_parser("eval", help="evaluate a function at a point")
    eval_p.add_argument("function")
    eval_p.add_argument("point", nargs="+", type=float)
    eval_p.add_argument("--seed", type=int, default=0,
                        help="noise seed, >= 0 (only F7 uses it)")
    eval_p.set_defaults(func=_cmd_eval)

    diag = sub.add_parser("diag", help="one run with full telemetry export")
    diag.add_argument("--algorithm", choices=ALGORITHMS, default="nlcmfo")
    diag.add_argument("--function", default="F1")
    diag.add_argument("--dim", type=int, default=None)
    diag.add_argument("--pop-size", dest="pop_size", type=int, default=30)
    diag.add_argument("--max-iter", dest="max_iter", type=int, default=100)
    diag.add_argument("--seed", type=int, default=0)
    diag.add_argument("--out", default="diag_results")
    diag.set_defaults(func=_cmd_diag)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (benchmarks.UnknownFunctionError,
            benchmarks.CompositeUnavailableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ObjectiveError, OSError) as exc:  # OSError: an unwritable bundle
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
