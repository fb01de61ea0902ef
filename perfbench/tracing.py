"""Span tracer that wraps nlcmfo's public functions from outside the package.

Each wrapped call becomes a span with a name, start, end, parent span and
optimizer-run id, kept in compact in-memory arrays and written out once at
the end.  A layer's self time is its span's duration minus the time its
child spans cover.

Objective calls and chaotic-map steps are *folded*: they run 15k times per
optimizer run, so they add to their layer's totals and to the enclosing
span's covered time but keep no span record of their own.  That keeps a
traced sweep at a few MB instead of hundreds.

Every workload runs in one process (workers=1), so spans from pool workers
are not collected.  The wrappers never touch an RNG and never reorder a
call, so traced runs must reproduce untraced outputs.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from array import array
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.t0 = clock()
        self.stats: dict = {}          # name -> [calls, total_s, self_s, items]
        self.stack: list = []          # open frames: [start, covered, span]
        self.run_id = -1
        self.runs = 0
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("i")
        self._installed: list = []

    # -- accounting --------------------------------------------------------

    def stat(self, name: str) -> list:
        if name not in self.stats:
            self.stats[name] = [0, 0.0, 0.0, 0]
        return self.stats[name]

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, *, folded=False, run=False, items=None,
             args_hook=None):
        """Return ``fn`` wrapped in a span called ``name``.

        folded:    account the call but keep no span record
        run:       the call is one optimizer run; its spans share a run id
        items:     callable(args) -> work items to count for this call
        args_hook: callable(args) -> args actually passed on to ``fn``
        """
        entry = self.stat(name)
        nid = self._name_id(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            if run:
                outer_run, self.run_id = self.run_id, self.runs
                self.runs += 1
            start = clock()
            if folded:
                span = parent
            else:
                span = len(self.span_start)
                self.span_name.append(nid)
                self.span_parent.append(parent)
                self.span_run.append(self.run_id)
                self.span_start.append(start)
                self.span_end.append(0.0)
            if args_hook is not None:
                args = args_hook(args)
            frame = [start, 0.0, span]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                if not folded:
                    self.span_end[span] = end
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if items is not None:
                    entry[3] += items(args)
                if run:
                    self.run_id = outer_run
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        """Patch every (owners, attribute, name, options) target in place.

        Owners listed together share one wrapper, so a function imported
        into several modules is one layer.
        """
        made: dict = {}
        for owners, attribute, name, options in targets:
            for owner in owners:
                original = getattr(owner, attribute)
                key = (id(original), name)
                if key not in made:
                    made[key] = self.wrap(name, original, **options)
                setattr(owner, attribute, made[key])
                self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- results -----------------------------------------------------------

    def total(self, *names) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def self_time(self, *names) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def calls(self, *names) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def items(self, *names) -> int:
        return sum(self.stats[n][3] for n in names if n in self.stats)

    def write_spans(self, path: Path) -> int:
        """Write every span as gzip CSV (times in s from tracer start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "run"])
            for i, (n, s, e, p, r) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_run)):
                writer.writerow([i, self.names[n], f"{s - self.t0:.7f}",
                                 f"{e - self.t0:.7f}", p, r])
        return len(self.span_start)


def nlcmfo_targets(tracer: Tracer) -> list:
    """The public functions of each layer, with every module that binds them."""
    from nlcmfo import baselines, cli, engine, harness, hypertune
    from nlcmfo.space import SearchSpace
    from nlcmfo.stochastic import ChaoticMap, LevySampler

    def time_objective(args):
        objective, *rest = args
        return (tracer.wrap("benchmarks.objective", objective, folded=True),
                *rest)

    def levy_elements(args):
        return int(args[1]) * int(args[2])

    run = {"run": True}
    return [
        ((engine, harness, hypertune), "run", "engine.run", run),
        ((baselines, harness), "run_pso", "baselines.run_pso", run),
        ((baselines, harness), "run_gwo", "baselines.run_gwo", run),
        ((engine, baselines), "evaluate_swarm", "engine.evaluate_swarm",
         {"args_hook": time_objective}),
        ((engine,), "update_flames", "engine.update_flames", {}),
        ((engine,), "t_mfo", "engine.t_mfo", {}),
        ((engine,), "t_nlcmfo", "engine.t_nlcmfo", {}),
        ((engine,), "spiral_step_mfo", "engine.spiral_step_mfo", {}),
        ((engine,), "spiral_step_nlcmfo", "engine.spiral_step_nlcmfo", {}),
        ((ChaoticMap,), "step", "stochastic.chaos_step", {"folded": True}),
        ((LevySampler,), "matrix", "stochastic.levy_matrix",
         {"items": levy_elements}),
        ((SearchSpace,), "clip", "space.clip", {}),
        ((SearchSpace,), "sample", "space.sample", {}),
        ((harness,), "run_experiment", "harness.run_experiment", {}),
        ((harness,), "export_experiment", "harness.export_experiment", {}),
        ((harness,), "summarize", "harness.summarize", {}),
        ((hypertune, cli), "tune", "hypertune.tune", {}),
        ((hypertune,), "train_toy_model", "hypertune.train", {}),
        ((hypertune,), "evaluate_L_D", "hypertune.score", {}),
        ((cli,), "train_toy_model", "hypertune.retrain", {}),
    ]
