"""Tests for the experiment harness: grid execution, aggregation,
telemetry levels, and CSV export."""

import concurrent.futures
import csv
import json
import math
import multiprocessing
import os
import threading
import warnings

import numpy as np
import pytest

from nlcmfo import harness
from nlcmfo.benchmarks import (
    BenchmarkFunction,
    clear_composites,
    CompositeUnavailableError,
    lookup,
    register_composite,
    UnknownFunctionError,
)
from nlcmfo.engine import ALGORITHMS
from nlcmfo.harness import (
    ConfigError,
    ExperimentConfig,
    export_curves,
    export_experiment,
    load_experiment_config,
    RunRecord,
    run_experiment,
    summarize,
    write_finals,
    write_search_history,
    write_stats,
)

TINY = dict(runs=3, pop_size=6, max_iter=10, base_seed=0)


def tiny_config(**overrides):
    kwargs = dict(TINY)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@pytest.fixture
def composite_sandbox():
    clear_composites()
    yield
    clear_composites()


@pytest.fixture
def nan_composite(composite_sandbox):
    """A registered function that always evaluates to NaN, so every run
    aborts through the objective-error path."""
    register_composite({
        "id": "F24", "dim": 2, "lower": -5.0, "upper": 5.0,
        "eval": lambda X: np.full(X.shape[0], np.nan),
    })
    return "F24"


@pytest.fixture
def raising_composite(composite_sandbox):
    """A registered function whose every evaluation raises RuntimeError."""
    def boom(x):
        raise RuntimeError("boom")

    register_composite({
        "id": "F24", "dim": 2, "lower": -5.0, "upper": 5.0, "eval": boom,
    })
    return "F24"


# ---------------------------------------------------------------------------
# cell statistics
# ---------------------------------------------------------------------------

def cell_records(finals, runtimes):
    return [RunRecord("mfo", "F1", 2, i, i, fit, np.zeros(2), 12, rt)
            for i, (fit, rt) in enumerate(zip(finals, runtimes))]


class TestSummarizeCell:
    def test_sample_std_uses_ddof_one(self):
        [row] = summarize(cell_records([1.0, 2.0, 3.0], [0.1, 0.2, 0.3]))
        assert row.ave == 2.0
        assert row.std == 1.0
        assert row.ave_runtime_s == pytest.approx(0.2)
        assert row.std_runtime_s == pytest.approx(0.1)

    def test_single_run_flagged_with_zero_std(self):
        [row] = summarize(cell_records([5.0], [0.2]))
        assert row.ave == 5.0
        assert row.std == 0.0
        assert row.std_runtime_s == 0.0


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

class TestConfigValidation:
    def test_unknown_algorithm_rejected(self, monkeypatch):
        # the engine's validator refuses the name, also after a valid one,
        # before any run of the grid
        ran = []
        monkeypatch.setattr(harness, "_execute_task", ran.append)
        for algorithms in (("simplex",), ("mfo", "simplex")):
            with pytest.raises(ConfigError) as exc:
                run_experiment(tiny_config(algorithms=algorithms,
                                           functions=("F1",)))
            assert str(exc.value) == (
                f"simplex: unsupported algorithm 'simplex'; choose one of "
                f"{tuple(ALGORITHMS)}")
        assert ran == []

    def test_unknown_function_rejected(self):
        with pytest.raises(UnknownFunctionError):
            run_experiment(tiny_config(functions=("F99",)))

    def test_unloaded_composite_slot_rejected(self):
        with pytest.raises(CompositeUnavailableError):
            run_experiment(tiny_config(functions=("F24",)))

    def test_bad_scalar_fields_rejected(self):
        for bad in (dict(runs=0), dict(pop_size=0), dict(max_iter=0),
                    dict(dim=0), dict(telemetry="everything")):
            with pytest.raises(ConfigError):
                run_experiment(tiny_config(functions=("F1",), **bad))

    def test_engine_population_floor_still_applies(self):
        # an optimizer needs at least two moths; the grid-level check
        # rejects pop_size=1 with ConfigError, a ValueError
        with pytest.raises(ValueError):
            run_experiment(tiny_config(functions=("F1",), pop_size=1))

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(functions=("F1",), base_seed=-1))

    def test_pop_size_below_any_algorithm_floor_rejected_before_running(
            self, monkeypatch):
        # mfo runs with two moths, gwo needs three leaders: nothing may run
        ran = []
        monkeypatch.setattr(harness, "_execute_task", ran.append)
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(algorithms=("mfo", "gwo"),
                                       functions=("F1",), pop_size=2))
        assert ran == []

    @pytest.mark.parametrize("grid", [
        dict(algorithms=("mfo", "nlcmfo", "mfo"), functions=("F1",)),
        dict(functions=("F1", "F2", "f1")),
    ])
    def test_repeated_name_rejected_before_running(self, monkeypatch, grid):
        ran = []
        monkeypatch.setattr(harness, "_execute_task", ran.append)
        with pytest.raises(ConfigError, match="more than once"):
            run_experiment(tiny_config(**grid))
        assert ran == []

    def test_algorithm_names_are_compared_exactly(self, monkeypatch):
        # only function ids are matched in any letter case: MFO is refused
        # as an algorithm, not as a repeat of mfo
        ran = []
        monkeypatch.setattr(harness, "_execute_task", ran.append)
        with pytest.raises(ConfigError) as exc:
            run_experiment(tiny_config(algorithms=("mfo", "MFO")))
        assert str(exc.value) == (
            "MFO: unsupported algorithm 'MFO'; choose one of "
            f"{tuple(ALGORITHMS)}")
        assert ran == []

    def test_workers_below_one_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(functions=("F1",), workers=0))

    @pytest.mark.parametrize("name, value", [
        ("runs", "2"), ("dim", "5"), ("workers", "2"), ("runs", 1.5),
        ("base_seed", 1.5), ("pop_size", 5.5), ("max_iter", 2.5),
        ("dim", 2.5), ("runs", True), ("workers", None), ("max_iter", True),
    ])
    def test_non_integer_count_rejected_before_running(self, monkeypatch,
                                                       name, value):
        ran = []
        monkeypatch.setattr(harness, "_execute_task", ran.append)
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            run_experiment(tiny_config(functions=("F1",), **{name: value}))
        assert ran == []


class TestLoadExperimentConfig:
    def test_json_round_trip_with_string_coercion(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "algorithms": "mfo", "functions": ["F1", "F9"],
            "runs": 4, "pop_size": 8, "max_iter": 20, "dim": 5,
        }))
        config = load_experiment_config(path)
        assert config.algorithms == ("mfo",)
        assert config.functions == ("F1", "F9")
        assert config.runs == 4
        assert config.dim == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"functions": ["F1"], "budget": 100}))
        with pytest.raises(ConfigError):
            load_experiment_config(path)

    def test_params_key_rejected(self, tmp_path):
        # the optimizers' constants are fixed: a config that tries to set
        # one is an error, not a silently ignored key
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"algorithms": ["pso"], "functions": ["F1"],
                                    "params": {"inertia": 0.4}}))
        with pytest.raises(ConfigError, match="params"):
            load_experiment_config(path)

    @pytest.mark.parametrize("key, value", [
        ("algorithms", 5), ("functions", 7), ("functions", [7]),
        ("algorithms", None), ("params", 3), ("params", ["levy_alpha"]),
        ("composite_pack", 5),
    ])
    def test_wrongly_typed_field_rejected_before_running(
            self, tmp_path, monkeypatch, key, value):
        ran = []
        monkeypatch.setattr(harness, "_execute_task", ran.append)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"functions": ["F1"], key: value}))
        with pytest.raises(ConfigError, match=key):
            run_experiment(load_experiment_config(path))
        assert ran == []


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------

class TestRunExperiment:
    def test_grid_order_and_seeds(self):
        config = tiny_config(algorithms=("nlcmfo", "mfo"),
                             functions=("F1", "F16"), dim=3, base_seed=100)
        result = run_experiment(config)
        assert len(result.records) == 2 * 2 * 3
        # grid order: algorithm, then function, then run index
        keys = [(r.algorithm, r.function, r.run_index)
                for r in result.records]
        expected = [(a, f, r) for a in ("nlcmfo", "mfo")
                    for f in ("F1", "F16") for r in range(3)]
        assert keys == expected
        for rec in result.records:
            assert rec.seed == 100 + rec.run_index
            assert rec.evaluations == 6 * (10 + 1)
            assert not rec.aborted
            assert math.isfinite(rec.best_fitness)
            assert rec.runtime_s >= 0.0

    def test_serial_grid_runs_baselines_through_their_own_names(
            self, monkeypatch):
        # perfbench's tracer times pso and gwo runs apart from mfo and
        # nlcmfo runs by wrapping these three names of the harness
        calls = []
        for name in ("run", "run_pso", "run_gwo"):
            def counted(config, space, objective, name=name,
                        runner=getattr(harness, name)):
                calls.append((name, config.algorithm))
                return runner(config, space, objective)
            monkeypatch.setattr(harness, name, counted)
        config = tiny_config(algorithms=("mfo", "nlcmfo", "pso", "gwo"),
                             functions=("F1",), dim=2, runs=2)
        result = run_experiment(config)
        assert not any(rec.aborted for rec in result.records)
        assert calls == [(name, algorithm)
                         for name, algorithm in (("run", "mfo"),
                                                 ("run", "nlcmfo"),
                                                 ("run_pso", "pso"),
                                                 ("run_gwo", "gwo"))
                         for _ in range(2)]

    def test_each_box_is_built_once_per_function(self, monkeypatch):
        # every run of a function, whatever its algorithm, shares the box
        # the grid's validation built
        built = []
        space = BenchmarkFunction.space

        def counted(func, dim=None):
            built.append(func.fid)
            return space(func, dim)
        monkeypatch.setattr(BenchmarkFunction, "space", counted)
        result = run_experiment(tiny_config(algorithms=("mfo", "pso"),
                                            functions=("F1", "F16"), dim=3))
        assert len(result.records) == 12
        assert not any(rec.aborted for rec in result.records)
        assert built == ["F1", "F16"]

    def test_dim_override_applies_to_scalable_functions_only(self):
        config = tiny_config(functions=("F1", "F16"), dim=7, runs=1)
        result = run_experiment(config)
        dims = {r.function: r.dim for r in result.records}
        assert dims["F1"] == 7
        assert dims["F16"] == 2

    def test_function_ids_are_case_insensitive(self):
        result = run_experiment(tiny_config(functions=("f16",), runs=1))
        assert result.records[0].function == "F16"

    def test_repeat_run_is_bitwise_identical(self):
        config = tiny_config(algorithms=("nlcmfo", "pso"),
                             functions=("F1",), dim=4)
        a = run_experiment(config)
        b = run_experiment(config)
        for ra, rb in zip(a.records, b.records):
            assert ra.best_fitness == rb.best_fitness
            assert np.array_equal(ra.best_position, rb.best_position)

    def test_best_position_matches_cell_dimension(self):
        result = run_experiment(tiny_config(functions=("F1",), dim=5, runs=1))
        assert result.records[0].best_position.shape == (5,)

    def test_noisy_function_runs_finish(self):
        result = run_experiment(tiny_config(functions=("F7",), dim=3, runs=2))
        for rec in result.records:
            assert not rec.aborted
            assert math.isfinite(rec.best_fitness)

    def test_parallel_workers_match_serial_results(self):
        base = dict(algorithms=("mfo",), functions=("F1",), dim=3, runs=2,
                    pop_size=5, max_iter=5, base_seed=0)
        serial = run_experiment(ExperimentConfig(workers=1, **base))
        parallel = run_experiment(ExperimentConfig(workers=2, **base))
        for rs, rp in zip(serial.records, parallel.records):
            assert rs.best_fitness == rp.best_fitness
            assert np.array_equal(rs.best_position, rp.best_position)
            assert rs.seed == rp.seed

    def test_pool_starts_no_more_processes_than_runs(self, monkeypatch):
        # a fork pool starts every max_workers process at the first submit
        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                started.append(len(self._processes))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        result = run_experiment(tiny_config(algorithms=("mfo",),
                                            functions=("F1",), dim=2, runs=2,
                                            max_iter=3, workers=3))
        assert [rec.aborted for rec in result.records] == [False, False]
        assert max(started) == 2


    def test_pooled_grid_with_a_registered_composite_under_forkserver(
            self, composite_sandbox):
        # the pool asks for fork, so its workers hold F24 whatever the
        # interpreter's default start method is
        register_composite({"id": "F24", "dim": 2, "lower": -5.0,
                            "upper": 5.0, "eval": lambda X: (X * X).sum(axis=1)})
        config = dict(algorithms=("mfo",), functions=("F24", "F1"), dim=2,
                      runs=2, pop_size=5, max_iter=4)
        serial = run_experiment(ExperimentConfig(**config))
        method = multiprocessing.get_start_method()
        multiprocessing.set_start_method("forkserver", force=True)
        try:
            pooled = run_experiment(ExperimentConfig(workers=2, **config))
        finally:
            multiprocessing.set_start_method(method, force=True)
        assert [rec.aborted for rec in pooled.records] == [False] * 4
        assert ([rec.best_fitness for rec in pooled.records]
                == [rec.best_fitness for rec in serial.records])

    def test_a_composite_missing_in_the_workers_aborts_only_its_runs(
            self, composite_sandbox, monkeypatch):
        # forkserver workers import the package afresh, without F24: its
        # runs are aborted and F1's finish
        register_composite({"id": "F24", "dim": 2, "lower": -5.0,
                            "upper": 5.0, "eval": lambda X: (X * X).sum(axis=1)})
        monkeypatch.setattr(harness, "_START_METHOD", "forkserver")
        result = run_experiment(ExperimentConfig(
            algorithms=("mfo",), functions=("F1", "F24"), dim=2, runs=2,
            pop_size=5, max_iter=4, workers=2))
        assert ([(rec.function, rec.aborted) for rec in result.records]
                == [("F1", False)] * 2 + [("F24", True)] * 2)
        assert all(math.isfinite(rec.best_fitness)
                   for rec in result.records[:2])
        assert all(rec.error.startswith("CompositeUnavailableError: F24 ")
                   for rec in result.records[2:])


class TestCompositePack:
    def test_pack_functions_run_serially_and_pooled(self, make_pack,
                                                    composite_sandbox):
        grid = dict(algorithms=("mfo", "gwo"), functions=("F24", "F25"),
                    runs=2, composite_pack=make_pack())
        serial = run_experiment(tiny_config(workers=1, **grid))
        pooled = run_experiment(tiny_config(workers=2, **grid))
        assert {(r.function, r.dim) for r in serial.records} == {
            ("F24", 2), ("F25", 3)}
        for rs, rp in zip(serial.records, pooled.records):
            assert not rs.aborted and rs.evaluations == 6 * (10 + 1)
            assert rs.function != "F24" or rs.best_fitness >= 10.0
            assert rs.best_fitness == rp.best_fitness
            assert np.array_equal(rs.best_position, rp.best_position)

    def test_bad_second_file_registers_nothing(self, make_pack, monkeypatch,
                                               composite_sandbox):
        ran = []
        monkeypatch.setattr(harness, "_execute_task", ran.append)
        pack = make_pack(f25_basis="nope")
        with pytest.raises(ConfigError, match="unknown basis"):
            run_experiment(tiny_config(functions=("F24",),
                                       composite_pack=pack))
        assert ran == []
        with pytest.raises(CompositeUnavailableError):
            run_experiment(tiny_config(functions=("F24",)))

    def test_different_pack_under_registered_ids_rejected(self, make_pack,
                                                          composite_sandbox):
        grid = dict(functions=("F24",), runs=1)
        run_experiment(tiny_config(composite_pack=make_pack("a"), **grid))
        with pytest.raises(ConfigError, match="already registered"):
            run_experiment(tiny_config(composite_pack=make_pack("b"), **grid))

    def test_same_pack_loads_again_after_clear_composites(self, make_pack,
                                                          composite_sandbox):
        grid = dict(functions=("F24",), runs=1, composite_pack=make_pack())
        first = run_experiment(tiny_config(**grid))
        clear_composites()
        again = run_experiment(tiny_config(**grid))
        assert again.records[0].best_fitness == first.records[0].best_fitness
        with pytest.raises(ConfigError, match="already registered"):
            run_experiment(tiny_config(composite_pack=make_pack("b"),
                                       functions=("F24",), runs=1))

    @pytest.mark.parametrize("box", [{"lower": 5, "upper": 5}, {"dim": 0}])
    def test_bad_composite_box_rejected_before_any_run(
            self, tmp_path, monkeypatch, composite_sandbox, box):
        # F1's cell comes first, yet its objective never sees a swarm
        calls = []
        monkeypatch.setattr(lookup("F1"), "_eval", calls.append)
        spec = {"id": "F24", "dim": 2, "lower": -5, "upper": 5, **box}
        (tmp_path / "f24.json").write_text(json.dumps(spec))
        # a zero dim is refused as the pack loads, naming its file
        match = "f24.json: dim must be >= 1$" if "dim" in box else "^F24: "
        with pytest.raises(ConfigError, match=match):
            run_experiment(tiny_config(functions=("F1", "F24"),
                                       composite_pack=str(tmp_path)))
        assert calls == []


class TestTelemetryLevels:
    def test_summary_keeps_no_curves(self):
        result = run_experiment(tiny_config(functions=("F1",), dim=3, runs=1))
        rec = result.records[0]
        assert rec.convergence is None
        assert rec.mean_curve is None
        assert rec.trajectory is None
        assert rec.history is None

    def test_curves_keep_per_iteration_series(self):
        result = run_experiment(tiny_config(functions=("F1",), dim=3, runs=1,
                                            telemetry="curves"))
        rec = result.records[0]
        assert rec.convergence.shape == (10,)
        assert rec.mean_curve.shape == (10,)
        assert rec.trajectory.shape == (10,)
        assert rec.history is None
        assert np.all(np.diff(rec.convergence) <= 0)

    def test_full_history_keeps_positions(self):
        result = run_experiment(tiny_config(functions=("F1",), dim=3, runs=1,
                                            telemetry="full-history"))
        rec = result.records[0]
        assert rec.history.shape == (10, 6, 3)
        assert np.all(rec.history >= -100.0)
        assert np.all(rec.history <= 100.0)


class TestAbortedRuns:
    def test_objective_error_becomes_aborted_record(self, nan_composite):
        result = run_experiment(tiny_config(functions=(nan_composite,),
                                            runs=2))
        assert result.aborted
        for rec in result.records:
            assert rec.aborted
            assert math.isnan(rec.best_fitness)
            assert rec.evaluations == 0
            assert rec.error.startswith("objective returned non-finite value")

    def test_healthy_cells_survive_an_aborted_cell(self, nan_composite):
        result = run_experiment(tiny_config(functions=("F1", nan_composite),
                                            dim=2, runs=2))
        by_fn = {}
        for rec in result.records:
            by_fn.setdefault(rec.function, []).append(rec)
        assert all(not r.aborted for r in by_fn["F1"])
        assert all(r.aborted for r in by_fn[nan_composite])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_any_run_exception_becomes_aborted_record(self, raising_composite,
                                                      workers):
        # pooled workers see the registration through the fork start method
        result = run_experiment(tiny_config(
            functions=("F1", raising_composite), dim=2, runs=2,
            workers=workers))
        assert result.aborted == 2
        for rec in result.records:
            if rec.function == "F1":
                assert not rec.aborted and rec.evaluations == 6 * (10 + 1)
            else:
                assert rec.aborted and rec.error == "RuntimeError: boom"
                assert math.isnan(rec.best_fitness)

    @pytest.mark.parametrize("kind,got", [
        ("one-short", "(5,)"), ("column", "(6, 1)"), ("scalar", "()")])
    def test_wrong_fitness_shape_becomes_aborted_record(
            self, monkeypatch, raising_composite, kind, got):
        bad = {"one-short": lambda xs: np.zeros(len(xs) - 1),
               "column": lambda xs: np.zeros((len(xs), 1)),
               "scalar": lambda xs: 0.0}[kind]
        monkeypatch.setattr(lookup(raising_composite), "_eval", bad)
        result = run_experiment(tiny_config(
            functions=("F1", raising_composite), dim=2, runs=2))
        assert result.aborted == 2
        for rec in result.records:
            if rec.function == "F1":
                assert not rec.aborted and rec.evaluations == 6 * (10 + 1)
            else:
                assert rec.aborted and rec.evaluations == 0
                assert rec.error == (f"ValueError: objective returned shape "
                                     f"{got}, expected (6,)")

    def test_dying_worker_aborts_unfinished_runs_and_keeps_the_rest(
            self, dying_composite):
        # pooled workers see the registration through the fork start method
        result = run_experiment(tiny_config(
            algorithms=("mfo",), functions=("F1", dying_composite), dim=2,
            runs=2, workers=2))
        serial = run_experiment(tiny_config(
            algorithms=("mfo",), functions=("F1",), dim=2, runs=2))
        assert [r.function for r in result.records] == ["F1"] * 2 + ["F24"] * 2
        for rec, ref in zip(result.records, serial.records):
            assert not rec.aborted
            assert rec.best_fitness == ref.best_fitness
            assert rec.evaluations == ref.evaluations
        for rec in result.records[2:]:
            assert rec.aborted and rec.error.startswith("BrokenProcessPool: ")
            assert math.isnan(rec.best_fitness) and rec.evaluations == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_f2_overflows_at_dim_1000(self, tmp_path):
        # F2's product of |x_i| over 1000 coordinates in [-10, 10] is inf,
        # so every run aborts on its initial swarm, without numpy's overflow
        # warning and with a short error; the bundle still writes
        result = run_experiment(tiny_config(algorithms=("mfo", "pso"),
                                            functions=("F2",), dim=1000,
                                            runs=2, pop_size=5, max_iter=3))
        assert len(result.records) == 4
        for rec in result.records:
            assert rec.aborted
            assert rec.error.startswith(
                "objective returned non-finite value inf at row 0 (d=1000) [")
            assert len(rec.error) < 200
        paths = export_experiment(result, tmp_path)
        finals = read_csv(paths["finals"])
        aborted_col = finals[0].index("aborted")
        assert [row[aborted_col] for row in finals[1:]] == ["1"] * 4

    def test_all_aborted_cell_summarizes_to_nan_row(self, nan_composite):
        result = run_experiment(tiny_config(functions=(nan_composite,),
                                            runs=2))
        rows = summarize(result.records)
        assert len(rows) == 1
        row = rows[0]
        assert row.aborted == 2
        assert math.isnan(row.ave)
        assert math.isnan(row.std)


# ---------------------------------------------------------------------------
# aggregation over records
# ---------------------------------------------------------------------------

class TestSummarize:
    def test_one_row_per_cell_in_first_seen_order(self):
        config = tiny_config(algorithms=("nlcmfo", "gwo"),
                             functions=("F1", "F9", "F16"), dim=3)
        rows = summarize(run_experiment(config).records)
        assert len(rows) == 2 * 3
        labels = [(r.algorithm, r.function) for r in rows]
        assert labels == [(a, f) for a in ("nlcmfo", "gwo")
                          for f in ("F1", "F9", "F16")]

    def test_row_statistics_match_manual_computation(self):
        config = tiny_config(functions=("F1",), dim=3)
        records = run_experiment(config).records
        row = summarize(records)[0]
        fits = np.array([r.best_fitness for r in records])
        assert row.aborted == 0
        assert row.ave == pytest.approx(float(np.mean(fits)), rel=1e-15)
        assert row.std == pytest.approx(float(np.std(fits, ddof=1)),
                                        rel=1e-12)
        assert row.best == float(np.min(fits))

    def test_single_run_row_is_flagged(self):
        records = run_experiment(tiny_config(functions=("F1",), dim=3,
                                             runs=1)).records
        row = summarize(records)[0]
        assert row.std == 0.0


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestWriteStats:
    def test_header_and_row_count(self, tmp_path):
        config = tiny_config(algorithms=("nlcmfo", "mfo"),
                             functions=("F1",), dim=3)
        rows = summarize(run_experiment(config).records)
        path = tmp_path / "stats.csv"
        write_stats(rows, path)
        table = read_csv(path)
        assert table[0] == ["algorithm", "function", "dim", "ave", "std",
                            "ave_runtime_s", "std_runtime_s", "aborted_runs"]
        assert len(table) == 1 + 2

    def test_full_precision_columns_round_trip(self, tmp_path):
        config = tiny_config(functions=("F1",), dim=3)
        rows = summarize(run_experiment(config).records)
        path = tmp_path / "stats_full.csv"
        write_stats(rows, path, full_precision=True)
        table = read_csv(path)
        assert float(table[1][3]) == rows[0].ave
        assert float(table[1][4]) == rows[0].std


class TestWriteFinals:
    def test_one_row_per_run_with_full_precision_fitness(self, tmp_path):
        config = tiny_config(functions=("F1",), dim=3)
        records = run_experiment(config).records
        path = tmp_path / "finals.csv"
        write_finals(records, path)
        table = read_csv(path)
        assert table[0] == ["algorithm", "function", "dim", "run", "seed",
                            "best_fitness", "evaluations", "runtime_s",
                            "aborted"]
        assert len(table) == 1 + len(records)
        for rec, row in zip(records, table[1:]):
            assert row[0] == rec.algorithm
            assert int(row[3]) == rec.run_index
            assert int(row[4]) == rec.seed
            assert float(row[5]) == rec.best_fitness
            assert int(row[6]) == rec.evaluations


class TestExportCurves:
    def test_filenames_headers_and_values(self, tmp_path):
        config = tiny_config(functions=("F1",), dim=3, telemetry="curves")
        records = run_experiment(config).records
        out = tmp_path / "curves"
        export_curves(records, out)
        stem = "nlcmfo_F1_d3"
        for kind in ("convergence", "mean_fitness", "trajectory"):
            path = out / f"{stem}_{kind}.csv"
            assert path.exists()
            table = read_csv(path)
            assert table[0] == ["iter", "run0", "run1", "run2"]
            assert len(table) == 1 + 10
        conv = read_csv(out / f"{stem}_convergence.csv")
        for run_idx, rec in enumerate(records):
            column = [float(row[1 + run_idx]) for row in conv[1:]]
            assert column == [float(v) for v in rec.convergence]
            assert all(b <= a for a, b in zip(column, column[1:]))

    def test_full_history_adds_per_run_position_files(self, tmp_path):
        config = tiny_config(functions=("F1",), dim=2, runs=2,
                             telemetry="full-history")
        records = run_experiment(config).records
        out = tmp_path / "curves"
        export_curves(records, out)
        for r in range(2):
            path = out / f"nlcmfo_F1_d2_run{r}_search_history.csv"
            assert path.exists()
            table = read_csv(path)
            assert table[0] == ["iter", "moth", "dim", "value"]
            assert len(table) == 1 + 10 * 6 * 2

    def test_repeat_export_is_byte_identical(self, tmp_path):
        config = tiny_config(functions=("F1",), dim=3, telemetry="curves")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        export_curves(run_experiment(config).records, out_a)
        export_curves(run_experiment(config).records, out_b)
        name = "nlcmfo_F1_d3_convergence.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def spread_history(shape):
    """Seeded values of both signs with magnitudes from 1e-300 to 1e300."""
    rng = np.random.default_rng(7)
    return (rng.standard_normal(shape)
            * 10.0 ** rng.integers(-300, 300, size=shape))


class TestWriteSearchHistory:
    def test_long_format_indices_and_values(self, tmp_path):
        history = np.arange(12, dtype=np.float64).reshape(2, 3, 2)
        path = tmp_path / "history.csv"
        write_search_history(history, path)
        table = read_csv(path)
        assert table[0] == ["iter", "moth", "dim", "value"]
        assert len(table) == 1 + 12
        first, last = table[1], table[-1]
        # iterations and variables count from 1, moths from 0
        assert [first[0], first[1], first[2]] == ["1", "0", "1"]
        assert float(first[3]) == 0.0
        assert [last[0], last[1], last[2]] == ["2", "2", "2"]
        assert float(last[3]) == 11.0

    @pytest.mark.parametrize("history", [
        spread_history((1, 1, 1)),
        spread_history((3, 2, 5)),
        spread_history((12, 11, 10)),  # indices reach two digits
        np.array([0.0, -0.0, 5e-324, 1e-05, 1e16, -1.7976931348623157e308,
                  1 / 3]).reshape(1, 7, 1),
        np.array([[np.nan, np.inf], [-np.inf, -0.0], [2.5e-320, -1.5],
                  [4e-322, 1e22]]).reshape(2, 2, 2),
    ], ids=["1x1x1", "3x2x5", "12x11x10", "edge-values", "non-finite"])
    def test_bytes_equal_csv_writer_rows(self, tmp_path, history,
                                         reference_history_writer):
        path, ref = tmp_path / "history.csv", tmp_path / "reference.csv"
        write_search_history(history, path)
        reference_history_writer(history, ref)
        assert path.read_bytes() == ref.read_bytes()
        self.assert_values_parse_back(history, path)

    def test_real_histories_bytes_equal_csv_writer_rows(
            self, tmp_path, reference_history_writer):
        config = tiny_config(algorithms=("nlcmfo", "mfo", "pso", "gwo"),
                             functions=("F1",), dim=4, runs=1,
                             max_iter=200, telemetry="full-history")
        records = run_experiment(config).records
        out = tmp_path / "curves"
        export_curves(records, out)
        for rec in records:
            path = out / f"{rec.algorithm}_F1_d4_run0_search_history.csv"
            reference_history_writer(rec.history, tmp_path / "reference.csv")
            assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
            self.assert_values_parse_back(rec.history, path)

    @staticmethod
    def assert_values_parse_back(history, path):
        parsed = np.array([float(row[3]) for row in read_csv(path)[1:]])
        # bitwise, so -0.0 and the subnormals count too
        assert np.array_equal(parsed.view(np.int64),
                              history.ravel().view(np.int64))


def history_records(shape, count=4):
    """``count`` finished runs of one cell, each with a full history."""
    curve = np.zeros(shape[0])
    return [RunRecord("nlcmfo", "F1", shape[2], r, r, 0.0, np.zeros(shape[2]),
                      0, 0.0, convergence=curve, mean_curve=curve,
                      trajectory=curve, history=spread_history(shape) * (r + 1))
            for r in range(count)]


def refuse_pool(*args, **kwargs):
    raise AssertionError("a ProcessPoolExecutor was built")


class TestPooledHistoryExport:
    """Histories of at least POOL_MIN_VALUES values go to a fork pool."""

    @pytest.fixture
    def two_cores(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no os.sched_getaffinity, so no pool")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        built = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recorded)
        return built

    def test_pooled_files_equal_the_reference_in_order(
            self, tmp_path, two_cores, reference_history_writer):
        records = history_records((40, 30, 30))
        assert (sum(r.history.size for r in records)
                >= harness.POOL_MIN_VALUES)
        out = tmp_path / "curves"
        with warnings.catch_warnings():
            # a fork with live threads warns on Python 3.12+
            warnings.simplefilter("error")
            written = export_curves(records, out)
        assert two_cores == [2]
        histories = [out / f"nlcmfo_F1_d30_run{r}_search_history.csv"
                     for r in range(4)]
        assert written == [
            *(out / f"nlcmfo_F1_d30_{m}.csv"
              for m in ("convergence", "mean_fitness", "trajectory")),
            *histories]
        for rec, path in zip(records, histories):
            reference_history_writer(rec.history, tmp_path / "reference.csv")
            assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert multiprocessing.active_children() == []

    def test_failed_write_raises_its_own_error(self, tmp_path, two_cores):
        out = tmp_path / "curves"
        (out / "nlcmfo_F1_d30_run2_search_history.csv").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            export_curves(history_records((40, 30, 30)), out)
        assert two_cores == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("shape, cores", [
        ((27, 30, 30), {0, 1}),   # 97,200 values, just below 100,000
        ((40, 30, 30), {0}),
        ((40, 30, 30), None),     # no os.sched_getaffinity
    ], ids=["below-constant", "one-core", "no-affinity"])
    def test_serial_paths_build_no_pool(self, tmp_path, monkeypatch, shape,
                                        cores, reference_history_writer):
        if cores is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            refuse_pool)
        records = history_records(shape)
        export_curves(records, tmp_path)
        reference_history_writer(records[3].history, tmp_path / "reference.csv")
        assert ((tmp_path / "nlcmfo_F1_d30_run3_search_history.csv")
                .read_bytes() == (tmp_path / "reference.csv").read_bytes())

    def test_live_thread_keeps_the_write_serial(self, tmp_path, two_cores):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            export_curves(history_records((40, 30, 30)), tmp_path)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert two_cores == []


class TestExportExperiment:
    def test_summary_bundle_has_no_curves_directory(self, tmp_path):
        result = run_experiment(tiny_config(functions=("F1",), dim=3))
        paths = export_experiment(result, tmp_path)
        assert set(paths) == {"stats", "stats_full", "finals"}
        for p in paths.values():
            assert p.exists()

    def test_curves_bundle_includes_curve_files(self, tmp_path):
        result = run_experiment(tiny_config(functions=("F1",), dim=3,
                                            telemetry="curves"))
        paths = export_experiment(result, tmp_path)
        assert "curves" in paths
        assert (tmp_path / "curves" / "nlcmfo_F1_d3_convergence.csv").exists()

    def test_repeat_bundles_agree_outside_runtime_columns(self, tmp_path):
        config = tiny_config(algorithms=("mfo",), functions=("F1",), dim=3)
        export_experiment(run_experiment(config), tmp_path / "a")
        export_experiment(run_experiment(config), tmp_path / "b")
        finals_a = read_csv(tmp_path / "a" / "finals.csv")
        finals_b = read_csv(tmp_path / "b" / "finals.csv")
        runtime_col = finals_a[0].index("runtime_s")
        for row_a, row_b in zip(finals_a, finals_b):
            masked_a = row_a[:runtime_col] + row_a[runtime_col + 1:]
            masked_b = row_b[:runtime_col] + row_b[runtime_col + 1:]
            assert masked_a == masked_b
        stats_a = read_csv(tmp_path / "a" / "stats_full.csv")
        stats_b = read_csv(tmp_path / "b" / "stats_full.csv")
        keep = [stats_a[0].index(c) for c in
                ("algorithm", "function", "dim", "ave", "std",
                 "aborted_runs")]
        for row_a, row_b in zip(stats_a, stats_b):
            assert [row_a[i] for i in keep] == [row_b[i] for i in keep]
