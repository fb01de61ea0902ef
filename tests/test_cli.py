"""End-to-end command line tests, exercised in process through main()."""

import csv

import pytest

from nlcmfo import benchmarks, harness
from nlcmfo.benchmarks import clear_composites, register_composite
from nlcmfo.cli import _expand_functions, main
from nlcmfo.engine import EngineConfig, run


@pytest.fixture
def composite_sandbox():
    clear_composites()
    yield
    clear_composites()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# function list expansion
# ---------------------------------------------------------------------------

class TestExpandFunctions:
    def test_all_keyword_covers_the_builtin_suite(self):
        assert len(_expand_functions(["all"])) == 23

    def test_scalable_keyword(self):
        assert _expand_functions(["scalable"]) == tuple(
            f"F{i}" for i in range(1, 14))

    def test_fixed_keyword(self):
        assert _expand_functions(["fixed"]) == tuple(
            f"F{i}" for i in range(14, 24))

    def test_names_are_uppercased_and_deduplicated(self):
        assert _expand_functions(["F1", "f1", "f16"]) == ("F1", "F16")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

class TestEval:
    def test_sphere_origin_prints_zero(self, capsys):
        rc = main(["eval", "F1"] + ["0"] * 30)
        assert rc == 0
        assert capsys.readouterr().out == "0.0\n"

    def test_scalable_function_accepts_any_dimension(self, capsys):
        rc = main(["eval", "F1", "3", "4"])
        assert rc == 0
        assert capsys.readouterr().out == "25.0\n"

    def test_fixed_dimension_minimizer(self, capsys):
        rc = main(["eval", "F18", "0", "-1"])
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(3.0, abs=1e-9)

    def test_fixed_dimension_arity_mismatch_fails(self, capsys):
        rc = main(["eval", "F16", "1", "2", "3"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_function_fails(self, capsys):
        rc = main(["eval", "F99", "0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_noisy_function_seed_controls_the_draw(self, capsys):
        main(["eval", "F7", "0", "0", "--seed", "5"])
        first = capsys.readouterr().out
        main(["eval", "F7", "0", "0", "--seed", "5"])
        assert capsys.readouterr().out == first
        main(["eval", "F7", "0", "0", "--seed", "6"])
        assert capsys.readouterr().out != first


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

class TestBench:
    def test_tiny_grid_exports_the_bundle(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["bench", "--algorithms", "mfo", "--functions", "F1",
                   "--dim", "3", "--runs", "2", "--pop-size", "5",
                   "--max-iter", "5", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "mfo" in stdout and "F1" in stdout
        assert "wrote" in stdout
        table = read_csv(out / "stats.csv")
        assert table[0] == ["algorithm", "function", "dim", "ave", "std",
                            "ave_runtime_s", "std_runtime_s", "aborted_runs"]
        assert len(table) == 2
        finals = read_csv(out / "finals.csv")
        assert len(finals) == 1 + 2
        assert (out / "stats_full.csv").exists()

    def test_composite_pack_functions_run(self, tmp_path, capsys, make_pack,
                                          composite_sandbox):
        out = tmp_path / "results"
        rc = main(["bench", "--functions", "F24", "F25", "--runs", "1",
                   "--pop-size", "4", "--max-iter", "3", "--composite-pack",
                   make_pack(), "--out", str(out)])
        assert rc == 0
        finals = read_csv(out / "finals.csv")
        assert [row[1] for row in finals[1:]] == ["F24", "F25"]

    def test_bad_composite_pack_fails_and_registers_nothing(
            self, tmp_path, capsys, make_pack, composite_sandbox):
        out = tmp_path / "results"
        rc = main(["bench", "--functions", "F24", "--composite-pack",
                   make_pack(f25_basis="nope"), "--out", str(out)])
        assert rc == 1
        assert "unknown basis" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(benchmarks.CompositeUnavailableError):
            benchmarks.lookup("F24")

    def test_unknown_function_fails_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["bench", "--functions", "F99", "--out", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_algorithm_fails(self, tmp_path, capsys):
        rc = main(["bench", "--algorithms", "simplex", "--functions", "F1",
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_aborted_run_returns_runtime_error_code(self, tmp_path, capsys,
                                                    composite_sandbox):
        register_composite({
            "id": "F24", "dim": 2, "lower": -5.0, "upper": 5.0,
            "eval": lambda x: float("nan"),
        })
        out = tmp_path / "results"
        rc = main(["bench", "--functions", "F24", "--runs", "1",
                   "--pop-size", "4", "--max-iter", "3", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "aborted" in captured.err
        # the bundle is still written so the failure can be inspected
        assert (out / "finals.csv").exists()
        finals = read_csv(out / "finals.csv")
        assert finals[1][-1] == "1"

    def test_run_exception_is_recorded_and_exits_2(self, tmp_path, capsys,
                                                    composite_sandbox):
        def boom(x):
            raise RuntimeError("boom")

        register_composite({
            "id": "F24", "dim": 2, "lower": -5.0, "upper": 5.0, "eval": boom,
        })
        out = tmp_path / "results"
        rc = main(["bench", "--functions", "F1", "F24", "--dim", "2",
                   "--runs", "1", "--pop-size", "4", "--max-iter", "3",
                   "--out", str(out)])
        assert rc == 2
        assert "1 run(s) aborted" in capsys.readouterr().err
        finals = read_csv(out / "finals.csv")
        assert [(row[1], row[-1]) for row in finals[1:]] == [
            ("F1", "0"), ("F24", "1")]

    @pytest.mark.parametrize("text", [
        '{"algorithms": 5}', '{"functions": 7}', '{"params": 3}',
        '{"composite_pack": 5}',
    ])
    def test_wrongly_typed_config_field_fails_before_running(
            self, tmp_path, capsys, text):
        config = tmp_path / "exp.json"
        config.write_text(text)
        out = tmp_path / "results"
        rc = main(["bench", "--config", str(config), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not (out / "finals.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text('{"algorithms": "mfo", "functions": ["F1"],'
                          ' "dim": 3, "runs": 4, "pop_size": 5,'
                          ' "max_iter": 5}')
        out = tmp_path / "results"
        rc = main(["bench", "--config", str(config), "--runs", "2",
                   "--out", str(out)])
        assert rc == 0
        finals = read_csv(out / "finals.csv")
        assert len(finals) == 1 + 2

    def test_non_integer_config_dim_fails_before_running(self, tmp_path,
                                                          capsys):
        config = tmp_path / "exp.json"
        config.write_text('{"algorithms": "mfo", "functions": ["F1"],'
                          ' "dim": 2.5, "runs": 1, "pop_size": 5,'
                          ' "max_iter": 5}')
        out = tmp_path / "results"
        rc = main(["bench", "--config", str(config), "--out", str(out)])
        assert rc == 1
        assert "error: dim must be an integer" in capsys.readouterr().err
        assert not (out / "finals.csv").exists()

    def test_curves_telemetry_writes_curve_files(self, tmp_path):
        out = tmp_path / "results"
        rc = main(["bench", "--algorithms", "mfo", "--functions", "F1",
                   "--dim", "3", "--runs", "1", "--pop-size", "5",
                   "--max-iter", "5", "--telemetry", "curves",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "curves" / "mfo_F1_d3_convergence.csv").exists()

    def test_seed_flag_sets_the_base_seed(self, tmp_path):
        out = tmp_path / "results"
        rc = main(["bench", "--algorithms", "mfo", "--functions", "F1",
                   "--dim", "3", "--runs", "2", "--pop-size", "5",
                   "--max-iter", "5", "--seed", "40", "--out", str(out)])
        assert rc == 0
        finals = read_csv(out / "finals.csv")
        assert [row[4] for row in finals[1:]] == ["40", "41"]


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

TUNE_ARGS = ["tune", "--seed", "7", "--pop-size", "4", "--max-iter", "3",
             "--samples", "60"]


class TestTune:
    def test_writes_the_report_files(self, tmp_path, capsys):
        out = tmp_path / "t"
        rc = main(TUNE_ARGS + ["--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "best L_D=" in stdout
        assert "trainings" in stdout
        for name in ("hyperparams.csv", "confusion.csv", "metrics.csv",
                     "roc.csv", "model.txt", "tune_diag.csv"):
            assert (out / name).exists()
        assert "distinct candidates; last improvement at iteration" in stdout
        diag = read_csv(out / "tune_diag.csv")
        assert diag[0] == ["name", "value"]
        assert [row[0] for row in diag[1:]] == [
            "distinct_candidates", "last_improvement",
            "momentum_at_lower", "learning_rate_at_lower", "epochs_at_lower",
            "l2_at_lower", "momentum_at_upper", "learning_rate_at_upper",
            "epochs_at_upper", "l2_at_upper"]
        assert 1 <= int(diag[1][1]) <= 16
        assert 1 <= int(diag[2][1]) <= 3
        hyper = read_csv(out / "hyperparams.csv")
        assert hyper[0] == ["name", "value"]
        names = [row[0] for row in hyper[1:]]
        assert names == ["momentum", "learning_rate", "epochs", "l2",
                         "L_D", "trainings"]
        # 4 moths over 3 iterations cost 4 * (3 + 1) objective trainings
        assert hyper[-1] == ["trainings", "16"]
        metrics_table = read_csv(out / "metrics.csv")
        assert metrics_table[0] == ["metric", "value", "percent"]
        assert [row[0] for row in metrics_table[1:]] == [
            "accuracy", "sensitivity", "specificity", "precision", "fpr",
            "f1", "auc"]
        roc = read_csv(out / "roc.csv")
        assert roc[0] == ["fpr", "tpr"]
        assert roc[1] == ["0.0", "0.0"]
        assert roc[-1] == ["1.0", "1.0"]

    def test_same_seed_runs_are_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(TUNE_ARGS + ["--out", str(out_a)]) == 0
        assert main(TUNE_ARGS + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        for name in ("hyperparams.csv", "confusion.csv", "metrics.csv",
                     "roc.csv", "model.txt", "tune_diag.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_export_data_writes_a_loadable_dataset(self, tmp_path, capsys):
        import numpy as np
        from nlcmfo.hypertune import import_dataset, make_toy_dataset
        out = tmp_path / "t"
        rc = main(TUNE_ARGS + ["--export-data", "--out", str(out)])
        assert rc == 0
        loaded = import_dataset(out / "dataset.csv")
        reference = make_toy_dataset(60, 2, 0, 1.0)
        assert np.array_equal(loaded.X_train, reference.X_train)
        assert np.array_equal(loaded.y_test, reference.y_test)

    def test_too_small_sample_count_fails(self, tmp_path, capsys):
        rc = main(["tune", "--samples", "10", "--out", str(tmp_path / "t")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# diag
# ---------------------------------------------------------------------------

class TestDiag:
    def test_exports_all_four_telemetry_files(self, tmp_path, capsys):
        out = tmp_path / "diag"
        rc = main(["diag", "--algorithm", "mfo", "--function", "F16",
                   "--pop-size", "5", "--max-iter", "8", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "best=" in stdout
        assert "evaluations=45" in stdout
        conv = read_csv(out / "convergence.csv")
        assert conv[0] == ["iter", "best_so_far"]
        assert len(conv) == 1 + 8
        assert conv[1][0] == "1"
        values = [float(row[1]) for row in conv[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))
        mean = read_csv(out / "mean_fitness.csv")
        assert mean[0] == ["iter", "mean_fitness"]
        traj = read_csv(out / "trajectory.csv")
        assert traj[0] == ["iter", "first_variable"]
        hist = read_csv(out / "search_history.csv")
        assert hist[0] == ["iter", "moth", "dim", "value"]
        assert len(hist) == 1 + 8 * 5 * 2

    def test_search_history_bytes_equal_csv_writer_rows(
            self, tmp_path, capsys, reference_history_writer):
        out = tmp_path / "diag"
        rc = main(["diag", "--algorithm", "nlcmfo", "--function", "F1",
                   "--dim", "3", "--pop-size", "5", "--max-iter", "60",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        func = benchmarks.lookup("F1")
        config = EngineConfig(algorithm="nlcmfo", pop_size=5, max_iter=60,
                              seed=2, record_history=True)
        history = run(config, func.space(3), func.objective()).history
        reference_history_writer(history, tmp_path / "reference.csv")
        assert ((out / "search_history.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())

    @pytest.mark.parametrize("algorithm", ["nlcmfo", "mfo", "pso", "gwo"])
    def test_every_algorithm_is_runnable(self, algorithm, tmp_path, capsys):
        out = tmp_path / algorithm
        rc = main(["diag", "--algorithm", algorithm, "--function", "F1",
                   "--dim", "3", "--pop-size", "5", "--max-iter", "5",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "search_history.csv").exists()

    def test_noisy_function_diag_runs(self, tmp_path, capsys):
        out = tmp_path / "noisy"
        rc = main(["diag", "--function", "F7", "--dim", "3",
                   "--pop-size", "5", "--max-iter", "5", "--out", str(out)])
        assert rc == 0

    def test_aborted_run_exits_2_without_outputs(self, tmp_path, capsys,
                                                 composite_sandbox):
        register_composite({
            "id": "F24", "dim": 2, "lower": -5.0, "upper": 5.0,
            "eval": lambda x: float("nan"),
        })
        out = tmp_path / "diag"
        rc = main(["diag", "--function", "F24", "--pop-size", "4",
                   "--max-iter", "3", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: objective returned non-finite value")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--pop-size", "1"),
                                             ("--seed", "-1")])
    def test_bad_settings_fail_before_running(self, flag, value, tmp_path,
                                              capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "_execute_task", ran.append)
        out = tmp_path / "diag"
        rc = main(["diag", "--function", "F1", "--dim", "3", flag, value,
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert ran == []
        assert not out.exists()


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

class TestUsageErrors:
    def test_missing_subcommand_exits_with_config_error_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_missing_eval_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval"])
        assert exc.value.code == 1

    def test_invalid_telemetry_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--telemetry", "bogus"])
        assert exc.value.code == 1

    def test_non_numeric_point_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "F1", "abc"])
        assert exc.value.code == 1
