"""End-to-end command line tests, exercised in process through main()."""

import csv
import hashlib
import re

import numpy as np
import pytest

from nlcmfo import benchmarks, cli, harness, hypertune
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

    def test_negative_noise_seed_fails_naming_the_field(self, capsys):
        rc = main(["eval", "--seed", "-1", "F7", "0", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0\n"
        assert captured.out == ""

    def test_negative_seed_fails_for_a_function_without_noise(self, capsys):
        # F1 draws no noise; it printed 5.0 for any seed
        rc = main(["eval", "F1", "1", "2", "--seed", "-1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-nan"])
    def test_non_finite_point_fails(self, capsys, value):
        # a behaviour change: nan and inf printed their value and exited 0
        rc = main(["eval", "F1", "1", value])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: point coordinate 1 is "
                                f"{float(value)!r}, not finite\n")
        assert captured.out == ""

    @pytest.mark.parametrize("args, value", [
        (["-1e5", "2"], 1e10 + 4.0),
        (["--seed", "3", "-1e5", "2"], 1e10 + 4.0),
        (["-1e5", "2", "--seed", "3"], 1e10 + 4.0),
        (["-1E-3", "-.5"], 1e-6 + 0.25)])
    def test_negative_point_in_any_float_notation(self, capsys, args, value):
        # argparse alone takes only -1 and -1.5 for numbers, not -1e5
        rc = main(["eval", "F1"] + args)
        assert rc == 0
        assert capsys.readouterr().out == f"{value!r}\n"

    def test_unknown_option_still_fails(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--bogus", "F1", "1"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

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

    def test_fractional_composite_dim_fails_and_registers_nothing(
            self, tmp_path, capsys, make_pack, composite_sandbox):
        pack = make_pack()
        (tmp_path / "pack" / "f25.json").write_text(
            '{"id": "F25", "dim": 2.7, "lower": -5, "upper": 5}')
        out = tmp_path / "results"
        rc = main(["bench", "--functions", "F24", "--composite-pack",
                   str(pack), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: composite pack {pack}: f25.json: dim must be an integer, "
            f"got 2.7\n")
        assert not out.exists()
        with pytest.raises(benchmarks.CompositeUnavailableError):
            benchmarks.lookup("F24")

    def test_degenerate_composite_box_fails_before_any_run(
            self, tmp_path, capsys, monkeypatch, composite_sandbox):
        ran = []
        monkeypatch.setattr(harness, "_execute_task", ran.append)
        pack = tmp_path / "pack"
        pack.mkdir()
        (pack / "f24.json").write_text(
            '{"id": "F24", "dim": 2, "lower": 5, "upper": 5}')
        out = tmp_path / "results"
        rc = main(["bench", "--algorithms", "mfo", "--functions", "F1", "F24",
                   "--runs", "2", "--composite-pack", str(pack),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("error: F24: degenerate bounds at dimension 0: "
                       "lower=5.0 upper=5.0\n")
        assert ran == []
        assert not out.exists()

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

    def test_upper_case_algorithm_is_refused_before_any_run(
            self, tmp_path, capsys, monkeypatch):
        # bench names algorithms as diag, tune and a config file do: only
        # the registry's own spelling runs
        ran = []
        monkeypatch.setattr(harness, "_execute_task", ran.append)
        out = tmp_path / "r"
        rc = main(["bench", "--algorithms", "MFO", "--functions", "F1",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: MFO: unsupported algorithm 'MFO'; choose one of "
            "('mfo', 'nlcmfo', 'pso', 'gwo')\n")
        assert ran == []
        assert not out.exists()

    def test_aborted_run_returns_runtime_error_code(self, tmp_path, capsys,
                                                    composite_sandbox):
        register_composite({
            "id": "F24", "dim": 2, "lower": -5.0, "upper": 5.0,
            "eval": lambda X: np.full(X.shape[0], np.nan),
        })
        out = tmp_path / "results"
        rc = main(["bench", "--functions", "F24", "--runs", "1",
                   "--pop-size", "4", "--max-iter", "3", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "aborted" in captured.err
        assert captured.err.startswith(
            "error: nlcmfo F24 d=2 run 0 seed 0: "
            "objective returned non-finite value")
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
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: nlcmfo F24 d=2 run 0 seed 0: RuntimeError: boom",
                       "error: 1 run(s) aborted; see finals.csv"]
        finals = read_csv(out / "finals.csv")
        assert [(row[1], row[-1]) for row in finals[1:]] == [
            ("F1", "0"), ("F24", "1")]

    def test_dying_worker_exits_2_and_writes_the_bundle(
            self, tmp_path, capsys, dying_composite):
        out = tmp_path / "results"
        rc = main(["bench", "--algorithms", "mfo", "--functions", "F1",
                   dying_composite, "--dim", "2", "--runs", "2",
                   "--workers", "2", "--pop-size", "4", "--max-iter", "3",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count(": BrokenProcessPool: ") == 2
        finals = read_csv(out / "finals.csv")
        assert [(row[1], row[-1]) for row in finals[1:]] == [
            ("F1", "0"), ("F1", "0"), ("F24", "1"), ("F24", "1")]

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

    def test_repeated_algorithm_flag_fails_before_running(self, tmp_path,
                                                          capsys):
        # a repeat would run its cells twice and pool the copies in stats
        out = tmp_path / "results"
        rc = main(["bench", "--algorithms", "mfo", "mfo", "--functions", "F1",
                   "--runs", "2", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: algorithms lists 'mfo' more than once\n"
        assert not (out / "finals.csv").exists()

    def test_repeated_config_function_fails_before_running(self, tmp_path,
                                                           capsys):
        # function ids match in any letter case
        config = tmp_path / "exp.json"
        config.write_text('{"functions": ["F1", "f1"], "runs": 2}')
        out = tmp_path / "results"
        rc = main(["bench", "--config", str(config), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: functions lists 'f1' more than once\n"
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
        from nlcmfo.hypertune import make_toy_dataset
        out = tmp_path / "t"
        rc = main(TUNE_ARGS + ["--export-data", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "dataset.csv")[1:]
        X_train = np.array([[float(v) for v in row[:-2]]
                            for row in rows if row[-1] == "train"])
        y_test = np.array([float(row[-2]) for row in rows
                           if row[-1] == "test"])
        reference = make_toy_dataset(60, 2, 0, 1.0)
        assert np.array_equal(X_train, reference.X_train)
        assert np.array_equal(y_test, reference.y_test)

    @pytest.mark.parametrize("algorithm", ["mfo", "nlcmfo", "pso", "gwo"])
    def test_every_algorithm_tunes(self, algorithm, tmp_path, capsys):
        out = tmp_path / algorithm
        rc = main(TUNE_ARGS + ["--algorithm", algorithm, "--out", str(out)])
        assert rc == 0
        assert "best L_D=" in capsys.readouterr().out
        # 4 members over 3 iterations cost 4 * (3 + 1) trainings each way
        assert read_csv(out / "hyperparams.csv")[-1] == ["trainings", "16"]

    def test_unknown_algorithm_is_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--algorithm", "simplex", "--out",
                  str(tmp_path / "t")])
        assert exc.value.code == 1
        assert "invalid choice: 'simplex'" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_gwo_below_its_pop_size_floor_fails_before_training(
            self, tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(hypertune, "train_toy_models",
                            lambda hps, *args, **kwargs: trained.extend(hps))
        out = tmp_path / "t"
        rc = main(["tune", "--algorithm", "gwo", "--pop-size", "2",
                   "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: pop_size must be >= 3\n"
        assert captured.out == ""
        assert trained == []
        assert not out.exists()

    @pytest.mark.parametrize("separation", ["nan", "inf"])
    def test_non_finite_separation_fails_before_training(
            self, tmp_path, capsys, separation):
        out = tmp_path / "t"
        rc = main(["tune", "--separation", separation, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "separation" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_best_model_fails_without_outputs(self, tmp_path, capsys):
        # every candidate blows up on data this far apart, so the retrained
        # best model is flagged diverged and has no score worth reporting;
        # numpy's overflow warnings would only repeat the flag
        out = tmp_path / "t"
        rc = main(["tune", "--separation", "1e200", "--pop-size", "5",
                   "--max-iter", "2", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1
        assert "diverged" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_single_class_test_split_fails_before_training(
            self, tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(hypertune, "train_toy_models",
                            lambda hps, *args, **kwargs: trained.extend(hps))
        out = tmp_path / "t"
        rc = main(["tune", "--samples", "40", "--data-seed", "448",
                   "--pop-size", "5", "--max-iter", "2", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1
        assert "single class" in captured.err
        assert captured.out == ""
        assert trained == []
        assert not out.exists()

    def test_negative_seed_fails_naming_the_field(self, tmp_path, capsys):
        out = tmp_path / "t"
        rc = main(["tune", "--seed", "-1", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, field", [("--trainer-seed", "trainer_seed"),
                                             ("--data-seed", "data_seed")])
    def test_negative_trainer_or_data_seed_fails_before_training(
            self, tmp_path, capsys, monkeypatch, flag, field):
        trained = []
        monkeypatch.setattr(hypertune, "train_toy_models",
                            lambda hps, *args, **kwargs: trained.extend(hps))
        out = tmp_path / "t"
        rc = main(["tune", flag, "-1", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {field} must be >= 0\n"
        assert captured.out == ""
        assert trained == []
        assert not out.exists()

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
            "eval": lambda X: np.full(X.shape[0], np.nan),
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
    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("command", ["bench", "tune", "diag"])
    def test_out_on_an_existing_file_fails_before_any_run(
            self, command, below, tmp_path, capsys, monkeypatch):
        ran = []
        for name in ("run_experiment", "tune"):
            monkeypatch.setattr(cli, name, lambda *a, **k: ran.append(a))
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = taken / "sub" if below else taken
        rc = main([command, "--pop-size", "5", "--max-iter", "2",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "not a directory" in err
        assert ran == []
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("command, args, name, make, shown", [
        ("bench", ["--functions", "F1", "--telemetry", "curves"], "curves",
         "touch", [r"nlcmfo +F1 +d=30 +ave=\S+ std=\S+ best=\S+"]),
        ("bench", ["--functions", "F1"], "stats.csv", "mkdir",
         [r"nlcmfo +F1 +d=30 +ave=\S+ std=\S+ best=\S+"]),
        ("diag", [], "search_history.csv", "mkdir",
         [r"best=\S+ evaluations=12"]),
        ("tune", ["--samples", "60"], "model.txt", "mkdir",
         [r"best L_D=\S+ after 12 evaluations \(\d+ trainings\)",
          r"momentum=\S+ learning_rate=\S+ epochs=\d+ l2=\S+",
          r"test accuracy=\S+% f1=\S+% auc=\S+%",
          r"\d+ distinct candidates; last improvement at iteration \d+; "
          r"evaluations at lower/upper bound: .*"]),
    ], ids=["bench-curves-file", "bench-stats-dir", "diag", "tune"])
    def test_unwritable_bundle_exits_2_naming_the_path(
            self, command, args, name, make, shown, tmp_path, capsys):
        # the runs have happened, so this is a runtime failure, not exit 1;
        # their results are shown before the bundle is written, and no
        # "wrote" line follows
        out = tmp_path / "out"
        out.mkdir()
        getattr(out / name, make)()
        extra = ["--runs", "1"] if command == "bench" else []
        rc = main([command, *args, *extra, "--pop-size", "4", "--max-iter",
                   "2", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert str(out / name) in err
        assert "Traceback" not in err
        lines = captured.out.splitlines()
        assert len(lines) == len(shown)
        for line, pattern in zip(lines, shown):
            assert re.fullmatch(pattern, line), line

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


# ---------------------------------------------------------------------------
# byte pins
# ---------------------------------------------------------------------------

def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _without_columns(data, drop):
    """The CSV bytes with the columns at ``drop`` left out, CRLF kept."""
    lines = data.split(b"\r\n")
    return b"\r\n".join(
        b",".join(f for i, f in enumerate(line.split(b",")) if i not in drop)
        for line in lines)


BENCH_PIN_ARGS = ["bench", "--algorithms", "mfo", "nlcmfo", "pso", "gwo",
                  "--functions", "F1", "F7", "--dim", "3", "--runs", "2",
                  "--pop-size", "5", "--max-iter", "5", "--seed", "3",
                  "--telemetry", "curves"]

# sha256 of each output of the bench run above and of tune at TUNE_ARGS with
# --export-data; the bench tables' runtime columns are wall-clock, so their
# digests leave them out
BENCH_PINS = {
    "stats.csv":
        "ecbb7b80711afba6216e1caa2017521df4bac41f572f85cf072cd694a4337ee4",
    "stats_full.csv":
        "df272c6beb8066e4467c7baf83b9408993d7272de494634480bdb1d03489d092",
    "finals.csv":
        "c8a1637b9706ebd455a3dd3eae31632d0e6e8cba7d501831062c70d227085b18",
    "curves/gwo_F1_d3_convergence.csv":
        "4b8f6ef4d89cded8acd449ab74954490de6cb7f2a4f90828350f796264ee58e1",
    "curves/gwo_F1_d3_mean_fitness.csv":
        "6b41d25d82fd17741f804c15052b88a6348d99c8204c753b64d92b73a39565f9",
    "curves/gwo_F1_d3_trajectory.csv":
        "d2cadd04b2496e6f491554b5a7a7f0a3cab2b1ea868294b468eba158f502efaf",
    "curves/gwo_F7_d3_convergence.csv":
        "533c07860c94b5d76282d62dc1bd6e702d96db44f1ddd8ed233a3e06e6081475",
    "curves/gwo_F7_d3_mean_fitness.csv":
        "df332481e55920c0b387429bd9725ada40af26420c6a817c15fe77d2138b733b",
    "curves/gwo_F7_d3_trajectory.csv":
        "eaad234eaf9df23c96382ef3fbf86c91607d5fda7257a1baf1262fdd00613d76",
    "curves/mfo_F1_d3_convergence.csv":
        "f19c2fdf62c77747b3d570e773031afef818b2e67b466a27508523cbd8a00be4",
    "curves/mfo_F1_d3_mean_fitness.csv":
        "6a8c741ed2c3e342eabe85aec7e4ae46ca0bb72dad1ab7e5259e052076fa44c3",
    "curves/mfo_F1_d3_trajectory.csv":
        "83d22d700ec0a0abbc0be788b3d68e846f3de60e2899e5a6f09a3c367475a09e",
    "curves/mfo_F7_d3_convergence.csv":
        "3efeded62e0f33cf72aa80c5b2718c464f4a364080b6eb54681d15d26622b9e1",
    "curves/mfo_F7_d3_mean_fitness.csv":
        "1f9447b92678fba5332d3ef71bc8c44943e5b44eaeb80dab7bbdfc3cf86bddb1",
    "curves/mfo_F7_d3_trajectory.csv":
        "4ffe0ed18579233bc16d525d385f5e3a19fe0239bd5ffaf79551cd04810ce21d",
    "curves/nlcmfo_F1_d3_convergence.csv":
        "0b84c3fe36d7ca63ee3bf1a2a4c1f3e4a8616f774f0b4995bc4ca94bd685b27a",
    "curves/nlcmfo_F1_d3_mean_fitness.csv":
        "5ff12109cfb897c520a211b162c86db56d93938509e1c693a8ca879f00781dae",
    "curves/nlcmfo_F1_d3_trajectory.csv":
        "41f5620688d0593f7abe38e3e7f44ff0391262983dab59ce793cfb899fb9a949",
    "curves/nlcmfo_F7_d3_convergence.csv":
        "8c643eb80f0d962492817ed8775e06cd8dc00a4c0af5c98c60e34ddde570682b",
    "curves/nlcmfo_F7_d3_mean_fitness.csv":
        "a73a5990481c6dd21a94131003526b5277560bbac6eff788de8a890e43c4fe5d",
    "curves/nlcmfo_F7_d3_trajectory.csv":
        "bc41e50b602ae85c8b6f6b9136f64d4067f6bbec822d8cae3899f6ccdf2f51d7",
    "curves/pso_F1_d3_convergence.csv":
        "ee88e194e0123c7db9b7bdf22d0a7f2a00057c7d3bd7759d1fd71e176b5b9dd1",
    "curves/pso_F1_d3_mean_fitness.csv":
        "3c250133d6b6a25f9d412be2b7c7289e7c63ef74ea8781b6b6e06ca713cf1a41",
    "curves/pso_F1_d3_trajectory.csv":
        "55b02eb9e975835236445e91a68eea88ebe2f2c8a6302a92664d9a104bf9d3e7",
    "curves/pso_F7_d3_convergence.csv":
        "da7248733cb515c6f7914141a16560297d23e1030adf8003dbcf2707dd421f28",
    "curves/pso_F7_d3_mean_fitness.csv":
        "44cc62a6cddae806d05ff4033e6b5c9b8ce1f926cc808d8d6488f6de226f675e",
    "curves/pso_F7_d3_trajectory.csv":
        "781311aac7de83c108fd6906dde9d9beb6401c3ea908475c031643b9bc46edf8",
}

TUNE_PINS = {
    "confusion.csv":
        "8a434177bdf311603bc56541e076c2fdac7eaca275a71a47c397a2cf727086da",
    "dataset.csv":
        "f298917515fb2f64dc452073e35050552cc50cd4a52794bb728ef8f243027a75",
    "hyperparams.csv":
        "834c7227b45f64208241d27142d9fda4c3d0fa42703dfe1d2adaf12b4b29fa39",
    "metrics.csv":
        "34ec2f1f0107d27b10539a49564858df7f2fa8a4eeafd5f8f8d303a87ce84023",
    "model.txt":
        "606a133e17d8931442784a90c390e6e92237ea3fcd6a5fbdc5a159ee85a43e11",
    "roc.csv":
        "7cb4e24c7e4692345781efd2a213fa2bef7eb729b2cd04b1e13273df7aa7956c",
    "tune_diag.csv":
        "f4353c199c863e56a45fb3aed139f6661ec9e16b897f2086c7e4de6c8cf9e758",
}

# tune at TUNE_ARGS with --algorithm mfo --export-data: both algorithms share
# the start swarm, whose best candidate neither search improves on, so only
# the diagnostics differ
MFO_TUNE_PINS = {
    **TUNE_PINS,
    "tune_diag.csv":
        "eaab4842702ab0788dfb34f279de430b30c0801e1734ec3f2910d7c8271432ea",
}


class TestBytePins:
    def test_bench_bundle_bytes(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(BENCH_PIN_ARGS + ["--out", str(out)]) == 0
        digests = {
            "stats.csv": _sha256(_without_columns(
                (out / "stats.csv").read_bytes(), {5, 6})),
            "stats_full.csv": _sha256(_without_columns(
                (out / "stats_full.csv").read_bytes(), {5, 6})),
            "finals.csv": _sha256(_without_columns(
                (out / "finals.csv").read_bytes(), {7})),
        }
        for path in sorted((out / "curves").iterdir()):
            digests[f"curves/{path.name}"] = _sha256(path.read_bytes())
        assert digests == BENCH_PINS

    def test_tune_bundle_bytes(self, tmp_path, capsys):
        out = tmp_path / "tune"
        assert main(TUNE_ARGS + ["--export-data", "--out", str(out)]) == 0
        digests = {path.name: _sha256(path.read_bytes())
                   for path in sorted(out.iterdir())}
        assert digests == TUNE_PINS

    def test_mfo_tune_bundle_bytes(self, tmp_path, capsys):
        # mfo's swarms bring larger training batches with mixed epochs
        out = tmp_path / "tune"
        assert main(TUNE_ARGS + ["--algorithm", "mfo", "--export-data",
                                 "--out", str(out)]) == 0
        digests = {path.name: _sha256(path.read_bytes())
                   for path in sorted(out.iterdir())}
        assert digests == MFO_TUNE_PINS
