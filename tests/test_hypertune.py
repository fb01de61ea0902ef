"""Tests for the hyperparameter tuning stack: decode, toy data, the
logistic trainer, the tune loop, and the classification metrics."""

import csv
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlcmfo import hypertune
from nlcmfo.engine import EngineConfig, run
from nlcmfo.space import SearchSpace
from nlcmfo.hypertune import (
    HYPER_LB,
    HYPER_UB,
    ConfusionCounts,
    HyperParams,
    confusion,
    decode_hyperparams,
    evaluate_L_D,
    export_dataset,
    load_model,
    make_toy_dataset,
    metrics,
    roc_auc,
    roc_points,
    save_model,
    train_toy_model,
    train_toy_models,
    tune,
)

# frozen via exact rational arithmetic on the counts (305, 37, 16, 336)
FROZEN_METRICS = {
    "accuracy": 0.9236311239193083,      # 641 / 694
    "sensitivity": 0.8918128654970761,   # 305 / 342
    "specificity": 0.9545454545454546,   # 336 / 352
    "precision": 0.9501557632398754,     # 305 / 321
    "fpr": 0.045454545454545456,         # 16 / 352
    "f1": 0.9200603318250378,
}


# ---------------------------------------------------------------------------
# hyperparameter decoding
# ---------------------------------------------------------------------------

class TestDecodeHyperparams:
    def test_interior_vector_passes_through(self):
        hp = decode_hyperparams(np.array([0.5849, 0.0337, 10.0, 1.2959e-4]))
        assert hp.momentum == 0.5849
        assert hp.learning_rate == 0.0337
        assert hp.epochs == 10
        assert hp.l2 == 1.2959e-4

    def test_lower_bound_decodes_to_box_floor(self):
        hp = decode_hyperparams(np.array(HYPER_LB))
        assert (hp.momentum, hp.learning_rate, hp.epochs, hp.l2) == (
            0.5, 0.01, 5, 1e-4)

    def test_epochs_round_half_up(self):
        hp = decode_hyperparams(np.array([0.7, 0.1, 9.5, 3e-4]))
        assert hp.epochs == 10

    def test_epochs_round_down_below_half(self):
        hp = decode_hyperparams(np.array([0.7, 0.1, 9.4, 3e-4]))
        assert hp.epochs == 9

    def test_out_of_box_vector_is_clipped(self):
        hp = decode_hyperparams(np.array([2.0, 1.0, 50.0, 1.0]))
        assert (hp.momentum, hp.learning_rate, hp.epochs, hp.l2) == (
            1.0, 0.5, 15, 5e-4)
        hp = decode_hyperparams(np.array([-1.0, -1.0, -1.0, -1.0]))
        assert (hp.momentum, hp.learning_rate, hp.epochs, hp.l2) == (
            0.5, 0.01, 5, 1e-4)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            decode_hyperparams(np.array([0.7, 0.1, 9.5]))
        with pytest.raises(ValueError):
            decode_hyperparams(np.zeros((2, 4)))
        # a one-row swarm is not a point either
        with pytest.raises(ValueError):
            decode_hyperparams(np.zeros((1, 4)))

    def test_swarm_decode_equals_row_decode(self):
        # tune decodes each swarm at once; every row must give exactly the
        # HyperParams (values and field types) of its lone decode
        rng = np.random.default_rng(3)
        xs = np.vstack([
            HYPER_LB, HYPER_UB,
            [0.5, 0.5, 15.0, 1e-4],                 # each field on a bound
            [1.0, 0.01, 5.0, 5e-4],
            [2.0, 1.0, 50.0, 1.0],                  # outside the box
            [-1.0, -1.0, -1.0, -1.0],
            [0.4, 0.7, 4.5, 6e-4],
            [0.7, 0.1, 7.5, 3e-4],                  # epoch ties
            [0.7, 0.1, 6.4999999, 3e-4],
            [0.7, 0.1, 14.5, 3e-4],
            rng.uniform(HYPER_LB, HYPER_UB, (20, 4)),
            rng.uniform(HYPER_LB - 1.0, HYPER_UB + 1.0, (10, 4))])
        swarm = hypertune._decode(xs)
        rows = [decode_hyperparams(x) for x in xs]
        assert swarm == rows
        assert [[type(v) for v in asdict(hp).values()] for hp in swarm] == [
            [float, float, int, float]] * len(xs)
        assert [hp.epochs for hp in swarm[7:10]] == [8, 6, 15]
        assert swarm[4] == HyperParams(1.0, 0.5, 15, 5e-4)
        assert swarm[5] == HyperParams(0.5, 0.01, 5, 1e-4)

    @given(st.lists(st.floats(-10, 60, allow_nan=False), min_size=4,
                    max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_decoded_values_always_inside_box(self, raw):
        hp = decode_hyperparams(np.array(raw))
        assert HYPER_LB[0] <= hp.momentum <= HYPER_UB[0]
        assert HYPER_LB[1] <= hp.learning_rate <= HYPER_UB[1]
        assert 5 <= hp.epochs <= 15
        assert HYPER_LB[3] <= hp.l2 <= HYPER_UB[3]


# ---------------------------------------------------------------------------
# toy dataset
# ---------------------------------------------------------------------------

class TestMakeToyDataset:
    def test_split_sizes_at_minimum_sample_count(self):
        data = make_toy_dataset(40, 2, seed=0)
        assert data.X_train.shape == (28, 2)
        assert data.X_test.shape == (12, 2)
        assert data.y_train.shape == (28,)
        assert data.y_test.shape == (12,)
        assert data.n_features == 2

    def test_default_split_sizes(self):
        data = make_toy_dataset()
        assert len(data.y_train) == 420
        assert len(data.y_test) == 180

    def test_classes_are_balanced(self):
        data = make_toy_dataset(40, 2, seed=5)
        y = np.concatenate([data.y_train, data.y_test])
        assert int(np.sum(y == 0)) == 20
        assert int(np.sum(y == 1)) == 20

    def test_odd_sample_count_gives_extra_negative(self):
        data = make_toy_dataset(41, 2, seed=5)
        y = np.concatenate([data.y_train, data.y_test])
        assert int(np.sum(y == 0)) == 21
        assert int(np.sum(y == 1)) == 20

    def test_class_centers_sit_at_plus_minus_separation(self):
        sep = 2.0
        data = make_toy_dataset(400, 3, seed=7, separation=sep)
        X = np.vstack([data.X_train, data.X_test])
        y = np.concatenate([data.y_train, data.y_test])
        c0 = X[y == 0].mean(axis=0)
        c1 = X[y == 1].mean(axis=0)
        assert np.all(np.abs(c0 - (-sep)) < 0.5)
        assert np.all(np.abs(c1 - sep) < 0.5)

    @pytest.mark.parametrize("separation", [np.nan, np.inf, -np.inf])
    def test_non_finite_separation_rejected(self, separation):
        with pytest.raises(ValueError, match="separation"):
            make_toy_dataset(100, 2, seed=0, separation=separation)

    def test_same_seed_is_bitwise_identical(self):
        a = make_toy_dataset(100, 2, seed=9)
        b = make_toy_dataset(100, 2, seed=9)
        assert np.array_equal(a.X_train, b.X_train)
        assert np.array_equal(a.y_train, b.y_train)
        assert np.array_equal(a.X_test, b.X_test)
        assert np.array_equal(a.y_test, b.y_test)

    def test_different_seeds_differ(self):
        a = make_toy_dataset(100, 2, seed=1)
        b = make_toy_dataset(100, 2, seed=2)
        assert not np.array_equal(a.X_train, b.X_train)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="^n_samples must be >= 40$"):
            make_toy_dataset(39, 2)

    def test_too_few_features_rejected(self):
        with pytest.raises(ValueError, match="^n_features must be >= 2$"):
            make_toy_dataset(100, 1)

    @pytest.mark.parametrize("counts, field", [((100.5, 2), "n_samples"),
                                               ((100, 2.0), "n_features")])
    def test_fractional_count_rejected_naming_the_field(self, counts, field):
        # numpy's error for 100.5 named no field
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            make_toy_dataset(*counts)

    def test_single_class_test_split_rejected(self):
        # the 12 test rows of data seed 448 all draw class 1
        with pytest.raises(ValueError, match="data seed 448 holds a single "
                                             "class"):
            make_toy_dataset(40, 2, 448)


# ---------------------------------------------------------------------------
# the gradient SGD steps on
# ---------------------------------------------------------------------------

def cross_entropy(w, b, X, y, l2):
    """Mean binary cross-entropy of the logits X @ w + b, + 0.5*l2*|w|^2."""
    z = X @ w + b
    ce = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(np.mean(ce) + 0.5 * l2 * np.dot(w, w))


def lone_grad(X, y, w, b, l2):
    """``_logistic_grad`` of a batch holding the one member (w, b, l2)."""
    gw, gb = hypertune._logistic_grad(X, y, w[None], np.array([[b]]),
                                      np.array([[l2]]))
    return gw[0], float(gb[0, 0])


class TestLogisticLossGrad:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for trial in range(20):
            n, p = 30, 3
            X = rng.normal(size=(n, p))
            y = (rng.random(n) > 0.5).astype(np.float64)
            w = rng.normal(size=p) * 0.5
            b = float(rng.normal())
            l2 = float(rng.uniform(0.0, 1e-2))
            gw, gb = lone_grad(X, y, w, b, l2)
            for i in range(p):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                num = (cross_entropy(wp, b, X, y, l2)
                       - cross_entropy(wm, b, X, y, l2)) / (2 * h)
                rel = abs(gw[i] - num) / max(1e-12, abs(gw[i]) + abs(num))
                assert rel < 1e-5
            num_b = (cross_entropy(w, b + h, X, y, l2)
                     - cross_entropy(w, b - h, X, y, l2)) / (2 * h)
            rel_b = abs(gb - num_b) / max(1e-12, abs(gb) + abs(num_b))
            assert rel_b < 1e-5

    def test_penalty_applies_to_weights_only(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 2))
        y = (rng.random(20) > 0.5).astype(np.float64)
        w = np.array([1.0, -2.0])
        gw0, gb0 = lone_grad(X, y, w, 0.5, 0.0)
        gw1, gb1 = lone_grad(X, y, w, 0.5, 0.1)
        assert np.array_equal(gw1, gw0 + 0.1 * w)
        # the bias gradient carries no penalty term
        assert gb1 == gb0

    def test_extreme_margins_stay_finite(self):
        X = np.array([[1e4], [-1e4]])
        y = np.array([1.0, 0.0])
        w = np.array([50.0])
        gw, gb = lone_grad(X, y, w, 0.0, 0.0)
        assert np.all(np.isfinite(gw))
        assert np.isfinite(gb)


# ---------------------------------------------------------------------------
# the toy classifier
# ---------------------------------------------------------------------------

class TestToyLogisticClassifier:
    def test_zero_learning_rate_keeps_initial_model(self):
        data = make_toy_dataset(100, 2, seed=0)
        model = train_toy_model(HyperParams(0.9, 0.0, 10, 1e-4), data, seed=0)
        assert np.all(model.weights_ == 0.0)
        assert model.bias_ == 0.0
        proba = model.predict_proba(data.X_test)
        assert np.all(proba == 0.5)
        # the 0.5 threshold is inclusive, so everything lands positive
        assert np.all(model.predict(data.X_test) == 1)

    def test_training_loss_decreases_on_separable_data(self):
        data = make_toy_dataset(600, 2, seed=0, separation=1.0)
        # a k-epoch fit is the first k epochs of the 10-epoch fit, so these
        # are the full-train losses after each of its epochs
        losses = []
        for epochs in range(1, 11):
            hp = HyperParams(momentum=0.75, learning_rate=0.1, epochs=epochs,
                             l2=2e-4)
            model = train_toy_model(hp, data, seed=0)
            assert not model.diverged_
            losses.append(cross_entropy(model.weights_, model.bias_,
                                        data.X_train, data.y_train, hp.l2))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_same_seed_training_is_bitwise_identical(self):
        data = make_toy_dataset(200, 2, seed=4)
        hp = HyperParams(0.8, 0.15, 8, 2e-4)
        a = train_toy_model(hp, data, seed=11)
        b = train_toy_model(hp, data, seed=11)
        assert np.array_equal(a.weights_, b.weights_)
        assert a.bias_ == b.bias_

    def test_different_training_seeds_shuffle_differently(self):
        data = make_toy_dataset(200, 2, seed=4)
        hp = HyperParams(0.8, 0.15, 8, 2e-4)
        a = train_toy_model(hp, data, seed=0)
        b = train_toy_model(hp, data, seed=1)
        assert not np.array_equal(a.weights_, b.weights_)

    def test_huge_learning_rate_flags_divergence(self):
        data = make_toy_dataset(100, 2, seed=0)
        model = train_toy_model(HyperParams(0.9, 1e9, 10, 1e-4), data, seed=0)
        assert model.diverged_
        assert evaluate_L_D(model, data) == 100.0

    def test_stronger_penalty_shrinks_weights(self):
        data = make_toy_dataset(600, 2, seed=0)
        norms = []
        for l2 in [1e-4, 1e-3, 1e-2, 1e-1, 1.0]:
            model = train_toy_model(HyperParams(0.9, 0.1, 15, l2), data,
                                    seed=0)
            norms.append(float(np.linalg.norm(model.weights_)))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < norms[0]

    def test_negative_epochs_rejected_before_training(self, monkeypatch):
        data = make_toy_dataset(100, 2, seed=0)
        # no member may start: the check comes before the first shuffle
        monkeypatch.setattr(hypertune, "make_rng", None)
        with pytest.raises(ValueError, match="epochs"):
            train_toy_models([HyperParams(0.9, 0.1, 10, 1e-4),
                              HyperParams(0.9, 0.1, -3, 1e-4)], data)

    def test_fractional_epochs_train_the_truncated_count(self):
        # a float count would never meet the integer epoch counter
        data = make_toy_dataset(100, 2, seed=0)
        a = train_toy_model(HyperParams(0.9, 0.1, 2.7, 1e-4), data, seed=3)
        b = train_toy_model(HyperParams(0.9, 0.1, 2, 1e-4), data, seed=3)
        assert a.weights_.tobytes() == b.weights_.tobytes()
        assert a.bias_ == b.bias_

    def test_predictions_are_binary_int64(self):
        data = make_toy_dataset(100, 2, seed=0, separation=3.0)
        model = train_toy_model(HyperParams(0.9, 0.1, 10, 1e-4), data)
        pred = model.predict(data.X_test)
        assert pred.dtype == np.int64
        assert set(np.unique(pred)) <= {0, 1}


def _assert_fit_matches(model, reference):
    w, b, diverged = reference
    assert model.weights_.tobytes() == w.tobytes()
    assert np.float64(model.bias_).tobytes() == np.float64(b).tobytes()
    assert model.diverged_ is diverged


class TestFitMatchesReferenceLoop:
    """The trainer takes gradient-only steps on per-epoch shuffled slices;
    it must reproduce the fancy-indexed loss-and-gradient loop bit for bit.
    It always uses batches of 32; the tests also patch in 1, 7 and 500 to
    reach single-row batches, a batch that divides the split and one that
    holds it all."""

    # 70 training rows: batch 32 leaves a short last batch of 6, batch 500
    # is one batch holding the whole split
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("epochs", [0, 5, 15])
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 500])
    @pytest.mark.parametrize("features", [2, 3, 8])
    def test_bitwise_equal_to_reference(self, monkeypatch, reference_fit,
                                        features, batch_size, epochs, seed):
        monkeypatch.setattr(hypertune, "_BATCH_SIZE", batch_size)
        data = make_toy_dataset(100, features, seed=features)
        hp = HyperParams(0.85, 0.2, epochs, 3e-4)
        model = train_toy_model(hp, data, seed)
        _assert_fit_matches(model, reference_fit(
            data.X_train, data.y_train, batch_size=batch_size, seed=seed,
            **asdict(hp)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    # 5e4 with batch 32 diverges in its second epoch; 1e9 with batch 1
    # drives the weights to NaN
    @pytest.mark.parametrize("learning_rate", [5e4, 1e9])
    @pytest.mark.parametrize("batch_size", [1, 32])
    def test_diverging_run_bitwise_equal_to_reference(
            self, monkeypatch, reference_fit, batch_size, learning_rate):
        monkeypatch.setattr(hypertune, "_BATCH_SIZE", batch_size)
        data = make_toy_dataset(100, 3, seed=1)
        hp = HyperParams(0.9, learning_rate, 10, 1e-4)
        model = train_toy_model(hp, data, seed=3)
        assert model.diverged_
        _assert_fit_matches(model, reference_fit(
            data.X_train, data.y_train, batch_size=batch_size, seed=3,
            **asdict(hp)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 500])
    @pytest.mark.parametrize("features", [2, 3, 8])
    def test_lockstep_members_bitwise_equal_to_reference(
            self, monkeypatch, reference_fit, features, batch_size, seed):
        # rows of a (K, 3) weight array are not 16-byte aligned
        monkeypatch.setattr(hypertune, "_BATCH_SIZE", batch_size)
        data = make_toy_dataset(100, features, seed=features)
        # 15, 0 and 5 epochs, and a 5e4 learning rate that diverges within
        # three epochs and leaves the batch while the others train on
        hps = [HyperParams(0.95, 0.45, 15, 5e-4),
               HyperParams(0.85, 0.2, 0, 3e-4),
               HyperParams(0.9, 5e4, 10, 2e-4),
               HyperParams(0.6, 0.05, 5, 1e-4),
               HyperParams(0.7, 0.3, 15, 2e-4)]
        models = train_toy_models(hps, data, seed=seed)
        assert [model.diverged_ for model in models] == [
            False, False, True, False, False]
        for hp, model in zip(hps, models):
            _assert_fit_matches(model, reference_fit(
                data.X_train, data.y_train, momentum=hp.momentum,
                learning_rate=hp.learning_rate, epochs=hp.epochs, l2=hp.l2,
                batch_size=batch_size, seed=seed))

    @pytest.mark.parametrize("batch_size", [7, 32])
    @pytest.mark.parametrize("features", [2, 8])
    def test_wide_lockstep_batch_bitwise_equal_to_reference(
            self, monkeypatch, reference_fit, features, batch_size):
        # 40 distinct members, more than the default population of 30, so
        # each stacked product holds a wider batch than a tune run's
        monkeypatch.setattr(hypertune, "_BATCH_SIZE", batch_size)
        data = make_toy_dataset(100, features, seed=features)
        rng = np.random.default_rng(features + batch_size)
        hps = [HyperParams(m, lr, int(e), l2) for m, lr, e, l2 in zip(
            rng.uniform(0.5, 1.0, 40), rng.uniform(0.01, 0.5, 40),
            rng.integers(0, 16, 40), rng.uniform(1e-4, 5e-4, 40))]
        assert len(set(hps)) == 40
        models = train_toy_models(hps, data, seed=5)
        for hp, model in zip(hps, models):
            _assert_fit_matches(model, reference_fit(
                data.X_train, data.y_train, momentum=hp.momentum,
                learning_rate=hp.learning_rate, epochs=hp.epochs, l2=hp.l2,
                batch_size=batch_size, seed=5))


class TestEvaluateLD:
    def test_wide_separation_reaches_zero_error(self):
        data = make_toy_dataset(600, 2, seed=1, separation=4.0)
        model = train_toy_model(HyperParams(0.75, 0.1, 10, 2e-4), data)
        assert evaluate_L_D(model, data) == 0.0

    def test_error_percent_matches_confusion_error_rate(self):
        data = make_toy_dataset(600, 2, seed=0, separation=0.5)
        model = train_toy_model(HyperParams(0.75, 0.1, 10, 2e-4), data)
        pred = model.predict(data.X_test)
        cm = confusion(pred, data.y_test)
        assert evaluate_L_D(model, data) == pytest.approx(
            (1.0 - metrics(cm).accuracy) * 100.0, abs=1e-12)

    def test_empty_test_split_rejected(self):
        data = make_toy_dataset(100, 2, seed=0)
        from nlcmfo.hypertune import ToyDataset
        empty = ToyDataset(data.X_train, data.y_train,
                           data.X_test[:0], data.y_test[:0])
        model = train_toy_model(HyperParams(0.75, 0.1, 5, 2e-4), data)
        with pytest.raises(ValueError):
            evaluate_L_D(model, empty)


# ---------------------------------------------------------------------------
# the tuning loop
# ---------------------------------------------------------------------------

def quadratic(hp):
    return ((hp.momentum - 0.7) ** 2 + (hp.learning_rate - 0.3) ** 2
            + (hp.l2 - 3e-4) ** 2)


@pytest.fixture
def quadratic_training(monkeypatch):
    """Swap the toy classifier's training and scoring in ``tune`` for
    ``quadratic`` of the decoded HyperParams; returns the HyperParams
    trained, in order."""
    trained = []

    def train(hps, data, seed=0):
        trained.extend(hps)
        return list(hps)

    monkeypatch.setattr(hypertune, "train_toy_models", train)
    monkeypatch.setattr(hypertune, "evaluate_L_D",
                        lambda hp, data: quadratic(hp))
    return trained


class TestTune:
    def test_training_count_is_population_times_iterations_plus_one(
            self, quadratic_training):
        res = tune(EngineConfig(pop_size=5, max_iter=3, seed=0),
                   make_toy_dataset(40))
        assert res.trainings == 5 * (3 + 1)
        assert res.run_result.evaluations == res.trainings
        assert len(quadratic_training) == res.distinct_candidates

    def test_best_score_is_the_minimum_objective_seen(
            self, quadratic_training):
        res = tune(EngineConfig(pop_size=8, max_iter=5, seed=1),
                   make_toy_dataset(40))
        assert res.best_L_D == min(map(quadratic, quadratic_training))

    def test_best_hyperparams_decode_the_best_position(
            self, quadratic_training):
        res = tune(EngineConfig(pop_size=5, max_iter=3, seed=0),
                   make_toy_dataset(40))
        redecoded = decode_hyperparams(res.run_result.best_position)
        assert res.best_hyperparams == redecoded

    def test_quadratic_target_recovered_inside_the_box(
            self, quadratic_training):
        res = tune(EngineConfig(algorithm="mfo", pop_size=20, max_iter=40,
                                seed=0), make_toy_dataset(40))
        hp = res.best_hyperparams
        assert abs(hp.momentum - 0.7) < 0.05
        assert abs(hp.learning_rate - 0.3) < 0.05

    def test_same_seed_tune_runs_agree(self):
        data = make_toy_dataset(120, 2, seed=3)
        a = tune(config=EngineConfig(pop_size=6, max_iter=4, seed=2),
                 data=data)
        b = tune(config=EngineConfig(pop_size=6, max_iter=4, seed=2),
                 data=data)
        assert a.best_L_D == b.best_L_D
        assert a.best_hyperparams == b.best_hyperparams
        assert a.trainings == b.trainings

    def test_cli_defaults_give_the_pinned_result(self):
        # `nlcmfo tune` with no options: 600 samples, 2 features, data seed
        # 0, separation 1.0, nlcmfo with 30 moths for 20 iterations, seed 0,
        # trainer seed 0
        data = make_toy_dataset(600, 2, 0, 1.0)
        res = tune(EngineConfig(algorithm="nlcmfo", pop_size=30, max_iter=20,
                                seed=0), data, trainer_seed=0)
        assert res.trainings == 630
        assert res.best_L_D == 3.888888888888886
        assert res.best_hyperparams == HyperParams(
            momentum=0.9714687764414397, learning_rate=0.16500520466889407,
            epochs=12, l2=0.00015024123417307732)
        # nlcmfo's origin pull clips most moths onto the box's lower corner
        assert res.distinct_candidates == 132
        assert res.last_improvement == 1
        assert res.bound_hits.tolist() == [[597, 512, 598, 585], [2, 0, 0, 2]]

    def test_default_trainer_trains_each_distinct_candidate_once(
            self, monkeypatch):
        trained = []

        def counting(hps, data, seed=0):
            trained.extend(hps)
            return train_toy_models(hps, data, seed=seed)

        monkeypatch.setattr(hypertune, "train_toy_models", counting)
        res = tune(EngineConfig(pop_size=30, max_iter=20, seed=0),
                   make_toy_dataset(600, 2, 0, 1.0))
        assert res.trainings == 630
        assert len(trained) == len(set(trained)) == res.distinct_candidates
        assert len(trained) == 132

    def test_a_swarm_of_memoized_rows_makes_no_training_call(
            self, monkeypatch, quadratic_training):
        calls = []
        train = hypertune.train_toy_models

        def counting(hps, data, seed=0):
            calls.append(len(hps))
            return train(hps, data, seed)

        def evaluate_each_swarm_twice(config, space, objective):
            def twice(xs):
                first = objective(xs)
                made = len(calls)
                # every row of the repeat is memoized
                assert objective(xs).tobytes() == first.tobytes()
                assert len(calls) == made
                return first

            return run(config, space, twice)

        monkeypatch.setattr(hypertune, "train_toy_models", counting)
        monkeypatch.setattr(hypertune, "run", evaluate_each_swarm_twice)
        res = tune(EngineConfig(pop_size=5, max_iter=3, seed=0),
                   make_toy_dataset(40))
        assert sum(calls) == res.distinct_candidates == len(quadratic_training)
        assert 0 not in calls

    def test_memoized_default_equals_an_unmemoized_trainer(self):
        data = make_toy_dataset(600, 2, 0, 1.0)
        config = EngineConfig(pop_size=30, max_iter=20, seed=0)

        def objective(xs):  # trains on every evaluation
            return np.array([
                evaluate_L_D(train_toy_model(decode_hyperparams(x), data), data)
                for x in xs])

        memo = tune(config, data)
        plain = run(config, SearchSpace(HYPER_LB.copy(), HYPER_UB.copy()),
                    objective)
        assert memo.best_hyperparams == decode_hyperparams(plain.best_position)
        assert memo.best_L_D == plain.best_fitness
        assert memo.trainings == plain.evaluations
        for name in ("best_position", "convergence", "mean_fitness"):
            assert (getattr(memo.run_result, name).tobytes()
                    == getattr(plain, name).tobytes())

    def test_diagnostics_recount_from_the_evaluated_points(
            self, quadratic_training):
        res = tune(EngineConfig(algorithm="mfo", pop_size=8, max_iter=12,
                                seed=3, record_history=True),
                   make_toy_dataset(40))
        # each distinct candidate is trained once
        assert (res.distinct_candidates == len(quadratic_training)
                == len(set(quadratic_training)))
        # the start swarm is drawn inside the box, so only moves hit a bound
        history = res.run_result.history
        assert res.bound_hits.tolist() == [
            (history <= HYPER_LB).sum(axis=(0, 1)).tolist(),
            (history >= HYPER_UB).sum(axis=(0, 1)).tolist()]
        curve = res.run_result.convergence
        fell = [i + 1 for i in range(1, len(curve)) if curve[i] < curve[i - 1]]
        assert res.last_improvement == (fell[-1] if fell else 1)
        assert res.last_improvement > 1

    def test_tuned_hyperparams_respect_the_box(self):
        data = make_toy_dataset(120, 2, seed=3)
        res = tune(config=EngineConfig(pop_size=6, max_iter=4, seed=2),
                   data=data)
        hp = res.best_hyperparams
        assert HYPER_LB[0] <= hp.momentum <= HYPER_UB[0]
        assert HYPER_LB[1] <= hp.learning_rate <= HYPER_UB[1]
        assert 5 <= hp.epochs <= 15
        assert HYPER_LB[3] <= hp.l2 <= HYPER_UB[3]


# ---------------------------------------------------------------------------
# confusion counts and metrics
# ---------------------------------------------------------------------------

class TestConfusion:
    def test_counts_on_a_mixed_batch(self):
        preds = [1] * 305 + [0] * 37 + [1] * 16 + [0] * 336
        labels = [1] * 305 + [1] * 37 + [0] * 16 + [0] * 336
        cm = confusion(preds, labels)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (305, 37, 16, 336)
        assert cm.total == 694

    def test_perfect_predictions(self):
        labels = np.array([1, 0, 1, 1, 0])
        cm = confusion(labels, labels)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (3, 0, 0, 2)

    def test_inverted_predictions(self):
        labels = np.array([1, 0, 1, 1, 0])
        cm = confusion(1 - labels, labels)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (0, 3, 2, 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1, 0, 1])


class TestMetrics:
    def test_reference_counts_give_frozen_values(self):
        report = metrics(ConfusionCounts(305, 37, 16, 336))
        for name, want in FROZEN_METRICS.items():
            assert getattr(report, name) == pytest.approx(want, abs=1e-12)

    def test_as_dict_lists_the_six_metrics(self):
        # the metrics.csv rows, in order
        report = metrics(ConfusionCounts(305, 37, 16, 336))
        assert list(asdict(report)) == ["accuracy", "sensitivity",
                                        "specificity", "precision", "fpr",
                                        "f1"]

    def test_all_zero_counts_flag_every_metric(self):
        # every denominator is 0, so every metric reads 0.0
        report = metrics(ConfusionCounts(0, 0, 0, 0))
        assert asdict(report) == dict.fromkeys(asdict(report), 0.0)

    def test_no_predicted_positives_flags_precision(self):
        # precision's denominator is 0, so it and f1 read 0.0
        report = metrics(ConfusionCounts(0, 5, 0, 5))
        assert report.precision == 0.0
        assert report.f1 == 0.0
        assert report.sensitivity == 0.0
        assert report.specificity == 1.0

    def test_reference_error_rate_in_percent(self):
        cm = ConfusionCounts(tp=320, fn=30, fp=23, tn=321)
        assert (1.0 - metrics(cm).accuracy) * 100.0 == pytest.approx(
            7.636887608069164, abs=1e-12)

    @given(st.integers(1, 500), st.integers(0, 500),
           st.integers(0, 500), st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_f1_sits_between_precision_and_sensitivity(self, tp, fn, fp, tn):
        report = metrics(ConfusionCounts(tp, fn, fp, tn))
        p, r = report.precision, report.sensitivity
        if p > 0 and r > 0:
            assert min(p, r) - 1e-12 <= report.f1 <= max(p, r) + 1e-12


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------

class TestRoc:
    def test_curve_spans_origin_to_unit_corner(self):
        rng = np.random.default_rng(0)
        scores = rng.random(50)
        labels = (rng.random(50) > 0.5).astype(int)
        pts = roc_points(scores, labels)
        assert tuple(pts[0]) == (0.0, 0.0)
        assert tuple(pts[-1]) == (1.0, 1.0)
        d = np.diff(pts, axis=0)
        assert np.all(d >= 0)

    def test_perfect_separation_has_unit_area(self):
        labels = np.array([0, 0, 1, 1])
        pts = roc_points(np.array([0.1, 0.2, 0.8, 0.9]), labels)
        assert roc_auc(pts) == pytest.approx(1.0)
        assert any(p[0] == 0.0 and p[1] == 1.0 for p in pts)

    def test_labels_as_scores_give_unit_area(self):
        labels = np.array([0, 1, 0, 1, 1, 0])
        pts = roc_points(labels.astype(float), labels)
        assert roc_auc(pts) == pytest.approx(1.0)

    def test_constant_scores_give_half_area(self):
        labels = np.array([0, 1, 0, 1])
        pts = roc_points(np.full(4, 0.5), labels)
        assert roc_auc(pts) == pytest.approx(0.5)

    def test_random_scores_give_half_area(self):
        rng = np.random.default_rng(0)
        scores = rng.random(10_000)
        labels = (rng.random(10_000) > 0.5).astype(int)
        auc = roc_auc(roc_points(scores, labels))
        assert abs(auc - 0.5) < 0.02

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_points([0.1, 0.9], [1, 1])
        with pytest.raises(ValueError):
            roc_points([0.1, 0.9], [0, 0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            roc_points([0.1, 0.9, 0.5], [1, 0])

    def test_flipped_scores_mirror_the_area(self):
        rng = np.random.default_rng(2)
        scores = rng.random(200)
        labels = (scores + rng.normal(0, 0.3, 200) > 0.5).astype(int)
        if labels.min() == labels.max():
            pytest.skip("degenerate draw")
        auc = roc_auc(roc_points(scores, labels))
        auc_flip = roc_auc(roc_points(-scores, labels))
        assert auc + auc_flip == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

class TestPersistence:
    def test_model_round_trip_is_bitwise(self, tmp_path):
        data = make_toy_dataset(100, 2, seed=0)
        model = train_toy_model(HyperParams(0.8, 0.1, 8, 2e-4), data)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights_, model.weights_)
        assert loaded.bias_ == model.bias_
        assert loaded.diverged_ == model.diverged_

    def test_diverged_flag_survives_the_round_trip(self, tmp_path):
        data = make_toy_dataset(100, 2, seed=0)
        model = train_toy_model(HyperParams(0.9, 1e9, 5, 1e-4), data, seed=0)
        assert model.diverged_
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert load_model(path).diverged_

    def test_unknown_model_file_key_raises(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("diverged 0\nbias 0.0\nmystery 3.0\n")
        with pytest.raises(ValueError):
            load_model(path)

    def test_dataset_round_trip_is_bitwise(self, tmp_path):
        data = make_toy_dataset(60, 3, seed=8, separation=1.5)
        path = tmp_path / "dataset.csv"
        export_dataset(data, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "x2", "x3", "y", "split"]
        # each feature is the repr of its float, so float() reads it back
        loaded = {tag: [[float(v) for v in row[:-1]] for row in rows[1:]
                        if row[-1] == tag] for tag in ("train", "test")}
        train, test = np.array(loaded["train"]), np.array(loaded["test"])
        assert np.array_equal(train[:, :-1], data.X_train)
        assert np.array_equal(train[:, -1], data.y_train)
        assert np.array_equal(test[:, :-1], data.X_test)
        assert np.array_equal(test[:, -1], data.y_test)

    def test_loaded_model_predicts_like_the_original(self, tmp_path):
        data = make_toy_dataset(100, 2, seed=0, separation=2.0)
        model = train_toy_model(HyperParams(0.8, 0.1, 8, 2e-4), data)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.predict(data.X_test),
                              model.predict(data.X_test))
