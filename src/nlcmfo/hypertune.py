"""Hyperparameter tuning of a small gradient-trained classifier.

The tunable object is a logistic classifier trained by minibatch SGD with
momentum.  Four hyperparameters are searched over a fixed box:

    index 0  momentum        [0.5, 1.0]
    index 1  learning rate   [0.01, 0.5]
    index 2  epochs          [5, 15]     (rounded to an integer)
    index 3  L2 penalty      [1e-4, 5e-4]

The tuning objective is the detection error L_D = (1 - test accuracy) * 100,
i.e. the misclassification rate in percent; a diverged training run scores
the worst possible 100.  The optimizer sees a plain 4-vector objective and
the trainer is pluggable, so anything that maps HyperParams to a score can
sit behind the same loop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .engine import EngineConfig, RunResult, run
from .harness import write_table
from .space import SearchSpace
from .stochastic import make_rng

HYPER_LB = np.array([0.5, 0.01, 5.0, 1e-4])
HYPER_UB = np.array([1.0, 0.5, 15.0, 5e-4])


@dataclass(frozen=True)
class HyperParams:
    momentum: float
    learning_rate: float
    epochs: int
    l2: float

    def as_dict(self) -> dict:
        return {
            "momentum": self.momentum,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "l2": self.l2,
        }


def decode_hyperparams(x) -> HyperParams:
    """Map a search-space point to concrete trainer settings.

    The epoch coordinate is continuous during the search and rounded half
    away from zero at decode time; every field is clamped to its bound so a
    decoded setting is always legal.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (4,):
        raise ValueError(f"hyperparameter vector must have shape (4,), got {x.shape}")
    clipped = np.clip(x, HYPER_LB, HYPER_UB)
    epochs = math.floor(clipped[2] + 0.5)
    return HyperParams(float(clipped[0]), float(clipped[1]), epochs,
                       float(clipped[3]))


# ---------------------------------------------------------------------------
# toy data
# ---------------------------------------------------------------------------

@dataclass
class ToyDataset:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray

    @property
    def n_features(self) -> int:
        return self.X_train.shape[1]


def make_toy_dataset(n_samples: int = 600, n_features: int = 2, seed: int = 0,
                     separation: float = 1.0) -> ToyDataset:
    """Two unit-variance Gaussian blobs with balanced labels.

    Class means sit at -separation and +separation on every axis, so the
    default overlap is moderate and large separations are near-separable.
    A random permutation assigns the first 70% of rows to the train split.
    """
    if n_samples < 40:
        raise ValueError("need at least 40 samples")
    if n_features < 2:
        raise ValueError("need at least 2 features")
    rng = make_rng(seed)
    n1 = n_samples // 2
    n0 = n_samples - n1
    X = rng.standard_normal((n_samples, n_features))
    X[:n0] -= separation
    X[n0:] += separation
    y = np.concatenate([np.zeros(n0), np.ones(n1)])
    order = rng.permutation(n_samples)
    X, y = X[order], y[order]
    n_train = int(round(0.7 * n_samples))
    return ToyDataset(X[:n_train], y[:n_train], X[n_train:], y[n_train:])


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------

def _sigmoid(z):
    # minimum(maximum()) is np.clip's arithmetic (NaN and -0.0 included)
    # without its Python-level wrapper, which dominates on minibatch rows
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -60.0), 60.0)))


def _logistic_loss(z, w, y, l2):
    """Mean cross-entropy of the logits z against y, + 0.5*l2*|w|^2."""
    # stable binary cross-entropy with logits
    ce = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(np.mean(ce) + 0.5 * l2 * np.dot(w, w))


def _logistic_grad(X, y, w, b, l2):
    """Gradient (grad_w, grad_b) of the regularized mean cross-entropy."""
    resid = _sigmoid(X @ w + b) - y
    m = len(resid)
    # add.reduce / m is np.mean's arithmetic without its Python-level wrapper
    return X.T @ resid / m + l2 * w, float(np.add.reduce(resid) / m)


def logistic_loss_grad(w, b, X, y, l2=0.0):
    """Mean cross-entropy + 0.5*l2*|w|^2 and its exact gradient.

    The penalty applies to the weights only, never the bias.  Exposed so the
    gradient SGD steps on can be checked against finite differences.
    """
    return (_logistic_loss(X @ w + b, w, y, l2), *_logistic_grad(X, y, w, b, l2))


# rows per SGD minibatch; the last batch of an epoch may be shorter
_BATCH_SIZE = 32


class ToyLogisticClassifier:
    """Logistic regression trained by minibatch SGD with momentum.

    Each epoch draws one permutation of the rows from the seeded generator
    and walks the shuffled copy in batches of 32 rows (the last may be
    shorter).  Update rule per batch: v <- momentum*v - lr*grad; params += v.
    Weights and bias start at zero.  If the weights blow up the run is
    flagged diverged and training stops early.  train_losses_ records the
    full-train regularized loss after each completed epoch.
    """

    def __init__(self, momentum: float = 0.9, learning_rate: float = 0.1,
                 epochs: int = 10, l2: float = 1e-4, seed: int = 0):
        self.momentum = float(momentum)
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.l2 = float(l2)
        self.seed = int(seed)
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        self.weights_: Optional[np.ndarray] = None
        self.bias_: float = 0.0
        self.diverged_: bool = False
        self.train_losses_: list = []

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, p = X.shape
        rng = make_rng(self.seed)
        momentum, lr, l2 = self.momentum, self.learning_rate, self.l2
        w = np.zeros(p)
        b = 0.0
        vw = np.zeros(p)
        vb = 0.0
        self.diverged_ = False
        self.train_losses_ = []
        for _ in range(self.epochs):
            order = rng.permutation(n)
            Xe, ye = X[order], y[order]
            for start in range(0, n, _BATCH_SIZE):
                batch = slice(start, start + _BATCH_SIZE)
                # contiguous slices with the rows of X[order[batch]]
                gw, gb = _logistic_grad(Xe[batch], ye[batch], w, b, l2)
                vw = momentum * vw - lr * gw
                vb = momentum * vb - lr * gb
                w = w + vw
                b = b + vb
            if not np.all(np.isfinite(w)) or np.abs(w).max() > 1e6:
                self.diverged_ = True
                break
            self.train_losses_.append(_logistic_loss(X @ w + b, w, y, l2))
        self.weights_ = w
        self.bias_ = b
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.weights_ is None:
            raise RuntimeError("classifier is not fitted")
        return _sigmoid(np.asarray(X, dtype=np.float64) @ self.weights_ + self.bias_)

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)


def train_toy_model(hp: HyperParams, data: ToyDataset,
                    seed: int = 0) -> ToyLogisticClassifier:
    model = ToyLogisticClassifier(
        momentum=hp.momentum, learning_rate=hp.learning_rate,
        epochs=hp.epochs, l2=hp.l2, seed=seed,
    )
    return model.fit(data.X_train, data.y_train)


def evaluate_L_D(model: ToyLogisticClassifier, data: ToyDataset) -> float:
    """Detection error in percent on the test split; diverged runs score 100."""
    if len(data.y_test) == 0:
        raise ValueError("test split is empty")
    if model.diverged_:
        return 100.0
    pred = model.predict(data.X_test)
    accuracy = float(np.mean(pred == data.y_test))
    return (1.0 - accuracy) * 100.0


# ---------------------------------------------------------------------------
# the tuning loop
# ---------------------------------------------------------------------------

@dataclass
class TuneResult:
    """Outcome of one ``tune`` call.

    ``trainings`` counts objective evaluations, n*(T+1), however many of
    them the default trainer served from its memo.  The diagnostics:
    ``distinct_candidates`` is the number of distinct decoded HyperParams
    evaluated; ``bound_hits[0, j]`` / ``bound_hits[1, j]`` count the
    evaluated points whose coordinate j sits on the box's lower / upper
    bound; ``last_improvement`` is the 1-based iteration at which the
    convergence curve last fell (1 when the best was found by iteration 1,
    start swarm included).
    """

    best_hyperparams: HyperParams
    best_L_D: float
    trainings: int
    run_result: RunResult
    distinct_candidates: int
    bound_hits: np.ndarray
    last_improvement: int


def tune(config: Optional[EngineConfig] = None,
         data: Optional[ToyDataset] = None,
         trainer_seed: int = 0,
         trainer: Optional[Callable[[HyperParams], float]] = None) -> TuneResult:
    """Search the hyperparameter box by minimizing the trainer's score.

    The default trainer fits the toy classifier on ``data`` with a fixed
    seed across all candidates, so the objective is a pure function of the
    decoded HyperParams: it trains each distinct candidate once per call
    and returns the stored score on every repeat.  Any callable
    HyperParams -> score can replace it; a custom trainer may be impure, so
    it is called on every evaluation.  Default budget is a population of 30
    for 20 iterations, which costs exactly 630 evaluations.
    """
    if trainer is None:
        if data is None:
            raise ValueError("tune needs a dataset when no trainer is given")
        scores = {}

        def trainer(hp: HyperParams) -> float:
            if hp not in scores:
                scores[hp] = evaluate_L_D(
                    train_toy_model(hp, data, seed=trainer_seed), data)
            return scores[hp]

    if config is None:
        config = EngineConfig(pop_size=30, max_iter=20, seed=0)
    space = SearchSpace(HYPER_LB.copy(), HYPER_UB.copy())
    candidates = set()
    bound_hits = np.zeros((2, len(HYPER_LB)), dtype=np.int64)

    def objective(x):
        hp = decode_hyperparams(x)
        candidates.add(hp)
        bound_hits[0] += x <= HYPER_LB
        bound_hits[1] += x >= HYPER_UB
        return float(trainer(hp))

    result = run(config, space, objective)
    best = decode_hyperparams(result.best_position)
    # the curve never rises, so the entries above its final value are the
    # iterations before the last improvement
    last = np.count_nonzero(result.convergence > result.convergence[-1]) + 1
    return TuneResult(best, result.best_fitness, result.evaluations, result,
                      len(candidates), bound_hits, last)


# ---------------------------------------------------------------------------
# evaluation metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


def confusion(preds, labels) -> ConfusionCounts:
    """Count tp/fn/fp/tn of binary predictions against labels.

    Label 1 is the positive class; everything else counts as negative.
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError("prediction and label arrays differ in shape")
    pred_pos = preds == 1
    label_pos = labels == 1
    tp = int(np.sum(pred_pos & label_pos))
    fn = int(np.sum(~pred_pos & label_pos))
    fp = int(np.sum(pred_pos & ~label_pos))
    tn = int(np.sum(~pred_pos & ~label_pos))
    return ConfusionCounts(tp, fn, fp, tn)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    fpr: float
    f1: float
    degenerate: tuple = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy, "sensitivity": self.sensitivity,
            "specificity": self.specificity, "precision": self.precision,
            "fpr": self.fpr, "f1": self.f1,
        }


def metrics(cm: ConfusionCounts) -> MetricsReport:
    """Standard binary metrics as fractions in [0, 1].

    f1 is the harmonic mean of precision and sensitivity.  Any metric whose
    denominator is zero is reported as 0.0 and its name is listed in
    ``degenerate`` rather than raising.
    """
    degenerate = []

    def ratio(num, den, name):
        if den == 0:
            degenerate.append(name)
            return 0.0
        return num / den

    accuracy = ratio(cm.tp + cm.tn, cm.total, "accuracy")
    sensitivity = ratio(cm.tp, cm.tp + cm.fn, "sensitivity")
    specificity = ratio(cm.tn, cm.tn + cm.fp, "specificity")
    precision = ratio(cm.tp, cm.tp + cm.fp, "precision")
    fpr = ratio(cm.fp, cm.fp + cm.tn, "fpr")
    f1 = ratio(2.0 * precision * sensitivity, precision + sensitivity, "f1")
    return MetricsReport(accuracy, sensitivity, specificity, precision, fpr,
                         f1, tuple(degenerate))


def roc_points(scores, labels) -> np.ndarray:
    """ROC curve as an array of (fpr, tpr) rows from (0,0) to (1,1).

    Thresholds sweep the distinct scores in descending order.  Needs both
    classes present, otherwise one of the rates is undefined.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels differ in shape")
    pos = int(np.sum(labels == 1))
    neg = int(np.sum(labels == 0))
    if pos == 0 or neg == 0:
        raise ValueError("ROC needs both classes present in the labels")
    order = np.argsort(-scores, kind="stable")
    y_sorted = labels[order]
    s_sorted = scores[order]
    tps = np.cumsum(y_sorted == 1)
    fps = np.cumsum(y_sorted == 0)
    # keep only the last index of each distinct score (threshold boundary)
    last = np.r_[np.nonzero(np.diff(s_sorted))[0], len(s_sorted) - 1]
    fpr = np.r_[0.0, fps[last] / neg]
    tpr = np.r_[0.0, tps[last] / pos]
    return np.column_stack([fpr, tpr])


def roc_auc(points: np.ndarray) -> float:
    """Area under an ROC polyline by the trapezoid rule."""
    points = np.asarray(points, dtype=np.float64)
    f, t = points[:, 0], points[:, 1]
    return float(np.sum(np.diff(f) * (t[1:] + t[:-1]) * 0.5))


# ---------------------------------------------------------------------------
# flat-file persistence
# ---------------------------------------------------------------------------

def save_model(model: ToyLogisticClassifier, path) -> None:
    """Plain-text model dump: one 'key value' pair per line, full precision."""
    if model.weights_ is None:
        raise RuntimeError("classifier is not fitted")
    lines = [f"diverged {int(model.diverged_)}", f"bias {float(model.bias_)!r}"]
    lines += [f"w {float(v)!r}" for v in model.weights_]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> ToyLogisticClassifier:
    model = ToyLogisticClassifier()
    weights = []
    with open(path) as fh:
        for line in fh:
            key, value = line.split()
            if key == "diverged":
                model.diverged_ = bool(int(value))
            elif key == "bias":
                model.bias_ = float(value)
            elif key == "w":
                weights.append(float(value))
            else:
                raise ValueError(f"unknown model file key {key!r}")
    model.weights_ = np.array(weights)
    return model


def export_dataset(data: ToyDataset, path) -> None:
    """CSV with feature columns, the label and the train/test split tag."""
    header = [f"x{i + 1}" for i in range(data.n_features)] + ["y", "split"]
    write_table(path, header, (
        [repr(float(v)) for v in row] + [int(label), tag]
        for X, y, tag in ((data.X_train, data.y_train, "train"),
                          (data.X_test, data.y_test, "test"))
        for row, label in zip(X, y)))


def import_dataset(path) -> ToyDataset:
    train_X, train_y, test_X, test_y = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        p = len(header) - 2
        for row in reader:
            feats = [float(v) for v in row[:p]]
            label = float(row[p])
            if row[p + 1] == "train":
                train_X.append(feats)
                train_y.append(label)
            else:
                test_X.append(feats)
                test_y.append(label)
    return ToyDataset(np.array(train_X), np.array(train_y),
                      np.array(test_X), np.array(test_y))
