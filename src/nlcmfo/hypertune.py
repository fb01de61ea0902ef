"""Hyperparameter tuning of a small gradient-trained classifier.

The tunable object is a logistic classifier trained by minibatch SGD with
momentum.  Four hyperparameters are searched over a fixed box:

    index 0  momentum        [0.5, 1.0]
    index 1  learning rate   [0.01, 0.5]
    index 2  epochs          [5, 15]     (rounded to an integer)
    index 3  L2 penalty      [1e-4, 5e-4]

The tuning objective is the detection error L_D = (1 - test accuracy) * 100,
i.e. the misclassification rate in percent; a diverged training run scores
the worst possible 100.  The optimizer sees a swarm objective: it decodes
every row of the swarm, trains the candidates it has not scored yet in one
lockstep batch and returns every row's L_D.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

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


def _logistic_grad(X, y, w, b, l2):
    """Gradients (grad_w, grad_b) of mean cross-entropy + 0.5*l2*|w|^2.

    One row per member: ``w`` is (K, p), ``b`` and ``l2`` are (K, 1).
    """
    # one gemv per member on its C-contiguous row, as a lone member would
    # make it: a single (m, p) @ (p, K) gemm may sum in another order
    resid = _sigmoid(np.array([X @ wi for wi in w]) + b) - y
    m = X.shape[0]
    Xt = X.T
    # add.reduce / m is np.mean's arithmetic without its Python-level
    # wrapper; it sums each C-contiguous row as it sums a lone vector
    return (np.array([Xt @ r for r in resid]) / m + l2 * w,
            np.add.reduce(resid, axis=1, keepdims=True) / m)


# rows per SGD minibatch; the last batch of an epoch may be shorter
_BATCH_SIZE = 32


def _fit_lockstep(models, X, y, seed: int) -> None:
    """Train ``models`` on (X, y) together, one member per classifier.

    Every member draws the same permutation per epoch from ``seed``, so one
    generator shuffles for all, and each step's elementwise work runs over
    the (K, ...) arrays of the members still training.  A member leaves at
    the end of an epoch, when its epochs run out or its weights blew up; it
    keeps the weights of that epoch's end.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    rng = make_rng(seed)
    live = list(models)
    # columns, so they scale each member's row
    momentum, lr, l2 = (np.array([[getattr(model, name)] for model in live])
                        for name in ("momentum", "learning_rate", "l2"))
    epochs = np.array([model.epochs for model in live])
    w = np.zeros((len(live), p))
    vw = np.zeros((len(live), p))
    b = np.zeros((len(live), 1))
    vb = np.zeros((len(live), 1))
    diverged = np.zeros(len(live), dtype=bool)
    epoch = 0
    while True:
        leave = diverged | (epochs == epoch)
        for i in np.flatnonzero(leave):
            live[i].weights_ = w[i].copy()
            live[i].bias_ = float(b[i, 0])
            live[i].diverged_ = bool(diverged[i])
        stay = ~leave
        live = [model for model, kept in zip(live, stay) if kept]
        if not live:
            return
        momentum, lr, l2, epochs, w, vw, b, vb = (
            a[stay] for a in (momentum, lr, l2, epochs, w, vw, b, vb))
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
        epoch += 1
        diverged = ~np.isfinite(w).all(axis=1) | (np.abs(w).max(axis=1) > 1e6)


class ToyLogisticClassifier:
    """Logistic regression trained by minibatch SGD with momentum.

    Each epoch draws one permutation of the rows from the seeded generator
    and walks the shuffled copy in batches of 32 rows (the last may be
    shorter).  Update rule per batch: v <- momentum*v - lr*grad; params += v.
    Weights and bias start at zero.  If the weights blow up the run is
    flagged diverged and training stops early.
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

    def fit(self, X, y):
        _fit_lockstep([self], X, y, self.seed)
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.weights_ is None:
            raise RuntimeError("classifier is not fitted")
        return _sigmoid(np.asarray(X, dtype=np.float64) @ self.weights_ + self.bias_)

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)


def train_toy_models(hps, data: ToyDataset, seed: int = 0) -> list:
    """One classifier per HyperParams in ``hps``, each trained on ``data``
    with trainer seed ``seed``; all of them train in one lockstep batch."""
    models = [ToyLogisticClassifier(
        momentum=hp.momentum, learning_rate=hp.learning_rate,
        epochs=hp.epochs, l2=hp.l2, seed=seed) for hp in hps]
    _fit_lockstep(models, data.X_train, data.y_train, seed)
    return models


def train_toy_model(hp: HyperParams, data: ToyDataset,
                    seed: int = 0) -> ToyLogisticClassifier:
    return train_toy_models([hp], data, seed)[0]


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

    ``trainings`` counts objective evaluations, n*(T+1), though ``tune``
    trains only each distinct candidate once.  The diagnostics:
    ``distinct_candidates`` is the number of distinct decoded HyperParams
    evaluated, i.e. the trainings actually run; ``bound_hits[0, j]`` /
    ``bound_hits[1, j]`` count the evaluated points whose coordinate j sits
    on the box's lower / upper bound; ``last_improvement`` is the 1-based
    iteration at which the convergence curve last fell (1 when the best was
    found by iteration 1, start swarm included).
    """

    best_hyperparams: HyperParams
    best_L_D: float
    trainings: int
    run_result: RunResult
    distinct_candidates: int
    bound_hits: np.ndarray
    last_improvement: int


def tune(config: EngineConfig, data: ToyDataset,
         trainer_seed: int = 0) -> TuneResult:
    """Search the hyperparameter box by minimizing the toy classifier's L_D.

    Every candidate is trained on ``data`` with the same ``trainer_seed``,
    so the objective is a pure function of the decoded HyperParams: each
    distinct candidate is trained once per call and its stored score is
    returned on every repeat.  The candidates a swarm brings that are not
    scored yet train together in one ``train_toy_models`` batch.  A
    population of n for T iterations costs n*(T+1) evaluations.
    """
    space = SearchSpace(HYPER_LB.copy(), HYPER_UB.copy())
    scores = {}
    bound_hits = np.zeros((2, len(HYPER_LB)), dtype=np.int64)

    def objective(xs):
        hps = [decode_hyperparams(x) for x in xs]
        bound_hits[0] += np.sum(xs <= HYPER_LB, axis=0)
        bound_hits[1] += np.sum(xs >= HYPER_UB, axis=0)
        # dict keys keep the first-seen row order
        new = list(dict.fromkeys(hp for hp in hps if hp not in scores))
        if new:
            for hp, model in zip(new, train_toy_models(new, data,
                                                       seed=trainer_seed)):
                scores[hp] = evaluate_L_D(model, data)
        return np.array([scores[hp] for hp in hps])

    objective.vectorized = True
    result = run(config, space, objective)
    best = decode_hyperparams(result.best_position)
    # the curve never rises, so the entries above its final value are the
    # iterations before the last improvement
    last = np.count_nonzero(result.convergence > result.convergence[-1]) + 1
    return TuneResult(best, result.best_fitness, result.evaluations, result,
                      len(scores), bound_hits, last)


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


def metrics(cm: ConfusionCounts) -> MetricsReport:
    """Standard binary metrics as fractions in [0, 1].

    f1 is the harmonic mean of precision and sensitivity.  Any metric whose
    denominator is zero is reported as 0.0 rather than raising.
    """
    def ratio(num, den):
        return 0.0 if den == 0 else num / den

    accuracy = ratio(cm.tp + cm.tn, cm.total)
    sensitivity = ratio(cm.tp, cm.tp + cm.fn)
    specificity = ratio(cm.tn, cm.tn + cm.fp)
    precision = ratio(cm.tp, cm.tp + cm.fp)
    fpr = ratio(cm.fp, cm.fp + cm.tn)
    f1 = ratio(2.0 * precision * sensitivity, precision + sensitivity)
    return MetricsReport(accuracy, sensitivity, specificity, precision, fpr, f1)


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
