"""Hyperparameter tuning of a small gradient-trained classifier.

The tunable object is a logistic classifier trained by minibatch SGD with
momentum.  ``HyperParams`` is the training recipe; ``train_toy_models`` is
the one trainer, and the ``ToyLogisticClassifier`` it returns is the fitted
model alone (weights, bias and a divergence flag).  Four hyperparameters are
searched over a fixed box:

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

import math
from dataclasses import dataclass

import numpy as np

from .engine import EngineConfig, RunResult, run
from .harness import write_table
from .space import SearchSpace
from .stochastic import check_count, make_rng

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
    return _decode(x[None])[0]


def _decode(xs) -> list:
    """``decode_hyperparams`` of each row of an (n, 4) swarm, in one clip."""
    return [HyperParams(m, lr, math.floor(e + 0.5), l2)
            for m, lr, e, l2 in np.clip(xs, HYPER_LB, HYPER_UB).tolist()]


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
    A random permutation assigns the first 70% of rows to the train split;
    a test split that draws a single class is a ValueError.
    """
    check_count("n_samples", n_samples, 40)
    check_count("n_features", n_features, 2)
    # a NaN or infinite mean gives non-finite rows, on which every
    # candidate diverges and the tuned L_D is meaningless
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")
    rng = make_rng(seed, name="data_seed")
    n1 = n_samples // 2
    n0 = n_samples - n1
    X = rng.standard_normal((n_samples, n_features))
    X[:n0] -= separation
    X[n0:] += separation
    y = np.concatenate([np.zeros(n0), np.ones(n1)])
    order = rng.permutation(n_samples)
    X, y = X[order], y[order]
    n_train = int(round(0.7 * n_samples))
    # tune's ROC report needs both classes in the test split (np.unique
    # would do, but its first call costs 1.7 MB of peak memory)
    if y[n_train:].min() == y[n_train:].max():
        raise ValueError(f"the test split of {n_samples} samples with data "
                         f"seed {seed} holds a single class")
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
    # np.matmul(A, B[:, :, None]) makes one gemv per member, as its lone
    # X @ wi and X.T @ r do, so each row keeps their bytes (a gemm does not)
    resid = _sigmoid(np.matmul(X, w[:, :, None])[:, :, 0] + b) - y
    # add.reduce / len(X) is np.mean's arithmetic without its Python-level
    # wrapper; it sums each C-contiguous row as it sums a lone vector
    return (np.matmul(X.T, resid[:, :, None])[:, :, 0] / len(X) + l2 * w,
            np.add.reduce(resid, axis=1, keepdims=True) / len(X))


@dataclass
class ToyLogisticClassifier:
    """A logistic classifier fitted by ``train_toy_models``.

    P(y=1 | x) = sigmoid(x @ weights_ + bias_); ``diverged_`` flags a
    training run whose weights blew up, which ``evaluate_L_D`` scores 100.
    """

    weights_: np.ndarray
    bias_: float
    diverged_: bool = False

    def predict_proba(self, X) -> np.ndarray:
        return _sigmoid(np.asarray(X, dtype=np.float64) @ self.weights_ + self.bias_)

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)


# rows per SGD minibatch; the last batch of an epoch may be shorter
_BATCH_SIZE = 32


# a blown-up training overflows in matmul; ``diverged_`` reports it, so
# numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train_toy_models(hps, data: ToyDataset, seed: int = 0) -> list:
    """One classifier per HyperParams in ``hps``, in input order, each
    trained on ``data``'s train split by minibatch SGD with momentum.

    Weights and bias start at zero.  Each epoch draws one permutation of the
    rows from ``make_rng(seed)`` and walks the shuffled copy in batches of
    32 rows (the last may be shorter).  Update rule per batch:
    v <- momentum*v - lr*grad; params += v.

    Every member draws the same permutation, so one generator shuffles for
    all, and each step's elementwise work runs over the (K, ...) arrays of
    the members still training.  A member leaves at the end of an epoch,
    when its epochs run out or its weights blew up (``diverged_``); it keeps
    the weights of that epoch's end.
    """
    # a float count would never equal the integer epoch counter
    epochs = np.array([int(hp.epochs) for hp in hps], dtype=np.int64)
    if np.any(epochs < 0):
        raise ValueError(f"epochs must be >= 0, got {epochs.min()}")
    X = np.asarray(data.X_train, dtype=np.float64)
    y = np.asarray(data.y_train, dtype=np.float64)
    n, p = X.shape
    k = len(hps)
    rng = make_rng(seed, name="trainer_seed")
    # columns, so they scale each member's row
    momentum = np.array([[hp.momentum] for hp in hps], dtype=np.float64)
    lr = np.array([[hp.learning_rate] for hp in hps], dtype=np.float64)
    l2 = np.array([[hp.l2] for hp in hps], dtype=np.float64)
    w = np.zeros((k, p))
    vw = np.zeros((k, p))
    b = np.zeros((k, 1))
    vb = np.zeros((k, 1))
    diverged = np.zeros(k, dtype=bool)
    # the position in ``hps`` of each member still training
    member = np.arange(k)
    models = [None] * k
    epoch = 0
    while True:
        leave = diverged | (epochs == epoch)
        for i in np.flatnonzero(leave):
            models[member[i]] = ToyLogisticClassifier(
                w[i].copy(), float(b[i, 0]), bool(diverged[i]))
        stay = ~leave
        member, momentum, lr, l2, epochs, w, vw, b, vb = (
            a[stay] for a in (member, momentum, lr, l2, epochs, w, vw, b, vb))
        if not member.size:
            return models
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


def train_toy_model(hp: HyperParams, data: ToyDataset,
                    seed: int = 0) -> ToyLogisticClassifier:
    return train_toy_models([hp], data, seed)[0]


def evaluate_L_D(model: ToyLogisticClassifier, data: ToyDataset) -> float:
    """Detection error in percent on the test split; diverged runs score 100."""
    if len(data.y_test) == 0:
        raise ValueError("test split is empty")
    if model.diverged_:
        return 100.0
    accuracy = float(np.mean(model.predict(data.X_test) == data.y_test))
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
    # the first training starts inside the run; check its seed before
    check_count("trainer_seed", trainer_seed, 0)
    space = SearchSpace(HYPER_LB.copy(), HYPER_UB.copy())
    scores = {}
    bound_hits = np.zeros((2, len(HYPER_LB)), dtype=np.int64)

    def objective(xs):
        hps = _decode(xs)
        bound_hits[0] += np.sum(xs <= HYPER_LB, axis=0)
        bound_hits[1] += np.sum(xs >= HYPER_UB, axis=0)
        # dict keys keep the first-seen row order
        new = list(dict.fromkeys(hp for hp in hps if hp not in scores))
        if new:
            for hp, model in zip(new, train_toy_models(new, data,
                                                       seed=trainer_seed)):
                scores[hp] = evaluate_L_D(model, data)
        return np.array([scores[hp] for hp in hps])

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
    lines = [f"diverged {int(model.diverged_)}", f"bias {float(model.bias_)!r}"]
    lines += [f"w {float(v)!r}" for v in model.weights_]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> ToyLogisticClassifier:
    diverged, bias, weights = False, 0.0, []
    with open(path) as fh:
        for line in fh:
            key, value = line.split()
            if key == "diverged":
                diverged = bool(int(value))
            elif key == "bias":
                bias = float(value)
            elif key == "w":
                weights.append(float(value))
            else:
                raise ValueError(f"unknown model file key {key!r}")
    return ToyLogisticClassifier(np.array(weights), bias, diverged)


def export_dataset(data: ToyDataset, path) -> None:
    """CSV with feature columns, the label and the train/test split tag."""
    header = [f"x{i + 1}" for i in range(data.n_features)] + ["y", "split"]
    write_table(path, header, (
        [repr(float(v)) for v in row] + [int(label), tag]
        for X, y, tag in ((data.X_train, data.y_train, "train"),
                          (data.X_test, data.y_test, "test"))
        for row, label in zip(X, y)))
