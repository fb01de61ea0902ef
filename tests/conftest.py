"""Fixtures shared by several test modules."""

import csv

import numpy as np
import pytest

from nlcmfo.stochastic import make_rng


@pytest.fixture
def reference_history_writer():
    """The one-csv.writer-row-per-value history writer, kept as the byte
    reference for ``harness.write_search_history``."""
    def write(history, path):
        n_iter, n_moths, d = history.shape
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "moth", "dim", "value"])
            for l in range(n_iter):
                for m in range(n_moths):
                    for j in range(d):
                        writer.writerow(
                            [l + 1, m, j + 1, repr(float(history[l, m, j]))])
    return write


@pytest.fixture
def reference_fit():
    """The fancy-indexed, loss-and-gradient minibatch loop, kept as the byte
    reference for ``hypertune.ToyLogisticClassifier.fit``.

    Takes the classifier's constructor arguments and the training split and
    returns ``(weights, bias, diverged, train_losses)``.  Its sigmoid and
    loss are written out here (``np.clip``, ``np.mean``) so a change to the
    package's helpers cannot move the reference with it.
    """
    def loss_grad(w, b, X, y, l2):
        z = X @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
        ce = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
        loss = float(np.mean(ce) + 0.5 * l2 * np.dot(w, w))
        resid = p - y
        return loss, X.T @ resid / len(y) + l2 * w, float(np.mean(resid))

    def fit(X, y, momentum, learning_rate, epochs, l2, batch_size, seed):
        n, p = X.shape
        rng = make_rng(seed)
        w = np.zeros(p)
        b = 0.0
        vw = np.zeros(p)
        vb = 0.0
        diverged = False
        losses = []
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                _, gw, gb = loss_grad(w, b, X[idx], y[idx], l2)
                vw = momentum * vw - learning_rate * gw
                vb = momentum * vb - learning_rate * gb
                w = w + vw
                b = b + vb
            if not np.all(np.isfinite(w)) or np.abs(w).max() > 1e6:
                diverged = True
                break
            losses.append(loss_grad(w, b, X, y, l2)[0])
        return w, b, diverged, losses
    return fit
