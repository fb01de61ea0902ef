"""Fixtures shared by several test modules."""

import csv

import pytest


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
