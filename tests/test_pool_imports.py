"""The process and thread pools load their modules only when one starts,
and the search-history value kernel only when a history is written.

Each case does its work in a fresh interpreter, which imports ``nlcmfo``
and ``nlcmfo.cli`` and reports which of those modules it loaded; the pooled
cases compare its output with a reference made in this process.
"""

import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import nlcmfo
from nlcmfo import harness, stochastic
from nlcmfo.cli import main

LAZY_MODULES = ("multiprocessing", "concurrent.futures.process",
                "concurrent.futures.thread", "nlcmfo._shortrepr")


def lazy_modules_loaded(code, cwd):
    """Run ``code`` in a fresh interpreter in ``cwd``; return the
    LAZY_MODULES in its ``sys.modules`` at the end."""
    script = "\n".join([
        "import json, sys",
        "import nlcmfo, nlcmfo.cli",
        "from nlcmfo.cli import main",
        textwrap.dedent(code),
        f"print(json.dumps([m for m in {LAZY_MODULES!r} "
        "if m in sys.modules]))",
    ])
    src = str(Path(nlcmfo.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def without_runtimes(path):
    """A CSV's rows without its wall-clock columns."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if "runtime" not in name]
    return [[row[i] for i in keep] for row in rows]


def assert_same_bundle(serial, other):
    """Equal tables but for runtimes, and byte-equal curve files."""
    for name in ("finals.csv", "stats_full.csv"):
        assert without_runtimes(other / name) == without_runtimes(serial / name)
    curves = sorted(p.name for p in (serial / "curves").iterdir())
    assert curves == sorted(p.name for p in (other / "curves").iterdir())
    for name in curves:
        assert ((other / "curves" / name).read_bytes()
                == (serial / "curves" / name).read_bytes())


def test_serial_commands_load_no_pool_module(tmp_path):
    loaded = lazy_modules_loaded("""
        grid = ["--algorithms", "mfo", "nlcmfo", "pso", "gwo", "--functions",
                "F1", "F10", "--dim", "30", "--runs", "2", "--max-iter", "10"]
        assert main(["bench", *grid, "--out", "grid"]) == 0
        assert main(["tune", "--pop-size", "5", "--max-iter", "2",
                     "--out", "tune"]) == 0
        assert main(["eval", "F1", "1", "2"]) == 0
    """, tmp_path)
    assert loaded == []
    assert (tmp_path / "grid" / "finals.csv").is_file()


def test_serial_history_writes_load_only_the_kernel(tmp_path):
    loaded = lazy_modules_loaded("""
        assert main(["bench", "--algorithms", "mfo", "--functions", "F1",
                     "--dim", "30", "--runs", "2", "--max-iter", "10",
                     "--telemetry", "curves", "--out", "grid"]) == 0
        assert "nlcmfo._shortrepr" not in sys.modules
        assert main(["diag", "--pop-size", "5", "--max-iter", "5",
                     "--out", "diag"]) == 0
    """, tmp_path)
    assert loaded == ["nlcmfo._shortrepr"]
    assert (tmp_path / "grid" / "curves").is_dir()
    assert (tmp_path / "diag" / "search_history.csv").is_file()


class TestPoolsStillStart:
    """Each pool loads its modules as it starts and gives the serial bytes."""

    def test_two_worker_grid(self, tmp_path, capsys):
        grid = ["--algorithms", "mfo", "pso", "--functions", "F1", "--dim",
                "30", "--runs", "2", "--max-iter", "10", "--telemetry",
                "curves"]
        loaded = lazy_modules_loaded(f"""
            assert main(["bench", *{grid!r}, "--workers", "2",
                         "--out", "pooled"]) == 0
        """, tmp_path)
        assert {"multiprocessing", "concurrent.futures.process"} <= set(loaded)
        assert main(["bench", *grid, "--out", str(tmp_path / "serial")]) == 0
        capsys.readouterr()
        assert_same_bundle(tmp_path / "serial", tmp_path / "pooled")

    def test_draw_thread_of_a_d1100_run(self, tmp_path, monkeypatch, capsys):
        grid = ["--algorithms", "nlcmfo", "--functions", "F1", "--dim",
                "1100", "--runs", "1", "--max-iter", "4", "--telemetry",
                "curves"]
        loaded = lazy_modules_loaded(f"""
            assert main(["bench", *{grid!r}, "--out", "ahead"]) == 0
        """, tmp_path)
        assert loaded == ["concurrent.futures.thread"]
        # the same run with every block drawn inline
        monkeypatch.setattr(stochastic, "AHEAD_MIN_VALUES", 1 << 62)
        assert main(["bench", *grid, "--out", str(tmp_path / "inline")]) == 0
        capsys.readouterr()
        assert_same_bundle(tmp_path / "inline", tmp_path / "ahead")

    def test_pooled_history_export(self, tmp_path, monkeypatch, capsys):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no os.sched_getaffinity, so no pool")
        assert 2 * 60 * 30 * 30 >= harness.POOL_MIN_VALUES
        grid = ["--algorithms", "mfo", "--functions", "F1", "--dim", "30",
                "--runs", "2", "--max-iter", "60", "--telemetry",
                "full-history"]
        loaded = lazy_modules_loaded(f"""
            import os
            os.sched_getaffinity = lambda pid: {{0, 1}}
            assert main(["bench", *{grid!r}, "--out", "pooled"]) == 0
        """, tmp_path)
        assert {"multiprocessing", "concurrent.futures.process"} <= set(loaded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["bench", *grid, "--out", str(tmp_path / "serial")]) == 0
        capsys.readouterr()
        assert_same_bundle(tmp_path / "serial", tmp_path / "pooled")
        assert len(list((tmp_path / "pooled" / "curves")
                        .glob("*_search_history.csv"))) == 2
