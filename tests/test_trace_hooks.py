"""perfbench's tracer finds every name it wraps in the package.

The tracer (``perfbench/tracing.py``) patches module and class attributes
by name, so a removed or renamed one crashes every traced benchmark pass.
Here a serial grid of all four algorithms runs under it, with the
tracer's own target list.
"""

import importlib.util
from pathlib import Path

from nlcmfo import harness

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
RUN_NAMES = ("engine.run", "baselines.run_pso", "baselines.run_gwo")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    targets = tracing.nlcmfo_targets(tracer)
    originals = [(owner, attribute, getattr(owner, attribute))
                 for owners, attribute, _, _ in targets for owner in owners]
    try:
        tracer.install(targets)
        result = harness.run_experiment(harness.ExperimentConfig(
            algorithms=("mfo", "nlcmfo", "pso", "gwo"), functions=("F1",),
            dim=2, runs=2, pop_size=4, max_iter=3))
    finally:
        tracer.uninstall()
    assert not any(rec.aborted for rec in result.records)
    # mfo and nlcmfo run through engine.run, each baseline through its name
    assert [tracer.calls(name) for name in RUN_NAMES] == [4, 2, 2]
    assert sum(tracer.names[n] in RUN_NAMES for n in tracer.span_name) == 8
    for owner, attribute, original in originals:
        assert getattr(owner, attribute) is original
