"""Names perfbench's tracer wraps in this module, kept for it alone.

The pso and gwo searches live in ``engine`` with mfo and nlcmfo, and every
run goes through ``engine.run``.  ``run_pso`` and ``run_gwo`` are that
function under the names the tracer times each baseline's runs by, and
``harness`` calls its per-run pso and gwo runs through them (a lockstep
chunk's runs go through ``engine.drive_lockstep``); ``evaluate_swarm`` is
bound here because the tracer wraps this module's name too.  This module
and the harness's routing go once the tracer's run hook moves to
``engine.drive`` (ROADMAP item 18).
"""

from .engine import evaluate_swarm, run  # noqa: F401

run_pso = run_gwo = run
