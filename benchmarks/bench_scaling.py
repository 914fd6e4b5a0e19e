"""Solver-core scaling: flat vs object at 10x/100x figure-13 size.

The flat CSR core's pitch is that its advantage *grows* with the graph:
per-solve setup amortizes away and the per-visit savings (no edge
objects, no attribute reads, sweep+pocket scheduling) compound.  This
bench scales the figure-13 gcc row (scale 0.25, ~10k PSG nodes) to
``REPRO_BENCH_SCALING_FACTORS`` times its node count (default
``10,100``; CI runs the 10x point only) and records, per core:

* best-of-``REPRO_BENCH_SCALING_REPS`` phase-1+2 wall seconds, timed
  with the collector disabled (GC pauses inside a phase otherwise add
  up to ±30% noise at these durations);
* total solver iterations (identical across cores: the flat core pops
  in exactly the object core's priority order);
* process peak RSS from ``resource.getrusage``, normalized to MB
  (``ru_maxrss`` is kibibytes on Linux but *bytes* on macOS; the
  record carries the unit explicitly).  Factors run in ascending
  order, so the high-water mark is attributable to the largest graph
  analyzed so far.

All cores solve the *same* built PSG — the pipeline runs once per
factor and only the phases are re-timed, which is both faster and a
cleaner comparison (identical front-end work, identical seed orders).

``REPRO_BENCH_REQUIRE_SPEEDUP=1`` turns the headline expectations into
assertion: flat completes both phases >= 2x faster than the object
core on the gcc shape.
"""

import gc
import os
import resource
import sys
import time

import pytest

from benchmarks.conftest import record
from repro.api import AnalysisSession
from repro.dataflow.regset import mask_of
from repro.interproc.analysis import AnalysisConfig, node_seed_order
from repro.interproc.phase1 import run_phase1
from repro.interproc.phase2 import run_phase2
from repro.workloads.generator import GeneratorConfig, generate_benchmark

#: The figure-13 gcc row this bench scales up from.
BASE_SCALE = 0.25

FACTORS = sorted(
    int(token)
    for token in os.environ.get(
        "REPRO_BENCH_SCALING_FACTORS", "10,100"
    ).split(",")
    if token.strip()
)
REPS = int(os.environ.get("REPRO_BENCH_SCALING_REPS", "3"))
REQUIRE_SPEEDUP = os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP") == "1"

CORES = ("flat", "object")

HEADERS = (
    "Factor",
    "gcc scale",
    "PSG Nodes",
    "Core",
    "Phase 1+2 (s)",
    "Iterations",
    "Peak RSS (MB)",
    "RSS unit",
)

#: ``ru_maxrss`` has no portable unit: Linux reports kibibytes, macOS
#: reports bytes (BSD heritage).  Normalize to MB at the source and
#: carry the unit in the record so readers can trust the column.
_RU_MAXRSS_PER_MB = 1024 * 1024 if sys.platform == "darwin" else 1024


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _RU_MAXRSS_PER_MB


def _solve_phases(analysis, core, orders):
    """Re-run both phases on the already-built PSG; returns (seconds,
    total iterations).  Mask vectors are per-solve state, so repeated
    solves are independent; the flat core's arena is cached on the PSG
    (lowered outside the timed region by the warm-up pass)."""
    phase1_order, phase2_order = orders
    config = analysis.config
    preserved = mask_of(
        {config.convention.stack_pointer, config.convention.global_pointer}
    )
    started = time.perf_counter()
    phase1 = run_phase1(
        analysis.psg,
        analysis.saved_restored,
        preserved,
        phase1_order,
        core=core,
    )
    phase2 = run_phase2(
        analysis.psg,
        analysis.call_graph.externally_callable,
        config.convention,
        phase2_order,
        core=core,
    )
    seconds = time.perf_counter() - started
    return seconds, phase1.iterations + phase2.iterations


@pytest.mark.parametrize("factor", FACTORS)
def test_scaling_point(factor):
    scale = BASE_SCALE * factor
    program, _shape = generate_benchmark(
        "gcc", scale=scale, config=GeneratorConfig(seed=0)
    )
    analysis = AnalysisSession.from_program(
        program, config=AnalysisConfig()
    ).analyze()
    callee_first = analysis.call_graph.reverse_topological_order()
    orders = (
        node_seed_order(analysis.psg, callee_first),
        node_seed_order(analysis.psg, list(reversed(callee_first))),
    )

    iterations = {}
    for core in CORES:  # warm-up: lowers the arena, touches the state
        _seconds, iterations[core] = _solve_phases(analysis, core, orders)

    best = {core: float("inf") for core in CORES}
    gc.collect()
    gc.disable()
    try:
        # Interleaved best-of-REPS: machine noise hits all cores alike
        # within a rep, and the minimum discards the noisy samples.
        for _rep in range(REPS):
            for core in CORES:
                seconds, _iters = _solve_phases(analysis, core, orders)
                if seconds < best[core]:
                    best[core] = seconds
    finally:
        gc.enable()

    node_count = len(analysis.psg.nodes)
    peak_rss_mb = _peak_rss_mb()
    for core in CORES:
        record(
            "Scaling: solver cores at 10x/100x the figure-13 gcc row"
            " (phase solve time only; one shared PSG per factor)",
            HEADERS,
            (
                factor,
                scale,
                node_count,
                core,
                best[core],
                iterations[core],
                round(peak_rss_mb, 1),
                "MB",
            ),
        )

    speedup = best["object"] / best["flat"]
    if REQUIRE_SPEEDUP:
        assert speedup >= 2.0, (
            f"flat core {speedup:.2f}x over object at factor {factor}; "
            f"expected >= 2x (flat {best['flat']:.3f}s, "
            f"object {best['object']:.3f}s)"
        )
