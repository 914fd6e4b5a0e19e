"""Front-end fast path: batched flow-summary labeling.

``test_frontend_stage_times`` measures serial PSG-build time per
benchmark under the batched per-routine labeler (production) versus the
paper-literal per-edge labeler (one subgraph solve per flow-summary
edge).  Both strategies produce bit-identical flow-summary labels
(asserted here and by ``tests/test_psg.py``); the batched pass shares
boundary-cut structure and per-block transfer results across a
routine's targets, so its win grows with the number of call sites per
routine — winword (the call-heaviest PC shape) is the headline.  The
speedup expectation is asserted only under
``REPRO_BENCH_REQUIRE_SPEEDUP=1``.
"""

import os

import pytest

from benchmarks.conftest import benchmark_program, record
from repro.api import AnalysisConfig, AnalysisSession
from repro.interproc import dump_summaries
from repro.psg.build import PsgConfig

REQUIRE_SPEEDUP = os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP") == "1"

#: A mid-sized and the call-heaviest PC shape: where per-routine target
#: counts (and therefore shared-structure reuse) differ the most.
STAGE_BENCHMARKS = ["texim", "winword"]

STAGE_HEADERS = (
    "Benchmark",
    "Routines",
    "Per-edge PSG (s)",
    "Batched PSG (s)",
    "PSG speedup",
    "Per-edge total (s)",
    "Batched total (s)",
)


def _serial_timings(program, per_edge: bool):
    config = AnalysisConfig(psg=PsgConfig(per_edge_labeling=per_edge))
    analysis = AnalysisSession.from_program(program, config).analyze()
    return analysis.timings, dump_summaries(analysis.result)


@pytest.mark.parametrize("name", STAGE_BENCHMARKS)
def test_frontend_stage_times(benchmark, name):
    program, _shape = benchmark_program(name)

    def measure():
        per_edge, pe_blob = _serial_timings(program, per_edge=True)
        batched, b_blob = _serial_timings(program, per_edge=False)
        return per_edge, batched, pe_blob, b_blob

    per_edge, batched, pe_blob, b_blob = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    # Identical summaries are the equivalence contract, host-independent.
    assert pe_blob == b_blob

    speedup = per_edge.psg_build / max(batched.psg_build, 1e-9)
    record(
        "Frontend batched labeling: batched vs per-edge PSG build (serial)",
        STAGE_HEADERS,
        (
            name,
            program.routine_count,
            per_edge.psg_build,
            batched.psg_build,
            f"{speedup:.2f}x",
            per_edge.total,
            batched.total,
        ),
        note=(
            "labels verified bit-identical; the batched labeler solves "
            "each routine's boundary-cut regions in one reverse-topological "
            "pass shared across targets (worklist only inside loops)"
        ),
    )

    if REQUIRE_SPEEDUP and name == "winword":
        assert speedup >= 1.2, (
            f"expected a batched PSG-build win on winword, measured "
            f"{speedup:.2f}x"
        )
