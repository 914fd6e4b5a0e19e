"""Ablations of the design choices DESIGN.md calls out.

Three ablations, each isolating one mechanism the paper (or this
reproduction) leans on:

* **per-edge vs batched labeling** — the paper labels each
  flow-summary edge by solving its own CFG subgraph; we default to one
  batched pass per routine shared across its targets.  Identical labels
  (asserted), different build cost.
* **§3.4 callee-saved filtering** — without it, every save/restore
  leaks into call-used/call-killed, destroying exactly the facts the
  Figure-1(c)/(d) optimizations need.
* **§3.5 call-target hints** — without them, hinted virtual dispatches
  fall back to the worst-case calling-standard assumptions.
"""

import pytest

from benchmarks.conftest import benchmark_program, record
from repro.dataflow.regset import RegisterSet
from repro.api import AnalysisConfig, AnalysisSession
from repro.psg.build import PsgConfig
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.shapes import shape_by_name

LABELING_BENCHMARKS = ["compress", "li", "go", "perl"]


@pytest.mark.parametrize("name", LABELING_BENCHMARKS)
def test_ablation_labeling_mode(benchmark, name):
    """Batched labeling (default) vs the paper-literal per-edge solve."""
    program, _scaled = benchmark_program(name)

    def run_both():
        fast = AnalysisSession.from_program(
            program, AnalysisConfig(psg=PsgConfig(per_edge_labeling=False))
        ).analyze()
        literal = AnalysisSession.from_program(
            program, AnalysisConfig(psg=PsgConfig(per_edge_labeling=True))
        ).analyze()
        return fast, literal

    fast, literal = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert fast.result.equal_summaries(literal.result)
    record(
        "Ablation A: flow-summary labeling strategy",
        ("Benchmark", "Batched build (s)", "Per-edge build (s)", "Slowdown"),
        (
            name,
            fast.timings.psg_build,
            literal.timings.psg_build,
            literal.timings.psg_build / max(fast.timings.psg_build, 1e-9),
        ),
        note="Identical edge labels are asserted; only build cost differs.",
    )


FILTER_BENCHMARKS = ["li", "perl", "maxeda"]


@pytest.mark.parametrize("name", FILTER_BENCHMARKS)
def test_ablation_callee_saved_filtering(benchmark, name):
    """§3.4 filtering: its effect on summary quality and optimization."""
    shape = shape_by_name(name).scaled(0.08)
    program = generate_program(shape, GeneratorConfig(seed=0))

    def run_both():
        with_filter = AnalysisSession.from_program(program).analyze()
        without = AnalysisSession.from_program(
            program, AnalysisConfig(callee_saved_filtering=False)
        ).analyze()
        return with_filter, without

    with_filter, without = benchmark.pedantic(run_both, rounds=1, iterations=1)

    def average_killed(analysis):
        sizes = [
            len(RegisterSet.from_mask(s.call_killed_mask))
            for s in analysis.result
        ]
        return sum(sizes) / max(1, len(sizes))

    # How many call sites still admit the Figure-1(c)/(d) precondition
    # (some caller-saved scratch register provably survives the call)?
    def survivable_sites(analysis):
        scratch = RegisterSet(["t3", "t8"]).mask
        count = 0
        for summary in analysis.result:
            for site in summary.call_sites:
                if site.killed_mask & scratch != scratch:
                    count += 1
        return count

    record(
        "Ablation B: §3.4 callee-saved filtering",
        (
            "Benchmark",
            "avg |call-killed| (on)",
            "avg |call-killed| (off)",
            "optimizable sites (on)",
            "optimizable sites (off)",
        ),
        (
            name,
            average_killed(with_filter),
            average_killed(without),
            survivable_sites(with_filter),
            survivable_sites(without),
        ),
    )
    # Filtering can only shrink the kill sets.
    assert average_killed(with_filter) <= average_killed(without)
    assert survivable_sites(with_filter) >= survivable_sites(without)


HINT_BENCHMARKS = ["go", "perl"]


@pytest.mark.parametrize("name", HINT_BENCHMARKS)
def test_ablation_call_target_hints(benchmark, name):
    """§3.5 hints: precision and optimization impact of target sets."""
    shape = shape_by_name(name).scaled(0.08)
    program = generate_program(
        shape, GeneratorConfig(seed=3, hinted_call_fraction=0.25)
    )
    assert program.call_target_hints, "workload must contain hinted calls"
    stripped = program
    import dataclasses

    stripped = dataclasses.replace(program, call_target_hints={})

    def run_both():
        hinted = AnalysisSession.from_program(program).optimize(verify=True)
        blind = AnalysisSession.from_program(stripped).optimize(verify=True)
        return hinted, blind

    hinted, blind = benchmark.pedantic(run_both, rounds=1, iterations=1)
    record(
        "Ablation C: §3.5 call-target hints",
        (
            "Benchmark",
            "hinted sites",
            "instr removed (hints)",
            "instr removed (no hints)",
            "dyn improvement % (hints)",
            "dyn improvement % (no hints)",
        ),
        (
            name,
            len(program.call_target_hints),
            hinted.instructions_removed,
            blind.instructions_removed,
            100 * hinted.dynamic_improvement,
            100 * blind.dynamic_improvement,
        ),
    )
    assert hinted.behaviour_preserved() and blind.behaviour_preserved()
    # Hints never make the optimizer do worse.
    assert hinted.instructions_removed >= blind.instructions_removed
