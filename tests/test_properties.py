"""Property-based end-to-end tests.

Hypothesis drives the synthetic generator with arbitrary seeds and
shapes, then checks global invariants:

* **engine agreement** — PSG summaries equal the full-CFG baseline's,
  on every solve path: cold, warm after an edit, adopted from a
  summary store, and answered on demand;
* **dynamic soundness** — for every dynamic call observed by the
  tracing interpreter, the registers actually read before being
  written are covered by call-used (modulo the §3.4-filtered
  callee-saved registers and the preserved sp/gp), and the registers
  whose values actually change are covered by call-killed;
* **optimizer safety** — the full pipeline never changes observable
  behaviour and never grows the program;
* **rewriter integrity** — programs survive image round-trips after
  arbitrary optimization.
"""

import tempfile

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.api import AnalysisConfig, AnalysisSession
from repro.dataflow.regset import RegisterSet, mask_of
from tests.facade import analyze_incremental, analyze_program
from repro.interproc.baseline import analyze_program_baseline
from repro.interproc.store import SummaryStore
from repro.interproc.summaries import SummarySet
from repro.workloads.mutate import editable_routines, perturb_routine
from tests.facade import optimize_program
from repro.program.disasm import disassemble_image
from repro.program.rewrite import program_to_image
from repro.sim.interpreter import run_program
from repro.workloads.generator import GeneratorConfig, generate_benchmark

_SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_BENCHES = st.sampled_from(["compress", "li", "go", "perl"])
_SEEDS = st.integers(min_value=0, max_value=10_000)


def _generate(bench, seed):
    program, _shape = generate_benchmark(
        bench, scale=0.08, config=GeneratorConfig(seed=seed)
    )
    return program


@_SLOW
@given(bench=_BENCHES, seed=_SEEDS)
def test_property_engines_agree(bench, seed):
    program = _generate(bench, seed)
    psg = analyze_program(program)
    baseline = analyze_program_baseline(program)
    assert psg.result.equal_summaries(baseline.result), (
        baseline.result.diff(psg.result)[:5]
    )


def _assert_agrees(answer: SummarySet, oracle: SummarySet, path: str):
    assert answer.equal_summaries(oracle), (
        path, oracle.diff(answer)[:5]
    )


@_SLOW
@given(bench=_BENCHES, seed=_SEEDS, data=st.data())
def test_property_every_path_agrees_with_baseline(bench, seed, data):
    """Warm-after-edit, store-hit and demand answers all equal the
    whole-CFG baseline of the program they answer for."""
    program = _generate(bench, seed)
    editable = editable_routines(program)
    assume(editable)
    edited = perturb_routine(program, data.draw(st.sampled_from(editable)))
    oracle = analyze_program_baseline(edited).result

    cold = analyze_incremental(program)
    warm = analyze_incremental(edited, cache=cold.cache)
    assert not warm.metrics.cold
    _assert_agrees(warm.result, oracle, "warm after edit")

    with tempfile.TemporaryDirectory() as root:
        config = AnalysisConfig(store=SummaryStore(root))
        analyze_incremental(program, config=config)
        second = analyze_incremental(edited, config=config)
        adopted = analyze_incremental(edited, config=config)
    _assert_agrees(second.result, oracle, "second variant against the store")
    assert adopted.metrics.phase1_solved == adopted.metrics.phase2_solved == 0
    _assert_agrees(adopted.result, oracle, "store hit")

    name = data.draw(st.sampled_from(edited.routine_names()))
    query = AnalysisSession.from_program(edited).query(name, cache=cold.cache)
    _assert_agrees(
        SummarySet(summaries={name: query.summary}),
        SummarySet(summaries={name: oracle.summaries[name]}),
        f"query {name}",
    )


#: Callee-saved registers anywhere in the dynamic extent of a call may
#: be read harmlessly by save instructions that §3.4 filters away at
#: every level of the call tree, so soundness of call-used is asserted
#: modulo the entire callee-saved set (plus the preserved sp/gp).
_FILTERABLE = mask_of(
    ["s0", "s1", "s2", "s3", "s4", "s5", "fp", "sp", "gp"]
    + [f"f{i}" for i in range(2, 10)]
)


@_SLOW
@given(bench=_BENCHES, seed=_SEEDS)
def test_property_summaries_sound_against_execution(bench, seed):
    program = _generate(bench, seed)
    analysis = analyze_program(program)
    trace = run_program(program, trace_calls=True)
    for record in trace.call_records:
        if record.callee not in analysis.result.summaries:
            continue
        summary = analysis.summary(record.callee)
        allowed_reads = summary.call_used_mask | _FILTERABLE
        stray_reads = record.read_before_write & ~allowed_reads
        assert stray_reads == 0, (
            f"{record.callee}: dynamically read-before-write "
            f"{RegisterSet.from_mask(stray_reads)!r} not in call-used"
        )
        allowed_changes = summary.call_killed_mask
        stray_changes = record.changed & ~allowed_changes
        assert stray_changes == 0, (
            f"{record.callee}: dynamically changed "
            f"{RegisterSet.from_mask(stray_changes)!r} not in call-killed"
        )
        # call-defined registers must in fact have been written.
        missing_defs = summary.call_defined_mask & ~record.written
        assert missing_defs == 0, (
            f"{record.callee}: call-defined "
            f"{RegisterSet.from_mask(missing_defs)!r} never written"
        )


@_SLOW
@given(bench=_BENCHES, seed=_SEEDS)
def test_property_optimizer_preserves_behaviour(bench, seed):
    program = _generate(bench, seed)
    result = optimize_program(program, verify=True)
    assert result.behaviour_preserved()
    assert result.optimized.instruction_count <= program.instruction_count


@_SLOW
@given(bench=_BENCHES, seed=_SEEDS)
def test_property_optimized_image_roundtrip(bench, seed):
    program = _generate(bench, seed)
    optimized = optimize_program(program, verify=False).optimized
    reloaded = disassemble_image(program_to_image(optimized))
    assert (
        run_program(reloaded).observable == run_program(program).observable
    )


@_SLOW
@given(bench=_BENCHES, seed=_SEEDS)
def test_property_live_at_entry_covers_dynamic_reads(bench, seed):
    """The entry routine's live-at-entry covers every register the whole
    run reads before writing (tracked via a synthetic whole-program
    frame)."""
    program = _generate(bench, seed)
    analysis = analyze_program(program)
    trace = run_program(program, trace_calls=True)
    for record in trace.call_records:
        if record.callee not in analysis.result.summaries:
            continue
        summary = analysis.summary(record.callee)
        allowed = summary.live_at_entry_mask | _FILTERABLE
        stray = record.read_before_write & ~allowed
        assert stray == 0, (
            f"{record.callee}: read {RegisterSet.from_mask(stray)!r} "
            f"not live at entry"
        )
