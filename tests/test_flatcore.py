"""Cross-core equivalence of the flat CSR solver on real workloads.

The flat core (:mod:`repro.interproc.flatcore`) must be a pure data
-layout/scheduling change: byte-identical summaries and identical
solver counters versus the object engines, cold and warm.  These tests pin that contract on generated Table-2 shapes.
"""

from __future__ import annotations

import pytest

from repro.api import AnalysisSession
from repro.interproc.analysis import AnalysisConfig
from repro.interproc.errors import AnalysisError
from repro.interproc.flatcore import resolve_solver_core
from repro.interproc.incremental import _analyze_incremental
from repro.interproc.persist import dump_summaries
from repro.obs.metrics import REGISTRY
from repro.workloads.generator import GeneratorConfig, generate_benchmark
from repro.workloads.mutate import first_editable_routine, perturb_routine

CORES = ("flat", "object")

#: Table-2 rows small enough for the test tier, cached per session.
SHAPES = ("compress", "li", "perl", "vortex")

_programs = {}


def shape_program(name):
    if name not in _programs:
        program, _shape = generate_benchmark(
            name, scale=0.04, config=GeneratorConfig(seed=0)
        )
        _programs[name] = program
    return _programs[name]


def analyze_with(program, core):
    config = AnalysisConfig(solver_core=core)
    return AnalysisSession.from_program(program, config=config).analyze()


class TestCoreSelection:
    def test_default_is_object(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER_CORE", raising=False)
        assert resolve_solver_core(None) == "object"

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_CORE", "flat")
        assert resolve_solver_core(None) == "flat"

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_CORE", "flat")
        assert resolve_solver_core("object") == "object"

    def test_unknown_core_rejected(self):
        with pytest.raises(AnalysisError):
            resolve_solver_core("simd")


class TestColdEquivalence:
    @pytest.mark.parametrize("name", SHAPES)
    def test_summaries_byte_identical_across_cores(self, name):
        program = shape_program(name)
        blobs = {
            core: dump_summaries(analyze_with(program, core).result)
            for core in CORES
        }
        assert blobs["flat"] == blobs["object"]

    def test_counters_identical_flat_vs_object(self):
        """The sweep+pocket scheduler pops in exactly the global-heap
        order, so every solver counter — not just the fixed point —
        must match the object engine's."""
        program = shape_program("compress")
        snapshots = {}
        for core in ("flat", "object"):
            before = REGISTRY.snapshot()
            analyze_with(program, core)
            delta = REGISTRY.delta_since(before)
            snapshots[core] = {
                key: value
                for key, value in delta.items()
                if key.startswith("solver.")
            }
        assert snapshots["flat"] == snapshots["object"]
        assert snapshots["flat"]["solver.iterations{phase=phase1}"] > 0

class TestWarmEquivalence:
    @pytest.mark.parametrize("name", ("compress", "li"))
    def test_mutated_warm_runs_agree_across_cores(self, name):
        """Cold run, mutate one routine, warm re-run from the cache:
        every core must produce the same bytes as a from-scratch flat
        analysis of the mutated program."""
        program = shape_program(name)
        victim = first_editable_routine(program)
        edited = perturb_routine(program, victim)
        reference = dump_summaries(analyze_with(edited, "flat").result)
        for core in CORES:
            config = AnalysisConfig(solver_core=core)
            cold = _analyze_incremental(program, config=config)
            warm = _analyze_incremental(
                edited, cache=cold.cache, config=config
            )
            assert warm.metrics.dirty_routines == [victim]
            assert dump_summaries(warm.result) == reference, core
