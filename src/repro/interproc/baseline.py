"""Whole-program-CFG interprocedural analysis (the [Srivastava93] baseline).

Section 1 motivates the PSG by contrast with performing interprocedural
dataflow "using a program's entire control-flow graph": connect every
routine's CFG with call and return arcs and iterate directly over basic
blocks.  This module implements that baseline with the *same* two-phase
valid-paths semantics as the PSG analysis:

* per-block triples (MAY-USE, MAY-DEF, MUST-DEF) in phase 1, where a
  call-ending block's OUT is composed from the callee's (filtered)
  entry sets and the return point's IN — i.e. call/return arcs are
  summary arcs, not plain arcs, so no invalid call/return pairings are
  introduced;
* per-block liveness in phase 2, where each RETURN exit's OUT is the
  union of the IN sets at every possible return point.

Because both engines implement the same specification, their summaries
must agree exactly; the test suite uses this as the main correctness
oracle (`SummarySet.equal_summaries`).  The benchmarks use the
baseline for the time/memory comparison that justifies the PSG.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.calling_convention import CallingConvention
from repro.program.model import Program
from repro.cfg.build import build_all_cfgs
from repro.cfg.callgraph import build_call_graph
from repro.cfg.cfg import ControlFlowGraph, ExitKind, TerminatorKind
from repro.dataflow.local import compute_local_sets
from repro.dataflow.regset import TRACKED_MASK, mask_of
from repro.dataflow.solver import SubgraphWorklist
from repro.psg.build import PsgConfig, unknown_call_label
from repro.interproc.analysis import AnalysisConfig
from repro.interproc.phase2 import conservative_exit_live_mask
from repro.interproc.savedregs import saved_restored_registers
from repro.interproc.summaries import (
    SummarySet,
    CallSiteSummary,
    RoutineSummary,
)
from repro.reporting.memory import cfg_analysis_memory


@dataclass
class BaselineAnalysis:
    """Result of the whole-program-CFG analysis."""

    program: Program
    result: SummarySet
    elapsed_seconds: float
    memory_bytes: int
    basic_block_count: int
    cfg_arc_count: int


class _Flat:
    """The program's CFGs flattened into one block-indexed graph."""

    def __init__(
        self,
        program: Program,
        cfgs: Dict[str, ControlFlowGraph],
        convention: CallingConvention,
    ) -> None:
        self.program = program
        self.cfgs = cfgs
        self.convention = convention
        self.offset: Dict[str, int] = {}
        count = 0
        for routine in program:
            self.offset[routine.name] = count
            count += cfgs[routine.name].block_count
        self.count = count
        self.ubd = [0] * count
        self.defs = [0] * count
        self.succ: List[List[int]] = [[] for _ in range(count)]
        self.exit_kind: List[Optional[ExitKind]] = [None] * count
        #: global id of a call block -> (possible callees, return point);
        #: an empty callee tuple means the §3.5 unknown-call assumptions.
        self.call_info: Dict[int, Tuple[Tuple[str, ...], int]] = {}
        self.entry_of: Dict[str, int] = {}
        self.routine_of: List[str] = [""] * count
        for routine in program:
            name = routine.name
            cfg = cfgs[name]
            base = self.offset[name]
            self.entry_of[name] = base + cfg.entry_index
            locals_ = compute_local_sets(cfg)
            for block in cfg.blocks:
                gid = base + block.index
                self.routine_of[gid] = name
                self.ubd[gid] = locals_[block.index].ubd_mask
                self.defs[gid] = locals_[block.index].def_mask
                self.succ[gid] = [base + s for s in block.successors]
                self.exit_kind[gid] = cfg.exit_kind_of(block.index)
                if block.terminator == TerminatorKind.CALL:
                    site = cfg.call_site_of(block.index)
                    assert site is not None
                    return_point = base + block.successors[0]
                    self.call_info[gid] = (site.targets, return_point)


def analyze_program_baseline(
    program: Program, config: Optional[AnalysisConfig] = None
) -> BaselineAnalysis:
    """Run the full-CFG two-phase analysis on ``program``."""
    config = config or AnalysisConfig()
    convention = config.convention
    start = time.perf_counter()

    cfgs = build_all_cfgs(program)
    call_graph = build_call_graph(program, cfgs)
    flat = _Flat(program, cfgs, convention)
    saved_restored = {
        name: saved_restored_registers(cfg, convention)
        for name, cfg in cfgs.items()
    }
    preserved = mask_of({convention.stack_pointer, convention.global_pointer})
    strip_defs = {
        name: saved_restored[name] | preserved for name in saved_restored
    }
    unknown = unknown_call_label(convention)

    count = flat.count
    may_def = [0] * count
    # Interior MUST-DEF starts at ⊤ (greatest fixed point of the ∩-meet
    # problem); see the note in repro.dataflow.equations.
    must_def = [TRACKED_MASK] * count
    may_use = [0] * count

    # Dependents: block reads its successors' IN; a call block also reads
    # its callee's entry IN.
    dependents: List[List[int]] = [[] for _ in range(count)]
    for gid in range(count):
        for successor in flat.succ[gid]:
            dependents[successor].append(gid)
    for gid, (callees, _retpt) in flat.call_info.items():
        for callee in callees:
            dependents[flat.entry_of[callee]].append(gid)

    # ------------------------------------------------------------------
    # Phase 1a: MAY-DEF / MUST-DEF
    # ------------------------------------------------------------------
    def callee_def_labels(gid: int) -> Tuple[int, int]:
        callees, _retpt = flat.call_info[gid]
        if not callees:
            return unknown.may_def, unknown.must_def
        label_md = 0
        label_xd = -1
        for callee in callees:
            entry = flat.entry_of[callee]
            strip = strip_defs[callee]
            label_md |= may_def[entry] & ~strip
            label_xd &= must_def[entry] & ~strip
        return label_md, label_xd

    def defs_out(gid: int) -> Tuple[int, int]:
        kind = flat.exit_kind[gid]
        if kind == ExitKind.RETURN:
            return 0, 0
        if kind == ExitKind.HALT:
            return 0, TRACKED_MASK
        if kind == ExitKind.UNKNOWN_JUMP:
            return TRACKED_MASK, 0
        if gid in flat.call_info:
            label_md, label_xd = callee_def_labels(gid)
            _callees, retpt = flat.call_info[gid]
            return may_def[retpt] | label_md, must_def[retpt] | label_xd
        md_acc = 0
        xd_acc = -1
        for successor in flat.succ[gid]:
            md_acc |= may_def[successor]
            xd_acc &= must_def[successor]
        return md_acc, (0 if xd_acc == -1 else xd_acc)

    def defs_transfer(gid: int) -> bool:
        md_out, xd_out = defs_out(gid)
        md_in = md_out | flat.defs[gid]
        xd_in = xd_out | flat.defs[gid]
        changed = md_in != may_def[gid] or xd_in != must_def[gid]
        may_def[gid] = md_in
        must_def[gid] = xd_in
        return changed

    _iterate(count, dependents, defs_transfer)

    # ------------------------------------------------------------------
    # Phase 1b: MAY-USE (MUST-DEF now final)
    # ------------------------------------------------------------------
    def uses_out_phase1(gid: int) -> int:
        kind = flat.exit_kind[gid]
        if kind == ExitKind.RETURN or kind == ExitKind.HALT:
            return 0
        if kind == ExitKind.UNKNOWN_JUMP:
            return TRACKED_MASK
        if gid in flat.call_info:
            callees, retpt = flat.call_info[gid]
            if not callees:
                label_mu, label_xd = unknown.may_use, unknown.must_def
            else:
                label_mu = 0
                label_xd = -1
                for callee in callees:
                    entry = flat.entry_of[callee]
                    label_mu |= may_use[entry] & ~saved_restored[callee]
                    label_xd &= must_def[entry] & ~strip_defs[callee]
            return label_mu | (may_use[retpt] & ~label_xd)
        mu_acc = 0
        for successor in flat.succ[gid]:
            mu_acc |= may_use[successor]
        return mu_acc

    def uses_transfer_phase1(gid: int) -> bool:
        mu_in = flat.ubd[gid] | (uses_out_phase1(gid) & ~flat.defs[gid])
        changed = mu_in != may_use[gid]
        may_use[gid] = mu_in
        return changed

    _iterate(count, dependents, uses_transfer_phase1)

    # Freeze the phase-1 callee labels for phase 2 and the summaries.
    entry_labels: Dict[str, Tuple[int, int, int]] = {}
    for name in program.routine_names():
        entry = flat.entry_of[name]
        entry_labels[name] = (
            may_use[entry] & ~saved_restored[name],
            may_def[entry] & ~strip_defs[name],
            must_def[entry] & ~strip_defs[name],
        )

    # ------------------------------------------------------------------
    # Phase 2: liveness over valid paths
    # ------------------------------------------------------------------
    live = [0] * count
    conservative = conservative_exit_live_mask(convention)
    externally_callable = call_graph.externally_callable

    # Which return points can each routine's RETURN exits return to?
    return_points_of: Dict[str, List[int]] = {
        name: [] for name in program.routine_names()
    }
    for gid, (callees, retpt) in flat.call_info.items():
        for callee in callees:
            return_points_of[callee].append(retpt)
    dependents2: List[List[int]] = [list(deps) for deps in dependents]
    for name, points in return_points_of.items():
        base = flat.offset[name]
        cfg = cfgs[name]
        exit_gids = [base + b for b in cfg.return_exits()]
        for retpt in points:
            dependents2[retpt].extend(exit_gids)

    def live_out(gid: int) -> int:
        kind = flat.exit_kind[gid]
        if kind == ExitKind.HALT:
            return 0
        if kind == ExitKind.UNKNOWN_JUMP:
            return TRACKED_MASK
        if kind == ExitKind.RETURN:
            name = flat.routine_of[gid]
            mask = conservative if name in externally_callable else 0
            for retpt in return_points_of[name]:
                mask |= live[retpt]
            return mask
        if gid in flat.call_info:
            callees, retpt = flat.call_info[gid]
            if not callees:
                label_mu, label_xd = unknown.may_use, unknown.must_def
            else:
                label_mu = 0
                label_xd = -1
                for callee in callees:
                    callee_mu, _md, callee_xd = entry_labels[callee]
                    label_mu |= callee_mu
                    label_xd &= callee_xd
            return label_mu | (live[retpt] & ~label_xd)
        mask = 0
        for successor in flat.succ[gid]:
            mask |= live[successor]
        return mask

    def live_transfer(gid: int) -> bool:
        mu_in = flat.ubd[gid] | (live_out(gid) & ~flat.defs[gid])
        changed = mu_in != live[gid]
        live[gid] = mu_in
        return changed

    _iterate(count, dependents2, live_transfer)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    summaries: Dict[str, RoutineSummary] = {}
    for routine in program:
        name = routine.name
        cfg = cfgs[name]
        base = flat.offset[name]
        label_mu, label_md, label_xd = entry_labels[name]
        exit_live_masks: Dict[int, int] = {}
        exit_kinds: Dict[int, ExitKind] = {}
        for block_index, kind in cfg.exits:
            exit_live_masks[block_index] = live_out(base + block_index)
            exit_kinds[block_index] = kind
        call_sites: List[CallSiteSummary] = []
        for site in cfg.call_sites:
            gid = base + site.block
            callees, retpt = flat.call_info[gid]
            if not callees:
                used, defined, killed = (
                    unknown.may_use,
                    unknown.must_def,
                    unknown.may_def,
                )
            else:
                used = 0
                killed = 0
                defined = -1
                for callee in callees:
                    callee_mu, callee_md, callee_xd = entry_labels[callee]
                    used |= callee_mu
                    killed |= callee_md
                    defined &= callee_xd
                defined &= TRACKED_MASK
            call_sites.append(
                CallSiteSummary(
                    site=site,
                    used_mask=used,
                    defined_mask=defined,
                    killed_mask=killed,
                    live_before_mask=live_out(gid),
                    live_after_mask=live[retpt],
                )
            )
        summaries[name] = RoutineSummary(
            name=name,
            call_used_mask=label_mu,
            call_defined_mask=label_xd,
            call_killed_mask=label_md,
            live_at_entry_mask=live[flat.entry_of[name]],
            exit_live_masks=exit_live_masks,
            exit_kinds=exit_kinds,
            call_sites=call_sites,
            saved_restored_mask=saved_restored[name],
        )

    elapsed = time.perf_counter() - start
    call_count = sum(len(cfg.call_sites) for cfg in cfgs.values())
    memory = cfg_analysis_memory(cfgs, 2 * call_count, config.memory_model)
    return BaselineAnalysis(
        program=program,
        result=SummarySet(summaries=summaries),
        elapsed_seconds=elapsed,
        memory_bytes=memory,
        basic_block_count=flat.count,
        cfg_arc_count=sum(cfg.arc_count for cfg in cfgs.values()) + 2 * call_count,
    )


def _iterate(count: int, dependents: List[List[int]], transfer) -> None:
    """One chaotic-iteration pass over the flat CFG, riding the shared
    priority-worklist engine (reverse block order as the rank key)."""
    worklist = SubgraphWorklist(
        count, dependents, bytearray(count), range(count - 1, -1, -1)
    )
    worklist.run(transfer)
