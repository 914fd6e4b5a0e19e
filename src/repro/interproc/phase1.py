"""Phase 1: call-used, call-defined and call-killed (§3.2, Figure 8).

Information flows backward through each routine's flow-summary edges
and — at call nodes — through the call-return edge, whose label is the
callee's entry-node sets (copied there whenever they change).  When the
dataflow converges, a routine's entry node holds:

* ``MAY-USE``  -> the registers *call-used* by the routine,
* ``MUST-DEF`` -> the registers *call-defined*,
* ``MAY-DEF``  -> the registers *call-killed*.

Figure 8 writes the MUST-DEF update as a per-edge assignment; with
several out-edges the correct meet is the intersection over out-edges
(the paper's own Figure 6 intersects MUST-DEF over successors), which
is what this implementation computes.

The fixed point is computed in two monotone passes:

1. **defs pass** — MAY-DEF and MUST-DEF, which depend only on each
   other;
2. **uses pass** — MAY-USE, with the (now final) MUST-DEF values as
   kill sets.

The combined result equals the simultaneous least fixed point of the
Figure-8 system, but each pass is monotone from ⊥ so termination and
precision are immediate.

Exit-node boundary values encode §3.5's conservatism:

* RETURN exits contribute nothing (phase 1 excludes post-return uses);
* HALT exits never rejoin the caller, so they contribute
  ``MUST-DEF = ⊤`` (vacuously, every register is defined on a path that
  never returns) and nothing else;
* UNKNOWN_JUMP exits may run arbitrary code, so they contribute
  ``MAY-USE = MAY-DEF = ⊤`` and ``MUST-DEF = ∅``.

Callee-saved filtering (§3.4) is applied every time an entry node's
sets are recomputed; the stack and global pointers are additionally
stripped from MAY-DEF / MUST-DEF because conforming callees restore
them (they are *not* stripped from MAY-USE — a callee genuinely reads
the incoming ``sp``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dataflow.equations import SummaryTriple
from repro.dataflow.solver import SubgraphWorklist
from repro.dataflow.regset import TRACKED_MASK
from repro.cfg.cfg import ExitKind
from repro.obs.metrics import REGISTRY
from repro.psg.graph import ProgramSummaryGraph
from repro.psg.nodes import NodeKind


def record_solve(
    psg: ProgramSummaryGraph,
    phase: str,
    iterations: int,
    max_depth: int,
    counts: Optional[List[int]],
    pushes: int = 0,
    skipped: int = 0,
    revisits: int = 0,
) -> None:
    """Push one solve's convergence numbers into the obs registry.

    Shared by both phase engines and the flat core.  ``counts``
    (per-node visit counts) is attributed to routines only when
    per-routine collection is on — the mapping walk is O(nodes) and
    only ``spike-analyze report`` consumes it.  ``pushes`` / ``skipped``
    / ``revisits`` gauge the worklist scheduling (see
    ``docs/observability.md``).
    """
    REGISTRY.inc("solver.iterations", iterations, phase=phase)
    REGISTRY.observe_max("solver.max_queue_depth", max_depth, phase=phase)
    REGISTRY.inc("solver.pushes", pushes)
    REGISTRY.inc("solver.skipped_inqueue", skipped)
    REGISTRY.inc("solver.revisits", revisits, phase=phase)
    if counts is None:
        return
    per_routine: Dict[str, int] = {}
    for node, visits in zip(psg.nodes, counts):
        if visits:
            per_routine[node.routine] = per_routine.get(node.routine, 0) + visits
    for routine, visits in per_routine.items():
        REGISTRY.inc(
            "solver.routine_iterations", visits, phase=phase, routine=routine
        )


@dataclass
class Phase1Result:
    """Converged per-node phase-1 sets (indexed by PSG node id)."""

    may_use: List[int]
    may_def: List[int]
    must_def: List[int]
    #: Worklist iterations spent converging (both passes combined); the
    #: incremental engine's work metric.
    iterations: int = 0

    def entry_triple(self, psg: ProgramSummaryGraph, routine: str) -> SummaryTriple:
        """The (call-used, call-killed, call-defined) triple of a routine."""
        node = psg.routines[routine].entry_node
        return SummaryTriple(
            may_use=self.may_use[node],
            may_def=self.may_def[node],
            must_def=self.must_def[node],
        )


def _dependents(psg: ProgramSummaryGraph) -> List[List[int]]:
    """dependents[m] = nodes whose transfer reads node m's state."""
    result: List[List[int]] = [[] for _ in range(len(psg.nodes))]
    for edge in psg.flow_edges:
        result[edge.dst].append(edge.src)
    for edge in psg.call_return_edges:
        result[edge.dst].append(edge.src)
        for callee in edge.callees:
            entry = psg.routines[callee].entry_node
            result[entry].append(edge.src)
    return result


def _exit_fixed_values(kind: ExitKind) -> SummaryTriple:
    if kind == ExitKind.RETURN:
        return SummaryTriple(0, 0, 0)
    if kind == ExitKind.HALT:
        return SummaryTriple(0, 0, TRACKED_MASK)
    return SummaryTriple(TRACKED_MASK, TRACKED_MASK, 0)  # UNKNOWN_JUMP


def run_phase1(
    psg: ProgramSummaryGraph,
    saved_restored: Dict[str, int],
    preserved_mask: int,
    seed_order: Sequence[int],
    fixed_entries: Optional[Dict[int, SummaryTriple]] = None,
    core: Optional[str] = None,
) -> Phase1Result:
    """Run phase 1 over ``psg``.

    ``saved_restored[name]`` is the §3.4 filter mask per routine;
    ``preserved_mask`` covers the stack/global pointers; ``seed_order``
    is the worklist priority order (callee-first routine order
    converges fastest).  On return, every resolved call-return edge's
    ``label`` holds the callee's final filtered entry sets.

    ``fixed_entries`` pins boundary values: node id -> the already-
    converged (MAY-USE, MAY-DEF, MUST-DEF) triple of a routine solved
    in an earlier run.  Pinned nodes behave like exit nodes — their
    values are never recomputed — which is how the incremental engine
    stitches cached callee summaries into a partial PSG.

    ``core`` selects the solver data layout (``flat`` / ``object``,
    default via ``REPRO_SOLVER_CORE``); both cores converge to
    bit-identical results (see :mod:`repro.interproc.flatcore`).
    """
    # Imported lazily to break the phase1 <-> flatcore cycle (flatcore
    # reuses Phase1Result and record_solve).
    from repro.interproc import flatcore

    core = flatcore.resolve_solver_core(core)
    if core == "flat":
        return flatcore.run_phase1_flat(
            psg, saved_restored, preserved_mask, seed_order,
            fixed_entries=fixed_entries,
        )
    node_count = len(psg.nodes)
    nodes = psg.nodes
    may_def = [0] * node_count
    # MUST-DEF is a ∩-meet problem: interior nodes start at ⊤ and shrink
    # (greatest fixed point), the standard must-analysis initialization;
    # see the note in repro.dataflow.equations.
    must_def = [TRACKED_MASK] * node_count
    may_use = [0] * node_count
    is_exit = [False] * node_count
    for node in nodes:
        if node.kind == NodeKind.EXIT:
            assert node.exit_kind is not None
            fixed = _exit_fixed_values(node.exit_kind)
            may_use[node.id] = fixed.may_use
            may_def[node.id] = fixed.may_def
            must_def[node.id] = fixed.must_def
            is_exit[node.id] = True
    if fixed_entries:
        for node_id, triple in fixed_entries.items():
            may_use[node_id] = triple.may_use
            may_def[node_id] = triple.may_def
            must_def[node_id] = triple.must_def
            is_exit[node_id] = True

    entry_strip: Dict[int, int] = {}
    entry_strip_defs: Dict[int, int] = {}
    for name, routine_psg in psg.routines.items():
        strip = saved_restored.get(name, 0)
        entry_strip[routine_psg.entry_node] = strip
        entry_strip_defs[routine_psg.entry_node] = strip | preserved_mask
    entry_of = {
        name: routine_psg.entry_node
        for name, routine_psg in psg.routines.items()
    }

    dependents = _dependents(psg)
    flow_edges = psg.flow_edges
    cr_edges = psg.call_return_edges

    # ------------------------------------------------------------------
    # Pass A: MAY-DEF and MUST-DEF
    # ------------------------------------------------------------------
    def defs_transfer(node_id: int) -> bool:
        md_acc = 0
        xd_acc = -1  # "top" sentinel: intersection identity
        for edge_index in psg.flow_out[node_id]:
            edge = flow_edges[edge_index]
            label = edge.label
            md_acc |= may_def[edge.dst] | label.may_def
            xd_acc &= must_def[edge.dst] | label.must_def
        cr_index = psg.cr_out[node_id]
        if cr_index is not None:
            edge = cr_edges[cr_index]
            if edge.is_unknown:
                label_md = edge.label.may_def
                label_xd = edge.label.must_def
            else:
                # Multi-target sites (§3.5 hints) combine their callees:
                # MAY by union, MUST by intersection.
                label_md = 0
                label_xd = -1
                for callee in edge.callees:
                    entry = entry_of[callee]
                    label_md |= may_def[entry]
                    label_xd &= must_def[entry]
            md_acc |= may_def[edge.dst] | label_md
            xd_acc &= must_def[edge.dst] | label_xd
        if xd_acc == -1:
            xd_acc = 0
        strip = entry_strip_defs.get(node_id)
        if strip is not None:
            md_acc &= ~strip
            xd_acc &= ~strip
        changed = md_acc != may_def[node_id] or xd_acc != must_def[node_id]
        may_def[node_id] = md_acc
        must_def[node_id] = xd_acc
        return changed

    visit_counts = [0] * node_count if REGISTRY.per_routine else None
    defs_worklist = SubgraphWorklist(
        node_count, dependents, is_exit, seed_order
    )
    iterations = defs_worklist.run(defs_transfer, visit_counts)

    # ------------------------------------------------------------------
    # Pass B: MAY-USE, with MUST-DEF now final
    # ------------------------------------------------------------------
    def uses_transfer(node_id: int) -> bool:
        mu_acc = 0
        for edge_index in psg.flow_out[node_id]:
            edge = flow_edges[edge_index]
            label = edge.label
            mu_acc |= label.may_use | (may_use[edge.dst] & ~label.must_def)
        cr_index = psg.cr_out[node_id]
        if cr_index is not None:
            edge = cr_edges[cr_index]
            if edge.is_unknown:
                label_mu = edge.label.may_use
                label_xd = edge.label.must_def
            else:
                label_mu = 0
                label_xd = -1
                for callee in edge.callees:
                    entry = entry_of[callee]
                    label_mu |= may_use[entry]
                    label_xd &= must_def[entry]
            mu_acc |= label_mu | (may_use[edge.dst] & ~label_xd)
        strip = entry_strip.get(node_id)
        if strip is not None:
            mu_acc &= ~strip
        changed = mu_acc != may_use[node_id]
        may_use[node_id] = mu_acc
        return changed

    uses_worklist = SubgraphWorklist(
        node_count, dependents, is_exit, seed_order
    )
    iterations += uses_worklist.run(uses_transfer, visit_counts)
    record_solve(
        psg,
        "phase1",
        iterations,
        max(defs_worklist.max_depth, uses_worklist.max_depth),
        visit_counts,
        pushes=defs_worklist.pushes + uses_worklist.pushes,
        skipped=defs_worklist.skipped + uses_worklist.skipped,
        revisits=defs_worklist.revisits + uses_worklist.revisits,
    )

    # Persist the final labels on the resolved call-return edges; phase 2
    # re-reads them ("retained for the second dataflow phase").
    flatcore.label_call_return_edges(
        psg, entry_of, may_use, may_def, must_def
    )

    return Phase1Result(
        may_use=may_use,
        may_def=may_def,
        must_def=must_def,
        iterations=iterations,
    )
