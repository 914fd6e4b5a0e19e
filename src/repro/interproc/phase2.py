"""Phase 2: live-at-entry and live-at-exit (§3.3, Figure 10).

MAY-USE information flows backward through the flow-summary edges and
the (phase-1-labeled) call-return edges, and *across* routines from
each return node to the exit nodes of every routine that could return
to it.  When the dataflow converges:

* ``MAY-USE[entry node]`` = the registers live at the routine's entry;
* ``MAY-USE[exit node]``  = the registers live at that exit;
* ``MAY-USE[call node]``  = the registers live immediately before the
  call (useful to the optimizer for Figure 1(c)/(d));
* ``MAY-USE[return node]`` = the registers live at the call's return
  point.

Because the call-return edges carry the callee's MAY-USE / MUST-DEF
summaries rather than letting liveness flow *through* the callee's
body, the solution only accounts for valid (call/return matched) paths
— the meet-over-all-valid-paths property discussed in §5.

Boundary conditions:

* HALT exits: nothing is live after the program stops;
* UNKNOWN_JUMP exits: every register is assumed live (§3.5);
* RETURN exits of *externally callable* routines (exported,
  address-taken, or the program entry) are seeded with the
  calling-standard worst case: the return-value registers, the
  callee-saved registers, and ``sp``/``gp``/``ra``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.isa.calling_convention import CallingConvention
from repro.dataflow.regset import TRACKED_MASK, mask_of
from repro.dataflow.solver import SubgraphWorklist
from repro.cfg.cfg import ExitKind
from repro.interproc.phase1 import record_solve
from repro.obs.metrics import REGISTRY
from repro.psg.graph import ProgramSummaryGraph
from repro.psg.nodes import NodeKind


@dataclass
class Phase2Result:
    """Converged per-node MAY-USE (liveness) masks."""

    may_use: List[int]
    #: Worklist iterations spent converging (incremental work metric).
    iterations: int = 0


def conservative_exit_live_mask(convention: CallingConvention) -> int:
    """Registers assumed live when returning to an unknown caller."""
    return mask_of(
        convention.return_registers
        | convention.callee_saved
        | {
            convention.stack_pointer,
            convention.global_pointer,
            convention.return_address,
        }
    )


def run_phase2(
    psg: ProgramSummaryGraph,
    externally_callable: Set[str],
    convention: CallingConvention,
    seed_order: Sequence[int],
    extra_exit_live: Optional[Dict[int, int]] = None,
    core: Optional[str] = None,
) -> Phase2Result:
    """Run phase 2 over a PSG whose call-return edges are labeled.

    ``extra_exit_live`` adds initial liveness at specific exit nodes
    (node id -> mask), merged on top of the standard boundary
    conditions.  The incremental engine uses it to inject the cached
    live-after masks of *callers outside the partial PSG*: their
    return-point liveness must still reach the exits of the routines
    being re-solved, even though the callers themselves are not.

    ``core`` selects the solver data layout (``flat`` / ``object``);
    both cores converge to bit-identical results (see
    :mod:`repro.interproc.flatcore`).
    """
    # Imported lazily to break the phase2 <-> flatcore cycle.
    from repro.interproc import flatcore

    core = flatcore.resolve_solver_core(core)
    if core == "flat":
        return flatcore.run_phase2_flat(
            psg,
            externally_callable,
            conservative_exit_live_mask(convention),
            seed_order,
            extra_exit_live=extra_exit_live,
        )
    node_count = len(psg.nodes)
    nodes = psg.nodes
    may_use = [0] * node_count
    is_exit = [False] * node_count

    conservative = conservative_exit_live_mask(convention)
    for node in nodes:
        if node.kind != NodeKind.EXIT:
            continue
        is_exit[node.id] = True
        if node.exit_kind == ExitKind.UNKNOWN_JUMP:
            may_use[node.id] = TRACKED_MASK
        elif node.exit_kind == ExitKind.RETURN and node.routine in externally_callable:
            may_use[node.id] = conservative
        # HALT and internal RETURN exits start at ∅.
    if extra_exit_live:
        for node_id, mask in extra_exit_live.items():
            may_use[node_id] |= mask

    # return node id -> RETURN-kind exit node ids of every possible
    # callee (a hinted site's liveness flows to each candidate's exits).
    return_to_exits: Dict[int, List[int]] = {}
    for edge in psg.call_return_edges:
        exits: List[int] = []
        for callee in edge.callees:
            exits.extend(psg.routines[callee].return_exit_nodes())
        if exits:
            return_to_exits[edge.dst] = exits

    dependents: List[List[int]] = [[] for _ in range(node_count)]
    for edge in psg.flow_edges:
        dependents[edge.dst].append(edge.src)
    for edge in psg.call_return_edges:
        dependents[edge.dst].append(edge.src)

    flow_edges = psg.flow_edges
    cr_edges = psg.call_return_edges

    worklist = SubgraphWorklist(
        node_count, dependents, is_exit, seed_order
    )

    def transfer(node_id: int) -> bool:
        mu_acc = 0
        for edge_index in psg.flow_out[node_id]:
            edge = flow_edges[edge_index]
            label = edge.label
            mu_acc |= label.may_use | (may_use[edge.dst] & ~label.must_def)
        cr_index = psg.cr_out[node_id]
        if cr_index is not None:
            edge = cr_edges[cr_index]
            label = edge.label
            mu_acc |= label.may_use | (may_use[edge.dst] & ~label.must_def)
        if mu_acc == may_use[node_id]:
            return False
        may_use[node_id] = mu_acc
        # Return node -> callee exit copies (the dashed arcs of Fig. 11).
        # Exit nodes are frozen, so their dependents are enqueued by
        # hand when a copy lands new bits on them.
        for exit_node in return_to_exits.get(node_id, ()):
            merged = may_use[exit_node] | mu_acc
            if merged != may_use[exit_node]:
                may_use[exit_node] = merged
                for dependent in dependents[exit_node]:
                    worklist.enqueue(dependent)
        return True

    visit_counts = [0] * node_count if REGISTRY.per_routine else None
    iterations = worklist.run(transfer, visit_counts)
    record_solve(
        psg, "phase2", iterations, worklist.max_depth, visit_counts,
        pushes=worklist.pushes, skipped=worklist.skipped,
        revisits=worklist.revisits,
    )
    return Phase2Result(may_use=may_use, iterations=iterations)
