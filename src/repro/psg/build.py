"""PSG construction (§3.1, §3.6).

For each routine Spike produces an entry node, exit nodes, a call and a
return node per call instruction and — when enabled — a branch node per
multiway branch.  Flow-summary edges connect a *source* (entry, return
or branch node) to a *target* (exit, call or branch node) whenever a
control-flow path exists between their locations that does not pass
through another boundary, and each edge is labeled by running the
Figure-6 equations over the CFG subgraph its paths cover.

Two labeling strategies are provided (both produce bit-identical
labels; the test suite asserts this):

* ``per_edge_labeling=True`` — the paper's literal procedure: carve the
  subgraph ``forward(src) ∩ backward(dst)`` and solve it, once per
  edge (the ablation benchmarks and the equivalence tests use it);
* batched (the default) — build the boundary-cut region
  structure once per routine (:class:`~repro.dataflow.equations.
  BatchedLabeler`), topologically order its SCCs, and solve each
  target's region in one successors-first sweep, falling back to a
  worklist only inside components that actually contain a cycle.
  Shared blocks reuse their last transfer result across overlapping
  targets and labels are interned, which is what makes PSG build — the
  dominant cold-analysis stage (Figure 13) — cheap on a Python host.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.metrics import REGISTRY
from repro.obs.tracer import span

from repro.isa.calling_convention import CallingConvention, NT_ALPHA
from repro.dataflow.equations import (
    BatchedLabeler,
    SummaryTriple,
    label_from_starts,
    solve_summary_subgraph,
)
from repro.dataflow.local import LocalSets
from repro.dataflow.regset import mask_of
from repro.program.model import Program
from repro.cfg.cfg import ControlFlowGraph, TerminatorKind
from repro.cfg.subgraph import backward_reachable, forward_reachable
from repro.psg.graph import ProgramSummaryGraph, RoutinePSG
from repro.psg.nodes import CallReturnEdge, FlowEdge, NodeKind, PSGNode


_log = logging.getLogger(__name__)


def _count_build(psg: ProgramSummaryGraph, partial: bool) -> None:
    """Record one PSG construction's sizes in the obs registry.

    Partial builds (incremental and demand cones) add into the
    same size counters — the totals then read as "PSG construction work
    performed this run", which is the Table-5 quantity that matters.
    """
    branch_nodes = sum(
        len(routine.branch_nodes) for routine in psg.routines.values()
    )
    REGISTRY.inc("psg.partial_builds" if partial else "psg.builds")
    REGISTRY.inc("psg.nodes", len(psg.nodes))
    REGISTRY.inc("psg.flow_edges", len(psg.flow_edges))
    REGISTRY.inc("psg.call_return_edges", len(psg.call_return_edges))
    REGISTRY.inc("psg.branch_nodes", branch_nodes)


class PsgBuildError(ValueError):
    """Raised when a routine's control flow defeats the PSG model.

    The one such case is a *boundary-free infinite loop*: blocks
    reachable from a PSG source that cannot reach any exit or call.
    Register uses inside such a loop have no flow-summary edge to live
    on, so the PSG (as defined in the paper) would silently drop them;
    we refuse instead.
    """


@dataclass(frozen=True)
class PsgConfig:
    """Construction options.

    ``branch_nodes`` toggles §3.6 (the Table-4 ablation builds with it
    off); ``multiway_threshold`` is the minimum number of distinct
    successor blocks a multiway branch needs before it earns a branch
    node; ``per_edge_labeling`` selects the paper-literal per-edge
    subgraph solve instead of the batched labeler (see the module
    docstring).
    """

    branch_nodes: bool = True
    multiway_threshold: int = 2
    per_edge_labeling: bool = False
    convention: CallingConvention = field(default_factory=lambda: NT_ALPHA)


def unknown_call_label(convention: CallingConvention) -> SummaryTriple:
    """The §3.5 calling-standard label for unknown-target calls."""
    return SummaryTriple(
        may_use=mask_of(convention.unknown_call_used()),
        may_def=mask_of(convention.unknown_call_killed()),
        must_def=mask_of(convention.unknown_call_defined()),
    )


def build_psg(
    program: Program,
    cfgs: Dict[str, ControlFlowGraph],
    local_sets: Dict[str, Sequence[LocalSets]],
    config: Optional[PsgConfig] = None,
) -> ProgramSummaryGraph:
    """Build the whole-program PSG."""
    config = config or PsgConfig()
    nodes: List[PSGNode] = []
    flow_edges: List[FlowEdge] = []
    call_return_edges: List[CallReturnEdge] = []
    routines: Dict[str, RoutinePSG] = {}
    with span("psg.build", routines=len(cfgs)):
        for routine in program:
            routine_psg = build_routine_psg(
                cfgs[routine.name],
                local_sets[routine.name],
                config,
                nodes,
                flow_edges,
                call_return_edges,
            )
            routines[routine.name] = routine_psg
        psg = ProgramSummaryGraph(
            nodes=nodes,
            flow_edges=flow_edges,
            call_return_edges=call_return_edges,
            routines=routines,
        )
        psg.check()
    _count_build(psg, partial=False)
    _log.debug(
        "built PSG: %d routines, %d nodes, %d flow edges, %d call-return edges",
        len(routines), len(nodes), len(flow_edges), len(call_return_edges),
    )
    return psg


@dataclass
class PartialPsg:
    """A PSG over a subset of the program's routines.

    ``external_entries`` maps each callee *outside* the subset to a
    dummy entry node: the incremental engine pins those nodes at the
    callee's already-known phase-1 triple (via ``run_phase1``'s
    ``fixed_entries``), so calls leaving the subset read converged
    summaries instead of re-solving the callee.  Dummy routines carry
    no exit nodes, so phase 2's return-to-exit liveness copies stop at
    the subset boundary (the boundary flow is injected as
    ``extra_exit_live`` seeds instead).
    """

    psg: ProgramSummaryGraph
    members: List[str]
    external_entries: Dict[str, int]


def build_partial_psg(
    cfgs: Dict[str, ControlFlowGraph],
    local_sets: Dict[str, Sequence[LocalSets]],
    members: Sequence[str],
    config: Optional[PsgConfig] = None,
) -> PartialPsg:
    """Build a PSG containing only ``members``, with dummy pinned-entry
    nodes standing in for callees outside the subset."""
    config = config or PsgConfig()
    nodes: List[PSGNode] = []
    flow_edges: List[FlowEdge] = []
    call_return_edges: List[CallReturnEdge] = []
    routines: Dict[str, RoutinePSG] = {}
    member_set = set(members)
    with span("psg.build_partial", members=len(members)):
        for name in members:
            routines[name] = build_routine_psg(
                cfgs[name],
                local_sets[name],
                config,
                nodes,
                flow_edges,
                call_return_edges,
            )
        external_entries: Dict[str, int] = {}
        for edge in call_return_edges:
            for callee in edge.callees:
                if callee in member_set or callee in external_entries:
                    continue
                node = PSGNode(
                    id=len(nodes), kind=NodeKind.ENTRY, routine=callee, block=0
                )
                nodes.append(node)
                external_entries[callee] = node.id
                routines[callee] = RoutinePSG(
                    routine=callee,
                    entry_node=node.id,
                    exit_nodes=[],
                    call_pairs=[],
                    branch_nodes=[],
                )
        psg = ProgramSummaryGraph(
            nodes=nodes,
            flow_edges=flow_edges,
            call_return_edges=call_return_edges,
            routines=routines,
        )
        psg.check()
    _count_build(psg, partial=True)
    _log.debug(
        "built partial PSG: %d members, %d external entries, %d nodes",
        len(members), len(external_entries), len(nodes),
    )
    return PartialPsg(
        psg=psg, members=list(members), external_entries=external_entries
    )


def build_routine_psg(
    cfg: ControlFlowGraph,
    local_sets: Sequence[LocalSets],
    config: PsgConfig,
    nodes: List[PSGNode],
    flow_edges: List[FlowEdge],
    call_return_edges: List[CallReturnEdge],
) -> RoutinePSG:
    """Build one routine's nodes and edges into the shared lists."""
    name = cfg.routine.name
    blocks = cfg.blocks

    def new_node(kind: NodeKind, block: int, **extra) -> int:
        node = PSGNode(id=len(nodes), kind=kind, routine=name, block=block, **extra)
        nodes.append(node)
        return node.id

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    entry_node = new_node(NodeKind.ENTRY, cfg.entry_index)
    exit_nodes: List[Tuple[int, object]] = []
    for block_index, exit_kind in cfg.exits:
        exit_nodes.append(
            (new_node(NodeKind.EXIT, block_index, exit_kind=exit_kind), exit_kind)
        )
    call_pairs = []
    for site in cfg.call_sites:
        call_node = new_node(NodeKind.CALL, site.block, call_site=site)
        return_node = new_node(NodeKind.RETURN, site.block, call_site=site)
        call_pairs.append((call_node, return_node, site))
        label = (
            unknown_call_label(config.convention)
            if site.is_unknown
            else SummaryTriple()
        )
        call_return_edges.append(
            CallReturnEdge(src=call_node, dst=return_node,
                           callees=site.targets, label=label)
        )
    branch_blocks: List[int] = []
    if config.branch_nodes:
        for block in blocks:
            if (
                block.terminator == TerminatorKind.MULTIWAY
                and len(block.successors) >= config.multiway_threshold
            ):
                branch_blocks.append(block.index)
    branch_nodes = [new_node(NodeKind.BRANCH, index) for index in branch_blocks]

    # ------------------------------------------------------------------
    # Sources, targets, and the boundary cut
    # ------------------------------------------------------------------
    blocked: Set[int] = {site.block for site in cfg.call_sites}
    blocked.update(branch_blocks)

    sources: List[Tuple[int, List[int]]] = [(entry_node, [cfg.entry_index])]
    for call_node, return_node, site in call_pairs:
        sources.append((return_node, list(blocks[site.block].successors)))
    for node_id, block_index in zip(branch_nodes, branch_blocks):
        sources.append((node_id, list(blocks[block_index].successors)))

    targets: List[Tuple[int, int]] = []
    for node_id, _kind in exit_nodes:
        targets.append((node_id, nodes[node_id].block))
    for call_node, _return_node, site in call_pairs:
        targets.append((call_node, site.block))
    for node_id, block_index in zip(branch_nodes, branch_blocks):
        targets.append((node_id, block_index))

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    edge_indices: List[int] = []
    labeler: Optional[BatchedLabeler] = None
    backward_sets: List[Set[int]] = []
    reaches_some_target: Set[int] = set()
    if not config.per_edge_labeling:
        # The labeler's cut-predecessor DFS computes the same region as
        # backward_reachable (blocked blocks have no outgoing cut arcs),
        # reusing the structure built once per routine.
        labeler = BatchedLabeler(blocks, local_sets, blocked)
        for _node_id, target_block in targets:
            reach = labeler.region(target_block)
            backward_sets.append(reach)
            reaches_some_target |= reach
    else:
        for _node_id, target_block in targets:
            reach = backward_reachable(blocks, target_block, blocked)
            backward_sets.append(reach)
            reaches_some_target |= reach

    # Soundness check: every block reachable from a source must reach a
    # target, or its register uses would be lost (see PsgBuildError).
    all_starts: Set[int] = set()
    for _node_id, starts in sources:
        all_starts.update(starts)
    reachable = forward_reachable(blocks, all_starts, blocked)
    divergent = reachable - reaches_some_target
    if divergent:
        raise PsgBuildError(
            f"routine {name!r}: blocks {sorted(divergent)} cannot reach any "
            f"exit or call (boundary-free infinite loop); the PSG cannot "
            f"represent their register usage"
        )

    if config.per_edge_labeling:
        forward_sets = [
            forward_reachable(blocks, starts, blocked) for _n, starts in sources
        ]
        for (src_node, starts), fwd in zip(sources, forward_sets):
            for (dst_node, _target_block), bwd in zip(targets, backward_sets):
                valid_starts = [s for s in starts if s in bwd]
                if not valid_starts:
                    continue
                subgraph = fwd & bwd
                solution = solve_summary_subgraph(
                    blocks, local_sets, subgraph, blocked
                )
                label = label_from_starts(solution, valid_starts)
                edge_indices.append(len(flow_edges))
                flow_edges.append(FlowEdge(src=src_node, dst=dst_node, label=label))
    else:
        assert labeler is not None
        for (dst_node, _target_block), bwd in zip(targets, backward_sets):
            solution = labeler.solve(bwd)
            for src_node, starts in sources:
                valid_starts = [s for s in starts if s in bwd]
                if not valid_starts:
                    continue
                label = labeler.label(solution, valid_starts)
                edge_indices.append(len(flow_edges))
                flow_edges.append(FlowEdge(src=src_node, dst=dst_node, label=label))

    routine_psg = RoutinePSG(
        routine=name,
        entry_node=entry_node,
        exit_nodes=exit_nodes,  # type: ignore[arg-type]
        call_pairs=call_pairs,
        branch_nodes=branch_nodes,
        flow_edge_indices=edge_indices,
    )
    return routine_psg
