"""The Figure-6 equations: labeling a flow-summary edge.

For a flow-summary edge ``E = (N_X, N_Y)``, the paper runs conventional
backward dataflow over the CFG subgraph containing exactly the blocks
on some path from X to Y:

.. code-block:: none

    MAY-USE_IN[B]  = UBD[B] ∪ (MAY-USE_OUT[B] − DEF[B])
    MAY-DEF_IN[B]  = MAY-DEF_OUT[B] ∪ DEF[B]
    MUST-DEF_IN[B] = MUST-DEF_OUT[B] ∪ DEF[B]

    MAY-USE_OUT[B]  = ∪_S MAY-USE_IN[S]     over subgraph successors S
    MAY-DEF_OUT[B]  = ∪_S MAY-DEF_IN[S]
    MUST-DEF_OUT[B] = ∩_S MUST-DEF_IN[S]

The paper initializes every set to ∅.  For the MAY sets (∪ meet) that
is the correct ⊥; for MUST-DEF (∩ meet) a ∅ start computes a least
fixed point that loses must-definitions around loops (a cycle of
∅-initialized blocks can never acquire the defs that every path out of
the cycle performs).  We use the standard must-analysis initialization
instead — interior MUST-DEF starts at ⊤ (every register) and shrinks —
which yields the meet-over-paths solution; the boundary (the target
block's OUT) is ∅ as in the paper.  This is a documented deviation (see
DESIGN.md); it is sound, strictly more precise, and makes the PSG
engine agree exactly with the whole-CFG baseline.

After convergence the edge is labeled with the IN sets at X's start
block(s); a source with several start blocks (a branch node fans out to
many targets) combines them with ∪ for the MAY sets and ∩ for
MUST-DEF.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dataflow.local import LocalSets
from repro.dataflow.regset import RegisterSet, TRACKED_MASK
from repro.dataflow.solver import WorklistSolver, postorder
from repro.cfg.cfg import BasicBlock

Triple = Tuple[int, int, int]  # (may_use, may_def, must_def) masks

#: Boundary value: the target block's OUT sets (nothing beyond the edge).
_BOUNDARY: Triple = (0, 0, 0)

#: Interior start value: MAY sets at ⊥ (∅), MUST-DEF at ⊤ (see module doc).
_INTERIOR: Triple = (0, 0, TRACKED_MASK)


@dataclass(frozen=True)
class SummaryTriple:
    """An immutable (MAY-USE, MAY-DEF, MUST-DEF) triple of masks."""

    may_use: int = 0
    may_def: int = 0
    must_def: int = 0

    @property
    def may_use_set(self) -> RegisterSet:
        return RegisterSet.from_mask(self.may_use)

    @property
    def may_def_set(self) -> RegisterSet:
        return RegisterSet.from_mask(self.may_def)

    @property
    def must_def_set(self) -> RegisterSet:
        return RegisterSet.from_mask(self.must_def)

    def is_consistent(self) -> bool:
        """MUST-DEF must be a subset of MAY-DEF."""
        return self.must_def & ~self.may_def == 0

    def __repr__(self) -> str:
        return (
            f"SummaryTriple(may_use={self.may_use_set!r}, "
            f"may_def={self.may_def_set!r}, must_def={self.must_def_set!r})"
        )


def _combine(left: Triple, right: Triple) -> Triple:
    return (left[0] | right[0], left[1] | right[1], left[2] & right[2])


def solve_summary_subgraph(
    blocks: Sequence[BasicBlock],
    local_sets: Sequence[LocalSets],
    subgraph: Set[int],
    blocked: Set[int],
) -> Dict[int, SummaryTriple]:
    """Solve the Figure-6 equations over one subgraph.

    ``subgraph`` holds the block indices on some X→Y path; ``blocked``
    holds the blocks whose outgoing arcs are cut (call and branch-node
    blocks).  Returns the converged IN triple for every subgraph block;
    the caller labels the edge from the start block(s).
    """
    members = sorted(subgraph)
    dense: Dict[int, int] = {index: i for i, index in enumerate(members)}
    edges: List[Tuple[int, int]] = []
    for index in members:
        if index in blocked:
            continue
        for successor in blocks[index].successors:
            if successor in subgraph:
                edges.append((dense[index], dense[successor]))

    ubd = [local_sets[index].ubd_mask for index in members]
    defs = [local_sets[index].def_mask for index in members]

    def transfer(node: int, out_state: Triple) -> Triple:
        may_use_out, may_def_out, must_def_out = out_state
        block_def = defs[node]
        return (
            ubd[node] | (may_use_out & ~block_def),
            may_def_out | block_def,
            must_def_out | block_def,
        )

    solver: WorklistSolver[Triple] = WorklistSolver(len(members), edges)
    successor_lists = [solver.successors(i) for i in range(len(members))]
    order = postorder(len(members), successor_lists, range(len(members)))
    states = solver.solve(
        transfer=transfer,
        combine=_combine,
        boundary=_BOUNDARY,
        initial=_INTERIOR,
        order=order,
    )
    return {
        index: SummaryTriple(*states[dense[index]])
        for index in members
    }


def label_from_starts(
    solution: Dict[int, SummaryTriple], starts: Sequence[int]
) -> SummaryTriple:
    """Combine the IN triples at an edge source's start blocks.

    MAY sets union over the fan-out; MUST-DEF intersects (a register is
    must-defined along the edge only if it is must-defined from *every*
    start block).
    """
    present = [solution[s] for s in starts if s in solution]
    if not present:
        return SummaryTriple()
    may_use = 0
    may_def = 0
    must_def = present[0].must_def
    for triple in present:
        may_use |= triple.may_use
        may_def |= triple.may_def
        must_def &= triple.must_def
    return SummaryTriple(may_use=may_use, may_def=may_def, must_def=must_def)


#: Interned SummaryTriple instances, keyed by raw masks.  Distinct
#: triples per program are few (labels repeat heavily across edges), so
#: the cache stays small; it is process-wide and never evicted.
_TRIPLE_CACHE: Dict[Triple, SummaryTriple] = {}


def intern_triple(may_use: int, may_def: int, must_def: int) -> SummaryTriple:
    """The canonical :class:`SummaryTriple` for three masks."""
    key = (may_use, may_def, must_def)
    triple = _TRIPLE_CACHE.get(key)
    if triple is None:
        triple = SummaryTriple(may_use, may_def, must_def)
        _TRIPLE_CACHE[key] = triple
    return triple


def _tarjan_sccs(successors: Sequence[Sequence[int]]) -> List[int]:
    """Strongly connected components of a dense digraph (iterative).

    Returns ``comp_of`` mapping every node to its component id, with
    ids assigned in Tarjan emission order — a component is numbered
    only after every component reachable from it.  Ascending component
    id is therefore a successors-first (reverse topological) order,
    exactly the order a backward dataflow pass wants.
    """
    n = len(successors)
    index_of = [0] * n  # 0 = unvisited (indices start at 1)
    lowlink = [0] * n
    on_stack = bytearray(n)
    scc_stack: List[int] = []
    comp_of = [-1] * n
    counter = 1
    comps = 0
    for root in range(n):
        if index_of[root]:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_pos = work[-1]
            if child_pos == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                scc_stack.append(node)
                on_stack[node] = 1
            descended = False
            children = successors[node]
            while child_pos < len(children):
                child = children[child_pos]
                child_pos += 1
                if not index_of[child]:
                    work[-1] = (node, child_pos)
                    work.append((child, 0))
                    descended = True
                    break
                if on_stack[child] and index_of[child] < lowlink[node]:
                    lowlink[node] = index_of[child]
            if descended:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                while True:
                    member = scc_stack.pop()
                    on_stack[member] = 0
                    comp_of[member] = comps
                    if member == node:
                        break
                comps += 1
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
    return comp_of


class BatchedLabeler:
    """Per-routine batched Figure-6 solver shared across all targets.

    Solving each target's region with :func:`solve_summary_subgraph`
    would rebuild the whole dataflow problem — dense remapping, edge
    list, solver, traversal order — once per target, so a routine with
    T targets would re-apply every shared block's transfer up to T
    times with fresh allocations each time.  This class builds
    the boundary-cut graph structure *once* per routine:

    * cut successor/predecessor lists (a blocked block's outgoing arcs
      are removed, exactly the ``blocked`` semantics of
      :func:`solve_summary_subgraph`);
    * per-block UBD/DEF masks;
    * a Tarjan SCC decomposition of the cut graph whose component ids
      ascend in successors-first order.

    Each target's region (``backward_reachable(target)`` on the cut
    graph) is then solved in a single bottom-up sweep: components are
    visited in ascending id order, so every in-region successor of a
    block is final before the block's own transfer runs.  Acyclic
    components (a lone block with no self-loop) take exactly one
    transfer application; only components that actually contain a cycle
    fall back to a local worklist.  A single-entry per-block memo
    reuses the transfer result when an overlapping target produces the
    same OUT triple, which is the common case for shared suffixes.

    **Equivalence.** The Figure-6 system splits into three independent
    problems: MAY-USE and MAY-DEF are least fixed points from ∅ under
    ∪-combine, MUST-DEF is a greatest fixed point from ⊤ under
    ∩-combine (see the module docstring for the ⊤ initialization).
    Each has a *unique* lfp/gfp for a given boundary, and hierarchical
    iteration — solving downstream SCCs to completion before upstream
    ones — computes exactly that fixed point, so the batched labels are
    bit-identical to the per-edge strategy and to a per-target
    :func:`solve_summary_subgraph` solve (the labeling-equivalence
    tests gate this).
    """

    def __init__(
        self,
        blocks: Sequence[BasicBlock],
        local_sets: Sequence[LocalSets],
        blocked: Set[int],
    ) -> None:
        n = len(blocks)
        cut_succ: List[List[int]] = []
        for index in range(n):
            if index in blocked:
                cut_succ.append([])
            else:
                cut_succ.append(list(blocks[index].successors))
        cut_pred: List[List[int]] = [[] for _ in range(n)]
        for index, succs in enumerate(cut_succ):
            for successor in succs:
                cut_pred[successor].append(index)
        self._cut_succ = cut_succ
        self._cut_pred = cut_pred
        self._ubd = [local_sets[index].ubd_mask for index in range(n)]
        self._defs = [local_sets[index].def_mask for index in range(n)]
        self._comp_of = _tarjan_sccs(cut_succ)
        self._self_loop = bytearray(n)
        for index, succs in enumerate(cut_succ):
            if index in succs:
                self._self_loop[index] = 1
        # Single-entry transfer memo: the last (OUT, IN) pair per block,
        # shared across the targets whose regions overlap.
        self._last_out: List[Optional[Triple]] = [None] * n
        self._last_in: List[Optional[Triple]] = [None] * n

    def region(self, target: int) -> Set[int]:
        """Blocks on some path to ``target`` in the cut graph.

        Identical to ``backward_reachable(blocks, target, blocked)``:
        blocked blocks have no outgoing cut arcs, so they never appear
        as predecessors; the target itself is always a member.
        """
        pred = self._cut_pred
        reached = {target}
        stack = [target]
        while stack:
            block = stack.pop()
            for p in pred[block]:
                if p not in reached:
                    reached.add(p)
                    stack.append(p)
        return reached

    def solve(self, region: Set[int]) -> Dict[int, Triple]:
        """Converged IN triples for every block of one target's region.

        The region's only successor-less member is the target (every
        other member lies on a path to it), so the ∅ boundary emerges
        exactly where :func:`solve_summary_subgraph` applies it.
        """
        comp_of = self._comp_of
        buckets: Dict[int, List[int]] = {}
        for block in region:
            buckets.setdefault(comp_of[block], []).append(block)
        states: Dict[int, Triple] = {}
        cut_succ = self._cut_succ
        ubd = self._ubd
        defs = self._defs
        last_out = self._last_out
        last_in = self._last_in
        for comp_id in sorted(buckets):
            members = buckets[comp_id]
            if len(members) == 1 and not self._self_loop[members[0]]:
                # Acyclic within the region: one transfer application.
                block = members[0]
                out: Optional[Triple] = None
                for successor in cut_succ[block]:
                    succ_state = states.get(successor)
                    if succ_state is None:
                        continue
                    if out is None:
                        out = succ_state
                    else:
                        out = (
                            out[0] | succ_state[0],
                            out[1] | succ_state[1],
                            out[2] & succ_state[2],
                        )
                if out is None:
                    out = _BOUNDARY
                if out == last_out[block]:
                    states[block] = last_in[block]  # type: ignore[assignment]
                else:
                    block_def = defs[block]
                    value = (
                        ubd[block] | (out[0] & ~block_def),
                        out[1] | block_def,
                        out[2] | block_def,
                    )
                    last_out[block] = out
                    last_in[block] = value
                    states[block] = value
            else:
                # The component carries a cycle: local worklist.  The
                # fixed point is unique, so iteration order only
                # affects convergence speed, not the answer.
                for block in members:
                    states[block] = _INTERIOR
                in_comp = set(members)
                queue = deque(members)
                queued = set(members)
                while queue:
                    block = queue.popleft()
                    queued.discard(block)
                    out = None
                    for successor in cut_succ[block]:
                        succ_state = states.get(successor)
                        if succ_state is None:
                            continue
                        if out is None:
                            out = succ_state
                        else:
                            out = (
                                out[0] | succ_state[0],
                                out[1] | succ_state[1],
                                out[2] & succ_state[2],
                            )
                    if out is None:
                        out = _BOUNDARY
                    block_def = defs[block]
                    value = (
                        ubd[block] | (out[0] & ~block_def),
                        out[1] | block_def,
                        out[2] | block_def,
                    )
                    if value != states[block]:
                        states[block] = value
                        for p in self._cut_pred[block]:
                            if p in in_comp and p not in queued:
                                queued.add(p)
                                queue.append(p)
        return states

    @staticmethod
    def label(solution: Dict[int, Triple], starts: Sequence[int]) -> SummaryTriple:
        """Interned label from the IN triples at the start blocks.

        Same combine as :func:`label_from_starts` (∪ for MAY sets, ∩
        for MUST-DEF over the fan-out), operating on raw triples.
        """
        may_use = 0
        may_def = 0
        must_def = -1
        for start in starts:
            triple = solution.get(start)
            if triple is None:
                continue
            may_use |= triple[0]
            may_def |= triple[1]
            must_def &= triple[2]
        if must_def == -1:
            return intern_triple(0, 0, 0)
        return intern_triple(may_use, may_def, must_def)
