"""The flat solver core: two-phase solves over the CSR arena.

:mod:`repro.psg.arena` lowers a built PSG into parallel primitive
arrays; this module runs phase 1 and phase 2 directly over those
arrays.  The loops here compute *bit-for-bit* the same fixed points as
the object engines in :mod:`repro.interproc.phase1` /
:mod:`repro.interproc.phase2` — same transfer functions, same boundary
conditions, same §3.4 stripping — but the hot path iterates the
arena's unpacked per-node views (tuples of pre-boxed ints) and indexes
dense state lists: no edge objects, no ``SummaryTriple`` attribute
reads, no per-node closures.  Scheduling realizes the same rank-keyed
priority worklist as :class:`repro.dataflow.solver.SubgraphWorklist`
as a *sweep + pocket* pair: the seeds are pushed in ascending rank
order, so the seed queue is consumed by a plain index scan (O(1) pops,
no heap sift), with a small heap ("pocket") holding only the
dynamically re-enqueued nodes.  The next node is the smaller of the
sweep head and the pocket minimum — exactly the global-heap minimum,
since the two partition the queued set — so the visit sequence is
*identical* to the object engine's and every counter (iterations,
pushes, skips, revisits, max depth) matches it bit for bit.

Why the results are identical across cores and orders: every solve is
chaotic iteration of a monotone system over a finite lattice from an
extremal starting point (⊥ for the union problems, ⊤ for MUST-DEF), so
the fixed point reached is the unique least (resp. greatest) fixed
point regardless of visit order — the visit *order* only changes how
many visits it takes.  The phase-2 return-to-exit copies preserve this:
they only ever union new bits into exit values, so they are part of the
same monotone system.  The test suite pins the equivalence with a
Hypothesis property test and three-way summary byte-equality.

Core selection (``--solver-core`` / ``REPRO_SOLVER_CORE``):

* ``flat``   — the arena fast path in this module;
* ``object`` — the object-graph engines with priority scheduling (the
  default).
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cfg.cfg import ExitKind
from repro.dataflow.equations import SummaryTriple
from repro.dataflow.regset import TRACKED_MASK
from repro.interproc.errors import AnalysisError
from repro.obs.metrics import REGISTRY
from repro.psg.arena import get_arena
from repro.psg.graph import ProgramSummaryGraph

__all__ = [
    "SOLVER_CORES",
    "SOLVER_CORE_ENV_VAR",
    "resolve_solver_core",
    "run_phase1_flat",
    "run_phase2_flat",
    "label_call_return_edges",
    "solve_masks_csr",
]

#: Recognized solver cores (see module docstring).
SOLVER_CORES = ("flat", "object")

#: Environment variable consulted for the default core: explicit
#: argument > ``AnalysisConfig.solver_core`` > environment >
#: ``"object"``.
SOLVER_CORE_ENV_VAR = "REPRO_SOLVER_CORE"


def resolve_solver_core(core: Optional[str] = None) -> str:
    """The effective solver core; raises :class:`AnalysisError` on an
    unrecognized name (so a typo in ``REPRO_SOLVER_CORE`` fails loudly
    instead of silently analyzing with the default)."""
    if core is None:
        core = os.environ.get(SOLVER_CORE_ENV_VAR) or None
    if core is None:
        return "object"
    if core not in SOLVER_CORES:
        raise AnalysisError(
            f"unknown solver core {core!r}; expected one of "
            f"{', '.join(SOLVER_CORES)}"
        )
    return core


def label_call_return_edges(
    psg: ProgramSummaryGraph,
    entry_of: Dict[str, int],
    may_use: Sequence[int],
    may_def: Sequence[int],
    must_def: Sequence[int],
) -> None:
    """Write the converged phase-1 labels onto resolved call-return
    edges, interning equal triples so the many call sites of a popular
    routine share one label object (phase 2 and the summary assembly
    re-read these; "retained for the second dataflow phase").
    """
    interned: Dict[Tuple[int, int, int], SummaryTriple] = {}
    for edge in psg.call_return_edges:
        if edge.is_unknown:
            continue
        label_mu = 0
        label_md = 0
        label_xd = -1
        for callee in edge.callees:
            entry = entry_of[callee]
            label_mu |= may_use[entry]
            label_md |= may_def[entry]
            label_xd &= must_def[entry]
        key = (label_mu, label_md, label_xd & TRACKED_MASK)
        label = interned.get(key)
        if label is None:
            label = SummaryTriple(
                may_use=key[0], may_def=key[1], must_def=key[2]
            )
            interned[key] = label
        edge.label = label


def _seed_priority(
    node_count: int, seed_order: Sequence[int], frozen: bytearray
) -> Tuple[List[int], List[int], List[int], bytearray]:
    """Rank table, rank->node table, seeded heap and in-queue bitmap.

    Ranks follow ``seed_order`` (nodes it omits sort last), so the seed
    heap — ranks in ascending order — is a valid min-heap as built.
    Frozen boundary nodes are marked permanently in-queue: the enqueue
    fast path then needs only the bitmap test to suppress them.
    """
    by_rank = list(seed_order)
    rank_of = [0] * node_count
    for rank, node in enumerate(by_rank):
        rank_of[node] = rank
    if len(by_rank) == node_count:
        # The usual case — the seed order is a full permutation (the
        # drivers seed every node) — so every node is initially queued
        # and the rank table is already complete.
        queued = bytearray(b"\x01") * node_count
    else:
        listed = bytearray(node_count)
        for node in seed_order:
            listed[node] = 1
        for node in range(node_count):
            if not listed[node]:
                rank_of[node] = len(by_rank)
                by_rank.append(node)
        queued = bytearray(frozen)
        for node in seed_order:
            queued[node] = 1
    heap = [rank_of[node] for node in seed_order if not frozen[node]]
    return by_rank, rank_of, heap, queued


def run_phase1_flat(
    psg: ProgramSummaryGraph,
    saved_restored: Dict[str, int],
    preserved_mask: int,
    seed_order: Sequence[int],
    fixed_entries: Optional[Dict[int, SummaryTriple]] = None,
):
    """Phase 1 over the arena; same contract as
    :func:`repro.interproc.phase1.run_phase1`."""
    # Imported lazily: phase1 dispatches into this module, so a
    # top-level import either way would be a cycle.
    from repro.interproc.phase1 import Phase1Result, record_solve

    arena = get_arena(psg)
    node_count = arena.node_count
    defs_view = arena.defs_view
    defs_static = arena.defs_static
    uses_view = arena.uses_view
    uses_static = arena.uses_static
    cr_dst = arena.cr_dst_view
    cr_single = arena.cr_single
    cr_callees = arena.cr_callees
    arena_cr_mu = arena.cr_mu
    arena_cr_md = arena.cr_md
    arena_cr_xd = arena.cr_xd
    dep_view = arena.dep1_view

    may_def = [0] * node_count
    must_def = [TRACKED_MASK] * node_count
    may_use = [0] * node_count
    frozen = bytearray(node_count)
    for node, kind, _routine in arena.exits:
        frozen[node] = 1
        if kind is ExitKind.RETURN:
            must_def[node] = 0
        elif kind is ExitKind.UNKNOWN_JUMP:
            may_use[node] = TRACKED_MASK
            may_def[node] = TRACKED_MASK
            must_def[node] = 0
        # HALT keeps (0, 0, TRACKED_MASK): the initial values.
    if fixed_entries:
        for node_id, triple in fixed_entries.items():
            may_use[node_id] = triple.may_use
            may_def[node_id] = triple.may_def
            must_def[node_id] = triple.must_def
            frozen[node_id] = 1

    # §3.4 stripping as dense arrays: zero everywhere but entry nodes,
    # and `mask &= ~0` is the identity, so "strip where nonzero" equals
    # the object path's "strip at entries".
    strip_use = [0] * node_count
    strip_def = [0] * node_count
    entry_of: Dict[str, int] = {}
    for name, routine_psg in psg.routines.items():
        entry = routine_psg.entry_node
        entry_of[name] = entry
        strip = saved_restored.get(name, 0)
        strip_use[entry] = strip
        strip_def[entry] = strip | preserved_mask

    counts = [0] * node_count if REGISTRY.per_routine else None
    skipped = 0
    revisits = 0

    # ------------------------------------------------------------------
    # Pass A: MAY-DEF and MUST-DEF
    # ------------------------------------------------------------------
    by_rank, rank_of, sweep, queued = _seed_priority(
        node_count, seed_order, frozen
    )
    # Every push is popped exactly once (the queue drains), so the pop
    # count needs no per-visit increment: iterations == pushes.  The
    # queue is the sweep index over the pre-sorted seeds plus the
    # pocket heap of dynamic pushes (module docstring); depth is
    # gauged after each push burst — sizes only peak after pushes, so
    # the push-side maximum equals the object engine's pop-side one.
    n_sweep = len(sweep)
    si = 0
    pocket: List[int] = []
    pushed = n_sweep
    max_depth = n_sweep
    while True:
        if pocket:
            if si < n_sweep and sweep[si] <= pocket[0]:
                rank = sweep[si]
                si += 1
            else:
                rank = heappop(pocket)
        elif si < n_sweep:
            rank = sweep[si]
            si += 1
        else:
            break
        node = by_rank[rank]
        queued[node] = 0
        if counts is not None:
            counts[node] += 1
        # ⋁(label ∨ MAY-DEF[dst]) = (⋁ label) ∨ ⋁ MAY-DEF[dst]: the
        # label half is the precomputed per-node static mask.  Rows of
        # zero or one edge are the bulk of the graph (call/exit nodes
        # have no flow out-edges; straight-line nodes have one), so
        # both shapes skip the tuple-loop machinery.
        row = defs_view[node]
        if not row:
            md_acc = defs_static[node]
            xd_acc = -1  # "top" sentinel: intersection identity
        elif len(row) == 1:
            dst, label_xd = row[0]
            md_acc = defs_static[node] | may_def[dst]
            xd_acc = must_def[dst] | label_xd
        else:
            md_acc = defs_static[node]
            xd_acc = -1
            for dst, label_xd in row:
                md_acc |= may_def[dst]
                xd_acc &= must_def[dst] | label_xd
        cr = cr_dst[node]
        if cr >= 0:
            entry = cr_single[node]
            if entry >= 0:  # monomorphic call: skip the tuple loop
                md_acc |= may_def[cr] | may_def[entry]
                xd_acc &= must_def[cr] | must_def[entry]
            else:
                callees = cr_callees[node]
                if callees:
                    label_md = 0
                    label_xd = -1
                    for entry in callees:
                        label_md |= may_def[entry]
                        label_xd &= must_def[entry]
                else:  # unknown call: fixed §3.5 label
                    label_md = arena_cr_md[node]
                    label_xd = arena_cr_xd[node]
                md_acc |= may_def[cr] | label_md
                xd_acc &= must_def[cr] | label_xd
        if xd_acc == -1:
            xd_acc = 0
        strip = strip_def[node]
        if strip:
            md_acc &= ~strip
            xd_acc &= ~strip
        if md_acc != may_def[node] or xd_acc != must_def[node]:
            may_def[node] = md_acc
            must_def[node] = xd_acc
            deps = dep_view[node]
            if len(deps) == 1:  # single dependent: the common case
                dependent = deps[0]
                if queued[dependent]:
                    skipped += 1
                else:
                    queued[dependent] = 1
                    pushed += 1
                    heappush(pocket, rank_of[dependent])
            else:
                for dependent in deps:
                    if queued[dependent]:
                        skipped += 1
                    else:
                        queued[dependent] = 1
                        pushed += 1
                        heappush(pocket, rank_of[dependent])
            depth = n_sweep - si + len(pocket)
            if depth > max_depth:
                max_depth = depth
    iterations = pushed
    # revisits = visits minus distinct nodes visited.  Every non-frozen
    # node is seeded and every dynamic push re-targets a seed (dependent
    # rows only name interior nodes), so the distinct count is exactly
    # the seed count — no per-visit bookkeeping needed.
    revisits += iterations - n_sweep

    # ------------------------------------------------------------------
    # Pass B: MAY-USE, with MUST-DEF now final
    # ------------------------------------------------------------------
    # Final MUST-DEF means the call-site kill labels are fixed: hoist
    # them out of the loop (the MAY-USE half stays dynamic).
    cr_label_mu0 = [0] * node_count
    cr_label_notxd = [0] * node_count
    for node in arena.cr_nodes:
        callees = cr_callees[node]
        if callees:
            label_xd = -1
            for entry in callees:
                label_xd &= must_def[entry]
            cr_label_notxd[node] = ~label_xd
        else:
            cr_label_mu0[node] = arena_cr_mu[node]
            cr_label_notxd[node] = ~arena_cr_xd[node]

    sweep = [rank_of[node] for node in seed_order if not frozen[node]]
    if len(seed_order) == node_count:  # full re-seed: all in-queue
        queued = bytearray(b"\x01") * node_count
    else:
        for node in seed_order:
            queued[node] = 1
    n_sweep = len(sweep)
    si = 0
    pocket = []
    pushed = n_sweep
    if n_sweep > max_depth:
        max_depth = n_sweep
    while True:
        if pocket:
            if si < n_sweep and sweep[si] <= pocket[0]:
                rank = sweep[si]
                si += 1
            else:
                rank = heappop(pocket)
        elif si < n_sweep:
            rank = sweep[si]
            si += 1
        else:
            break
        node = by_rank[rank]
        queued[node] = 0
        if counts is not None:
            counts[node] += 1
        row = uses_view[node]
        if not row:
            mu_acc = uses_static[node]
        elif len(row) == 1:
            dst, not_xd = row[0]
            mu_acc = uses_static[node] | (may_use[dst] & not_xd)
        else:
            mu_acc = uses_static[node]
            for dst, not_xd in row:
                mu_acc |= may_use[dst] & not_xd
        cr = cr_dst[node]
        if cr >= 0:
            entry = cr_single[node]
            if entry >= 0:  # monomorphic call: skip the tuple loop
                label_mu = may_use[entry]
            else:
                callees = cr_callees[node]
                if callees:
                    label_mu = 0
                    for entry in callees:
                        label_mu |= may_use[entry]
                else:
                    label_mu = cr_label_mu0[node]
            mu_acc |= label_mu | (may_use[cr] & cr_label_notxd[node])
        strip = strip_use[node]
        if strip:
            mu_acc &= ~strip
        if mu_acc != may_use[node]:
            may_use[node] = mu_acc
            deps = dep_view[node]
            if len(deps) == 1:  # single dependent: the common case
                dependent = deps[0]
                if queued[dependent]:
                    skipped += 1
                else:
                    queued[dependent] = 1
                    pushed += 1
                    heappush(pocket, rank_of[dependent])
            else:
                for dependent in deps:
                    if queued[dependent]:
                        skipped += 1
                    else:
                        queued[dependent] = 1
                        pushed += 1
                        heappush(pocket, rank_of[dependent])
            depth = n_sweep - si + len(pocket)
            if depth > max_depth:
                max_depth = depth
    iterations += pushed
    revisits += pushed - n_sweep
    pushes = iterations

    record_solve(
        psg, "phase1", iterations, max_depth, counts,
        pushes=pushes, skipped=skipped, revisits=revisits,
    )
    label_call_return_edges(psg, entry_of, may_use, may_def, must_def)
    return Phase1Result(
        may_use=may_use,
        may_def=may_def,
        must_def=must_def,
        iterations=iterations,
    )


def run_phase2_flat(
    psg: ProgramSummaryGraph,
    externally_callable: Set[str],
    conservative: int,
    seed_order: Sequence[int],
    extra_exit_live: Optional[Dict[int, int]] = None,
):
    """Phase 2 over the arena; same contract as
    :func:`repro.interproc.phase2.run_phase2`, except the conservative
    external-RETURN mask arrives precomputed (the caller owns the
    calling convention)."""
    from repro.interproc.phase1 import record_solve
    from repro.interproc.phase2 import Phase2Result

    arena = get_arena(psg)
    node_count = arena.node_count
    uses_view = arena.uses_view
    uses_static = arena.uses_static
    cr_dst = arena.cr_dst_view
    dep_view = arena.dep2_view
    ret_view = arena.ret_view

    may_use = [0] * node_count
    frozen = bytearray(node_count)
    for node, kind, routine in arena.exits:
        frozen[node] = 1
        if kind is ExitKind.UNKNOWN_JUMP:
            may_use[node] = TRACKED_MASK
        elif kind is ExitKind.RETURN and routine in externally_callable:
            may_use[node] = conservative
        # HALT and internal RETURN exits start at ∅.
    if extra_exit_live:
        for node_id, mask in extra_exit_live.items():
            may_use[node_id] |= mask

    # The phase-1 labels, unzipped per call node for the hot loop (they
    # are per-solve state: warm runs relabel the same PSG's edges), the
    # kill mask pre-complemented.
    cr_label_mu = [0] * node_count
    cr_label_notxd = [0] * node_count
    for edge in psg.call_return_edges:
        label = edge.label
        cr_label_mu[edge.src] = label.may_use
        cr_label_notxd[edge.src] = ~label.must_def

    counts = [0] * node_count if REGISTRY.per_routine else None
    by_rank, rank_of, sweep, queued = _seed_priority(
        node_count, seed_order, frozen
    )
    # iterations == pushes: every push is popped exactly once.  Sweep +
    # pocket scheduling as in phase 1 (module docstring).
    n_sweep = len(sweep)
    si = 0
    pocket: List[int] = []
    pushes = n_sweep
    skipped = 0
    max_depth = n_sweep
    while True:
        if pocket:
            if si < n_sweep and sweep[si] <= pocket[0]:
                rank = sweep[si]
                si += 1
            else:
                rank = heappop(pocket)
        elif si < n_sweep:
            rank = sweep[si]
            si += 1
        else:
            break
        node = by_rank[rank]
        queued[node] = 0
        if counts is not None:
            counts[node] += 1
        row = uses_view[node]
        if not row:
            mu_acc = uses_static[node]
        elif len(row) == 1:
            dst, not_xd = row[0]
            mu_acc = uses_static[node] | (may_use[dst] & not_xd)
        else:
            mu_acc = uses_static[node]
            for dst, not_xd in row:
                mu_acc |= may_use[dst] & not_xd
        cr = cr_dst[node]
        if cr >= 0:
            mu_acc |= cr_label_mu[node] | (
                may_use[cr] & cr_label_notxd[node]
            )
        if mu_acc != may_use[node]:
            may_use[node] = mu_acc
            # Return node -> callee exit copies (Fig. 11 dashed arcs):
            # exits are frozen, so their dependents are scheduled by
            # hand when a copy lands new bits.
            for exit_node in ret_view[node]:
                merged = may_use[exit_node] | mu_acc
                if merged != may_use[exit_node]:
                    may_use[exit_node] = merged
                    for dependent in dep_view[exit_node]:
                        if queued[dependent]:
                            skipped += 1
                        else:
                            queued[dependent] = 1
                            pushes += 1
                            heappush(pocket, rank_of[dependent])
            deps = dep_view[node]
            if len(deps) == 1:  # single dependent: the common case
                dependent = deps[0]
                if queued[dependent]:
                    skipped += 1
                else:
                    queued[dependent] = 1
                    pushes += 1
                    heappush(pocket, rank_of[dependent])
            else:
                for dependent in deps:
                    if queued[dependent]:
                        skipped += 1
                    else:
                        queued[dependent] = 1
                        pushes += 1
                        heappush(pocket, rank_of[dependent])
            depth = n_sweep - si + len(pocket)
            if depth > max_depth:
                max_depth = depth
    iterations = pushes
    # distinct visited == seed count (see run_phase1_flat).
    revisits = iterations - n_sweep

    record_solve(
        psg, "phase2", iterations, max_depth, counts,
        pushes=pushes, skipped=skipped, revisits=revisits,
    )
    return Phase2Result(may_use=may_use, iterations=iterations)


def solve_masks_csr(
    node_count: int,
    edges: Sequence[Tuple[int, int]],
    gen: Sequence[int],
    kill: Sequence[int],
    boundary: int = 0,
    order: Optional[Sequence[int]] = None,
) -> List[int]:
    """Flat-core reference solve of a generic backward union problem:

    .. code-block:: none

        IN[n] = gen[n] | ((⋁ IN[s] for s in succ(n)) & ~kill[n])

    with ``boundary`` as the OUT of successor-less nodes.  Same CSR
    layout and priority scheduling as the phase engines, over an
    arbitrary digraph — the property tests use it to pin the flat core
    against :class:`~repro.dataflow.solver.WorklistSolver` and a FIFO
    reference on random graphs.
    """
    from array import array

    succ_lists: List[List[int]] = [[] for _ in range(node_count)]
    dep_lists: List[List[int]] = [[] for _ in range(node_count)]
    for src, dst in edges:
        succ_lists[src].append(dst)
        dep_lists[dst].append(src)

    def csr(lists: List[List[int]]) -> Tuple[array, array]:
        off = array("q", [0])
        total = 0
        for row in lists:
            total += len(row)
            off.append(total)
        idx = array("i")
        for row in lists:
            idx.extend(row)
        return off, idx

    succ_off, succ = csr(succ_lists)
    dep_off, dep = csr(dep_lists)
    states = [0] * node_count
    seed = list(order) if order is not None else list(range(node_count))
    frozen = bytearray(node_count)
    by_rank, rank_of, heap, queued = _seed_priority(node_count, seed, frozen)
    while heap:
        node = by_rank[heappop(heap)]
        queued[node] = 0
        start = succ_off[node]
        stop = succ_off[node + 1]
        if start == stop:
            out = boundary
        else:
            out = 0
            for k in range(start, stop):
                out |= states[succ[k]]
        new = gen[node] | (out & ~kill[node])
        if new != states[node]:
            states[node] = new
            for k in range(dep_off[node], dep_off[node + 1]):
                dependent = dep[k]
                if not queued[dependent]:
                    queued[dependent] = 1
                    heappush(heap, rank_of[dependent])
    return states
