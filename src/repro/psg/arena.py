"""CSR-style flat arena lowering of a :class:`ProgramSummaryGraph`.

The object PSG is the right shape for construction and inspection —
nodes and edges are dataclasses, adjacency is lists of edge indices —
but the two-phase solver spends its whole life sweeping that adjacency,
and every sweep pays for attribute lookups, edge-object indirection and
``SummaryTriple`` field reads.  This module lowers a built PSG once
into two coordinated representations:

**The compact snapshot** — parallel primitive arrays
(``array('q')``/``array('i')`` offsets and indices, ``array('Q')``
64-bit register masks), a handful of contiguous buffers totalling a few
dozen bytes per node:

* ``flow_off``/``flow_dst`` — CSR of flow-summary out-edges per node,
  with the edge labels unzipped into ``flow_mu``/``flow_md``/``flow_xd``
  (MAY-USE / MAY-DEF / MUST-DEF masks, parallel to ``flow_dst``);
* ``cr_dst`` — the call-return successor per node (−1 when absent),
  with the fixed §3.5 labels of *unknown* calls baked into
  ``cr_mu``/``cr_md``/``cr_xd`` (resolved calls read their callees'
  live entry state instead, via ``cr_callee_off``/``cr_callee_entry``);
* ``dep1_off``/``dep1`` and ``dep2_off``/``dep2`` — the phase-1 and
  phase-2 dependent sets (who must be revisited when a node changes);
* ``ret_exit_off``/``ret_exit`` — per return node, the RETURN-kind exit
  nodes of every possible callee (the Figure-11 dashed copy arcs).

**The iteration views** — the same data regrouped for the CPython
interpreter.  The union half of each transfer factors algebraically —
``⋁ (label ∨ state[dst])`` equals ``(⋁ label) ∨ ⋁ state[dst]`` — so
the label contribution is folded to one precomputed int per node
(``defs_static``/``uses_static``) and the per-edge tuples carry only
what cannot factor: ``defs_view[n] = ((dst, MUST-DEF), ...)`` for the
intersection half, ``uses_view[n] = ((dst, ~MUST-DEF), ...)`` with the
kill mask pre-complemented.  A solver visit then unpacks each edge
with one ``FOR_ITER`` + ``UNPACK_SEQUENCE`` and two or three indexed
loads — versus five attribute reads off edge objects — and the ints
are boxed once at lowering time instead of on every access.  Dependent
and return-exit adjacency get the same tuple treatment.  (Packing
MAY-DEF and complemented MUST-DEF into one 128-bit accumulator was
tried and measured *slower*: every intermediate exceeds CPython's
fast small-int path, so the saved loads were repaid in big-int
allocations.)

Everything in the arena is immutable topology or construction-time
labels; per-solve state (the mask vectors, the frozen set, phase-1
call-return relabeling) stays with the solve.  The lowering is cached
on the PSG instance (:func:`get_arena`), so repeated solves — the
incremental engine's phase-1 then phase-2 pass over the same
component's partial PSG — lower once.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

from repro.cfg.cfg import ExitKind
from repro.psg.graph import ProgramSummaryGraph
from repro.psg.nodes import NodeKind

__all__ = ["PsgArena", "get_arena", "lower_psg"]


def _csr(rows: Sequence[Sequence[int]]) -> Tuple[array, array]:
    """Flatten per-node rows into (offsets ``'q'``, indices ``'i'``)."""
    offsets = array("q", [0])
    total = 0
    for row in rows:
        total += len(row)
        offsets.append(total)
    indices = array("i")
    for row in rows:
        indices.extend(row)
    return offsets, indices


class PsgArena:
    """One PSG lowered into flat arrays + iteration views (module doc)."""

    __slots__ = (
        "node_count",
        # compact CSR snapshot
        "flow_off", "flow_dst", "flow_mu", "flow_md", "flow_xd",
        "cr_dst", "cr_mu", "cr_md", "cr_xd",
        "cr_callee_off", "cr_callee_entry",
        "dep1_off", "dep1",
        "dep2_off", "dep2",
        "ret_exit_off", "ret_exit",
        # iteration views
        "defs_view", "defs_static", "uses_view", "uses_static",
        "cr_dst_view", "cr_single", "cr_nodes", "cr_callees",
        "dep1_view", "dep2_view", "ret_view",
        "exits",
    )

    def __init__(self, psg: ProgramSummaryGraph) -> None:
        count = len(psg.nodes)
        self.node_count = count
        empty: Tuple[int, ...] = ()

        # Flow-summary adjacency with unzipped labels, in flow_out
        # order so a flat sweep reads edges exactly as the object path
        # does.  Views first; the CSR arrays are packed from them.
        flow_edges = psg.flow_edges
        defs_view: List[tuple] = [empty] * count
        defs_static = [0] * count
        uses_view: List[tuple] = [empty] * count
        uses_static = [0] * count
        flow_off = array("q", [0])
        flow_dst = array("i")
        flow_mu = array("Q")
        flow_md = array("Q")
        flow_xd = array("Q")
        total = 0
        for node in range(count):
            out = psg.flow_out[node]
            if out:
                defs_row = []
                uses_row = []
                static_md = 0
                static_mu = 0
                for edge_index in out:
                    edge = flow_edges[edge_index]
                    label = edge.label
                    dst = edge.dst
                    static_md |= label.may_def
                    static_mu |= label.may_use
                    defs_row.append((dst, label.must_def))
                    uses_row.append((dst, ~label.must_def))
                    flow_dst.append(dst)
                    flow_mu.append(label.may_use)
                    flow_md.append(label.may_def)
                    flow_xd.append(label.must_def)
                defs_view[node] = tuple(defs_row)
                defs_static[node] = static_md
                uses_view[node] = tuple(uses_row)
                uses_static[node] = static_mu
                total += len(out)
            flow_off.append(total)
        self.defs_view = defs_view
        self.defs_static = defs_static
        self.uses_view = uses_view
        self.uses_static = uses_static
        self.flow_off = flow_off
        self.flow_dst = flow_dst
        self.flow_mu = flow_mu
        self.flow_md = flow_md
        self.flow_xd = flow_xd

        # Call-return successor (at most one per node) plus the fixed
        # unknown-call labels; resolved calls carry their callees'
        # entry node ids instead (``cr_callees[n]`` empty + successor
        # present <=> unknown call).
        entry_of = {
            name: routine_psg.entry_node
            for name, routine_psg in psg.routines.items()
        }
        cr_dst = array("i", [-1]) * count
        cr_mu = array("Q", [0]) * count
        cr_md = array("Q", [0]) * count
        cr_xd = array("Q", [0]) * count
        cr_callees: List[Tuple[int, ...]] = [empty] * count
        for edge in psg.call_return_edges:
            cr_dst[edge.src] = edge.dst
            if edge.is_unknown:
                label = edge.label
                cr_mu[edge.src] = label.may_use
                cr_md[edge.src] = label.may_def
                cr_xd[edge.src] = label.must_def
            else:
                cr_callees[edge.src] = tuple(
                    entry_of[callee] for callee in edge.callees
                )
        self.cr_dst = cr_dst
        self.cr_dst_view = list(cr_dst)
        self.cr_mu = cr_mu
        self.cr_md = cr_md
        self.cr_xd = cr_xd
        self.cr_callees = cr_callees
        #: Fast path for the overwhelmingly common monomorphic call:
        #: the callee's entry node when a call resolves to exactly one
        #: routine, else -1 (polymorphic or unknown).
        self.cr_single = [
            row[0] if len(row) == 1 else -1 for row in cr_callees
        ]
        #: The call nodes themselves (nodes with a call-return
        #: successor), so per-solve label precomputes loop over the
        #: call sites instead of scanning every node.
        self.cr_nodes = [
            node for node in range(count) if cr_dst[node] >= 0
        ]
        self.cr_callee_off, self.cr_callee_entry = _csr(cr_callees)

        # Dependents: phase 1 re-reads a changed node from flow sources,
        # call-return sources, and — for entry nodes — every call site
        # that composes the routine's summary.  Phase 2 drops the entry
        # dependency (call nodes read the frozen phase-1 labels).
        dep1: List[List[int]] = [[] for _ in range(count)]
        dep2: List[List[int]] = [[] for _ in range(count)]
        for edge in psg.flow_edges:
            dep1[edge.dst].append(edge.src)
            dep2[edge.dst].append(edge.src)
        for edge in psg.call_return_edges:
            dep1[edge.dst].append(edge.src)
            dep2[edge.dst].append(edge.src)
            for callee in edge.callees:
                dep1[entry_of[callee]].append(edge.src)
        self.dep1_off, self.dep1 = _csr(dep1)
        self.dep2_off, self.dep2 = _csr(dep2)
        self.dep1_view = [tuple(row) for row in dep1]
        self.dep2_view = [tuple(row) for row in dep2]

        # Return node -> RETURN-kind exits of every possible callee.
        ret_exits: List[List[int]] = [[] for _ in range(count)]
        for edge in psg.call_return_edges:
            exits: List[int] = []
            for callee in edge.callees:
                exits.extend(psg.routines[callee].return_exit_nodes())
            if exits:
                ret_exits[edge.dst] = exits
        self.ret_exit_off, self.ret_exit = _csr(ret_exits)
        self.ret_view = [tuple(row) for row in ret_exits]

        #: Boundary nodes: ``(node id, exit kind, routine)`` per EXIT.
        self.exits: List[Tuple[int, ExitKind, str]] = [
            (node.id, node.exit_kind, node.routine)
            for node in psg.nodes
            if node.kind == NodeKind.EXIT
        ]


def lower_psg(psg: ProgramSummaryGraph) -> PsgArena:
    """Lower ``psg`` into a fresh arena (no caching)."""
    return PsgArena(psg)


def get_arena(psg: ProgramSummaryGraph) -> PsgArena:
    """The arena for ``psg``, lowered on first use and cached on the
    instance, keyed on the graph's generation stamp.

    Everything the arena captures — topology, flow labels,
    unknown-call labels — is fixed once the PSG is built, so the cache
    is normally hit forever; phase-1's relabeling of *resolved*
    call-return edges is per-solve state the arena deliberately
    excludes.  Code that *does* mutate captured state must call
    :meth:`ProgramSummaryGraph.bump_version`, after which the next
    call here re-lowers instead of returning the stale arena.
    """
    version = getattr(psg, "version", 0)
    arena = getattr(psg, "_arena", None)
    if arena is not None and getattr(psg, "_arena_version", None) == version:
        return arena
    arena = PsgArena(psg)
    psg._arena = arena  # type: ignore[attr-defined]
    psg._arena_version = version  # type: ignore[attr-defined]
    return arena
