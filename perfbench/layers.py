"""Layer-attributed spans for the traced run, recorded from outside.

The benchmark does not edit the program: it replaces each layer's
public function, at every module that imported it by name, with a
wrapper that records a span (layer, thread, op, start, end, self time,
allocated-block delta, an optional work count).  A layer's self time is
its span minus the spans of the layers it called.  Spans stay in memory
and are written out when the run ends.

:func:`install` fails loudly when a target has disappeared, and
:func:`check_coverage` fails when a layer the workload must exercise
recorded no span, so a later rename shows as a missing layer, never as
a silent 0 s.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

clock = time.monotonic


def _instructions(program) -> int:
    return program.instruction_count


def _blocks(cfgs) -> int:
    return sum(cfg.block_count for cfg in cfgs.values())


def _psg_size(psg) -> Tuple[int, int]:
    return psg.node_count, psg.edge_count


def _partial_size(partial) -> Tuple[int, int]:
    return partial.psg.node_count, partial.psg.edge_count


def _length(blob) -> int:
    return len(blob)


#: (layer, function name, modules that bind it by name, work count,
#: measure allocated blocks).  Block counts cost a heap walk per call,
#: so only once-per-op calls take them; blocks allocated by unmeasured
#: callees count toward the nearest measured caller (the solver phases
#: toward ``interproc.driver`` or ``incremental.driver``).
FUNCTION_TARGETS: Sequence[Tuple[str, str, Sequence[str], Optional[Callable], bool]] = (
    ("program.decode", "disassemble_image",
     ("repro.api", "repro.program.disasm"), _instructions, True),
    ("cfg.build", "build_all_cfgs",
     ("repro.interproc.analysis", "repro.interproc.incremental",
      "repro.interproc.demand"), _blocks, True),
    ("cfg.callgraph", "build_call_graph",
     ("repro.interproc.analysis", "repro.interproc.incremental",
      "repro.interproc.demand"), None, True),
    ("dataflow.local_sets", "compute_local_sets",
     ("repro.interproc.analysis", "repro.interproc.incremental"), None, False),
    ("interproc.savedregs", "saved_restored_registers",
     ("repro.interproc.analysis", "repro.interproc.incremental"), None, False),
    ("psg.build", "build_psg", ("repro.interproc.analysis",), _psg_size, True),
    ("psg.build", "build_partial_psg", ("repro.interproc.incremental",),
     _partial_size, False),
    ("psg.arena", "get_arena",
     ("repro.interproc.analysis", "repro.interproc.flatcore"), None, True),
    ("interproc.phase1", "run_phase1",
     ("repro.interproc.analysis", "repro.interproc.incremental"), None, False),
    ("interproc.phase2", "run_phase2",
     ("repro.interproc.analysis", "repro.interproc.incremental"), None, False),
    ("interproc.assemble", "_assemble_summaries",
     ("repro.interproc.analysis",), None, False),
    ("interproc.driver", "_analyze_program",
     ("repro.api", "repro.interproc.incremental"), None, True),
    ("incremental.driver", "_analyze_incremental", ("repro.api",), None, True),
    ("incremental.fingerprint", "routine_fingerprint",
     ("repro.interproc.incremental", "repro.interproc.demand"), None, False),
    ("incremental.fingerprint", "deep_fingerprints",
     ("repro.interproc.incremental",), None, False),
    ("demand.query", "query_routine", ("repro.api",), None, False),
    ("store.publish", "publish_result", ("repro.interproc.store",), None, False),
    ("persist.dump", "dump_summaries",
     ("repro.interproc.results", "repro.interproc.persist"), _length, False),
    ("persist.dump", "dump_cache", ("repro.interproc.persist",), _length, False),
    ("results.to_json", "build_payload", ("repro.interproc.results",),
     None, False),
)

#: (layer, "module:Class.method") wrapped on the class itself.
METHOD_TARGETS: Sequence[Tuple[str, str, Optional[Callable], bool]] = (
    ("program.decode", "repro.program.image:ExecutableImage.from_bytes",
     None, True),
    ("cfg.callgraph", "repro.cfg.callgraph:CallGraph.condensation",
     None, False),
    ("interproc.assemble", "repro.interproc.incremental:_WarmEngine._assemble",
     None, False),
    ("store.lookup", "repro.interproc.store:SummaryStore.load_triple",
     None, False),
    ("store.lookup", "repro.interproc.store:SummaryStore.load_summary",
     None, False),
    ("store.publish", "repro.interproc.store:SummaryStore.store_triple",
     None, False),
    ("store.publish", "repro.interproc.store:SummaryStore.store_summary",
     None, False),
)

#: Server-side request handlers, wrapped only inside the daemon.
SERVICE_TARGETS: Sequence[Tuple[str, str, Optional[Callable], bool]] = (
    ("service.analyze", "repro.service.daemon:AnalysisDaemon.handle_analyze",
     None, False),
    ("service.edit", "repro.service.daemon:AnalysisDaemon._analyze_edit",
     None, False),
    ("service.query", "repro.service.daemon:AnalysisDaemon.handle_query",
     None, False),
)

#: Layers each workload must record at least one timed span in (the
#: layer -> workload assignment in README.md).  ``psg.arena`` is added
#: when the flat solver core is the default, the only core that lowers
#: the PSG to an arena.
REQUIRED: Dict[str, Tuple[str, ...]] = {
    "store-family": (
        "program.decode", "cfg.build", "cfg.callgraph",
        "dataflow.local_sets", "interproc.savedregs", "psg.build",
        "interproc.phase1", "interproc.phase2", "interproc.assemble",
        "incremental.driver", "incremental.fingerprint", "store.lookup",
        "store.publish", "persist.dump", "results.to_json", "gc",
    ),
    "serve-edit": (
        "cfg.build", "cfg.callgraph", "dataflow.local_sets",
        "interproc.savedregs", "psg.build", "interproc.phase1",
        "interproc.phase2", "interproc.assemble", "incremental.driver",
        "incremental.fingerprint", "demand.query", "persist.dump",
        "results.to_json", "service.analyze", "service.edit",
        "service.query", "client.request", "gc",
    ),
}


class SpanRecorder:
    """In-memory spans with per-thread nesting (self time) and the
    recorder's own bookkeeping cost (``overhead_s``)."""

    def __init__(self) -> None:
        #: (layer, thread, op, start, end, self_s, self_blocks, count)
        self.spans: List[tuple] = []
        #: Current op id (None outside timed ops); set by the timed loop.
        self.op: Optional[int] = None
        self.overhead_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._gc_start = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, count=None, blocks=False):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            stack = recorder._stack()
            before = sys.getallocatedblocks() if blocks else 0
            frame = [0.0, 0]  # child seconds, child blocks
            stack.append(frame)
            start = clock()
            begin = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                done = time.perf_counter()
                end = clock()
                stack.pop()
                delta = sys.getallocatedblocks() - before if blocks else 0
                work = count(result) if count and result is not None else None
                recorder.record(
                    layer, start, end, (done - begin) - frame[0],
                    delta - frame[1], work,
                )
                leave = time.perf_counter()
                if stack:
                    stack[-1][0] += leave - enter
                    stack[-1][1] += delta
                with recorder._lock:
                    recorder.overhead_s += (begin - enter) + (leave - done)

        traced.__perfbench_wrapped__ = fn
        return traced

    def record(self, layer, start, end, self_s, self_blocks, work) -> None:
        self.spans.append((
            layer, threading.get_ident(), self.op, start, end,
            self_s, self_blocks, work,
        ))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
        else:
            end = clock()
            self.record("gc", self._gc_start, end, end - self._gc_start,
                         0, info.get("collected", 0))


def _resolve(path: str):
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def install(recorder: SpanRecorder, service: bool = False) -> None:
    """Wrap every target.  Raises when a named function or module is
    gone (a rename must fail the traced run, not read as zero time)."""
    for layer, name, modules, count, blocks in FUNCTION_TARGETS:
        for module_name in modules:
            module = importlib.import_module(module_name)
            original = getattr(module, name)  # AttributeError on a rename
            original = getattr(original, "__perfbench_wrapped__", original)
            setattr(module, name, recorder.wrap(layer, original, count, blocks))
    targets = list(METHOD_TARGETS) + (list(SERVICE_TARGETS) if service else [])
    for layer, path, count, blocks in targets:
        owner, attr = _resolve(path)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(
                recorder.wrap(layer, raw.__func__, count, blocks)
            )
        else:
            replacement = recorder.wrap(layer, raw, count, blocks)
        setattr(owner, attr, replacement)
    gc.callbacks.append(recorder._on_gc)


def required_layers(workload: str) -> Tuple[str, ...]:
    from repro.interproc.flatcore import resolve_solver_core

    layers = REQUIRED[workload]
    if workload != "serve-edit" and resolve_solver_core(None) == "flat":
        layers += ("psg.arena",)
    return layers


def check_coverage(workload: str, spans: Sequence[tuple]) -> None:
    """Raise when a layer the workload must exercise has no timed span."""
    seen = {span[0] for span in spans}
    missing = [layer for layer in required_layers(workload)
               if layer not in seen]
    if missing:
        raise RuntimeError(
            f"traced run of {workload} recorded no span for: "
            + ", ".join(missing)
        )


def summarize(spans: Sequence[tuple], ops: int) -> Dict[str, float]:
    """Per-op self seconds, block deltas and work counts per layer,
    over ``ops`` timed ops."""
    totals: Dict[str, float] = {}
    for layer, _tid, _op, _start, _end, self_s, blocks, work in spans:
        totals[layer + ".s"] = totals.get(layer + ".s", 0.0) + self_s
        totals[layer + ".calls"] = totals.get(layer + ".calls", 0) + 1
        totals[layer + ".blocks"] = totals.get(layer + ".blocks", 0) + blocks
        if isinstance(work, (list, tuple)):
            for index, value in enumerate(work):
                key = f"{layer}.work{index}"
                totals[key] = totals.get(key, 0) + value
        elif work is not None:
            totals[layer + ".work"] = totals.get(layer + ".work", 0) + work
    return {key: value / max(ops, 1) for key, value in totals.items()}


def to_chrome_trace(spans: Sequence[tuple], pid: int) -> List[dict]:
    """Spans as Chrome/Perfetto complete events (microseconds)."""
    return [
        {
            "name": layer, "ph": "X", "pid": pid, "tid": tid,
            "ts": start * 1e6, "dur": (end - start) * 1e6,
            "args": {"op": op, "self_s": self_s, "blocks": blocks,
                     "work": work},
        }
        for layer, tid, op, start, end, self_s, blocks, work in spans
    ]
