"""Hierarchical span tracing for the analysis pipeline.

The tracer records *spans* — named, attributed wall-clock intervals —
around every interesting unit of work: CFG construction, DEF/UBD
initialisation, PSG build, per-SCC phase-1/phase-2 solves, incremental
invalidation, and summary-cache I/O.  Spans nest
naturally because they are plain context managers; the export renders
the nesting per thread.

Design constraints, in order:

1. **Near-zero cost when disabled.**  ``span(...)`` performs one
   attribute check and returns a shared no-op context manager — no
   allocation, no clock read.  Tracing is off unless the user passes
   ``--trace`` (or calls :func:`enable` directly).
2. **Wall-clock timestamps.**  Spans store ``perf_counter`` plus a
   wall offset sampled at tracer creation, so every span of a tracer
   shares one epoch.
3. **No dependencies.**  Export is Chrome trace-event JSON — the
   ``{"traceEvents": [...]}`` format — which Perfetto
   (https://ui.perfetto.dev) and ``chrome://tracing`` load directly.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, IO, List, Optional, Set, Tuple, Union

from repro.obs.runid import current_run_id, new_run_id

#: One recorded span: ``(name, start_wall, duration_s, pid, tid, args)``.
#: ``start_wall`` is seconds since the Unix epoch; ``args`` holds only
#: JSON-friendly scalars.
SpanRecord = Tuple[str, float, float, int, int, Dict[str, Any]]


class _NullSpan:
    """Shared no-op context manager handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """A live span: records itself into the tracer on ``__exit__``."""

    __slots__ = ("_tracer", "_name", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        # list.append is atomic under the GIL; spans from helper threads
        # interleave safely without a lock.
        tracer._spans.append(
            (
                self._name,
                self._start + tracer.wall_offset,
                end - self._start,
                os.getpid(),
                threading.get_ident(),
                self._args,
            )
        )
        return False


class Tracer:
    """Collects the spans recorded in this process."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: Correction from ``perf_counter`` time to wall-clock time,
        #: sampled once so every span in this process shares it.
        self.wall_offset = time.time() - time.perf_counter()
        self._spans: List[SpanRecord] = []

    # -- recording ----------------------------------------------------

    def span(self, name: str, **args: Any) -> Union[_Span, _NullSpan]:
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, args)

    def record(
        self,
        name: str,
        start_wall: float,
        duration: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append a pre-measured span (rarely needed; prefer ``span``)."""
        self._spans.append(
            (name, start_wall, duration, os.getpid(),
             threading.get_ident(), args or {})
        )

    # -- inspection / export ------------------------------------------

    @property
    def spans(self) -> List[SpanRecord]:
        return list(self._spans)

    def pids(self) -> Set[int]:
        return {record[3] for record in self._spans}

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Render the buffer as a Chrome trace-event JSON document."""
        records = list(self._spans)
        origin = min((record[1] for record in records), default=0.0)
        events: List[Dict[str, Any]] = []
        for name, start_wall, duration, pid, tid, args in records:
            event: Dict[str, Any] = {
                "name": name,
                "cat": "repro",
                "ph": "X",
                "ts": round((start_wall - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": pid,
                "tid": tid,
            }
            if args:
                event["args"] = {
                    key: value
                    if isinstance(value, (int, float, bool)) or value is None
                    else str(value)
                    for key, value in args.items()
                }
            events.append(event)
        for pid in sorted(self.pids()):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": "main"},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs.tracer",
                "run_id": current_run_id() or "",
            },
        }

    def export(self, destination: Union[str, IO[str]]) -> int:
        """Write the Chrome trace JSON to a path or open text file.

        Returns the number of spans exported.
        """
        document = self.to_chrome_trace()
        if hasattr(destination, "write"):
            json.dump(document, destination)  # type: ignore[arg-type]
        else:
            with open(destination, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
        return len(self._spans)


_TRACER = Tracer(enabled=False)

# Per-thread tracer override.  The service daemon handles concurrent
# requests on separate threads and offers opt-in per-request tracing
# (``X-Repro-Trace: 1``); a single process-wide tracer would interleave
# every in-flight request's spans.  A request thread pushes its own
# tracer here and every ``span()``/``get_tracer()``/``is_enabled()``
# call on that thread uses it — including the solver internals, which
# never know they are inside a request.
_LOCAL = threading.local()


def push_local_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """Install a per-thread tracer override (request-scoped tracing).

    Returns the installed tracer (a fresh enabled one by default).
    Pair with :func:`pop_local_tracer` in a ``finally``.
    """
    if tracer is None:
        tracer = Tracer(enabled=True)
    _LOCAL.tracer = tracer
    return tracer


def pop_local_tracer() -> Optional[Tracer]:
    """Remove and return this thread's tracer override, if any."""
    tracer = getattr(_LOCAL, "tracer", None)
    _LOCAL.tracer = None
    return tracer


def get_tracer() -> Tracer:
    local = getattr(_LOCAL, "tracer", None)
    return local if local is not None else _TRACER


def is_enabled() -> bool:
    local = getattr(_LOCAL, "tracer", None)
    return local.enabled if local is not None else _TRACER.enabled


def enable() -> Tracer:
    """Install a fresh, enabled tracer (discarding any prior buffer),
    minting a run id if none is active yet.  Used by the CLI's
    ``--trace`` flag.
    """
    global _TRACER
    if current_run_id() is None:
        new_run_id()
    _TRACER = Tracer(enabled=True)
    return _TRACER


def disable() -> Tracer:
    """Install a fresh, disabled tracer (discarding any prior buffer)."""
    global _TRACER
    _TRACER = Tracer(enabled=False)
    return _TRACER


def span(name: str, **args: Any) -> Union[_Span, _NullSpan]:
    """Open a span on the process-wide tracer.

    This is the instrumentation entry point used throughout the
    pipeline; when tracing is disabled it costs one thread-local
    lookup and one attribute check.
    """
    tracer = getattr(_LOCAL, "tracer", None) or _TRACER
    if not tracer.enabled:
        return NULL_SPAN
    return _Span(tracer, name, args)
