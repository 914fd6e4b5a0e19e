"""The timed closed loops, one fresh interpreter per workload run.

``python3 perfbench/worker.py WORKLOAD MANIFEST OUT --seconds S --seed N
--trace 0|1`` runs one workload against the inputs named in MANIFEST
and writes every op's latency and answer (never judged here: the
caller compares answers with the oracle) to OUT as JSON.
``--probe`` instead performs only the workload's set-up and writes the
wall-clock time at which it was ready, for repeated set-up samples.

Timed intervals contain only the operation a user waits for; reading
input files, garbage collection between ops, digesting answers and
every check happen outside them.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPException
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (the benchmark's own module)

#: store-family: passes over the family, each with a fresh store.
MIN_PASSES = 2
#: serve-edit: the request mix of one round, and how long a client
#: may wait for the other before the run fails.
ROUND_TIMEOUT_S = 120.0
QUERIES_PER_ROUND = 4
WARM_PER_ROUND = 4
#: In-process warm repeats (the retained result re-rendered) per op.
WARM_REPEATS = 20


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counters(registry, snapshot) -> dict:
    return {
        key: value
        for key, value in registry.delta_since(snapshot).items()
        if isinstance(value, (int, float))
    }


class Loop:
    """Shared bookkeeping of one in-process workload run."""

    def __init__(self, seconds: float, recorder) -> None:
        from repro.obs.metrics import REGISTRY

        self.seconds = seconds
        self.recorder = recorder
        self.ops: list = []
        self.registry = REGISTRY
        self.snapshot = None
        self.first_op_wall = None
        self.started = None

    def begin(self) -> None:
        self.snapshot = self.registry.snapshot()
        self.first_op_wall = time.time()
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def timed(self, kind: str, fn):
        """Run ``fn`` as one timed op; returns (result, seconds)."""
        if self.recorder is not None:
            self.recorder.op = len(self.ops)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as error:  # a failed op is counted, not fatal
            seconds = time.perf_counter() - start
            self.ops.append({"kind": kind, "s": seconds, "error": repr(error)})
            return None, seconds
        finally:
            if self.recorder is not None:
                self.recorder.op = None
        seconds = time.perf_counter() - start
        return result, seconds

    def result(self) -> dict:
        return {
            "ops": self.ops,
            "first_op_wall": self.first_op_wall,
            "ready_wall": self.first_op_wall,
            "peak_rss_mb": _rss_mb(),
            "counters": _counters(self.registry, self.snapshot),
        }


def _warm_repeats(loop: Loop, session, image: str) -> None:
    """Re-render the retained result ``WARM_REPEATS`` times, timed the way
    ``timeit`` times a statement: with the cyclic collector paused.  A
    collection started inside a render would scan the heap the analysis
    left behind, and whether one starts there depends on allocation
    counts carried over from the analysis, not on the render."""
    gc.collect()
    for _ in range(WARM_REPEATS):
        gc.disable()
        try:
            payload, seconds = loop.timed("warm", session.to_json)
        finally:
            gc.enable()
        if payload is not None:
            loop.ops.append({"kind": "warm", "s": seconds, "image": image,
                             "crc": payload["summaries_crc64"]})


def run_store_family(loop: Loop, manifest: dict, scratch: Path) -> dict:
    from repro.api import AnalysisConfig, AnalysisSession
    from repro.interproc.results import summaries_digest
    from repro.interproc.store import SummaryStore

    blobs = [(e["name"], Path(e["path"]).read_bytes())
             for e in manifest["images"]]
    loop.begin()
    passes = 0
    while passes < MIN_PASSES or loop.elapsed() < loop.seconds:
        store_dir = scratch / f"store-{passes}"
        store_dir.mkdir(parents=True)
        config = AnalysisConfig(store=SummaryStore(str(store_dir)))
        for version, (name, blob) in enumerate(blobs, start=1):
            gc.collect()

            def solve():
                session = AnalysisSession.from_image_bytes(blob, config)
                return session, session.analyze_incremental()

            outcome, seconds = loop.timed("variant", solve)
            if outcome is None:
                continue
            session, analysis = outcome
            metrics = analysis.metrics
            loop.ops.append({
                "kind": "miss" if version == 1 else "hit",
                "s": seconds, "image": name, "pass": passes,
                "crc": summaries_digest(analysis.result),
                "instructions": session.program.instruction_count,
                "solved": metrics.phase1_solved + metrics.phase2_solved,
                "routines": 2 * metrics.routines_total,
            })
            _warm_repeats(loop, session, name)
            del session, analysis, outcome
        shutil.rmtree(store_dir)
        passes += 1
    return loop.result()


# ----------------------------------------------------------------------
# serve-edit: a daemon in its own process, two client threads here
# ----------------------------------------------------------------------


def spawn_daemon(scratch: Path, trace: bool):
    """Start ``spike-analyze serve`` on a unix socket under
    ``scratch``; returns (process, socket path, spans path)."""
    scratch.mkdir(parents=True, exist_ok=True)
    socket_path = os.path.relpath(scratch / "d.sock")
    spans_path = scratch / "daemon-spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if trace:
        command = [sys.executable, str(HERE / "daemon.py"), str(spans_path),
                   "serve", "--socket", socket_path]
    else:
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--socket", socket_path]
    with open(scratch / "daemon.log", "ab") as log:
        process = subprocess.Popen(
            command, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=log,
        )
    return process, socket_path, spans_path


def wait_healthy(client, process, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"daemon exited with {process.returncode}")
        try:
            if client.healthz().status == 200:
                return
        except OSError:
            pass
        time.sleep(0.01)
    raise RuntimeError("daemon did not become healthy")


def stop_daemon(process) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def _daemon_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def _request(client, kind: str, call, recorder):
    """One client request: (record, payload).  Error responses, broken
    connections and unreadable bodies are recorded as failed ops."""
    from repro.service.client import ServiceError

    start = time.perf_counter()
    began = layers.clock()
    try:
        response = call()
    except (ServiceError, OSError, ValueError, HTTPException) as error:
        return {"kind": kind, "s": time.perf_counter() - start,
                "error": repr(error)}, None
    seconds = time.perf_counter() - start
    if recorder is not None:
        recorder.record("client.request", began, layers.clock(), seconds,
                        0, None)
    return {
        "kind": kind, "s": seconds, "status": response.status,
        "warm": response.warm,
        "bytes": int(response.headers.get("Content-Length", 0)),
    }, response.payload


def _edit(client, blob, routine):
    return client.analyze(blob, edit={"routine": routine})


def _rounds(entry, rng):
    """The client's endless stream of rounds: one edit, then queries
    interleaved with warm repeats.  Edits and queries each walk their
    pool in a seeded order; edit costs differ by routine, so walking
    the pool (not drawing from it) keeps each run's mix of cheap and
    costly edits alike."""
    edits = sorted(entry["edits"])
    queries = sorted(entry["queries"])
    rng.shuffle(edits)
    rng.shuffle(queries)
    position = 0
    for count in itertools.count():
        round_ = [("edit", edits[count % len(edits)])]
        for step in range(max(QUERIES_PER_ROUND, WARM_PER_ROUND)):
            if step < QUERIES_PER_ROUND:
                round_.append(("query", queries[position % len(queries)]))
                position += 1
            if step < WARM_PER_ROUND:
                round_.append(("warm", None))
        yield round_


class Lockstep:
    """Sends the clients' requests in lockstep: request k of every
    client starts together, so each kind meets the same kind on the
    other client (edit beside edit, query beside query) and the
    contention a request sees is the same from run to run instead of
    drifting with the clients' relative phase.  Before each request the
    clients decide together whether to go on: through one full round,
    then until ``seconds`` have elapsed.  Stopping between any two
    requests, not only between rounds, keeps the request mix of a run
    from jumping with the number of whole rounds that fit."""

    def __init__(self, clients: int, seconds: float, round_length: int):
        self.seconds = seconds
        self.round_length = round_length
        self.started = None
        self.sent = 0
        self.stop = False
        self.barrier = threading.Barrier(clients, action=self._decide,
                                         timeout=ROUND_TIMEOUT_S)

    def _decide(self) -> None:
        now = time.perf_counter()
        if self.started is None:
            self.started = now
        self.stop = (self.sent >= self.round_length
                     and now - self.started >= self.seconds)
        self.sent += 1

    def proceed(self) -> bool:
        self.barrier.wait()
        return not self.stop


def serve_client(index, entry, client, lockstep, seed, recorder, records):
    """One closed-loop client on its own image: each request is sent
    when the previous one was answered (and, in lockstep, when the
    other client's was)."""
    blob = Path(entry["path"]).read_bytes()
    calls = {
        "edit": lambda routine: _edit(client, blob, routine),
        "query": lambda routine: client.query(blob, routine=routine),
        "warm": lambda _routine: client.analyze(blob),
    }
    try:
        for round_ in _rounds(entry, random.Random(seed * 97 + index)):
            for kind, routine in round_:
                if not lockstep.proceed():
                    return
                record, payload = _request(
                    client, kind, lambda: calls[kind](routine), recorder)
                records.append(_checked(record, payload, entry,
                                        routine=routine))
    except BaseException:
        lockstep.barrier.abort()
        raise


def _checked(record, payload, entry, routine=None) -> dict:
    """Attach what the caller needs to judge the answer."""
    from inputs import summary_hash

    record["image"] = entry["name"]
    if routine is not None:
        record["routine"] = routine
    if payload is not None:
        if record["kind"] == "query":
            rendered = payload.get("summary")
            record["summary"] = rendered and summary_hash(rendered)
        else:
            record["crc"] = payload.get("summaries_crc64")
        record["stats"] = {
            key: payload[key]
            for key in ("phase1_solved", "phase2_solved", "routines_total",
                        "phase1_cone_routines", "phase2_cone_routines",
                        "phase2_reused")
            if key in payload
        }
    return record


def _prime(client, entry, records) -> None:
    """The once-per-image costs a user pays before the loop: first
    (cold) analyze, the edit seed, and the first query."""
    blob = Path(entry["path"]).read_bytes()
    seed_routine = sorted(entry["edits"])[0]
    first_query = sorted(entry["queries"])[0]
    for kind, call, routine in (
        ("prime-cold", lambda: client.analyze(blob), None),
        ("prime-edit", lambda: _edit(client, blob, seed_routine),
         seed_routine),
        ("prime-query", lambda: client.query(blob, routine=first_query),
         first_query),
    ):
        record, payload = _request(client, kind.split("-")[1], call, None)
        record["prime"] = True
        records.append(_checked(record, payload, entry, routine=routine))


def run_serve_edit(manifest: dict, seconds: float, seed: int, scratch: Path,
                   recorder) -> dict:
    from repro.service.client import ServiceClient

    process, socket_path, spans_path = spawn_daemon(scratch, recorder is not None)
    try:
        client = ServiceClient.unix(socket_path)
        wait_healthy(client, process)
        ready_wall = time.time()
        records: list = []
        for entry in manifest["images"]:
            _prime(client, entry, records)
        before = client.metricsz(include_histograms=True)
        first_op_wall = time.time()
        window = [layers.clock()]
        lockstep = Lockstep(len(manifest["images"]), seconds,
                            1 + QUERIES_PER_ROUND + WARM_PER_ROUND)
        threads = [
            threading.Thread(
                target=serve_client,
                args=(index, entry, ServiceClient.unix(socket_path),
                      lockstep, seed, recorder, records),
            )
            for index, entry in enumerate(manifest["images"])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if lockstep.barrier.broken:
            raise RuntimeError("a serve-edit client failed")
        elapsed = time.perf_counter() - lockstep.started
        window.append(layers.clock())
        after = client.metricsz(include_histograms=True)
        peak = _daemon_hwm_mb(process.pid)
    finally:
        stop_daemon(process)
    result = {
        "ops": records,
        "ready_wall": ready_wall,
        "first_op_wall": first_op_wall,
        "elapsed_s": elapsed,
        "peak_rss_mb": peak,
        "metricsz": {"before": before, "after": after},
        "window": window,
    }
    if recorder is not None:
        result["daemon"] = json.loads(spans_path.read_text())
    return result


# ----------------------------------------------------------------------
# Set-up probes and entry point
# ----------------------------------------------------------------------


def probe(workload: str, manifest: dict, scratch: Path) -> float:
    """Perform only the workload's set-up; return when it was ready."""
    if workload == "serve-edit":
        from repro.service.client import ServiceClient

        process, socket_path, _ = spawn_daemon(scratch, False)
        try:
            wait_healthy(ServiceClient.unix(socket_path), process)
            return time.time()
        finally:
            stop_daemon(process)
    import repro.api  # noqa: F401

    for entry in manifest["images"]:
        Path(entry["path"]).read_bytes()
    if workload == "store-family":
        (scratch / "store-probe").mkdir(parents=True)
    return time.time()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("manifest")
    parser.add_argument("out")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    manifest = json.loads(Path(args.manifest).read_text())
    out = Path(args.out)
    scratch = out.parent / (out.stem + ".d")
    if args.probe:
        out.write_text(json.dumps({"ready_wall": probe(
            args.workload, manifest, scratch)}))
        return 0

    recorder = None
    if args.trace:
        recorder = layers.SpanRecorder()
        if args.workload != "serve-edit":  # the daemon traces its own layers
            layers.install(recorder)
    if args.workload == "serve-edit":
        result = run_serve_edit(manifest, args.seconds, args.seed, scratch,
                                recorder)
    else:
        result = run_store_family(Loop(args.seconds, recorder), manifest,
                                  scratch)
    if recorder is not None:
        result["spans"] = recorder.spans
        result["overhead_s"] = recorder.overhead_s
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
