"""The facade pauses the cyclic garbage collector during each run.

:class:`repro.api.AnalysisSession` disables the collector for the
duration of every decode, analysis, query and ``to_json`` call and
restores it afterwards.  That is only safe while a run leaves no cyclic
garbage behind: anything a paused collector would have freed mid-run
accumulates until the next collection between runs.  The first class
holds every run kind to zero cyclic garbage on the Table-2 shapes, so a
change that introduces a reference cycle fails here and names the run
kind.  The daemon's request handling is held to the same standard,
since the collector pause only helps a server whose requests leave
nothing for the collector to find.  The rest pin the pause's
bookkeeping: exceptions, nesting, overlapping threads and a caller that
disabled the collector itself.
"""

import gc
import threading

import pytest

import repro.api
from repro.api import AnalysisConfig, AnalysisSession, UnknownRoutineError
from repro.interproc.analysis import InterproceduralAnalysis
from repro.interproc.store import SummaryStore
from repro.program.image import ImageFormatError
from repro.program.rewrite import program_to_image
from repro.service.client import ServiceClient
from repro.service.daemon import AnalysisDaemon, ServiceConfig
from repro.workloads.generator import GeneratorConfig, generate_benchmark
from repro.workloads.mutate import first_editable_routine, perturb_routine

SHAPES = ["compress", "li", "perl", "vortex"]


@pytest.fixture(autouse=True)
def _collector_restored():
    """Leave the collector enabled for the rest of the suite, whatever
    a failing test did to it."""
    yield
    gc.enable()


@pytest.fixture(scope="module", params=SHAPES)
def shaped(request):
    program, _shape = generate_benchmark(
        request.param, scale=0.04, config=GeneratorConfig(seed=0)
    )
    return program, program_to_image(program).to_bytes()


def _session(program, store_dir=None):
    config = None
    if store_dir is not None:
        config = AnalysisConfig(store=SummaryStore(str(store_dir)))
    return AnalysisSession.from_program(program, config)


def _cold_cache(program):
    return _session(program).analyze_incremental().cache


def _prepare(kind, program, blob, store_dir):
    """A zero-argument callable performing one run of ``kind``; the
    state it starts from is built here, outside the measurement."""
    routine = program.routines[-1].name
    if kind == "decode":
        return lambda: AnalysisSession.from_image_bytes(blob)
    if kind == "cold analyze":
        return lambda: _session(program).analyze()
    if kind == "to_json":
        session = _session(program)
        session.analyze()
        return lambda: session.to_json(include_summaries=True)
    if kind == "cold incremental":
        return lambda: _session(program).analyze_incremental()
    if kind == "warm incremental":
        cache = _cold_cache(program)
        return lambda: _session(program).analyze_incremental(cache)
    if kind == "edit":
        cache = _cold_cache(program)
        edited = perturb_routine(program, first_editable_routine(program))
        return lambda: _session(edited).analyze_incremental(cache)
    if kind == "cold query":
        return lambda: _session(program).query(routine)
    if kind == "warm query":
        session = _session(program)
        session.query(routine)
        return lambda: session.query(routine)
    if kind == "store miss":
        return lambda: _session(program, store_dir).analyze_incremental()
    if kind == "store hit":
        _session(program, store_dir).analyze_incremental()
        return lambda: _session(program, store_dir).analyze_incremental()
    raise AssertionError(kind)


RUN_KINDS = [
    "decode", "cold analyze", "to_json", "cold incremental",
    "warm incremental", "edit", "cold query", "warm query",
    "store miss", "store hit",
]


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("kind", RUN_KINDS)
    def test_run_leaves_no_cyclic_garbage(self, kind, shaped, tmp_path):
        program, blob = shaped
        run = _prepare(kind, program, blob, tmp_path / "store")
        gc.collect()
        gc.disable()
        try:
            retained = run()
            garbage = gc.collect()
        finally:
            gc.enable()
        assert retained is not None
        assert garbage == 0, (
            f"a {kind} run left {garbage} objects of cyclic garbage; the "
            "facade's collector pause would accumulate them"
        )


class TestDaemonResponses:
    def test_requests_leave_no_cyclic_garbage(self):
        """Served analyze, query and edit round trips, cold and warm,
        leave nothing for the collector (the response encoder
        included)."""
        program, _shape = generate_benchmark(
            "compress", scale=0.04, config=GeneratorConfig(seed=0)
        )
        blob = program_to_image(program).to_bytes()
        routine = program.routines[-1].name
        daemon = AnalysisDaemon(ServiceConfig(port=0))
        thread = threading.Thread(target=daemon.serve_forever)
        thread.start()
        try:
            host, port = daemon.server.server_address[:2]
            client = ServiceClient.tcp(host, port)
            gc.collect()
            gc.disable()
            try:
                for _ in range(3):
                    assert client.analyze(blob).status == 200
                    assert client.query(blob, routine=routine).status == 200
                    assert client.analyze(blob, edit={}).status == 200
                garbage = gc.collect()
            finally:
                gc.enable()
        finally:
            daemon.drain()
            thread.join(timeout=30)
        assert garbage == 0, (
            f"9 daemon requests left {garbage} objects of cyclic garbage"
        )


@pytest.fixture()
def quick_session(quick_program):
    return AnalysisSession.from_program(quick_program)


def _observe_collector(monkeypatch, during, hook=None):
    """Wrap the serial driver as the facade calls it, recording whether
    the collector was enabled inside the run (and running ``hook``)."""
    original = repro.api._analyze_program

    def observed(*args, **kwargs):
        during.append(gc.isenabled())
        if hook is not None:
            hook()
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.api, "_analyze_program", observed)


class TestPauseBookkeeping:
    def test_paused_inside_a_run_and_restored_after(
        self, quick_session, monkeypatch
    ):
        during = []
        _observe_collector(monkeypatch, during)
        gc.enable()
        quick_session.analyze()
        assert during == [False]
        assert gc.isenabled()

    def test_restored_after_an_exception(self, quick_session):
        gc.enable()
        with pytest.raises(UnknownRoutineError):
            quick_session.query("no_such_routine")
        assert gc.isenabled()
        with pytest.raises(ImageFormatError):
            AnalysisSession.from_image_bytes(b"not an image")
        assert gc.isenabled()

    def test_nested_runs_restore_only_at_the_outermost_exit(
        self, quick_session, monkeypatch
    ):
        # to_json() with nothing analyzed runs analyze() inside itself;
        # the render after the inner run returns is still paused.
        during = []
        _observe_collector(monkeypatch, during)
        render = InterproceduralAnalysis.to_json

        def observed_render(self, *args, **kwargs):
            during.append(gc.isenabled())
            return render(self, *args, **kwargs)

        monkeypatch.setattr(InterproceduralAnalysis, "to_json", observed_render)
        gc.enable()
        quick_session.to_json()
        assert during == [False, False]
        assert gc.isenabled()

    def test_overlapping_threads_restore_when_the_last_exits(
        self, quick_program, monkeypatch
    ):
        entered = threading.Event()
        release = threading.Event()
        during = []
        _observe_collector(
            monkeypatch, during, hook=lambda: (entered.set(), release.wait(30))
        )
        gc.enable()
        slow = AnalysisSession.from_program(quick_program)
        worker = threading.Thread(target=slow.analyze)
        worker.start()
        try:
            assert entered.wait(30)
            # A second run starts and finishes while the first is
            # still inside its solve: the collector stays paused.
            AnalysisSession.from_program(quick_program).query("helper")
            assert not gc.isenabled()
        finally:
            release.set()
            worker.join(30)
        assert not worker.is_alive()
        assert during == [False]
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self, quick_session):
        gc.disable()
        quick_session.analyze()
        quick_session.query("helper")
        quick_session.to_json()
        assert not gc.isenabled()
