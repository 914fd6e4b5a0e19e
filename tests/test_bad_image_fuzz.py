"""Seeded byte-mutation fuzzing of the CLI and the daemon.

Any byte string handed to ``spike-analyze analyze``/``query`` or to
``POST /v1/analyze`` must produce an answer or the documented bad-image
error (exit 3, HTTP 400) — never a traceback, a 500, or a session left
behind in the daemon's registry.  The mutants flip one to four bytes of
a small generated image; the fixed seed makes the set reproducible and
is checked to reach all three outcomes: an answer, a rejection while
decoding, and a rejection of decoded code that cannot form a CFG
(branches or jump tables aimed outside their routine).
"""

import random
import threading

import pytest

from repro.api import AnalysisSession
from repro.cli import main
from repro.program.image import ExecutableImage, ImageFormatError
from repro.service import AnalysisDaemon, ServiceClient, ServiceConfig
from repro.service.client import ServiceError
from repro.workloads.generator import GeneratorConfig, generate_image
from repro.workloads.shapes import shape_by_name

MUTANTS = 40
SEED = 1


def _mutants():
    shape = shape_by_name("compress").scaled(0.1)
    blob = generate_image(shape, GeneratorConfig(seed=1)).to_bytes()
    rng = random.Random(SEED)
    mutants = []
    for _ in range(MUTANTS):
        mutant = bytearray(blob)
        for _ in range(rng.randint(1, 4)):
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        mutants.append(bytes(mutant))
    return mutants


@pytest.fixture(scope="module")
def mutants():
    return _mutants()


def _outcome(blob):
    """``"answer"``, ``"decode"`` or ``"code"``: where the in-process
    facade accepts or rejects ``blob``."""
    try:
        session = AnalysisSession.from_image_bytes(blob)
    except ImageFormatError:
        return "decode"
    try:
        session.analyze()
    except ImageFormatError as error:
        assert "malformed code" in str(error)
        return "code"
    return "answer"


def _routine(blob):
    """A routine the mutant names (mutated symbols rename routines)."""
    try:
        return ExecutableImage.from_bytes(blob).symbols[-1].name
    except ImageFormatError:
        return "f0"


def test_seed_reaches_every_outcome(mutants):
    outcomes = {_outcome(blob) for blob in mutants}
    assert outcomes == {"answer", "decode", "code"}


def test_cli_analyze_and_query(mutants, tmp_path, capsys):
    for index, blob in enumerate(mutants):
        path = tmp_path / f"mutant{index}.sax"
        path.write_bytes(blob)
        for argv in (
            ["analyze", str(path)],
            ["query", str(path), _routine(blob)],
        ):
            code = main(argv)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert code in (0, 3), (index, argv[0], code, err)
            if code == 3:
                assert "cannot load image" in err


@pytest.fixture()
def daemon():
    instance = AnalysisDaemon(ServiceConfig(port=0))
    thread = threading.Thread(target=instance.serve_forever)
    thread.start()
    try:
        yield instance
    finally:
        instance.drain()
        thread.join(timeout=30)
        assert not thread.is_alive()


def test_daemon_analyze(mutants, daemon):
    host, port = daemon.server.server_address[:2]
    client = ServiceClient.tcp(host, port)
    for index, blob in enumerate(mutants):
        before = client.healthz().payload["sessions"]
        try:
            client.analyze(blob)
        except ServiceError as error:
            assert error.status == 400, (index, str(error))
            assert client.healthz().payload["sessions"] == before, index
