"""Run ``spike-analyze`` with the layer wrappers installed (traced run).

``python3 perfbench/daemon.py SPANS_JSON serve --socket PATH`` behaves
exactly like ``python3 -m repro.cli serve --socket PATH``, except that
every layer call inside the daemon records a span; the spans and the
recorder's own overhead are written to SPANS_JSON when it drains.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


def main(argv) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    recorder = layers.SpanRecorder()
    layers.install(recorder, service=True)
    from repro.cli import main as cli_main

    status = cli_main(cli_args)
    spans_path.write_text(json.dumps(
        {"spans": recorder.spans, "overhead_s": recorder.overhead_s}
    ))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
