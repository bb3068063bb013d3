"""Launch ``python -m repro ...`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/server.py [--trace-out FILE] --durable DIR serve --tcp 127.0.0.1:0

Without ``--trace-out`` this is exactly the ``repro`` CLI.  With it, every
function of :data:`perfbench.tracer.LAYER_TARGETS` is wrapped before the
server starts, and the spans are written to ``FILE`` after the server has
drained and returned.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from repro.__main__ import main as repro_main

    if trace_out is None:
        return repro_main(argv)
    from perfbench.tracer import Tracer, dump_spans

    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(argv)
    finally:
        tracer.uninstall()
        dump_spans(tracer.spans, trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
