"""Run ``repro-serve`` (``repro.service.__main__.main``), optionally traced.

``python perfbench/serve.py [--trace-out PATH] <repro-serve arguments>``

With ``--trace-out`` the simulator layers inside the server process are
instrumented (see :mod:`tracer`) and, once the server has drained and
exited, their per-layer summary is written to ``PATH`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list) -> int:
    trace_out = None
    if "--trace-out" in argv:
        i = argv.index("--trace-out")
        trace_out = Path(argv[i + 1])
        argv = argv[:i] + argv[i + 2:]
    from repro.service.__main__ import main as serve

    tracer = None
    if trace_out is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    code = serve(argv)
    if tracer is not None:
        trace_out.write_text(json.dumps({
            "layers": tracing.summarize(tracer.spans),
            "counters": dict(tracer.counters),
            "peaks": dict(tracer.peaks),
            "spans": len(tracer.spans),
        }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
