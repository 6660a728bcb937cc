"""One service worker with every layer traced.

    python3 perfbench/trace_worker.py --trace-out PREFIX <worker args>

Installs the benchmark's span wrappers, then runs
:func:`repro.service.worker.main` with the remaining arguments (the same
ones ServiceApp gives its own workers).  Each claimed job opens a new
trace segment named after the job id.  On exit (SIGTERM ends the pull
loop) the per-segment statistics go to ``PREFIX.stats.json`` and the
kept spans to ``PREFIX.spans.json.gz``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from tracer import Tracer, install


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="trace_worker")
    parser.add_argument("--trace-out", required=True, type=Path)
    args, worker_args = parser.parse_known_args(argv)

    from repro.service import worker

    tracer = Tracer()
    tracer.segment = "idle"
    inst = install(tracer)
    try:
        return worker.main(worker_args)
    finally:
        inst.undo()
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        prefix = str(args.trace_out)
        Path(prefix + ".stats.json").write_text(json.dumps(tracer.stats()))
        tracer.write(Path(prefix + ".spans.json.gz"))


if __name__ == "__main__":
    sys.exit(main())
