"""Starts a host-speed sampler in a Python process the benchmark does not start itself.

Python imports ``sitecustomize`` at start-up from the path, so putting
this directory on ``PYTHONPATH`` reaches the service's worker, which
ServiceApp spawns.  The sampler runs only when ``PERFBENCH_HOSTSPEED_DIR``
is set; each process then logs its samples to
``$PERFBENCH_HOSTSPEED_DIR/<pid>.log`` (see ``hostspeed.py``).
"""

import os
import sys
from pathlib import Path

_dir = os.environ.get("PERFBENCH_HOSTSPEED_DIR")
if _dir:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from hostspeed import Sampler

    Sampler(log=Path(_dir) / f"{os.getpid()}.log").start()
    del sys.path[0]
