"""Set-up probe, started by ``run.py`` as a fresh process: imports
wmgraph and builds one workload's fixed inputs under ``HostSpeed``.

    python3 bench/setup_probe.py <workload>

Prints the ``time.monotonic()`` at which the inputs were built and the
host speed factor (normalized over measured seconds) of the stretch
from this script's first line to that moment.
"""

import sys
import time

from hostspeed import HostSpeed

with HostSpeed() as host:
    first = time.perf_counter()
    import run
    run.import_workloads().WORKLOADS[sys.argv[1]].setup()
    built, built_mono = time.perf_counter(), time.monotonic()
print(built_mono, host.normalized(first, built) / (built - first))
