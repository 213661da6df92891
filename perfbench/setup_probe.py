"""Set-up probe: a fresh interpreter up to the workload's first call.

Imports ``repro.api``, builds the workload's request, and prints the
``time.perf_counter()`` reading at the point where the workload's
entrypoint would be called.  ``run.py`` starts this script several
times and subtracts its own reading taken just before each start.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

from checkout import use_checkout_source

if __name__ == "__main__":
    use_checkout_source()
    import repro.api  # noqa: F401 - the import cost is part of set-up
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
    print(repr(time.perf_counter()))
