"""A ``repro.service.run_worker`` process with the span wrappers installed.

The traced ``service-search`` pass runs its coordinator with
``workers=0`` (external workers) and starts two of these instead of
``repro worker`` subprocesses.  Each worker serves the queue until the
coordinator closes it, then writes its spans as JSON.

Usage: python3 perfbench/traced_worker.py QUEUE_DB SPANS_OUT LEASE_SIZE POLL_S
"""

import json
import sys

from checkout import use_checkout_source

if __name__ == "__main__":
    use_checkout_source()
    from repro.service import run_worker
    from spans import Tracer, install

    queue_path, spans_out, lease_size, poll_s = sys.argv[1:5]
    tracer = Tracer()
    install(tracer)
    try:
        tracer.span("service.worker.run", run_worker, queue_path, queue_path,
                    lease_size=int(lease_size), poll_s=float(poll_s))
    finally:
        tracer.uninstall()
        with open(spans_out, "w") as handle:
            json.dump(tracer.spans, handle)
