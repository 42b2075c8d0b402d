"""One benchmark job in a fresh interpreter: one ``ckq`` command line.

Usage: python3 perfbench/worker.py '<json list of ckq arguments>' [--trace]

The worker imports ``ckq.cli`` from the checkout's ``src``, builds the
parser once, stamps the moment it is ready on the system-wide monotonic
clock, then runs ``ckq.cli.main(argv)`` with standard output captured in
memory and times it with ``perf_counter``.  It prints one JSON object on
its own standard output: exit code, wall time, output digest, verdicts of a
``verify --format json`` document, peak RSS and, with ``--trace``, the
tracer's aggregates.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ckq import cli  # noqa: E402

cli.build_parser()
READY = time.clock_gettime(time.CLOCK_MONOTONIC)


def _verdicts(argv, text):
    if not argv or argv[0] != "verify":
        return None
    try:
        doc = json.loads(text)
        return [[r["suite"], r["status"]] for r in doc["results"]]
    except (ValueError, KeyError, TypeError):
        return None


def run(argv, trace):
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # reported as a failed job, not a crash here
        code = None
        error = "%s: %s" % (type(exc).__name__, exc)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    text = buf.getvalue()
    out = text.encode("utf-8")
    return {
        "ready": READY,
        "exit": code,
        "error": error,
        "wall_s": wall,
        "sha256": hashlib.sha256(out).hexdigest(),
        "bytes": len(out),
        "verdicts": _verdicts(argv, text),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.snapshot() if tracer is not None else None,
    }


if __name__ == "__main__":
    result = run(json.loads(sys.argv[1]), "--trace" in sys.argv[2:])
    sys.stdout.write(json.dumps(result) + "\n")
