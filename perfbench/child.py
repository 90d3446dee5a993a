"""Run one cee subcommand in a fresh interpreter and report its timings.

Usage: python3 perfbench/child.py REPORT TRACE CEE_ARG...

Runs ``cee.cli.main(CEE_ARG...)`` as the ``cee`` console script would, with
``src`` on ``PYTHONPATH``. It stamps the first call into the subcommand's
input reader (the end of set-up: interpreter start, ``import cee`` and the
taxonomy load all come before it) and the return from ``main``, and writes
them, the exit code, peak RSS and, when TRACE is 1, the trace to REPORT as
JSON. Times are ``time.monotonic``, comparable with the parent process.
"""

import json
import resource
import sys
import time

from cee import cli

READERS = ("read_stories", "read_detections", "read_transactions")


def main() -> int:
    report_path, trace, cee_argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stamps: dict[str, float] = {}

    def stamped(fn):
        def wrapper(*args, **kwargs):
            stamps.setdefault("setup_end", time.monotonic())
            return fn(*args, **kwargs)

        return wrapper

    for name in READERS:
        setattr(cli, name, stamped(getattr(cli, name)))
    rc = cli.main(cee_argv)
    report = {
        "rc": rc,
        "setup_end": stamps.get("setup_end"),
        "end": time.monotonic(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    with open(report_path, "w", encoding="utf-8") as f:
        json.dump(report, f)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
