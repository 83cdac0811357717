"""Run one ``rssifit`` command with span tracing, for the traced cli-session run.

Usage: python perfbench/cli_child.py SPANS_JSON ARG...

Behaves like ``python -m rssifit.cli ARG...`` (same stdout, stderr and exit
code) and, when the command ends, writes the spans it recorded to SPANS_JSON.
Span times are CLOCK_MONOTONIC nanoseconds, the clock the parent process
uses, so the parent can nest them inside its own op span.
"""

import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import rssifit.cli

    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_child()
    try:
        return rssifit.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
