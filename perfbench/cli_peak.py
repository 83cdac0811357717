"""Run one ``rssifit`` command and print its peak resident memory in KiB.

Usage: python perfbench/cli_peak.py ARG...   (with the checkout's src on PYTHONPATH)

Runs ``python -m rssifit.cli ARG...`` with its output discarded, and exits
with its exit code. The command runs in a child of this small process
because Linux carries a parent's peak resident memory over into a child's
``ru_maxrss``; started straight from the benchmark, every command would
report at least the benchmark's own peak.
"""

import os
import sys


def main() -> int:
    pid = os.fork()
    if pid == 0:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        try:
            os.execv(sys.executable, [sys.executable, "-m", "rssifit.cli", *sys.argv[1:]])
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    print(usage.ru_maxrss)
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
