"""Run a command and report its wall time, exit code and peak memory.

Usage: ``python launch.py RESULT.json COMMAND [ARG ...]``

On Linux a process's ``ru_maxrss`` also counts the resident memory of
the parent it was forked (or vforked) from, so the benchmark process,
which holds its own inputs, cannot measure a child's peak directly.
This launcher is small: it forks the command from its own footprint,
waits for it, and writes ``wall_s`` (fork to exit), ``exit`` and
``peak_rss_mb`` as JSON to ``RESULT.json``. The command inherits the
launcher's standard streams and environment.
"""

import json
import os
import sys
import time


def main() -> int:
    result_path, command = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    _pid, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"wall_s": wall,
                   "exit": os.waitstatus_to_exitcode(status),
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
