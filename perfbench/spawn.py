"""Lean launcher for benchmark children.

Linux carries the parent's peak resident set into a child's ``ru_maxrss``
across fork/vfork and exec, so children spawned straight from the benchmark
process (numpy, scipy and the input tables loaded) would report its peak as
theirs. This launcher imports nothing heavy; it reads one JSON request per
line on stdin, ``{"argv": [...], "stdout": PATH, "stderr": PATH}``, runs the
child to exit and answers with one JSON line of its exit code, wall time,
CPU time and peak RSS. A child still running after CHILD_TIMEOUT_S is killed,
so a hung command fails the run instead of hanging it. It exits when stdin
closes.
"""

import json
import os
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 150


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss": usage.ru_maxrss / 1024,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
