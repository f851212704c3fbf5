"""Small spawner: runs one command per request and reports its wall time,
exit code and peak resident memory.

A child's ``ru_maxrss`` includes the memory of the process it was forked
from, so children are started from this small process rather than from
the benchmark itself, whose size would leak into their numbers.

Protocol: one JSON request per stdin line,
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s}``,
answered by one JSON line ``{"wall_s": .., "maxrss_kb": .., "returncode": ..}``.
The launcher exits when its stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            env=request["env"],
        )
        # SIGKILL on timeout; wait4 resumes after the handler and reaps it.
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, request["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
