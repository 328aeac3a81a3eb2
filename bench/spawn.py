"""Child-process launcher for run.py.

Runs each command it is sent, one at a time, and reports the child's wall
time, exit code and peak RSS.  A child's `ru_maxrss` also counts the memory
image it was forked from.  Started from the benchmark process, which holds
numpy, search state and parsed outputs, every child would report at least
that much.  This launcher stays small (about 10 MB), below any `lh`
process, so the peak it reports is the child's own.

Protocol: one JSON request per stdin line, {"argv", "cwd", "stdout",
"stderr", "timeout"}; one JSON reply per stdout line, {"wall_s", "rss_mb",
"rc"}.  The launcher ends when its stdin closes.
"""
import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN would
                # give the high-water mark over every child so far.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "rc": proc.returncode}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
