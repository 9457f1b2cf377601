"""Starts run.py's child processes from a process that stays small.

Linux carries the parent's peak resident size into a child's ``ru_maxrss``
when the child is forked and execs, so a child started straight from run.py
(which holds numpy and parsed outputs) would report run.py's size whenever
that is larger than its own peak. run.py starts this launcher first, before
it grows, and every child is spawned from here.

Protocol: one JSON request per stdin line,
    {"argv": [...], "cwd": str, "env": {...}, "log": path, "timeout": seconds}
answered by one JSON line on stdout,
    {"wall_s": float, "rss_kb": int, "cpu_s": float, "code": int}
where wall runs from spawn to exit. A child still running after ``timeout``
seconds is killed. The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve(requests, replies) -> None:
    for line in requests:
        req = json.loads(line)
        with open(req["log"], "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({
            "wall_s": wall,
            "rss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "code": proc.returncode,
        }) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
