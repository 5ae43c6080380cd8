"""Lean process that starts and reaps the benchmark's children.

Protocol: one JSON request per line on stdin, ``{"cmd": [...],
"stdout": PATH}``; one JSON reply per line on stdout, ``{"exit", "wall",
"cpu", "maxrss_kb"}``.  Exits when stdin closes.

Why a separate process: on Linux a child's ``ru_maxrss`` is at least the
peak RSS of the process that spawned it, because the child starts out on
its parent's address space.  Started from the benchmark driver (about
20 MB), every child would report the driver's size instead of its own.
This process stays well below the smallest bopcalc child (about 16 MB),
so the peak RSS that ``os.wait4`` reports is the child's own.
"""

import json
import os
import signal
import sys
import time

LIMIT_S = 150


def run(cmd, stdout_path):
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(LIMIT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    return {"exit": os.waitstatus_to_exitcode(status), "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["cmd"], request["stdout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
