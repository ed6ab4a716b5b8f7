"""Start one program and report its wall time, CPU time and peak memory.

    python3 -S bench/launch.py RESULT.json PROGRAM ARGS...

The benchmark starts every measured process through this small
interpreter.  Linux seeds a process's peak resident set, at exec, with
that of the process it was forked from, so a child spawned directly by
the benchmark (which holds oracle tables) would report the benchmark's
own memory.  The usage returned by wait4 covers the program and every
child it reaped, such as pool workers.
"""

import json
import os
import sys
import time

result, argv = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(result, "w", encoding="utf-8") as fh:
    json.dump({
        "code": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }, fh)
