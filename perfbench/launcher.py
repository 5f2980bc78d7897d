"""Process launcher of the benchmark.

    python3 perfbench/launcher.py

Reads one JSON request per line on stdin, {"argv": [...], "stderr": FILE},
runs the command to completion with the launcher's environment and working
directory, and answers with one JSON line {"rc", "wall", "cpu",
"maxrss_kb"}.  It exits when stdin closes.

The measured processes are started from here rather than from the
benchmark itself because Linux reports as a child's max-RSS at least the
high-water RSS of the process that started it: started from the
benchmark, which holds parsed outputs, every command would look as large
as the benchmark.  This process stays small, so the numbers are the
commands' own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 120.0


def run(argv: list[str], stderr_path: str) -> dict:
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(TIMEOUT_S, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": p.returncode, "wall": wall, "cpu": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["argv"], req["stderr"])) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
