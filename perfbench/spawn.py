"""Run one command and record its wall time, CPU time and peak RSS.

    python3 perfbench/spawn.py RESULT_JSON TIMEOUT_S STDOUT STDERR -- CMD...

The benchmark starts every measured process through this small wrapper
instead of directly. On Linux a child's ru_maxrss also counts the peak RSS of
the process that spawned it (exec records the old address space's high-water
mark), so spawning from the benchmark process, which holds generated inputs
and numpy/scipy, would inflate peak_rss_mb. This wrapper stays small.

The command is killed after TIMEOUT_S seconds, and also when this wrapper
receives SIGTERM; the wrapper reaps it before exiting either way.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main(argv) -> int:
    result_path, timeout, out_path, err_path, sep, *cmd = argv
    if sep != "--" or not cmd:
        print(__doc__, file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(float(timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0,
                   "exit_code": proc.returncode}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
