"""Small launcher that runs the benchmark's commands and measures each one.

`run.py` starts it once and talks to it over stdin/stdout, one JSON line per
command.  It measures wall time, and takes CPU time and peak RSS from
wait4.  Those two include every worker the command reaped.  It kills the
command's process group if the command runs past its deadline.

Commands are launched from here, not from `run.py`, because on Linux a
process spawned with vfork takes on, at exec, the peak RSS of the process
that spawned it.  This interpreter imports only what it needs, so it stays
far below any `ramsat` process.  `run.py` holds numpy arrays and would show
through in `peak_rss_mb`.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"], stdout=out,
                                stderr=err, start_new_session=True)
        killer = threading.Timer(max(req["timeout_s"], 0.0), os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
