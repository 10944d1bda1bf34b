"""Child processes for the benchmark: environment, timeout and peak memory.

Standard library only, so the light parent process can use it too.
"""

import os
import subprocess
import threading
import time


def child_env(root):
    """The environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, cwd, out_path, err_path, timeout):
    """Run a process to completion: (exit code, wall seconds, peak RSS in MB).

    stdout and stderr go to files; the child is killed if it outlives the
    timeout and is always reaped, so its own peak RSS can be read.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0
