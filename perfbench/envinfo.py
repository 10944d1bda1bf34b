"""What produced a run: software versions, BLAS, cores, commit, and a speed probe."""

import ctypes
import glob
import os
import platform
import subprocess
import threading
import time

import numpy as np
import scipy

_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        name = None
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return name, threads


def _git_commit(root):
    try:
        # --git-dir: a checkout without .git must not report an enclosing repository
        out = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root):
    from rechip import kernels

    blas, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "numba_enabled": getattr(kernels, "NUMBA_ENABLED", None),
    }


_PROBE_PASS = 200  # loop iterations in one pass of the speed probe
REFERENCE_PROBE_MS = 4.0  # speed-scaled times read as on a machine where one pass takes this


def _probe_inputs():
    rng = np.random.default_rng(0)
    return rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), rng.normal(size=64)


_A, _X = _probe_inputs()


def _probe_loop(iterations):
    t0 = time.perf_counter()
    for _ in range(iterations):
        b = _A @ _A
        np.linalg.eigvalsh(b + b.conj().T)
        np.exp(1j * _X).sum()
    return time.perf_counter() - t0


def speed_probe(repeats=15):
    """Median ms of a fixed small-array numpy loop that does not touch rechip."""
    _probe_loop(_PROBE_PASS)  # the first pass warms caches
    return float(np.median([_probe_loop(_PROBE_PASS) for _ in range(repeats)]) * 1e3)


def pace_ms(iterations=20):
    """The speed probe's current pass time in ms, from a sample of 0.3 to 2 ms.

    The fastest of three short chunks, scaled to one pass, so a stray
    interrupt does not count.  On a shared host this moves by up to 1.9x from
    one second to the next, and request latencies move with it in proportion.
    """
    best = min(_probe_loop(iterations) for _ in range(3))
    return best * 1e3 * _PROBE_PASS / iterations


class PaceSampler:
    """Samples the pace while requests run, on the CPU that runs them.

    Pins the calling thread (and so any child process it starts) to one CPU
    and starts a thread on the same CPU that takes a short pace sample every
    ``interval`` seconds.  A sample holds the GIL, so an in-process request
    waits while it runs rather than sharing the CPU with it.  A child process
    does share the CPU, which makes samples taken while it runs read about
    20% slow.
    """

    def __init__(self, interval=0.05):
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self._samples = []
        self._lock = threading.Lock()
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(self._interval):
            pace = pace_ms(iterations=5)
            with self._lock:
                self._samples.append(pace)

    def begin(self, pace):
        """Start collecting for a request, from the pace sampled just before it."""
        with self._lock:
            self._samples = [pace]

    def end(self, pace):
        """The request's samples: the one before it, those during it and ``pace`` after it."""
        with self._lock:
            samples, self._samples = self._samples, []
        return samples + [pace]

    def stop(self):
        self._stop.set()
        self._thread.join()
