"""Timing comparison of the numba-compiled kernels against the numpy fallbacks.

Usage:  python benchmarks/bench_kernels.py [--repeats N]

The same comparison at package level: run the suite with RECHIP_NO_NUMBA=1
to use the numpy path everywhere.  When the numpy path is active (the flag
is set, or numba does not import) there is nothing to compare: the script
says why and prints the numpy timings alone.
"""

import argparse
import time

import numpy as np

from rechip import kernels
from rechip.optics import two_photon_pairs
from rechip.tomography import canonical_settings, projectors_of_setting


def timeit(fn, args, calls, repeats):
    """Best time per call of fn(*args) over `repeats` runs of `calls` calls."""
    fn(*args)  # warm (JIT compile on the numba path)
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def cases(rng):
    """(label, kernel name, arguments, calls per run) of each timed kernel."""
    a = np.ascontiguousarray(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))

    out_i, out_j, _ = two_photon_pairs(6)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    u = np.ascontiguousarray(np.linalg.qr(g)[0])

    settings = canonical_settings(2)
    projs = np.ascontiguousarray(np.concatenate([projectors_of_setting(s) for s in settings]))
    counts = rng.uniform(10, 1000, projs.shape[0])
    totals = np.full(projs.shape[0], 1000.0)
    theta = rng.normal(size=16)

    return [
        ("permanent (6x6)", "permanent", (a,), 200),
        ("two_photon_amps (6 modes)", "two_photon_amps", (u, 1, 3, out_i, out_j), 500),
        ("mle_nll_grad (d=4, 36 proj)", "mle_nll_grad", (theta, projs, counts, totals, 4, 1e-12), 300),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    print(f"active kernel path: {kernels.DISPATCH}\n")
    rows = cases(np.random.default_rng(0))
    if not kernels.NUMBA_ENABLED:
        print(f"{'kernel':<30} {'numpy [us]':>12}")
        for label, name, fn_args, calls in rows:
            t_ref = timeit(getattr(kernels, name + "_numpy"), fn_args, calls, args.repeats)
            print(f"{label:<30} {t_ref * 1e6:>12.2f}")
        return
    print(f"{'kernel':<30} {'numba [us]':>12} {'numpy [us]':>12} {'speedup':>9}")
    for label, name, fn_args, calls in rows:
        t_jit = timeit(getattr(kernels, name), fn_args, calls, args.repeats)
        t_ref = timeit(getattr(kernels, name + "_numpy"), fn_args, calls, args.repeats)
        print(f"{label:<30} {t_jit * 1e6:>12.2f} {t_ref * 1e6:>12.2f} {t_ref / t_jit:>8.1f}x")


if __name__ == "__main__":
    main()
