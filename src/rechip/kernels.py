"""Hot numeric kernels, JIT-compiled with numba when available.

Every kernel has two interchangeable implementations:

* a loop form, compiled with ``numba.njit`` (the default), and
* a vectorised pure-numpy form, always importable as ``<name>_numpy``.

Set the environment variable ``RECHIP_NO_NUMBA=1`` before import to select
the numpy path for everything (useful for debugging and on platforms where
numba is unavailable; the package also falls back automatically if the
numba import fails).  ``DISPATCH`` names the active path and why it was
chosen.  ``benchmarks/bench_kernels.py`` times both paths.

The two-photon kernels also take a stack of transfer matrices (a leading
batch axis); a stack always runs the numpy form, whose rows are bit-identical
to its single-matrix calls.

All kernels are pure functions of ndarray inputs; random sampling never
happens here, so results are identical (up to floating-point association)
on either path.
"""

import os
import warnings
from functools import lru_cache

import numpy as np

_DISABLED = os.environ.get("RECHIP_NO_NUMBA", "").strip().lower() not in ("", "0", "false")

NUMBA_ENABLED = False
DISPATCH = "numpy (RECHIP_NO_NUMBA is set)"
if not _DISABLED:
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
        DISPATCH = "numba"
    except ImportError:  # pragma: no cover - exercised only without numba
        DISPATCH = "numpy (numba is not importable)"
        warnings.warn("numba is not importable; using the pure-numpy kernels", stacklevel=2)


# ---------------------------------------------------------------------------
# matrix permanent (Ryser, Gray-code subset order)
# ---------------------------------------------------------------------------

def _permanent_loops(a):
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    row = np.zeros(n, dtype=np.complex128)
    total = 0.0 + 0.0j
    gray = 0
    size = 0  # current subset cardinality
    for k in range(1, 2 ** n):
        g = k ^ (k >> 1)
        diff = g ^ gray
        j = 0
        while (diff >> j) & 1 == 0:
            j += 1
        if (g >> j) & 1:
            size += 1
            for i in range(n):
                row[i] += a[i, j]
        else:
            size -= 1
            for i in range(n):
                row[i] -= a[i, j]
        gray = g
        prod = 1.0 + 0.0j
        for i in range(n):
            prod *= row[i]
        if size % 2 == 0:
            total += prod
        else:
            total -= prod
    if n % 2 == 0:
        return total
    return -total


@lru_cache(maxsize=8)
def _subset_masks(n):
    # rows: non-empty subsets of columns; entry 1 if column in subset
    k = np.arange(1, 2 ** n, dtype=np.uint32)
    bits = ((k[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.float64)
    signs = np.where(bits.sum(axis=1).astype(np.int64) % 2 == 0, 1.0, -1.0)
    return bits, signs * (1.0 if n % 2 == 0 else -1.0)


def permanent_numpy(a):
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    bits, signs = _subset_masks(n)
    rowsums = bits @ a.T.astype(np.complex128)  # (subsets, n)
    return complex((signs * rowsums.prod(axis=1)).sum())


# ---------------------------------------------------------------------------
# two-photon transition amplitudes / distinguishable routing
# ---------------------------------------------------------------------------
# Inputs: transfer matrix u (modes x modes, or a (..., modes, modes) stack
# for the numpy forms), the two occupied input modes (a, b) with a <= b, and
# the pattern arrays out_i/out_j listing every two-photon output pattern as
# an ordered mode pair (i <= j).  Results have shape (..., patterns).

def _two_photon_amps_loops(u, a, b, out_i, out_j):
    npat = out_i.shape[0]
    amps = np.empty(npat, dtype=np.complex128)
    fin = 2.0 if a == b else 1.0
    for k in range(npat):
        i = out_i[k]
        j = out_j[k]
        fout = 2.0 if i == j else 1.0
        amp = u[i, a] * u[j, b] + u[i, b] * u[j, a]
        amps[k] = amp / np.sqrt(fin * fout)
    return amps


def two_photon_amps_numpy(u, a, b, out_i, out_j):
    fin = 2.0 if a == b else 1.0
    fout = np.where(out_i == out_j, 2.0, 1.0)
    amp = u[..., out_i, a] * u[..., out_j, b] + u[..., out_i, b] * u[..., out_j, a]
    return amp / np.sqrt(fin * fout)


def _distinguishable_probs_loops(pu, a, b, out_i, out_j):
    npat = out_i.shape[0]
    probs = np.empty(npat, dtype=np.float64)
    for k in range(npat):
        i = out_i[k]
        j = out_j[k]
        if i == j:
            probs[k] = pu[i, a] * pu[i, b]
        else:
            probs[k] = pu[i, a] * pu[j, b] + pu[i, b] * pu[j, a]
    return probs


def distinguishable_probs_numpy(pu, a, b, out_i, out_j):
    same = out_i == out_j
    p = pu[..., out_i, a] * pu[..., out_j, b] + pu[..., out_i, b] * pu[..., out_j, a]
    return np.where(same, p / 2.0, p)


# ---------------------------------------------------------------------------
# Poisson log-likelihood for density-matrix reconstruction
# ---------------------------------------------------------------------------
# rho is parameterised as T†T / Tr(T†T) with T lower triangular: the first
# dim parameters are the (real) diagonal, then each strictly-lower entry
# contributes a (re, im) pair, row-major.  Returns the negative
# log-likelihood sum_k [n_k log(N_k p_k) - N_k p_k] and its gradient.


@lru_cache(maxsize=4)
def _tri_indices(dim):
    rows = list(range(dim))
    cols = list(range(dim))
    kind = [0] * dim  # 0 -> real part, 1 -> imaginary part
    for i in range(dim):
        for j in range(i):
            rows += [i, i]
            cols += [j, j]
            kind += [0, 1]
    return (
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(kind, dtype=np.int64),
    )


def t_from_params(theta, dim):
    """Lower-triangular T from the real parameter vector (length dim**2)."""
    rows, cols, kind = _tri_indices(dim)
    t = np.zeros((dim, dim), dtype=np.complex128)
    vals = np.where(kind == 0, theta, 1j * theta)
    np.add.at(t, (rows, cols), vals)
    return t


def rho_from_params(theta, dim):
    """Unit-trace PSD density matrix from the T†T parameterisation."""
    t = t_from_params(theta, dim)
    m = t.conj().T @ t
    return m / np.trace(m).real


def _mle_nll_grad_loops(theta, projs, counts, totals, dim, floor):
    nparam = dim * dim
    t = np.zeros((dim, dim), dtype=np.complex128)
    k = 0
    for i in range(dim):
        t[i, i] = theta[k]
        k += 1
    for i in range(dim):
        for j in range(i):
            t[i, j] = theta[k] + 1j * theta[k + 1]
            k += 2

    m = t.conj().T @ t
    tau = 0.0
    for i in range(dim):
        tau += m[i, i].real

    dtau = np.zeros(nparam)
    k = 0
    for i in range(dim):
        dtau[k] = 2.0 * t[i, i].real
        k += 1
    for i in range(dim):
        for j in range(i):
            dtau[k] = 2.0 * t[i, j].real
            dtau[k + 1] = 2.0 * t[i, j].imag
            k += 2

    val = 0.0
    grad = np.zeros(nparam)
    nproj = projs.shape[0]
    for kk in range(nproj):
        pk = 0.0
        for i in range(dim):
            for j in range(dim):
                pk += (projs[kk, i, j] * m[j, i]).real
        pk /= tau
        pc = pk if pk > floor else floor
        val -= counts[kk] * np.log(totals[kk] * pc) - totals[kk] * pc
        if pk <= floor:
            continue
        w = counts[kk] / pc - totals[kk]
        a = t @ projs[kk]
        idx = 0
        for i in range(dim):
            dq = 2.0 * a[i, i].real
            grad[idx] -= w * (dq - pk * dtau[idx]) / tau
            idx += 1
        for i in range(dim):
            for j in range(i):
                dq = 2.0 * a[i, j].real
                grad[idx] -= w * (dq - pk * dtau[idx]) / tau
                dq = 2.0 * a[i, j].imag
                grad[idx + 1] -= w * (dq - pk * dtau[idx + 1]) / tau
                idx += 2
    return val, grad


def mle_nll_grad_numpy(theta, projs, counts, totals, dim, floor):
    rows, cols, kind = _tri_indices(dim)
    t = t_from_params(theta, dim)
    m = t.conj().T @ t
    tau = np.trace(m).real
    p = np.einsum("kij,ji->k", projs, m).real / tau
    pc = np.maximum(p, floor)
    val = -(counts * np.log(totals * pc) - totals * pc).sum()

    a = np.einsum("ab,kbc->kac", t, projs)  # (K, dim, dim)
    entries = a[:, rows, cols]
    dq = 2.0 * np.where(kind == 0, entries.real, entries.imag)
    tvals = t[rows, cols]
    dtau = 2.0 * np.where(kind == 0, tvals.real, tvals.imag)
    dp = (dq - p[:, None] * dtau[None, :]) / tau
    w = np.where(p > floor, counts / pc - totals, 0.0)
    grad = -(w[:, None] * dp).sum(axis=0)
    return val, grad


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _single_matrix(loops, batched):
    # the compiled loop form takes one matrix; a stack runs the numpy form
    def kernel(u, a, b, out_i, out_j):
        if u.ndim == 2:
            return loops(u, a, b, out_i, out_j)
        return batched(u, a, b, out_i, out_j)

    return kernel


if NUMBA_ENABLED:
    permanent = _njit(cache=True)(_permanent_loops)
    two_photon_amps = _single_matrix(_njit(cache=True)(_two_photon_amps_loops), two_photon_amps_numpy)
    distinguishable_probs = _single_matrix(
        _njit(cache=True)(_distinguishable_probs_loops), distinguishable_probs_numpy)
    _mle_jit = _njit(cache=True)(_mle_nll_grad_loops)

    def mle_nll_grad(theta, projs, counts, totals, dim, floor):
        return _mle_jit(theta, projs, counts, totals, dim, floor)

else:
    permanent = permanent_numpy
    two_photon_amps = two_photon_amps_numpy
    distinguishable_probs = distinguishable_probs_numpy
    mle_nll_grad = mle_nll_grad_numpy


def warmup():
    """Trigger JIT compilation of every kernel (no-op on the numpy path)."""
    a = np.eye(2, dtype=np.complex128)
    permanent(a)
    out_i = np.array([0, 0, 1], dtype=np.int64)
    out_j = np.array([0, 1, 1], dtype=np.int64)
    two_photon_amps(a, 0, 1, out_i, out_j)
    distinguishable_probs(np.abs(a) ** 2, 0, 1, out_i, out_j)
    theta = np.array([1.0, 1.0, 0.1, 0.1])
    projs = np.stack([np.eye(2, dtype=np.complex128) / 2] * 2)
    mle_nll_grad(theta, projs, np.array([5.0, 5.0]), np.array([10.0, 10.0]), 2, 1e-12)
