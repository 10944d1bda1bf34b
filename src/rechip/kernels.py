"""Hot numeric kernels as vectorised numpy array programs.

The two-photon kernels take one transfer matrix or a stack of them (a
leading batch axis); each row of a stacked result is bit-identical to the
single-matrix call.  All kernels are pure functions of ndarray inputs;
random sampling never happens here.
"""

from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# two-photon transition amplitudes / distinguishable routing
# ---------------------------------------------------------------------------
# Inputs: transfer matrix u (modes x modes, or a (..., modes, modes) stack),
# the two occupied input modes (a, b) with a <= b, and the pattern arrays
# out_i/out_j listing two-photon output patterns as ordered mode pairs
# (i <= j).  Results have shape (..., patterns).

def two_photon_amps(u, a, b, out_i, out_j):
    fin = 2.0 if a == b else 1.0
    fout = np.where(out_i == out_j, 2.0, 1.0)
    amp = u[..., out_i, a] * u[..., out_j, b] + u[..., out_i, b] * u[..., out_j, a]
    return amp / np.sqrt(fin * fout)


def distinguishable_probs(pu, a, b, out_i, out_j):
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


def mle_nll_grad(theta, projs, counts, totals, dim, floor):
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
