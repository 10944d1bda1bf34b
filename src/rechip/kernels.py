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
# contributes a (re, im) pair, row-major.  vec(T) = A theta for a fixed
# complex (dim**2, dim**2) matrix A, and Tr(T†T) = theta . theta.


@lru_cache(maxsize=4)
def _param_map(dim):
    """A with vec(T) = A @ theta: entry 1 (real part) or 1j (imaginary part)."""
    flat = list(range(0, dim * dim, dim + 1))  # the diagonal
    coef = [1.0] * dim
    for i in range(dim):
        for j in range(i):
            flat += [i * dim + j, i * dim + j]
            coef += [1.0, 1j]
    a = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    a[flat, np.arange(dim * dim)] = coef
    a.flags.writeable = False
    return a


def t_from_params(theta, dim):
    """Lower-triangular T from the real parameter vector (length dim**2)."""
    return (_param_map(dim) @ theta).reshape(dim, dim)


def rho_from_params(theta, dim):
    """Unit-trace PSD density matrix from the T†T parameterisation."""
    t = t_from_params(theta, dim)
    m = t.conj().T @ t
    return m / np.trace(m).real


def params_from_rho(rho):
    """Parameters theta (unit norm) of a full-rank density matrix: the inverse of rho_from_params.

    With J the exchange matrix, the Cholesky factor L of J rho J gives
    rho = T†T for the lower-triangular T = J L† J.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    dim = rho.shape[0]
    low = np.linalg.cholesky(rho[::-1, ::-1])
    t = low.conj().T[::-1, ::-1]
    z = _param_map(dim).conj().T @ t.ravel()  # picks the real or imaginary part
    theta = z.real
    return theta / np.linalg.norm(theta)


def mle_nll_grad(theta, projs, counts, totals, dim, floor):
    """Negative log-likelihood -sum_k [n_k log(N_k p_k) - N_k p_k] and its gradient.

    projs holds the K outcome projectors as a (K, dim, dim) stack or as the
    (K, dim**2) matrix of their flattened rows.  With m = T†T and
    tau = Tr m, p = Re(P vec(m^T)) / tau; the gradient needs only
    W = sum_k w_k P_k, since d Tr(P_k m) / d theta = 2 Re(A^H vec(T P_k)).
    """
    pmat = projs.reshape(len(projs), dim * dim)
    a = _param_map(dim)
    t = (a @ theta).reshape(dim, dim)
    tau = theta @ theta
    p = (pmat @ (t.T @ t.conj()).ravel()).real / tau
    pc = np.maximum(p, floor)
    val = -(counts * np.log(totals * pc) - totals * pc).sum()

    w = np.where(p > floor, counts / pc - totals, 0.0)
    tw = t @ (w @ pmat).reshape(dim, dim)
    dq = 2.0 * (a.conj().T @ tw.ravel()).real
    grad = -(dq - (w @ p) * 2.0 * theta) / tau
    return val, grad
