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
# contributes a (re, im) pair, row-major.  vec(T) = theta @ R, read as
# complex (re, im) pairs, for a fixed real (dim**2, 2 dim**2) matrix R, and
# Tr(T†T) = theta . theta.  The functions below take one parameter vector or
# a (B, dim**2) batch; every batched product keeps B as a stack axis, so each
# row of a batched result is bit-identical to that row's own call.


_TINY = np.finfo(np.float64).tiny  # keeps log finite where N_k = 0; N_k p_k is far above it otherwise


@lru_cache(maxsize=4)
def _param_rows(dim):
    """R with vec(T) = (theta @ R).view(complex): 1 at the real or imaginary slot of each entry."""
    slots = [2 * k for k in range(0, dim * dim, dim + 1)]  # the diagonal, real
    for i in range(dim):
        for j in range(i):
            slots += [2 * (i * dim + j), 2 * (i * dim + j) + 1]
    r = np.zeros((dim * dim, 2 * dim * dim))
    r[np.arange(dim * dim), slots] = 1.0
    r.flags.writeable = False
    return r


def t_from_params(theta, dim):
    """Lower-triangular T (or a (B, dim, dim) stack) from the real parameters (length dim**2)."""
    theta = np.asarray(theta, dtype=np.float64)
    t = (theta[..., None, :] @ _param_rows(dim)).view(np.complex128)
    return t.reshape(theta.shape[:-1] + (dim, dim))


def rho_from_params(theta, dim):
    """Unit-trace PSD density matrix (or a stack) from the T†T parameterisation."""
    t = t_from_params(theta, dim)
    m = t.conj().swapaxes(-1, -2) @ t
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def params_from_rho(rho):
    """Parameters theta (unit norm) of a full-rank density matrix, or of a stack of
    them: the inverse of rho_from_params.

    With J the exchange matrix, the Cholesky factor L of J rho J gives
    rho = T†T for the lower-triangular T = J L† J.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    dim = rho.shape[-1]
    low = np.linalg.cholesky(rho[..., ::-1, ::-1])
    t = low.conj().swapaxes(-1, -2)[..., ::-1, ::-1]
    z = t.reshape(rho.shape[:-2] + (1, dim * dim)).view(np.float64)
    theta = (z @ _param_rows(dim).T)[..., 0, :]  # picks the real or imaginary part
    return theta / np.sqrt((theta * theta).sum(axis=-1))[..., None]


def quadratic_forms(projs, dim):
    """Real symmetric forms Q_k with Tr(P_k T†T) = theta . Q_k theta, as a (K + 1, dim**2, dim**2)
    stack that ends with the identity (theta . theta = Tr(T†T)).

    projs holds the K outcome projectors as a (K, dim, dim) stack or as the
    (K, dim**2) matrix of their flattened rows.
    """
    projs = np.asarray(projs).reshape(-1, dim, dim)
    r = _param_rows(dim)
    a = (r[:, 0::2] + 1j * r[:, 1::2]).T.reshape(dim, dim, dim * dim)  # T[i, j] = a[i, j] . theta
    # Tr(T P T†) = sum over i, j, l of T[i, j] P[j, l] conj(T[i, l])
    m = np.einsum("ija,kjl,ilb->kab", a, projs, a.conj()).real
    forms = np.concatenate([(m + m.swapaxes(-1, -2)) / 2, np.eye(dim * dim)[None]])
    # the same stack, laid out so that mle_nll_grad's forms.reshape(-1, dim**2).T is C-contiguous
    forms = np.ascontiguousarray(forms.reshape(-1, dim * dim).T).T.reshape(forms.shape)
    forms.flags.writeable = False
    return forms


def mle_nll_grad(theta, forms, counts, totals, dim, floor):
    """Negative log-likelihood -sum_k [n_k log(N_k p_k) - N_k p_k] and its gradient.

    forms are the quadratic forms of the K outcome projectors
    (``quadratic_forms``).  theta is one parameter vector or a (B, dim**2)
    batch, with counts and totals (K,) or (B, K); an outcome with N_k = 0
    (and so n_k = 0) adds nothing.  With u_k = Q_k theta and
    tau = theta . theta, p_k = theta . u_k / tau and
    d p_k / d theta = 2 (u_k - p_k theta) / tau.
    """
    x = theta[..., None, :]
    u = (x @ forms.reshape(-1, dim * dim).T).reshape(theta.shape[:-1] + forms.shape[:2])
    q = (u @ theta[..., None])[..., 0]  # theta . u_k, then tau
    tau = q[..., -1:]
    p = q[..., :-1] / tau
    pc = np.maximum(p, floor)
    expected = totals * pc
    val = np.add.reduce(expected - counts * np.log(np.maximum(expected, _TINY)), axis=-1)

    w = np.where(p > floor, counts / pc - totals, 0.0)[..., None, :]
    grad = ((w @ p[..., None])[..., 0] * theta - (w @ u[..., :-1, :])[..., 0, :]) * (2.0 / tau)
    return val, grad
