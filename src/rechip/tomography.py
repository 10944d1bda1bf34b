"""State reconstruction and state-space utilities.

Measurement settings are per-qubit analysis rotations (phi_y, phi_z): the
chip applies the conjugate rotation and detects in the computational basis,
so outcome k of a setting projects onto u_prep(phi_y, phi_z)|k>.  The
canonical tomography set uses the three analysis bases Z, X, Y per qubit,
i.e. 3 settings (6 outcomes) for one qubit and 9 settings (36 outcomes,
containing 16 linearly independent measurements) for two.

Reconstruction maximises the Poissonian log-likelihood

    sum_k [ n_k log(N_s p_k) - N_s p_k ],    p_k = <Pi_k>_rho,

over rho = T†T / Tr(T†T) with T lower triangular, so the result is PSD with
unit trace by construction (James et al., PRA 64, 052312 (2001)).  Outcome
probabilities are floored at 1e-12 inside the likelihood to avoid -inf at
the boundary of the state space.  The search starts from projected linear
inversion (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)): the
least-squares rho with its eigenvalues projected onto the probability
simplex and floored, so that the start is full rank.  The fit takes damped
Newton steps with the likelihood's exact Hessian (``numerics.minimize``).
B records that share one setting list are fitted as one batch, each with its
own damping and stopping test, in the manner of Shang, Zhang, Ng & Ng,
"Superfast maximum-likelihood reconstruction for quantum tomography", PRA 95,
062336 (2017).
"""

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .chip import u_prep
from .noise import CountRecord
from .numerics import CONVERGED, STOP_MESSAGES, minimize, psd_sqrt, tensor

PROB_FLOOR = 1e-12
START_EIGEN_FLOOR = 1e-3  # smallest eigenvalue of the linear-inversion start

PAULIS = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# analysis rotations (phi_y, phi_z) whose outcome-0 axis is +Z, +X, +Y
BASIS_ANGLES = {"Z": (0.0, 0.0), "X": (np.pi / 2, 0.0), "Y": (np.pi / 2, np.pi / 2)}


@dataclass(frozen=True)
class MeasurementSetting:
    """Per-qubit analysis angles, labelled e.g. "ZX" (qubit A basis first)."""

    label: str
    angles: tuple  # ((phi_y, phi_z), ...) one pair per qubit

    @property
    def qubits(self):
        return len(self.angles)


@dataclass(frozen=True)
class MLEResult:
    """A reconstruction and how the optimizer ended.

    ``converged`` says whether the fit stopped at a stationary point by one
    of ``numerics.minimize``'s convergence tests, ``iterations`` counts its
    Newton steps (taken or not) and ``message`` names the test that stopped
    it (one of ``numerics.STOP_MESSAGES``); ``params`` is the optimum in the
    T†T parameterisation, a warm start for fits of nearby data.
    """

    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    message: str
    params: np.ndarray


def check_density(rho):
    """Validate Hermiticity and trace 1 to 1e-10 and eigenvalues above -1e-9; returns rho unchanged.

    A matrix with a NaN or infinite entry fails the Hermiticity test (its defect is NaN).
    """
    rho = np.asarray(rho, dtype=complex)
    defect = abs(rho - rho.conj().T).max()
    if not defect <= 1e-10:
        raise ValueError(f"density matrix not Hermitian (defect {defect:.2e})")
    tr = rho.trace().real
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace {tr} != 1")
    # rho is Hermitian to 1e-10 here, so its lower triangle stands for it, as eigvalsh reads it
    if rho.shape == (2, 2):  # the smaller root of the characteristic polynomial
        (a, _), (b, d) = rho.tolist()
        wmin = (a.real + d.real) / 2 - math.hypot((a.real - d.real) / 2, abs(b))
    else:
        wmin = np.linalg.eigvalsh(rho)[0]  # ascending
    if wmin < -1e-9:
        raise ValueError(f"density matrix has eigenvalue {wmin:.2e} < -1e-09")
    return rho


def canonical_settings(qubits):
    """The 3**qubits analysis settings over the Z, X, Y bases per qubit."""
    if qubits not in (1, 2):
        raise ValueError("qubits must be 1 or 2")
    settings = []
    for combo in itertools.product("ZXY", repeat=qubits):
        label = "".join(combo)
        angles = tuple(BASIS_ANGLES[c] for c in combo)
        settings.append(MeasurementSetting(label, angles))
    return settings


@lru_cache(maxsize=64)
def projectors_of_setting(setting):
    """Rank-1 outcome projectors of a setting; they sum to the identity.

    Outcome k (bits ordered qubit A then B) projects onto the tensor product
    of u_prep(phi_y, phi_z)|bit> per qubit.  The (outcomes, d, d) stack is
    cached per setting and read-only.
    """
    per_qubit = []
    for phi_y, phi_z in setting.angles:
        u = u_prep(phi_y, phi_z)
        per_qubit.append([np.outer(u[:, b], u[:, b].conj()) for b in (0, 1)])
    projs = []
    for bits in itertools.product((0, 1), repeat=setting.qubits):
        p = per_qubit[0][bits[0]]
        for q, b in zip(per_qubit[1:], bits[1:]):
            p = tensor(p, q[b])
        projs.append(p)
    projs = np.stack(projs)
    projs.flags.writeable = False
    return projs


@lru_cache(maxsize=64)
def _projector_rows(settings):
    """Flattened projector rows (K, d**2) of a tuple of settings, read-only."""
    pmat = np.concatenate([projectors_of_setting(s) for s in settings])
    pmat = pmat.reshape(len(pmat), -1)
    pmat.flags.writeable = False
    return pmat


@lru_cache(maxsize=64)
def _forms(settings):
    """The likelihood's quadratic forms of a tuple of settings (kernels.quadratic_forms), read-only."""
    return kernels.quadratic_forms(_projector_rows(settings), 2 ** settings[0].qubits)


@lru_cache(maxsize=64)
def _inverse_rows(settings, kept):
    """(K, d**2) map from outcome frequencies to the least-squares vec(rho) over the
    kept settings (a tuple of flags): the transposed pseudo-inverse of their
    projector rows, with zero rows at the outcomes of the other settings."""
    pmat = _projector_rows(settings)
    outcomes = len(pmat) // len(settings)
    rows = np.repeat(kept, outcomes)
    # Tr(P rho) = conj(vec P) . vec(rho) for Hermitian P
    inverse = np.zeros(pmat.shape, dtype=np.complex128)
    inverse[rows] = np.linalg.pinv(pmat[rows].conj()).T
    inverse.flags.writeable = False
    return inverse


def _count_arrays(settings, counts):
    """(B, K) counts and the matching per-setting totals of (B, settings, outcomes) counts.

    A setting without counts in a record has total 0 there and adds no
    likelihood term to that record's fit.
    """
    counts = np.asarray(counts, dtype=np.float64)
    outcomes = 2 ** settings[0].qubits
    if counts.ndim != 3 or counts.shape[1:] != (len(settings), outcomes):
        raise ValueError(f"counts must align with settings: expected (records, {len(settings)}, {outcomes}), "
                         f"got {counts.shape}")
    if (counts < 0).any():
        raise ValueError("counts must not be negative")
    per_setting = counts.sum(axis=-1)
    if (per_setting.sum(axis=-1) <= 0).any():
        raise ValueError("zero total counts")
    return counts.reshape(len(counts), -1), np.repeat(per_setting, outcomes, axis=-1)


def linear_inversion_start(settings, counts, totals):
    """Projected linear inversion of each row of (B, K) counts with their setting totals:
    the least-squares rho over the record's observed settings, its eigenvalues
    projected onto the probability simplex, then floored at START_EIGEN_FLOOR
    and renormalised.  Returns (B, dim**2) parameters."""
    settings = tuple(settings)
    dim = 2 ** settings[0].qubits
    observed = totals[:, ::dim] > 0  # a setting has dim outcomes
    if observed.all():
        inverses = _inverse_rows(settings, (True,) * len(settings))
    else:
        inverses = np.stack([_inverse_rows(settings, tuple(row)) for row in observed.tolist()])
    freq = counts / np.where(totals > 0, totals, 1.0)
    rho = (freq[:, None, :] @ inverses).reshape(-1, dim, dim)
    mu, vecs = np.linalg.eigh((rho + rho.conj().swapaxes(-1, -2)) / 2)
    # Euclidean projection of the eigenvalues onto the simplex: with them sorted
    # descending, the shift is the largest of (partial sum - 1) / length
    shift = (np.cumsum(mu[:, ::-1], axis=-1) - 1.0) / np.arange(1, dim + 1)
    lam = np.maximum(mu - shift.max(axis=-1, keepdims=True), START_EIGEN_FLOOR)
    lam /= lam.sum(axis=-1, keepdims=True)
    return kernels.params_from_rho((vecs * lam[:, None, :]) @ vecs.conj().swapaxes(-1, -2))


def _nll(theta, forms, counts, totals, dim):
    """The negative log-likelihood of (B, dim**2) parameters, its gradient and its Hessian
    (kernels.mle_nll_grad), made regular along theta.

    f does not change along theta (c theta gives the same rho), so the Hessian is singular in that
    direction at the optimum.  Adding theta theta^T / tau times the Hessian's largest diagonal entry
    gives that direction the largest curvature and leaves the curvature along every direction
    orthogonal to theta as it is.
    """
    f, g, h = kernels.mle_nll_grad(theta, forms, counts, totals, dim, PROB_FLOOR)
    top = h.diagonal(axis1=-2, axis2=-1).max(axis=-1) / (theta * theta).sum(axis=-1)
    return f, g, h + top[:, None, None] * (theta[:, :, None] * theta[:, None, :])


def mle_reconstruct_batch(settings, counts, start=None):
    """Maximum-likelihood fits of B records that share one setting list, as one batch.

    ``counts`` is (B, len(settings), outcomes): record b's counts per setting
    and outcome.  The search starts from ``start``, (B, dim**2) parameters
    of earlier fits (e.g. ``MLEResult.params`` of the point estimate when
    refitting resampled counts), or else from projected linear inversion.
    Every record keeps its own damping and stopping test (see
    ``numerics.minimize``), so its result is bit-identical to fitting it alone.
    Returns one MLEResult per record.

    Raises
    ------
    ValueError
        Misaligned or negative counts, or a record with zero total counts.
    """
    settings = tuple(settings)
    n, totals = _count_arrays(settings, counts)
    dim = 2 ** settings[0].qubits
    forms = _forms(settings)

    theta0 = linear_inversion_start(settings, n, totals) if start is None else start
    theta, f, nit, status = minimize(lambda theta, rows: _nll(theta, forms, n[rows], totals[rows], dim), theta0)
    rho = kernels.rho_from_params(theta, dim)
    # Hermitise exactly; the parameterisation already guarantees PSD and trace 1
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2
    return [MLEResult(rho=rho[b], log_likelihood=float(-f[b]), iterations=int(nit[b]),
                      converged=bool(status[b] in CONVERGED), message=STOP_MESSAGES[status[b]], params=theta[b])
            for b in range(len(n))]


def mle_reconstruct(settings, counts, start=None):
    """Maximum-likelihood density matrix from per-setting count records.

    The batch of one of ``mle_reconstruct_batch``: ``counts`` holds one
    CountRecord per setting and ``start`` is None or one parameter vector.

    Raises
    ------
    ValueError
        Misaligned inputs or zero total counts.
    """
    if len(settings) != len(counts):
        raise ValueError("counts must align with settings")
    outcomes = 2 ** settings[0].qubits
    table = [record.counts(outcomes) for record in counts]
    return mle_reconstruct_batch(settings, [table], None if start is None else [start])[0]


def simulate_counts(settings, rho, pairs_per_setting):
    """Expectation-valued count records for a state (forward model, no sampling)."""
    records = []
    for setting in settings:
        projs = projectors_of_setting(setting)
        p = np.einsum("kij,ji->k", projs, rho).real
        records.append(CountRecord.from_counts(setting.label, pairs_per_setting * p))
    return records


def statistical_fidelity(p, q):
    """Bhattacharyya overlap sum_k sqrt(p_k q_k) of two probability vectors.

    (N, k) arrays give the (N,) overlaps row by row.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    f = np.sqrt(np.clip(p, 0, None) * np.clip(q, 0, None)).sum(axis=-1)
    return float(f) if f.ndim == 0 else f


def quantum_fidelity(rho, sigma):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clamped to [0, 1].

    Either argument may be a stack of density matrices; stacks broadcast
    against each other (or against one matrix) and give an array of fidelities.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape[-2:] != sigma.shape[-2:]:
        raise ValueError("dimension mismatch")
    root = psd_sqrt(rho)
    inner = root @ sigma @ root
    # inner is PSD up to roundoff; symmetrise before the second root
    inner = (inner + inner.conj().swapaxes(-1, -2)) / 2
    w = np.linalg.eigvalsh(inner)
    f = np.clip(np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1) ** 2, 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def partial_trace(rho, keep="A"):
    """Reduced 2x2 state of one qubit of a 4x4 state (basis order 00,01,10,11)."""
    rho = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ikjk->ij", rho)
    if keep == "B":
        return np.einsum("kikj->ij", rho)
    raise ValueError("keep must be 'A' or 'B'")


def sample_hs_random(dim, rng):
    """Hilbert-Schmidt random density matrix: G G† / Tr(G G†), Ginibre G."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def bloch_of_rho(rho):
    """Bloch vector (r_x, r_y, r_z) with r_i = Tr(rho sigma_i)."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(rho @ PAULIS[a]).real for a in "xyz"])


def rho_of_bloch(r):
    """Density matrix (I + r . sigma) / 2 of a Bloch vector with |r| <= 1."""
    r = np.asarray(r, dtype=float)
    norm = np.linalg.norm(r)
    if norm > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    rho = np.eye(2, dtype=complex) / 2
    for val, axis in zip(r, "xyz"):
        rho = rho + 0.5 * val * PAULIS[axis]
    return rho


def monte_carlo_error(counts, estimator, trials, rng):
    """Poisson-resampled standard deviation of an estimator of counts.

    ``counts`` is an array of counts, e.g. (settings, outcomes) for one
    tomograph.  Every trial is drawn by one ``rng.poisson`` call, trial by
    trial and count by count in C order (a zero count draws nothing), and
    the estimator receives them all at once as a (trials,) + counts.shape
    array.  It returns the trials' values.
    """
    if trials < 2:
        raise ValueError("trials must be at least 2")
    lam = np.asarray(counts, dtype=np.float64)
    resampled = rng.poisson(np.broadcast_to(lam, (trials,) + lam.shape)).astype(np.float64)
    return float(np.std(np.asarray(estimator(resampled), dtype=np.float64), ddof=1))


# --- serialization ----------------------------------------------------------

def rho_to_list(rho):
    """Density matrix as nested row-major lists of [re, im] pairs."""
    rho = np.ascontiguousarray(rho, dtype=complex)
    return rho.view(np.float64).reshape(rho.shape + (2,)).tolist()


def rho_to_json(rho):
    """Density matrix as JSON: nested row-major [[re, im], ...] pairs."""
    return json.dumps(rho_to_list(rho))


def rho_from_json(text):
    data = json.loads(text)
    return np.array([[complex(re, im) for re, im in row] for row in data])
