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
the boundary of the state space.  L-BFGS-B starts from projected linear
inversion (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)): the
least-squares rho with its eigenvalues projected onto the probability
simplex and floored, so that the start is full rank.
"""

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .chip import u_prep
from .noise import CountRecord
from .numerics import psd_sqrt, tensor

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

    ``converged`` is L-BFGS-B's own success flag and ``message`` its
    termination message; ``params`` is the optimum in the T†T
    parameterisation, a warm start for fits of nearby data.
    """

    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    message: str
    params: np.ndarray


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on the first fit rather than with the package."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def check_density(rho):
    """Validate Hermiticity and trace 1 to 1e-10 and eigenvalues above -1e-9; returns rho unchanged."""
    rho = np.asarray(rho, dtype=complex)
    defect = np.max(np.abs(rho - rho.conj().T))
    if defect > 1e-10:
        raise ValueError(f"density matrix not Hermitian (defect {defect:.2e})")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace {tr} != 1")
    wmin = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
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
def _design(settings):
    """Flattened projector rows (K, d**2) of a tuple of settings and the
    pseudo-inverse mapping outcome frequencies to the least-squares vec(rho)."""
    pmat = np.concatenate([projectors_of_setting(s) for s in settings])
    pmat = pmat.reshape(len(pmat), -1)
    # Tr(P rho) = conj(vec P) . vec(rho) for Hermitian P
    inverse = np.linalg.pinv(pmat.conj())
    pmat.flags.writeable = False
    inverse.flags.writeable = False
    return pmat, inverse


def _stack_measurements(settings, counts):
    if len(settings) != len(counts):
        raise ValueError("counts must align with settings")
    qubits = settings[0].qubits
    outcomes = 2**qubits
    kept, ns, totals = [], [], []
    for setting, record in zip(settings, counts):
        n = record.counts(outcomes)
        total = n.sum()
        if total <= 0:
            continue  # a zero-observation setting carries no likelihood term
        kept.append(setting)
        ns.append(n)
        totals.append(total)
    if not kept:
        raise ValueError("zero total counts")
    pmat, inverse = _design(tuple(kept))
    return pmat, inverse, np.concatenate(ns), np.repeat(totals, outcomes), outcomes


def linear_inversion_start(inverse, counts, totals, dim):
    """Projected linear inversion: least-squares rho, eigenvalues projected onto
    the probability simplex, then floored at START_EIGEN_FLOOR and renormalised."""
    rho = (inverse @ (counts / totals)).reshape(dim, dim)
    mu, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    # Euclidean projection of the eigenvalues onto the simplex (sorted descending)
    desc = mu[::-1]
    shift = (np.cumsum(desc) - 1.0) / np.arange(1, dim + 1)
    last = np.nonzero(desc - shift > 0)[0][-1]
    lam = np.maximum(mu - shift[last], START_EIGEN_FLOOR)
    lam /= lam.sum()
    return kernels.params_from_rho((vecs * lam) @ vecs.conj().T)


def mle_reconstruct(settings, counts, start=None):
    """Maximum-likelihood density matrix from per-setting count records.

    The search starts from ``start`` (parameters of an earlier fit, e.g.
    ``MLEResult.params`` of the point estimate when refitting resampled
    counts) or else from projected linear inversion.

    Raises
    ------
    ValueError
        Misaligned inputs or zero total counts.
    """
    pmat, inverse, n, totals, dim = _stack_measurements(settings, counts)

    def objective(theta):
        return kernels.mle_nll_grad(theta, pmat, n, totals, dim, PROB_FLOOR)

    theta0 = linear_inversion_start(inverse, n, totals, dim) if start is None else start
    result = minimize(
        objective,
        theta0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 5000, "ftol": 1e-13, "gtol": 1e-12, "maxcor": 20},
    )
    rho = kernels.rho_from_params(result.x, dim)
    # Hermitise exactly; the parameterisation already guarantees PSD and trace 1
    rho = (rho + rho.conj().T) / 2
    return MLEResult(
        rho=rho,
        log_likelihood=float(-result.fun),
        iterations=int(result.nit),
        converged=bool(result.success),
        message=str(result.message),
        params=result.x,
    )


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

    (N, k) inputs (or batched CoincidenceProbs) give the (N,) overlaps row by row.
    """
    p = p.as_array() if hasattr(p, "as_array") else np.asarray(p, dtype=float)
    q = q.as_array() if hasattr(q, "as_array") else np.asarray(q, dtype=float)
    f = np.sqrt(np.clip(p, 0, None) * np.clip(q, 0, None)).sum(axis=-1)
    return float(f) if f.ndim == 0 else f


def quantum_fidelity(rho, sigma):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clamped to [0, 1]."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    root = psd_sqrt(rho)
    inner = root @ sigma @ root
    # inner is PSD up to roundoff; symmetrise before the second root
    inner = (inner + inner.conj().T) / 2
    w = np.linalg.eigvalsh(inner)
    f = float(np.sqrt(np.clip(w, 0.0, None)).sum() ** 2)
    return min(max(f, 0.0), 1.0)


def purity(rho):
    return float(np.einsum("ij,ji->", rho, rho).real)


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
    """Poisson-resampled standard deviation of an estimator of count records.

    ``counts`` may be a single CountRecord or a sequence of them; the
    estimator receives the same shape it was given.
    """
    if trials < 2:
        raise ValueError("trials must be at least 2")
    single = not isinstance(counts, (list, tuple))
    records = [counts] if single else list(counts)
    values = np.empty(trials)
    for t in range(trials):
        resampled = [
            type(r)(r.setting, *(int(c) for c in rng.poisson(r.counts())))
            for r in records
        ]
        values[t] = estimator(resampled[0] if single else resampled)
    return float(np.std(values, ddof=1))


# --- serialization ----------------------------------------------------------

def rho_to_json(rho):
    """Density matrix as nested row-major [[re, im], ...] pairs."""
    rho = np.asarray(rho, dtype=complex)
    data = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    return json.dumps(data)


def rho_from_json(text):
    data = json.loads(text)
    return np.array([[complex(re, im) for re, im in row] for row in data])
