"""End-to-end experiment drivers built on the chip, noise and tomography layers.

Each driver accepts a NoiseModel and a ``numpy.random.Generator`` (or runs
exactly, probability-level, when the generator is omitted).  The device
model runs once per batch: a driver evaluates its configurations as one
array program, chunk by contiguous chunk in order (at most 256 items each),
and its results do not depend on how a sweep is split into chunks.

Random streams.  A sampled ``random_config_benchmark`` spawns one child
generator per block of ``STREAM_BLOCK`` rows (``Generator.spawn``).  A
block of m rows draws each quantity with one array call, in order: its
configurations ``g.random((m, 8)) * 2*pi``, their phase errors
``sigma * g.standard_normal((m, 8))``, then its counts ``g.poisson(lam)``,
chunk by chunk.  An exact run draws only the configurations, and a run
without a generator takes row i's from ``default_rng(i)``.  The CHSH
manifold and the tomography suites spawn one child per task instead
(``noise.spawn``, the children ``Generator.spawn`` gives, hashed for all
parents at once), and each task draws its configuration's jitter and counts
from its own child.
"""

from dataclasses import dataclass, field

import numpy as np

from .calibration import phase_of_voltage
from .chip import (
    PhaseConfig,
    coincidence_probs,
    distinguishable_coincidence_probs,
    transfer_matrices,
    two_qubit_unitary,
)
from .csvio import finite_floats, read_rows
from .noise import (
    CountRecord,
    NoiseModel,
    SpectralModel,
    apply_phase_noise,
    expected_counts,
    hom_dip_curve,
    hom_visibility,
    mix_statistics,
    spawn,
)
from .tomography import (
    canonical_settings,
    bloch_of_rho,
    mle_reconstruct_batch,
    monte_carlo_error,
    partial_trace,
    quantum_fidelity,
    rho_of_bloch,
    rho_to_list,
    sample_hs_random,
    statistical_fidelity,
)

TWO_PI = 2.0 * np.pi
DEFAULT_MANIFOLD_STEP = TWO_PI / 15.0
MAX_MANIFOLD_SIDE = 1001  # grid points per axis: a step of at least 2*pi/1000
SCHEMA = 1  # version of every report document
NOISELESS = NoiseModel.noiseless()

_MAX_CHUNK = 256  # items per batch: bounds the device model's memory on large sweeps
STREAM_BLOCK = 256  # rows per child generator of a sampled random_config_benchmark


def _run_chunked(fn, n):
    """fn(lo, hi) over contiguous chunks of range(n), in order, joined along the last axis.

    There are as few near-equal chunks as keep each within _MAX_CHUNK items.
    """
    chunks = -(-n // _MAX_CHUNK)
    bounds = [n * k // chunks for k in range(chunks + 1)]
    return np.concatenate([fn(bounds[k], bounds[k + 1]) for k in range(chunks)], axis=-1)


# ---------------------------------------------------------------------------
# state preparation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrepAmplitudes:
    """Per-qubit input amplitudes (alpha, beta) and (gamma, delta), each normalised."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self):
        for pair in ((self.alpha, self.beta), (self.gamma, self.delta)):
            norm = abs(pair[0]) ** 2 + abs(pair[1]) ** 2
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"amplitude pair not normalised (|.|^2 sum {norm})")


def prep_config(amps):
    """Preparation phases (phi1..phi4; measurement phases zero) for given amplitudes.

    phi_odd = 2 atan2(|second|, |first|) sets the populations, phi_even the
    relative phase of each pair.
    """
    phi1 = 2.0 * np.arctan2(abs(amps.beta), abs(amps.alpha))
    phi2 = np.angle(amps.beta) - np.angle(amps.alpha)
    phi3 = 2.0 * np.arctan2(abs(amps.delta), abs(amps.gamma))
    phi4 = np.angle(amps.delta) - np.angle(amps.gamma)
    return PhaseConfig([phi1, phi2, phi3, phi4, 0.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# noisy device statistics shared by all drivers
# ---------------------------------------------------------------------------

def device_probs(config, noise, rng, input_state="00"):
    """Coincidence statistics of the simulated device under a noise model.

    Applies per-setting phase jitter (when an rng is given), runs the
    two-photon waveguide model and blends in the distinguishable-photon
    statistics with weight 1 - v.  For an (N, 8) batch of configurations,
    rng is None, one generator for the whole batch or a sequence of N
    generators, one per row (see apply_phase_noise); the netlist is composed
    once for the whole batch and feeds both photon models.
    """
    if rng is not None and noise.phase_sigma > 0:
        config = apply_phase_noise(config, noise.phase_sigma, rng)
    u = transfer_matrices(config)
    probs = coincidence_probs(config, input_state, model="waveguide", transfer=u)
    v = noise.indistinguishability
    if v < 1.0:
        classical = distinguishable_coincidence_probs(config, input_state, transfer=u)
        probs = mix_statistics(probs, classical, v)
    return probs


def _outcome_counts(p, noise, rngs):
    """Expected counts for (N, outcomes) probabilities, or Poisson draws with row k from rngs[k].

    A row draws one scalar per outcome, in order: the same numbers as g.poisson(row), which
    samples element by element, without numpy's per-array argument checks.
    """
    lam = expected_counts(p, noise)
    if rngs is None:
        return lam
    return np.array([[g.poisson(x) for x in row] for g, row in zip(rngs, lam.tolist())], dtype=float)


# ---------------------------------------------------------------------------
# random-configuration benchmark
# ---------------------------------------------------------------------------

class _FidelityStats:
    """Summary statistics over a report's ``fidelities`` array."""

    @property
    def mean(self):
        return float(np.mean(self.fidelities))

    @property
    def std(self):
        return float(np.std(self.fidelities))

    def fraction_above(self, threshold):
        return float(np.mean(self.fidelities > threshold))


@dataclass
class BenchmarkReport(_FidelityStats):
    """Statistical fidelities of randomly chosen device configurations."""

    fidelities: np.ndarray

    def to_dict(self):
        return {
            "schema": SCHEMA,
            "experiment": "benchmark-random",
            "n": int(self.fidelities.size),
            "mean": self.mean,
            "std": self.std,
            "fraction_above_0.97": self.fraction_above(0.97),
            "fidelities": self.fidelities.tolist(),
        }


def _random_configs(rngs):
    """Eight phases uniform on [0, 2*pi) per generator: the draws of g.uniform(0, 2*pi, 8), bit for bit."""
    return np.array([g.random(8) for g in rngs]) * TWO_PI


def random_config_benchmark(n=995, noise=NOISELESS, rng=None, exact=False):
    """Statistical fidelity between simulated and ideal coincidence statistics
    over n configurations drawn uniformly from [0, 2*pi)^8.

    exact=True (or rng=None) skips phase jitter and count sampling, keeping
    only the deterministic parts of the noise model; a noiseless model then
    gives fidelity 1 up to roundoff.  The module docstring gives the draws.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    children = None if rng is None else rng.spawn(-(-n // STREAM_BLOCK))
    fidelities = []
    for block, lo in enumerate(range(0, n, STREAM_BLOCK)):
        rows = min(STREAM_BLOCK, n - lo)
        if children is None:
            configs = _random_configs([np.random.default_rng(i) for i in range(lo, lo + rows)])
        else:
            configs = children[block].random((rows, 8)) * TWO_PI
        g = None if exact or children is None else children[block]
        noisy = configs if g is None else apply_phase_noise(configs, noise.phase_sigma, g)
        fidelities.append(_run_chunked(lambda i, j: _benchmark_rows(configs[i:j], noisy[i:j], noise, g), rows))
    return BenchmarkReport(np.concatenate(fidelities))


def _benchmark_rows(configs, noisy, noise, g):
    """Fidelities of rows whose device runs at the noisy phases, with counts drawn from g (or expected)."""
    theory = coincidence_probs(configs, "00", model="gate")
    counts = expected_counts(device_probs(noisy, noise, None).as_array(), noise)
    if g is not None:
        counts = g.poisson(counts)
    total = counts.sum(axis=-1)
    fidelity = statistical_fidelity(counts / np.where(total > 0, total, 1.0)[:, None], theory)
    return np.where(total > 0, fidelity, 0.0)


# ---------------------------------------------------------------------------
# tomography-based suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteEntry:
    label: str
    fidelity: float
    error: float
    rho: np.ndarray
    target: np.ndarray
    fits_not_converged: int  # this entry's MLE fits (point estimate and resamples) that did not converge


@dataclass
class SuiteReport(_FidelityStats):
    experiment: str
    entries: list = field(default_factory=list)

    @property
    def fidelities(self):
        return np.array([e.fidelity for e in self.entries])

    def to_dict(self, include_states=True):
        doc = {
            "schema": SCHEMA,
            "experiment": self.experiment,
            "mean": self.mean,
            "std": self.std,
            "fits_not_converged": sum(e.fits_not_converged for e in self.entries),
            "entries": [{"label": e.label, "fidelity": e.fidelity, "error": e.error} for e in self.entries],
        }
        if include_states:
            rhos = rho_to_list(np.array([e.rho for e in self.entries]))
            targets = rho_to_list(np.array([e.target for e in self.entries]))
            for item, rho, target in zip(doc["entries"], rhos, targets):
                item.update(rho=rho, target=target)
        return doc


def tomography_records(prep, noise, rng, qubits=2):
    """Settings and simulated (preparations, settings, outcomes) whole counts for prepared states.

    rng is None (exact) or one generator per preparation, which spawns one
    child per setting, so a preparation's counts do not depend on the others;
    every setting of every preparation runs as one batch.  Single-qubit
    tomography analyses qubit A (its own measurement stage) and marginalises
    over qubit B's outcome.  A single PhaseConfig (rng None or a generator)
    gets one CountRecord per setting instead: the rows of a counts file.
    """
    if isinstance(prep, PhaseConfig):
        settings, counts = tomography_records([prep], noise, None if rng is None else [rng], qubits)
        return settings, [CountRecord.from_counts(s.label, c) for s, c in zip(settings, counts[0])]
    settings = canonical_settings(qubits)
    children = None if rng is None else spawn(rng, len(settings))
    # preparation phases phi1..phi4 on each row, each setting's analysis angles after them
    phis = np.zeros((len(prep), len(settings), 8))
    phis[..., :4] = np.array([p.phis[:4] for p in prep])[:, None]
    phis[..., 4:4 + 2 * qubits] = [np.ravel(s.angles) for s in settings]
    probs = device_probs(phis.reshape(-1, 8), noise, children).as_array()
    if qubits == 1:
        probs = np.stack([probs[:, 0] + probs[:, 1], probs[:, 2] + probs[:, 3]], axis=-1)
    counts = np.rint(_outcome_counts(probs, noise, children))
    return settings, counts.reshape(len(prep), len(settings), -1)


def _check_mc_trials(mc_trials):
    # fewer than two resamples give no spread: 0 and 1 both mean no error bars
    if mc_trials < 0:
        raise ValueError(f"mc_trials must not be negative, got {mc_trials}")


def _tomographs(labels, settings, counts, targets, mc_trials, rngs):
    """SuiteEntries of a suite's reconstructions from (targets, settings, outcomes) counts,
    every point estimate fitted in one batch.

    An entry's error is the Poisson-resampled std of its fidelity (with
    mc_trials >= 2 and rngs, one generator per target); a target's resamples
    are one batch, warm-started from its point estimate.
    """
    points = mle_reconstruct_batch(settings, counts)
    fidelities = quantum_fidelity(np.array(targets), np.array([point.rho for point in points]))
    entries = []
    for k, (label, target, point, fidelity) in enumerate(zip(labels, targets, points, fidelities)):
        failed = [not point.converged]

        def resampled_fidelities(resampled):
            start = np.broadcast_to(point.params, (len(resampled), point.params.size))
            fits = mle_reconstruct_batch(settings, resampled, start=start)
            failed.extend(not fit.converged for fit in fits)
            return quantum_fidelity(target, np.array([fit.rho for fit in fits]))

        error = 0.0
        if mc_trials >= 2 and rngs is not None:
            error = monte_carlo_error(counts[k], resampled_fidelities, mc_trials, rngs[k])
        entries.append(SuiteEntry(label, float(fidelity), float(error), point.rho, target, sum(failed)))
    return entries


BELL_PREPS = {
    "phi_plus": (np.pi / 2, 0.0, 0.0, 0.0),
    "phi_minus": (np.pi / 2, np.pi, 0.0, 0.0),
    "psi_plus": (np.pi / 2, 0.0, np.pi, 0.0),
    "psi_minus": (np.pi / 2, np.pi, np.pi, 0.0),
}

_BELL_KETS = {
    "phi_plus": np.array([1, 0, 0, 1]) / np.sqrt(2),
    "phi_minus": np.array([1, 0, 0, -1]) / np.sqrt(2),
    "psi_plus": np.array([0, 1, 1, 0]) / np.sqrt(2),
    "psi_minus": np.array([0, 1, -1, 0]) / np.sqrt(2),
}


def bell_targets():
    return {name: np.outer(k, k.conj()).astype(complex) for name, k in _BELL_KETS.items()}


def bell_state_suite(noise=NOISELESS, rng=None, mc_trials=25):
    """Prepare the four Bell states, tomograph each and report fidelities.

    Error bars come from Poisson resampling of the counts followed by
    re-reconstruction (mc_trials below 2, or an exact run with rng=None,
    disables them; a negative count is a ValueError).
    """
    _check_mc_trials(mc_trials)
    targets = bell_targets()
    names = list(BELL_PREPS)
    children = None if rng is None else spawn([rng], len(names))
    preps = [PhaseConfig(list(BELL_PREPS[name]) + [0.0] * 4) for name in names]
    settings, counts = tomography_records(preps, noise, children, qubits=2)

    entries = _tomographs(names, settings, counts, [targets[name] for name in names], mc_trials, children)
    return SuiteReport("bell-suite", entries)


# ---------------------------------------------------------------------------
# CHSH manifold
# ---------------------------------------------------------------------------

ALICE_DIALS = (np.pi / 4, -np.pi / 4)


def chsh_state(alpha):
    """Normalised tunable state ((1 - e^{i a})|00> + (1 + e^{i a})|11>) / 2."""
    z = np.exp(1j * alpha)
    return np.array([(1 - z) / 2, 0.0, 0.0, (1 + z) / 2], dtype=complex)


_CHSH_SETTINGS = ((0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, -1.0))  # Alice, Bob, sign


def _chsh_phases(alphas, betas):
    """(4K, 8) device phases of the four settings at each point (alphas[k], betas[k])."""
    alphas, betas = np.asarray(alphas, dtype=float), np.asarray(betas, dtype=float)
    # The preparation phi1 = pi - alpha, phi2 = pi/2 gives chsh_state(alpha).
    # Measurement-stage internal angles sit at pi/2 so the external phases
    # rotate the analysis axis around the equator.  Bob's analyzer azimuth
    # runs opposite to his dial (mirror-image stage), hence the sign.
    phis = np.tile([0.0, np.pi / 2, 0.0, 0.0, np.pi / 2, 0.0, np.pi / 2, 0.0], (len(alphas), 4, 1))
    phis[:, :, 0] = (np.pi - alphas)[:, None]
    for k, (i, j, _) in enumerate(_CHSH_SETTINGS):
        phis[:, k, 5] = ALICE_DIALS[i]
        phis[:, k, 7] = -(betas if j == 0 else betas + np.pi / 2)
    return phis.reshape(-1, 8)


def _chsh_of_counts(counts):
    """S from (..., 4 settings, 4 outcomes) counts or probabilities."""
    total = counts.sum(axis=-1)
    p = counts / np.where(total > 0, total, 1.0)[..., None]
    corr = np.where(total > 0, p[..., 0] - p[..., 1] - p[..., 2] + p[..., 3], 0.0)
    s = 0.0
    for k, (_, _, sign) in enumerate(_CHSH_SETTINGS):
        s = s + sign * corr[..., k]
    return s


def _chsh_points(alphas, betas, noise, rngs, mc_trials):
    """S and its resampled std at points (alphas[k], betas[k]) as one batch of 4 settings each.

    rngs is None (exact) or one generator per point; a point's four settings
    draw from children spawned off it, its resamples from the generator itself.
    """
    configs = _chsh_phases(alphas, betas)
    children = None if rngs is None else spawn(rngs, 4)
    probs = device_probs(configs, noise, children).as_array()
    # exact: expected_counts' accidentals without its mean_pairs scale, which S does not depend on
    counts = probs + noise.accidental_fraction / 4 if rngs is None else _outcome_counts(probs, noise, children)
    counts = counts.reshape(len(alphas), 4, 4)
    s = _chsh_of_counts(counts)
    if mc_trials < 2 or rngs is None:
        return s, np.zeros_like(s)
    resampled = np.array([g.poisson(c, (mc_trials, 4, 4)) for g, c in zip(rngs, counts)], dtype=float)
    return s, np.std(_chsh_of_counts(resampled), axis=-1, ddof=1)


def chsh_sum(alpha, beta, noise=NOISELESS, rng=None, mc_trials=0):
    """Bell-CHSH sum S(alpha, beta) from the four correlator settings.

    Alice's dials are phi6 = +-pi/4; Bob's are phi8 = beta and beta + pi/2.
    Exact mode (rng=None) evaluates probabilities, accidentals included;
    otherwise counts are Poisson-sampled.  Returns S, or (S, std) when
    mc_trials >= 2.
    """
    _check_mc_trials(mc_trials)
    s, std = _chsh_points([alpha], [beta], noise, None if rng is None else [rng], mc_trials)
    if mc_trials < 2 or rng is None:
        return float(s[0])
    return float(s[0]), float(std[0])


@dataclass
class ManifoldGrid:
    alphas: np.ndarray
    betas: np.ndarray
    s: np.ndarray
    std: np.ndarray

    def to_dict(self):
        return {
            "schema": SCHEMA,
            "experiment": "chsh-manifold",
            "alphas": self.alphas.tolist(),
            "betas": self.betas.tolist(),
            "S": self.s.tolist(),
            "std": self.std.tolist(),
            "max": float(self.s.max()),
            "min": float(self.s.min()),
        }


def chsh_manifold(step=DEFAULT_MANIFOLD_STEP, noise=NOISELESS, rng=None, mc_trials=0):
    """S(alpha, beta) on a closed grid over [0, 2*pi] x [0, 2*pi].  A grid of more than
    MAX_MANIFOLD_SIDE points per axis is a ValueError."""
    if not 0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    npts = int(np.floor(TWO_PI / step + 1e-9)) + 1
    if npts > MAX_MANIFOLD_SIDE:
        raise ValueError(f"step {step} gives a {npts} x {npts} grid ({npts * npts} points), "
                         f"more than {MAX_MANIFOLD_SIDE} x {MAX_MANIFOLD_SIDE}")
    _check_mc_trials(mc_trials)
    axis = np.arange(npts) * step
    rows, cols = np.divmod(np.arange(npts * npts), npts)
    children = None if rng is None else spawn([rng], npts * npts)

    def chunk(lo, hi):
        rngs = None if children is None else children[lo:hi]
        return np.array(_chsh_points(axis[rows[lo:hi]], axis[cols[lo:hi]], noise, rngs, mc_trials))

    s, std = _run_chunked(chunk, npts * npts)
    return ManifoldGrid(axis, axis.copy(), s.reshape(npts, npts), std.reshape(npts, npts))


_STENCIL = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)  # 3x3, row-major
_FIRST_SPACING = 0.5  # rad: a wide stencil aliases the 2*pi-periodic surface (spacing pi: singular Hessian)
_MIN_SPACING = 1e-5  # rad: keeps roundoff in the difference quotients near 1e-11
_STEP_TOL = 1e-10  # rad: a Newton step this short ends a search
_MAX_ITER = 50  # every grid step takes at most about 10


def chsh_extrema(grid=None):
    """(min, max) of the exact S surface, refined from the grid extrema.

    The two searches run together, maximising -S and S.  Each iteration
    evaluates a 3x3 stencil around both points as one batch and forms the
    finite-difference gradient and Hessian.  Where the surface is locally
    concave and the Newton step stays within the stencil spacing, the point
    takes that step and the spacing shrinks to its length; otherwise it
    moves to its best stencil point (halving the spacing if that is the
    centre).  Each extremum is the best value seen, grid included.
    """
    if grid is None:
        grid = chsh_manifold()
    starts = [np.unravel_index(np.argmin(grid.s), grid.s.shape),
              np.unravel_index(np.argmax(grid.s), grid.s.shape)]
    x = np.array([[grid.alphas[i], grid.betas[j]] for i, j in starts])
    sign = np.array([-1.0, 1.0])
    best = sign * np.array([grid.s.min(), grid.s.max()])
    h = np.full(2, _FIRST_SPACING)
    for _ in range(_MAX_ITER):
        points = (x[:, None, :] + h[:, None, None] * _STENCIL).reshape(-1, 2)
        f = sign[:, None] * _chsh_points(points[:, 0], points[:, 1], NOISELESS, None, 0)[0].reshape(2, 9)
        best = np.maximum(best, f.max(axis=1))
        # f[k, 3 i + j] sits at alpha offset i - 1 and beta offset j - 1 (m: -1, c: 0, p: +1)
        mm, mc, mp, cm, cc, cp, pm, pc, pp = f.T
        ga, gb = (pc - mc) / (2 * h), (cp - cm) / (2 * h)
        haa, hbb = (pc - 2 * cc + mc) / h**2, (cp - 2 * cc + cm) / h**2
        hab = (pp - pm - mp + mm) / (4 * h**2)
        det = haa * hbb - hab**2
        concave = (haa < 0) & (det > 0)
        newton = np.stack([hab * gb - hbb * ga, hab * ga - haa * gb], axis=-1)
        newton /= np.where(concave, det, 1.0)[:, None]
        length = np.hypot(newton[:, 0], newton[:, 1])
        trusted = concave & (length <= h)
        hop = h[:, None] * _STENCIL[np.argmax(f, axis=1)]
        x = x + np.where(trusted[:, None], newton, hop)
        stalled = ~trusted & ~hop.any(axis=1)
        h = np.where(trusted, np.maximum(length, _MIN_SPACING), np.where(stalled, h / 2, h))
        if np.all(trusted & (length < _STEP_TOL)):
            break
    return float(-best[0]), float(best[1])


def r_squared(measured, theory):
    """Coefficient of determination 1 - sum (S-T)^2 / sum (S - mean S)^2."""
    s = np.asarray(measured, dtype=float)
    t = np.asarray(theory, dtype=float)
    if s.shape != t.shape or s.size < 2:
        raise ValueError("inputs must have equal length >= 2")
    denom = np.sum((s - s.mean()) ** 2)
    if denom <= 0:
        raise ValueError("measured values are all equal (degenerate denominator)")
    return float(1.0 - np.sum((s - t) ** 2) / denom)


# ---------------------------------------------------------------------------
# mixed-state generation
# ---------------------------------------------------------------------------

def solve_mixed_prep(target):
    """Preparation amplitudes whose reduced qubit-A state hits a Bloch target.

    The populations fix |alpha|, |beta| from r_z; the coherence
    alpha beta* (gamma delta* + delta gamma*) supplies the equatorial part,
    with its phase carried by beta and its magnitude by the real overlap
    2 Re(gamma delta*) = sqrt(rx^2 + ry^2) / (2 |alpha| |beta|).
    """
    r = np.asarray(target, dtype=float)
    norm = np.linalg.norm(r)
    if norm > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    rx, ry, rz = r
    rz = min(max(rz, -1.0), 1.0)
    mag_a = np.sqrt((1.0 + rz) / 2.0)
    mag_b = np.sqrt((1.0 - rz) / 2.0)
    chi = np.arctan2(-ry, rx)  # phase of rx - i ry
    alpha = complex(mag_a)
    beta = mag_b * np.exp(-1j * chi)
    r_perp = np.hypot(rx, ry)
    if mag_a * mag_b > 1e-12:
        overlap = min(r_perp / (2.0 * mag_a * mag_b), 1.0)
    else:
        overlap = 0.0
    theta = np.arcsin(overlap)
    gamma = complex(np.cos(theta / 2.0))
    delta = complex(np.sin(theta / 2.0))
    return PrepAmplitudes(alpha, beta, gamma, delta)


def reduced_state_of_config(config):
    """Qubit-A reduced density matrix of the gate-model output for |00> input."""
    psi = two_qubit_unitary(config)[:, 0]
    return partial_trace(np.outer(psi, psi.conj()), keep="A")


def mixed_state_suite(targets=None, n=119, noise=NOISELESS, rng=None, mc_trials=0):
    """Generate mixed single-qubit targets on the chip and tomograph qubit A.

    targets: iterable of Bloch vectors; when omitted, n targets are drawn at
    random by the Hilbert-Schmidt measure (requires an rng).  No targets
    (an empty list, or n < 1) is a ValueError, as is a negative mc_trials.
    """
    _check_mc_trials(mc_trials)
    if targets is None:
        if rng is None:
            raise ValueError("sampling targets requires an rng")
        targets = [bloch_of_rho(sample_hs_random(2, rng)) for _ in range(n)]
    targets = [np.asarray(t, dtype=float) for t in targets]
    if not targets:
        raise ValueError("at least one target is required, got none")
    children = None if rng is None else spawn([rng], len(targets))
    preps = [prep_config(solve_mixed_prep(r)) for r in targets]
    settings, counts = tomography_records(preps, noise, children, qubits=1)

    labels = [f"target-{i}" for i in range(len(targets))]
    entries = _tomographs(labels, settings, counts, [rho_of_bloch(r) for r in targets], mc_trials, children)
    return SuiteReport("mixed-suite", entries)


# ---------------------------------------------------------------------------
# interference scans
# ---------------------------------------------------------------------------

@dataclass
class HomScan:
    delays_fs: np.ndarray
    expected: np.ndarray
    counts: np.ndarray
    visibility: float

    def to_dict(self):
        return {
            "schema": SCHEMA,
            "experiment": "hom-dip",
            "delays_fs": self.delays_fs.tolist(),
            "expected": self.expected.tolist(),
            "counts": self.counts.tolist(),
            "visibility": self.visibility,
        }


_PLATEAU_SIGMAS = 6.5  # residual dip depth exp(-6.5^2/2) ~ 7e-10, below tolerance


def hom_scan(delays_fs=None, noise=NOISELESS, rng=None, spectral=None):
    """Two-photon coincidence counts against an optical delay, plus fitted visibility.

    The visibility estimate takes N_quantum from the zero-delay point and
    N_classical from the plateau average (points beyond 6.5 coherence times,
    where the dip term is negligible at the stated tolerances).  A scan with
    a non-finite delay, with no point within half a coherence time of zero
    delay, or that does not reach the plateau on both sides, is a ValueError.
    """
    spectral = spectral or SpectralModel()
    if delays_fs is None:
        delays_fs = np.linspace(-1600.0, 1600.0, 81)
    delays_fs = np.asarray(delays_fs, dtype=float)
    if not np.all(np.isfinite(delays_fs)):
        raise ValueError("delays must be finite")
    sigma_t = spectral.coherence_time_fs()
    zero = np.argmin(np.abs(delays_fs))
    if abs(delays_fs[zero]) > 0.5 * sigma_t:
        raise ValueError(f"delay scan needs a point within half a coherence time ({0.5 * sigma_t:.0f} fs) "
                         f"of zero delay; the nearest is {delays_fs[zero]:g} fs")
    reach = _PLATEAU_SIGMAS * sigma_t
    if not (delays_fs.min() <= -reach and delays_fs.max() >= reach):
        raise ValueError(f"delay scan must reach past {_PLATEAU_SIGMAS} coherence times ({reach:.0f} fs) "
                         f"on both sides of zero delay")
    plateau = np.abs(delays_fs) >= reach

    probs = hom_dip_curve(delays_fs, spectral, noise.indistinguishability)
    expected = noise.mean_pairs * probs
    counts = expected if rng is None else rng.poisson(expected).astype(float)
    n_classical = counts[plateau].mean()
    n_quantum = counts[zero]
    return HomScan(delays_fs, expected, counts, float(hom_visibility(n_classical, n_quantum)))


@dataclass
class FringeScan:
    heater: int
    voltages: np.ndarray
    counts0: np.ndarray
    counts1: np.ndarray

    def samples(self, output=0):
        counts = self.counts0 if output == 0 else self.counts1
        return list(zip(self.voltages, counts))


def fringe_scan(heater, voltages, curve, noise=NOISELESS, rng=None):
    """Single-photon counts at both outputs of one heater's MZ against voltage.

    The fringe contrast equals the noise model's indistinguishability
    parameter and the amplitude its mean_pairs; in expectation the two
    outputs are complementary (their sum is constant).
    """
    if not 1 <= heater <= 8:
        raise ValueError("heater index must be 1..8")
    voltages = np.asarray(voltages, dtype=float)
    phi = phase_of_voltage(curve, voltages)
    amp = noise.mean_pairs
    contrast = noise.indistinguishability
    expected0 = amp * (1.0 - contrast * np.cos(phi / 2.0) ** 2)
    expected1 = amp * (1.0 - contrast * np.sin(phi / 2.0) ** 2)
    if rng is None:
        return FringeScan(heater, voltages, expected0, expected1)
    return FringeScan(
        heater,
        voltages,
        rng.poisson(expected0).astype(float),
        rng.poisson(expected1).astype(float),
    )


# ---------------------------------------------------------------------------
# bundled glyph targets
# ---------------------------------------------------------------------------

def load_psi_glyph():
    """The 63 bundled real-plane Bloch vectors tracing the psi glyph."""
    from importlib import resources

    with resources.as_file(resources.files("rechip") / "data" / "psi_glyph.csv") as path:
        return read_bloch_targets(path)


def read_bloch_targets(path):
    """Parse a Bloch-target CSV (header rx,ry,rz); errors name the line."""
    return read_rows(path, ["rx", "ry", "rz"], lambda fields: np.array(finite_floats(fields)))
