"""Stochastic imperfection layer: phase jitter, distinguishability, counting noise.

All sampling goes through an explicitly passed ``numpy.random.Generator``;
a function that consumes an rng needs exclusive access to it.  Sweeps
derive independent child generators per task (``rng.spawn``) so results do
not depend on how a sweep is split into batches.
"""

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .chip import CoincidenceProbs, PhaseConfig, phase_batch, wrap_phases
from .csvio import read_rows

SPEED_OF_LIGHT_NM_PER_FS = 299.792458

DEFAULT_PHASE_SIGMA = 0.05       # rad, typical heater-setting accuracy
DEFAULT_INDISTINGUISHABILITY = 0.978
DEFAULT_MEAN_PAIRS = 1e4


@dataclass(frozen=True)
class NoiseModel:
    """Imperfection parameters for simulated runs.

    phase_sigma
        Standard deviation of the per-heater phase-setting error, radians.
    indistinguishability
        Weight v of the quantum (indistinguishable-photon) statistics; the
        remainder 1 - v follows the distinguishable-photon model.
    accidental_fraction
        Accidental coincidences as a fraction of true ones, spread uniformly
        over the outcomes.
    mean_pairs
        Expected total coincidence events per measurement setting.

    Every field must be finite.
    """

    phase_sigma: float = DEFAULT_PHASE_SIGMA
    indistinguishability: float = DEFAULT_INDISTINGUISHABILITY
    accidental_fraction: float = 0.0
    mean_pairs: float = DEFAULT_MEAN_PAIRS

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not 0.0 <= self.indistinguishability <= 1.0:
            raise ValueError("indistinguishability must lie in [0, 1]")
        if self.phase_sigma < 0.0:
            raise ValueError("phase_sigma must be non-negative")
        if self.accidental_fraction < 0.0:
            raise ValueError("accidental_fraction must be non-negative")
        if self.mean_pairs < 0.0:
            raise ValueError("mean_pairs must be non-negative")

    @classmethod
    def noiseless(cls):
        return cls(phase_sigma=0.0, indistinguishability=1.0, accidental_fraction=0.0)


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts per outcome for one measurement setting.

    Single-qubit settings store their two outcome counts in n00 and n01.
    """

    setting: str
    n00: int
    n01: int
    n10: int = 0
    n11: int = 0

    def counts(self, outcomes=4):
        return np.array([self.n00, self.n01, self.n10, self.n11][:outcomes], dtype=float)

    @classmethod
    def from_counts(cls, setting, counts):
        vals = [int(round(c)) for c in counts] + [0, 0, 0, 0]
        return cls(setting, vals[0], vals[1], vals[2], vals[3])


@dataclass(frozen=True)
class SpectralModel:
    """Photon spectrum set by the interference filters (Gaussian lineshape)."""

    center_nm: float = 808.0
    fwhm_nm: float = 3.0

    def __post_init__(self):
        if self.fwhm_nm <= 0:
            raise ValueError("fwhm must be positive")

    def coherence_time_fs(self):
        """Gaussian dip width sigma_t = sqrt(ln 2) / (pi * dnu_fwhm).

        For a Gaussian intensity spectrum with frequency FWHM dnu, the
        two-photon overlap decays as exp(-tau^2 / (2 sigma_t^2)) with
        sigma_t = 1 / (sqrt(2) sigma_omega); expressing sigma_omega through
        dnu = c * fwhm / lambda^2 gives the formula above.
        """
        dnu = SPEED_OF_LIGHT_NM_PER_FS * self.fwhm_nm / self.center_nm**2  # 1/fs
        return float(np.sqrt(np.log(2.0)) / (np.pi * dnu))


def apply_phase_noise(config, sigma, rng):
    """Each phase independently perturbed by N(0, sigma^2), rewrapped to [0, 2*pi).

    For an (N, 8) batch, rng is a sequence of N generators and row k draws
    its eight errors from rng[k], so a row's draws do not depend on the batch.
    """
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return config
    single = isinstance(config, PhaseConfig)
    errors = np.array([g.normal(0.0, sigma, size=8) for g in ([rng] if single else rng)])
    noisy = wrap_phases(phase_batch(config) + errors)
    return PhaseConfig(noisy[0]) if single else noisy


def mix_statistics(quantum, classical, v):
    """Convex combination v * quantum + (1 - v) * classical, componentwise (rowwise for a batch)."""
    if not 0.0 <= v <= 1.0:
        raise ValueError("v must lie in [0, 1]")
    p = v * quantum.as_array() + (1.0 - v) * classical.as_array()
    success = v * quantum.success + (1.0 - v) * classical.success
    return CoincidenceProbs.from_array(p, success)


def expected_counts(probs, model):
    """Expectation values of the per-outcome counts (accidentals included).

    probs is CoincidenceProbs or an array of outcome probabilities; (N, k)
    rows give (N, k) expectations.
    """
    p = probs.as_array() if hasattr(probs, "as_array") else np.asarray(probs, dtype=float)
    return model.mean_pairs * (p + model.accidental_fraction / p.shape[-1])


_DIP_CUTOFF_SIGMAS = 40.0  # exp(-40^2 / 2) is 0 in float64: beyond it the dip term is exactly 0


def hom_dip_curve(delays_fs, spectral, v_max):
    """Coincidence probability P(tau) = (1 - v_max exp(-tau^2/(2 sigma_t^2))) / 2."""
    sigma_t = spectral.coherence_time_fs()
    # |tau| is clipped where the dip term is already 0, so huge delays cannot overflow tau^2
    tau = np.clip(np.asarray(delays_fs, dtype=float), -_DIP_CUTOFF_SIGMAS * sigma_t, _DIP_CUTOFF_SIGMAS * sigma_t)
    return 0.5 * (1.0 - v_max * np.exp(-(tau**2) / (2.0 * sigma_t**2)))


def hom_visibility(n_classical, n_quantum):
    """Dip visibility (N_classical - N_quantum) / N_classical."""
    if n_classical <= 0:
        raise ValueError("n_classical must be positive")
    return (n_classical - n_quantum) / n_classical


# --- CSV schema: setting,n00,n01,n10,n11 -----------------------------------

COUNTS_HEADER = ["setting", "n00", "n01", "n10", "n11"]


def write_count_records(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNTS_HEADER)
        for r in records:
            writer.writerow([r.setting, r.n00, r.n01, r.n10, r.n11])


def _count_record(fields):
    try:
        counts = [int(c) for c in fields[1:]]
    except ValueError:
        raise ValueError("non-integer count") from None
    if any(c < 0 for c in counts):
        raise ValueError("negative count")
    return CountRecord(fields[0], *counts)


def read_count_records(path):
    """Parse a counts CSV; raises ValueError naming the offending line."""
    return read_rows(path, COUNTS_HEADER, _count_record)
