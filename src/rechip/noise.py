"""Stochastic imperfection layer: phase jitter, distinguishability, counting noise.

All sampling goes through an explicitly passed ``numpy.random.Generator``;
a function that consumes an rng needs exclusive access to it.  The drivers
in ``experiments`` give each task its own child from ``Generator.spawn``;
their module docstring states the stream rule.
"""

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .chip import phase_batch, wrap_phases
from .csvio import read_rows

SPEED_OF_LIGHT_NM_PER_FS = 299.792458

DEFAULT_PHASE_SIGMA = 0.05       # rad, typical heater-setting accuracy
DEFAULT_INDISTINGUISHABILITY = 0.978
DEFAULT_MEAN_PAIRS = 1e4
# expected events per setting, accidentals included: below Generator.poisson's largest
# lam (about 9.2e18), with room for the resamples of counts drawn at this mean
MAX_MEAN_EVENTS = 1e18

# each field's domain beyond finiteness, in the order NoiseModel checks them: (low, high, text)
FIELD_DOMAINS = {
    "indistinguishability": (0.0, 1.0, "must lie in [0, 1]"),
    "phase_sigma": (0.0, math.inf, "must be non-negative"),
    "accidental_fraction": (0.0, math.inf, "must be non-negative"),
    "mean_pairs": (0.0, math.inf, "must be non-negative"),
}


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

    Every field must be finite and lie in its FIELD_DOMAINS entry, and
    mean_pairs * (1 + accidental_fraction) must be at most MAX_MEAN_EVENTS.
    """

    phase_sigma: float = DEFAULT_PHASE_SIGMA
    indistinguishability: float = DEFAULT_INDISTINGUISHABILITY
    accidental_fraction: float = 0.0
    mean_pairs: float = DEFAULT_MEAN_PAIRS

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name, (low, high, text) in FIELD_DOMAINS.items():
            if not low <= getattr(self, name) <= high:
                raise ValueError(f"{name} {text}")
        events = self.mean_pairs * (1.0 + self.accidental_fraction)
        if events > MAX_MEAN_EVENTS:
            raise ValueError(f"mean_pairs * (1 + accidental_fraction) must be at most {MAX_MEAN_EVENTS:g}, "
                             f"got {events}")

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


def apply_phase_noise(phases, sigma, rngs):
    """(N, 8) phases each perturbed by N(0, sigma^2), rewrapped to [0, 2*pi).

    rngs holds K generators for K equal groups of consecutive rows; each
    draws its group's errors as one standard_normal((N / K, 8)) call.
    """
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return phases
    phases = phase_batch(phases)
    if len(phases) % len(rngs):
        raise ValueError(f"{len(phases)} rows do not split into {len(rngs)} equal groups")
    z = np.array([g.standard_normal((len(phases) // len(rngs), 8)) for g in rngs]).reshape(phases.shape)
    # sigma * z is the double g.normal(0, sigma, size) returns, without numpy's per-call checks
    return wrap_phases(phases + sigma * z)


def mix_statistics(quantum, classical, v):
    """Convex combination v * quantum + (1 - v) * classical of two probability arrays, such as
    the (N, 4) two-photon and distinguishable-photon statistics of one batch."""
    if not 0.0 <= v <= 1.0:
        raise ValueError("v must lie in [0, 1]")
    return v * np.asarray(quantum) + (1.0 - v) * np.asarray(classical)


def expected_counts(probs, model):
    """Expectation values of the per-outcome counts (accidentals included) of an
    array of outcome probabilities; (N, k) rows give (N, k) expectations."""
    p = np.asarray(probs, dtype=float)
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
