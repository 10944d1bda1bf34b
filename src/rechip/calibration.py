"""Heater phase-voltage modeling and interference-fringe fitting.

Each thermo-optic phase shifter follows a quartic phase-voltage law with no
linear term (heating power scales with V^2),

    phi(V) = a0 + a2 V^2 + a3 V^3 + a4 V^4,

calibrated by sweeping 0..7 V and fitting the resulting fringe
I(V) = A (1 - C cos^2(phi(V)/2)) over all six parameters.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .csvio import finite_floats, read_rows

V_MIN, V_MAX = 0.0, 7.0


class CalibrationError(RuntimeError):
    """Raised when a fit fails to converge or produces an unusable curve."""


@dataclass(frozen=True)
class HeaterCurve:
    """Coefficients of the quartic phase-voltage relationship (rad, rad/V^k)."""

    a0: float
    a2: float
    a3: float = 0.0
    a4: float = 0.0

    def phase(self, v):
        return self.a0 + self.a2 * v**2 + self.a3 * v**3 + self.a4 * v**4

    def is_monotone(self, samples=400):
        """Strictly increasing phase on (0, V_MAX]."""
        v = np.linspace(V_MIN, V_MAX, samples)
        dphi = 2 * self.a2 * v + 3 * self.a3 * v**2 + 4 * self.a4 * v**3
        return bool(np.all(dphi[1:] > 0.0))


@dataclass(frozen=True)
class FringeFit:
    amplitude: float
    contrast: float
    curve: HeaterCurve
    rms_residual: float


def phase_of_voltage(curve, v):
    """Unwrapped phase at a drive voltage in [0, 7] V."""
    v = np.asarray(v, dtype=float)
    if np.any(v < V_MIN) or np.any(v > V_MAX):
        raise ValueError(f"voltage outside [{V_MIN}, {V_MAX}] V")
    return curve.phase(v) if v.ndim else float(curve.phase(v))


def voltage_of_phase(curve, target):
    """Drive voltage reaching a target phase, by bisection to 1e-9 V."""
    if not curve.is_monotone():
        raise CalibrationError("phase-voltage curve is not monotone on (0, 7] V")
    lo_phase, hi_phase = curve.phase(V_MIN), curve.phase(V_MAX)
    if not lo_phase <= target <= hi_phase:
        raise ValueError(f"target phase {target} outside reachable [{lo_phase}, {hi_phase}]")
    lo, hi = V_MIN, V_MAX
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if curve.phase(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fringe_model(amplitude, contrast, curve, v):
    """Fringe intensity A (1 - C cos^2(phi(V)/2))."""
    return amplitude * (1.0 - contrast * np.cos(curve.phase(np.asarray(v, dtype=float)) / 2.0) ** 2)


def _fringe_peaks(volts, counts):
    """Voltages of prominent fringe maxima (smoothed, noise-blip resistant)."""
    w = max(3, min(5, len(counts) // 4 * 2 + 1))
    smooth = np.convolve(counts, np.ones(w) / w, mode="same")
    floor = 0.75 * smooth.max()
    peaks = []
    for k in range(1, len(smooth) - 1):
        if smooth[k] >= smooth[k - 1] and smooth[k] > smooth[k + 1]:
            if smooth[k] >= floor and volts[k] >= 0.5:
                peaks.append(volts[k])
    return peaks


def _initial_guesses(volts, counts):
    """Candidate start vectors (A, C, a0, a2, a3, a4); a2 seeded from fringe maxima.

    With a0 near zero the m-th maximum sits at phi = (2m - 1) pi, so the
    first peak position and the first-to-second spacing give independent
    a2 seeds; the best-residual start wins.
    """
    amp = float(np.max(counts))
    cmin = float(np.min(counts))
    contrast = np.clip(1.0 - cmin / amp if amp > 0 else 0.5, 0.05, 1.0)
    peaks = _fringe_peaks(volts, counts)
    a2_seeds = []
    if peaks:
        a2_seeds.append(np.pi / peaks[0] ** 2)
    if len(peaks) >= 2 and peaks[1] > peaks[0]:
        a2_seeds.append(2.0 * np.pi / (peaks[1] ** 2 - peaks[0] ** 2))
    if not a2_seeds:
        vmid = volts[len(volts) // 2]
        a2_seeds.append(np.pi / max(vmid, 1.0) ** 2)
    return [np.array([amp, contrast, 0.0, a2, 0.0, 0.0]) for a2 in dict.fromkeys(a2_seeds)]


def fit_fringe(samples, max_nfev=20000):
    """Nonlinear least-squares fit of (A, C, a0, a2, a3, a4) to fringe samples.

    samples: sequence of (voltage, counts) pairs, at least 20, spanning at
    least one full fringe period.

    Raises
    ------
    ValueError
        Fewer than 20 samples.
    CalibrationError
        Optimizer failure, residual above 10% of the fitted amplitude, or a
        non-monotone fitted curve.
    """
    from scipy.optimize import least_squares

    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 20:
        raise ValueError("need at least 20 (voltage, counts) samples")
    volts, counts = samples[:, 0], samples[:, 1]

    def residuals(theta):
        amp, contrast, a0, a2, a3, a4 = theta
        curve = HeaterCurve(a0, a2, a3, a4)
        return fringe_model(amp, contrast, curve, volts) - counts

    lower = [0.0, 0.0, -2 * np.pi, 0.0, -np.inf, -np.inf]
    upper = [np.inf, 1.0, 2 * np.pi, np.inf, np.inf, np.inf]
    result = None
    for x0 in _initial_guesses(volts, counts):
        candidate = least_squares(
            residuals, x0, bounds=(lower, upper), max_nfev=max_nfev,
            xtol=1e-15, ftol=1e-15, gtol=1e-15,
        )
        if result is None or candidate.cost < result.cost:
            result = candidate
    if not result.success and result.status <= 0:
        raise CalibrationError(f"fringe fit did not converge: {result.message}")
    amp, contrast, a0, a2, a3, a4 = result.x
    curve = HeaterCurve(a0, a2, a3, a4)
    rms = float(np.sqrt(np.mean(result.fun**2)))
    if amp <= 0 or rms > 0.1 * amp:
        raise CalibrationError(f"fit residual {rms:.3g} exceeds 10% of amplitude {amp:.3g}")
    if not curve.is_monotone():
        raise CalibrationError("fitted phase-voltage curve is not monotone on (0, 7] V")
    return FringeFit(float(amp), float(np.clip(contrast, 0.0, 1.0)), curve, rms)


# --- file formats -----------------------------------------------------------

FRINGE_HEADER = ["voltage", "counts"]


def read_fringe_csv(path):
    """Parse a `voltage,counts` CSV; raises ValueError naming the offending line."""
    return read_rows(path, FRINGE_HEADER, finite_floats)


def write_fringe_csv(path, samples):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRINGE_HEADER)
        for v, n in samples:
            writer.writerow([repr(float(v)), repr(float(n))])


def fit_to_json(fit):
    return json.dumps(
        {
            "A": fit.amplitude,
            "C": fit.contrast,
            "a0": fit.curve.a0,
            "a2": fit.curve.a2,
            "a3": fit.curve.a3,
            "a4": fit.curve.a4,
            "rms": fit.rms_residual,
        },
        sort_keys=True,
    )
