"""Heater phase-voltage modeling and interference-fringe fitting.

Each thermo-optic phase shifter follows a quartic phase-voltage law with no
linear term (heating power scales with V^2),

    phi(V) = a0 + a2 V^2 + a3 V^3 + a4 V^4,

calibrated by sweeping 0..7 V and fitting the resulting fringe
I(V) = A (1 - C cos^2(phi(V)/2)) over all six parameters.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .csvio import finite_floats, read_rows
from .numerics import CONVERGED, STOP_MESSAGES, minimize

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

    def is_monotone(self):
        """Strictly increasing phase on (0, V_MAX], checked at 400 voltages."""
        v = np.linspace(V_MIN, V_MAX, 400)
        dphi = 2 * self.a2 * v + 3 * self.a3 * v**2 + 4 * self.a4 * v**3
        return bool(np.all(dphi[1:] > 0.0))


@dataclass(frozen=True)
class FringeFit:
    amplitude: float
    contrast: float
    curve: HeaterCurve
    rms_residual: float
    evaluations: int  # residual evaluations of the winning start
    stop: str  # its entry of numerics.STOP_MESSAGES


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


def _initial_guesses(counts):
    """Start rows (A, C, a0, a2, a3, a4): A and C from the extreme counts, a0 and a2 on the grid."""
    amp = float(np.max(counts))
    cmin = float(np.min(counts))
    contrast = np.clip(1.0 - cmin / amp if amp > 0 else 0.5, 0.05, 1.0)
    return np.array([[amp, contrast, a0, a2, 0.0, 0.0] for a2 in START_A2 for a0 in START_A0])


START_A2 = np.geomspace(0.05, 1.0, 12)  # a2 of the starts: under half a fringe to about 8 over 0..7 V
START_A0 = (0.0, np.pi)  # a0 of the starts, each paired with every a2
_LOWER = np.array([0.0, 0.0, -2 * np.pi, 0.0, -np.inf, -np.inf])
_UPPER = np.array([np.inf, 1.0, 2 * np.pi, np.inf, np.inf, np.inf])
_POWERS = np.array([0, 2, 3, 4])  # of V in phi: a0, a2, a3, a4


def _cost_gradient_gauss_newton(theta, volts, counts):
    """Half the residual sum of squares (S,) of the S parameter rows (A, C, a0, a2, a3, a4), its
    gradient J^T r (S, 6) and the Gauss-Newton Hessian J^T J (S, 6, 6), with J the residuals' Jacobian."""
    amp, contrast = theta[:, :1], theta[:, 1:2]
    powers = volts[:, None] ** _POWERS  # (N, 4)
    phi = theta[:, 2:] @ powers.T
    cos2 = np.cos(phi / 2.0) ** 2
    dphi = 0.5 * amp * contrast * np.sin(phi)  # df/dphi
    jac = np.concatenate([(1.0 - contrast * cos2)[..., None], (-amp * cos2)[..., None],
                          dphi[..., None] * powers], axis=-1)
    r = amp * (1.0 - contrast * cos2) - counts
    return 0.5 * np.sum(r**2, axis=1), np.einsum("snk,sn->sk", jac, r), np.einsum("snj,snk->sjk", jac, jac)


def fit_fringe(samples):
    """Least-squares fit of (A, C, a0, a2, a3, a4) to fringe samples.

    samples: sequence of (voltage, counts) pairs, at least 20, spanning at
    least one full fringe period.

    Method: numerics.minimize (bounded Levenberg-Marquardt: damped
    Gauss-Newton steps with the analytic Jacobian of fringe_model) from 24
    fixed starts at once (a2 on START_A2 times a0 on START_A0, A and C from
    the extreme counts, a3 = a4 = 0), as one (starts, 6) array program.  The
    bounds are A >= 0, 0 <= C <= 1, |a0| <= 2 pi and a2 >= 0.  Starts that
    stay far behind the best are pruned, and the lowest-cost start wins (the
    first on a tie).  Its a0 is reported in [-pi, pi).

    Raises
    ------
    ValueError
        Fewer than 20 samples, or a sample that is not finite.
    CalibrationError
        The winning start did not converge, residual above 10% of the fitted
        amplitude, or a non-monotone fitted curve.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 20:
        raise ValueError("need at least 20 (voltage, counts) samples")
    if not np.all(np.isfinite(samples)):
        raise ValueError("fringe samples must be finite")
    volts, counts = samples[:, 0], samples[:, 1]
    x, cost, steps, status = minimize(lambda theta, rows: _cost_gradient_gauss_newton(theta, volts, counts),
                                      _initial_guesses(counts), _LOWER, _UPPER, prune=True)
    best = int(np.argmin(cost))
    if status[best] not in CONVERGED:
        raise CalibrationError(f"fringe fit did not converge: {STOP_MESSAGES[status[best]]}")
    amp, contrast, a0, a2, a3, a4 = x[best]
    a0 -= 2 * np.pi * np.floor((a0 + np.pi) / (2 * np.pi))  # cos^2(phi/2) has period 2 pi; [-pi, pi) stays put
    curve = HeaterCurve(a0, a2, a3, a4)
    rms = float(np.sqrt(np.mean((fringe_model(amp, contrast, curve, volts) - counts) ** 2)))
    if amp <= 0 or rms > 0.1 * amp:
        raise CalibrationError(f"fit residual {rms:.3g} exceeds 10% of amplitude {amp:.3g}")
    if not curve.is_monotone():
        raise CalibrationError("fitted phase-voltage curve is not monotone on (0, 7] V")
    return FringeFit(float(amp), float(contrast), curve, rms, int(steps[best]) + 1, STOP_MESSAGES[status[best]])


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
