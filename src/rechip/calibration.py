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
    stop: str  # its entry of STOP_MESSAGES


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


# Levenberg-Marquardt settings of fit_fringe (see its docstring)
START_A2 = np.geomspace(0.05, 1.0, 12)  # a2 of the starts: under half a fringe to about 8 over 0..7 V
START_A0 = (0.0, np.pi)  # a0 of the starts, each paired with every a2
FTOL = 1e-15  # relative cost reduction, actual and predicted, that ends a start
XTOL = 1e-15  # scaled step length, relative to the scaled parameters, that ends a start
GTOL = 1e-15  # largest scaled gradient cosine that ends a start
MAX_EVALUATIONS = 1000  # a converging start takes tens
FIRST_DAMPING = 1e-3  # damping relative to the squared column norms at the start
PRUNE_RATIO = 10.0  # a start whose cost stays this many times the best start's ...
PRUNE_AFTER = 5  # ... for this many iterations in a row stops
STOP_MESSAGES = (
    "converged: relative reduction of the cost below FTOL",
    "converged: scaled step below XTOL",
    "converged: scaled gradient below GTOL",
    "stopped: evaluation limit MAX_EVALUATIONS",
    "stopped: cost stayed PRUNE_RATIO times the best start's",
)
_CONVERGED = (0, 1, 2)  # the status codes (indices into STOP_MESSAGES) of a converged start
_LOWER = np.array([0.0, 0.0, -2 * np.pi, 0.0, -np.inf, -np.inf])
_UPPER = np.array([np.inf, 1.0, 2 * np.pi, np.inf, np.inf, np.inf])
_POWERS = np.array([0, 2, 3, 4])  # of V in phi: a0, a2, a3, a4


def _residuals_and_jacobian(theta, volts, counts):
    """Residuals (S, N) of the S parameter rows (A, C, a0, a2, a3, a4) and their Jacobian (S, N, 6)."""
    amp, contrast = theta[:, :1], theta[:, 1:2]
    powers = volts[:, None] ** _POWERS  # (N, 4)
    phi = theta[:, 2:] @ powers.T
    cos2 = np.cos(phi / 2.0) ** 2
    dphi = 0.5 * amp * contrast * np.sin(phi)  # df/dphi
    jac = np.concatenate([(1.0 - contrast * cos2)[..., None], (-amp * cos2)[..., None],
                          dphi[..., None] * powers], axis=-1)
    return amp * (1.0 - contrast * cos2) - counts, jac


def _levenberg_marquardt(x, volts, counts):
    """Least-squares fits of the fringe from every row of x (S, 6), as one batch.

    Returns the final rows, their costs (half the residual sum of squares),
    evaluation counts and status codes (indices into STOP_MESSAGES).
    """
    x = np.clip(x, _LOWER, _UPPER)
    r, jac = _residuals_and_jacobian(x, volts, counts)
    cost = 0.5 * np.sum(r**2, axis=1)
    norms = np.linalg.norm(jac, axis=1)
    scale = np.where(norms > 0, norms, 1.0)
    damping = np.full(len(x), FIRST_DAMPING)
    growth = np.full(len(x), 2.0)
    evaluations = np.ones(len(x), dtype=int)
    behind = np.zeros(len(x), dtype=int)
    status = np.full(len(x), -1)
    eye = np.eye(x.shape[1], dtype=bool)
    while (a := np.flatnonzero(status < 0)).size:
        grad = np.einsum("snk,sn->sk", jac[a], r[a])
        held = ((x[a] <= _LOWER) & (grad > 0)) | ((x[a] >= _UPPER) & (grad < 0))
        grad = np.where(held, 0.0, grad)
        rnorm = np.sqrt(2.0 * cost[a])
        cosine = np.max(np.abs(grad) / scale[a], axis=1) / np.where(rnorm > 0, rnorm, 1.0)
        hess = np.einsum("snj,snk->sjk", jac[a], jac[a])
        system = hess + damping[a, None, None] * scale[a, :, None] ** 2 * eye
        system = np.where(held[:, :, None] | held[:, None, :], eye, system)
        step = -np.linalg.solve(system, grad[..., None])[..., 0]
        trial = np.clip(x[a] + step, _LOWER, _UPPER)
        step = trial - x[a]
        predicted = -np.einsum("sk,sk->s", grad, step) - 0.5 * np.einsum("sj,sjk,sk->s", step, hess, step)
        r_trial, jac_trial = _residuals_and_jacobian(trial, volts, counts)
        evaluations[a] += 1
        cost_trial = 0.5 * np.sum(r_trial**2, axis=1)
        actual = cost[a] - cost_trial
        ratio = np.divide(actual, predicted, out=np.zeros_like(actual), where=predicted > 0)
        small_cost = (np.abs(actual) <= FTOL * cost[a]) & (predicted <= FTOL * cost[a]) & (ratio <= 2.0)
        small_step = np.linalg.norm(scale[a] * step, axis=1) <= XTOL * np.linalg.norm(scale[a] * x[a], axis=1)
        accept = (actual > 0) & (predicted > 0)
        moved = a[accept]
        x[moved], r[moved], jac[moved] = trial[accept], r_trial[accept], jac_trial[accept]
        cost[moved] = cost_trial[accept]
        scale[moved] = np.maximum(scale[moved], np.linalg.norm(jac_trial[accept], axis=1))
        damping[a] *= np.where(accept, np.maximum(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), growth[a])
        growth[a] = np.where(accept, 2.0, 2.0 * growth[a])
        behind[a] = np.where(cost[a] > PRUNE_RATIO * cost.min(), behind[a] + 1, 0)
        stops = [small_cost, small_step, cosine <= GTOL, evaluations[a] >= MAX_EVALUATIONS,
                 behind[a] >= PRUNE_AFTER]
        status[a] = np.select(stops, range(len(stops)), -1)
    return x, cost, evaluations, status


def fit_fringe(samples):
    """Least-squares fit of (A, C, a0, a2, a3, a4) to fringe samples.

    samples: sequence of (voltage, counts) pairs, at least 20, spanning at
    least one full fringe period.

    Method: bounded Levenberg-Marquardt (More, "The Levenberg-Marquardt
    algorithm: implementation and theory", LNM 630, 1978) from 24 fixed
    starts at once (a2 on START_A2 times a0 on START_A0, A and C from the
    extreme counts, a3 = a4 = 0), as one (starts, 6) array program with the
    analytic Jacobian of fringe_model.  The damping term is lambda D^2, with
    D the running maximum of the Jacobian's column norms (More's scaling);
    lambda follows the gain ratio (Nielsen's update).  Bounds (A >= 0,
    0 <= C <= 1, |a0| <= 2 pi, a2 >= 0) are kept by projecting each trial
    point onto the box; a parameter at a bound whose gradient points out of
    the box is held there for the step.

    Stopping rule, per start: the actual and predicted relative cost
    reductions of a step are both below FTOL, the scaled step is below XTOL
    of the scaled parameters, the free gradient's largest scaled cosine with
    the residual is below GTOL, or MAX_EVALUATIONS residual evaluations are
    spent.  Pruning rule: a start whose cost stays above PRUNE_RATIO times
    the lowest current cost of all starts for PRUNE_AFTER iterations in a
    row stops.  The lowest-cost start wins (the first on a tie).

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
    x, cost, evaluations, status = _levenberg_marquardt(_initial_guesses(counts), volts, counts)
    best = int(np.argmin(cost))
    if status[best] not in _CONVERGED:
        raise CalibrationError(f"fringe fit did not converge: {STOP_MESSAGES[status[best]]}")
    amp, contrast, a0, a2, a3, a4 = x[best]
    curve = HeaterCurve(a0, a2, a3, a4)
    rms = float(np.sqrt(np.mean((fringe_model(amp, contrast, curve, volts) - counts) ** 2)))
    if amp <= 0 or rms > 0.1 * amp:
        raise CalibrationError(f"fit residual {rms:.3g} exceeds 10% of amplitude {amp:.3g}")
    if not curve.is_monotone():
        raise CalibrationError("fitted phase-voltage curve is not monotone on (0, 7] V")
    return FringeFit(float(amp), float(contrast), curve, rms, int(evaluations[best]),
                     STOP_MESSAGES[status[best]])


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
