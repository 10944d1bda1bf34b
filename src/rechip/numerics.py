"""Dense complex linear-algebra primitives shared by the other modules.

Matrices are plain ``numpy.ndarray`` of complex128; everything here is a
pure function.  Dimensions never exceed 6x6, so double precision leaves
ample headroom for the stated tolerances.
"""

import numpy as np

HERMITIAN_TOL = 1e-10
EIGENVALUE_CLAMP = 1e-10


def tensor(a, b):
    """Kronecker product; row index convention (i_a * b.rows + i_b).

    Axes before the last two are batch axes: stacks of matrices give the
    stack of their products.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (rows, cols))


def hermiticity_defect(h):
    """Max-entry norm of (h - h†), over every matrix of a stack."""
    h = np.asarray(h, dtype=complex)
    return float(np.max(np.abs(h - h.conj().swapaxes(-1, -2))))


def psd_sqrt(h):
    """Hermitian PSD square root via spectral decomposition, of one matrix or of each in a stack.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything more negative
    is rejected, as is a non-Hermitian input.
    """
    h = np.asarray(h, dtype=complex)
    defect = hermiticity_defect(h)
    if defect > HERMITIAN_TOL:
        raise ValueError(f"input is not Hermitian (defect {defect:.3e})")
    w, v = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2)
    if w.min() < -EIGENVALUE_CLAMP:
        raise ValueError(f"eigenvalue {w.min():.3e} below the -1e-10 clamp threshold")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def align_global_phase(m):
    """Rotate a matrix (or vector) so its largest-magnitude entry is real positive.

    Used before comparisons that are only meaningful up to a global phase.
    """
    m = np.asarray(m, dtype=complex)
    k = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    pivot = m[k]
    if abs(pivot) == 0.0:
        return m.copy()
    return m * (abs(pivot) / pivot)


# minimize's per-row damping and stopping tests (see its docstring)
FTOL = 1e-15  # a step's actual and predicted reductions of f, relative to max(|f|, 1), that end a row
XTOL = 1e-15  # scaled step length, relative to the scaled point, that ends a row
GTOL = 1e-6  # largest scaled gradient |g_i| / sqrt(2 max(|f|, 1) |h_ii|) of a converged row
MAX_ITER = 1000  # steps, taken or not; a converging row takes tens
FIRST_DAMPING = 1e-3  # damping relative to the scale D**2 at the start
PRUNE_RATIO = 10.0  # with prune, a row whose f stays this many times the lowest row's ...
PRUNE_AFTER = 5  # ... for this many steps in a row stops

STOP_MESSAGES = (
    "converged: relative reduction of f below FTOL",
    "converged: scaled step below XTOL",
    "stopped: f no longer falls, scaled gradient above GTOL",
    "stopped: iteration limit MAX_ITER",
    "stopped: f stayed PRUNE_RATIO times the lowest row's",
)
CONVERGED = (0, 1)  # the status codes (indices into STOP_MESSAGES) of a converged row


def minimize(fun, x0, lower=-np.inf, upper=np.inf, prune=False):
    """Minimise every row of x0 (B, D) on its own by damped Newton steps.

    ``fun(x, rows)`` returns the values (n,), gradients (n, D) and Hessians
    (n, D, D) at the n rows of x, which are the rows ``rows`` of the batch; a
    positive semi-definite model of the Hessian, such as J^T J for a
    least-squares cost, serves as well.  A step solves
    (H + lambda D^2) s = -g, with D^2 the running maximum of the Hessian's
    diagonal (More's scaling, "The Levenberg-Marquardt algorithm:
    implementation and theory", LNM 630, 1978), and is taken when f falls.
    lambda starts at FIRST_DAMPING and follows the ratio of the actual to the
    predicted reduction (Nielsen's update).  Each trial point is projected
    onto the box [lower, upper]; a coordinate at a bound whose gradient
    points out of the box is held there for the step.

    A row stops when a step's actual and predicted reductions of f are both
    at most FTOL max(|f|, 1), or when its scaled step |D s| is at most
    XTOL |D x|: f no longer falls by more than its rounding.  It has then
    converged if it is stationary: no free g_i**2 exceeds
    GTOL**2 2 max(|f|, 1) |h_ii| (for f = |r|^2 / 2 and h = J^T J, no column
    of J makes a cosine above GTOL with the residual r).  A row also stops
    after MAX_ITER steps.  With ``prune`` the rows are starts of one
    problem: a row whose f stays above PRUNE_RATIO times the lowest current f
    of all rows for PRUNE_AFTER steps in a row stops.  Otherwise rows are
    computed as stacks, so a row's result does not depend on the other rows
    of the batch.

    Returns the rows' minimisers (B, D), their values (B,), their step
    counts (B,) and their status codes (B,), indices into STOP_MESSAGES.
    """
    x = np.clip(np.array(x0, dtype=np.float64), lower, upper)
    f, g, h = fun(x, np.arange(len(x)))
    diag = h.diagonal(axis1=-2, axis2=-1)
    scale = np.where(diag > 0, diag, 1.0)  # D^2
    damping = np.full(len(x), FIRST_DAMPING)
    growth = np.full(len(x), 2.0)
    steps = np.zeros(len(x), dtype=np.int64)
    behind = np.zeros(len(x), dtype=np.int64)
    status = np.full(len(x), -1)
    eye = np.eye(x.shape[1], dtype=bool)

    def outward(x, g):  # coordinates at a bound whose gradient points out of the box
        return ((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0))

    while (a := np.flatnonzero(status < 0)).size:
        xa, ha = x[a], h[a]
        held = outward(xa, g[a])
        ga = np.where(held, 0.0, g[a])
        system = ha + damping[a, None, None] * scale[a, :, None] * eye
        system = np.where(held[:, :, None] | held[:, None, :], eye, system)
        trial = np.clip(xa - np.linalg.solve(system, ga[..., None])[..., 0], lower, upper)
        step = trial - xa
        predicted = -np.einsum("sk,sk->s", ga, step) - 0.5 * np.einsum("sj,sjk,sk->s", step, ha, step)
        f_trial, g_trial, h_trial = fun(trial, a)
        steps[a] += 1
        actual = f[a] - f_trial
        ratio = np.divide(actual, predicted, out=np.zeros_like(actual), where=predicted > 0)
        size = np.maximum(np.abs(f[a]), 1.0)
        small_f = (np.abs(actual) <= FTOL * size) & (predicted <= FTOL * size) & (ratio <= 2.0)
        root = np.sqrt(scale[a])
        small_step = np.linalg.norm(root * step, axis=1) <= XTOL * np.linalg.norm(root * xa, axis=1)
        accept = (actual > 0) & (predicted > 0)
        moved = a[accept]
        x[moved], f[moved], g[moved], h[moved] = trial[accept], f_trial[accept], g_trial[accept], h_trial[accept]
        scale[moved] = np.maximum(scale[moved], h_trial[accept].diagonal(axis1=-2, axis2=-1))
        damping[a] *= np.where(accept, np.maximum(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), growth[a])
        growth[a] = np.where(accept, 2.0, 2.0 * growth[a])
        free_g = np.where(outward(x[a], g[a]), 0.0, g[a])
        curvature = np.abs(h[a].diagonal(axis1=-2, axis2=-1))
        stationary = np.all(free_g**2 <= GTOL**2 * 2.0 * np.maximum(np.abs(f[a, None]), 1.0) * curvature, axis=1)
        stops = [small_f & stationary, small_step & stationary, small_f | small_step, steps[a] >= MAX_ITER]
        if prune:
            behind[a] = np.where(f[a] > PRUNE_RATIO * f.min(), behind[a] + 1, 0)
            stops.append(behind[a] >= PRUNE_AFTER)
        status[a] = np.select(stops, range(len(stops)), -1)
    return x, f, steps, status
