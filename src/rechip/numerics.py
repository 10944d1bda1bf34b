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
