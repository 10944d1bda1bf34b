import numpy as np
import pytest

from rechip.numerics import (
    align_global_phase,
    hermiticity_defect,
    psd_sqrt,
    tensor,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(I2, I2), np.eye(4))

    def test_xx_permutes_basis(self):
        v = np.zeros(4)
        v[0] = 1.0
        out = tensor(X, X) @ v
        assert np.argmax(np.abs(out)) == 3

    def test_bilinearity(self, rng):
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            lhs = tensor(a, b) @ np.kron(u, v)
            rhs = np.kron(a @ u, b @ v)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_associative(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        c = rng.normal(size=(2, 2))
        assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), atol=0)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_square_recovers_input(self, rng):
        for _ in range(25):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = g @ g.conj().T
            root = psd_sqrt(h)
            assert np.max(np.abs(root @ root - h)) < 1e-9 * max(1.0, np.max(np.abs(h)))
            assert hermiticity_defect(root) < 1e-10
            assert np.linalg.eigvalsh(root).min() >= -1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="clamp"):
            psd_sqrt(np.diag([-1e-6, 1.0]))

    def test_clamps_boundary_grazing(self):
        root = psd_sqrt(np.diag([-5e-11, 1.0]))
        assert np.linalg.eigvalsh(root).min() >= 0.0


def test_align_global_phase(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rotated = m * np.exp(1j * 1.234)
    assert np.max(np.abs(align_global_phase(rotated) - align_global_phase(m))) < 1e-12
    aligned = align_global_phase(m)
    k = np.unravel_index(np.argmax(np.abs(aligned)), aligned.shape)
    assert aligned[k].imag == pytest.approx(0.0, abs=1e-14)
    assert aligned[k].real > 0
