import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rechip import kernels
from rechip.optics import two_photon_pairs
from conftest import random_unitary


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_permanent_paths_agree(n, rng):
    for _ in range(20):
        a = np.ascontiguousarray(random_complex(rng, (n, n)))
        ref = kernels.permanent_numpy(a)
        assert abs(kernels.permanent(a) - ref) < 1e-10
        assert abs(kernels._permanent_loops(a) - ref) < 1e-10


def test_two_photon_paths_agree(rng):
    out_i, out_j, _ = two_photon_pairs(6)
    for _ in range(20):
        u = np.ascontiguousarray(random_unitary(rng, 6))
        for a, b in ((0, 3), (2, 2)):
            jit = kernels.two_photon_amps(u, a, b, out_i, out_j)
            loops = kernels._two_photon_amps_loops(u, a, b, out_i, out_j)
            ref = kernels.two_photon_amps_numpy(u, a, b, out_i, out_j)
            assert np.max(np.abs(jit - ref)) < 1e-12
            assert np.max(np.abs(loops - ref)) < 1e-12


def test_distinguishable_paths_agree(rng):
    out_i, out_j, _ = two_photon_pairs(6)
    for _ in range(20):
        pu = np.ascontiguousarray(np.abs(random_unitary(rng, 6)) ** 2)
        for a, b in ((1, 4), (3, 3)):
            jit = kernels.distinguishable_probs(pu, a, b, out_i, out_j)
            loops = kernels._distinguishable_probs_loops(pu, a, b, out_i, out_j)
            ref = kernels.distinguishable_probs_numpy(pu, a, b, out_i, out_j)
            assert np.max(np.abs(jit - ref)) < 1e-12
            assert np.max(np.abs(loops - ref)) < 1e-12


def test_batched_numpy_forms_equal_stacked_single_calls(rng):
    out_i, out_j, _ = two_photon_pairs(6)
    u = np.array([random_unitary(rng, 6) for _ in range(64)])
    pu = np.abs(u) ** 2
    for a, b in ((1, 3), (2, 2)):
        amps = kernels.two_photon_amps_numpy(u, a, b, out_i, out_j)
        assert np.array_equal(amps, np.array([kernels.two_photon_amps_numpy(m, a, b, out_i, out_j) for m in u]))
        probs = kernels.distinguishable_probs_numpy(pu, a, b, out_i, out_j)
        assert np.array_equal(probs, np.array([kernels.distinguishable_probs_numpy(m, a, b, out_i, out_j) for m in pu]))
        # the dispatched kernels take stacks on either path
        assert np.array_equal(kernels.two_photon_amps(u, a, b, out_i, out_j), amps)
        assert np.array_equal(kernels.distinguishable_probs(pu, a, b, out_i, out_j), probs)


def test_loop_forms_only_see_single_matrices(rng):
    # the numba dispatch wraps each compiled loop form this way
    seen = []

    def loops(u, a, b, out_i, out_j):
        seen.append(u.ndim)
        return kernels._two_photon_amps_loops(u, a, b, out_i, out_j)

    kernel = kernels._single_matrix(loops, kernels.two_photon_amps_numpy)
    out_i, out_j, _ = two_photon_pairs(6)
    u = np.array([random_unitary(rng, 6) for _ in range(3)])
    batch = kernel(u, 0, 3, out_i, out_j)
    single = kernel(u[1], 0, 3, out_i, out_j)
    assert seen == [2]
    assert np.max(np.abs(batch[1] - single)) < 1e-12


def _random_mle_problem(rng, dim, nproj=12):
    projs = []
    for _ in range(nproj):
        v = random_complex(rng, dim)
        v /= np.linalg.norm(v)
        projs.append(np.outer(v, v.conj()))
    projs = np.ascontiguousarray(np.stack(projs))
    counts = rng.uniform(5, 2000, nproj)
    totals = np.full(nproj, 2000.0)
    theta = rng.normal(size=dim * dim)
    return theta, projs, counts, totals


@pytest.mark.parametrize("dim", [2, 4])
def test_mle_paths_agree(dim, rng):
    for _ in range(10):
        theta, projs, counts, totals = _random_mle_problem(rng, dim)
        v2, g2 = kernels.mle_nll_grad_numpy(theta, projs, counts, totals, dim, 1e-12)
        for fn in (kernels.mle_nll_grad, kernels._mle_nll_grad_loops):
            v1, g1 = fn(theta, projs, counts, totals, dim, 1e-12)
            assert v1 == pytest.approx(v2, rel=1e-12)
            assert np.max(np.abs(g1 - g2)) < 1e-9 * max(1.0, np.max(np.abs(g2)))


@pytest.mark.parametrize("dim", [2, 4])
def test_mle_gradient_matches_finite_differences(dim, rng):
    theta, projs, counts, totals = _random_mle_problem(rng, dim)
    _, grad = kernels.mle_nll_grad(theta, projs, counts, totals, dim, 1e-12)
    eps = 1e-6
    for k in range(len(theta)):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += eps
        tm[k] -= eps
        vp, _ = kernels.mle_nll_grad(tp, projs, counts, totals, dim, 1e-12)
        vm, _ = kernels.mle_nll_grad(tm, projs, counts, totals, dim, 1e-12)
        fd = (vp - vm) / (2 * eps)
        assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_rho_from_params_physical(rng):
    for dim in (2, 4):
        for _ in range(20):
            rho = kernels.rho_from_params(rng.normal(size=dim * dim), dim)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_parameter_count_matches_dimension():
    assert kernels.t_from_params(np.zeros(4), 2).shape == (2, 2)
    assert kernels.t_from_params(np.zeros(16), 4).shape == (4, 4)
    with pytest.raises(Exception):
        kernels.t_from_params(np.zeros(15), 4)


def test_warmup_runs():
    kernels.warmup()


DISPATCHED = ("permanent", "two_photon_amps", "distinguishable_probs", "mle_nll_grad")
FALLBACK_WARNING = "numba is not importable"


def _flag_set(env):
    return env.get("RECHIP_NO_NUMBA", "").strip().lower() not in ("", "0", "false")


def _numba_importable():
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def test_dispatch_matches_environment():
    # the numpy forms run when the flag is set or numba does not import
    if _flag_set(os.environ) or not _numba_importable():
        assert not kernels.NUMBA_ENABLED
        for name in DISPATCHED:
            assert getattr(kernels, name) is getattr(kernels, name + "_numpy"), name
    else:
        assert kernels.NUMBA_ENABLED
        for name in DISPATCHED:
            assert getattr(kernels, name) is not getattr(kernels, name + "_numpy"), name


# Imports rechip.kernels in a fresh interpreter, optionally with numba
# blocked, and reports the dispatch and the warnings the import raised.
_CHILD = """
import json, sys, warnings
if sys.argv[1] == "block":
    sys.modules["numba"] = None  # makes `import numba` raise ImportError
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from rechip import kernels
print(json.dumps({
    "enabled": kernels.NUMBA_ENABLED,
    "numpy_forms": [getattr(kernels, n) is getattr(kernels, n + "_numpy") for n in sys.argv[2:]],
    "warnings": [str(w.message) for w in caught],
}))
"""


def _import_in_child(no_numba_flag, block_numba):
    env = {k: v for k, v in os.environ.items() if k != "RECHIP_NO_NUMBA"}
    if no_numba_flag:
        env["RECHIP_NO_NUMBA"] = "1"
    src = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-c", _CHILD, "block" if block_numba else "allow", *DISPATCHED]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_no_numba_flag_selects_numpy_forms_in_child():
    flagged = _import_in_child(no_numba_flag=True, block_numba=False)
    assert flagged["enabled"] is False
    assert flagged["numpy_forms"] == [True] * len(DISPATCHED)
    assert not any(FALLBACK_WARNING in w for w in flagged["warnings"])

    fallback = _import_in_child(no_numba_flag=False, block_numba=True)
    assert fallback["enabled"] is False
    assert fallback["numpy_forms"] == [True] * len(DISPATCHED)
    assert any(FALLBACK_WARNING in w for w in fallback["warnings"])
