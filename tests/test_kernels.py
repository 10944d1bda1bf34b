import numpy as np
import pytest

from rechip import kernels
from rechip.optics import pattern_of_pair, two_photon_pairs
from conftest import brute_force_amplitude, random_unitary


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def distinguishable_by_routes(pu, a, b, out_i, out_j):
    # each photon routed on its own: photon a to mode x, photon b to mode y
    modes = pu.shape[0]
    probs = {}
    for x in range(modes):
        for y in range(modes):
            key = (min(x, y), max(x, y))
            probs[key] = probs.get(key, 0.0) + pu[x, a] * pu[y, b]
    return np.array([probs[(i, j)] for i, j in zip(out_i, out_j)])


def test_two_photon_paths_agree(rng):
    out_i, out_j = two_photon_pairs(6)
    for _ in range(20):
        u = random_unitary(rng, 6)
        for a, b in ((0, 3), (2, 2)):
            got = kernels.two_photon_amps(u, a, b, out_i, out_j)
            ins = pattern_of_pair(a, b, 6)
            expect = [brute_force_amplitude(u, ins, pattern_of_pair(i, j, 6)) for i, j in zip(out_i, out_j)]
            assert np.max(np.abs(got - expect)) < 1e-12


def test_distinguishable_paths_agree(rng):
    out_i, out_j = two_photon_pairs(6)
    for _ in range(20):
        pu = np.abs(random_unitary(rng, 6)) ** 2
        for a, b in ((1, 4), (3, 3)):
            got = kernels.distinguishable_probs(pu, a, b, out_i, out_j)
            expect = distinguishable_by_routes(pu, a, b, out_i, out_j)
            assert np.max(np.abs(got - expect)) < 1e-12


def test_batched_numpy_forms_equal_stacked_single_calls(rng):
    out_i, out_j = two_photon_pairs(6)
    u = np.array([random_unitary(rng, 6) for _ in range(64)])
    pu = np.abs(u) ** 2
    for a, b in ((1, 3), (2, 2)):
        amps = kernels.two_photon_amps(u, a, b, out_i, out_j)
        assert np.array_equal(amps, np.array([kernels.two_photon_amps(m, a, b, out_i, out_j) for m in u]))
        probs = kernels.distinguishable_probs(pu, a, b, out_i, out_j)
        assert np.array_equal(probs, np.array([kernels.distinguishable_probs(m, a, b, out_i, out_j) for m in pu]))


def _random_mle_problem(rng, dim, nproj=12):
    projs = []
    for _ in range(nproj):
        v = random_complex(rng, dim)
        v /= np.linalg.norm(v)
        projs.append(np.outer(v, v.conj()))
    projs = np.stack(projs)
    counts = rng.uniform(5, 2000, nproj)
    totals = np.full(nproj, 2000.0)
    theta = rng.normal(size=dim * dim)
    return theta, projs, counts, totals


@pytest.mark.parametrize("dim", [2, 4])
def test_mle_paths_agree(dim, rng):
    # the likelihood value against p_k = Tr(P_k rho) of the parameterised state
    for _ in range(10):
        theta, projs, counts, totals = _random_mle_problem(rng, dim)
        rho = kernels.rho_from_params(theta, dim)
        p = np.array([np.trace(proj @ rho).real for proj in projs])
        expect = -np.sum(counts * np.log(totals * p) - totals * p)
        value, _ = kernels.mle_nll_grad(theta, kernels.quadratic_forms(projs, dim), counts, totals, dim, 1e-12)
        assert value == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 4])
def test_mle_gradient_matches_finite_differences(dim, rng):
    theta, projs, counts, totals = _random_mle_problem(rng, dim)
    forms = kernels.quadratic_forms(projs, dim)
    _, grad = kernels.mle_nll_grad(theta, forms, counts, totals, dim, 1e-12)
    eps = 1e-6
    for k in range(len(theta)):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += eps
        tm[k] -= eps
        vp, _ = kernels.mle_nll_grad(tp, forms, counts, totals, dim, 1e-12)
        vm, _ = kernels.mle_nll_grad(tm, forms, counts, totals, dim, 1e-12)
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


@pytest.mark.parametrize("dim", [2, 4])
def test_params_from_rho_round_trips_full_rank_states(dim, rng):
    for _ in range(20):
        g = random_complex(rng, (dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        theta = kernels.params_from_rho(rho)
        assert np.linalg.norm(theta) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(kernels.rho_from_params(theta, dim) - rho)) < 1e-12
        # and the other way round, up to the free scale of theta
        back = kernels.params_from_rho(kernels.rho_from_params(theta, dim))
        assert np.max(np.abs(back - theta)) < 1e-10


@pytest.mark.parametrize("dim", [2, 4])
def test_mle_projector_matrix_equals_stack(dim, rng):
    # the reconstruction builds its forms from flattened (K, dim**2) rows; the value and the gradient match
    # those from the stack
    theta, projs, counts, totals = _random_mle_problem(rng, dim)
    v_stack, g_stack = kernels.mle_nll_grad(theta, kernels.quadratic_forms(projs, dim), counts, totals, dim, 1e-12)
    rows = kernels.quadratic_forms(projs.reshape(len(projs), -1), dim)
    v_rows, g_rows = kernels.mle_nll_grad(theta, rows, counts, totals, dim, 1e-12)
    assert v_rows == v_stack
    assert np.array_equal(g_rows, g_stack)


@pytest.mark.parametrize("dim", [2, 4])
def test_mle_batch_rows_equal_single_calls(dim, rng):
    # a (B, dim**2) batch with (B, K) counts: each row bit for bit as its own call
    problems = [_random_mle_problem(rng, dim) for _ in range(3)]
    forms = kernels.quadratic_forms(problems[0][1], dim)
    theta, counts, totals = (np.array([p[i] for p in problems]) for i in (0, 2, 3))
    values, grads = kernels.mle_nll_grad(theta, forms, counts, totals, dim, 1e-12)
    for b in range(3):
        value, grad = kernels.mle_nll_grad(theta[b:b + 1], forms, counts[b:b + 1], totals[b:b + 1], dim, 1e-12)
        assert values[b] == value[0]
        assert np.array_equal(grads[b], grad[0])
