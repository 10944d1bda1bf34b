import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def assert_equal_up_to_phase(got, expect, atol=1e-9):
    # align against expect's own pivot so magnitude ties cannot flip the choice
    got = np.asarray(got, dtype=complex)
    expect = np.asarray(expect, dtype=complex)
    k = np.unravel_index(np.argmax(np.abs(expect)), expect.shape)
    rotated = got * np.exp(1j * (np.angle(expect[k]) - np.angle(got[k])))
    assert np.max(np.abs(rotated - expect)) < atol


def unitarity_defect(u):
    # max-entry norm of u†u - I
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def brute_force_amplitude(u, input_state, output_state):
    # explicit sum over photon-path assignments with bosonic normalisation
    ins = [m for m, n in enumerate(input_state) for _ in range(n)]
    outs = [m for m, n in enumerate(output_state) for _ in range(n)]
    total = 0j
    for perm in itertools.permutations(range(len(ins))):
        term = 1.0 + 0j
        for k, p in enumerate(perm):
            term *= u[outs[k], ins[p]]
        total += term
    norm = 1.0
    for occ in list(input_state) + list(output_state):
        norm *= math.factorial(occ)
    return total / np.sqrt(norm)
