import numpy as np
import pytest

from rechip import kernels
from rechip.optics import (
    Coupler,
    Netlist,
    Phase,
    compose,
    distinguishable_distribution,
    element_matrix,
    netlist_from_json,
    netlist_to_json,
    pair_of_pattern,
    pattern_of_pair,
    two_photon_distribution,
)
from conftest import brute_force_amplitude, random_unitary, unitarity_defect


def two_photon_amplitude(u, input_state, output_state):
    # one transition amplitude between two-photon occupation patterns, from the device's kernel
    a, b = pair_of_pattern(input_state)
    i, j = pair_of_pattern(output_state)
    return complex(kernels.two_photon_amps(np.asarray(u, dtype=complex), a, b, np.array([i]), np.array([j]))[0])


def random_netlist(rng, modes, n_elements=12):
    elements = []
    for _ in range(n_elements):
        if rng.random() < 0.6:
            i, j = rng.choice(modes, size=2, replace=False)
            elements.append(Coupler(int(i), int(j), float(rng.uniform(0, 1))))
        else:
            elements.append(Phase(int(rng.integers(modes)), float(rng.uniform(0, 2 * np.pi))))
    return Netlist(modes=modes, elements=tuple(elements))


class TestElements:
    def test_coupler_validation(self):
        with pytest.raises(ValueError):
            Coupler(0, 0, 0.5)
        with pytest.raises(ValueError):
            Coupler(0, 1, 1.5)

    def test_netlist_validation(self):
        with pytest.raises(ValueError):
            Netlist(modes=2, elements=(Coupler(0, 2, 0.5),))

    def test_zero_eta_is_identity(self):
        assert np.allclose(element_matrix(Coupler(0, 1, 0.0), 3), np.eye(3), atol=0)

    def test_half_coupler(self):
        expect = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
        assert np.allclose(element_matrix(Coupler(0, 1, 0.5), 2), expect, atol=1e-15)

    def test_third_coupler_amplitudes(self):
        u = element_matrix(Coupler(0, 1, 1 / 3), 2)
        assert u[0, 0] == pytest.approx(np.sqrt(2 / 3))
        assert u[0, 1] == pytest.approx(1j / np.sqrt(3))

    def test_phase(self):
        u = element_matrix(Phase(1, 0.7), 2)
        assert u[1, 1] == pytest.approx(np.exp(0.7j))
        assert u[0, 0] == 1.0


class TestCompose:
    def test_empty_is_identity(self):
        assert np.array_equal(compose(Netlist(6, ())), np.eye(6))

    def test_mz_half_phase_splits_evenly(self):
        mz = Netlist(2, (Coupler(0, 1, 0.5), Phase(0, np.pi / 2), Coupler(0, 1, 0.5)))
        u = compose(mz)
        assert abs(u[0, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(u[1, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_mz_pi_phase_transmits(self):
        mz = Netlist(2, (Coupler(0, 1, 0.5), Phase(0, np.pi), Coupler(0, 1, 0.5)))
        u = compose(mz)
        # oracle: multiply the three 2x2 factors directly
        c = element_matrix(Coupler(0, 1, 0.5), 2)
        p = element_matrix(Phase(0, np.pi), 2)
        assert np.max(np.abs(u - c @ p @ c)) < 1e-15
        assert abs(u[0, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_matches_element_matrix_product(self, rng):
        for _ in range(20):
            net = random_netlist(rng, 5)
            expect = np.eye(5, dtype=complex)
            for e in net.elements:
                expect = element_matrix(e, 5) @ expect
            assert np.max(np.abs(compose(net) - expect)) < 1e-13

    def test_unitary_for_random_netlists(self, rng):
        for _ in range(200):
            modes = int(rng.integers(4, 7))
            assert unitarity_defect(compose(random_netlist(rng, modes))) < 1e-12

    def test_reversed_conjugate_is_inverse(self, rng):
        net = random_netlist(rng, 6)
        u = compose(net)
        inv = np.eye(6, dtype=complex)
        for e in reversed(net.elements):
            inv = element_matrix(e, 6).conj().T @ inv
        assert np.max(np.abs(inv @ u - np.eye(6))) < 1e-12


class TestTwoPhoton:
    def test_identity_diagonal(self):
        state = pattern_of_pair(0, 1, 2)
        assert two_photon_amplitude(np.eye(2), state, state) == pytest.approx(1.0)

    def test_hom_coincidence_vanishes(self):
        u = element_matrix(Coupler(0, 1, 0.5), 2)
        state = pattern_of_pair(0, 1, 2)
        assert abs(two_photon_amplitude(u, state, state)) < 1e-15

    def test_hom_bunching(self):
        u = element_matrix(Coupler(0, 1, 0.5), 2)
        amp = two_photon_amplitude(u, (1, 1), (2, 0))
        assert abs(amp) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_against_brute_force(self, rng):
        for _ in range(30):
            modes = int(rng.integers(2, 6))
            u = random_unitary(rng, modes)
            pairs = [(0, min(1, modes - 1)), (0, 0)]
            for a, b in pairs:
                ins = pattern_of_pair(a, b, modes)
                for i in range(modes):
                    for j in range(i, modes):
                        outs = pattern_of_pair(i, j, modes)
                        got = two_photon_amplitude(u, ins, outs)
                        expect = brute_force_amplitude(u, ins, outs)
                        assert abs(got - expect) < 1e-10

    def test_distribution_identity(self):
        dist = two_photon_distribution(np.eye(3), (1, 0, 1))
        assert dist[(1, 0, 1)] == pytest.approx(1.0)

    def test_distribution_sums_to_one(self, rng):
        for _ in range(200):
            modes = int(rng.integers(4, 7))
            u = compose(random_netlist(rng, modes))
            dist = two_photon_distribution(u, pattern_of_pair(0, 1, modes))
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)

    def test_photon_number_mismatch_rejected(self):
        with pytest.raises(ValueError):
            two_photon_amplitude(np.eye(2), (1, 0), (1, 1))


class TestDistinguishable:
    def test_fifty_fifty(self):
        u = element_matrix(Coupler(0, 1, 0.5), 2)
        dist = distinguishable_distribution(u, (1, 1))
        assert dist[(2, 0)] == pytest.approx(0.25)
        assert dist[(0, 2)] == pytest.approx(0.25)
        assert dist[(1, 1)] == pytest.approx(0.5)

    def test_identity(self):
        dist = distinguishable_distribution(np.eye(2), (1, 1))
        assert dist[(1, 1)] == pytest.approx(1.0)

    def test_matches_quantum_on_disjoint_routing(self):
        # photon 1 splits over modes {0,1}; photon 2 parked in mode 2
        net = Netlist(3, (Coupler(0, 1, 0.37), Phase(2, 1.1)))
        u = compose(net)
        state = (1, 0, 1)
        q = two_photon_distribution(u, state)
        c = distinguishable_distribution(u, state)
        for pattern, prob in q.items():
            assert c[pattern] == pytest.approx(prob, abs=1e-12)

    def test_sums_to_one(self, rng):
        u = compose(random_netlist(rng, 5))
        dist = distinguishable_distribution(u, pattern_of_pair(0, 3, 5))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)


def test_json_roundtrip():
    net = Netlist(6, (Coupler(0, 1, 2 / 3), Phase(3, 1.5 * np.pi)))
    back = netlist_from_json(netlist_to_json(net))
    assert back == net


def test_json_rejects_unknown_type():
    with pytest.raises(ValueError):
        netlist_from_json('{"modes": 2, "elements": [{"type": "mirror", "i": 0}]}')
