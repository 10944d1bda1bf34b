import numpy as np
import pytest

from rechip.chip import (
    CORE_ETA,
    PhaseConfig,
    cnot_success_probs,
    _postselected_block,
    coincidence_probs,
    default_netlist,
    distinguishable_coincidence_probs,
    h_prime,
    two_qubit_unitary,
    u_cnot,
    u_prep,
    verify_cnot,
)
from rechip.numerics import align_global_phase
from rechip.optics import Coupler, Netlist, element_matrix, netlist_from_json, netlist_to_json
from conftest import unitarity_defect

TWO_PI = 2 * np.pi


class TestHPrime:
    def test_matches_defining_product(self):
        # reference construction: global phase, z rotations and the Hadamard
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        rz = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        expect = np.exp(1j * np.pi / 2) * rz @ h @ rz
        assert np.max(np.abs(h_prime() - expect)) < 1e-15

    def test_equals_half_coupler(self):
        assert np.max(np.abs(h_prime() - element_matrix(Coupler(0, 1, 0.5), 2))) < 1e-15

    def test_unitary(self):
        assert unitarity_defect(h_prime()) < 1e-12

    def test_square_is_ix(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.max(np.abs(h_prime() @ h_prime() - 1j * x)) < 1e-14


class TestUPrep:
    def test_identity_at_zero(self):
        assert np.allclose(u_prep(0.0, 0.0), np.eye(2), atol=0)

    def test_half_pi_makes_plus(self):
        out = u_prep(np.pi / 2, 0.0) @ np.array([1.0, 0.0])
        assert np.allclose(out, np.array([1, 1]) / np.sqrt(2), atol=1e-12)

    @pytest.mark.parametrize("phi_z", [0.0, 0.8, np.pi, 5.1])
    def test_pi_flips_up_to_phase(self, phi_z):
        out = u_prep(np.pi, phi_z) @ np.array([1.0, 0.0])
        assert abs(out[0]) < 1e-12
        assert abs(out[1]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_exponential_factors(self, rng):
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0]).astype(complex)

        def rotation(theta, sigma):  # exp(-i theta sigma / 2) for a Pauli matrix sigma
            return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * sigma

        for _ in range(10):
            phi_y, phi_z = rng.uniform(0, TWO_PI, 2)
            expect = rotation(phi_z, sz) @ rotation(phi_y, sy)
            assert np.max(np.abs(u_prep(phi_y, phi_z) - expect)) < 1e-12


class TestUCnot:
    def test_mappings(self):
        u = u_cnot()
        assert u[3, 2] == 1.0  # |10> -> |11>
        assert u[0, 0] == 1.0  # |00> -> |00>

    def test_involution(self):
        assert np.array_equal(u_cnot() @ u_cnot(), np.eye(4))


class TestPhaseConfig:
    def test_wraps(self):
        c = PhaseConfig([TWO_PI + 0.5, -0.5] + [0.0] * 6)
        assert c.phis[0] == pytest.approx(0.5)
        assert c.phis[1] == pytest.approx(TWO_PI - 0.5)

    def test_length_checked(self):
        with pytest.raises(ValueError):
            PhaseConfig([0.0] * 7)


class TestTwoQubitUnitary:
    def test_zeros_is_cnot(self):
        assert np.max(np.abs(two_qubit_unitary(PhaseConfig.zeros()) - u_cnot())) == 0.0

    def test_unitary_random_configs(self, rng):
        for _ in range(1000):
            c = PhaseConfig(rng.uniform(0, TWO_PI, 8))
            assert unitarity_defect(two_qubit_unitary(c)) < 1e-12

    def test_bell_preparation(self):
        c = PhaseConfig([np.pi / 2] + [0.0] * 7)
        psi = two_qubit_unitary(c)[:, 0]
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.max(np.abs(align_global_phase(psi) - bell)) < 1e-12


class TestNetlist:
    def test_layout_constant_across_configs(self, rng):
        ref = default_netlist(PhaseConfig.zeros())
        other = default_netlist(PhaseConfig(rng.uniform(0, TWO_PI, 8)))
        assert len(ref.elements) == len(other.elements)
        for a, b in zip(ref.elements, other.elements):
            assert type(a) is type(b)
            if isinstance(a, Coupler):
                assert a == b  # couplers never change

    def test_compose_unitary(self):
        from rechip.optics import compose

        assert unitarity_defect(compose(default_netlist(PhaseConfig.zeros()))) < 1e-12

    def test_serialization_roundtrip(self):
        net = default_netlist(PhaseConfig.zeros())
        assert netlist_from_json(netlist_to_json(net)) == net


class TestVerifyCnot:
    def test_default_netlist_passes(self):
        assert verify_cnot() < 1e-9

    def test_success_probability_one_ninth(self):
        assert np.max(np.abs(cnot_success_probs() - 1.0 / 9.0)) < 1e-9

    def test_wrong_central_coupler_fails(self):
        net = default_netlist(PhaseConfig.zeros())
        elements = list(net.elements)
        idx = next(
            i for i, e in enumerate(elements)
            if isinstance(e, Coupler) and {e.i, e.j} == {2, 3}
        )
        assert elements[idx].eta == pytest.approx(CORE_ETA)
        elements[idx] = Coupler(2, 3, 0.5)
        assert verify_cnot(Netlist(6, tuple(elements))) > 0.1


class TestCoincidenceProbs:
    def test_zeros_input_00(self):
        p = coincidence_probs(PhaseConfig.zeros(), "00", model="gate")
        assert p.p00 == pytest.approx(1.0)
        assert p.success == 1.0

    def test_waveguide_success(self):
        for state in ("00", "01", "10", "11"):
            p = coincidence_probs(PhaseConfig.zeros(), state, model="waveguide")
            assert p.success == pytest.approx(1.0 / 9.0, abs=1e-9)

    def test_bell_statistics(self):
        c = PhaseConfig([np.pi / 2] + [0.0] * 7)
        p = coincidence_probs(c, "00", model="gate")
        assert p.p00 == pytest.approx(0.5, abs=1e-12)
        assert p.p11 == pytest.approx(0.5, abs=1e-12)
        assert p.p01 == pytest.approx(0.0, abs=1e-12)
        assert p.p10 == pytest.approx(0.0, abs=1e-12)

    def test_models_agree_on_random_configs(self, rng):
        for _ in range(50):
            c = PhaseConfig(rng.uniform(0, TWO_PI, 8))
            state = str(rng.integers(0, 2)) + str(rng.integers(0, 2))
            gate = coincidence_probs(c, state, model="gate").as_array()
            wg = coincidence_probs(c, state, model="waveguide")
            assert np.max(np.abs(gate - wg.as_array())) < 1e-9
            assert wg.success == pytest.approx(1.0 / 9.0, abs=1e-9)

    def test_postselected_map_is_scaled_unitary(self, rng):
        c = PhaseConfig(rng.uniform(0, TWO_PI, 8))
        m = _postselected_block(default_netlist(c))
        gate = two_qubit_unitary(c)
        assert np.max(np.abs(align_global_phase(3 * m) - align_global_phase(gate))) < 1e-12

    def test_generic_postselection_gives_one_ninth(self):
        # the chip contract through the generic optics pipeline
        from rechip.chip import COINCIDENCE_PAIRS, input_modes
        from rechip.optics import compose, pattern_of_pair, two_photon_distribution

        u = compose(default_netlist(PhaseConfig.zeros()))
        accepted = {pattern_of_pair(a, b, 6) for a, b in zip(*COINCIDENCE_PAIRS)}
        for idx in range(4):
            a, b = input_modes(idx)
            dist = two_photon_distribution(u, pattern_of_pair(a, b, 6))
            assert sum(dist[s] for s in accepted) == pytest.approx(1.0 / 9.0, abs=1e-9)

    def test_distinguishable_probs_normalised(self, rng):
        c = PhaseConfig(rng.uniform(0, TWO_PI, 8))
        p = distinguishable_coincidence_probs(c, "00")
        assert p.as_array().sum() == pytest.approx(1.0, abs=1e-10)
        assert 0 < p.success < 1

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            coincidence_probs(PhaseConfig.zeros(), "21")
        with pytest.raises(ValueError):
            coincidence_probs(PhaseConfig.zeros(), "00", model="classical")


class TestBatch:
    """A batch of configurations gives, row by row, the single-configuration results bit for bit."""

    @staticmethod
    def phases():
        return np.random.default_rng(64).uniform(-1.0, TWO_PI + 1.0, (64, 8))

    def test_transfer_matrices_equal_compose(self):
        from rechip.chip import transfer_matrices
        from rechip.optics import compose

        phis = self.phases()
        single = np.array([compose(default_netlist(PhaseConfig(p))) for p in phis])
        assert np.array_equal(transfer_matrices(phis), single)

    def test_unitaries_equal(self):
        phis = self.phases()
        single = np.array([two_qubit_unitary(PhaseConfig(p)) for p in phis])
        assert np.array_equal(two_qubit_unitary(phis), single)

    @pytest.mark.parametrize("state", ["00", "01", "10", "11"])
    def test_probabilities_equal(self, state):
        phis = self.phases()
        models = {
            "gate": lambda c: coincidence_probs(c, state, model="gate"),
            "waveguide": lambda c: coincidence_probs(c, state, model="waveguide"),
            "distinguishable": lambda c: distinguishable_coincidence_probs(c, state),
        }
        for name, fn in models.items():
            batch = fn(phis)
            rows = [fn(PhaseConfig(p)) for p in phis]
            assert np.array_equal(batch.as_array(), np.array([r.as_array() for r in rows])), name
            assert np.array_equal(batch.success, np.array([r.success for r in rows])), name

    def test_single_config_gets_floats(self):
        p = coincidence_probs(PhaseConfig.zeros(), "00", model="waveguide")
        assert all(isinstance(v, float) for v in (p.p00, p.p01, p.p10, p.p11, p.success))
        assert two_qubit_unitary(PhaseConfig.zeros()).shape == (4, 4)

    def test_batch_shape_checked(self):
        with pytest.raises(ValueError):
            coincidence_probs(np.zeros((3, 7)), "00", model="gate")
        with pytest.raises(ValueError):
            two_qubit_unitary(np.zeros(8))
