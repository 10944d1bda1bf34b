import json
from pathlib import Path

import numpy as np
import pytest

from rechip import kernels, numerics, tomography
from rechip.noise import CountRecord
from rechip.tomography import (
    MeasurementSetting,
    bloch_of_rho,
    canonical_settings,
    check_density,
    mle_reconstruct,
    mle_reconstruct_batch,
    monte_carlo_error,
    partial_trace,
    projectors_of_setting,
    quantum_fidelity,
    rho_from_json,
    rho_of_bloch,
    rho_to_json,
    sample_hs_random,
    simulate_counts,
    statistical_fidelity,
)

BELL = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex) / 2


def purity(rho):
    return float(np.einsum("ij,ji->", rho, rho).real)


def ket_dm(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _linear_inversion_start(settings, records):
    """The projected linear-inversion start of one record list (the batch of one)."""
    n, totals = tomography._count_arrays(settings, [[r.counts(2**settings[0].qubits) for r in records]])
    return tomography.linear_inversion_start(settings, n, totals)[0]


class TestProjectors:
    def test_computational_basis(self):
        s = MeasurementSetting("Z", ((0.0, 0.0),))
        projs = projectors_of_setting(s)
        assert np.allclose(projs[0], np.diag([1.0, 0.0]), atol=0)
        assert np.allclose(projs[1], np.diag([0.0, 1.0]), atol=0)

    def test_x_basis(self):
        s = MeasurementSetting("X", ((np.pi / 2, 0.0),))
        projs = projectors_of_setting(s)
        plus = ket_dm([1, 1])
        minus = ket_dm([1, -1])
        assert np.max(np.abs(projs[0] - plus)) < 1e-12
        assert np.max(np.abs(projs[1] - minus)) < 1e-12

    def test_completeness_random_settings(self, rng):
        for _ in range(20):
            angles = tuple((rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)) for _ in range(2))
            projs = projectors_of_setting(MeasurementSetting("r", angles))
            assert np.max(np.abs(projs.sum(axis=0) - np.eye(4))) < 1e-12
            for p in projs:
                assert np.max(np.abs(p @ p - p)) < 1e-12  # rank-1 idempotent


class TestCheckDensity:
    ROTATION = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])

    def rotated(self, eigenvalues, rotation=ROTATION):
        return rotation @ np.diag(eigenvalues).astype(complex) @ rotation.conj().T

    def test_accepts_a_state_and_returns_it(self):
        rho = self.rotated([0.7, 0.3])
        assert np.array_equal(check_density(rho), rho)

    def test_rejects_non_hermitian(self):
        rho = self.rotated([0.7, 0.3])
        rho[0, 1] += 2e-10
        with pytest.raises(ValueError, match=r"not Hermitian \(defect 2\.00e-10\)"):
            check_density(rho)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.1, np.nan)])
    def test_rejects_non_finite(self, entry):
        rho = self.rotated([0.7, 0.3])
        rho[1, 1] = entry
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density(rho)

    def test_rejects_trace_not_one(self):
        with pytest.raises(ValueError, match=r"trace 1\.0000000004\d* != 1"):
            check_density(self.rotated([0.7, 0.3 + 5e-10]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match=r"eigenvalue -2\.00e-09 < -1e-09"):
            check_density(self.rotated([1.0 + 2e-9, -2e-9]))

    def test_accepts_eigenvalue_within_tolerance(self):
        rho = self.rotated([1.0 + 5e-10, -5e-10])
        assert np.array_equal(check_density(rho), rho)

    def test_two_qubit_eigenvalue_bound(self):
        rotation = np.kron(self.ROTATION, self.ROTATION)
        with pytest.raises(ValueError, match=r"eigenvalue -2\.00e-09 < -1e-09"):
            check_density(self.rotated([0.5 + 2e-9, 0.5, 0.0, -2e-9], rotation))
        rho = self.rotated([0.5 + 5e-10, 0.5, 0.0, -5e-10], rotation)
        assert np.array_equal(check_density(rho), rho)

    def test_one_qubit_eigenvalue_bound_in_any_basis(self, rng):
        for _ in range(100):
            _, basis = np.linalg.eigh(sample_hs_random(2, rng))
            with pytest.raises(ValueError, match=r"eigenvalue -2\.00e-09 < -1e-09"):
                check_density(self.rotated([1.0 + 2e-9, -2e-9], basis))
            rho = self.rotated([1.0 + 5e-10, -5e-10], basis)
            assert np.array_equal(check_density(rho), rho)


class TestCanonicalSettings:
    def test_single_qubit_count(self):
        settings = canonical_settings(1)
        assert len(settings) == 3
        assert [s.label for s in settings] == ["Z", "X", "Y"]

    def test_two_qubit_span(self):
        settings = canonical_settings(2)
        assert len(settings) == 9
        rows = []
        for s in settings:
            for p in projectors_of_setting(s):
                rows.append(p.reshape(-1))
        m = np.array(rows)
        assert m.shape == (36, 16)
        assert np.linalg.matrix_rank(m, tol=1e-10) == 16

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            canonical_settings(3)


class TestMle:
    def test_bell_reconstruction(self):
        settings = canonical_settings(2)
        records = simulate_counts(settings, BELL, 1e6)
        result = mle_reconstruct(settings, records)
        assert quantum_fidelity(BELL, result.rho) > 0.999
        assert result.converged

    def test_uniform_counts_give_maximally_mixed(self):
        settings = canonical_settings(2)
        records = [CountRecord(s.label, 250, 250, 250, 250) for s in settings]
        result = mle_reconstruct(settings, records)
        assert np.max(np.abs(result.rho - np.eye(4) / 4)) < 1e-3

    def test_output_always_physical(self, rng):
        settings = canonical_settings(2)
        for _ in range(5):
            records = [
                CountRecord(s.label, *(int(c) for c in rng.integers(0, 500, 4)))
                for s in settings
            ]
            rho = mle_reconstruct(settings, records).rho
            check_density(rho)

    def test_forward_then_reconstruct(self, rng):
        settings = canonical_settings(2)
        for _ in range(20):
            rho = sample_hs_random(4, rng)
            records = simulate_counts(settings, rho, 1e6)
            result = mle_reconstruct(settings, records)
            assert quantum_fidelity(rho, result.rho) > 0.999

    def test_single_qubit(self, rng):
        settings = canonical_settings(1)
        rho = sample_hs_random(2, rng)
        records = simulate_counts(settings, rho, 1e6)
        assert quantum_fidelity(rho, mle_reconstruct(settings, records).rho) > 0.999

    def test_zero_counts_rejected(self):
        settings = canonical_settings(1)
        records = [CountRecord(s.label, 0, 0) for s in settings]
        with pytest.raises(ValueError):
            mle_reconstruct(settings, records)

    def test_single_empty_setting_tolerated(self):
        # a zero-observation setting must not poison the likelihood
        settings = canonical_settings(2)
        records = simulate_counts(settings, BELL, 1e4)
        records[4] = CountRecord(records[4].setting, 0, 0, 0, 0)
        result = mle_reconstruct(settings, records)
        assert np.isfinite(result.log_likelihood)
        assert quantum_fidelity(BELL, result.rho) > 0.99

    def test_misaligned_rejected(self):
        settings = canonical_settings(1)
        with pytest.raises(ValueError):
            mle_reconstruct(settings, [CountRecord("Z", 1, 1)])

    def test_projectors_cached_read_only(self):
        setting = canonical_settings(2)[4]
        projs = projectors_of_setting(setting)
        assert projectors_of_setting(MeasurementSetting(setting.label, setting.angles)) is projs
        with pytest.raises(ValueError):
            projs[0, 0, 0] = 0.0

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_linear_inversion_start_recovers_noiseless_state(self, qubits, rng):
        # expected counts of a full-rank state: least squares is exact and no eigenvalue is floored
        dim = 2**qubits
        settings = canonical_settings(qubits)
        for _ in range(5):
            rho = sample_hs_random(dim, rng)
            if np.linalg.eigvalsh(rho).min() < 2 * tomography.START_EIGEN_FLOOR:
                continue
            records = [CountRecord(r.setting, *r.counts()) for r in simulate_counts(settings, rho, 1e6)]
            theta = _linear_inversion_start(settings, records)
            assert np.max(np.abs(kernels.rho_from_params(theta, dim) - rho)) < 1e-3

    def test_linear_inversion_start_is_full_rank_for_pure_data(self):
        records = simulate_counts(canonical_settings(2), BELL, 1e5)
        rho = kernels.rho_from_params(_linear_inversion_start(canonical_settings(2), records), 4)
        w = np.linalg.eigvalsh(rho)
        assert w.min() == pytest.approx(tomography.START_EIGEN_FLOOR / (1 + 3 * tomography.START_EIGEN_FLOOR),
                                        rel=1e-6)
        assert quantum_fidelity(BELL, rho) > 0.99

    def test_linear_inversion_start_projects_unphysical_estimate(self):
        # every outcome on the + axis of Z, X and Y: least squares gives Bloch vector (1, 1, 1), eigenvalues
        # (1 +- sqrt 3) / 2; the simplex projection makes them (1, 0) before the floor
        settings = canonical_settings(1)
        records = [CountRecord(s.label, 100, 0) for s in settings]
        rho = kernels.rho_from_params(_linear_inversion_start(settings, records), 2)
        floor = tomography.START_EIGEN_FLOOR
        assert np.allclose(np.linalg.eigvalsh(rho), np.array([floor, 1.0]) / (1.0 + floor), atol=1e-12)
        assert np.allclose(bloch_of_rho(rho), np.full(3, (1.0 - floor) / (1.0 + floor) / np.sqrt(3)), atol=1e-12)

    def test_warm_start_reaches_the_same_optimum(self, rng):
        settings = canonical_settings(2)
        rho = sample_hs_random(4, rng)
        records = [CountRecord(r.setting, *(int(c) for c in rng.poisson(r.counts())))
                   for r in simulate_counts(settings, rho, 1e4)]
        cold = mle_reconstruct(settings, records)
        warm = mle_reconstruct(settings, records, start=cold.params)
        assert warm.iterations < cold.iterations
        assert warm.log_likelihood >= cold.log_likelihood - 1e-10 * abs(cold.log_likelihood)
        assert abs(1.0 - quantum_fidelity(cold.rho, warm.rho)) <= 1e-6

    def test_converged_is_the_optimizer_status(self, monkeypatch):
        # a fit stopped by the iteration limit reports it
        monkeypatch.setattr(numerics, "MAX_ITER", 3)
        result = mle_reconstruct(canonical_settings(2), simulate_counts(canonical_settings(2), BELL, 1e4))
        assert (result.converged, result.iterations) == (False, 3)
        assert result.message == numerics.STOP_MESSAGES[3] == "stopped: iteration limit MAX_ITER"
        check_density(result.rho)

    def test_a_stop_short_of_stationary_is_not_converged(self, monkeypatch):
        # with no gradient tolerance left, a fit whose f stopped falling cannot certify a stationary point
        monkeypatch.setattr(numerics, "GTOL", 0.0)
        result = mle_reconstruct(canonical_settings(2), simulate_counts(canonical_settings(2), BELL, 1e4))
        assert not result.converged
        assert result.message == numerics.STOP_MESSAGES[2] == "stopped: f no longer falls, scaled gradient above GTOL"
        check_density(result.rho)


REFERENCE_FITS = json.loads(
    (Path(__file__).parent / "data" / "mle_reference_fits.json").read_text())["cases"]


@pytest.mark.parametrize("case", REFERENCE_FITS, ids=[c["label"] for c in REFERENCE_FITS])
def test_reference_fits(case):
    """The likelihood reaches the recorded optimum and rho matches it (see the file's "about")."""
    settings = canonical_settings(case["qubits"])
    records = [CountRecord.from_counts(s.label, n) for s, n in zip(settings, case["counts"])]
    result = mle_reconstruct(settings, records)
    reference = rho_from_json(json.dumps(case["rho"]))
    assert result.converged
    assert result.log_likelihood >= case["log_likelihood"] - 1e-10 * abs(case["log_likelihood"])
    assert abs(1.0 - quantum_fidelity(reference, result.rho)) <= 1e-6


class TestStatisticalFidelity:
    def test_equal(self):
        assert statistical_fidelity([0.4, 0.6], [0.4, 0.6]) == pytest.approx(1.0)

    def test_disjoint(self):
        assert statistical_fidelity([1, 0, 0, 0], [0, 1, 0, 0]) == 0.0

    def test_arithmetic_example(self):
        f = statistical_fidelity([0.5, 0.5, 0, 0], [0.25, 0.25, 0.25, 0.25])
        assert f == pytest.approx(1 / np.sqrt(2))

    def test_symmetric_and_bounded(self, rng):
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            f = statistical_fidelity(p, q)
            assert f == pytest.approx(statistical_fidelity(q, p), abs=1e-12)
            assert 0.0 <= f <= 1.0 + 1e-12


class TestQuantumFidelity:
    def test_identical_pure(self):
        assert quantum_fidelity(BELL, BELL) == pytest.approx(1.0, abs=1e-9)

    def test_pure_vs_maximally_mixed(self):
        assert quantum_fidelity(BELL, np.eye(4) / 4) == pytest.approx(0.25, abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(100):
            a = sample_hs_random(4, rng)
            b = sample_hs_random(4, rng)
            assert quantum_fidelity(a, b) == pytest.approx(quantum_fidelity(b, a), abs=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            quantum_fidelity(np.eye(2) / 2, np.eye(4) / 4)


class TestPartialTrace:
    def test_bell_reduces_to_mixed(self):
        assert np.max(np.abs(partial_trace(BELL, "A") - np.eye(2) / 2)) < 1e-12

    def test_product_state(self, rng):
        a = sample_hs_random(2, rng)
        b = sample_hs_random(2, rng)
        assert np.max(np.abs(partial_trace(np.kron(a, b), "A") - a)) < 1e-12
        assert np.max(np.abs(partial_trace(np.kron(a, b), "B") - b)) < 1e-12

    def test_post_gate_state_coherence(self, rng):
        # reduced coherence of the two-qubit state (ag, ad, bd, bg) equals
        # a conj(b) (g conj(d) + d conj(g)) given per-qubit normalisation
        for _ in range(30):
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            g, d = rng.normal(size=2) + 1j * rng.normal(size=2)
            na = np.hypot(abs(a), abs(b))
            ng = np.hypot(abs(g), abs(d))
            a, b, g, d = a / na, b / na, g / ng, d / ng
            psi = np.array([a * g, a * d, b * d, b * g])
            red = partial_trace(np.outer(psi, psi.conj()), "A")
            assert red[0, 1] == pytest.approx(a * np.conj(b) * (g * np.conj(d) + d * np.conj(g)), abs=1e-12)
            assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)

    def test_pure_product_stays_pure(self, rng):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = np.kron(ket_dm(v), ket_dm(w))
        assert purity(partial_trace(rho, "B")) == pytest.approx(1.0, abs=1e-9)


class TestHsRandom:
    def test_invariants(self, rng):
        for _ in range(10000):
            rho = sample_hs_random(2, rng)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_purity_bounds(self, rng):
        for _ in range(10000):
            p = purity(sample_hs_random(2, rng))
            assert 0.5 - 1e-12 <= p <= 1.0 + 1e-12

    def test_mean_purity_against_independent_sampler(self):
        # same Ginibre construction written independently and vectorised
        rng1 = np.random.default_rng(2024)
        n1 = 200000
        p1 = np.array([purity(sample_hs_random(2, rng1)) for _ in range(n1)])

        rng2 = np.random.default_rng(4048)
        n2 = 1000000
        g = rng2.normal(size=(n2, 2, 2)) + 1j * rng2.normal(size=(n2, 2, 2))
        m = g @ np.conj(np.swapaxes(g, 1, 2))
        tr = np.einsum("nii->n", m).real
        tr2 = np.einsum("nij,nji->n", m, m).real
        p2 = tr2 / tr**2

        sigma = np.sqrt(p1.var() / n1 + p2.var() / n2)
        assert abs(p1.mean() - p2.mean()) < 3 * sigma


class TestBloch:
    def test_ground_state(self):
        assert np.allclose(bloch_of_rho(np.diag([1.0, 0.0])), [0, 0, 1], atol=1e-12)

    def test_maximally_mixed(self):
        assert np.allclose(bloch_of_rho(np.eye(2) / 2), [0, 0, 0], atol=1e-12)

    def test_roundtrip(self, rng):
        for _ in range(50):
            rho = sample_hs_random(2, rng)
            r = bloch_of_rho(rho)
            assert np.max(np.abs(rho_of_bloch(r) - rho)) < 1e-12
            assert np.max(np.abs(bloch_of_rho(rho_of_bloch(r)) - r)) < 1e-12

    def test_overlong_vector_rejected(self):
        with pytest.raises(ValueError):
            rho_of_bloch([1.0, 1.0, 0.0])


def _n00_fraction(resampled):
    # the estimator gets every trial at once: (trials, 4) counts of one record
    return resampled[:, 0] / np.maximum(resampled.sum(axis=-1), 1)


class TestMonteCarloError:
    REC = CountRecord("Z", 1000, 2000, 3000, 4000)

    def test_constant_estimator(self, rng):
        assert monte_carlo_error(self.REC.counts(), lambda r: np.full(len(r), 42.0), 50, rng) == 0.0

    def test_deterministic_under_seed(self):
        est = _n00_fraction
        a = monte_carlo_error(self.REC.counts(), est, 100, np.random.default_rng(3))
        b = monte_carlo_error(self.REC.counts(), est, 100, np.random.default_rng(3))
        assert a == b

    def test_resamples_drawn_as_one_trial_after_another(self):
        # one poisson call over (trials, records, 4) draws what a loop over trials, then records, draws
        records = [self.REC, CountRecord("X", 10, 0, 7, 1)]
        seen = []
        monte_carlo_error(np.array([r.counts() for r in records]),
                          lambda r: seen.append(r) or np.arange(len(r), dtype=float), 6, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        looped = [[rng.poisson(r.counts()) for r in records] for _ in range(6)]
        assert seen[0].shape == (6, 2, 4)
        assert np.array_equal(seen[0], np.array(looped, dtype=float))

    def test_scaling_with_counts(self):
        est = _n00_fraction
        small = CountRecord("s", 1000, 1000, 1000, 1000)
        large = CountRecord("l", 100000, 100000, 100000, 100000)
        e_small = monte_carlo_error(small.counts(), est, 4000, np.random.default_rng(11))
        e_large = monte_carlo_error(large.counts(), est, 4000, np.random.default_rng(12))
        assert e_small / e_large == pytest.approx(10.0, rel=0.10)

    def test_trials_validated(self, rng):
        with pytest.raises(ValueError):
            monte_carlo_error(self.REC.counts(), lambda r: np.zeros(len(r)), 1, rng)

    def test_warm_started_resamples_match_cold(self):
        settings = canonical_settings(2)
        records = [CountRecord(r.setting, *(int(c) for c in r.counts()))
                   for r in simulate_counts(settings, 0.9 * BELL + 0.025 * np.eye(4), 2000)]
        point = mle_reconstruct(settings, records)
        counts = np.array([r.counts() for r in records])

        def fidelity(start):
            # every resample in one batch, each from the same start
            def fidelities(resampled):
                starts = None if start is None else np.broadcast_to(start, (len(resampled), start.size))
                return [quantum_fidelity(BELL, fit.rho) for fit in mle_reconstruct_batch(settings, resampled, starts)]
            return fidelities

        cold = monte_carlo_error(counts, fidelity(None), 8, np.random.default_rng(7))
        warm = monte_carlo_error(counts, fidelity(point.params), 8, np.random.default_rng(7))
        assert cold > 0
        assert abs(warm - cold) <= 1e-6


def test_rho_json_roundtrip(rng):
    rho = sample_hs_random(4, rng)
    back = rho_from_json(rho_to_json(rho))
    assert np.max(np.abs(back - rho)) < 1e-15
