import numpy as np
import pytest
from hypothesis import given, strategies as st

from rechip.chip import CoincidenceProbs, PhaseConfig
from rechip.noise import (
    CountRecord,
    NoiseModel,
    SpectralModel,
    apply_phase_noise,
    expected_counts,
    hom_dip_curve,
    hom_visibility,
    mix_statistics,
    read_count_records,
    write_count_records,
)
from rechip.experiments import _outcome_counts

TWO_PI = 2 * np.pi


class TestNoiseModel:
    def test_defaults(self):
        m = NoiseModel()
        assert m.phase_sigma == 0.05
        assert m.indistinguishability == 0.978
        assert m.mean_pairs == 1e4

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(indistinguishability=1.2)
        with pytest.raises(ValueError):
            NoiseModel(phase_sigma=-0.1)

    @pytest.mark.parametrize("field", ["phase_sigma", "indistinguishability", "accidental_fraction", "mean_pairs"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            NoiseModel(**{field: value})

    def test_negative_pairs_rejected(self):
        with pytest.raises(ValueError, match="mean_pairs"):
            NoiseModel(mean_pairs=-5.0)


class TestPhaseNoise:
    def test_zero_sigma_identity(self, rng):
        c = PhaseConfig(rng.uniform(0, TWO_PI, 8))
        assert apply_phase_noise(c, 0.0, rng) is c

    def test_sample_std(self):
        rng = np.random.default_rng(99)
        base = PhaseConfig([np.pi] * 8)
        sigma = 0.05
        draws = []
        for _ in range(12500):
            noisy = apply_phase_noise(base, sigma, rng)
            draws.extend(np.asarray(noisy.phis) - np.pi)
        assert np.std(draws) == pytest.approx(sigma, rel=0.02)

    @given(st.floats(0.0, 3.0), st.integers(0, 2**31))
    def test_wrapping_invariant(self, sigma, seed):
        rng = np.random.default_rng(seed)
        noisy = apply_phase_noise(PhaseConfig.zeros(), sigma, rng)
        assert all(0.0 <= p < TWO_PI for p in noisy.phis)

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(ValueError):
            apply_phase_noise(PhaseConfig.zeros(), -1.0, rng)

    def test_batch_rows_draw_from_their_own_generator(self, rng):
        phis = rng.uniform(0, TWO_PI, (5, 8))
        batch = apply_phase_noise(phis, 0.3, np.random.default_rng(7).spawn(5))
        single = [apply_phase_noise(PhaseConfig(p), 0.3, g).phis
                  for p, g in zip(phis, np.random.default_rng(7).spawn(5))]
        assert np.array_equal(batch, np.array(single))


class TestMixStatistics:
    Q = CoincidenceProbs(1.0, 0.0, 0.0, 0.0, success=1 / 9)
    C = CoincidenceProbs(0.25, 0.25, 0.25, 0.25, success=0.2)

    def test_v_one(self):
        assert mix_statistics(self.Q, self.C, 1.0) == self.Q

    def test_v_zero(self):
        assert mix_statistics(self.Q, self.C, 0.0) == self.C

    def test_hom_coincidence(self):
        # 50:50 splitter: quantum coincidence 0, classical 1/2
        q = CoincidenceProbs(0.0, 0.5, 0.5, 0.0)
        c = CoincidenceProbs(0.5, 0.25, 0.25, 0.0)
        for v in (0.0, 0.5, 0.978, 1.0):
            assert mix_statistics(q, c, v).p00 == pytest.approx((1 - v) / 2)

    def test_normalisation_preserved(self, rng):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        mixed = mix_statistics(
            CoincidenceProbs.from_array(p), CoincidenceProbs.from_array(q), 0.7
        )
        assert mixed.as_array().sum() == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mix_statistics(self.Q, self.C, 1.5)

    @given(st.integers(1, 64), st.floats(0.0, 1.0), st.integers(0, 2**31))
    def test_valid_rows_stay_probabilities(self, n, v, seed):
        rng = np.random.default_rng(seed)
        q = CoincidenceProbs.from_array(rng.dirichlet(np.ones(4), n), rng.uniform(0, 1, n))
        c = CoincidenceProbs.from_array(rng.dirichlet(np.ones(4), n), rng.uniform(0, 1, n))
        mixed = mix_statistics(q, c, v)
        p = mixed.as_array()
        assert p.shape == (n, 4)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.all((mixed.success >= 0.0) & (mixed.success <= 1.0))
        assert np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-12


class TestSampleCounts:
    """The drivers' Poisson count draw, experiments._outcome_counts (one generator per row)."""

    def test_zero_pairs(self, rng):
        model = NoiseModel(mean_pairs=0.0)
        counts = _outcome_counts(self.probs(), model, [rng])
        assert counts.sum() == 0

    @staticmethod
    def probs():
        return CoincidenceProbs(0.4, 0.3, 0.2, 0.1).as_array()[None, :]

    def test_deterministic_under_seed(self):
        model = NoiseModel()
        a = _outcome_counts(self.probs(), model, [np.random.default_rng(5)])
        b = _outcome_counts(self.probs(), model, [np.random.default_rng(5)])
        assert np.array_equal(a, b)

    def test_frequencies_match_probabilities(self):
        model = NoiseModel(mean_pairs=1e6)
        counts = _outcome_counts(self.probs(), model, [np.random.default_rng(17)])[0]
        n = counts.sum()
        for k, p in enumerate(self.probs()[0]):
            assert abs(counts[k] / n - p) < 3 * np.sqrt(p / 1e6)

    def test_accidentals_add_uniform_rate(self):
        model = NoiseModel(mean_pairs=1e4, accidental_fraction=0.04)
        lam = expected_counts(np.array([1.0, 0.0, 0.0, 0.0]), model)
        assert lam[1] == pytest.approx(1e4 * 0.01)
        assert lam[0] == pytest.approx(1e4 * 1.01)


class TestHomCurve:
    SPECTRUM = SpectralModel()

    def test_plateau_half(self):
        p = hom_dip_curve([1e6, -1e6], self.SPECTRUM, 1.0)
        assert np.allclose(p, 0.5, atol=1e-12)

    def test_zero_delay_full_visibility(self):
        assert hom_dip_curve([0.0], self.SPECTRUM, 1.0)[0] == pytest.approx(0.0, abs=1e-15)

    def test_even_and_monotone(self):
        taus = np.linspace(0, 1000, 200)
        p = hom_dip_curve(taus, self.SPECTRUM, 0.9)
        assert np.all(np.diff(p) >= 0)
        assert np.allclose(p, hom_dip_curve(-taus, self.SPECTRUM, 0.9), atol=0)

    def test_visibility_by_construction(self):
        for v in (0.3, 0.978, 1.0):
            dip = hom_dip_curve([0.0], self.SPECTRUM, v)[0]
            plateau = hom_dip_curve([1e9], self.SPECTRUM, v)[0]
            assert hom_visibility(plateau, dip) == pytest.approx(v, abs=1e-9)

    def test_coherence_time_value(self):
        # sqrt(ln 2) / (pi * dnu) with dnu = c * 3 nm / (808 nm)^2
        dnu = 299.792458 * 3.0 / 808.0**2
        assert self.SPECTRUM.coherence_time_fs() == pytest.approx(np.sqrt(np.log(2)) / (np.pi * dnu))
        assert self.SPECTRUM.coherence_time_fs() == pytest.approx(192.4, abs=0.1)


class TestHomVisibility:
    def test_values(self):
        assert hom_visibility(100, 0) == 1.0
        assert hom_visibility(100, 50) == 0.5

    def test_rejects_nonpositive_classical(self):
        with pytest.raises(ValueError):
            hom_visibility(0, 1)


class TestCountsCsv:
    def test_roundtrip(self, tmp_path):
        records = [CountRecord("ZZ", 1, 2, 3, 4), CountRecord("XY", 9, 8, 7, 6)]
        path = tmp_path / "counts.csv"
        write_count_records(path, records)
        assert read_count_records(path) == records

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="line 1"):
            read_count_records(path)

    def test_bad_line_number_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("setting,n00,n01,n10,n11\nZZ,1,2,3,4\nXX,1,2,oops,4\n")
        with pytest.raises(ValueError, match="line 3"):
            read_count_records(path)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("setting,n00,n01,n10,n11\n\nZZ,1,2,3,4\n\n")
        assert read_count_records(path) == [CountRecord("ZZ", 1, 2, 3, 4)]
        path.write_text("setting,n00,n01,n10,n11\n\nZZ,1,x,3,4\n")
        with pytest.raises(ValueError, match=r"counts\.csv: line 3: non-integer count"):
            read_count_records(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("setting,n00,n01,n10,n11\nZZ,1,-2,3,4\n")
        with pytest.raises(ValueError, match="line 2"):
            read_count_records(path)
