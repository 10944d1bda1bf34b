
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rechip import MAX_MC_TRIALS, numerics
from rechip.calibration import HeaterCurve, fit_fringe
from rechip.chip import BASIS_LABELS, PhaseConfig, coincidence_probs, two_qubit_unitary
from rechip.cli import main
from rechip.experiments import (
    BELL_PREPS,
    MAX_BENCHMARK_N,
    MAX_SUITE_TARGETS,
    PrepAmplitudes,
    bell_state_suite,
    bell_targets,
    chsh_extrema,
    _chsh_phases,
    chsh_manifold,
    chsh_state,
    chsh_sum,
    device_probs,
    fringe_scan,
    hom_scan,
    load_psi_glyph,
    mixed_state_suite,
    prep_config,
    r_squared,
    random_config_benchmark,
    read_bloch_targets,
    reduced_state_of_config,
    solve_mixed_prep,
    tomography_records,
)
from rechip.noise import NoiseModel
from rechip.numerics import align_global_phase
from rechip.tomography import bloch_of_rho, check_density, quantum_fidelity, rho_of_bloch, sample_hs_random
from conftest import assert_equal_up_to_phase

TWO_PI = 2 * np.pi

NOISE_REF = NoiseModel(phase_sigma=0.05, indistinguishability=0.978, mean_pairs=1e4)


def random_amplitudes(rng):
    a, b, g, d = rng.normal(size=4) + 1j * rng.normal(size=4)
    na = np.hypot(abs(a), abs(b))
    ng = np.hypot(abs(g), abs(d))
    return PrepAmplitudes(a / na, b / na, g / ng, d / ng)


class TestPrepConfig:
    def test_trivial_amplitudes(self):
        amps = PrepAmplitudes(1.0, 0.0, 1.0, 0.0)
        config = prep_config(amps)
        assert config.phis == (0.0,) * 8
        psi = two_qubit_unitary(config)[:, 0]
        assert abs(psi[0]) == pytest.approx(1.0)

    def test_bell_amplitudes(self):
        amps = PrepAmplitudes(1 / np.sqrt(2), 1 / np.sqrt(2), 1.0, 0.0)
        psi = two_qubit_unitary(prep_config(amps))[:, 0]
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.max(np.abs(align_global_phase(psi) - bell)) < 1e-9

    def test_forward_matches_expansion(self, rng):
        for _ in range(50):
            amps = random_amplitudes(rng)
            psi = two_qubit_unitary(prep_config(amps))[:, 0]
            a, b, g, d = amps.alpha, amps.beta, amps.gamma, amps.delta
            assert_equal_up_to_phase(psi, np.array([a * g, a * d, b * d, b * g]))

    def test_normalisation_enforced(self):
        with pytest.raises(ValueError):
            PrepAmplitudes(1.0, 1.0, 1.0, 0.0)


class TestBenchmark:
    def test_noiseless_perfect(self):
        report = random_config_benchmark(n=50, rng=None, exact=True)
        assert np.all(report.fidelities >= 1.0 - 1e-9)

    def test_sampled_reasonable(self):
        report = random_config_benchmark(n=40, noise=NOISE_REF, rng=np.random.default_rng(2))
        assert 0.9 < report.mean <= 1.0
        assert report.fraction_above(0.97) > 0.5

    def test_seed_reproducible(self):
        a = random_config_benchmark(n=15, noise=NOISE_REF, rng=np.random.default_rng(8))
        b = random_config_benchmark(n=15, noise=NOISE_REF, rng=np.random.default_rng(8))
        assert np.array_equal(a.fidelities, b.fidelities)

    def test_report_dict(self):
        doc = random_config_benchmark(n=5, rng=None, exact=True).to_dict()
        assert doc["schema"] == 1
        assert doc["n"] == 5


class TestBellSuite:
    def test_noiseless_fidelities(self):
        report = bell_state_suite(rng=None, mc_trials=0)
        assert len(report.entries) == 4
        for entry in report.entries:
            assert entry.fidelity > 0.999
            check_density(entry.rho)

    def test_targets_are_bell_states(self):
        targets = bell_targets()
        phi_plus = targets["phi_plus"]
        assert phi_plus[0, 0] == pytest.approx(0.5)
        assert phi_plus[3, 0] == pytest.approx(0.5)

    def test_noisy_with_errors(self):
        report = bell_state_suite(noise=NOISE_REF, rng=np.random.default_rng(4), mc_trials=5)
        for entry in report.entries:
            assert 0.8 < entry.fidelity <= 1.0
            assert entry.error >= 0.0
        assert report.to_dict()["fits_not_converged"] == 0

    @pytest.mark.parametrize("run", [
        lambda rng, trials: bell_state_suite(rng=rng, mc_trials=trials),
        lambda rng, trials: mixed_state_suite(n=2, rng=rng, mc_trials=trials),
        lambda rng, trials: chsh_manifold(rng=rng, mc_trials=trials),
        lambda rng, trials: chsh_sum(0.0, 0.0, rng=rng, mc_trials=trials),
    ], ids=["bell-suite", "mixed-suite", "chsh-manifold", "chsh-sum"])
    def test_mc_trials_capped_before_any_work(self, run):
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"at most {MAX_MC_TRIALS}, got {MAX_MC_TRIALS + 1}"):
            run(rng, MAX_MC_TRIALS + 1)
        assert rng.bit_generator.state == state

    def test_mc_trials_validated(self):
        with pytest.raises(ValueError, match="mc_trials"):
            bell_state_suite(rng=np.random.default_rng(2), mc_trials=-3)
        with pytest.raises(ValueError, match="mc_trials"):
            mixed_state_suite(n=2, rng=np.random.default_rng(2), mc_trials=-3)
        with pytest.raises(ValueError, match="mc_trials"):
            chsh_manifold(rng=np.random.default_rng(2), mc_trials=-3)
        with pytest.raises(ValueError, match="mc_trials"):
            chsh_sum(0.0, 0.0, rng=np.random.default_rng(2), mc_trials=-3)
        # one resample has no spread: no error bars, as with 0 (the CLI rejects --mc-trials 1)
        report = bell_state_suite(rng=np.random.default_rng(2), mc_trials=1)
        assert [e.error for e in report.entries] == [0.0] * 4

    def test_exact_run_has_no_error_bars(self):
        # an exact run has no counts to resample, whatever mc_trials asks for
        report = bell_state_suite(rng=None, mc_trials=5)
        assert [e.error for e in report.entries] == [0.0] * 4

    def test_fits_not_converged_counts_every_fit(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_ITER", 3)  # every fit stops unconverged
        report = bell_state_suite(noise=NOISE_REF, rng=np.random.default_rng(4), mc_trials=2)
        assert report.to_dict()["fits_not_converged"] == 4 * 3  # a point fit and two resamples each


class TestChsh:
    def test_state_alpha_zero_is_product(self):
        psi = chsh_state(0.0)
        assert abs(psi[3]) == pytest.approx(1.0)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_state_alpha_half_pi_maximally_entangled(self):
        psi = chsh_state(np.pi / 2)
        target = np.array([1, 0, 0, 1j]) / np.sqrt(2)
        overlap = abs(np.vdot(target, psi))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_state_normalised(self, rng):
        for alpha in rng.uniform(0, TWO_PI, 25):
            assert np.linalg.norm(chsh_state(alpha)) == pytest.approx(1.0, abs=1e-12)

    def test_state_matches_device(self, rng):
        for alpha in list(rng.uniform(0, TWO_PI, 10)) + [0.0, np.pi / 2]:
            phis = _chsh_phases([alpha], [0.0])[0]
            phis[4:] = 0.0  # the preparation row, measurement phases zeroed
            psi = two_qubit_unitary(PhaseConfig(phis))[:, 0]
            assert_equal_up_to_phase(psi, chsh_state(alpha))

    def test_product_state_respects_bound(self):
        betas = np.arange(0, TWO_PI + 1e-9, TWO_PI / 15)
        for beta in betas:
            assert abs(chsh_sum(0.0, beta)) <= 2.0 + 1e-9

    def test_sinusoidal_in_beta(self, rng):
        betas = np.linspace(0, TWO_PI, 40)
        for alpha in (0.3, 1.2, np.pi / 2):
            s = np.array([chsh_sum(alpha, b) for b in betas])
            basis = np.column_stack([np.ones_like(betas), np.sin(betas), np.cos(betas)])
            _, res, _, _ = np.linalg.lstsq(basis, s, rcond=None)
            residual = res[0] if res.size else np.sum((basis @ np.linalg.lstsq(basis, s, rcond=None)[0] - s) ** 2)
            assert residual < 1e-9

    def test_grid_shape_and_periodicity(self):
        grid = chsh_manifold()
        assert grid.s.shape == (16, 16)
        assert np.max(np.abs(grid.s[0] - grid.s[-1])) < 1e-9
        assert np.max(np.abs(grid.s[:, 0] - grid.s[:, -1])) < 1e-9

    def test_extrema_reach_tsirelson(self):
        smin, smax = chsh_extrema()
        assert smax == pytest.approx(2 * np.sqrt(2), abs=1e-6)
        assert smin == pytest.approx(-2 * np.sqrt(2), abs=1e-6)

    @given(step=st.floats(0.05, 7.0))
    @example(step=7.0)  # 1 x 1 grid
    @example(step=TWO_PI)  # 2 x 2 grid: its argmax and argmin coincide
    @example(step=3.5)  # 2 x 2 grid
    def test_refined_extrema_on_every_grid(self, step):
        grid = chsh_manifold(step)
        smin, smax = chsh_extrema(grid)
        assert type(smin) is float and type(smax) is float
        assert abs(smax - 2 * np.sqrt(2)) <= 1e-12
        assert abs(smin + 2 * np.sqrt(2)) <= 1e-12
        assert smax >= grid.s.max()
        assert smin <= grid.s.min()

    def test_sampled_mode_with_std(self):
        out = chsh_sum(np.pi / 2, np.pi / 2, NOISE_REF, np.random.default_rng(3), mc_trials=20)
        s, std = out
        assert abs(s) > 2.0
        assert std > 0.0

    @pytest.mark.parametrize("alpha, beta", [(4.608, 1.676), (np.pi / 2, np.pi / 2), (0.3, 2.2)])
    @pytest.mark.parametrize("v", [1.0, 0.978, 0.5])
    @pytest.mark.parametrize("a", [0.02, 0.5, 3.0])
    def test_exact_s_counts_accidentals(self, alpha, beta, v, a):
        # accidentals add a / 4 of the pairs to every outcome, which scales each correlator by 1 / (1 + a)
        bare = chsh_sum(alpha, beta, NoiseModel(0.0, v))
        assert abs(chsh_sum(alpha, beta, NoiseModel(0.0, v, accidental_fraction=a)) - bare / (1 + a)) <= 1e-12

    def test_violating_region_nonempty(self):
        grid = chsh_manifold()
        assert np.any(np.abs(grid.s) > 2.0)

    def test_csv_format(self, tmp_path, capsys):
        grid = chsh_manifold(step=TWO_PI / 3)
        path = tmp_path / "grid.csv"
        argv = ["chsh-manifold", "--exact", "--step", repr(TWO_PI / 3), "--format", "csv", "--output", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alpha,beta,S,std"
        assert len(lines) == 1 + grid.s.size


class TestRSquared:
    def test_perfect(self):
        s = [1.0, 2.0, 3.0]
        assert r_squared(s, s) == 1.0

    def test_mean_theory_gives_zero(self):
        s = np.array([1.0, 2.0, 3.0])
        assert r_squared(s, np.full(3, s.mean())) == pytest.approx(0.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            r_squared([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            r_squared([1.0], [1.0])


class TestMixedPrep:
    def test_pure_pole(self):
        amps = solve_mixed_prep([0.0, 0.0, 1.0])
        assert abs(amps.alpha) == pytest.approx(1.0)

    def test_maximally_mixed_by_forward_check(self):
        config = prep_config(solve_mixed_prep([0.0, 0.0, 0.0]))
        red = reduced_state_of_config(config)
        assert np.max(np.abs(red - np.eye(2) / 2)) < 1e-9

    def test_forward_fidelity_random_targets(self, rng):
        for _ in range(200):
            r = bloch_of_rho(sample_hs_random(2, rng))
            config = prep_config(solve_mixed_prep(r))
            red = reduced_state_of_config(config)
            assert quantum_fidelity(red, rho_of_bloch(r)) > 1.0 - 1e-9

    def test_overlong_rejected(self):
        with pytest.raises(ValueError):
            solve_mixed_prep([1.0, 0.5, 0.0])


class TestMixedSuite:
    def test_explicit_targets(self):
        targets = [np.array([0.0, 0.0, 0.5]), np.array([0.3, 0.0, 0.1])]
        report = mixed_state_suite(targets=targets, rng=None)
        assert len(report.entries) == 2
        for e in report.entries:
            assert e.fidelity > 0.999

    def test_sampling_needs_rng(self):
        with pytest.raises(ValueError):
            mixed_state_suite(n=5, rng=None)

    @pytest.mark.parametrize("n", [MAX_SUITE_TARGETS + 1, 2**63])
    def test_target_count_capped_before_any_work(self, n):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"at most {MAX_SUITE_TARGETS} targets, got {n}"):
            mixed_state_suite(n=n, rng=rng)
        with pytest.raises(ValueError, match=f"got {MAX_SUITE_TARGETS + 1}"):
            mixed_state_suite(targets=np.zeros((MAX_SUITE_TARGETS + 1, 3)), rng=rng)
        assert rng.bit_generator.state == state

    def test_noisy_sampled(self):
        report = mixed_state_suite(n=10, noise=NOISE_REF, rng=np.random.default_rng(12))
        assert report.mean > 0.9

    def test_glyph_bundle(self):
        targets = load_psi_glyph()
        assert len(targets) == 63
        assert all(t[1] == 0.0 for t in targets)  # real-plane states
        assert all(np.linalg.norm(t) <= 1.0 for t in targets)

    def test_target_file_parsing(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text("rx,ry,rz\n0.1,0.0,0.2\n")
        targets = read_bloch_targets(path)
        assert len(targets) == 1
        path.write_text("rx,ry,rz\n0.1,zzz,0.2\n")
        with pytest.raises(ValueError, match="line 2"):
            read_bloch_targets(path)

    def test_resample_errors(self):
        report = mixed_state_suite(n=3, noise=NOISE_REF, rng=np.random.default_rng(8), mc_trials=4)
        assert all(e.error > 0.0 for e in report.entries)
        assert report.to_dict(include_states=False)["fits_not_converged"] == 0


class TestHomScan:
    def test_full_visibility_zero_at_origin(self):
        scan = hom_scan(noise=NoiseModel(phase_sigma=0, indistinguishability=1.0))
        k = np.argmin(np.abs(scan.delays_fs))
        assert scan.counts[k] == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_visibility_exact(self):
        for v in (0.5, 0.978, 1.0):
            scan = hom_scan(noise=NoiseModel(phase_sigma=0, indistinguishability=v))
            assert scan.visibility == pytest.approx(v, abs=1e-9)

    def test_sampled_visibility(self):
        scan = hom_scan(
            noise=NoiseModel(phase_sigma=0, indistinguishability=0.978, mean_pairs=1e4),
            rng=np.random.default_rng(21),
        )
        assert scan.visibility == pytest.approx(0.978, abs=0.01)

    def test_short_scan_rejected(self):
        with pytest.raises(ValueError):
            hom_scan(delays_fs=np.linspace(-100, 100, 11))

    def test_one_sided_or_non_finite_scan_rejected(self):
        with pytest.raises(ValueError, match="both sides"):
            hom_scan(delays_fs=np.linspace(-100, 1600, 18))
        with pytest.raises(ValueError, match="finite"):
            hom_scan(delays_fs=[-np.inf, 0.0, np.inf])
        with pytest.raises(ValueError, match="finite"):
            hom_scan(delays_fs=[-1600.0, 0.0, np.nan, 1600.0])

    def test_scan_without_zero_delay_point_rejected(self):
        with pytest.raises(ValueError, match="zero delay"):
            hom_scan(delays_fs=[-1600.0])
        with pytest.raises(ValueError, match="zero delay"):
            hom_scan(delays_fs=np.linspace(-1600, 1600, 9) + 120.0)

    def test_even_point_count_keeps_working(self):
        scan = hom_scan(delays_fs=np.linspace(-1600, 1600, 80))
        assert np.min(np.abs(scan.delays_fs)) == pytest.approx(1600 / 79)
        assert scan.visibility > 0.9


class TestFringeScan:
    CURVE = HeaterCurve(a0=0.3, a2=0.35, a3=0.01, a4=-0.0008)

    def test_outputs_complementary(self):
        volts = np.linspace(0, 7, 60)
        scan = fringe_scan(1, volts, self.CURVE, noise=NoiseModel(phase_sigma=0, indistinguishability=0.9, mean_pairs=1e4))
        total = scan.counts0 + scan.counts1
        assert np.max(np.abs(total - total[0])) < 1e-9

    def test_roundtrip_through_fit(self):
        volts = np.linspace(0, 7, 140)
        scan = fringe_scan(2, volts, self.CURVE, noise=NoiseModel(phase_sigma=0, indistinguishability=0.988, mean_pairs=1e4))
        fit = fit_fringe(scan.samples(0))
        assert fit.contrast == pytest.approx(0.988, abs=1e-6)
        assert fit.curve.a2 == pytest.approx(self.CURVE.a2, abs=1e-4)

    def test_noiseless_contrast_is_one(self):
        volts = np.linspace(0, 7, 140)
        scan = fringe_scan(3, volts, self.CURVE)
        fit = fit_fringe(scan.samples(0))
        assert fit.contrast == pytest.approx(1.0, abs=1e-9)

    def test_heater_index_validated(self):
        with pytest.raises(ValueError):
            fringe_scan(0, [0.0] * 20, self.CURVE)

    def test_sampled_deterministic(self):
        volts = np.linspace(0, 7, 30)
        a = fringe_scan(4, volts, self.CURVE, NOISE_REF, np.random.default_rng(2))
        b = fringe_scan(4, volts, self.CURVE, NOISE_REF, np.random.default_rng(2))
        assert np.array_equal(a.counts0, b.counts0)


class TestBatchedDrivers:
    def test_empty_benchmark_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            random_config_benchmark(0, NOISE_REF, np.random.default_rng(1))

    @pytest.mark.parametrize("n", [MAX_BENCHMARK_N + 1, 2**63])
    def test_benchmark_size_capped_before_any_work(self, n):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"at most {MAX_BENCHMARK_N}, got {n}"):
            random_config_benchmark(n, NOISE_REF, rng)
        assert rng.bit_generator.state == state

    def test_device_probs_batch_equals_single_calls(self, rng):
        phis = rng.uniform(0, TWO_PI, (16, 8))
        batch = device_probs(phis, NOISE_REF, np.random.default_rng(3).spawn(16))
        single = [device_probs(p[None], NOISE_REF, [g]) for p, g in zip(phis, np.random.default_rng(3).spawn(16))]
        assert batch.shape == (16, 4)
        assert np.array_equal(batch, np.concatenate(single))

    def test_sampled_manifold_independent_of_block(self, monkeypatch):
        """A sampled grid run in blocks of three points equals the grid run as one block."""
        ref = chsh_manifold(TWO_PI / 4, NOISE_REF, np.random.default_rng(9), mc_trials=5)
        monkeypatch.setattr("rechip.experiments.BLOCK", 3)
        out = chsh_manifold(TWO_PI / 4, NOISE_REF, np.random.default_rng(9), mc_trials=5)
        assert np.array_equal(ref.s, out.s)
        assert np.array_equal(ref.std, out.std)

    def test_chunk_cap_does_not_change_results(self, monkeypatch):
        """Blocks of four points give the exact grid of one block."""
        grid = chsh_manifold(TWO_PI / 6, NOISE_REF)
        monkeypatch.setattr("rechip.experiments.BLOCK", 4)
        assert np.array_equal(chsh_manifold(TWO_PI / 6, NOISE_REF).s, grid.s)

    def test_manifold_points_equal_chsh_sum(self):
        grid = chsh_manifold(TWO_PI / 6, NOISE_REF, np.random.default_rng(10), mc_trials=4)
        children = np.random.default_rng(10).spawn(grid.s.size)
        for k, child in enumerate(children):
            i, j = divmod(k, grid.s.shape[1])
            s, std = chsh_sum(grid.alphas[i], grid.betas[j], NOISE_REF, child, mc_trials=4)
            assert (s, std) == (grid.s[i, j], grid.std[i, j])

    def test_nan_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            chsh_manifold(step=float("nan"))

    def test_grid_side_capped_before_any_work(self, monkeypatch):
        sizes = []
        monkeypatch.setattr("rechip.experiments._chsh_points",
                            lambda alphas, *_: sizes.append(len(alphas)) or np.zeros((2, len(alphas))))
        assert chsh_manifold(TWO_PI / 1000).s.shape == (1001, 1001)
        with pytest.raises(ValueError, match=r"1002 x 1002 grid \(1004004 points\)"):
            chsh_manifold(TWO_PI / 1001)
        assert sum(sizes) == 1001 * 1001

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_tomography_records_exact_and_sampled(self, qubits):
        prep = PhaseConfig([np.pi / 2] + [0.0] * 7)
        settings, exact = tomography_records(prep, NOISE_REF, None, qubits)
        _, sampled = tomography_records(prep, NOISE_REF, np.random.default_rng(11), qubits)
        assert [r.setting for r in exact] == [s.label for s in settings] == [r.setting for r in sampled]
        outcomes = 2 ** qubits
        for e, s in zip(exact, sampled):
            assert e.counts(outcomes).sum() == pytest.approx(NOISE_REF.mean_pairs, abs=outcomes)
            assert abs(s.counts(outcomes).sum() - NOISE_REF.mean_pairs) < 6 * np.sqrt(NOISE_REF.mean_pairs)

    @pytest.mark.parametrize("qubits", [1, 2])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_batched_tomography_records_equal_per_preparation_calls(self, qubits, seeded):
        preps = [prep_config(solve_mixed_prep(r)) for r in load_psi_glyph()[:7]]
        preps += [PhaseConfig(list(p) + [0.0] * 4) for p in BELL_PREPS.values()]
        def rngs():
            return np.random.default_rng(21).spawn(len(preps)) if seeded else None

        settings, batched = tomography_records(preps, NOISE_REF, rngs(), qubits)
        assert batched.shape == (len(preps), len(settings), 2 ** qubits)
        for prep, rng, counts in zip(preps, rngs() or [None] * len(preps), batched):
            single_settings, single = tomography_records(prep, NOISE_REF, rng, qubits)
            assert single_settings == settings
            assert np.array_equal(counts, [r.counts(2 ** qubits) for r in single])


class TestDeviceProbsProperties:
    """Physics of the simulated device for any phase batch and noise setting."""

    @given(
        n=st.integers(1, 64),
        seed=st.integers(0, 2**31),
        sigma=st.floats(0.0, 0.5),
        v=st.floats(0.0, 1.0),
    )
    def test_rows_are_distributions(self, n, seed, sigma, v):
        rng = np.random.default_rng(seed)
        phis = rng.uniform(0.0, TWO_PI, (n, 8))
        noise = NoiseModel(phase_sigma=sigma, indistinguishability=v)
        p = device_probs(phis, noise, rng.spawn(n))
        assert p.shape == (n, 4)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-12

    @given(n=st.integers(1, 64), seed=st.integers(0, 2**31), state=st.sampled_from(BASIS_LABELS))
    def test_waveguide_success_is_one_ninth(self, n, seed, state):
        phis = np.random.default_rng(seed).uniform(0.0, TWO_PI, (n, 8))
        success = coincidence_probs(phis, state, model="waveguide").success
        assert np.max(np.abs(success - 1.0 / 9.0)) <= 1e-12
