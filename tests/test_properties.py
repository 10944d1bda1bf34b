"""Invariants of the maximum-likelihood reconstruction, the device statistics and the seeded random
streams, as hypothesis properties."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rechip import experiments, numerics, tomography
from rechip.calibration import CalibrationError, HeaterCurve, fit_fringe
from rechip.chip import coincidence_probs, phase_batch, wrap_phases
from rechip.noise import CountRecord, NoiseModel, apply_phase_noise, expected_counts
from rechip.tomography import (bloch_of_rho, canonical_settings, check_density, mle_reconstruct,
                               mle_reconstruct_batch, quantum_fidelity, rho_of_bloch, sample_hs_random,
                               simulate_counts, statistical_fidelity)

# a count is zero, small or large; a setting may also be left out entirely (all its counts zero)
COUNT = st.one_of(st.just(0), st.integers(0, 30), st.integers(0, 10**6))


@st.composite
def count_table(draw, qubits):
    settings = 3**qubits
    outcomes = 2**qubits
    table = np.array(draw(st.lists(st.lists(COUNT, min_size=outcomes, max_size=outcomes),
                                   min_size=settings, max_size=settings)), dtype=np.int64)
    empty = draw(st.lists(st.booleans(), min_size=settings, max_size=settings))
    table[np.array(empty)] = 0
    return table


def _records(settings, table):
    return [CountRecord.from_counts(s.label, row) for s, row in zip(settings, table)]


@pytest.mark.parametrize("qubits", [1, 2])
@given(data=st.data())
def test_fit_is_a_density_matrix(qubits, data):
    table = data.draw(count_table(qubits))
    settings = canonical_settings(qubits)
    if table.sum() == 0:
        with pytest.raises(ValueError, match="zero total counts"):
            mle_reconstruct(settings, _records(settings, table))
        return
    result = mle_reconstruct(settings, _records(settings, table))
    check_density(result.rho)
    assert result.rho.shape == (2**qubits, 2**qubits)
    assert np.isfinite(result.log_likelihood)


@pytest.mark.parametrize("qubits", [1, 2])
@given(data=st.data())
def test_batched_fit_equals_fit_alone(qubits, data):
    """Each record of a batch, zero-count settings of its own included, is fitted bit for bit as alone."""
    tables = data.draw(st.lists(count_table(qubits), min_size=1, max_size=5))
    tables = [t for t in tables if t.sum() > 0]
    if not tables:
        return
    settings = canonical_settings(qubits)
    batch = mle_reconstruct_batch(settings, tables)
    for table, fit in zip(tables, batch):
        alone = mle_reconstruct_batch(settings, [table])[0]
        assert np.array_equal(fit.rho, alone.rho)
        assert np.array_equal(fit.params, alone.params)
        assert (fit.iterations, fit.converged, fit.message) == (alone.iterations, alone.converged, alone.message)
        assert fit.log_likelihood == alone.log_likelihood
        via_records = mle_reconstruct(settings, _records(settings, table))
        assert np.array_equal(via_records.rho, alone.rho)


SEED = st.integers(0, 2**64 - 1)


@pytest.mark.parametrize("qubits", [1, 2])
@given(seed=SEED, log_pairs=st.floats(2.0, 6.0))
def test_fit_beats_its_start_and_is_stationary(qubits, seed, log_pairs):
    """A fit of Poisson counts of a Hilbert-Schmidt random state converges below the negative
    log-likelihood of its linear-inversion start, and its gradient orthogonal to theta (the part that
    moves rho) passes the solver's stationarity test at GTOL."""
    rng = np.random.default_rng(seed)
    settings = tuple(canonical_settings(qubits))
    dim = 2**qubits
    expected = [r.counts(dim) for r in simulate_counts(settings, sample_hs_random(dim, rng), 10**log_pairs)]
    counts = rng.poisson(expected)[None]
    if counts.sum() == 0:
        return
    fit = mle_reconstruct_batch(settings, counts)[0]
    assert fit.converged, fit.message
    n, totals = tomography._count_arrays(settings, counts)
    forms = tomography._forms(settings)
    start, _, _ = tomography._nll(tomography.linear_inversion_start(settings, n, totals), forms, n, totals, dim)
    f, g, h = tomography._nll(fit.params[None], forms, n, totals, dim)
    assert -fit.log_likelihood == f[0] <= start[0]
    theta = fit.params
    g_perp = g[0] - (g[0] @ theta) / (theta @ theta) * theta
    assert np.all(g_perp**2 <= numerics.GTOL**2 * 2.0 * max(abs(f[0]), 1.0) * np.abs(h[0].diagonal()))


@given(seed=SEED, a0=st.floats(0.0, 1.0), a2=st.floats(0.1, 0.5), a3=st.floats(-0.01, 0.01),
       a4=st.floats(-5e-4, 5e-4), log_pairs=st.floats(2.0, 5.0))
def test_fringe_fit_stays_in_its_box(seed, a0, a2, a3, a4, log_pairs):
    """A fringe fit of Poisson counts along a monotone curve keeps A >= 0, 0 <= C <= 1, |a0| <= 2 pi and a2 >= 0."""
    curve = HeaterCurve(a0, a2, a3, a4)
    if not curve.is_monotone():
        return
    scan = experiments.fringe_scan(1, np.linspace(0.0, 7.0, 120), curve, NoiseModel(mean_pairs=10**log_pairs),
                                   np.random.default_rng(seed))
    try:
        fit = fit_fringe(scan.samples(0))
    except CalibrationError:
        return
    assert fit.amplitude >= 0.0
    assert 0.0 <= fit.contrast <= 1.0
    assert abs(fit.curve.a0) <= 2 * np.pi
    assert fit.curve.a2 >= 0.0


# Every sampled driver gives each task one child generator, and the child draws each quantity of the task
# with one array call: configurations (the benchmark only), phase errors, counts, then resamples (the
# experiments module docstring).  Each property below pins those draws, and the state they leave each
# generator in, bit for bit to a replica in plain numpy array calls.
# an expected count is zero, tiny (subnormals included), below or above numpy's Poisson switch at 10
LAMBDA = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 10.0, exclude_max=True),
                   st.floats(10.0, 1e7))
GROUPS = st.integers(1, 6)  # generators of a batch
PER_GROUP = st.integers(1, 5)  # consecutive rows each generator draws for


def _twin_generators(seed, n):
    return np.random.default_rng(seed).spawn(n), np.random.default_rng(seed).spawn(n)


def _same_states(rngs, twins):
    return all(g.bit_generator.state == t.bit_generator.state for g, t in zip(rngs, twins))


class _RecordingGenerator(np.random.Generator):
    """A generator that keeps the children it spawns (Generator.spawn makes them of its own type)."""

    def spawn(self, n_children):
        self.children = super().spawn(n_children)
        return self.children


@given(seed=SEED, outcomes=st.sampled_from([2, 4]), groups=GROUPS, per_group=PER_GROUP, data=st.data())
def test_outcome_counts_draw_the_array_poisson_stream(seed, outcomes, groups, per_group, data):
    lam = np.array(data.draw(st.lists(st.lists(LAMBDA, min_size=outcomes, max_size=outcomes),
                                      min_size=groups * per_group, max_size=groups * per_group)))
    rngs, twins = _twin_generators(seed, groups)
    unit = NoiseModel(mean_pairs=1.0, accidental_fraction=0.0)  # expected counts equal lam exactly
    counts = experiments._outcome_counts(lam, unit, rngs)
    parts = np.split(lam, groups)
    expected = np.concatenate([g.poisson(part) for g, part in zip(twins, parts)]).astype(float)
    assert np.array_equal(counts, expected)
    assert _same_states(rngs, twins)


@given(seed=SEED, sigma=st.floats(0.0, 1e300), groups=GROUPS, per_group=PER_GROUP)
def test_phase_noise_draws_the_normal_stream(seed, sigma, groups, per_group):
    """A batch draws one (rows, 8) array per group of rows."""
    phases = np.random.default_rng(seed ^ 1).random((groups * per_group, 8)) * experiments.TWO_PI
    rngs, twins = _twin_generators(seed, groups)
    noisy = apply_phase_noise(phases, sigma, rngs)
    expected = phase_batch(phases)
    if sigma > 0.0:
        errors = [g.normal(0.0, sigma, size=(per_group, 8)) for g in twins]
        expected = wrap_phases(expected + np.concatenate(errors))
    assert np.array_equal(phase_batch(noisy), expected)
    assert _same_states(rngs, twins)


def test_phase_noise_rejects_unequal_groups():
    with pytest.raises(ValueError, match="5 rows do not split into 2 equal groups"):
        apply_phase_noise(np.zeros((5, 8)), 0.1, np.random.default_rng(0).spawn(2))


@given(seed=SEED, points=st.integers(1, 6), mc_trials=st.integers(2, 30),
       mean_pairs=st.one_of(st.floats(0.0, 20.0), st.floats(20.0, 1e6)))
def test_chsh_resample_std_matches_one_std_per_point(seed, points, mc_trials, mean_pairs):
    """A point's generator draws its four settings' errors, their counts, then its resamples."""
    angles = np.random.default_rng(seed ^ 1).random((2, points)) * experiments.TWO_PI
    noise = NoiseModel(mean_pairs=mean_pairs)
    rngs, twins = _twin_generators(seed, points)
    s, std = experiments._chsh_points(angles[0], angles[1], noise, rngs, mc_trials)
    counts, expected = [], []
    for g, phases in zip(twins, experiments._chsh_phases(*angles).reshape(points, 4, 8)):
        noisy = wrap_phases(phases + g.normal(0.0, noise.phase_sigma, size=(4, 8)))
        lam = expected_counts(experiments.device_probs(noisy, noise, None), noise)
        counts.append(g.poisson(lam).astype(float))
        resampled = g.poisson(np.broadcast_to(counts[-1], (mc_trials, 4, 4))).astype(float)
        expected.append(np.std(experiments._chsh_of_counts(resampled), ddof=1))
    assert np.array_equal(s, experiments._chsh_of_counts(np.array(counts)))
    assert np.array_equal(std, expected)
    assert _same_states(rngs, twins)


@given(seed=SEED, n=st.integers(1, 4), mc_trials=st.sampled_from([0, 2, 3]),
       noise=st.sampled_from([NoiseModel(), NoiseModel(mean_pairs=30.0, accidental_fraction=0.1)]))
def test_suite_target_draws_errors_counts_then_resamples(seed, n, mc_trials, noise):
    """A mixed-state target's generator draws its three settings' errors, their counts, then its resamples;
    its point estimate and resample fits are those of its counts alone."""
    targets = [bloch_of_rho(sample_hs_random(2, np.random.default_rng(seed ^ k))) for k in range(n)]
    rng = _RecordingGenerator(np.random.PCG64(seed))
    report = experiments.mixed_state_suite(targets, noise=noise, rng=rng, mc_trials=mc_trials)
    settings = canonical_settings(1)
    twins = np.random.default_rng(seed).spawn(n)
    for target, entry, g in zip(targets, report.entries, twins):
        phases = np.zeros((len(settings), 8))
        phases[:, :4] = experiments.prep_config(experiments.solve_mixed_prep(target)).phis[:4]
        phases[:, 4:6] = [np.ravel(s.angles) for s in settings]
        noisy = wrap_phases(phases + g.normal(0.0, noise.phase_sigma, size=phases.shape))
        p = experiments.device_probs(noisy, noise, None)
        counts = np.rint(g.poisson(expected_counts(p[:, [0, 2]] + p[:, [1, 3]], noise)).astype(float))
        point = mle_reconstruct_batch(settings, counts[None])[0]
        assert np.array_equal(entry.rho, point.rho)
        error = 0.0
        if mc_trials >= 2:
            resampled = g.poisson(np.broadcast_to(counts, (mc_trials,) + counts.shape)).astype(float)
            start = np.broadcast_to(point.params, (mc_trials, point.params.size))
            fits = mle_reconstruct_batch(settings, resampled, start=start)
            error = np.std(quantum_fidelity(rho_of_bloch(target), np.array([f.rho for f in fits])), ddof=1)
        assert entry.error == error
    assert _same_states(rng.children, twins)


# A sampled random_config_benchmark draws from one child generator per block of BLOCK rows, each
# quantity of a block as one array call.  The properties below pin it, with small blocks, to a replica in
# plain numpy array calls, and the generators it spawns to the state those calls leave.

BLOCK_SIZE = st.integers(1, 7)  # rows (or grid points) per block (experiments.BLOCK)


def _block_replica(seed, n, block, noise, exact):
    """Fidelities and spent child generators of the block layout, in plain numpy calls."""
    children = np.random.default_rng(seed).spawn(-(-n // block))
    fidelities = []
    for k, g in enumerate(children):
        configs = g.random((min(block, n - k * block), 8)) * experiments.TWO_PI
        noisy = configs
        if not exact and noise.phase_sigma > 0:
            noisy = wrap_phases(configs + noise.phase_sigma * g.standard_normal(configs.shape))
        lam = expected_counts(experiments.device_probs(noisy, noise, None), noise)
        counts = lam if exact else g.poisson(lam).astype(float)
        total = counts.sum(axis=-1)
        theory = coincidence_probs(configs, "00", model="gate").as_array()
        fidelity = statistical_fidelity(counts / np.where(total > 0, total, 1.0)[:, None], theory)
        fidelities.append(np.where(total > 0, fidelity, 0.0))
    return np.concatenate(fidelities), children


@given(seed=st.one_of(st.none(), SEED), n=st.integers(1, 30), block=BLOCK_SIZE, exact=st.booleans(),
       noise=st.sampled_from([NoiseModel(), NoiseModel(phase_sigma=0.0), NoiseModel(mean_pairs=3.0)]))
def test_benchmark_draws_one_stream_per_block(seed, n, block, exact, noise):
    """Per block: configurations, then (sampled) errors, then counts, each one array call; exact draws only
    the configurations, and a run without a generator (seed None) those of a run given default_rng(0)."""
    rng = None if seed is None else _RecordingGenerator(np.random.PCG64(seed))
    with mock.patch.object(experiments, "BLOCK", block):
        report = experiments.random_config_benchmark(n, noise, rng, exact=exact)
    fidelities, twins = _block_replica(0 if seed is None else seed, n, block, noise, exact or rng is None)
    assert np.array_equal(report.fidelities, fidelities)
    assert rng is None or _same_states(rng.children, twins)


@given(seed=SEED, sigma=st.floats(0.0, 1e300), rows=st.integers(1, 12))
def test_phase_noise_from_one_generator_draws_one_normal_array(seed, sigma, rows):
    phases = np.random.default_rng(seed ^ 1).random((rows, 8)) * experiments.TWO_PI
    g, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    noisy = apply_phase_noise(phases, sigma, [g])
    expected = phase_batch(phases)
    if sigma > 0.0:
        expected = wrap_phases(expected + sigma * twin.standard_normal(expected.shape))
    assert np.array_equal(phase_batch(noisy), expected)
    assert g.bit_generator.state == twin.bit_generator.state


@given(seed=SEED, groups=GROUPS, per_group=PER_GROUP, sigma=st.floats(0.0, 0.5), v=st.floats(0.0, 1.0),
       sampled=st.booleans())
def test_device_probs_on_groups_equals_per_group_calls(seed, groups, per_group, sigma, v, sampled):
    """device_probs on K groups of rows (K generators, or none) equals the K per-group calls, bit for bit."""
    phases = np.random.default_rng(seed ^ 1).random((groups * per_group, 8)) * experiments.TWO_PI
    noise = NoiseModel(phase_sigma=sigma, indistinguishability=v)
    rngs, twins = _twin_generators(seed, groups)
    probs = experiments.device_probs(phases, noise, rngs if sampled else None)
    parts = [experiments.device_probs(part, noise, [g] if sampled else None)
             for part, g in zip(np.split(phases, groups), twins)]
    assert probs.shape == (groups * per_group, 4)
    assert np.array_equal(probs, np.concatenate(parts))
    assert _same_states(rngs, twins)


@pytest.mark.xfail(strict=True, reason="each setting draws its own errors for all eight phases, so the four "
                                        "correlators come from different states and observables")
@given(seed=SEED, alpha=st.floats(0.0, experiments.TWO_PI), beta=st.floats(0.0, experiments.TWO_PI),
       sigma=st.floats(0.0, 0.5), v=st.floats(0.0, 1.0), accidental=st.floats(0.0, 10.0))
@example(seed=19, alpha=4.608, beta=1.676, sigma=0.05, v=0.978, accidental=0.0)  # S = 2.8950
def test_noisy_exact_count_s_obeys_tsirelson(seed, alpha, beta, sigma, v, accidental):
    """S from the expected counts of jittered device rows is at most 2 sqrt(2) for any noise and grid point."""
    noise = NoiseModel(phase_sigma=sigma, indistinguishability=v, accidental_fraction=accidental)
    g = np.random.default_rng(seed)  # the point's generator, which draws each setting's eight errors
    probs = experiments.device_probs(experiments._chsh_phases([alpha], [beta]), noise, [g])
    s = experiments._chsh_of_counts(expected_counts(probs, noise).reshape(1, 4, 4))[0]
    assert abs(s) <= 2 * np.sqrt(2) + 1e-12


@given(n=st.integers(1, 32), seed=SEED, sigma=st.floats(0.0, 0.5), v=st.floats(0.0, 1.0),
       accidental=st.floats(0.0, 10.0))
def test_device_rows_are_distributions_with_accidentals(n, seed, sigma, v, accidental):
    """Device rows are distributions, and accidentals add accidental_fraction / 4 of the pairs to each outcome."""
    rng = np.random.default_rng(seed)
    noise = NoiseModel(phase_sigma=sigma, indistinguishability=v, accidental_fraction=accidental, mean_pairs=1.0)
    p = experiments.device_probs(rng.random((n, 8)) * experiments.TWO_PI, noise, rng.spawn(n))
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-12
    lam = expected_counts(p, noise)
    assert np.all(lam >= accidental / 4)
    assert np.max(np.abs(lam.sum(axis=-1) - (1.0 + accidental))) <= 1e-12 * (1.0 + accidental)


def _report_bytes(report):
    return json.dumps(report.to_dict(), sort_keys=True).encode()


@given(seed=SEED, side=st.integers(2, 8), mc_trials=st.sampled_from([0, 2, 5]), block=BLOCK_SIZE, other=BLOCK_SIZE)
def test_manifold_does_not_depend_on_block(seed, side, mc_trials, block, other):
    """However a grid is split into blocks, its report is the same."""
    step = experiments.TWO_PI / (side - 1)
    runs = []
    for size in (block, other):  # hypothesis rejects function-scoped fixtures, so BLOCK is patched by hand
        with mock.patch.object(experiments, "BLOCK", size):
            runs.append(experiments.chsh_manifold(step, NoiseModel(), np.random.default_rng(seed), mc_trials))
    assert runs[0].s.shape == (side, side)
    assert _report_bytes(runs[0]) == _report_bytes(runs[1])


@given(seed=SEED, n=st.integers(1, 5), mc_trials=st.sampled_from([0, 2, 3]), data=st.data())
def test_suite_prefix_is_the_suite_of_the_prefix(seed, n, mc_trials, data):
    """The first j entries of mixed_state_suite(targets=T) are mixed_state_suite(targets=T[:j]), bit for bit."""
    j = data.draw(st.integers(1, n))
    targets = [bloch_of_rho(sample_hs_random(2, np.random.default_rng(seed ^ k))) for k in range(n)]
    whole, prefix = (experiments.mixed_state_suite(t, noise=NoiseModel(), rng=np.random.default_rng(seed),
                                                   mc_trials=mc_trials) for t in (targets, targets[:j]))
    assert json.dumps(whole.to_dict()["entries"][:j]) == json.dumps(prefix.to_dict()["entries"])
    assert [e.fits_not_converged for e in whole.entries[:j]] == [e.fits_not_converged for e in prefix.entries]
