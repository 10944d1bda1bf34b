"""Invariants of the maximum-likelihood reconstruction and of the seeded random streams, as hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rechip import experiments
from rechip.chip import PhaseConfig, phase_batch, wrap_phases
from rechip.noise import CountRecord, NoiseModel, apply_phase_noise, expected_counts
from rechip.tomography import canonical_settings, check_density, mle_reconstruct, mle_reconstruct_batch

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


# Sweeps draw every row from its own generator.  Each property below pins a per-row draw, and the state
# it leaves each generator in, bit for bit to a reference that makes numpy's per-row array call.

SEED = st.integers(0, 2**64 - 1)
# an expected count is zero, tiny (subnormals included), below or above numpy's Poisson switch at 10
LAMBDA = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 10.0, exclude_max=True),
                   st.floats(10.0, 1e7))


def _twin_generators(seed, n):
    return np.random.default_rng(seed).spawn(n), np.random.default_rng(seed).spawn(n)


def _same_states(rngs, twins):
    return all(g.bit_generator.state == t.bit_generator.state for g, t in zip(rngs, twins))


@given(seed=SEED, outcomes=st.sampled_from([2, 4]), data=st.data())
def test_outcome_counts_draw_the_array_poisson_stream(seed, outcomes, data):
    lam = np.array(data.draw(st.lists(st.lists(LAMBDA, min_size=outcomes, max_size=outcomes),
                                      min_size=1, max_size=20)))
    rngs, twins = _twin_generators(seed, len(lam))
    unit = NoiseModel(mean_pairs=1.0, accidental_fraction=0.0)  # expected counts equal lam exactly
    counts = experiments._outcome_counts(lam, unit, rngs)
    expected = np.array([g.poisson(row) for g, row in zip(twins, lam)], dtype=float)
    assert np.array_equal(counts, expected)
    assert _same_states(rngs, twins)


@given(seed=SEED, sigma=st.floats(0.0, 1e300), rows=st.integers(1, 12), single=st.booleans())
def test_phase_noise_draws_the_normal_stream(seed, sigma, rows, single):
    phases = np.random.default_rng(seed ^ 1).random((rows, 8)) * experiments.TWO_PI
    config = PhaseConfig(phases[0]) if single else phases
    rngs, twins = _twin_generators(seed, 1 if single else rows)
    noisy = apply_phase_noise(config, sigma, rngs[0] if single else rngs)
    if sigma == 0.0:
        expected = phase_batch(config)
    else:
        expected = wrap_phases(phase_batch(config) + np.array([g.normal(0.0, sigma, size=8) for g in twins]))
    assert np.array_equal(phase_batch(noisy), expected)
    assert isinstance(noisy, PhaseConfig) == single
    assert _same_states(rngs, twins)


@given(seed=SEED, rows=st.integers(1, 20))
def test_benchmark_configs_draw_the_uniform_stream(seed, rows):
    rngs, twins = _twin_generators(seed, rows)
    configs = experiments._random_configs(rngs)
    assert np.array_equal(configs, np.array([g.uniform(0.0, experiments.TWO_PI, 8) for g in twins]))
    assert _same_states(rngs, twins)


@given(seed=SEED, points=st.integers(1, 6), mc_trials=st.integers(2, 30),
       mean_pairs=st.one_of(st.floats(0.0, 20.0), st.floats(20.0, 1e6)))
def test_chsh_resample_std_matches_one_std_per_point(seed, points, mc_trials, mean_pairs):
    angles = np.random.default_rng(seed ^ 1).random((2, points)) * experiments.TWO_PI
    noise = NoiseModel(mean_pairs=mean_pairs)
    rngs, twins = _twin_generators(seed, points)
    s, std = experiments._chsh_points(angles[0], angles[1], noise, rngs, mc_trials)
    # the point estimates first, which draw from children of each point's generator
    children = [c for g in twins for c in g.spawn(4)]
    probs = experiments.device_probs(experiments._chsh_phases(*angles), noise, children).as_array()
    lam = expected_counts(probs, noise)
    counts = np.array([g.poisson(row) for g, row in zip(children, lam)], dtype=float).reshape(points, 4, 4)
    resampled = [g.poisson(np.broadcast_to(c, (mc_trials, 4, 4))).astype(float) for g, c in zip(twins, counts)]
    expected = np.array([np.std(experiments._chsh_of_counts(r), ddof=1) for r in resampled])
    assert np.array_equal(s, experiments._chsh_of_counts(counts))
    assert np.array_equal(std, expected)
    assert _same_states(rngs, twins)
