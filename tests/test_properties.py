"""Invariants of the maximum-likelihood reconstruction, the device statistics and the seeded random
streams, as hypothesis properties."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rechip import experiments
from rechip.chip import BASIS_LABELS, PhaseConfig, coincidence_probs, phase_batch, wrap_phases
from rechip.noise import CountRecord, NoiseModel, apply_phase_noise, expected_counts, spawn
from rechip.tomography import (canonical_settings, check_density, mle_reconstruct, mle_reconstruct_batch,
                               statistical_fidelity)

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


# The manifold and the suites draw every row from its own generator, as does a benchmark run without one.
# Each property below pins a per-row draw, and the state it leaves each generator in, bit for bit to a
# reference that makes numpy's per-row array call.

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


# A sampled random_config_benchmark draws from one child generator per block of STREAM_BLOCK rows, each
# quantity of a block as one array call.  The properties below pin it, with small blocks and chunks, to a
# replica in plain numpy array calls, and the generators it spawns to the state those calls leave.

BLOCK = st.integers(1, 7)  # rows per child generator (experiments.STREAM_BLOCK)
CHUNK = st.integers(1, 6)  # items per chunk of a sweep (experiments._MAX_CHUNK)


class _RecordingGenerator(np.random.Generator):
    """A generator that keeps the children it spawns (Generator.spawn makes them of its own type)."""

    def spawn(self, n_children):
        self.children = super().spawn(n_children)
        return self.children


def _block_replica(seed, n, block, noise, exact):
    """Fidelities and spent child generators of the block layout, in plain numpy calls."""
    children = np.random.default_rng(seed).spawn(-(-n // block))
    fidelities = []
    for k, g in enumerate(children):
        configs = g.random((min(block, n - k * block), 8)) * experiments.TWO_PI
        noisy = configs
        if not exact and noise.phase_sigma > 0:
            noisy = wrap_phases(configs + noise.phase_sigma * g.standard_normal(configs.shape))
        lam = expected_counts(experiments.device_probs(noisy, noise, None).as_array(), noise)
        counts = lam if exact else g.poisson(lam).astype(float)
        total = counts.sum(axis=-1)
        theory = coincidence_probs(configs, "00", model="gate")
        fidelity = statistical_fidelity(counts / np.where(total > 0, total, 1.0)[:, None], theory)
        fidelities.append(np.where(total > 0, fidelity, 0.0))
    return np.concatenate(fidelities), children


@given(seed=SEED, n=st.integers(1, 30), block=BLOCK, chunk=CHUNK, exact=st.booleans(),
       noise=st.sampled_from([NoiseModel(), NoiseModel(phase_sigma=0.0), NoiseModel(mean_pairs=3.0)]))
def test_benchmark_draws_one_stream_per_block(seed, n, block, chunk, exact, noise):
    """Per block: configurations, then (sampled) errors, then counts, each one array call; exact draws only
    the configurations.  Chunks smaller or larger than a block change nothing."""
    rng = _RecordingGenerator(np.random.PCG64(seed))
    with mock.patch.object(experiments, "STREAM_BLOCK", block), mock.patch.object(experiments, "_MAX_CHUNK", chunk):
        report = experiments.random_config_benchmark(n, noise, rng, exact=exact)
    fidelities, twins = _block_replica(seed, n, block, noise, exact)
    assert np.array_equal(report.fidelities, fidelities)
    assert _same_states(rng.children, twins)


@given(seed=SEED, sigma=st.floats(0.0, 1e300), rows=st.integers(1, 12), single=st.booleans())
def test_phase_noise_from_one_generator_draws_one_normal_array(seed, sigma, rows, single):
    phases = np.random.default_rng(seed ^ 1).random((rows, 8)) * experiments.TWO_PI
    config = PhaseConfig(phases[0]) if single else phases
    g, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    noisy = apply_phase_noise(config, sigma, g)
    expected = phase_batch(config)
    if sigma > 0.0:
        expected = wrap_phases(expected + sigma * twin.standard_normal(expected.shape))
    assert np.array_equal(phase_batch(noisy), expected)
    assert isinstance(noisy, PhaseConfig) == single
    assert g.bit_generator.state == twin.bit_generator.state


@pytest.mark.xfail(strict=True, reason="each setting draws its own errors for all eight phases, so the four "
                                        "correlators come from different states and observables")
@given(seed=SEED, alpha=st.floats(0.0, experiments.TWO_PI), beta=st.floats(0.0, experiments.TWO_PI),
       sigma=st.floats(0.0, 0.5), v=st.floats(0.0, 1.0), accidental=st.floats(0.0, 10.0))
@example(seed=29, alpha=4.608, beta=1.676, sigma=0.05, v=0.978, accidental=0.0)  # S = 2.8899
def test_noisy_exact_count_s_obeys_tsirelson(seed, alpha, beta, sigma, v, accidental):
    """S from the expected counts of jittered device rows is at most 2 sqrt(2) for any noise and grid point."""
    noise = NoiseModel(phase_sigma=sigma, indistinguishability=v, accidental_fraction=accidental)
    children = np.random.default_rng(seed).spawn(4)  # one per setting, as _chsh_points spawns them
    probs = experiments.device_probs(experiments._chsh_phases([alpha], [beta]), noise, children).as_array()
    s = experiments._chsh_of_counts(expected_counts(probs, noise).reshape(1, 4, 4))[0]
    assert abs(s) <= 2 * np.sqrt(2) + 1e-12


@given(n=st.integers(1, 32), seed=SEED, sigma=st.floats(0.0, 0.5), v=st.floats(0.0, 1.0),
       accidental=st.floats(0.0, 10.0), state=st.sampled_from(BASIS_LABELS))
def test_device_rows_are_distributions_with_accidentals(n, seed, sigma, v, accidental, state):
    """Device rows are distributions, and accidentals add accidental_fraction / 4 of the pairs to each outcome."""
    rng = np.random.default_rng(seed)
    noise = NoiseModel(phase_sigma=sigma, indistinguishability=v, accidental_fraction=accidental, mean_pairs=1.0)
    p = experiments.device_probs(rng.random((n, 8)) * experiments.TWO_PI, noise, rng.spawn(n), state).as_array()
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-12
    lam = expected_counts(p, noise)
    assert np.all(lam >= accidental / 4)
    assert np.max(np.abs(lam.sum(axis=-1) - (1.0 + accidental))) <= 1e-12 * (1.0 + accidental)


# noise.spawn derives every child generator of a sweep; Generator.spawn, one parent at a time, is its reference.

# entropy at both ends of one and two words, of more words than the pool holds, a [seed, k] list, fresh entropy
ENTROPY = st.one_of(st.sampled_from([0, 2**64 - 1]), SEED, st.integers(2**128, 2**200),
                    st.tuples(SEED, st.integers(0, 1000)).map(list), st.none())


def _twin_roots(entropy, make=np.random.PCG64):
    entropy = np.random.SeedSequence().entropy if entropy is None else entropy
    return [np.random.Generator(make(np.random.SeedSequence(entropy))) for _ in range(2)]


def _same_children(ours, theirs):
    assert len(ours) == len(theirs)
    assert _same_states(ours, theirs)
    assert all(type(g) is type(t) and type(g.bit_generator) is type(t.bit_generator) for g, t in zip(ours, theirs))
    pairs = [(g.bit_generator.seed_seq, t.bit_generator.seed_seq) for g, t in zip(ours, theirs)]
    assert all(a.spawn_key == b.spawn_key and np.array_equal(a.pool, b.pool) for a, b in pairs)


@given(entropy=ENTROPY, keyed=st.booleans(), n=st.integers(1, 40), depth=st.integers(1, 3))
def test_spawn_is_generator_spawn(entropy, keyed, n, depth):
    """Children to depth 3 equal Generator.spawn's, and a second spawn from the same parents does too."""
    ours, theirs = ([g] for g in _twin_roots(entropy))
    if keyed:  # parents that are themselves spawned
        ours, theirs = ours[0].spawn(3), theirs[0].spawn(3)
    for _ in range(depth):
        ours, theirs = ours[:1] + ours[-1:], theirs[:1] + theirs[-1:]  # at most two parents per level
        first = spawn(ours, n)
        reference = [c for g in theirs for c in g.spawn(n)]
        _same_children(first, reference)
        _same_children(spawn(ours, n), [c for g in theirs for c in g.spawn(n)])
        assert _same_states(ours, theirs)
        ours, theirs = first, reference


@given(entropy=ENTROPY, n=st.integers(1, 8))
def test_spawn_keeps_the_bit_generator_type(entropy, n):
    ours, theirs = _twin_roots(entropy, np.random.MT19937)
    children, reference = spawn([ours], n), theirs.spawn(n)
    assert all(type(c.bit_generator) is np.random.MT19937 for c in children)
    assert [repr(c.bit_generator.state) for c in children] == [repr(c.bit_generator.state) for c in reference]
    assert [c.random() for c in spawn(children, 2)] == [c.random() for g in reference for c in g.spawn(2)]


@given(seed=SEED, n=st.integers(1, 8))
def test_spawn_falls_back_to_numpy_for_other_pools(seed, n):
    """A pool of 8 words goes through SeedSequence.spawn, in its place among the parents; so does a repeated parent."""
    def parents():
        big = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, pool_size=8)))
        return [big, np.random.default_rng(seed)]

    ours, theirs = parents(), parents()
    children = spawn(ours, n)
    _same_children(children, [c for g in theirs for c in g.spawn(n)])
    assert all(type(c.bit_generator.seed_seq) is np.random.SeedSequence for c in children[:n])
    _same_children(spawn(ours[1:] * 2, n), [c for g in theirs[1:] * 2 for c in g.spawn(n)])


def _report_bytes(report):
    return json.dumps(report.to_dict(), sort_keys=True).encode()


def _chunked_runs(run, sizes):
    # hypothesis rejects function-scoped fixtures, so the chunk size is patched by hand
    runs = []
    for size in sizes:
        with mock.patch.object(experiments, "_MAX_CHUNK", size):
            runs.append(run())
    return runs


@given(seed=SEED, n=st.integers(1, 40), chunk=CHUNK, other=CHUNK)
def test_benchmark_does_not_depend_on_jobs(seed, n, chunk, other):
    """However a sweep is split into chunks, its report is the same."""
    runs = _chunked_runs(lambda: experiments.random_config_benchmark(
        n, NoiseModel(), np.random.default_rng(seed)), (chunk, other))
    assert _report_bytes(runs[0]) == _report_bytes(runs[1])


@given(seed=SEED, side=st.integers(2, 8), mc_trials=st.sampled_from([0, 2, 5]), chunk=CHUNK, other=CHUNK)
def test_manifold_does_not_depend_on_jobs(seed, side, mc_trials, chunk, other):
    """However a grid is split into chunks, its report is the same."""
    step = experiments.TWO_PI / (side - 1)
    runs = _chunked_runs(lambda: experiments.chsh_manifold(
        step, NoiseModel(), np.random.default_rng(seed), mc_trials), (chunk, other))
    assert runs[0].s.shape == (side, side)
    assert _report_bytes(runs[0]) == _report_bytes(runs[1])
