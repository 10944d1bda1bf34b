"""Invariants of the maximum-likelihood reconstruction as hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rechip.noise import CountRecord
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
