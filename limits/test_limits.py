"""The paper's invariants at the size guard's limit.

Builds the largest left-fold and right-fold effect tables that
`MAX_TABLE_BYTES` admits, once each, and checks that every entry is PSD and
the entries sum to the identity, that the probabilities sum to 1, and that
the left fold's exact law and its step sampler agree with its table.  Each table takes several
seconds and a few hundred MB, so this module sits outside the Tier-1
`testpaths`:

    PYTHONPATH=src python -m pytest -q limits
"""

import numpy as np
import pytest
from scipy import stats

from collapsekit import (
    AlgebraicState,
    ChainSpec,
    collapse_effect_tree,
    exact_chain_distribution,
    joint_distribution,
    observable,
    sample_chain_leftfold,
)
from collapsekit.collapse_product import MAX_TABLE_BYTES, TableTooLargeError
from collapsekit.config import DEFAULT

# Two-outcome d = 2 observables: 64 B per outcome tuple, so the largest
# admitted chain has log2(MAX_TABLE_BYTES / 64) steps, 21 at 128 MiB.
STEPS = (MAX_TABLE_BYTES // 64).bit_length() - 1
RUNS = 100_000
BINS = 50


def spin(theta):
    return np.array([[np.cos(theta), np.sin(theta)],
                     [np.sin(theta), -np.cos(theta)]])


def chain(length, convention):
    family = [observable(f"S{k}", spin(theta)) for k, theta in enumerate((0.0, 0.7, 1.9))]
    return ChainSpec(family, length, convention, seed=20210125)


STATE = AlgebraicState(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))


@pytest.fixture(scope="module", params=["left_fold", "right_fold"])
def largest(request):
    spec = chain(STEPS, request.param)
    table = collapse_effect_tree(spec.sequence(), spec.tree())
    assert table.effects.nbytes <= MAX_TABLE_BYTES < 2 * table.effects.nbytes
    return spec, table


def test_next_step_is_refused(largest):
    spec, _ = largest
    with pytest.raises(TableTooLargeError):
        exact_chain_distribution(chain(STEPS + 1, spec.convention), STATE)


def test_entries_psd_and_summing_to_identity(largest):
    _, table = largest
    table.check()


def test_probabilities_sum_to_one(largest):
    _, table = largest
    dist = joint_distribution(table, STATE)
    assert dist.probabilities.min() >= 0.0
    assert abs(dist.probabilities.sum() - 1.0) <= DEFAULT.num


@pytest.mark.parametrize("largest", ["left_fold"], indirect=True)
def test_exact_law_is_the_table_law(largest):
    """The left fold's exact law, from the step sampler's prefix recursion,
    against the trace of its effect table."""
    spec, table = largest
    exact = exact_chain_distribution(spec, STATE)
    expected = joint_distribution(table, STATE)
    assert np.abs(exact.probabilities - expected.probabilities).max() <= 1e-12


@pytest.mark.parametrize("largest", ["left_fold"], indirect=True)
def test_step_sampler_agrees_with_the_table(largest):
    """Pooled chi-square: the table's cells, sorted by probability, fall into
    BINS groups of about equal mass; the step sampler's runs are counted per
    group against the table's expected counts."""
    spec, table = largest
    flat = joint_distribution(table, STATE).probabilities.ravel()
    order = np.argsort(flat, kind="stable")
    group = np.empty(len(flat), dtype=np.int64)
    group[order] = np.minimum((np.cumsum(flat[order]) * BINS).astype(np.int64), BINS - 1)
    expected = RUNS * np.bincount(group, weights=flat, minlength=BINS)
    assert expected.min() >= 5.0
    outcomes = sample_chain_leftfold(spec, STATE, RUNS)
    cells = np.ravel_multi_index(tuple(outcomes.T), table.shape)
    observed = np.bincount(group[cells], minlength=BINS)
    statistic = ((observed - expected) ** 2 / expected).sum()
    assert stats.chi2.sf(statistic, BINS - 1) > 1e-3
