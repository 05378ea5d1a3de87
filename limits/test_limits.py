"""The paper's invariants at the size guard's limit.

Builds the largest left-fold, right-fold and reverse-fold effect tables that
`MAX_TABLE_BYTES` admits, once each, and checks that every entry is PSD and
the entries sum to the identity, that the probabilities sum to 1, and that
the left fold's exact law and its step sampler agree with its table.  A
chain of d = 4 observables with two rank-2 outcomes each, whose roots
branch at every step, checks the left fold's exact law against its table
at the guard's limit too.  It also samples a million-step chain at the
most runs the step sampler's arrays admit and checks its outcome pairs
against their closed form, and draws from the largest admitted left-fold
law with every tuple drawable.  Each table takes a second or two and a
few hundred MB, so this module sits outside the Tier-1 `testpaths`:

    PYTHONPATH=src python -m pytest -q limits
"""

import tracemalloc

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
from collapsekit.chain import sample_distribution
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


@pytest.fixture(scope="module", params=["left_fold", "right_fold", "reverse_fold"])
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


# Two-outcome d = 4 observables whose outcomes have rank two: 256 B per
# outcome tuple, so the largest admitted chain has 19 steps at 128 MiB.
# The observables are distinct, so after any outcome prefix the root has
# rank two and every tuple has mass: no prefix stops branching, and the
# prefix recursion builds a root for every prefix.
BRANCHING_STEPS = (MAX_TABLE_BYTES // 256).bit_length() - 1


def rank_two_halves(rng, name):
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    return observable(name, (u * np.array([0.0, 0.0, 1.0, 1.0])) @ u.conj().T)


def test_branching_law_is_the_table_law():
    rng = np.random.default_rng(19)
    family = [rank_two_halves(rng, f"H{k}") for k in range(BRANCHING_STEPS)]
    assert all(o.decomposition.ranks.tolist() == [2, 2] for o in family)
    spec = ChainSpec(family, BRANCHING_STEPS, "left_fold")
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = AlgebraicState(m @ m.conj().T / np.trace(m @ m.conj().T).real)
    exact = exact_chain_distribution(spec, rho)
    table = collapse_effect_tree(spec.sequence(), spec.tree())
    assert table.effects.nbytes <= MAX_TABLE_BYTES < 2 * table.effects.nbytes
    expected = joint_distribution(table, rho)
    del table
    assert (exact.probabilities > 0.0).all()
    assert np.abs(exact.probabilities - expected.probabilities).max() <= 1e-12


# The step sampler's uniforms and outcomes take 16 B per run and step: a
# million steps admit 8 runs at 128 MiB.
MILLION = 10**6
MOST_RUNS = MAX_TABLE_BYTES // (16 * MILLION)


def test_million_step_chain_at_the_most_runs():
    """The first observable is non-degenerate, so given i_1 every later
    outcome i_k is drawn from <v_i1|P_ik|v_i1> alone (the commuting, QND
    picture).  The (i_1, i_k) counts of each cycle position, pooled over its
    steps, are tested row by row against those conditionals."""
    spec = chain(MILLION, "left_fold")
    with pytest.raises(TableTooLargeError):
        sample_chain_leftfold(spec, STATE, MOST_RUNS + 1)
    outcomes = sample_chain_leftfold(spec, STATE, MOST_RUNS)
    assert outcomes.shape == (MOST_RUNS, MILLION)
    first, c = spec.observables[0], len(spec.observables)
    # The first observable measured again repeats its outcome.
    assert (outcomes[:, ::c] == outcomes[:, :1]).all()
    vectors = [np.linalg.eigh(p)[1][:, -1] for p in first.projectors]
    for j in range(1, c):
        later = spec.observables[j]
        conditional = np.array([[(v.conj() @ q @ v).real for q in later.projectors]
                                for v in vectors])
        steps = outcomes[:, j::c]
        observed = np.zeros(conditional.shape)
        for i, row in zip(outcomes[:, 0], steps):
            observed[i] += np.bincount(row, minlength=later.n_outcomes)
        rows = observed.sum(axis=1) > 0
        expected = observed.sum(axis=1, keepdims=True) * conditional
        statistic = ((observed - expected)[rows] ** 2 / expected[rows]).sum()
        dof = int(rows.sum()) * (later.n_outcomes - 1)
        assert stats.chi2.sf(statistic, dof) > 1e-3


def every_tuple_drawable():
    """The largest admitted left fold, of STEPS distinct spin observables
    whose angles lie 1.2-1.9 rad from the first one's.  After the first,
    non-degenerate outcome every later outcome has a conditional
    probability of at least (1 - cos 1.2) / 2 > 0.3, so every one of the
    2**STEPS tuples has a probability that moves the CDF."""
    family = [observable(f"S{k}", spin(0.0 if k == 0 else 1.2 + 0.035 * k))
              for k in range(STEPS)]
    return exact_chain_distribution(ChainSpec(family, STEPS, "left_fold", seed=7), STATE)


@pytest.mark.parametrize("runs", [1, RUNS])
def test_table_sampler_on_the_largest_law(runs):
    """Every tuple of the law is drawable; the draws are those of one flat
    binary search, the call's tracemalloc peak stays within the size guard,
    and the guard refuses one run past it before anything is drawn."""
    dist = every_tuple_drawable()
    cum = np.cumsum(dist.probabilities.ravel())
    cum[-1] = 1.0
    assert (np.diff(cum, prepend=0.0) > 0).all()
    with pytest.raises(TableTooLargeError):
        sample_distribution(dist, 11, MAX_TABLE_BYTES // 16 + 1)
    tracemalloc.start()
    try:
        drawn = sample_distribution(dist, 11, runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= MAX_TABLE_BYTES
    u = np.random.Generator(np.random.Philox(key=np.uint64(11))).random((runs, 1))[:, 0]
    expected = np.stack(np.unravel_index(np.searchsorted(cum, u, "right"), dist.shape), 1)
    np.testing.assert_array_equal(drawn, expected)
