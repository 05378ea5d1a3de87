import warnings

import numpy as np
import pytest
from scipy import stats

from collapsekit import (
    AlgebraicState,
    ChainSpec,
    Tolerances,
    compare_conventions,
    empirical_distribution,
    exact_chain_distribution,
    records,
    sample_chain_leftfold,
    sample_chain_tree,
    total_variation,
)
from collapsekit.measurement import ZeroProbabilityOutcomeError, observable

from conftest import (
    PAULI_X,
    PAULI_Z,
    assert_same_draws,
    degenerate_observable,
    direction_observable,
    philox_uniforms,
    random_density,
    random_unitary,
    reference_leftfold,
)

Z = observable("Z", PAULI_Z)
X = observable("X", PAULI_X)
KET0 = AlgebraicState.pure([1.0, 0.0])
MIXED = AlgebraicState.maximally_mixed(2)


class TestChainSpec:
    def test_cycling(self):
        spec = ChainSpec([Z, X], length=5)
        names = [o.name for o in spec.sequence()]
        assert names == ["Z", "X", "Z", "X", "Z"]

    def test_tree_from_convention(self):
        assert str(ChainSpec([Z], 3, "left_fold").tree()) == "((0 >o 1) >o 2)"
        assert str(ChainSpec([Z], 3, "right_fold").tree()) == "(0 >o (1 >o 2))"
        assert str(ChainSpec([Z], 3, "reverse_fold").tree()) == "((0 o< 1) o< 2)"

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ChainSpec([Z], 0)
        with pytest.raises(ValueError):
            ChainSpec([], 3)
        with pytest.raises(ValueError):
            ChainSpec([Z], 3, "middle_out")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ChainSpec([Z], 3, seed=seed)
        ChainSpec([Z], 3, seed=2**64 - 1)


class TestDeterminism:
    def test_leftfold_byte_identical(self):
        spec = ChainSpec([Z, X], length=6, seed=42)
        a = sample_chain_leftfold(spec, MIXED, runs=500)
        b = sample_chain_leftfold(spec, MIXED, runs=500)
        assert np.array_equal(a, b)

    def test_seed_changes_output(self):
        a = sample_chain_leftfold(ChainSpec([Z, X], 6, seed=1), MIXED, 500)
        b = sample_chain_leftfold(ChainSpec([Z, X], 6, seed=2), MIXED, 500)
        assert not np.array_equal(a, b)

    def test_run_prefix_stability(self):
        # Run r's outcomes do not depend on how many runs are requested.
        spec = ChainSpec([Z, X], length=4, seed=7)
        small = sample_chain_leftfold(spec, MIXED, runs=100)
        large = sample_chain_leftfold(spec, MIXED, runs=1000)
        assert np.array_equal(small, large[:100])

    def test_tree_sampler_deterministic(self):
        spec = ChainSpec([Z, X], length=3, seed=11)
        a = sample_chain_tree(spec, MIXED, runs=500)
        b = sample_chain_tree(spec, MIXED, runs=500)
        assert np.array_equal(a, b)


class TestStatistics:
    def test_single_measurement_binomial(self):
        # X on |0>: each outcome is a fair coin; 3-sigma band on the count.
        runs = 20_000
        spec = ChainSpec([X], length=1, seed=3)
        outcomes = sample_chain_leftfold(spec, KET0, runs)
        count = int(outcomes.sum())
        sigma = np.sqrt(runs * 0.25)
        assert abs(count - runs / 2) < 3 * sigma

    def test_repeatability_same_observable(self):
        # Consecutive identical measurements repeat their outcome.
        spec = ChainSpec([Z], length=5, seed=9)
        outcomes = sample_chain_leftfold(spec, MIXED, runs=2000)
        assert np.all(outcomes == outcomes[:, :1])

    def test_leftfold_matches_exact(self):
        runs = 50_000
        spec = ChainSpec([Z, X, Z], length=3, seed=17)
        outcomes = sample_chain_leftfold(spec, KET0, runs)
        emp = empirical_distribution(outcomes, spec)
        exact = exact_chain_distribution(spec, KET0)
        assert total_variation(exact, emp) < 0.01

    def test_mechanism_equivalence_chi_square(self):
        # Step sampling and table sampling target the same distribution.
        runs = 50_000
        spec = ChainSpec([Z, X], length=3, seed=23)
        exact = exact_chain_distribution(spec, KET0)
        for sampler in (sample_chain_leftfold, sample_chain_tree):
            outcomes = sampler(spec, KET0, runs)
            emp = empirical_distribution(outcomes, spec)
            expected = exact.probabilities.ravel() * runs
            observed = emp.probabilities.ravel() * runs
            mask = expected > 1e-9
            chi2 = float(((observed[mask] - expected[mask]) ** 2
                          / expected[mask]).sum())
            dof = int(mask.sum()) - 1
            assert chi2 < stats.chi2.ppf(0.999, dof)

    def test_left_vs_right_fold_diverge(self):
        left = ChainSpec([Z, X, Z], 3, "left_fold")
        right = ChainSpec([Z, X, Z], 3, "right_fold")
        cmp = compare_conventions([left, right], KET0, runs=20_000)
        key = ("left_fold", "right_fold")
        assert cmp.exact_tv[key] > 0.1
        assert cmp.empirical_tv[key] > 0.05
        for v in cmp.exact_vs_empirical_tv.values():
            assert v < 0.02

    def test_commuting_reverse_fold_identical(self):
        a = observable("A", np.diag([1.0, 2.0]))
        b = observable("B", np.diag([3.0, 5.0]))
        rho = AlgebraicState(np.diag([0.3, 0.7]))
        fwd = exact_chain_distribution(ChainSpec([a, b, a], 3, "left_fold"), rho)
        rev = exact_chain_distribution(ChainSpec([a, b, a], 3, "reverse_fold"), rho)
        assert total_variation(fwd, rev) <= 1e-12


class TestRecords:
    def test_line_format(self):
        outcomes = np.array([[0, 1, 1], [1, 0, 0]])
        lines = [r.line() for r in records(outcomes)]
        assert lines == ["0\t0,1,1", "1\t1,0,0"]


class TestGuards:
    def test_leftfold_requires_leftfold_convention(self):
        with pytest.raises(ValueError):
            sample_chain_leftfold(ChainSpec([Z], 2, "right_fold"), MIXED, 10)

    def test_tree_length_limit(self):
        # 2**22 tuples of 2 x 2 complex entries: 256 MiB, past MAX_TABLE_BYTES.
        with pytest.raises(ValueError):
            exact_chain_distribution(ChainSpec([Z], 22), MIXED)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sample_chain_leftfold(
                ChainSpec([Z], 2), AlgebraicState.maximally_mixed(3), 10
            )


def near_unbiased_basis(rng, dim, spread):
    """Fourier basis with random phases, rotated by exp(i*spread*H)."""
    k = np.arange(dim)
    fourier = np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
    phases = np.exp(2j * np.pi * rng.random(dim))
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    rotation = (vecs * np.exp(1j * spread * vals / np.abs(vals).max())) @ vecs.conj().T
    return (phases[:, None] * fourier) @ rotation


def check_against_reference(spec, rho, runs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outcomes = sample_chain_leftfold(spec, rho, runs)
    stacks = [np.stack(obs.projectors) for obs in spec.sequence()]
    reference, margin = reference_leftfold(
        stacks, rho.density, philox_uniforms(spec.seed, runs, spec.length))
    assert_same_draws(outcomes, reference, margin)


class TestLongChains:
    # Carried without rescaling, the accumulated root of these chains falls
    # below the PSD clamp and runs end on forced outcomes.

    def test_d8_n20_near_unbiased(self):
        rng = np.random.default_rng(20210125)
        base = random_unitary(rng, 8)
        labels = np.diag(np.arange(8.0))
        bases = [base] + [base @ near_unbiased_basis(rng, 8, 0.1) for _ in range(2)]
        observables = [observable(f"U{i}", u @ labels @ u.conj().T)
                       for i, u in enumerate(bases)]
        check_against_reference(ChainSpec(observables, 20, seed=424242),
                                random_density(rng, 8), runs=300)

    def test_d2_n40_rare_outcome(self):
        rng = np.random.default_rng(171717)
        theta = 2.0 * np.arccos(np.sqrt(0.8))
        z = observable("Z", np.diag([0.0, 1.0]))
        b = direction_observable("B", theta)
        check_against_reference(ChainSpec([z, b, b], 40, seed=171717),
                                random_density(rng, 2), runs=2000)

    def test_step_matches_table_d2_n10(self):
        runs = 100_000
        observables = [direction_observable(f"T{i}", t)
                       for i, t in enumerate((0.0, 0.7, 1.9))]
        spec = ChainSpec(observables, 10, seed=31)
        rho = random_density(np.random.default_rng(31), 2)
        expected = exact_chain_distribution(spec, rho).probabilities.ravel() * runs
        emp = empirical_distribution(sample_chain_leftfold(spec, rho, runs), spec)
        observed = emp.probabilities.ravel() * runs
        # Cells expecting fewer than 5 draws are pooled into one.
        rare = expected < 5.0
        obs_cells, exp_cells = observed[~rare], expected[~rare]
        if rare.any():
            obs_cells = np.append(obs_cells, observed[rare].sum())
            exp_cells = np.append(exp_cells, expected[rare].sum())
        chi2 = float(((obs_cells - exp_cells) ** 2 / exp_cells).sum())
        assert stats.chi2.sf(chi2, len(exp_cells) - 1) > 1e-3

    def test_vanished_mass_raises(self):
        # A rank-2 outcome leaves a unit-trace effect with eigenvalues 1/2,
        # all inside a PSD slack of 0.6: the clamped root carries no mass.
        a = observable("A", np.diag([1.0, 1.0, 2.0]))
        spec = ChainSpec([a], 2, seed=5)
        rho = AlgebraicState.maximally_mixed(3)
        outcomes = sample_chain_leftfold(spec, rho, 100)
        assert np.all(outcomes == outcomes[:, :1])
        with pytest.raises(ZeroProbabilityOutcomeError):
            sample_chain_leftfold(spec, rho, 100, Tolerances(psd=0.6))


def pair_table(first_obs, later_obs, rho):
    """p(i_1, i_k) of the left fold for a non-degenerate first observable:
    Tr[rho P_i1] <v_i1|P_kj|v_i1>, with v_i1 spanning the range of P_i1."""
    table = np.empty((first_obs.n_outcomes, later_obs.n_outcomes))
    for i, p in enumerate(first_obs.projectors):
        v = np.linalg.eigh(p)[1][:, -1]
        first = np.trace(rho.density @ p).real
        table[i] = [first * (v.conj() @ q @ v).real for q in later_obs.projectors]
    return table


class TestFirstOutcomeRange:
    # Every root lives on the range of the first outcome's projector; a
    # rank-one outcome fixes the root for the rest of the chain.

    def test_mixed_rank_first_d6(self):
        rng = np.random.default_rng(123456)
        first = degenerate_observable(rng, 6, "F", [0, 1, 1, 2, 2, 2])
        later = [degenerate_observable(rng, 6, "L0", [0, 1, 2, 2, 3, 3]),
                 degenerate_observable(rng, 6, "L1", [0, 0, 0, 1, 1, 1]),
                 degenerate_observable(rng, 6, "L2", np.arange(6))]
        check_against_reference(ChainSpec([first] + later, 14, seed=654321),
                                random_density(rng, 6), runs=2000)

    def test_degenerate_first_d8_n32(self):
        rng = np.random.default_rng(8032)
        base = random_unitary(rng, 8)
        spectra = [np.repeat(np.arange(4.0), 2), np.repeat(np.arange(2.0), 4),
                   np.repeat(np.arange(4.0), 2)]
        bases = [base] + [base @ near_unbiased_basis(rng, 8, 0.1) for _ in range(2)]
        observables = [observable(f"D{i}", (u * s) @ u.conj().T)
                       for i, (u, s) in enumerate(zip(bases, spectra))]
        check_against_reference(ChainSpec(observables, 32, seed=8032),
                                random_density(rng, 8), runs=300)

    def test_vanished_mass_rank_one_first(self):
        # A rank-one first outcome leaves the unit-trace effect [1] on its
        # range; a PSD slack above 1 clamps its root to zero, so the prefix
        # carries no mass.
        spec = ChainSpec([Z, X], 3, seed=5)
        sample_chain_leftfold(spec, MIXED, 100, Tolerances(psd=0.9))
        with pytest.raises(ZeroProbabilityOutcomeError):
            sample_chain_leftfold(spec, MIXED, 100, Tolerances(psd=1.5))

    def test_pair_frequencies_past_table_limit(self):
        # n = 60 is far beyond the exact table, but for a non-degenerate
        # first observable each (i_1, i_k) pair has a closed form.
        runs = 20_000
        rng = np.random.default_rng(60)
        first = degenerate_observable(rng, 3, "F", [0, 1, 2])
        later = [degenerate_observable(rng, 3, "L0", [0, 1, 1]),
                 degenerate_observable(rng, 3, "L1", [0, 1, 2])]
        spec = ChainSpec([first] + later, 60, seed=60)
        rho = random_density(rng, 3)
        outcomes = sample_chain_leftfold(spec, rho, runs)
        sequence = spec.sequence()
        for k in (1, 32, 58):
            expected = pair_table(first, sequence[k], rho).ravel() * runs
            pairs = outcomes[:, 0] * sequence[k].n_outcomes + outcomes[:, k]
            observed = np.bincount(pairs, minlength=len(expected))
            chi2 = float(((observed - expected) ** 2 / expected).sum())
            assert stats.chi2.sf(chi2, len(expected) - 1) > 1e-3
