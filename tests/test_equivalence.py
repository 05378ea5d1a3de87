import tracemalloc

import numpy as np
import pytest

from collapsekit import (
    AlgebraicState,
    build_commutative_model,
    collapse_effect_pair,
    collapse_effect_tree,
    joint_distribution,
    left_fold_tree,
    qnd_check,
    verify_equivalence,
)
from collapsekit import equivalence
from collapsekit.collapse_product import JointDistribution, TableTooLargeError
from collapsekit.config import DEFAULT
from collapsekit.equivalence import EquivalenceReport, primed_observable
from collapsekit.measurement import observable
from collapsekit.operator_core import commutator_norm

from conftest import (
    PAULI_X,
    PAULI_Z,
    degenerate_observable,
    random_density,
    random_hermitian,
    random_unitary,
)

Z = observable("Z", PAULI_Z)
X = observable("X", PAULI_X)
KET0 = AlgebraicState.pure([1.0, 0.0])


def reference_verify_equivalence(model, dist, n_polynomials=100, max_degree=3, seed=0):
    """`verify_equivalence` as a loop over polynomials and their terms."""
    deviation = float(np.abs(model.joint_probability() - dist.probabilities).max())
    rng = np.random.default_rng(seed)
    values = np.stack(model.primed_values)
    probs = model.state_diagonal
    worst = np.inf
    n_axes = values.shape[0]
    for _ in range(n_polynomials):
        n_terms = int(rng.integers(1, 5))
        lam_tuple = np.zeros(values.shape[1], dtype=np.complex128)
        for _ in range(n_terms):
            coeff = rng.normal() + 1j * rng.normal()
            degrees = rng.integers(0, max_degree + 1, size=n_axes)
            mono = np.ones(values.shape[1])
            for k in range(n_axes):
                mono = mono * values[k] ** degrees[k]
            lam_tuple += coeff * mono
        worst = min(worst, float(np.sum(np.abs(lam_tuple) ** 2 * probs)))
    return EquivalenceReport(deviation, worst, n_polynomials)


def left_fold_distribution(rng, dim, values, n):
    obs = [degenerate_observable(rng, dim, f"A{k}", values) for k in range(n)]
    return joint_distribution(collapse_effect_tree(obs, left_fold_tree(n)),
                              random_density(rng, dim))


class TestBuildCommutativeModel:
    def test_dimension_is_tuple_count(self):
        dist = joint_distribution(collapse_effect_pair(Z, X), KET0)
        model = build_commutative_model(dist)
        assert model.dim == 4
        assert len(model.primed_values) == 2

    def test_primed_observables_commute(self):
        dist = joint_distribution(collapse_effect_pair(Z, X), KET0)
        model = build_commutative_model(dist)
        a = model.primed_matrix(0)
        b = model.primed_matrix(1)
        assert commutator_norm(a, b) == 0.0

    def test_state_diagonal_is_distribution(self):
        dist = joint_distribution(collapse_effect_pair(Z, X), KET0)
        model = build_commutative_model(dist)
        assert np.abs(model.joint_probability() - dist.probabilities).max() == 0.0
        model.state()  # validates trace-1 and positivity

    def test_repeated_coordinate_values_get_separate_slots(self):
        # Same observable twice: coordinate values coincide across axes but
        # each outcome tuple still gets its own diagonal slot.
        dist = joint_distribution(collapse_effect_pair(Z, Z), KET0)
        model = build_commutative_model(dist)
        assert model.dim == 4
        assert np.allclose(model.primed_values[0], [-1, -1, 1, 1])
        assert np.allclose(model.primed_values[1], [-1, 1, -1, 1])


class TestVerifyEquivalence:
    def test_exact_round_trip(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            n = int(rng.integers(2, 4))
            obs = [observable(f"A{k}", random_hermitian(rng, dim))
                   for k in range(n)]
            rho = random_density(rng, dim)
            dist = joint_distribution(
                collapse_effect_tree(obs, left_fold_tree(n)), rho
            )
            model = build_commutative_model(dist)
            report = verify_equivalence(model, dist)
            assert report.max_deviation == 0.0
            assert report.min_polynomial_positivity >= -1e-10
            assert report.ok

    def test_perturbed_distribution_detected(self):
        dist = joint_distribution(collapse_effect_pair(Z, X), KET0)
        model = build_commutative_model(dist)
        bumped = dist.probabilities.copy()
        bumped[1, 0] += 1e-6
        bumped[1, 1] -= 1e-6
        perturbed = JointDistribution(dist.axes, bumped)
        report = verify_equivalence(model, perturbed)
        assert report.max_deviation == pytest.approx(1e-6, rel=1e-3)
        assert not report.ok

    def test_shape_mismatch_rejected(self):
        dist = joint_distribution(collapse_effect_pair(Z, X), KET0)
        model = build_commutative_model(dist)
        three = observable("A", np.diag([1.0, 2.0, 3.0]))
        other = joint_distribution(
            collapse_effect_pair(three, three), AlgebraicState.maximally_mixed(3)
        )
        with pytest.raises(ValueError):
            verify_equivalence(model, other)


    @pytest.mark.parametrize("term_cells", [equivalence._TERM_CELLS, 1])
    def test_equal_to_the_loop(self, rng, monkeypatch, term_cells):
        # term_cells = 1 takes one polynomial per block.
        monkeypatch.setattr(equivalence, "_TERM_CELLS", term_cells)
        dists = [left_fold_distribution(rng, 8, np.repeat(np.arange(2.0), 4), 7),
                 left_fold_distribution(rng, 6, np.repeat([-1.5, 0.25], 3), 6),
                 JointDistribution([np.arange(2.0), np.arange(3.0), np.arange(4.0)],
                                   rng.dirichlet(np.ones(24)).reshape(2, 3, 4)),
                 JointDistribution([rng.normal(size=5)], rng.dirichlet(np.ones(5)))]
        for dist in dists:
            model = build_commutative_model(dist)
            for kwargs in ({}, {"n_polynomials": 9, "max_degree": 5, "seed": 4},
                           {"n_polynomials": 0}):
                report = verify_equivalence(model, dist, **kwargs)
                expected = reference_verify_equivalence(model, dist, **kwargs)
                assert report.max_deviation == expected.max_deviation
                assert report.min_polynomial_positivity == expected.min_polynomial_positivity
                assert report.n_polynomials == expected.n_polynomials


class TestDenseGuards:
    def test_4096_tuples_refused_before_allocating(self):
        # A dense 4096 x 4096 complex matrix takes 256 MiB.
        dist = JointDistribution([np.arange(2.0)] * 12, np.full((2,) * 12, 2.0**-12))
        model = build_commutative_model(dist)
        for call in (lambda: model.primed_matrix(0), model.state,
                     lambda: primed_observable(model, 0)):
            tracemalloc.start()
            try:
                with pytest.raises(TableTooLargeError):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**24


class TestQndCheck:
    def test_commuting_family(self):
        obs = [observable("A", np.diag([1.0, 2.0])),
               observable("B", np.diag([3.0, 5.0]))]
        assert qnd_check(obs)

    def test_noncommuting_family(self):
        assert not qnd_check([Z, X])

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e4, 1e6])
    def test_one_basis_commutes_at_any_scale(self, rng, scale):
        u = random_unitary(rng, 4)
        obs = [observable(f"A{k}", scale * (u * np.array(v, dtype=float)) @ u.conj().T)
               for k, v in enumerate(((0, 1, 2, 3), (3, 1, 0, 2), (1, 1, 0, 0)))]
        assert qnd_check(obs)
        assert not qnd_check(obs + [observable("B", scale * random_hermitian(rng, 4))])

    def test_verdicts_of_the_pairwise_loop(self, rng):
        # 200 families of 1-5 members, as observables or raw matrices, on
        # one basis, or with one member off it, against a loop over pairs
        # with the scale-relative bound.
        def reference(members):
            mats = [m.matrix() if hasattr(m, "matrix") else m for m in members]
            return all(commutator_norm(mats[i], mats[j])
                       <= DEFAULT.num * max(1.0, np.abs(mats[i]).max() * np.abs(mats[j]).max())
                       for i in range(len(mats)) for j in range(i + 1, len(mats)))

        verdicts = []
        for _ in range(200):
            dim, size = int(rng.integers(2, 6)), int(rng.integers(1, 6))
            u = random_unitary(rng, dim)
            mats = [(u * rng.integers(0, 3, size=dim)) @ u.conj().T for _ in range(size)]
            if rng.random() < 0.5:
                mats[rng.integers(size)] = random_hermitian(rng, dim)
            members = [observable("M", m) if rng.random() < 0.5 else m for m in mats]
            verdicts.append(qnd_check(members))
            assert verdicts[-1] == reference(members)
        assert 50 < sum(verdicts) < 150

    def test_primed_family_always_passes(self):
        dist = joint_distribution(collapse_effect_pair(Z, X), KET0)
        model = build_commutative_model(dist)
        primed = [primed_observable(model, k) for k in range(2)]
        assert qnd_check(primed)


class TestPrimedObservable:
    def test_sample_space_preserved(self):
        dist = joint_distribution(collapse_effect_pair(Z, X), KET0)
        model = build_commutative_model(dist)
        a = primed_observable(model, 0)
        assert np.allclose(a.sample_space, [-1.0, 1.0])
        # Two tuples share each coordinate value: rank-2 projectors.
        for p in a.projectors:
            assert np.trace(p).real == pytest.approx(2.0)

    def test_values_closer_than_any_gap_keep_their_slots(self):
        # Slots are exact copies of the axis values, so 0 and 1e-13 are two
        # outcomes of rank 2 each, whose projectors sum to I.
        dist = JointDistribution([np.array([0.0, 1e-13]), np.array([0.0, 1.0])],
                                 np.full((2, 2), 0.25))
        a = primed_observable(build_commutative_model(dist), 0)
        a.decomposition.check()
        assert a.decomposition.ranks.tolist() == [2, 2]
        assert a.sample_space.tolist() == [0.0, 1e-13]

    def test_expectation_matches_marginal(self, rng):
        a = observable("A", random_hermitian(rng, 3))
        b = observable("B", random_hermitian(rng, 3))
        rho = random_density(rng, 3)
        dist = joint_distribution(collapse_effect_pair(a, b), rho)
        model = build_commutative_model(dist)
        state = model.state()
        for k in (0, 1):
            primed = primed_observable(model, k)
            expect = state.expect(primed.matrix()).real
            marginal = dist.marginal([k])
            oracle = float(np.sum(marginal.axes[0] * marginal.probabilities))
            assert expect == pytest.approx(oracle, abs=1e-10)
