import tracemalloc

import numpy as np
import pytest

from collapsekit import (
    AlgebraicState,
    InstrumentModel,
    VectorState,
    build_instrument,
    build_joint_instrument,
    collapse_effect_pair,
    interference_comparison,
    joint_distribution,
    joint_instrument_probabilities,
    luders_duality_check,
    sequential_probabilities,
)
from collapsekit.collapse_product import JointDistribution, TableTooLargeError
from collapsekit.measurement import observable
from collapsekit.operator_core import DimensionMismatchError, commutator_norm

from conftest import (
    PAULI_X,
    PAULI_Z,
    random_density,
    random_hermitian,
    random_unit_vector,
    random_unitary,
    reference_joint_unitary,
)

Z = observable("Z", PAULI_Z)
X = observable("X", PAULI_X)
KET0 = VectorState([1.0, 0.0])


class TestBuildInstrument:
    def test_unitary(self):
        inst = build_instrument(Z, 3)
        u = inst.unitary
        assert np.abs(u.conj().T @ u - np.eye(6)).max() < 1e-12

    def test_defining_slice(self):
        inst = build_instrument(Z, 3)
        # |0> is the Z=+1 eigenvector -> pointer index 2 (outcome 1).
        initial = np.kron(KET0.amplitudes, inst.pointer_state(None))
        final = (inst.unitary @ initial).reshape(2, 3)
        assert abs(final[0, 2]) == pytest.approx(1.0)

    def test_degenerate_shares_pointer(self):
        a = observable("A", np.diag([1.0, 1.0, 2.0]))
        inst = build_instrument(a, 3)
        assert inst.n_outcomes == 2
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        initial = np.kron(v, inst.pointer_state(None))
        final = (inst.unitary @ initial).reshape(3, 3)
        # Degenerate eigenspace is untouched; only the pointer moves.
        assert np.sum(np.abs(final[:, 1]) ** 2) == pytest.approx(1.0)

    def test_ancilla_too_small(self):
        with pytest.raises(ValueError):
            build_instrument(Z, 2)


class TestSequentialProbabilities:
    def test_matches_collapse_pair_fixed(self):
        model = InstrumentModel(build_instrument(Z, 3), build_instrument(X, 3))
        dist = sequential_probabilities(model, KET0)
        oracle = joint_distribution(
            collapse_effect_pair(Z, X), AlgebraicState.pure([1.0, 0.0])
        )
        assert np.abs(dist.probabilities - oracle.probabilities).max() < 1e-12

    def test_matches_collapse_pair_random(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            a = observable("A", random_hermitian(rng, dim))
            b = observable("B", random_hermitian(rng, dim))
            psi = random_unit_vector(rng, dim)
            model = InstrumentModel(
                build_instrument(a, a.n_outcomes + 1),
                build_instrument(b, b.n_outcomes + 1),
            )
            dist = sequential_probabilities(model, VectorState(psi))
            oracle = joint_distribution(
                collapse_effect_pair(a, b), AlgebraicState.pure(psi)
            )
            assert np.abs(dist.probabilities - oracle.probabilities).max() <= 1e-9

    def test_dimension_mismatch(self):
        model = InstrumentModel(build_instrument(Z, 3), build_instrument(X, 3))
        with pytest.raises(DimensionMismatchError):
            sequential_probabilities(model, VectorState([1.0, 0.0, 0.0]))


class TestInterferenceComparison:
    def test_noncommuting_shows_interference(self):
        # Measure X first, then Z, on |0>: the intermediate measurement
        # scrambles the Z statistics (1/2, 1/2 vs 1, 0).
        model = InstrumentModel(build_instrument(X, 3), build_instrument(Z, 3))
        rows = interference_comparison(model, KET0)
        table = {u: (pm, pu) for u, pm, pu in rows}
        assert table[1.0][0] == pytest.approx(0.5)
        assert table[1.0][1] == pytest.approx(1.0)
        assert table[-1.0][0] == pytest.approx(0.5)
        assert table[-1.0][1] == pytest.approx(0.0)

    def test_commuting_no_interference(self, rng):
        a = observable("A", np.diag([1.0, 2.0, 3.0]))
        b = observable("B", np.diag([0.0, 0.0, 1.0]))
        assert commutator_norm(a.matrix(), b.matrix()) == 0.0
        model = InstrumentModel(build_instrument(a, 4), build_instrument(b, 3))
        psi = VectorState(random_unit_vector(rng, 3))
        for _, measured, unmeasured in interference_comparison(model, psi):
            assert measured == pytest.approx(unmeasured, abs=1e-10)


class TestLudersDuality:
    def test_random_instances(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            a = observable("A", random_hermitian(rng, dim))
            b = observable("B", random_hermitian(rng, dim))
            psi = VectorState(random_unit_vector(rng, dim))
            report = luders_duality_check(a, b, psi)
            assert report.max_deviation <= 1e-12

    def test_matches_measured_column(self):
        model = InstrumentModel(build_instrument(X, 3), build_instrument(Z, 3))
        rows = interference_comparison(model, KET0)
        report = luders_duality_check(X, Z, KET0)
        for (u, measured, _), lhs in zip(rows, report.transformed_measurement):
            assert measured == pytest.approx(lhs, abs=1e-12)


class TestJointInstrument:
    def test_reproduces_target(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            a = observable("A", random_hermitian(rng, dim))
            b = observable("B", random_hermitian(rng, dim))
            rho = random_density(rng, dim)
            target = joint_distribution(collapse_effect_pair(a, b), rho)
            model = build_joint_instrument(target)
            out = joint_instrument_probabilities(model)
            assert np.abs(out.probabilities - target.probabilities).max() <= 1e-12

    def test_unitary_and_commuting_primed(self):
        target = joint_distribution(
            collapse_effect_pair(Z, X), AlgebraicState.pure([1.0, 0.0])
        )
        model = build_joint_instrument(target)
        u = model.unitary
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-10
        assert commutator_norm(
            np.diag(model.primed_first), np.diag(model.primed_second)
        ) == 0.0

    def test_psi_amplitudes_are_roots(self):
        target = joint_distribution(
            collapse_effect_pair(Z, X), AlgebraicState.pure([1.0, 0.0])
        )
        model = build_joint_instrument(target)
        assert np.abs(
            np.abs(model.psi) ** 2 - target.probabilities.ravel()
        ).max() < 1e-15
        assert np.all(model.psi.imag == 0.0)

    def test_dense_unitaries_past_the_size_guard_refused_before_allocation(self):
        # A 10 x 10 target needs a (100 * 11 * 11)^2 complex U_AB, 2.3 GB;
        # a qubit pointer of 10**4 levels a (2 * 10**4)^2 complex U.
        target = JointDistribution([np.arange(10.0)] * 2, np.full((10, 10), 0.01))
        for call in (lambda: build_joint_instrument(target),
                     lambda: build_instrument(Z, 10**4)):
            tracemalloc.start()
            try:
                with pytest.raises(TableTooLargeError):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**24

    def test_benchmarked_sizes_admitted(self, rng):
        # The largest dense unitaries the benchmarks build: 900^2 and 110^2.
        target = JointDistribution([np.arange(5.0)] * 2,
                                   rng.dirichlet(np.ones(25)).reshape(5, 5))
        assert build_joint_instrument(target).unitary.shape == (900, 900)
        a = observable("A", random_hermitian(rng, 10))
        assert build_instrument(a, a.n_outcomes + 1).unitary.shape == (110, 110)

    def test_rejects_non_pair(self):
        three = observable("A", np.diag([1.0, 2.0, 3.0]))
        from collapsekit import collapse_effect_tree, left_fold_tree

        table = collapse_effect_tree([three, three, three], left_fold_tree(3))
        dist = joint_distribution(table, AlgebraicState.maximally_mixed(3))
        with pytest.raises(ValueError):
            build_joint_instrument(dist)


def degenerate_observable(rng, dim, name):
    """Random eigenbasis with eigenvalue labels 0, 0, 1, 1, ...: outcomes of
    rank two (the last of rank one when dim is odd)."""
    u = random_unitary(rng, dim)
    return observable(name, (u * (np.arange(dim) // 2)) @ u.conj().T)


class TestTensorPath:
    @pytest.mark.parametrize("dim", range(2, 11))
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_matches_collapse_pair(self, rng, dim, degenerate):
        for _ in range(3):
            if degenerate:
                a = degenerate_observable(rng, dim, "A")
                b = degenerate_observable(rng, dim, "B")
            else:
                a = observable("A", random_hermitian(rng, dim))
                b = observable("B", random_hermitian(rng, dim))
            assert (a.n_outcomes < dim) == degenerate
            psi = random_unit_vector(rng, dim)
            model = InstrumentModel(
                build_instrument(a, a.n_outcomes + 1),
                build_instrument(b, b.n_outcomes + 1),
            )
            dist = sequential_probabilities(model, VectorState(psi))
            oracle = joint_distribution(
                collapse_effect_pair(a, b), AlgebraicState.pure(psi)
            )
            assert np.abs(dist.probabilities - oracle.probabilities).max() <= 1e-14

    def test_larger_ancillas(self, rng):
        for dim in (2, 3, 5):
            a = observable("A", random_hermitian(rng, dim))
            b = degenerate_observable(rng, dim, "B")
            psi = VectorState(random_unit_vector(rng, dim))
            minimal = InstrumentModel(
                build_instrument(a, a.n_outcomes + 1),
                build_instrument(b, b.n_outcomes + 1),
            )
            padded = InstrumentModel(
                build_instrument(a, a.n_outcomes + 3),
                build_instrument(b, b.n_outcomes + 2),
            )
            expected = sequential_probabilities(minimal, psi).probabilities
            got = sequential_probabilities(padded, psi).probabilities
            assert np.abs(got - expected).max() <= 1e-15

    @pytest.mark.parametrize("na", [2, 3, 4])
    @pytest.mark.parametrize("nb", [2, 3, 4])
    def test_joint_unitary_is_the_kron_sum(self, rng, na, nb):
        target = rng.dirichlet(np.ones(na * nb)).reshape(na, nb)
        dist = JointDistribution(
            [np.arange(na, dtype=float), np.arange(nb, dtype=float)], target
        )
        for da, db in ((na + 1, nb + 1), (na + 2, nb + 3)):
            model = build_joint_instrument(dist, (da, db))
            assert np.array_equal(model.unitary,
                                  reference_joint_unitary(na, nb, da, db))
            out = joint_instrument_probabilities(model)
            assert np.abs(out.probabilities - target).max() <= 1e-15
