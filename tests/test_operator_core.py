import warnings

import numpy as np
import pytest

from collapsekit import DEFAULT, AlgebraicState, Tolerances
from collapsekit.operator_core import (
    DimensionMismatchError,
    NonHermitianError,
    NotPositiveSemidefiniteError,
    batched_psd_sqrt,
    commutator_norm,
    commute,
    is_psd,
    psd_sqrt,
    require_effects,
    spectral_decompose,
)

from conftest import PAULI_X, PAULI_Z, random_hermitian, random_psd_stack, random_unitary


class TestSpectralDecompose:
    def test_degenerate_diagonal(self):
        decomp = spectral_decompose(np.diag([1.0, 1.0, 0.0]), degeneracy_gap=1e-8)
        assert np.allclose(decomp.eigenvalues, [0.0, 1.0])
        assert np.allclose(decomp.projectors[0], np.diag([0, 0, 1]))
        assert np.allclose(decomp.projectors[1], np.diag([1, 1, 0]))

    def test_pauli_x(self):
        decomp = spectral_decompose(PAULI_X)
        assert np.allclose(decomp.eigenvalues, [-1.0, 1.0])
        # Hand eigensolve of the 2x2: projectors (1 -/+ X)/2.
        assert np.allclose(decomp.projectors[0], 0.5 * np.array([[1, -1], [-1, 1]]))
        assert np.allclose(decomp.projectors[1], 0.5 * np.array([[1, 1], [1, 1]]))
        assert np.abs(decomp.reconstruct() - PAULI_X).max() < 1e-12

    def test_identity(self):
        decomp = spectral_decompose(np.eye(4))
        assert len(decomp.eigenvalues) == 1
        assert np.allclose(decomp.projectors[0], np.eye(4))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_bad_gap_rejected(self):
        with pytest.raises(ValueError):
            spectral_decompose(PAULI_Z, degeneracy_gap=0.0)

    @pytest.mark.parametrize("gap", [-1e-8, float("inf"), float("nan"), True, "x", None],
                             ids=repr)
    def test_gap_not_a_finite_positive_real_rejected(self, gap):
        with pytest.raises(ValueError, match="degeneracy_gap"):
            spectral_decompose(PAULI_Z, degeneracy_gap=gap)

    @pytest.mark.parametrize("gap", [1, 0.5, np.float64(1e-8), np.float32(1e-3)], ids=repr)
    def test_finite_positive_gap_accepted(self, gap):
        decomp = spectral_decompose(np.diag([1.0, 1.0, 2.0]), degeneracy_gap=gap)
        assert decomp.ranks.tolist() == [2, 1]

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_reconstruction_and_completeness(self, rng, dim):
        for _ in range(5):
            a = random_hermitian(rng, dim)
            decomp = spectral_decompose(a)
            assert np.abs(decomp.reconstruct() - a).max() <= 1e-9
            total = sum(decomp.projectors)
            assert np.abs(total - np.eye(dim)).max() <= 1e-10
            decomp.check()


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_projector_fixed_point(self):
        p = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
        root = psd_sqrt(p)
        assert np.abs(root - p).max() <= 1e-9
        assert np.abs(root @ root - p).max() <= 1e-9

    def test_random_projectors_fixed_points(self, rng):
        for dim in (3, 6):
            a = random_hermitian(rng, dim)
            decomp = spectral_decompose(a)
            for p in decomp.projectors:
                assert np.abs(psd_sqrt(p) - p).max() <= 1e-9

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_square_recovers_input(self, rng, dim):
        for _ in range(5):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q = m.conj().T @ m
            root = psd_sqrt(q)
            assert np.abs(root @ root - q).max() <= 1e-8

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            psd_sqrt(np.diag([-1.0, 1.0]))

    def test_scale_free(self, rng):
        # The cut is relative to each trace, so a stack scaled far below
        # tol.psd keeps its roots: sqrt(c X) = sqrt(c) sqrt(X).
        stack = random_psd_stack(rng, 12, 5)
        roots = batched_psd_sqrt(stack)
        small = batched_psd_sqrt(1e-12 * stack)
        assert np.abs(small - 1e-6 * roots).max() <= 1e-20
        assert np.abs(roots @ roots - stack).max() <= 1e-12

    def test_zero_entry_with_negative_trace(self):
        # Noise of an all-zero table entry: trace -1e-17, one eigenvalue just
        # below zero.  Its root is zero, with no root of a negative number.
        noise = np.diag([-1e-17, -1e-30]).astype(np.complex128)
        assert np.trace(noise).real < 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = batched_psd_sqrt(np.stack([noise, np.eye(2)]))
        assert np.array_equal(roots[0], np.zeros((2, 2)))
        assert np.array_equal(roots[1], np.eye(2))


class TestIsPsd:
    def test_simple(self):
        assert is_psd(np.diag([0.0, 1.0]))
        assert not is_psd(np.diag([-1.0, 1.0]))

    def test_sandwiched_projectors(self, rng):
        # P_A P_B P_A is PSD for any projectors.
        for _ in range(10):
            a = spectral_decompose(random_hermitian(rng, 4))
            b = spectral_decompose(random_hermitian(rng, 4))
            for pa in a.projectors:
                for pb in b.projectors:
                    assert is_psd(pa @ pb @ pa)


class TestPsdSlack:
    @pytest.mark.parametrize("slack, ok", [(0.5, True), (2.0, False)])
    def test_every_check_shares_one_rule(self, slack, ok):
        # An eigenvalue of -slack * tol.psd: inside the slack or outside it
        # for every check that states "PSD within tol.psd".
        low = -slack * DEFAULT.psd
        density = np.diag([low, 1.0 - low])
        effects = np.stack([np.diag([low, 0.0]), np.diag([1.0 - low, 1.0])])
        checks = (lambda: AlgebraicState(density), lambda: require_effects(effects),
                  lambda: batched_psd_sqrt(density))
        assert is_psd(density) == ok
        for check in checks:
            if ok:
                check()
            else:
                with pytest.raises(NotPositiveSemidefiniteError):
                    check()


class TestTolerances:
    @pytest.mark.parametrize("value", ["x", True, -1e-9, float("nan"), float("inf")],
                             ids=repr)
    def test_refused_where_made(self, value):
        with pytest.raises(ValueError):
            Tolerances(herm=value)
        with pytest.raises(ValueError):
            DEFAULT.with_overrides(prob=value)

    @pytest.mark.parametrize("value", [0, 0.0, 1, np.float64(1e-3), np.float32(1e-3)], ids=repr)
    def test_finite_non_negative_reals_accepted(self, value):
        assert Tolerances(psd=value).psd == value


class TestCommutatorNorm:
    def test_diagonal_commute(self):
        assert commutator_norm(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0

    def test_pauli_pair(self):
        # ZX - XZ has max entry magnitude 2.
        assert commutator_norm(PAULI_Z, PAULI_X) == pytest.approx(2.0)

    def test_identity_commutes(self, rng):
        a = random_hermitian(rng, 5)
        assert commutator_norm(a, np.eye(5)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator_norm(np.eye(2), np.eye(3))


class TestCommute:
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e4, 1e6])
    def test_one_basis_commutes_at_any_scale(self, rng, scale):
        # The rounding of A B - B A grows with max|A| max|B|; an absolute
        # bound of tol.num called these pairs non-commuting from 1e3 on.
        u = random_unitary(rng, 4)
        a, b = (scale * (u * np.array(v, dtype=float)) @ u.conj().T
                for v in ((0, 1, 2, 3), (3, 1, 0, 2)))
        assert commute(a, b)
        assert not commute(a, scale * random_hermitian(rng, 4))

    def test_stacks_broadcast(self, rng):
        u = random_unitary(rng, 3)
        stack = np.array([(u * np.array(v, dtype=float)) @ u.conj().T
                          for v in ((0, 1, 2), (2, 2, 0), (1, 0, 0))])
        assert commute(stack[:, None], stack[None])
        stack[1] = random_hermitian(rng, 3)
        assert commute(stack[0], stack[2:])
        assert not commute(stack[0], stack[1:])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commute(np.eye(2), np.eye(3)[None])
