"""The two operator-family checks, `require_effects` and `require_projectors`,
against the pairwise and per-effect loops they replace, and the pointer
unitary they certify."""

import numpy as np
import pytest

from collapsekit import (
    PVM,
    SpectralDecomposition,
    build_instrument,
    collapse_effect_pair,
    collapse_effect_tree,
    left_fold_tree,
    povm_from_mixture,
    spectral_decompose,
)
from collapsekit.measurement import Observable
from collapsekit.operator_core import (
    NonHermitianError,
    NotPositiveSemidefiniteError,
    require_effects,
    require_projectors,
)

from conftest import (
    degenerate_observable,
    random_hermitian,
    random_observable,
    random_psd_stack,
    reference_instrument_unitary,
    reference_povm_check,
    reference_pvm_check,
)

OBLIQUE = [np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, -1.0], [0.0, 1.0]])]


def verdict(check, family):
    """None if the check accepts the family, else the type it raises."""
    try:
        check(family)
    except ValueError as exc:
        return type(exc)
    return None


def rotated(p, rng, angle):
    """V P V^H for V = exp(i angle H), H a random Hermitian of unit norm."""
    vals, vecs = np.linalg.eigh(random_hermitian(rng, p.shape[0]))
    v = (vecs * np.exp(1j * angle * vals / np.abs(vals).max())) @ vecs.conj().T
    return v @ p @ v.conj().T


def spectral_families(rng):
    for dim in range(2, 11):
        yield spectral_decompose(random_hermitian(rng, dim)).projectors
        values = (np.arange(dim) + 1) // 2
        yield degenerate_observable(rng, dim, "A", values).projectors


def mixture_povms(rng):
    for dim, count, points in ((2, 3, 2), (4, 5, 3), (6, 4, 4)):
        stack = random_psd_stack(rng, count, dim)
        vals, vecs = np.linalg.eigh(stack.sum(axis=0))
        inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
        qs = inv_root @ stack @ inv_root
        yield povm_from_mixture(rng.dirichlet(np.ones(points), size=count), qs).effects
    # A PVM written as a mixture: its effects have zero eigenvalues.
    yield povm_from_mixture(np.eye(3), spectral_decompose(random_hermitian(rng, 3)).projectors).effects


def collapse_tables(rng):
    for dim in (2, 4, 6):
        pair = collapse_effect_pair(random_observable(rng, dim), random_observable(rng, dim))
        yield list(pair.flat_effects())
    obs = [random_observable(rng, 3) for _ in range(4)]
    yield list(collapse_effect_tree(obs, left_fold_tree(4)).flat_effects())


class TestRequireProjectors:
    def test_valid_families_match_reference(self, rng):
        for family in spectral_families(rng):
            assert verdict(reference_pvm_check, family) is None
            assert verdict(require_projectors, family) is None

    @pytest.mark.parametrize("angle, expected", [(1e-6, ValueError), (1e-12, None)])
    def test_rotated_projector_matches_reference(self, rng, angle, expected):
        for family in spectral_families(rng):
            for k in (0, len(family) - 1):
                perturbed = list(family)
                perturbed[k] = rotated(family[k], rng, angle)
                assert verdict(reference_pvm_check, perturbed) is expected
                assert verdict(require_projectors, perturbed) is expected

    def test_oblique_idempotents_rejected(self):
        # Idempotent, mutually annihilating and summing to I, but not
        # Hermitian: the pairwise loop accepts them.
        assert verdict(reference_pvm_check, OBLIQUE) is None
        with pytest.raises(NonHermitianError):
            require_projectors(OBLIQUE)
        decomposition = SpectralDecomposition(np.array([0.0, 1.0]), OBLIQUE)
        with pytest.raises(NonHermitianError):
            decomposition.check()
        with pytest.raises(NonHermitianError):
            PVM(["a", "b"], OBLIQUE).check()
        with pytest.raises(NonHermitianError):
            build_instrument(Observable("O", decomposition), 3)

    def test_returns_symmetrized_stack(self, rng):
        family = spectral_decompose(random_hermitian(rng, 4)).projectors
        stack = require_projectors(family)
        assert stack.shape == (len(family), 4, 4)
        assert np.array_equal(stack, stack.conj().swapaxes(1, 2))
        assert np.abs(stack - np.stack(family)).max() <= 1e-15


class TestRequireEffects:
    def test_valid_families_match_reference(self, rng):
        for family in [*mixture_povms(rng), *collapse_tables(rng)]:
            assert verdict(reference_povm_check, family) is None
            assert verdict(require_effects, family) is None

    @pytest.mark.parametrize("shift", [1e-6, -1e-6])
    def test_shifted_effect_matches_reference(self, rng, shift):
        verdicts = set()
        for family in [*mixture_povms(rng), *collapse_tables(rng)]:
            eye = np.eye(family[0].shape[0])
            for k in (0, len(family) - 1):
                perturbed = list(family)
                perturbed[k] = family[k] - shift * eye
                partner = (k + 1) % len(family)
                perturbed[partner] = family[partner] + shift * eye
                expected = verdict(reference_povm_check, perturbed)
                assert verdict(require_effects, perturbed) is expected
                verdicts.add(expected)
        # The perturbations reach both verdicts.
        assert verdicts == {None, NotPositiveSemidefiniteError}

    def test_non_hermitian_effect_rejected(self):
        family = [0.5 * np.eye(2) + np.array([[0.0, 1e-3], [0.0, 0.0]]),
                  0.5 * np.eye(2) - np.array([[0.0, 1e-3], [0.0, 0.0]])]
        assert verdict(reference_povm_check, family) is NonHermitianError
        assert verdict(require_effects, family) is NonHermitianError

    def test_sum_checked(self):
        with pytest.raises(ValueError, match="sum to the identity"):
            require_effects([0.5 * np.eye(2), 0.4 * np.eye(2)])


@pytest.mark.parametrize("check", [require_effects, require_projectors])
class TestFamilyShapes:
    def test_empty_family(self, check):
        with pytest.raises(ValueError, match=r"shape \(0,\)"):
            check([])

    def test_non_square_stack(self, check):
        with pytest.raises(ValueError, match=r"shape \(2, 2, 3\)"):
            check(np.zeros((2, 2, 3)))

    def test_single_matrix_is_not_a_family(self, check):
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            check(np.eye(2))

    def test_mixed_sizes(self, check):
        with pytest.raises(ValueError):
            check([np.eye(1), np.zeros((2, 2))])

    def test_non_finite(self, check):
        with pytest.raises(ValueError, match="finite"):
            check([np.array([[np.nan]])])


class TestInstrumentUnitary:
    def test_equals_kron_sum_reference(self, rng):
        for dim in range(2, 11):
            for degenerate in (False, True):
                if degenerate:
                    values = (np.arange(dim) + 1) // 2
                    a = degenerate_observable(rng, dim, "A", values)
                else:
                    a = Observable("A", spectral_decompose(random_hermitian(rng, dim)))
                for extra in (1, 3):
                    inst = build_instrument(a, a.n_outcomes + extra)
                    ref = reference_instrument_unitary(a.projectors, a.n_outcomes + extra)
                    assert np.array_equal(inst.unitary, ref)
                    u = inst.unitary
                    assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-12

    def test_broken_pvm_rejected(self, rng):
        projectors = spectral_decompose(random_hermitian(rng, 3)).projectors
        projectors = [rotated(projectors[0], rng, 1e-6), *projectors[1:]]
        decomposition = SpectralDecomposition(np.arange(3.0), projectors)
        with pytest.raises(ValueError):
            build_instrument(Observable("A", decomposition), 4)
