import numpy as np
import pytest

from collapsekit import (
    DEFAULT,
    AlgebraicState,
    VectorState,
    characteristic_function,
    discretize_observable,
    luders_collapse,
    moments,
    povm_from_mixture,
    probability_density,
    pvm_from_observable,
)
from collapsekit.measurement import (
    ZeroProbabilityOutcomeError,
    clamp_probabilities,
    observable,
)

from conftest import PAULI_X, PAULI_Z, random_density, random_hermitian

Z = observable("Z", PAULI_Z)
X = observable("X", PAULI_X)
KET0 = AlgebraicState.pure([1.0, 0.0])


class TestStateAxioms:
    def test_axioms_on_random_operators(self, rng):
        for dim in (2, 3, 5):
            rho = random_density(rng, dim)
            for _ in range(20):
                x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                y = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                lam, mu = rng.normal() + 1j * rng.normal(), rng.normal()
                # complex linearity
                assert rho.expect(lam * x + mu * y) == pytest.approx(
                    lam * rho.expect(x) + mu * rho.expect(y), abs=1e-10
                )
                # positivity on X^H X
                assert rho.expect(x.conj().T @ x).real >= -1e-10
                # adjoint compatibility
                assert rho.expect(x.conj().T) == pytest.approx(
                    np.conj(rho.expect(x)), abs=1e-10
                )
            assert rho.expect(np.eye(dim)) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_states_rejected(self):
        with pytest.raises(ValueError):
            AlgebraicState(np.diag([0.7, 0.7]))       # trace != 1
        with pytest.raises(ValueError):
            AlgebraicState(np.diag([1.5, -0.5]))      # not PSD

    def test_vector_state_norm(self):
        with pytest.raises(ValueError):
            VectorState([1.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))],
                             ids=repr)
    def test_vector_state_refuses_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            VectorState([bad, 0.0])


class TestProbabilityDensity:
    def test_eigenstate(self):
        assert probability_density(Z, KET0) == [(-1.0, 0.0), (1.0, 1.0)]

    def test_superposition(self):
        table = dict(probability_density(X, KET0))
        assert table[-1.0] == pytest.approx(0.5)
        assert table[1.0] == pytest.approx(0.5)

    def test_maximally_mixed_gives_rank_over_dim(self, rng):
        a = observable("A", random_hermitian(rng, 6))
        rho = AlgebraicState.maximally_mixed(6)
        for (_, p), proj in zip(probability_density(a, rho), a.projectors):
            assert p == pytest.approx(np.trace(proj).real / 6, abs=1e-10)

    def test_normalization(self, rng):
        for _ in range(10):
            a = observable("A", random_hermitian(rng, 5))
            rho = random_density(rng, 5)
            total = sum(p for _, p in probability_density(a, rho))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestCharacteristicFunction:
    def test_at_zero(self, rng):
        rho = random_density(rng, 2)
        assert characteristic_function(X, rho, [0.0])[0] == pytest.approx(1.0)

    def test_eigenstate_phase(self):
        value = characteristic_function(Z, KET0, [np.pi])[0]
        assert value == pytest.approx(np.exp(1j * np.pi))

    def test_matches_fourier_sum(self, rng):
        a = observable("A", random_hermitian(rng, 4))
        rho = random_density(rng, 4)
        lambdas = rng.normal(size=5)
        values = characteristic_function(a, rho, lambdas)
        density = probability_density(a, rho)
        for lam, val in zip(lambdas, values):
            oracle = sum(p * np.exp(1j * lam * u) for u, p in density)
            assert val == pytest.approx(oracle, abs=1e-10)


class TestMoments:
    def test_zeroth(self, rng):
        rho = random_density(rng, 2)
        assert moments(Z, rho, 0)[0] == pytest.approx(1.0)

    def test_mixed_qubit(self):
        rho = AlgebraicState.maximally_mixed(2)
        ms = moments(Z, rho, 5)
        assert np.allclose(ms[1::2], 0.0)
        assert np.allclose(ms[0::2], 1.0)

    def test_matrix_power_oracle(self, rng):
        for dim in (3, 8):
            a = observable("A", random_hermitian(rng, dim))
            rho = random_density(rng, dim)
            ms = moments(a, rho, 4)
            mat = a.matrix()
            power = np.eye(dim, dtype=complex)
            for n in range(5):
                assert ms[n] == pytest.approx(
                    np.trace(rho.density @ power).real, abs=1e-8
                )
                power = power @ mat


class TestLudersCollapse:
    def test_eigenstate_fixed_point(self):
        out = luders_collapse(KET0, Z, 1)
        assert np.abs(out.density - KET0.density).max() < 1e-12

    def test_collapse_to_plus(self):
        out = luders_collapse(KET0, X, 1)
        plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
        assert np.abs(out.density - plus).max() < 1e-12

    def test_mixed_state_projector_normalization(self):
        a = observable("A", np.diag([0.0, 0.0, 1.0, 1.0]))
        rho = AlgebraicState.maximally_mixed(4)
        out = luders_collapse(rho, a, 1)
        assert np.abs(out.density - np.diag([0, 0, 0.5, 0.5])).max() < 1e-12

    def test_repeatability(self, rng):
        for _ in range(10):
            a = observable("A", random_hermitian(rng, 4))
            rho = random_density(rng, 4)
            once = luders_collapse(rho, a, 0)
            twice = luders_collapse(once, a, 0)
            assert np.abs(once.density - twice.density).max() <= 1e-9

    def test_zero_probability_error(self):
        with pytest.raises(ZeroProbabilityOutcomeError):
            luders_collapse(KET0, Z, 0)


class TestPvmFromObservable:
    def test_singleton_partition(self):
        pvm = pvm_from_observable(Z, [[-1.0], [1.0]])
        assert np.allclose(pvm.projectors[0], Z.projectors[0])
        assert np.allclose(pvm.projectors[1], Z.projectors[1])

    def test_coarse_partition(self):
        a = observable("A", np.diag([1.0, 2.0, 3.0]))
        pvm = pvm_from_observable(a, [[1.0, 2.0], [3.0]])
        assert np.allclose(pvm.projectors[0], np.diag([1, 1, 0]))
        assert np.allclose(pvm.projectors[1], np.diag([0, 0, 1]))

    def test_whole_space(self):
        pvm = pvm_from_observable(Z, [[-1.0, 1.0]])
        assert np.allclose(pvm.projectors[0], np.eye(2))

    def test_overlap_and_gap_rejected(self):
        with pytest.raises(ValueError):
            pvm_from_observable(Z, [[-1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError):
            pvm_from_observable(Z, [[1.0]])


class TestDiscretize:
    def test_two_bit_example(self):
        a = observable("A", np.diag([0.5, 1.5, 2.5, 3.5]))
        d = discretize_observable(a, [1.0, 2.0, 3.0])
        assert np.allclose(d.sample_space, [0, 1, 2, 3])
        for p in d.projectors:
            assert np.trace(p).real == pytest.approx(1.0)

    def test_all_thresholds_below(self):
        a = observable("A", np.diag([5.0, 6.0]))
        d = discretize_observable(a, [0.0, 1.0])
        assert np.allclose(d.sample_space, [2.0])
        assert np.allclose(d.projectors[0], np.eye(2))

    def test_median_split_ranks(self, rng):
        a = observable("A", random_hermitian(rng, 6))
        median = float(np.median(a.sample_space)) + 1e-3
        d = discretize_observable(a, [median])
        ranks = [int(round(np.trace(p).real)) for p in d.projectors]
        assert sum(ranks) == 6
        assert len(ranks) == 2

    def test_threshold_on_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            discretize_observable(Z, [1.0])


class TestPovmFromMixture:
    def test_identity_table_reproduces_pvm(self):
        povm = povm_from_mixture(np.eye(2), Z.projectors)
        assert np.allclose(povm.effects[0], Z.projectors[0])
        assert np.allclose(povm.effects[1], Z.projectors[1])

    def test_single_identity_q(self):
        kappa = np.array([[0.2, 0.3, 0.5]])
        povm = povm_from_mixture(kappa, [np.eye(3)])
        for k, e in enumerate(povm.effects):
            assert np.allclose(e, kappa[0, k] * np.eye(3))

    def test_qubit_trine(self):
        qs = []
        for k in range(3):
            theta = 2 * np.pi * k / 3
            v = np.array([np.cos(theta / 2), np.sin(theta / 2)])
            qs.append((2.0 / 3.0) * np.outer(v, v))
        povm = povm_from_mixture(np.eye(3), qs)
        total = sum(povm.effects)
        assert np.abs(total - np.eye(2)).max() < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            povm_from_mixture(np.array([[0.5, 0.4]]), [np.eye(2)])  # row not normalized
        with pytest.raises(ValueError):
            povm_from_mixture(np.eye(2), [np.eye(2), np.eye(2)])    # Qs exceed identity
        with pytest.raises(ValueError):
            povm_from_mixture(np.array([[-0.1, 1.1]]), [np.eye(2)])


class TestClampProbabilities:
    def test_born_weights_only_renormalised(self, rng):
        # Nonnegative input is divided by its sum, bit for bit.
        for shape in ((5,), (3, 4)):
            amplitudes = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            raw = np.abs(amplitudes / np.linalg.norm(amplitudes)) ** 2
            assert np.array_equal(clamp_probabilities(raw, DEFAULT), raw / raw.sum())

    def test_tiny_negative_clamped(self):
        probs = clamp_probabilities(np.array([0.5, 0.5, -1e-12]), DEFAULT)
        assert np.array_equal(probs, [0.5, 0.5, 0.0])

    def test_rejects_negative_and_unnormalised(self):
        with pytest.raises(ValueError, match="below"):
            clamp_probabilities(np.array([1.1, -0.1]), DEFAULT)
        with pytest.raises(ValueError, match="sum to"):
            clamp_probabilities(np.array([0.5, 0.4]), DEFAULT)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=repr)
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            clamp_probabilities(np.array([bad, 0.0]), DEFAULT)
        with pytest.raises(ValueError, match="non-finite"):
            clamp_probabilities(np.array([0.5, 0.5, bad]), DEFAULT)
