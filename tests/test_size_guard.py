"""The size guard: one check on the bytes and axes of every array whose size
grows with a sample space or a run count, made before the array exists.

No test here allocates past the limit: the boundary of each entry point is
probed on small inputs by moving `MAX_TABLE_BYTES` to the input's own size,
and the real limit only on inputs that are refused."""

import numpy as np
import pytest

from collapsekit import chain, collapse_product
from collapsekit.chain import (
    ChainSpec,
    empirical_distribution,
    exact_chain_distribution,
    sample_chain_leftfold,
    sample_distribution,
)
from collapsekit.collapse_product import (
    MAX_TABLE_BYTES,
    JointDistribution,
    TableTooLargeError,
    collapse_effect_pair,
    collapse_effect_tree,
    effect_table_shape,
    left_fold_tree,
    require_table_size,
    reverse_collapse_pair,
)
from collapsekit.instruments import build_instrument, build_joint_instrument
from collapsekit.measurement import AlgebraicState, observable
from collapsekit.operator_core import DimensionMismatchError

from conftest import PAULI_X, PAULI_Z, random_density, random_unitary

Z = observable("Z", PAULI_Z)
X = observable("X", PAULI_X)
ONE = observable("I", np.eye(2))       # a single outcome
MIXED = AlgebraicState.maximally_mixed(2)


class TestRequireTableSize:
    def test_limit_admitted_one_item_over_refused(self):
        require_table_size((MAX_TABLE_BYTES // 16,), 16)
        with pytest.raises(TableTooLargeError, match="MAX_TABLE_BYTES"):
            require_table_size((MAX_TABLE_BYTES // 16 + 1,), 16)

    def test_more_than_32_axes_refused(self):
        require_table_size((1,) * 32, 16)
        with pytest.raises(TableTooLargeError, match="32"):
            require_table_size((1,) * 33, 16)
        # The product of this shape has about 30000 digits.
        with pytest.raises(TableTooLargeError, match="100000 axes"):
            require_table_size((2,) * 100_000, 16)

    def test_one_error_class(self):
        assert chain.TableTooLargeError is TableTooLargeError
        assert issubclass(TableTooLargeError, ValueError)


def _dist(shape):
    probs = np.full(shape, 1.0 / np.prod(shape))
    return JointDistribution([np.arange(s, dtype=float) for s in shape], probs)


# Each entry point with a small input, the shape it checks and the bytes per
# item it counts.
ENTRY_POINTS = {
    "collapse_effect_tree": (
        lambda: collapse_effect_tree([Z, X, Z], left_fold_tree(3)), (2, 2, 2, 2, 2), 16),
    "sample_chain_leftfold": (
        lambda: sample_chain_leftfold(ChainSpec([Z, X], 3), MIXED, 5), (5, 3), 16),
    "sample_distribution": (
        lambda: sample_distribution(_dist((2, 2, 2)), 7, 5), (5, 3), 16),
    "empirical_distribution": (
        lambda: empirical_distribution(np.zeros((5, 3), dtype=np.int64),
                                       ChainSpec([Z, X], 3)), (2, 2, 2), 8),
    "collapse_effect_pair": (lambda: collapse_effect_pair(Z, X), (2, 2, 2, 2), 16),
    "reverse_collapse_pair": (lambda: reverse_collapse_pair(Z, X), (2, 2, 2, 2), 16),
    # U on system (x) pointer, 2 * 3 levels.
    "build_instrument": (lambda: build_instrument(Z, 3), (6, 6), 16),
    # U_AB on 2 * 3 tuples (x) 3 * 4 pointer levels.
    "build_joint_instrument": (lambda: build_joint_instrument(_dist((2, 3))), (72, 72), 16),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_boundary(name, monkeypatch):
    call, shape, itemsize = ENTRY_POINTS[name]
    nbytes = int(np.prod(shape)) * itemsize
    monkeypatch.setattr(collapse_product, "MAX_TABLE_BYTES", nbytes)
    call()
    monkeypatch.setattr(collapse_product, "MAX_TABLE_BYTES", nbytes - itemsize)
    with pytest.raises(TableTooLargeError, match=str(nbytes - itemsize)):
        call()


class TestAtTheRealLimit:
    def test_leftfold_runs_one_item_over(self):
        with pytest.raises(TableTooLargeError):
            sample_chain_leftfold(ChainSpec([Z], 1), MIXED, MAX_TABLE_BYTES // 16 + 1)

    def test_sample_distribution_runs_one_item_over(self):
        with pytest.raises(TableTooLargeError):
            sample_distribution(_dist((2,)), 7, MAX_TABLE_BYTES // 16 + 1)

    def test_empirical_table_too_large(self):
        # 2**28 tuples of float64: 2 GiB.
        with pytest.raises(TableTooLargeError):
            empirical_distribution(np.zeros((1, 28), dtype=np.int64), ChainSpec([Z], 28))

    def test_d8_four_outcomes_eleven_steps_refused(self, rng):
        # 4**11 tuples of 8 x 8 complex entries: about 4.3 GB.
        spectrum = np.repeat(np.arange(4.0), 2)
        family = []
        for name in "AB":
            u = random_unitary(rng, 8)
            family.append(observable(name, (u * spectrum) @ u.conj().T))
        spec = ChainSpec(family, 11)
        with pytest.raises(TableTooLargeError):
            exact_chain_distribution(spec, AlgebraicState.maximally_mixed(8))


class TestChainLength:
    def test_thirteen_steps_have_an_exact_table(self, rng):
        a = observable("A", np.cos(0.7) * PAULI_Z + np.sin(0.7) * PAULI_X)
        state = random_density(rng, 2)
        longer = exact_chain_distribution(ChainSpec([a, X, Z], 13), state)
        shorter = exact_chain_distribution(ChainSpec([a, X, Z], 12), state)
        assert longer.shape == (2,) * 13
        longer.check()
        assert np.abs(longer.probabilities.sum(axis=-1) - shorter.probabilities).max() <= 1e-12

    def test_thirty_one_single_outcome_steps_refused(self):
        # 33 axes: past numpy's limit, though the table has 4 entries.
        with pytest.raises(TableTooLargeError, match="33 axes"):
            exact_chain_distribution(ChainSpec([ONE], 31), MIXED)

    def test_thirty_single_outcome_steps_admitted(self):
        dist = exact_chain_distribution(ChainSpec([ONE], 30), MIXED)
        assert dist.shape == (1,) * 30
        assert dist.probabilities.ravel().tolist() == [1.0]

    def test_refused_before_the_tree_is_built(self, monkeypatch):
        def no_tree(spec):
            raise AssertionError("the tree of a refused chain was built")

        monkeypatch.setattr(ChainSpec, "tree", no_tree)
        with pytest.raises(TableTooLargeError, match="1000002 axes"):
            exact_chain_distribution(ChainSpec([Z], 10**6), MIXED)
        # 2**22 tuples of 2 x 2 complex entries: 256 MiB.
        with pytest.raises(TableTooLargeError, match="MAX_TABLE_BYTES"):
            exact_chain_distribution(ChainSpec([Z, X], 22), MIXED)

    def test_refused_before_the_sequence_is_built(self, monkeypatch):
        def no_sequence(spec):
            raise AssertionError("the sequence of a refused chain was built")

        monkeypatch.setattr(ChainSpec, "sequence", no_sequence)
        with pytest.raises(TableTooLargeError, match="1000002 axes"):
            exact_chain_distribution(ChainSpec([Z], 10**6), MIXED)
        with pytest.raises(TableTooLargeError, match="MAX_TABLE_BYTES"):
            exact_chain_distribution(ChainSpec([Z, X], 22), MIXED)
        # The frequency table: one axis per step and 8 B per tuple.
        with pytest.raises(TableTooLargeError, match="1000000 axes"):
            empirical_distribution(np.zeros((1, 10**6), dtype=np.int8), ChainSpec([Z], 10**6))
        with pytest.raises(TableTooLargeError, match="MAX_TABLE_BYTES"):
            empirical_distribution(np.zeros((1, 25), dtype=np.int8), ChainSpec([Z, X], 25))

    @pytest.mark.parametrize("length", range(1, 8))
    def test_shape_from_the_cycle(self, length):
        # Four, one and three outcomes, cycled.
        family = [observable("F", np.diag([0.0, 1.0, 2.0, 3.0])),
                  observable("I4", np.eye(4)),
                  observable("T", np.diag([0.0, 1.0, 2.0, 2.0]))]
        spec = ChainSpec(family, length)
        assert chain._table_shape(spec) == effect_table_shape(spec.sequence())

    def test_only_the_observables_reached_count(self):
        three = observable("T", np.diag([0.0, 1.0, 2.0]))
        assert exact_chain_distribution(ChainSpec([Z, three], 1), MIXED).shape == (2,)
        with pytest.raises(DimensionMismatchError):
            exact_chain_distribution(ChainSpec([Z, three], 2), MIXED)

    def test_refused_before_the_tree_is_walked(self):
        # A tree this deep would exceed the recursion limit if walked.
        with pytest.raises(TableTooLargeError):
            exact_chain_distribution(ChainSpec([ONE], 5000), MIXED)
