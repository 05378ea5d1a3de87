import numpy as np
import pytest

from collapsekit import (
    DEFAULT,
    AlgebraicState,
    Leaf,
    Node,
    catalan,
    collapse_effect_pair,
    collapse_effect_tree,
    enumerate_bracketings,
    joint_distribution,
    left_fold_tree,
    luders_collapse,
    povm_from_mixture,
    probability_density,
    q_relative_collapse,
    reverse_collapse_pair,
    reverse_fold_tree,
    right_fold_tree,
    sequential_product,
)
from collapsekit import collapse_product
from collapsekit.collapse_product import _combine, _plain
from collapsekit.measurement import Observable, observable
from collapsekit.operator_core import (
    NonHermitianError,
    NotPositiveSemidefiniteError,
    SpectralDecomposition,
    commutator_norm,
    require_effects,
)

from conftest import (
    PAULI_X,
    PAULI_Z,
    degenerate_observable,
    random_density,
    random_hermitian,
    random_observable,
    random_psd_stack,
    reference_combine,
)

Z = observable("Z", PAULI_Z)
X = observable("X", PAULI_X)
KET0 = AlgebraicState.pure([1.0, 0.0])


def reference_tree(obs, tree):
    """A bracketing's flat effect stack by the `reference_combine` recursion,
    with every table in d x d entries."""
    if isinstance(tree, Leaf):
        return np.asarray(obs[tree.index].projectors, dtype=np.complex128)
    out = reference_combine(reference_tree(obs, tree.left),
                            reference_tree(obs, tree.right), tree.reverse)
    return out.reshape((-1,) + out.shape[-2:])


def with_reverse_nodes(tree, flags):
    """`tree` with its nodes, in pre-order, reversed where `flags` says so."""
    if isinstance(tree, Leaf):
        return tree
    reverse = bool(next(flags))
    return Node(with_reverse_nodes(tree.left, flags),
                with_reverse_nodes(tree.right, flags), reverse)


class TestSequentialProduct:
    def test_projector_absorbed(self):
        p = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
        assert np.abs(sequential_product(p, p) - p).max() < 1e-12

    def test_identity_left(self, rng):
        y = random_hermitian(rng, 3)
        assert np.abs(sequential_product(np.eye(3), y) - y).max() < 1e-12

    def test_qubit_projector_pair(self):
        # P_+^Z P_+^X P_+^Z = |0><0| / 2.
        out = sequential_product(Z.projectors[1], X.projectors[1])
        assert np.abs(out - 0.5 * np.diag([1.0, 0.0])).max() < 1e-12
        assert sorted(np.linalg.eigvalsh(out).round(12)) == [0.0, 0.5]

    def test_commuting_reduces_to_product(self):
        a, b = np.diag([0.5, 0.25]), np.diag([1.0, 2.0])
        assert np.abs(sequential_product(a, b) - a @ b).max() < 1e-12

    def test_rejects_non_psd_left(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            sequential_product(np.diag([-1.0, 1.0]), np.eye(2))

    def test_left_nonlinearity_witness(self):
        # (X1 + X2) o Y != X1 o Y + X2 o Y on a fixed qubit instance.
        x1 = Z.projectors[1]
        x2 = X.projectors[1]
        y = np.diag([1.0, 3.0])
        lhs = sequential_product(x1 + x2, y)
        rhs = sequential_product(x1, y) + sequential_product(x2, y)
        assert np.abs(lhs - rhs).max() > 1e-3

    def test_rejects_non_hermitian_left(self):
        with pytest.raises(NonHermitianError):
            sequential_product(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))

    def test_single_entry_of_the_pair_table(self, rng):
        for dim, values in ((2, [0, 1]), (5, [0, 0, 1, 2, 2]), (6, np.arange(6))):
            a = degenerate_observable(rng, dim, "A", values)
            b = degenerate_observable(rng, dim, "B", values)
            table = collapse_effect_pair(a, b)
            for i, p in enumerate(a.projectors):
                for j, q in enumerate(b.projectors):
                    out = sequential_product(p, q)
                    assert np.abs(out - table.effects[i, j]).max() < 1e-15


class TestTableKernel:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n_left, n_right, dim", [(64, 16, 8), (1, 1, 2), (7, 3, 5)])
    def test_matches_einsum_reference(self, rng, n_left, n_right, dim, reverse):
        left = random_psd_stack(rng, n_left, dim)
        right = random_psd_stack(rng, n_right, dim)
        x, y = _plain(left), _plain(right)
        if reverse:
            x, y = y, x
        effects = _combine(x, y, not reverse, True, DEFAULT)
        assert effects.shape == (n_left, n_right, dim, dim)
        expected = reference_combine(left, right, reverse)
        assert np.abs(effects - expected).max() < 1e-13

    def test_mixed_tree_matches_reference_recursion(self, rng):
        obs = [random_observable(rng, 3, name) for name in "ABCD"]
        tree = Node(Node(Leaf(0), Leaf(1), reverse=True),
                    Node(Leaf(2), Leaf(3)), reverse=True)
        table = collapse_effect_tree(obs, tree)
        assert np.abs(table.flat_effects() - reference_tree(obs, tree)).max() < 1e-13

    def test_negative_entry_rejected(self):
        negative = _plain(np.diag([-1e-6, 1.0])[None])
        identity = _plain(np.eye(2)[None])
        for x_left in (False, True):
            with pytest.raises(NotPositiveSemidefiniteError):
                _combine(negative, identity, x_left, True, DEFAULT)


class TestFramedKernel:
    """Every sub-table is kept in the frames of its lead leaf's outcomes,
    which are zero-padded to the observable's largest rank."""

    @pytest.mark.parametrize("dim, ranks", [(4, (2, 1, 1)), (6, (3, 2, 1)), (5, (2, 2, 1))])
    def test_reverse_nodes_anywhere_mixed_ranks(self, rng, dim, ranks):
        values = np.repeat(np.arange(len(ranks)), ranks)
        obs = [degenerate_observable(rng, dim, f"A{k}", values) for k in range(4)]
        for tree in enumerate_bracketings(4):
            # Pre-order flags: the root first, so reverse roots over forward
            # subtrees, forward roots over reverse subtrees, and mixtures.
            for flags in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
                          (0, 1, 1), (1, 1, 1)):
                mixed = with_reverse_nodes(tree, iter(flags))
                table = collapse_effect_tree(obs, mixed)
                assert table.shape == (len(ranks),) * 4
                assert np.abs(table.flat_effects() - reference_tree(obs, mixed)).max() < 1e-13

    def test_observables_of_different_widths(self, rng):
        # Largest ranks 2, 3, 1 and 1: the frames of one tree differ in width.
        obs = [degenerate_observable(rng, 4, f"A{k}", values)
               for k, values in enumerate([(0, 0, 1, 2), (0, 0, 0, 1), (0, 1, 2, 3)])]
        obs.append(random_observable(rng, 4, "R"))
        for tree in enumerate_bracketings(len(obs)):
            mixed = with_reverse_nodes(tree, iter(rng.integers(0, 2, size=len(obs))))
            table = collapse_effect_tree(obs, mixed)
            assert np.abs(table.flat_effects() - reference_tree(obs, mixed)).max() < 1e-13

    def test_raw_decompositions_take_lazy_frames(self, rng):
        obs = []
        for k, values in enumerate([(0, 0, 1, 2), (0, 1, 1, 1), (0, 0, 1, 1)]):
            given = degenerate_observable(rng, 4, "G", values)
            decomposition = SpectralDecomposition(given.sample_space, given.projectors)
            assert "frames" not in vars(decomposition)
            obs.append(Observable(f"A{k}", decomposition))
        for tree in enumerate_bracketings(3):
            for flags in ((0, 0), (1, 0), (0, 1), (1, 1)):
                mixed = with_reverse_nodes(tree, iter(flags))
                table = collapse_effect_tree(obs, mixed)
                assert np.abs(table.flat_effects() - reference_tree(obs, mixed)).max() < 1e-13
        for o, width in zip(obs, (2, 3, 2)):
            frames = o.decomposition.frames
            assert frames.shape == (o.n_outcomes, 4, width)
            assert np.abs(frames @ frames.conj().swapaxes(1, 2) - o.projectors).max() < 1e-14


class TestDeepBracketings:
    def test_n7_degenerate_tables_pass_check(self):
        # Entries of these tables carry mass below tol.psd: an absolute root
        # cut drops it and 8 of the 33 tables fail check().
        rng = np.random.default_rng(2)
        values = np.repeat(np.arange(4), 2)
        obs = [degenerate_observable(rng, 8, f"A{k}", values) for k in range(7)]
        rho = AlgebraicState.maximally_mixed(8)
        trees = enumerate_bracketings(7)[::4]
        assert len(trees) == 33
        for tree in trees:
            table = collapse_effect_tree(obs, tree)
            table.check()
            joint_distribution(table, rho).check()


class TestCollapsePair:
    def test_same_observable_diagonal(self):
        table = collapse_effect_pair(Z, Z)
        for i in range(2):
            for j in range(2):
                target = Z.projectors[i] if i == j else np.zeros((2, 2))
                assert np.abs(table.effects[i, j] - target).max() < 1e-12

    def test_z_then_x(self):
        table = collapse_effect_pair(Z, X)
        table.check()
        for i in range(2):
            for j in range(2):
                e = table.effects[i, j]
                vals = np.linalg.eigvalsh(e)
                assert vals[-1] == pytest.approx(0.5, abs=1e-10)
                assert vals[0] == pytest.approx(0.0, abs=1e-10)

    def test_commuting_equals_plain_product(self):
        a = observable("A", np.diag([1.0, 2.0, 3.0]))
        b = observable("B", np.diag([0.0, 0.0, 1.0]))
        assert commutator_norm(a.matrix(), b.matrix()) == 0.0
        table = collapse_effect_pair(a, b)
        for i, pa in enumerate(a.projectors):
            for j, pb in enumerate(b.projectors):
                assert np.abs(table.effects[i, j] - pa @ pb).max() <= 1e-9

    def test_reverse_pair(self):
        table = reverse_collapse_pair(Z, X)
        for i in range(2):
            for j in range(2):
                target = X.projectors[j] @ Z.projectors[i] @ X.projectors[j]
                assert np.abs(table.effects[i, j] - target).max() < 1e-12
        # axes stay in (A, B) order
        assert np.allclose(table.axes[0], Z.sample_space)

    def test_reverse_equals_forward_when_commuting(self):
        a = observable("A", np.diag([1.0, 2.0]))
        b = observable("B", np.diag([5.0, 7.0]))
        fwd = collapse_effect_pair(a, b)
        rev = reverse_collapse_pair(a, b)
        assert np.abs(fwd.effects - rev.effects).max() < 1e-12

    def test_reverse_same_observable(self):
        fwd = collapse_effect_pair(Z, Z)
        rev = reverse_collapse_pair(Z, Z)
        assert np.abs(fwd.effects - rev.effects).max() < 1e-12


class TestBracketings:
    def test_catalan_counts(self):
        expected = [1, 1, 2, 5, 14, 42, 132]
        for n, count in enumerate(expected, start=1):
            trees = enumerate_bracketings(n)
            assert len(trees) == count == catalan(n)
            assert len(set(map(str, trees))) == count

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_bracketings(0)
        with pytest.raises(ValueError):
            enumerate_bracketings(13)

    def test_fold_structures(self):
        assert str(left_fold_tree(3)) == "((0 >o 1) >o 2)"
        assert str(right_fold_tree(3)) == "(0 >o (1 >o 2))"
        assert str(reverse_fold_tree(3)) == "((0 o< 1) o< 2)"
        # n=2: one node each; left and right coincide.
        assert str(left_fold_tree(2)) == str(right_fold_tree(2))


class TestCollapseTree:
    def test_single_observable_is_pvm(self):
        table = collapse_effect_tree([Z], Leaf(0))
        assert np.abs(table.effects[0] - Z.projectors[0]).max() < 1e-12
        assert np.abs(table.effects[1] - Z.projectors[1]).max() < 1e-12

    def test_pair_tree_matches_pair(self):
        tree = Node(Leaf(0), Leaf(1))
        t1 = collapse_effect_tree([Z, X], tree)
        t2 = collapse_effect_pair(Z, X)
        assert np.abs(t1.effects - t2.effects).max() < 1e-12

    def test_nonassociativity_witness(self):
        obs = [Z, X, Z]
        left = collapse_effect_tree(obs, left_fold_tree(3))
        right = collapse_effect_tree(obs, right_fold_tree(3))
        left.check()
        right.check()
        assert np.abs(left.effects - right.effects).max() > 1e-3

    def test_reverse_fold_commuting_chain(self):
        obs = [observable("A", np.diag([1.0, 2.0])),
               observable("B", np.diag([3.0, 5.0])),
               observable("C", np.diag([0.0, 1.0]))]
        fwd = collapse_effect_tree(obs, left_fold_tree(3))
        rev = collapse_effect_tree(obs, reverse_fold_tree(3))
        assert np.abs(fwd.effects - rev.effects).max() < 1e-12

    def test_malformed_tree_rejected(self):
        with pytest.raises(ValueError):
            collapse_effect_tree([Z, X], Node(Leaf(1), Leaf(0)))
        with pytest.raises(ValueError):
            collapse_effect_tree([Z, X, Z], Node(Leaf(0), Leaf(1)))

    def test_positivity_and_normalization_random(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            n = int(rng.integers(2, 5))
            obs = [observable(f"A{k}", random_hermitian(rng, dim))
                   for k in range(n)]
            for tree in enumerate_bracketings(n):
                table = collapse_effect_tree(obs, tree)
                assert table.min_eigenvalue() >= -1e-8
                assert np.abs(table.total() - np.eye(dim)).max() <= 1e-8

    def test_power_associativity(self, rng):
        # Adjacent repeated observable: both n=3 bracketings agree.
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            a = observable("A", random_hermitian(rng, dim))
            b = observable("B", random_hermitian(rng, dim))
            obs = [a, a, b]
            left = collapse_effect_tree(obs, left_fold_tree(3))
            right = collapse_effect_tree(obs, right_fold_tree(3))
            assert np.abs(left.effects - right.effects).max() <= 1e-9


class TestQRelativeCollapse:
    def test_pvm_reduction(self):
        e_a = povm_from_mixture(np.eye(2), Z.projectors)
        e_b = povm_from_mixture(np.eye(2), Z.projectors)
        table = q_relative_collapse(e_a, e_b, np.eye(2), np.eye(2), Z.projectors)
        pair = collapse_effect_pair(Z, Z)
        assert np.abs(table.effects - pair.effects).max() < 1e-9

    def test_single_identity_q(self):
        ka = np.array([[0.25, 0.75]])
        kb = np.array([[0.6, 0.4]])
        e_a = povm_from_mixture(ka, [np.eye(2)])
        e_b = povm_from_mixture(kb, [np.eye(2)])
        table = q_relative_collapse(e_a, e_b, ka, kb, [np.eye(2)])
        for x in range(2):
            for y in range(2):
                assert np.abs(
                    table.effects[x, y] - ka[0, x] * kb[0, y] * np.eye(2)
                ).max() < 1e-12

    def test_trine_normalization(self):
        qs = []
        for k in range(3):
            theta = 2 * np.pi * k / 3
            v = np.array([np.cos(theta / 2), np.sin(theta / 2)])
            qs.append((2.0 / 3.0) * np.outer(v, v))
        e_a = povm_from_mixture(np.eye(3), qs)
        e_b = povm_from_mixture(np.eye(3), qs)
        table = q_relative_collapse(e_a, e_b, np.eye(3), np.eye(3), qs)
        table.check()

    def test_mismatched_mixture_rejected(self):
        e_a = povm_from_mixture(np.eye(2), Z.projectors)
        e_b = povm_from_mixture(np.eye(2), X.projectors)
        with pytest.raises(ValueError):
            q_relative_collapse(e_a, e_b, np.eye(2), np.eye(2), Z.projectors)

    def test_q_set_validated_once(self, monkeypatch):
        calls = []

        def counting(operators, tol=DEFAULT):
            calls.append(len(operators))
            return require_effects(operators, tol)

        ka = np.array([[0.25, 0.75], [1.0, 0.0]])
        e_a = povm_from_mixture(ka, Z.projectors)
        e_b = povm_from_mixture(np.eye(2), Z.projectors)
        expected = q_relative_collapse(e_a, e_b, ka, np.eye(2), Z.projectors)
        monkeypatch.setattr(collapse_product, "require_effects", counting)
        table = q_relative_collapse(e_a, e_b, ka, np.eye(2), Z.projectors)
        assert calls == [2]
        np.testing.assert_array_equal(table.effects, expected.effects)

    @pytest.mark.parametrize("kappa_b, qs, message", [
        (np.array([[0.5, 0.4], [0.0, 1.0]]), Z.projectors, "normalized measure"),
        (np.array([[-0.1, 1.1], [0.0, 1.0]]), Z.projectors, "negative kappa"),
        (np.eye(3), Z.projectors, "kappa table shape"),
        (np.eye(2), [np.eye(2), np.eye(2)], "sum to the identity"),
        (np.array([[1.0], [1.0]]), Z.projectors, "sample point count"),
    ])
    def test_invalid_mixtures_rejected(self, kappa_b, qs, message):
        e_a = povm_from_mixture(np.eye(2), Z.projectors)
        with pytest.raises(ValueError, match=message):
            q_relative_collapse(e_a, e_a, np.eye(2), kappa_b, qs)


class TestJointDistribution:
    def test_z_then_x_on_ket0(self):
        dist = joint_distribution(collapse_effect_pair(Z, X), KET0)
        # Z=+1 is row index 1 (sample space ascending).
        assert dist.probabilities[1, 0] == pytest.approx(0.5)
        assert dist.probabilities[1, 1] == pytest.approx(0.5)
        assert np.allclose(dist.probabilities[0], 0.0)

    def test_commuting_product_rule(self):
        a = observable("A", np.diag([1.0, 2.0]))
        b = observable("B", np.diag([3.0, 4.0]))
        rho = AlgebraicState(np.diag([0.3, 0.7]))
        dist = joint_distribution(collapse_effect_pair(a, b), rho)
        # A and B are perfectly correlated through the diagonal.
        assert dist.probabilities[0, 0] == pytest.approx(0.3)
        assert dist.probabilities[1, 1] == pytest.approx(0.7)

    def test_trace_oracle_maximally_mixed(self, rng):
        dim = 4
        obs = [observable(f"A{k}", random_hermitian(rng, dim)) for k in range(2)]
        table = collapse_effect_pair(*obs)
        dist = joint_distribution(table, AlgebraicState.maximally_mixed(dim))
        flat = table.flat_effects()
        for p, e in zip(dist.probabilities.ravel(), flat):
            assert p == pytest.approx(np.trace(e).real / dim, abs=1e-10)

    def test_first_marginal_matches_density(self, rng):
        for _ in range(10):
            a = observable("A", random_hermitian(rng, 4))
            b = observable("B", random_hermitian(rng, 4))
            rho = random_density(rng, 4)
            dist = joint_distribution(collapse_effect_pair(a, b), rho)
            marginal = dist.marginal([0]).probabilities
            density = np.array([p for _, p in probability_density(a, rho)])
            assert np.abs(marginal - density).max() <= 1e-10

    def test_collapse_picture_equivalence(self, rng):
        # Two-step conditional sampling equals the single-table construction.
        for _ in range(10):
            a = observable("A", random_hermitian(rng, 3))
            b = observable("B", random_hermitian(rng, 3))
            rho = random_density(rng, 3)
            dist = joint_distribution(collapse_effect_pair(a, b), rho)
            for i, (_, p_i) in enumerate(probability_density(a, rho)):
                if p_i < 1e-12:
                    assert np.abs(dist.probabilities[i]).max() < 1e-10
                    continue
                conditional = luders_collapse(rho, a, i)
                for j, (_, q_j) in enumerate(probability_density(b, conditional)):
                    assert dist.probabilities[i, j] == pytest.approx(
                        p_i * q_j, abs=1e-10
                    )
