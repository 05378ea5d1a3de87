"""The collapse product: joint-measurement effect tables for sequences of
observables under arbitrary bracketings.

For a pair, the effect at outcome tuple (alpha_i, beta_j) is the sequential
product P_i o P_j = P_i P_j P_i.  For longer sequences every bracket node
combines its two sub-tables entrywise with the sequential product
X o Y = sqrt(X) Y sqrt(X); the recursion keeps every intermediate PSD, and for
a bare pair of projectors it reduces to the formula above.  The product is
noncommutative and nonassociative, so the bracketing is explicit input: a
binary tree whose leaves are the measurement sequence in order.

Every table node, the Q-relative collapse and the single product go through
one kernel: the roots of one stack sandwich every entry of the other by two
batched matrix products.  The roots are `batched_psd_sqrt`, as in the step
sampler, whose cut is relative to each entry's trace: deep entries whose
whole mass is below tol.psd keep their genuine small eigenvalues.

The size policy lives here too: `require_table_size` admits an array only up
to `MAX_TABLE_BYTES` and 32 axes.  `collapse_effect_tree` and the chain
samplers, whose arrays grow with a sample space or a run count, check the
shape they will allocate before allocating it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT, Tolerances
from .measurement import (
    POVM,
    AlgebraicState,
    Observable,
    clamp_probabilities,
    povm_from_mixture,
)
from .operator_core import (
    DimensionMismatchError,
    as_matrix,
    batched_psd_sqrt,
    max_entry_norm,
    require_effects,
    require_hermitian,
)

__all__ = [
    "BracketTree",
    "Leaf",
    "Node",
    "JointEffectTable",
    "JointDistribution",
    "sequential_product",
    "collapse_effect_pair",
    "reverse_collapse_pair",
    "collapse_effect_tree",
    "enumerate_bracketings",
    "left_fold_tree",
    "right_fold_tree",
    "reverse_fold_tree",
    "FOLD_TREES",
    "q_relative_collapse",
    "joint_distribution",
    "catalan",
    "MAX_TABLE_BYTES",
    "TableTooLargeError",
    "require_table_size",
]


# --------------------------------------------------------------------------
# size guard
# --------------------------------------------------------------------------

# Largest array, in bytes, that a table or sampler call may allocate.  Measured
# on 2 CPUs with one BLAS thread (numpy 2.4): the 2**21-tuple left and right
# folds of a two-outcome d = 2 chain (128 MiB each) built in 8.8 s and 3.4 s
# with +449 MB and +320 MB peak RSS; the 4**8-tuple left fold of a
# four-outcome d = 8 chain (64 MiB) in 0.54 s with +164 MB.  Peak RSS stays
# within 3.5 times the table.  The benchmarks' largest sampler call, 10**6
# runs of 8 steps at 16 B each, needs 122 MiB.
MAX_TABLE_BYTES = 2**27


class TableTooLargeError(ValueError):
    """The array a call is about to allocate is past the size guard: more
    than MAX_TABLE_BYTES bytes, or more than 32 axes.  An effect table has
    one axis per measurement plus two and 16 B per item, so it bounds chain
    length and sample-space size together; `collapsekit chain` reports no
    exact values past it."""


def require_table_size(shape, itemsize: int) -> None:
    """Reject, before anything is allocated, an array of `shape` with
    `itemsize` bytes per item that needs more than MAX_TABLE_BYTES or has
    more than 32 axes (numpy 1.24's limit).  Axes are counted first, so the
    byte count is a product of at most 32 terms however long the shape."""
    if len(shape) > 32:
        raise TableTooLargeError(
            f"an array of {len(shape)} axes exceeds numpy's limit of 32"
        )
    nbytes = math.prod(shape) * itemsize
    if nbytes > MAX_TABLE_BYTES:
        raise TableTooLargeError(
            f"an array of {nbytes} bytes exceeds MAX_TABLE_BYTES = {MAX_TABLE_BYTES}"
        )


# --------------------------------------------------------------------------
# bracket trees
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    index: int

    @property
    def leaves(self):
        return (self.index,)

    def __str__(self):
        return str(self.index)


@dataclass(frozen=True)
class Node:
    left: "BracketTree"
    right: "BracketTree"
    # When set, this node combines operands in reverse order (right o left)
    # while keeping the axis order fixed.
    reverse: bool = False

    @property
    def leaves(self):
        return self.left.leaves + self.right.leaves

    def __str__(self):
        op = "o<" if self.reverse else ">o"
        return f"({self.left} {op} {self.right})"


BracketTree = Leaf | Node


def catalan(n: int) -> int:
    """Number of bracketings of an n-term product: (2n-2)!/((n-1)!n!)."""
    return math.factorial(2 * n - 2) // (math.factorial(n - 1) * math.factorial(n))


def enumerate_bracketings(n: int) -> list:
    """All full binary trees over leaves 0..n-1 in order (Catalan many)."""
    if not 1 <= n <= 12:
        raise ValueError("n must be between 1 and 12")

    @lru_cache(maxsize=None)
    def build(lo: int, hi: int):
        if hi - lo == 1:
            return (Leaf(lo),)
        trees = []
        for split in range(lo + 1, hi):
            for left in build(lo, split):
                for right in build(split, hi):
                    trees.append(Node(left, right))
        return tuple(trees)

    result = list(build(0, n))
    assert len(result) == catalan(n)
    return result


def left_fold_tree(n: int) -> BracketTree:
    """((...((1,2),3)...),n): collapse after every measurement."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tree: BracketTree = Leaf(0)
    for k in range(1, n):
        tree = Node(tree, Leaf(k))
    return tree


def right_fold_tree(n: int) -> BracketTree:
    """(1,(2,...(n-1,n)...)): one combined collapse after the last-but-one
    measurement."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tree: BracketTree = Leaf(n - 1)
    for k in range(n - 2, -1, -1):
        tree = Node(Leaf(k), tree)
    return tree


def reverse_fold_tree(n: int) -> BracketTree:
    """Left fold with the reverse product at every node: combined collapse in
    time-reverse order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tree: BracketTree = Leaf(0)
    for k in range(1, n):
        tree = Node(tree, Leaf(k), reverse=True)
    return tree


# Named fold conventions: name -> builder of the n-leaf tree.
FOLD_TREES = {
    "left_fold": left_fold_tree,
    "right_fold": right_fold_tree,
    "reverse_fold": reverse_fold_tree,
}


# --------------------------------------------------------------------------
# effect tables
# --------------------------------------------------------------------------

def _tuples(axes: list) -> list:
    """The outcome tuples of a product sample space in row-major order."""
    grids = np.meshgrid(*axes, indexing="ij")
    return list(zip(*(g.ravel().tolist() for g in grids)))


@dataclass(frozen=True)
class JointEffectTable:
    """Operator-valued table over a product sample space.

    `axes` holds one sample-space array per measurement (in sequence order);
    `effects` has shape (*outcome_counts, dim, dim).  Entries are PSD and sum
    to the identity.
    """

    axes: list
    effects: np.ndarray

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]

    @property
    def shape(self) -> tuple:
        return self.effects.shape[:-2]

    def flat_effects(self) -> np.ndarray:
        return self.effects.reshape(-1, self.dim, self.dim)

    def tuples(self) -> list:
        """Outcome tuples in row-major order matching flat_effects()."""
        return _tuples(self.axes)

    def total(self) -> np.ndarray:
        return self.flat_effects().sum(axis=0)

    def min_eigenvalue(self) -> float:
        flat = self.flat_effects()
        herm = 0.5 * (flat + np.conj(np.swapaxes(flat, -1, -2)))
        return float(np.linalg.eigvalsh(herm)[..., 0].min())

    def check(self, tol: Tolerances = DEFAULT) -> None:
        require_effects(self.flat_effects(), tol)


def _sandwich(xs: np.ndarray, ys: np.ndarray, tol: Tolerances) -> np.ndarray:
    """sqrt(X_l) Y_r sqrt(X_l) for every X_l of a stack (L, d, d) and every
    Y_r of a stack (R, d, d), shape (L, R, d, d)."""
    roots = batched_psd_sqrt(xs, tol)
    return roots[:, None] @ ys[None] @ roots[:, None]


def sequential_product(x, y, tol: Tolerances = DEFAULT) -> np.ndarray:
    """X o Y = sqrt(X) Y sqrt(X) for PSD X, Hermitian Y."""
    mx, my = as_matrix(x), as_matrix(y)
    if mx.shape != my.shape:
        raise DimensionMismatchError("operand dimension mismatch")
    mx = require_hermitian(mx, tol)
    return _sandwich(mx[None], my[None], tol)[0, 0]


def _combine(left: JointEffectTable, right: JointEffectTable,
             reverse: bool, tol: Tolerances) -> JointEffectTable:
    """Entrywise sequential product of two tables; axis order is always
    (left axes, right axes) regardless of operand reversal."""
    lflat = left.flat_effects()
    rflat = right.flat_effects()
    if left.dim != right.dim:
        raise DimensionMismatchError("table dimension mismatch")
    if reverse:
        # Roots over the right operand, then back to (left, right) order.
        out = _sandwich(rflat, lflat, tol).swapaxes(0, 1)
    else:
        out = _sandwich(lflat, rflat, tol)
    shape = left.shape + right.shape + (left.dim, left.dim)
    return JointEffectTable(list(left.axes) + list(right.axes), out.reshape(shape))


def _leaf_table(obs: Observable) -> JointEffectTable:
    return JointEffectTable([np.asarray(obs.sample_space)], obs.projectors)


def collapse_effect_pair(a: Observable, b: Observable,
                         tol: Tolerances = DEFAULT) -> JointEffectTable:
    """Pair table: effect(alpha_i, beta_j) = P_i P_j P_i."""
    if a.dim != b.dim:
        raise DimensionMismatchError("observable dimension mismatch")
    return _combine(_leaf_table(a), _leaf_table(b), reverse=False, tol=tol)


def reverse_collapse_pair(a: Observable, b: Observable,
                          tol: Tolerances = DEFAULT) -> JointEffectTable:
    """Reverse pair table: effect(alpha_i, beta_j) = P_j P_i P_j, axes kept in
    (A, B) order."""
    if a.dim != b.dim:
        raise DimensionMismatchError("observable dimension mismatch")
    return _combine(_leaf_table(a), _leaf_table(b), reverse=True, tol=tol)


def collapse_effect_tree(observables: list, tree: BracketTree,
                         tol: Tolerances = DEFAULT) -> JointEffectTable:
    """Effect table for an n-fold collapse product under a given bracketing.

    Tree leaves must carry 0..n-1 in left-to-right order.  Each node is
    evaluated as the entrywise sequential product of its sub-tables (or the
    reverse product if the node is flagged).  The final table, 16 B per
    item, must pass `require_table_size`; it is checked before the tree is
    walked."""
    n = len(observables)
    dims = {o.dim for o in observables}
    if len(dims) != 1:
        raise DimensionMismatchError("observables act on different dimensions")
    d = dims.pop()
    require_table_size([o.n_outcomes for o in observables] + [d, d], 16)
    if tree.leaves != tuple(range(n)):
        raise ValueError(
            f"tree leaves {tree.leaves} do not match observables 0..{n - 1}"
        )

    def eval_tree(t: BracketTree) -> JointEffectTable:
        if isinstance(t, Leaf):
            return _leaf_table(observables[t.index])
        return _combine(eval_tree(t.left), eval_tree(t.right), t.reverse, tol)

    return eval_tree(tree)


def q_relative_collapse(e_a: POVM, e_b: POVM, kappa_a, kappa_b, qs,
                        tol: Tolerances = DEFAULT) -> JointEffectTable:
    """Collapse product of two POVMs relative to a shared generating set
    {Q_lambda}: effect(X, Y) = sum_{lm, mu} kA[lm,X] kB[mu,Y] sqrt(Q_lm) Q_mu sqrt(Q_lm).
    """
    ka = np.asarray(kappa_a, dtype=float)
    kb = np.asarray(kappa_b, dtype=float)
    # Each POVM must be the stated mixture; the rebuild validates kappa and Q.
    for povm, kap, label in ((e_a, ka, "A"), (e_b, kb, "B")):
        rebuilt = povm_from_mixture(kap, qs, povm.sample_points, tol).effects
        given = povm.effects
        if given.shape != rebuilt.shape or max_entry_norm(rebuilt - given) > tol.num:
            raise ValueError(f"POVM {label} is not the stated mixture of the Q set")
    stack = np.asarray(qs, dtype=np.complex128)
    core = _sandwich(stack, stack, tol)
    out = np.einsum("lx,my,lmab->xyab", ka, kb, core)
    axes = [np.arange(len(e_a.sample_points)), np.arange(len(e_b.sample_points))]
    return JointEffectTable(axes, out)


# --------------------------------------------------------------------------
# joint distributions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class JointDistribution:
    """Probability table over a product sample space."""

    axes: list
    probabilities: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.probabilities.shape

    def marginal(self, axis_indices) -> "JointDistribution":
        """Marginal distribution over the given axes (kept in order)."""
        keep = sorted(axis_indices)
        drop = tuple(i for i in range(len(self.axes)) if i not in keep)
        return JointDistribution(
            [self.axes[i] for i in keep], self.probabilities.sum(axis=drop)
        )

    def tuples(self) -> list:
        return _tuples(self.axes)

    def check(self, tol: Tolerances = DEFAULT) -> None:
        if self.probabilities.min() < 0:
            raise ValueError("negative probability entry")
        if abs(self.probabilities.sum() - 1.0) > tol.num:
            raise ValueError("probabilities do not sum to 1")


def joint_distribution(effects: JointEffectTable, rho: AlgebraicState,
                       tol: Tolerances = DEFAULT) -> JointDistribution:
    """p(tuple) = Tr[rho effect(tuple)], clamped and renormalized."""
    if effects.dim != rho.dim:
        raise DimensionMismatchError("effects/state dimension mismatch")
    raw = np.einsum("ab,...ba->...", rho.density, effects.effects).real
    probs = clamp_probabilities(raw.ravel(), tol).reshape(raw.shape)
    return JointDistribution(list(effects.axes), probs)


def total_variation(p: JointDistribution, q: JointDistribution) -> float:
    """TV distance between two distributions on the same sample space."""
    if p.shape != q.shape:
        raise ValueError("shape mismatch")
    return 0.5 * float(np.abs(p.probabilities - q.probabilities).sum())
