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
one kernel, `_combine`.  Since range(X o Y) lies in range(X), every entry of
a sub-table lies in the range of its lead leaf's outcome projector: the left
operand's lead, or the right operand's lead at a reverse node.  So a
sub-table keeps each entry as w x w coefficients in the frame of its lead
outcome, an orthonormal basis of that projector's range padded with zero
columns to the observable's largest rank w (`SpectralDecomposition.frames`).
A node takes the w x w roots of one operand, brings the other in through the
overlaps of the two frames, and sandwiches; the root node's sandwich gives
the d x d entries directly.  A leaf is its own root and takes no
eigensolve.  `sequential_product`, the pair tables and the Q-relative
collapse run the same kernel in the trivial frame I_d.  The roots are
`batched_psd_sqrt`, as in the step sampler, whose cut is relative to each
entry's trace, so a change of frame leaves it unchanged, and deep entries
whose whole mass is below tol.psd keep their genuine small eigenvalues.

The size policy lives here too: `require_table_size` admits an array only up
to `MAX_TABLE_BYTES` and 32 axes.  `collapse_effect_tree` and the chain
samplers, whose arrays grow with a sample space or a run count, check the
shape they will allocate before allocating it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Tolerances
from .measurement import (
    POVM,
    AlgebraicState,
    Observable,
    clamp_probabilities,
    require_kappa_table,
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
    "effect_table_shape",
]


# --------------------------------------------------------------------------
# size guard
# --------------------------------------------------------------------------

# Largest array, in bytes, that a table or sampler call may allocate.  Measured
# on 2 CPUs with one BLAS thread (numpy 2.4): the 2**21-tuple left, right and
# reverse folds of a two-outcome d = 2 chain (128 MiB each) built in 0.3-0.4 s,
# 0.12 s and 0.18-0.19 s with +288, +208 and +208 MiB peak RSS; the
# 4**8-tuple folds of a four-outcome d = 8 chain (64 MiB) in 0.07-0.19 s with
# +81 to +103 MiB.  Peak RSS stays within 2.3 times the table.  The
# benchmarks' largest sampler call, 10**6 runs of 8 steps at 16 B each, needs
# 122 MiB.
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


def effect_table_shape(observables: list) -> tuple:
    """The shape (*outcome counts, d, d) of the effect table of a measurement
    sequence, for `require_table_size`, known before any tree is built.
    Raises DimensionMismatchError when the observables act on different
    dimensions."""
    dims = {o.dim for o in observables}
    if len(dims) != 1:
        raise DimensionMismatchError("observables act on different dimensions")
    d = dims.pop()
    return tuple(o.n_outcomes for o in observables) + (d, d)


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


class _Framed(NamedTuple):
    """A sub-table in the frames of its lead's outcomes.  Entry t is
    V C(t) V^H, where V (d, w) is the frame of t's outcome on the lead axis.
    `frames` broadcasts over the sub-table's axes, with the lead's m frames
    on the lead axis and size 1 elsewhere; the trivial frame I_d has size 1
    on every axis.  A leaf carries no coefficients: each entry, diag(1_r,
    0), is its own root."""

    coeffs: np.ndarray | None    # (*outcome counts, w, w), or None for a leaf
    frames: np.ndarray           # (..., m or 1, 1, ..., d, w)

    @property
    def ndim(self) -> int:
        """The number of outcome axes."""
        return 1 if self.coeffs is None else self.coeffs.ndim - 2


def _plain(stack: np.ndarray) -> _Framed:
    """A stack (n, d, d) as a one-axis sub-table in the trivial frame."""
    return _Framed(stack, np.eye(stack.shape[-1], dtype=np.complex128)[None])


def _adjoint(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def _combine(x: _Framed, y: _Framed, x_left: bool, expand: bool,
             tol: Tolerances) -> _Framed | np.ndarray:
    """The entrywise sequential product sqrt(X) Y sqrt(X) of every entry of
    x (the operand whose roots are taken) with every entry of y, axes in
    (left, right) order with x on the left when `x_left`.

    X = V S^2 V^H for its root S in x's frame V, so the product is V T D T^H
    V^H in V, with T = S V^H W through y's frame W and D the coefficients
    of y: T is formed once per (x entry, y lead outcome) and broadcast over
    y's other axes.  A leaf's coefficients diag(1_r, 0) are their own root,
    and the padded rows and columns of V^H W are zero, so a leaf x gives
    T = V^H W and a leaf y gives T T^H.  The result keeps x's frames, or
    with `expand` is the d x d entry table, from T = V S V^H W."""
    def place(a, trailing):
        return a.reshape(a.shape[:-2] + (1,) * trailing + a.shape[-2:])

    fx, fy, cy = x.frames, y.frames, y.coeffs
    roots = None if x.coeffs is None else batched_psd_sqrt(x.coeffs, tol)
    if x_left:
        fx = place(fx, y.ndim)
        roots = None if roots is None else place(roots, y.ndim)
    else:
        fy = place(fy, x.ndim)
        cy = None if cy is None else place(cy, x.ndim)
    t = _adjoint(fx) @ fy
    if roots is not None:
        t = roots @ t
    if expand:
        t = fx @ t
    out = t @ _adjoint(t) if cy is None else t @ cy @ _adjoint(t)
    return out if expand else _Framed(out, fx)


def sequential_product(x, y, tol: Tolerances = DEFAULT) -> np.ndarray:
    """X o Y = sqrt(X) Y sqrt(X) for PSD X, Hermitian Y."""
    mx, my = as_matrix(x), as_matrix(y)
    if mx.shape != my.shape:
        raise DimensionMismatchError("operand dimension mismatch")
    mx = require_hermitian(mx, tol)
    return _combine(_plain(mx[None]), _plain(my[None]), True, True, tol)[0, 0]


def _plain_pair(a: Observable, b: Observable, reverse: bool,
                tol: Tolerances) -> JointEffectTable:
    """A pair table in the trivial frame, axes in (A, B) order; the roots
    are taken over B when `reverse`."""
    if a.dim != b.dim:
        raise DimensionMismatchError("observable dimension mismatch")
    left, right = _plain(a.projectors), _plain(b.projectors)
    if reverse:
        out = _combine(right, left, False, True, tol)
    else:
        out = _combine(left, right, True, True, tol)
    return JointEffectTable([np.asarray(a.sample_space), np.asarray(b.sample_space)], out)


def collapse_effect_pair(a: Observable, b: Observable,
                         tol: Tolerances = DEFAULT) -> JointEffectTable:
    """Pair table: effect(alpha_i, beta_j) = P_i P_j P_i."""
    return _plain_pair(a, b, False, tol)


def reverse_collapse_pair(a: Observable, b: Observable,
                          tol: Tolerances = DEFAULT) -> JointEffectTable:
    """Reverse pair table: effect(alpha_i, beta_j) = P_j P_i P_j, axes kept in
    (A, B) order."""
    return _plain_pair(a, b, True, tol)


def collapse_effect_tree(observables: list, tree: BracketTree,
                         tol: Tolerances = DEFAULT) -> JointEffectTable:
    """Effect table for an n-fold collapse product under a given bracketing.

    Tree leaves must carry 0..n-1 in left-to-right order.  Each node is
    evaluated as the entrywise sequential product of its sub-tables (or the
    reverse product if the node is flagged).  The final table, 16 B per
    item, must pass `require_table_size`; it is checked before the tree is
    walked."""
    n = len(observables)
    require_table_size(effect_table_shape(observables), 16)
    if tree.leaves != tuple(range(n)):
        raise ValueError(
            f"tree leaves {tree.leaves} do not match observables 0..{n - 1}"
        )

    axes = [np.asarray(o.sample_space) for o in observables]
    if isinstance(tree, Leaf):
        return JointEffectTable(axes, observables[0].projectors)

    def eval_tree(t: BracketTree, expand: bool):
        if isinstance(t, Leaf):
            return _Framed(None, observables[t.index].decomposition.frames)
        left, right = eval_tree(t.left, False), eval_tree(t.right, False)
        if t.reverse:
            return _combine(right, left, False, expand, tol)
        return _combine(left, right, True, expand, tol)

    return JointEffectTable(axes, eval_tree(tree, True))


def q_relative_collapse(e_a: POVM, e_b: POVM, kappa_a, kappa_b, qs,
                        tol: Tolerances = DEFAULT) -> JointEffectTable:
    """Collapse product of two POVMs relative to a shared generating set
    {Q_lambda}: effect(X, Y) = sum_{lm, mu} kA[lm,X] kB[mu,Y] sqrt(Q_lm) Q_mu sqrt(Q_lm).
    """
    # Each POVM must be the stated mixture of the Q set, validated once.
    qstack = require_effects(qs, tol)
    ka, kb = (require_kappa_table(k, len(qstack), tol) for k in (kappa_a, kappa_b))
    for povm, kap, label in ((e_a, ka, "A"), (e_b, kb, "B")):
        if len(povm.sample_points) != kap.shape[1]:
            raise ValueError("sample point count does not match the kappa table")
        rebuilt = np.einsum("lx,lab->xab", kap, qstack)
        given = povm.effects
        if given.shape != rebuilt.shape or max_entry_norm(rebuilt - given) > tol.num:
            raise ValueError(f"POVM {label} is not the stated mixture of the Q set")
    stack = _plain(np.asarray(qs, dtype=np.complex128))
    core = _combine(stack, stack, True, True, tol)
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
        if not np.isfinite(self.probabilities).all():
            raise ValueError("non-finite probability entry")
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
