"""No-collapse commutative (QND) models reproducing collapse-product joints.

Any joint distribution over a product sample space defines a state on the
commutative algebra generated by diagonal "primed" observables with the same
sample spaces as the originals.  The carrier space is the minimal diagonal
one: dimension = number of outcome tuples, one slot per tuple even when
coordinate values repeat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collapse_product import JointDistribution, require_table_size
from .config import DEFAULT, Tolerances
from .measurement import AlgebraicState, Observable
from .operator_core import (
    DimensionMismatchError,
    SpectralDecomposition,
    as_matrix,
    commute,
)

__all__ = [
    "CommutativeModel",
    "build_commutative_model",
    "verify_equivalence",
    "qnd_check",
    "EquivalenceReport",
]


@dataclass(frozen=True)
class CommutativeModel:
    """Mutually commuting diagonal observables plus a diagonal state whose
    ordinary-product joint equals the source distribution."""

    primed_values: list          # per observable: diagonal entries, one per tuple
    state_diagonal: np.ndarray   # probabilities, one per tuple
    axes: list                   # sample spaces, for bookkeeping
    names: list

    @property
    def dim(self) -> int:
        return self.state_diagonal.shape[0]

    def primed_matrix(self, k: int) -> np.ndarray:
        """The k-th primed observable as a dense dim x dim matrix, refused
        by `require_table_size` before it is allocated."""
        require_table_size((self.dim, self.dim), 16)
        return np.diag(self.primed_values[k]).astype(np.complex128)

    def state(self) -> AlgebraicState:
        """The diagonal state as a dense density, refused by
        `require_table_size` before it is allocated."""
        require_table_size((self.dim, self.dim), 16)
        return AlgebraicState(np.diag(self.state_diagonal).astype(np.complex128))

    def joint_probability(self) -> np.ndarray:
        """The model's own joint table, reshaped over the original axes."""
        shape = tuple(len(ax) for ax in self.axes)
        return self.state_diagonal.reshape(shape)


def build_commutative_model(dist: JointDistribution, names=None) -> CommutativeModel:
    """Transcribe a joint distribution into a diagonal commutative model.

    Observable k is diagonal with entry = the k-th coordinate of each outcome
    tuple; the state is diagonal with the tuple probabilities.  No eigensolve
    is involved, so the invariants hold exactly in floats."""
    dist.check()
    axes = [np.asarray(ax, dtype=float) for ax in dist.axes]
    grids = np.meshgrid(*axes, indexing="ij")
    primed = [g.ravel().copy() for g in grids]
    if names is None:
        names = [f"M{k}'" for k in range(len(axes))]
    return CommutativeModel(
        primed_values=primed,
        state_diagonal=dist.probabilities.ravel().copy(),
        axes=axes,
        names=list(names),
    )


# Term-by-tuple cells that `verify_equivalence` evaluates at once.
_TERM_CELLS = 2**16


@dataclass(frozen=True)
class EquivalenceReport:
    max_deviation: float
    min_polynomial_positivity: float
    n_polynomials: int

    @property
    def ok(self) -> bool:
        return self.max_deviation <= 1e-12 and self.min_polynomial_positivity >= -1e-10


def verify_equivalence(model: CommutativeModel, dist: JointDistribution,
                       n_polynomials: int = 100, max_degree: int = 3,
                       seed: int = 0) -> EquivalenceReport:
    """Check the model reproduces `dist` tuple-by-tuple and that the diagonal
    state is positive on random polynomials in the primed observables.

    The positivity probe evaluates rho(X^H X) for X = sum lambda_m prod_k
    (M_k')^{m_k} with random complex coefficients; on the diagonal carrier this
    reduces to sum_t |Lambda_t|^2 p_t, which must be nonnegative."""
    shape = tuple(len(ax) for ax in model.axes)
    if shape != dist.shape:
        raise ValueError(f"model shape {shape} != distribution shape {dist.shape}")
    deviation = float(np.abs(model.joint_probability() - dist.probabilities).max())

    rng = np.random.default_rng(seed)
    values = model.primed_values
    n_axes, n_tuples = len(values), model.dim
    # Polynomial p has terms j < n_terms[p], drawn in a loop so that the
    # random stream is consumed term by term.
    n_terms = np.zeros(n_polynomials, dtype=np.int64)
    coeffs = np.zeros((n_polynomials, 4), dtype=np.complex128)
    degrees = np.zeros((n_polynomials, 4, n_axes), dtype=np.int64)
    for p in range(n_polynomials):
        n_terms[p] = rng.integers(1, 5)
        for j in range(n_terms[p]):
            coeffs[p, j] = rng.normal() + 1j * rng.normal()
            degrees[p, j] = rng.integers(0, max_degree + 1, size=n_axes)
    live = np.arange(4) < n_terms[:, None]
    exponents = np.arange(max_degree + 1)
    # Blocks of polynomials of at most _TERM_CELLS terms by tuples, so that
    # memory stays linear in the tuple count.
    per_block = max(1, _TERM_CELLS // (4 * n_tuples))
    worst = np.inf
    for lo in range(0, n_polynomials, per_block):
        block = slice(lo, lo + per_block)
        mono = np.ones(degrees[block].shape[:2] + (n_tuples,))
        for k in range(n_axes):
            mono = mono * np.stack([values[k] ** e for e in exponents])[degrees[block, :, k]]
        terms = coeffs[block, :, None] * mono
        lam_tuple = np.zeros((len(mono), n_tuples), dtype=np.complex128)
        for j in range(4):
            lam_tuple[live[block, j]] += terms[live[block, j], j]
        worst = min(worst, float(np.sum(np.abs(lam_tuple) ** 2 * model.state_diagonal,
                                        axis=1).min()))
    return EquivalenceReport(deviation, worst, n_polynomials)


def qnd_check(observables: list, tol: Tolerances = DEFAULT) -> bool:
    """True iff every pair of observables commutes (`commute`, at tol.num
    relative to scale).  Each matrix is tested against all later ones in one
    batched product.  The commuting path of `collapse_effect_tree` asks for
    more, `PROJECTOR_SLACK`: projector commutators from about 4e-12 to
    tol.num pass here and take the kernel there, which holds for any family."""
    mats = [as_matrix(o.matrix() if isinstance(o, Observable) else o) for o in observables]
    if len({m.shape for m in mats}) > 1:
        raise DimensionMismatchError("observables act on different dimensions")
    stack = np.array(mats)
    return all(commute(stack[k], stack[k + 1:], tol) for k in range(len(stack) - 1))


def primed_observable(model: CommutativeModel, k: int) -> Observable:
    """The k-th primed observable as a full Observable.  Its slots are exact
    copies of the axis values, so slots with equal values, and only those,
    share a projector.  Its (values, dim, dim) projector stack must pass
    `require_table_size`."""
    vals = model.primed_values[k]
    distinct, slot_value = np.unique(vals, return_inverse=True)
    require_table_size((len(distinct), len(vals), len(vals)), 16)
    members = np.arange(len(distinct))[:, None] == slot_value
    projectors = members[:, :, None] * np.eye(len(vals))
    decomp = SpectralDecomposition(distinct.astype(float), projectors)
    return Observable(model.names[k], decomp)
