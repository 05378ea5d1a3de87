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

from .collapse_product import JointDistribution
from .config import DEFAULT, Tolerances
from .measurement import AlgebraicState, Observable
from .operator_core import SpectralDecomposition, commutator_norm

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
        return np.diag(self.primed_values[k]).astype(np.complex128)

    def state(self) -> AlgebraicState:
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
    values = np.stack(model.primed_values)          # (n_axes, n_tuples)
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


def qnd_check(observables: list, tol: Tolerances = DEFAULT) -> bool:
    """True iff every pair of observables commutes within tolerance."""
    mats = [o.matrix() if isinstance(o, Observable) else np.asarray(o) for o in observables]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if commutator_norm(mats[i], mats[j]) > tol.num:
                return False
    return True


def primed_observable(model: CommutativeModel, k: int,
                      degeneracy_gap: float = 1e-12) -> Observable:
    """The k-th primed observable as a full Observable (exact diagonal
    clustering; slots sharing a coordinate value merge into one projector)."""
    vals = model.primed_values[k]
    distinct = np.unique(vals)
    members = np.abs(vals - distinct[:, None]) <= degeneracy_gap
    projectors = members[:, :, None] * np.eye(len(vals))
    decomp = SpectralDecomposition(distinct.astype(float), projectors)
    return Observable(model.names[k], decomp)
