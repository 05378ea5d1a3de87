"""Observables, states, PVMs, POVMs, and single-measurement machinery.

An observable is a self-adjoint operator presented through its spectral
decomposition: the distinct eigenvalues form the sample space and each
carries an orthogonal projector.  States are density operators; the map
X -> Tr[rho X] satisfies the usual algebraic state axioms (complex
linearity, positivity on X^H X, adjoint compatibility, unit normalization).
The projectors of an observable or a PVM and the effects of a POVM are each
one read-only complex128 (n, d, d) stack, which the functions here index and
contract instead of looping over its members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances
from .operator_core import (
    DimensionMismatchError,
    SpectralDecomposition,
    as_matrix,
    require_effects,
    require_hermitian,
    require_projectors,
    require_psd_spectra,
    spectral_decompose,
)

__all__ = [
    "ZeroProbabilityOutcomeError",
    "Observable",
    "AlgebraicState",
    "VectorState",
    "PVM",
    "POVM",
    "observable",
    "probability_density",
    "characteristic_function",
    "moments",
    "luders_collapse",
    "pvm_from_observable",
    "discretize_observable",
    "povm_from_mixture",
    "require_kappa_table",
    "clamp_probabilities",
]


class ZeroProbabilityOutcomeError(ValueError):
    """Conditioning on an outcome whose probability is numerically zero."""


@dataclass(frozen=True)
class Observable:
    """A named self-adjoint operator with sample space = distinct eigenvalues."""

    name: str
    decomposition: SpectralDecomposition

    @property
    def dim(self) -> int:
        return self.decomposition.dim

    @property
    def sample_space(self) -> np.ndarray:
        return self.decomposition.eigenvalues

    @property
    def projectors(self) -> np.ndarray:
        return self.decomposition.projectors

    @property
    def n_outcomes(self) -> int:
        return len(self.decomposition.eigenvalues)

    def matrix(self) -> np.ndarray:
        return self.decomposition.reconstruct()


def observable(name, matrix, degeneracy_gap: float = 1e-8, tol: Tolerances = DEFAULT) -> Observable:
    """Build an Observable from a Hermitian matrix literal."""
    return Observable(name, spectral_decompose(matrix, degeneracy_gap, tol))


@dataclass(frozen=True)
class AlgebraicState:
    """Density operator rho_hat realizing the state rho(X) = Tr[rho_hat X]."""

    density: np.ndarray
    tol: Tolerances = field(default=DEFAULT, compare=False)

    def __post_init__(self):
        rho = require_hermitian(self.density, self.tol)
        require_psd_spectra(np.linalg.eigvalsh(rho), self.tol, "density")
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > self.tol.num:
            raise ValueError(f"density trace {tr!r} != 1")
        object.__setattr__(self, "density", rho)

    @property
    def dim(self) -> int:
        return self.density.shape[0]

    def expect(self, x) -> complex:
        """rho(X) = Tr[rho_hat X]."""
        m = as_matrix(x)
        if m.shape[0] != self.dim:
            raise DimensionMismatchError("operator/state dimension mismatch")
        return complex(np.trace(self.density @ m))

    @classmethod
    def maximally_mixed(cls, dim: int, tol: Tolerances = DEFAULT) -> "AlgebraicState":
        return cls(np.eye(dim) / dim, tol)

    @classmethod
    def pure(cls, amplitudes, tol: Tolerances = DEFAULT) -> "AlgebraicState":
        psi = np.asarray(amplitudes, dtype=np.complex128).ravel()
        return cls(np.outer(psi, psi.conj()), tol)


@dataclass(frozen=True)
class VectorState:
    """Normalized Hilbert-space vector; its pure state is <psi|X|psi>."""

    amplitudes: np.ndarray
    tol: Tolerances = field(default=DEFAULT, compare=False)

    def __post_init__(self):
        psi = np.asarray(self.amplitudes, dtype=np.complex128).ravel()
        if not np.isfinite(psi).all():
            raise ValueError("vector has non-finite amplitudes")
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > self.tol.num:
            raise ValueError(f"vector norm {norm!r} != 1")
        object.__setattr__(self, "amplitudes", psi)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class PVM:
    """Projection-valued measure over opaque sample points; `projectors` is
    stored as a read-only complex128 (n, d, d) stack."""

    sample_points: list
    projectors: np.ndarray

    def __post_init__(self):
        projectors = np.array(self.projectors, dtype=np.complex128)
        projectors.setflags(write=False)
        object.__setattr__(self, "projectors", projectors)
        if len(self.sample_points) != len(self.projectors):
            raise ValueError("sample point / projector count mismatch")

    def check(self, tol: Tolerances = DEFAULT) -> None:
        require_projectors(self.projectors, tol)


@dataclass(frozen=True)
class POVM:
    """Positive operator-valued measure: PSD effects summing to the identity.

    Sample points are opaque labels; additivity over disjoint unions of a
    finite sample space holds by construction.  `effects` is stored as a
    read-only complex128 (n, d, d) stack.
    """

    sample_points: list
    effects: np.ndarray

    def __post_init__(self):
        effects = np.array(self.effects, dtype=np.complex128)
        effects.setflags(write=False)
        object.__setattr__(self, "effects", effects)
        if len(self.sample_points) != len(self.effects):
            raise ValueError("sample point / effect count mismatch")

    def check(self, tol: Tolerances = DEFAULT) -> None:
        require_effects(self.effects, tol)


def clamp_probabilities(raw: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Clamp tiny negatives from floating eigensolves to 0 and renormalize;
    raise if an entry is not finite, an entry is below -tol.num or the sum
    is off 1 by over tol.num."""
    if not np.isfinite(raw).all():
        raise ValueError("non-finite probability entry")
    if raw.min() < -tol.num:
        raise ValueError(f"probability {raw.min():.3e} below -{tol.num:.1e}")
    p = np.clip(raw, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > tol.num:
        raise ValueError(f"probabilities sum to {float(total)!r}")
    return p / total


def probability_density(
    a: Observable, rho: AlgebraicState, tol: Tolerances = DEFAULT
) -> list:
    """Discrete probability table [(alpha_i, Tr[rho P_i])] over the sample space."""
    if a.dim != rho.dim:
        raise DimensionMismatchError("observable/state dimension mismatch")
    raw = np.einsum("ab,iba->i", rho.density, a.projectors).real
    probs = clamp_probabilities(raw, tol)
    return list(zip(a.sample_space.tolist(), probs.tolist()))


def characteristic_function(
    a: Observable, rho: AlgebraicState, lambdas, tol: Tolerances = DEFAULT
) -> np.ndarray:
    """phi(lambda) = sum_i exp(i lambda alpha_i) Tr[rho P_i]; phi(0) = 1."""
    density = probability_density(a, rho, tol)
    alphas = np.array([u for u, _ in density])
    probs = np.array([p for _, p in density])
    lam = np.asarray(lambdas, dtype=float)
    return np.exp(1j * np.outer(lam, alphas)) @ probs


def moments(
    a: Observable, rho: AlgebraicState, n_max: int, tol: Tolerances = DEFAULT
) -> np.ndarray:
    """Moments [rho(A^0), ..., rho(A^n_max)] via the spectral sum."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    density = probability_density(a, rho, tol)
    alphas = np.array([u for u, _ in density])
    probs = np.array([p for _, p in density])
    return np.array([float(np.sum(alphas**n * probs)) for n in range(n_max + 1)])


def luders_collapse(
    rho: AlgebraicState, a: Observable, outcome_index: int, tol: Tolerances = DEFAULT
) -> AlgebraicState:
    """State update rho -> P_i rho P_i / Tr[rho P_i] after outcome i."""
    if a.dim != rho.dim:
        raise DimensionMismatchError("observable/state dimension mismatch")
    p_i = a.projectors[outcome_index]
    prob = rho.expect(p_i).real
    if prob <= tol.prob:
        raise ZeroProbabilityOutcomeError(
            f"outcome {outcome_index} has probability {prob:.3e}"
        )
    collapsed = p_i @ rho.density @ p_i / prob
    return AlgebraicState(collapsed, tol)


def pvm_from_observable(a: Observable, partition: list, tol: Tolerances = DEFAULT) -> PVM:
    """Coarse-grain the eigenprojectors of `a` over a partition of its sample
    space; each partition cell becomes one sample point with the summed
    projector."""
    covered = []
    projectors = []
    points = []
    sample = a.sample_space
    for cell in partition:
        cell_vals = list(cell)
        idx = []
        for v in cell_vals:
            hits = np.flatnonzero(np.isclose(sample, v, rtol=0.0, atol=tol.num))
            if hits.size != 1:
                raise ValueError(f"partition value {v!r} does not match one eigenvalue")
            idx.append(int(hits[0]))
        if set(idx) & set(covered):
            raise ValueError("partition cells overlap")
        covered.extend(idx)
        projectors.append(a.projectors[idx].sum(0))
        points.append(tuple(sorted(sample[i] for i in idx)))
    if len(covered) != a.n_outcomes:
        raise ValueError("partition does not cover the sample space")
    pvm = PVM(points, projectors)
    pvm.check(tol)
    return pvm


def discretize_observable(
    a: Observable, thresholds, tol: Tolerances = DEFAULT
) -> Observable:
    """Heaviside discretization: new value of eigenvalue alpha is the number
    of thresholds strictly below it.  Empty bins are dropped from the sample
    space."""
    thr = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(thr) <= 0):
        raise ValueError("thresholds must be strictly increasing")
    for t in thr:
        if np.any(np.abs(a.sample_space - t) <= tol.num):
            raise ValueError(f"threshold {float(t)!r} coincides with an eigenvalue")
    bins = np.searchsorted(thr, a.sample_space, side="left")
    values = np.unique(bins)
    mask = (bins == values[:, None])[:, :, None, None]
    projectors = np.where(mask, a.projectors, 0.0).sum(1)
    decomp = SpectralDecomposition(values.astype(float), projectors)
    return Observable(f"{a.name}_d", decomp)


def require_kappa_table(kappas, n_q: int, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Validate a (n_q, n_points) table of nonnegative reals whose rows are
    normalized measures, one row per Q operator; return it as floats."""
    kap = np.asarray(kappas, dtype=float)
    if kap.ndim != 2 or kap.shape[0] != n_q:
        raise ValueError("kappa table shape does not match the Q list")
    if kap.min() < 0:
        raise ValueError("negative kappa entry")
    row_sums = kap.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > tol.num):
        raise ValueError("each kappa row must be a normalized measure")
    return kap


def povm_from_mixture(kappas, qs, sample_points=None, tol: Tolerances = DEFAULT) -> POVM:
    """Build a POVM E(X) = sum_lambda kappa_lambda(X) Q_lambda.

    `kappas` is a (n_lambda, n_points) table as `require_kappa_table`
    demands; the PSD operators `qs` must sum to the identity, which is
    sufficient for the effects to normalize.
    """
    kap = require_kappa_table(kappas, len(qs), tol)
    stack = require_effects(qs, tol)
    n_points = kap.shape[1]
    if sample_points is None:
        sample_points = list(range(n_points))
    if len(sample_points) != n_points:
        raise ValueError("sample point count does not match the kappa table")
    effects = np.einsum("lx,lab->xab", kap, stack)
    povm = POVM(list(sample_points), effects)
    povm.check(tol)
    return povm
