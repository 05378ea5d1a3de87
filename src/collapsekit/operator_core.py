"""Dense complex-matrix substrate: Hermiticity checks, spectral decompositions
with first-class degeneracy handling, PSD square roots, and projector
arithmetic.

Everything here is a pure function over immutable numpy arrays; matrices are
dense complex128 and desk-scale (dim <= 64 by intent, not enforcement).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances

__all__ = [
    "NonHermitianError",
    "NotPositiveSemidefiniteError",
    "DimensionMismatchError",
    "SpectralDecomposition",
    "as_matrix",
    "require_hermitian",
    "spectral_decompose",
    "psd_sqrt",
    "batched_psd_sqrt",
    "is_psd",
    "commutator_norm",
    "max_entry_norm",
]


class NonHermitianError(ValueError):
    """Input matrix is not equal to its conjugate transpose within tolerance."""


class NotPositiveSemidefiniteError(ValueError):
    """Input matrix has an eigenvalue below the PSD slack."""


class DimensionMismatchError(ValueError):
    """Operands act on spaces of different dimension."""


def as_matrix(a) -> np.ndarray:
    """Coerce input to a square complex128 matrix with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return m


def max_entry_norm(a: np.ndarray) -> float:
    return float(np.abs(a).max())


def require_hermitian(a, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Validate Hermiticity and return the matrix (exactly symmetrized)."""
    m = as_matrix(a)
    scale = max(max_entry_norm(m), 1.0)
    residual = max_entry_norm(m - m.conj().T)
    if residual > tol.herm * scale:
        raise NonHermitianError(
            f"Hermiticity residual {residual:.3e} exceeds {tol.herm:.1e} * {scale:.3e}"
        )
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct (clustered) eigenvalues with their orthogonal projectors.

    Eigenvalues are strictly increasing; projectors are Hermitian, mutually
    orthogonal, and sum to the identity.  Degenerate eigenvalues (within the
    clustering gap used at construction) share a single projector, so rank may
    exceed one.
    """

    eigenvalues: np.ndarray
    projectors: list = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        if len(self.eigenvalues) != len(self.projectors):
            raise ValueError("eigenvalue/projector count mismatch")
        if len(self.eigenvalues) == 0:
            raise ValueError("empty decomposition")
        if np.any(np.diff(self.eigenvalues) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for val, proj in zip(self.eigenvalues, self.projectors):
            out += val * proj
        return out

    def check(self, tol: Tolerances = DEFAULT) -> None:
        """Raise if orthogonality or completeness fails."""
        total = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for i, p in enumerate(self.projectors):
            total += p
            for j, q in enumerate(self.projectors):
                prod = p @ q
                target = p if i == j else 0.0
                if max_entry_norm(prod - target) > tol.num:
                    raise ValueError(f"projectors {i},{j} not orthogonal/idempotent")
        if max_entry_norm(total - np.eye(self.dim)) > tol.num:
            raise ValueError("projectors do not sum to the identity")


def _cluster(sorted_vals: np.ndarray, gap: float) -> list:
    """Single-linkage sweep: indices whose neighbours are closer than `gap`
    join one cluster."""
    groups = [[0]]
    for k in range(1, len(sorted_vals)):
        if sorted_vals[k] - sorted_vals[k - 1] < gap:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def spectral_decompose(
    a, degeneracy_gap: float = 1e-8, tol: Tolerances = DEFAULT
) -> SpectralDecomposition:
    """Projection-valued presentation of a Hermitian matrix.

    Raw eigenvalues closer than `degeneracy_gap` are merged into one cluster;
    the cluster's projector is the sum of its rank-1 eigenvector outer
    products, and its eigenvalue the rank-weighted mean.  Eigenvector phases
    inside a cluster never escape: only the projector is returned.
    """
    if degeneracy_gap <= 0:
        raise ValueError("degeneracy_gap must be positive")
    m = require_hermitian(a, tol)
    vals, vecs = np.linalg.eigh(m)
    eigenvalues = []
    projectors = []
    for group in _cluster(vals, degeneracy_gap):
        block = vecs[:, group]
        projectors.append(block @ block.conj().T)
        eigenvalues.append(float(np.mean(vals[group])))
    return SpectralDecomposition(np.array(eigenvalues), projectors)


def psd_sqrt(q, tol: Tolerances = DEFAULT) -> np.ndarray:
    """The unique positive semi-definite square root of a PSD matrix: the
    single-matrix case of `batched_psd_sqrt`, after `require_hermitian`.

    Every eigenvalue below tol.psd, positive ones included, is set to zero
    before the root; anything below -tol.psd raises
    `NotPositiveSemidefiniteError`.
    """
    return batched_psd_sqrt(require_hermitian(q, tol), tol)


def batched_psd_sqrt(stack: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """PSD square roots of a stack (..., d, d) of Hermitian matrices.

    Eigenvalues below tol.psd are clamped to zero, so the root does not
    amplify eigensolver noise; any eigenvalue below -tol.psd raises
    `NotPositiveSemidefiniteError`.  The cut stays absolute because the step
    sampler relies on it: a unit-trace effect whose eigenvalues all lie below
    tol.psd gets a zero root, so its prefix has no mass left and the sampler
    raises.
    """
    herm = 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))
    vals, vecs = np.linalg.eigh(herm)
    if vals.min() < -tol.psd:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {vals.min():.3e} below -{tol.psd:.1e}"
        )
    root_vals = np.sqrt(np.where(vals < tol.psd, 0.0, vals))
    return np.einsum("...ik,...k,...jk->...ij", vecs, root_vals, vecs.conj())


def is_psd(q, tol: Tolerances = DEFAULT) -> bool:
    m = require_hermitian(q, tol)
    return bool(np.linalg.eigvalsh(m)[0] >= -tol.psd)


def commutator_norm(a, b) -> float:
    """Max-entry magnitude of AB - BA."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shapes {ma.shape} and {mb.shape} differ")
    return max_entry_norm(ma @ mb - mb @ ma)
