"""Dense complex-matrix substrate: Hermiticity checks, spectral decompositions
with first-class degeneracy handling, PSD square roots, and projector
arithmetic.

A family of operators (the projectors of a decomposition or a PVM, the
effects of a POVM) is stored as one read-only complex128 (n, d, d) stack,
so consumers index, slice and contract it without re-stacking or copying.
One check per operator family, each over the whole stack:
`require_effects` (POVMs, Q sets, effect tables) and `require_projectors`
(PVMs, spectral decompositions).  One PSD rule, `require_psd_spectra`, and
one PSD root, `batched_psd_sqrt` with its cut `psd_sqrt_spectra`, serve the
whole package; no other module reads tol.psd.  One commutation rule,
`commute`, on the one batched commutator `commutator_norms`, serves every
commutation test; no other module computes a commutator.

Everything here is a pure function over immutable numpy arrays; matrices are
dense complex128 and desk-scale (dim <= 64 by intent, not enforcement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT, Tolerances, is_finite_real

__all__ = [
    "NonHermitianError",
    "NotPositiveSemidefiniteError",
    "DimensionMismatchError",
    "SpectralDecomposition",
    "as_matrix",
    "require_hermitian",
    "require_effects",
    "require_projectors",
    "require_psd_spectra",
    "spectral_decompose",
    "psd_sqrt",
    "psd_sqrt_spectra",
    "batched_psd_sqrt",
    "is_psd",
    "commutator_norm",
    "commutator_norms",
    "commute",
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


def _family(operators, tol: Tolerances, what: str) -> np.ndarray:
    """A finite, non-empty (n, d, d) stack of operators, each Hermitian as
    `require_hermitian` demands, summing to I; returned exactly symmetrized."""
    stack = np.asarray(operators, dtype=np.complex128)
    if (stack.ndim != 3 or min(stack.shape) < 1 or stack.shape[1] != stack.shape[2]
            or not np.isfinite(stack).all()):
        raise ValueError(f"expected a finite non-empty (n, d, d) stack, got shape {stack.shape}")
    adjoint = np.conj(np.swapaxes(stack, -1, -2))
    scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
    bad = np.flatnonzero(np.abs(stack - adjoint).max(axis=(1, 2)) > tol.herm * scale)
    if bad.size:
        raise NonHermitianError(f"{what} {bad.tolist()} not Hermitian within {tol.herm:.1e}")
    stack = 0.5 * (stack + adjoint)
    residual = max_entry_norm(stack.sum(axis=0) - np.eye(stack.shape[-1]))
    if residual > tol.num:
        raise ValueError(f"{what} do not sum to the identity (residual {residual:.3e})")
    return stack


def require_effects(operators, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Validate a family of effects and return it as one (n, d, d) stack,
    exactly symmetrized: each Hermitian within tol.herm, PSD within tol.psd,
    and all summing to I within tol.num."""
    stack = _family(operators, tol, "effects")
    require_psd_spectra(np.linalg.eigvalsh(stack), tol, "effect")
    return stack


def require_projectors(operators, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Validate a PVM and return it as one (n, d, d) stack, exactly
    symmetrized: each Hermitian within tol.herm (else oblique idempotents
    pass), P_i P_j = delta_ij P_i and all summing to I within tol.num."""
    stack = _family(operators, tol, "projectors")
    for i, p in enumerate(stack):
        products = p @ stack
        products[i] -= p
        residual = np.abs(products).max(axis=(1, 2))
        if residual.max() > tol.num:
            raise ValueError(f"projectors {i},{residual.argmax()} not orthogonal/"
                             f"idempotent (residual {residual.max():.3e})")
    return stack


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct (clustered) eigenvalues with their orthogonal projectors.

    Eigenvalues are strictly increasing; projectors are Hermitian, mutually
    orthogonal, and sum to the identity.  Degenerate eigenvalues (within the
    clustering gap used at construction) share a single projector, so rank may
    exceed one.  `projectors` is stored as a read-only (n, d, d) stack,
    `ranks` holds each rank and `frames` an orthonormal basis of each range.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        # A copy, so the caller's arrays stay writable; numpy names the
        # shape of ragged input in its own ValueError.
        projectors = np.array(self.projectors, dtype=np.complex128)
        if projectors.ndim != 3 or projectors.shape[1] != projectors.shape[2]:
            raise ValueError(f"expected an (n, d, d) projector stack, got shape {projectors.shape}")
        projectors.setflags(write=False)
        object.__setattr__(self, "projectors", projectors)
        if len(self.eigenvalues) != len(self.projectors):
            raise ValueError("eigenvalue/projector count mismatch")
        if len(self.eigenvalues) == 0:
            raise ValueError("empty decomposition")
        if np.any(np.diff(self.eigenvalues) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.projectors.shape[-1]

    @cached_property
    def ranks(self) -> np.ndarray:
        """The rank of each projector, its trace rounded to an integer, as a
        read-only (n,) int64 array: the package's one rank rule."""
        ranks = np.rint(np.einsum("jaa->j", self.projectors).real).astype(np.int64)
        ranks.setflags(write=False)
        return ranks

    @cached_property
    def frames(self) -> np.ndarray:
        """The frame V_i = [B_i | 0] of each outcome, as a read-only (n, d, w)
        stack: B_i is an orthonormal basis of range(P_i), so P_i = V_i V_i^H,
        and zero columns pad it to the largest rank w.  Computed on first use
        from the top `ranks` eigenvectors of one `eigh` of the projector
        stack, however the decomposition was built."""
        vecs = np.linalg.eigh(self.projectors)[1][..., ::-1]
        width = max(int(self.ranks.max()), 1)
        frames = vecs[..., :width] * (np.arange(width) < self.ranks[:, None])[:, None]
        frames.setflags(write=False)
        return frames

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for val, proj in zip(self.eigenvalues, self.projectors):
            out += val * proj
        return out

    def check(self, tol: Tolerances = DEFAULT) -> None:
        """Raise unless the projectors are a PVM (`require_projectors`)."""
        require_projectors(self.projectors, tol)


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
    if not is_finite_real(degeneracy_gap) or degeneracy_gap <= 0:
        raise ValueError(f"degeneracy_gap must be a finite positive real number, "
                         f"got {degeneracy_gap!r}")
    m = require_hermitian(a, tol)
    vals, vecs = np.linalg.eigh(m)
    groups = _cluster(vals, degeneracy_gap)
    blocks = [vecs[:, group] for group in groups]
    return SpectralDecomposition([vals[g].mean() for g in groups],
                                 [b @ b.conj().T for b in blocks])


def require_psd_spectra(vals: np.ndarray, tol: Tolerances = DEFAULT,
                        what: str = "matrix") -> None:
    """Raise `NotPositiveSemidefiniteError` if an ascending spectrum of
    `vals` (..., d) has an eigenvalue below -tol.psd: the package's PSD rule."""
    lowest = np.asarray(vals)[..., 0]
    if lowest.min() < -tol.psd:
        at = f" {lowest.argmin()}" if lowest.ndim else ""
        raise NotPositiveSemidefiniteError(
            f"{what}{at} has eigenvalue {lowest.min():.3e} below -{tol.psd:.1e}"
        )


def psd_sqrt(q, tol: Tolerances = DEFAULT) -> np.ndarray:
    """The unique PSD square root of a PSD matrix: `batched_psd_sqrt`, with
    its trace-relative cut, after `require_hermitian`, which refuses the
    non-Hermitian input that `batched_psd_sqrt` would only symmetrise."""
    return batched_psd_sqrt(require_hermitian(q, tol), tol)


def psd_sqrt_spectra(vals: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """The square roots of PSD spectra (..., d), in place, past the package's
    one cut: each spectrum of sum T zeroes its values below clip(tol.psd * T,
    0, tol.psd).  Eigensolver noise gets no root, yet below unit trace the
    root is scale-free, sqrt(c X) = sqrt(c) sqrt(X); the clip at 0 spares an
    all-zero matrix whose trace rounds below zero."""
    cut = vals.sum(axis=-1, keepdims=True)
    cut *= tol.psd
    np.minimum(np.maximum(cut, 0.0, out=cut), tol.psd, out=cut)
    vals[vals < cut] = 0.0
    return np.sqrt(vals, out=vals)


def batched_psd_sqrt(stack: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """PSD square roots of a stack (..., d, d) of Hermitian matrices: the
    one PSD root of the package.

    Each matrix takes the roots of its eigenvalues by `psd_sqrt_spectra`,
    whose cut zeroes eigensolver noise.  An eigenvalue below -tol.psd
    raises.
    """
    herm = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    vals, vecs = np.linalg.eigh(herm)
    if vals[..., 0].min() < -tol.psd:
        require_psd_spectra(vals, tol)
    psd_sqrt_spectra(vals, tol)
    adjoint = vecs.conj().swapaxes(-1, -2)
    vecs *= vals[..., None, :]
    return vecs @ adjoint


def is_psd(q, tol: Tolerances = DEFAULT) -> bool:
    try:
        require_psd_spectra(np.linalg.eigvalsh(require_hermitian(q, tol)), tol)
    except NotPositiveSemidefiniteError:
        return False
    return True


def commutator_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-entry magnitudes of A B - B A over two stacks (..., d, d) that
    broadcast against each other, by one batched product each way: the
    package's one commutator kernel."""
    c = a @ b
    c -= b @ a
    return np.abs(c.reshape(c.shape[:-2] + (c.shape[-2] * c.shape[-1],))).max(axis=-1)


def commutator_norm(a, b) -> float:
    """Max-entry magnitude of AB - BA."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shapes {ma.shape} and {mb.shape} differ")
    return float(commutator_norms(ma, mb))


def commute(a: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT) -> bool:
    """Whether A B = B A for every pair of matrices of two stacks (..., d, d)
    that broadcast together: the package's one commutation rule.  Rounding
    grows with scale, so each commutator's largest entry may be at most
    tol.num * max(1, max|A| max|B|).  Sizes that differ raise."""
    if a.shape[-2:] != b.shape[-2:]:
        raise DimensionMismatchError(f"matrices of {a.shape[-2:]} and {b.shape[-2:]}")
    scale = np.abs(a).max(axis=(-2, -1)) * np.abs(b).max(axis=(-2, -1))
    return bool((commutator_norms(a, b) <= tol.num * np.maximum(scale, 1.0)).all())
