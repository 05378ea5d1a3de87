"""Seeded input generation.

Every input the program receives is built here from a numpy Generator, so
one seed always yields the same matrices, states and tables.  Sizes and
structure are fixed per workload; the seed only chooses values, which keeps
the amount of work in a run independent of the seed.
"""

from __future__ import annotations

import numpy as np


def unitary(rng, d: int) -> np.ndarray:
    """Haar-random unitary (QR of a complex Gaussian with fixed phases)."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian_from_basis(basis: np.ndarray, labels) -> np.ndarray:
    """Matrix with eigenvector basis[:, k] at eigenvalue labels[k]."""
    vals = np.asarray(labels, dtype=float)
    m = (basis * vals) @ basis.conj().T
    return 0.5 * (m + m.conj().T)


def outcome_labels(rng, d: int, ranks) -> np.ndarray:
    """Eigenvalue label per basis vector: outcome k (value k) repeated
    ranks[k] times, assigned to the basis vectors in a seeded order."""
    labels = np.repeat(np.arange(len(ranks), dtype=float), ranks)
    if labels.size != d:
        raise ValueError(f"ranks {ranks} do not add up to {d}")
    return labels[rng.permutation(d)]


def near_unbiased_basis(rng, d: int, spread: float) -> np.ndarray:
    """A basis whose overlaps with the computational basis are 1/d up to a
    small seeded perturbation: Fourier matrix, random phases, and a rotation
    exp(i*spread*H) with H a unit-norm random Hermitian."""
    k = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    phases = np.exp(2j * np.pi * rng.random(d))
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (h + h.conj().T)
    vals, vecs = np.linalg.eigh(h / np.abs(np.linalg.eigvalsh(h)).max())
    rotation = (vecs * np.exp(1j * spread * vals)) @ vecs.conj().T
    return (phases[:, None] * fourier) @ rotation


def density(rng, d: int, rank: int | None = None) -> np.ndarray:
    rank = d if rank is None else rank
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def unit_vector(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_observable_matrix(rng, d: int, ranks) -> np.ndarray:
    return hermitian_from_basis(unitary(rng, d), outcome_labels(rng, d, ranks))


def commuting_family(rng, d: int, rank_lists) -> list:
    """Observables sharing one random eigenbasis."""
    basis = unitary(rng, d)
    return [hermitian_from_basis(basis, outcome_labels(rng, d, ranks))
            for ranks in rank_lists]


def random_povm_set(rng, d: int, count: int) -> list:
    """`count` PSD operators summing to the identity: G_k whitened by the
    inverse root of their sum."""
    gs = []
    for _ in range(count):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gs.append(g @ g.conj().T)
    total = sum(gs)
    vals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    out = []
    for g in gs:
        q = inv_root @ g @ inv_root
        out.append(0.5 * (q + q.conj().T))
    return out


def stochastic(rng, rows: int, cols: int) -> np.ndarray:
    table = rng.dirichlet(np.ones(cols), size=rows)
    # Dirichlet rows sum to 1 only up to rounding; fix the last column.
    table[:, -1] = 1.0 - table[:, :-1].sum(axis=1)
    return table


def spin(theta: float) -> np.ndarray:
    """cos(theta) Z + sin(theta) X: a +/-1-valued qubit observable."""
    return np.array([[np.cos(theta), np.sin(theta)],
                     [np.sin(theta), -np.cos(theta)]], dtype=np.complex128)


def werner(visibility: float) -> np.ndarray:
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return visibility * np.outer(psi, psi) + (1.0 - visibility) * np.eye(4) / 4.0
