import numpy as np
import pytest

from collapsekit import AlgebraicState
from collapsekit.measurement import observable

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return AlgebraicState(rho / np.trace(rho).real)


def random_unit_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_observable(rng, dim, name="A"):
    return observable(name, random_hermitian(rng, dim))


def direction_observable(name, theta):
    """Spin measurement along an angle in the Z-X plane: +/-1 outcomes."""
    return observable(name, np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X)


def singlet_state():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return AlgebraicState.pure(psi)


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def philox_uniforms(seed, runs, n):
    """The chain sampler's documented substreams: run r owns row r of one
    Philox stream keyed by the seed."""
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return gen.random((runs, n))


def reference_leftfold(stacks, density, uniforms, floor=1e-12):
    """Step sampler with one accumulated root per run, renormalised to unit
    trace after every step.

    stacks[k] is the projector stack of step k.  Returns (outcomes, margin):
    margin[r] is the smallest distance between one of run r's uniforms and an
    interior CDF boundary along its path.  Eigenvalues below `floor` (of the
    unit-trace effect) count as zero."""
    runs, n = uniforms.shape
    dim = density.shape[0]
    roots = np.broadcast_to(np.eye(dim, dtype=np.complex128), (runs, dim, dim)).copy()
    outcomes = np.empty((runs, n), dtype=np.int64)
    margin = np.full(runs, np.inf)
    for k, stack in enumerate(stacks):
        conditional = roots @ density @ roots
        probs = np.clip(np.einsum("rab,jba->rj", conditional, stack).real, 0.0, None)
        probs /= probs.sum(axis=1, keepdims=True)
        inner = np.cumsum(probs, axis=1)[:, :-1]
        u = uniforms[:, k]
        idx = (inner <= u[:, None]).sum(axis=1)
        outcomes[:, k] = idx
        if inner.shape[1]:
            margin = np.minimum(margin, np.abs(inner - u[:, None]).min(axis=1))
        grown = roots @ stack[idx] @ roots
        grown /= np.trace(grown, axis1=1, axis2=2).real[:, None, None]
        vals, vecs = np.linalg.eigh(0.5 * (grown + grown.conj().swapaxes(1, 2)))
        root_vals = np.sqrt(np.where(vals < floor, 0.0, vals))
        roots = (vecs * root_vals[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    return outcomes, margin


def assert_same_draws(outcomes, reference, margin, boundary=1e-9):
    """Runs differ only where a uniform lies within `boundary` of a CDF
    boundary of the reference path."""
    assert outcomes.shape == reference.shape
    differs = (outcomes != reference).any(axis=1)
    assert not (differs & (margin > boundary)).any(), (
        f"{int((differs & (margin > boundary)).sum())} runs differ from the reference"
    )
