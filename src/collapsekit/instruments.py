"""System-plus-ancilla unitary models of sequential measurements.

A measurement is implemented by a controlled pointer shift: the unitary
U = sum_i P_i (x) S_i, where S_i is the ancilla transposition exchanging the
ready pointer |0> with the outcome pointer |i+1>.  On the defining slice this
gives U (|a_i> (x) |ready>) = |a_i> (x) |pointer_i>; the completion on the
unused subspace never affects the extracted probabilities.  With Hermitian
P_i, U^H U - I = (sum_i P_i - I) (x) I + sum_ij (P_i P_j - delta_ij P_i) (x) S_i S_j,
so U is unitary exactly when {P_i} is a PVM: `require_projectors` certifies
it without forming U^H U.

Two instruments in sequence act on a (system, pointer A, pointer B) tensor:
each one's own unitary, reshaped to (system, pointer, system, pointer), is
contracted over the system and its own pointer, so no operator on the full
space is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collapse_product import JointDistribution, require_table_size
from .config import DEFAULT, Tolerances
from .measurement import Observable, VectorState, clamp_probabilities
from .operator_core import DimensionMismatchError

__all__ = [
    "Instrument",
    "InstrumentModel",
    "JointInstrument",
    "build_instrument",
    "sequential_probabilities",
    "interference_comparison",
    "interference_from_joint",
    "luders_duality_check",
    "build_joint_instrument",
    "joint_instrument_probabilities",
    "LudersDualityReport",
]


def _exchange_ready(pointer: np.ndarray, target: int | np.ndarray) -> np.ndarray:
    """Pointer indices after exchanging the ready pointer 0 with `target`."""
    return np.where(pointer == 0, target, np.where(pointer == target, 0, pointer))


@dataclass(frozen=True)
class Instrument:
    """One measurement instrument: observable, ancilla, pointer unitary."""

    observable: Observable
    ancilla_dim: int
    unitary: np.ndarray        # acts on system (x) ancilla

    @property
    def system_dim(self) -> int:
        return self.observable.dim

    @property
    def n_outcomes(self) -> int:
        return self.observable.n_outcomes

    def pointer_state(self, outcome: int | None) -> np.ndarray:
        """Ancilla basis vector: the ready state for None, else outcome i."""
        idx = 0 if outcome is None else outcome + 1
        e = np.zeros(self.ancilla_dim, dtype=np.complex128)
        e[idx] = 1.0
        return e


def build_instrument(a: Observable, ancilla_dim: int,
                     tol: Tolerances = DEFAULT) -> Instrument:
    """Controlled pointer-shift unitary for one observable.

    Requires ancilla_dim >= n_outcomes + 1 (ready pointer plus one pointer per
    outcome).  Degenerate eigenspaces share a pointer; the projectors must be
    a PVM, which makes U unitary.  The dense U, (d a)^2 complex entries, is
    refused by `require_table_size` before it is allocated."""
    if ancilla_dim < a.n_outcomes + 1:
        raise ValueError(
            f"ancilla dim {ancilla_dim} < {a.n_outcomes + 1} (outcomes + ready)"
        )
    require_table_size((a.dim * ancilla_dim,) * 2, 16)
    a.decomposition.check(tol)
    exchanges = np.eye(ancilla_dim)[_exchange_ready(
        np.arange(ancilla_dim), np.arange(1, a.n_outcomes + 1)[:, None])]
    u = np.einsum("iab,ikl->akbl", a.projectors, exchanges)
    return Instrument(a, ancilla_dim, u.reshape(a.dim * ancilla_dim, -1))


@dataclass(frozen=True)
class InstrumentModel:
    """Two instruments applied in sequence to one system."""

    first: Instrument
    second: Instrument

    def __post_init__(self):
        if self.first.system_dim != self.second.system_dim:
            raise DimensionMismatchError("instruments act on different systems")

    @property
    def system_dim(self) -> int:
        return self.first.system_dim


def _pointer_readout(final: np.ndarray, na: int, nb: int,
                     tol: Tolerances) -> np.ndarray:
    """Probabilities of pointer pairs (i+1, j+1) in a (system, pointer A,
    pointer B) tensor, renormalised after checking they sum to one."""
    return clamp_probabilities(
        np.sum(np.abs(final[:, 1:na + 1, 1:nb + 1]) ** 2, axis=0), tol
    )


def sequential_probabilities(model: InstrumentModel, psi: VectorState,
                             tol: Tolerances = DEFAULT) -> JointDistribution:
    """Pointer-basis Born probabilities after both instruments fire.

    Prepares |psi> (x) |ready_A> (x) |ready_B> as a (system, pointer A,
    pointer B) tensor, applies U_A and then U_B each on its own pointer, and
    reads the probability of pointer pair (i, j); the result coincides with
    the collapse-product joint for the same observables and state."""
    if psi.dim != model.system_dim:
        raise DimensionMismatchError("vector/system dimension mismatch")
    a, b = model.first, model.second
    d, da, db = model.system_dim, a.ancilla_dim, b.ancilla_dim
    state = np.zeros((d, da, db), dtype=np.complex128)
    state[:, 0, 0] = psi.amplitudes
    state = np.einsum("skte,tel->skl", a.unitary.reshape(d, da, d, da), state)
    state = np.einsum("slte,tke->skl", b.unitary.reshape(d, db, d, db), state)
    probs = _pointer_readout(state, a.n_outcomes, b.n_outcomes, tol)
    axes = [np.asarray(a.observable.sample_space), np.asarray(b.observable.sample_space)]
    return JointDistribution(axes, probs)


def interference_comparison(model: InstrumentModel, psi: VectorState,
                            tol: Tolerances = DEFAULT) -> list:
    """Per outcome of the second observable: (P with the first measured,
    P with the first never made).

    The first column averages over the first instrument's results; the second
    is the bare Born probability.  The columns differ by interference terms
    unless the observables commute on the support of psi."""
    return interference_from_joint(sequential_probabilities(model, psi, tol),
                                   model.second.observable, psi)


def interference_from_joint(joint: JointDistribution, b: Observable,
                            psi: VectorState) -> list:
    """`interference_comparison` from pointer statistics already computed:
    `joint` is `sequential_probabilities` of a model whose second observable
    is `b`, for the same psi."""
    measured = joint.probabilities.sum(axis=0)
    vec = psi.amplitudes
    unmeasured = (b.projectors @ vec @ vec.conj()).real
    return [
        (float(b.sample_space[j]), float(measured[j]), float(unmeasured[j]))
        for j in range(b.n_outcomes)
    ]


@dataclass(frozen=True)
class LudersDualityReport:
    outcomes: np.ndarray
    transformed_measurement: np.ndarray   # sum_i P_i Q_j P_i evaluated in |psi>
    transformed_state: np.ndarray         # Q_j evaluated in sum_i P_i |psi><psi| P_i
    max_deviation: float


def luders_duality_check(a: Observable, b: Observable, psi: VectorState) -> LudersDualityReport:
    """Evaluate both sides of the transformed-measurement vs transformed-state
    identity; they agree by trace cyclicity, here computed independently."""
    if not (a.dim == b.dim == psi.dim):
        raise DimensionMismatchError("dimension mismatch")
    vec = psi.amplitudes
    p, q = a.projectors, b.projectors
    rho = np.outer(vec, vec.conj())
    transformed_state = (p @ rho @ p).sum(0)
    # sum_i P_i Q_j P_i for every j.
    transformed_meas = (p @ q[:, None] @ p).sum(1)
    lhs = (transformed_meas @ vec @ vec.conj()).real
    rhs = np.einsum("jab,ba->j", q, transformed_state).real
    return LudersDualityReport(
        outcomes=np.asarray(b.sample_space),
        transformed_measurement=lhs,
        transformed_state=rhs,
        max_deviation=float(np.abs(lhs - rhs).max()),
    )


@dataclass(frozen=True)
class JointInstrument:
    """Single instrument AB on the enlarged space whose pointer statistics
    reproduce a target joint distribution."""

    basis_tuples: list           # outcome tuple per enlarged basis vector
    primed_first: np.ndarray     # diagonal A'
    primed_second: np.ndarray    # diagonal B'
    psi: np.ndarray              # |psi_AB> with |<ab_ij|psi>|^2 = target
    unitary: np.ndarray          # U_AB on enlarged system (x) anc_A (x) anc_B
    ancilla_dims: tuple
    axes: list

    @property
    def enlarged_dim(self) -> int:
        return len(self.basis_tuples)


def build_joint_instrument(dist_target: JointDistribution,
                           ancilla_dims: tuple | None = None,
                           tol: Tolerances = DEFAULT) -> JointInstrument:
    """Enlarged-space realization of a target pair distribution.

    The enlarged system has one basis vector per outcome tuple; A' and B' are
    the commuting diagonals of the tuple coordinates; |psi_AB> carries the
    nonnegative square roots of the target probabilities (phases are free and
    fixed to be real); U_AB is the controlled double pointer shift, a dense
    (T d_A d_B)^2 matrix over T tuples, refused by `require_table_size`
    before it is allocated."""
    if len(dist_target.axes) != 2:
        raise ValueError("joint instrument targets a pair distribution")
    dist_target.check(tol)
    na, nb = dist_target.shape
    if ancilla_dims is None:
        ancilla_dims = (na + 1, nb + 1)
    da, db = ancilla_dims
    if da < na + 1 or db < nb + 1:
        raise ValueError("ancilla too small for the outcome counts")
    n_tuples = na * nb
    require_table_size((n_tuples * da * db,) * 2, 16)
    tuples = dist_target.tuples()
    primed_a = np.array([t[0] for t in tuples])
    primed_b = np.array([t[1] for t in tuples])
    psi = np.sqrt(dist_target.probabilities.ravel()).astype(np.complex128)
    # U_AB is the permutation |t, k, l> -> |t, s_i(k), s_j(l)> with
    # (i, j) = divmod(t, nb), where s_m exchanges the ready pointer 0 with m.
    t, k, l = np.indices((n_tuples, da, db)).reshape(3, -1)
    i, j = divmod(t, nb)
    image = np.ravel_multi_index(
        (t, _exchange_ready(k, i + 1), _exchange_ready(l, j + 1)),
        (n_tuples, da, db),
    )
    u = np.zeros((t.size, t.size), dtype=np.complex128)
    u[image, np.arange(t.size)] = 1.0
    return JointInstrument(
        basis_tuples=tuples,
        primed_first=primed_a,
        primed_second=primed_b,
        psi=psi,
        unitary=u,
        ancilla_dims=(da, db),
        axes=[np.asarray(ax) for ax in dist_target.axes],
    )


def joint_instrument_probabilities(model: JointInstrument,
                                   tol: Tolerances = DEFAULT) -> JointDistribution:
    """Pointer statistics of the AB instrument applied to its own |psi_AB>."""
    da, db = model.ancilla_dims
    initial = np.zeros((model.enlarged_dim, da, db), dtype=np.complex128)
    initial[:, 0, 0] = model.psi
    final = (model.unitary @ initial.ravel()).reshape(initial.shape)
    probs = _pointer_readout(final, len(model.axes[0]), len(model.axes[1]), tol)
    return JointDistribution(list(model.axes), probs)
