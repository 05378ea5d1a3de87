"""Commeasurability analysis: does a family of context distributions extend
to one global joint distribution?

Feasibility is decided by an exact-rational linear program over the full
tuple space, so the verdict carries no float ambiguity beyond the final
comparison of the minimum slack against a tolerance.  When no global joint
exists, a CHSH-style witness and a single noncommutative state can still
model the contexts; the state search uses alternating projections between the
PSD cone and the affine constraint set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .collapse_product import JointDistribution
from .config import DEFAULT, Tolerances
from .measurement import AlgebraicState, Observable, clamp_probabilities
from .operator_core import commutator_norm
from .rational_lp import feasibility_lp

__all__ = [
    "MarginalProblem",
    "FeasibilityVerdict",
    "admits_global_joint",
    "chsh_value",
    "chsh_max_over_signs",
    "chsh_marginal_problem",
    "noncommutative_unifying_state",
    "StateSearchResult",
]

CHSH_QUANTUM_BOUND = 2.0 * np.sqrt(2.0)
# Largest tuple space admits_global_joint accepts: the largest size measured
# to finish in under a minute (pairwise marginals of a Dirichlet joint over
# 4x4x8x8, 4x4x4x4x4 and ten binary axes took 7 s or less on 2 CPUs).
MAX_TUPLES = 1024


@dataclass(frozen=True)
class MarginalProblem:
    """Named axes with sample spaces, plus context distributions over subsets
    of the axes."""

    axes: dict                    # name -> list of sample values
    contexts: list                # list of (axis-name tuple, JointDistribution)

    def __post_init__(self):
        for names, dist in self.contexts:
            if len(names) != len(dist.axes):
                raise ValueError(f"context {names} arity mismatch")
            for name, ax in zip(names, dist.axes):
                if len(self.axes[name]) != len(ax):
                    raise ValueError(f"axis {name} size mismatch in context {names}")
            dist.check()

    def axis_order(self) -> list:
        return list(self.axes)

    def check_shared_marginals(self, tol: Tolerances = DEFAULT) -> None:
        """Shared axes must induce consistent single-axis marginals across
        contexts; otherwise the marginal problem is ill-posed."""
        seen = {}
        for names, dist in self.contexts:
            for k, name in enumerate(names):
                marg = dist.marginal([k]).probabilities
                if name in seen:
                    if np.abs(marg - seen[name]).max() > tol.num:
                        raise ValueError(
                            f"inconsistent marginals for shared axis {name!r}"
                        )
                else:
                    seen[name] = marg


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    # Global joint table over the problem's axis order when feasible.
    joint: JointDistribution | None
    # Coefficients of a violated inequality (one per context entry, plus the
    # normalization row) when infeasible.
    certificate: list | None
    # Exact minimum total constraint violation, as a float for reporting.
    violation: float


def admits_global_joint(problem: MarginalProblem,
                        tolerance: Fraction = Fraction(1, 10**9),
                        tol: Tolerances = DEFAULT) -> FeasibilityVerdict:
    """Exact-rational feasibility of the marginal problem.

    Variables are the probabilities of full outcome tuples; each context entry
    contributes one equality constraint.  Phase-1 simplex minimizes the total
    violation exactly; floating-point context tables are taken at their exact
    dyadic values, so verdicts are stable down to `tolerance`.  Tuple spaces
    larger than MAX_TUPLES raise ValueError."""
    problem.check_shared_marginals(tol)
    order = problem.axis_order()
    sizes = [len(problem.axes[name]) for name in order]
    n_tuples = int(np.prod(sizes))
    if n_tuples > MAX_TUPLES:
        raise ValueError(f"tuple space of size {n_tuples} exceeds the guard of "
                         f"{MAX_TUPLES} tuples")
    index = {name: k for k, name in enumerate(order)}

    # Tuples run in C order over `sizes`; each context's rows are the
    # indicators of its entries, also in C order.
    grid = np.indices(sizes).reshape(len(sizes), n_tuples)
    blocks = []
    rhs = []
    labels = []
    for names, dist in problem.contexts:
        shape = dist.probabilities.shape
        entry = np.ravel_multi_index(grid[[index[name] for name in names]], shape)
        blocks.append(np.arange(int(np.prod(shape)))[:, None] == entry)
        rhs.extend(Fraction(float(v)) for v in dist.probabilities.ravel())
        labels.extend((names, combo) for combo in np.ndindex(shape))
    blocks.append(np.ones((1, n_tuples), dtype=bool))
    rhs.append(Fraction(1))
    labels.append(("normalization", ()))
    rows = np.concatenate(blocks).astype(np.int64)

    result = feasibility_lp(rows, rhs)
    if result.feasible(tolerance):
        probs = np.array([float(v) for v in result.solution]).reshape(sizes)
        total = probs.sum()
        joint = JointDistribution(
            [np.asarray(problem.axes[name], dtype=float) for name in order],
            probs / total if total > 0 else probs,
        )
        return FeasibilityVerdict(True, joint, None, float(result.violation))
    certificate = [
        (label, float(coef)) for label, coef in zip(labels, result.certificate)
        if coef != 0
    ]
    return FeasibilityVerdict(False, None, certificate, float(result.violation))


def _bipartite_correlator(state: AlgebraicState, a: Observable, b: Observable) -> float:
    return float(np.real(state.expect(np.kron(a.matrix(), b.matrix()))))


def _check_chsh_inputs(state, a_pair, b_pair, tol):
    da = a_pair[0].dim
    db = b_pair[0].dim
    if a_pair[1].dim != da or b_pair[1].dim != db:
        raise ValueError("the two settings of a party act on different dimensions")
    if da * db != state.dim:
        raise ValueError("state dimension is not the product of the factor dims")
    for obs in (*a_pair, *b_pair):
        if not np.all(np.isin(np.round(obs.sample_space).astype(int), (-1, 1))) or \
                np.abs(obs.sample_space - np.round(obs.sample_space)).max() > tol.num:
            raise ValueError(f"observable {obs.name} has non-(+/-1) sample space")


def chsh_value(state: AlgebraicState, a1: Observable, a2: Observable,
               b1: Observable, b2: Observable, tol: Tolerances = DEFAULT) -> float:
    """|E(A1B1) + E(A1B2) + E(A2B1) - E(A2B2)| for +/-1-valued observables on
    the two tensor factors.  Raises if the quantum bound 2*sqrt(2) is exceeded
    beyond tolerance."""
    _check_chsh_inputs(state, (a1, a2), (b1, b2), tol)
    e = [[_bipartite_correlator(state, a, b) for b in (b1, b2)] for a in (a1, a2)]
    value = abs(e[0][0] + e[0][1] + e[1][0] - e[1][1])
    if value > CHSH_QUANTUM_BOUND + tol.num:
        raise ValueError(f"CHSH value {value!r} exceeds the quantum bound")
    return value


def chsh_max_over_signs(state: AlgebraicState, a1: Observable, a2: Observable,
                        b1: Observable, b2: Observable,
                        tol: Tolerances = DEFAULT) -> float:
    """Maximum of the eight CHSH combinations (one minus sign in any slot,
    either overall sign).  For 2-setting/2-outcome no-signalling marginals, a
    global joint exists iff this maximum is at most 2."""
    _check_chsh_inputs(state, (a1, a2), (b1, b2), tol)
    e = np.array([[_bipartite_correlator(state, a, b) for b in (b1, b2)]
                  for a in (a1, a2)])
    best = 0.0
    for i, j in product(range(2), range(2)):
        signs = np.ones((2, 2))
        signs[i, j] = -1.0
        best = max(best, abs(float((signs * e).sum())))
    return best


def chsh_marginal_problem(state: AlgebraicState, a1: Observable, a2: Observable,
                          b1: Observable, b2: Observable,
                          tol: Tolerances = DEFAULT) -> MarginalProblem:
    """The four pairwise setting distributions of a two-party experiment as a
    marginal problem over axes (A1, A2, B1, B2)."""
    _check_chsh_inputs(state, (a1, a2), (b1, b2), tol)
    # rho[(a, b), (a', b')] as rho[a, b, a', b'], so Tr[rho (P (x) Q)] is
    # one contraction over both factors.
    rho = state.density.reshape(a1.dim, b1.dim, a1.dim, b1.dim)
    axes = {}
    contexts = []
    for a_name, a in (("A1", a1), ("A2", a2)):
        axes[a_name] = [float(v) for v in a.sample_space]
    for b_name, b in (("B1", b1), ("B2", b2)):
        axes[b_name] = [float(v) for v in b.sample_space]
    for a_name, a in (("A1", a1), ("A2", a2)):
        for b_name, b in (("B1", b1), ("B2", b2)):
            table = clamp_probabilities(
                np.einsum("abcd,ica,jdb->ij", rho, a.projectors, b.projectors).real, tol)
            dist = JointDistribution(
                [np.asarray(a.sample_space), np.asarray(b.sample_space)], table
            )
            contexts.append(((a_name, b_name), dist))
    return MarginalProblem(axes, contexts)


@dataclass(frozen=True)
class StateSearchResult:
    status: str                   # "found" or "inconclusive"
    state: AlgebraicState | None
    residual: float
    iterations: int


def noncommutative_unifying_state(
    p_xa: JointDistribution, p_xb: JointDistribution,
    x: Observable, a: Observable, b: Observable,
    max_iter: int = 100_000, residual_tol: float = 1e-9,
    tol: Tolerances = DEFAULT,
) -> StateSearchResult:
    """Search for a single density operator reproducing both context tables.

    Constraints: Tr[rho P_x P_u] = p_XA(x, u) and Tr[rho P_x P_v] = p_XB(x, v),
    rho PSD with unit trace.  X must commute with both A and B so the
    constraint operators are Hermitian.  Alternating projections between the
    affine constraint set and the PSD cone; exhausting the budget reports
    inconclusive rather than infeasible."""
    if commutator_norm(x.matrix(), a.matrix()) > tol.num or \
            commutator_norm(x.matrix(), b.matrix()) > tol.num:
        raise ValueError("X must commute with A and with B")
    dim = x.dim
    products = [np.eye(dim, dtype=np.complex128)[None]]
    for obs, dist in ((a, p_xa), (b, p_xb)):
        if dist.shape != (x.n_outcomes, obs.n_outcomes):
            raise ValueError("context table shape does not match the observables")
        products.append((x.projectors[:, None] @ obs.projectors).reshape(-1, dim, dim))
    m = np.concatenate(products)
    operators = 0.5 * (m + m.conj().swapaxes(1, 2))
    targets = np.concatenate([[1.0], p_xa.probabilities.ravel(), p_xb.probabilities.ravel()])
    # For Hermitian M, Tr[M X] is the conjugate of M's entries dotted with X's.
    flat = operators.reshape(len(operators), -1)
    rows = flat.conj()

    def traces(rho: np.ndarray) -> np.ndarray:
        return (rows @ rho.ravel()).real

    # Least-squares projector onto the affine set via the (pseudo)inverse of
    # the Gram matrix of the constraint operators.
    gram = (rows @ flat.T).real
    gram_pinv = np.linalg.pinv(gram, rcond=1e-12)

    def project_affine(rho: np.ndarray) -> np.ndarray:
        lam = gram_pinv @ (traces(rho) - targets)
        out = rho - np.tensordot(lam, operators, 1)
        return 0.5 * (out + out.conj().T)

    def project_psd(rho: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
        return (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T

    rho = np.eye(dim, dtype=np.complex128) / dim
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        # A PSD projection has no negative eigenvalue to add to the residual.
        rho = project_psd(project_affine(rho))
        residual = float(np.abs(traces(rho) - targets).max())
        if residual <= residual_tol:
            trace = float(np.trace(rho).real)
            return StateSearchResult(
                "found", AlgebraicState(rho / trace, tol), residual, iteration
            )
    return StateSearchResult("inconclusive", None, residual, max_iter)
