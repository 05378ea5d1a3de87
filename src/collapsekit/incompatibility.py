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

import numpy as np

from .collapse_product import JointDistribution
from .config import DEFAULT, Tolerances
from .measurement import AlgebraicState, Observable, clamp_probabilities
from .operator_core import commute
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
# Largest exact minimum violation that `admits_global_joint` still calls
# feasible.
FEASIBLE_VIOLATION = Fraction(1, 10**9)


@dataclass(frozen=True)
class MarginalProblem:
    """Named axes with sample spaces, plus context distributions over subsets
    of the axes.  Each context names declared axes, one per axis of its
    distribution and of the same length, and its distribution passes
    `JointDistribution.check`; a refused context k raises `ValueError` with
    a message that starts with `contexts[k]`."""

    axes: dict                    # name -> list of sample values
    contexts: list                # list of (axis-name tuple, JointDistribution)

    def __post_init__(self):
        for k, (names, dist) in enumerate(self.contexts):
            undeclared = [name for name in names if name not in self.axes]
            if undeclared:
                raise ValueError(f"contexts[{k}]: undeclared axes {undeclared}")
            declared = tuple(len(self.axes[name]) for name in names)
            lengths = tuple(len(ax) for ax in dist.axes)
            if lengths != declared:
                raise ValueError(f"contexts[{k}]: axes of lengths {lengths} for "
                                 f"{names}, declared with {declared}")
            try:
                dist.check()
            except ValueError as exc:
                raise ValueError(f"contexts[{k}]: {exc}") from exc

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
                        tol: Tolerances = DEFAULT) -> FeasibilityVerdict:
    """Exact-rational feasibility of the marginal problem.

    Variables are the probabilities of full outcome tuples; each context entry
    contributes one equality constraint.  Phase-1 simplex minimizes the total
    violation exactly; floating-point context tables are taken at their exact
    dyadic values, so verdicts are stable down to `FEASIBLE_VIOLATION`.
    Tuple spaces larger than MAX_TUPLES raise ValueError."""
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
    if result.feasible(FEASIBLE_VIOLATION):
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


def _context_tables(state: AlgebraicState, a_pair, b_pair, tol: Tolerances) -> list:
    """The four setting tables p_ij(a, b) = Tr[rho (P_a (x) Q_b)] of a
    two-party experiment, clamped, as [[A1B1, A1B2], [A2B1, A2B2]], after
    the CHSH input checks."""
    _check_chsh_inputs(state, a_pair, b_pair, tol)
    # rho[(a, b), (a', b')] as rho[a, b, a', b'], so Tr[rho (P (x) Q)] is
    # one contraction over both factors.
    da, db = a_pair[0].dim, b_pair[0].dim
    rho = state.density.reshape(da, db, da, db)
    return [[clamp_probabilities(
                np.einsum("abcd,ica,jdb->ij", rho, a.projectors, b.projectors).real, tol)
             for b in b_pair] for a in a_pair]


def _correlators(state: AlgebraicState, a_pair, b_pair, tol: Tolerances) -> np.ndarray:
    """E(A_i B_j) = sum_ab a b p_ij(a, b) over the context tables, as (2, 2)."""
    tables = _context_tables(state, a_pair, b_pair, tol)
    return np.array([[a.sample_space @ table @ b.sample_space
                      for b, table in zip(b_pair, row)]
                     for a, row in zip(a_pair, tables)])


def chsh_value(state: AlgebraicState, a1: Observable, a2: Observable,
               b1: Observable, b2: Observable, tol: Tolerances = DEFAULT) -> float:
    """|E(A1B1) + E(A1B2) + E(A2B1) - E(A2B2)| for +/-1-valued observables on
    the two tensor factors, with each correlator taken from the setting
    table that `chsh_marginal_problem` uses.  Raises if the quantum bound
    2*sqrt(2) is exceeded beyond tolerance."""
    e = _correlators(state, (a1, a2), (b1, b2), tol)
    value = float(abs(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]))
    if value > CHSH_QUANTUM_BOUND + tol.num:
        raise ValueError(f"CHSH value {value!r} exceeds the quantum bound")
    return value


def chsh_max_over_signs(state: AlgebraicState, a1: Observable, a2: Observable,
                        b1: Observable, b2: Observable,
                        tol: Tolerances = DEFAULT) -> float:
    """Maximum of the eight CHSH combinations (one minus sign in any slot,
    either overall sign): max |sum E - 2 E_ij|.  For 2-setting/2-outcome
    no-signalling marginals, a global joint exists iff this maximum is at
    most 2."""
    e = _correlators(state, (a1, a2), (b1, b2), tol)
    return float(np.abs(e.sum() - 2.0 * e).max())


def chsh_marginal_problem(state: AlgebraicState, a1: Observable, a2: Observable,
                          b1: Observable, b2: Observable,
                          tol: Tolerances = DEFAULT) -> MarginalProblem:
    """The four pairwise setting distributions of a two-party experiment as a
    marginal problem over axes (A1, A2, B1, B2)."""
    tables = _context_tables(state, (a1, a2), (b1, b2), tol)
    a_named, b_named = (("A1", a1), ("A2", a2)), (("B1", b1), ("B2", b2))
    axes = {name: [float(v) for v in obs.sample_space] for name, obs in (*a_named, *b_named)}
    contexts = []
    for (a_name, a), row in zip(a_named, tables):
        for (b_name, b), table in zip(b_named, row):
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
    if not (commute(x.matrix(), a.matrix(), tol) and commute(x.matrix(), b.matrix(), tol)):
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
