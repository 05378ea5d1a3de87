"""Long-sequence measurement sampling under a chosen collapse convention.

Randomness comes from the counter-based Philox generator keyed by the chain
seed; run r owns the r-th row of the counter space, so runs are independent
substreams that can be evaluated in any order with byte-identical results.

Two mechanisms are provided: step-by-step sampling with a collapse of the
state after every outcome (the left-fold convention, constant memory in the
chain length), and direct sampling of the exact effect table for any
bracketing.  For the left fold the two induce the same distribution.  The
exact table holds one d x d entry per outcome tuple, so its size, not a
fixed step count, bounds the chain: `collapse_product.require_table_size`
refuses a table past `MAX_TABLE_BYTES` or 32 axes with `TableTooLargeError`
before allocating it.  The samplers' outcome arrays go through the same
check.

The per-step collapse tracks the PSD root S of the accumulated effect
(S <- sqrt(S P S)); the conditional state after k outcomes is S rho S up to
normalization.  This coincides with the Luders operation at the first step
and for chains of length two, and for longer chains it is the collapse whose
step-by-step law equals the left-fold effect table.  Conjugating with the raw
projector at every step instead would reproduce the right-fold table
(P_1 ... P_n ... P_1), not the left fold.

After the first outcome the accumulated root is a multiple of its projector
P, and every later root sqrt(S P' S) has its range inside range(S).  So the
step sampler carries each root, state and projector in an orthonormal basis
of range(P): r x r matrices for a rank-r first outcome instead of d x d.
When P has rank one the root is a constant, |v><v|: the later measurements
then act as commuting (QND) operators, and every later step draws from
<v|P'|v> alone.  The same holds after any later outcome whose projector has
rank one.  The rank of a projector is its trace.

Otherwise the root depends on the run only through its outcome prefix, so
the step sampler keeps one root per distinct prefix: the cost of a step
scales with the number of distinct prefixes (at most the product of the
outcome counts so far), not with the number of runs.  A prefix whose root
has rank one stops branching.  Every new root is taken of S P S rescaled to
unit trace.  The probabilities are scale-free and the root is positively
homogeneous, so this changes no outcome, but it keeps the prefix's mass
from underflowing at any chain length.  A prefix whose mass vanishes anyway
raises `ZeroProbabilityOutcomeError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .collapse_product import (
    FOLD_TREES,
    BracketTree,
    JointDistribution,
    TableTooLargeError,
    collapse_effect_tree,
    joint_distribution,
    require_table_size,
    total_variation,
)
from .config import DEFAULT, Tolerances
from .measurement import AlgebraicState, Observable, ZeroProbabilityOutcomeError
from .operator_core import batched_psd_sqrt

__all__ = [
    "ChainSpec",
    "OutcomeRecord",
    "TableTooLargeError",
    "sample_chain_leftfold",
    "sample_chain_tree",
    "sample_distribution",
    "exact_chain_distribution",
    "empirical_distribution",
    "compare_conventions",
    "ConventionComparison",
    "records",
]

CONVENTIONS = tuple(FOLD_TREES)

@dataclass(frozen=True)
class ChainSpec:
    """A measurement sequence plus a collapse convention and an RNG seed.

    `observables` is cycled to reach `length` when shorter."""

    observables: list
    length: int
    convention: object = "left_fold"     # name or explicit BracketTree
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("chain length must be >= 1")
        if not self.observables:
            raise ValueError("at least one observable required")
        if isinstance(self.convention, str) and self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} outside [0, 2**64)")

    def sequence(self) -> list:
        return [self.observables[k % len(self.observables)]
                for k in range(self.length)]

    def tree(self) -> BracketTree:
        if isinstance(self.convention, str):
            return FOLD_TREES[self.convention](self.length)
        tree = self.convention
        if tree.leaves != tuple(range(self.length)):
            raise ValueError("explicit tree does not match the chain length")
        return tree


@dataclass(frozen=True)
class OutcomeRecord:
    run_id: int
    outcomes: tuple

    def line(self) -> str:
        return f"{self.run_id}\t" + ",".join(str(i) for i in self.outcomes)


def records(outcomes: np.ndarray):
    """View a (runs, n) outcome-index array as OutcomeRecord objects."""
    for r, row in enumerate(outcomes.tolist()):
        yield OutcomeRecord(r, tuple(row))


def _uniform_block(seed: int, runs: int, n: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return gen.random((runs, n))


def sample_chain_leftfold(spec: ChainSpec, rho0: AlgebraicState, runs: int,
                          tol: Tolerances = DEFAULT) -> np.ndarray:
    """Step-by-step sampling: at each step draw an outcome from the current
    conditional state's probabilities, then fold that outcome's projector into
    the accumulated effect root.

    Every root lives on the range of the first outcome's projector, so
    roots are r x r for a first outcome of rank r.  Runs that share an
    outcome prefix share one root, so a step costs one eigensolve per
    distinct (prefix, outcome) pair, however many runs there are.  Once a
    prefix includes an outcome of rank one, its root is fixed at |u><u| and
    its runs draw each later outcome from <u|P|u>: for a non-degenerate
    first observable no eigensolve follows the first step.  Each root is taken of
    S P S rescaled to unit trace, which leaves the outcomes unchanged and
    keeps the prefix's mass from underflowing.  A prefix whose conditional
    mass vanishes (below tol.prob of the root's own scale) raises
    `ZeroProbabilityOutcomeError` instead of forcing an outcome.

    Returns outcome indices of shape (runs, n).  The uniforms and the
    outcomes take 16 B per run and step, under `require_table_size`."""
    if spec.convention != "left_fold":
        raise ValueError("step sampling is defined for the left_fold convention")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    sequence = spec.sequence()
    d = rho0.dim
    if any(obs.dim != d for obs in sequence):
        raise ValueError("observable/state dimension mismatch")
    require_table_size((runs, spec.length), 16)
    uniforms = _uniform_block(spec.seed, runs, spec.length)
    return _leftfold_draws([obs.projectors for obs in sequence], rho0.density,
                           uniforms, np.eye(d, dtype=np.complex128), tol)


def _require_mass(mass: np.ndarray, floor) -> None:
    if not (mass > floor).all():
        raise ZeroProbabilityOutcomeError(
            f"an outcome prefix carries mass {mass.min():.3e}; "
            "it cannot be conditioned on"
        )


def _ranks(projs: np.ndarray) -> np.ndarray:
    """The rank of each projector of a stack: its trace."""
    return np.rint(np.einsum("jaa->j", projs).real)


def _draw(roots, states, projs, group, u, tol: Tolerances) -> np.ndarray:
    """One step of every run: the outcome its uniform selects by inverse CDF
    from its group's conditional probabilities.

    Group g has the accumulated root roots[g], the state states[g] and the
    projector stack projs[g], all in one frame; group[r] is run r's group."""
    conditional = roots @ states @ roots
    probs = np.clip(np.einsum("gab,gjba->gj", conditional, projs).real, 0.0, None)
    mass = probs.sum(axis=1)
    # Tr[S rho S] against Tr[S S]: unchanged when S is rescaled.
    scale = np.einsum("gab,gab->g", roots, roots.conj()).real
    _require_mass(mass, tol.prob * scale)
    cum = np.cumsum(probs / mass[:, None], axis=1)
    # The outcome is the number of interior CDF boundaries at or below u,
    # gathered boundary by boundary so each row of the comparison is one
    # contiguous pass over the runs.
    inner = np.ascontiguousarray(cum[:, :-1].T)
    return (np.take(inner, group, axis=1) <= u).sum(axis=0)


def _regroup(group, idx, branches, n_outcomes):
    """Regroup runs by (group, outcome); a group that no longer branches
    keeps all its runs.  Returns the runs' new groups and each new group's
    parent group and outcome (0 where the parent does not branch).  The key
    range is at most groups * n_outcomes, so a lookup table replaces a sort."""
    keys = group * n_outcomes + idx
    seen = np.zeros((len(branches), n_outcomes), dtype=bool)
    seen.reshape(-1)[keys] = True
    seen[~branches] = np.arange(n_outcomes) == 0
    parent, last = np.divmod(np.flatnonzero(seen), n_outcomes)
    return (np.cumsum(seen) - 1)[keys], parent, last


def _unit_trace(grown: np.ndarray) -> np.ndarray:
    trace = np.einsum("gaa->g", grown).real
    _require_mass(trace, 0.0)        # never divide by a rounded-off zero
    return grown / trace[:, None, None]


def _leftfold_draws(stacks: list, density: np.ndarray, uniforms: np.ndarray,
                    root: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The step sampler's draws from an initial accumulated root `root`.

    stacks[k] is the (n_k, d, d) projector stack of step k; row r of
    `uniforms` drives run r by inverse CDF over the outcomes in order."""
    runs, n = uniforms.shape
    outcomes = np.empty((runs, n), dtype=np.int64)
    first = stacks[0]
    group = np.zeros(1, dtype=np.int64)     # one group, broadcast over the runs
    idx = _draw(root[None], density[None], first[None], group, uniforms[:, 0], tol)
    outcomes[:, 0] = idx
    if n == 1:
        return outcomes
    # One group per first outcome drawn.  Its roots stay inside the range of
    # R P R (R = root, P its projector), which the top eigenvectors of R P R
    # span: the group's frame, as wide as the largest rank drawn.
    group, _, drawn = _regroup(group, idx, np.ones(1, dtype=bool), len(first))
    rank = _ranks(first)[drawn]
    width = int(rank.max())
    vals, vecs = np.linalg.eigh(_unit_trace(root @ first[drawn] @ root))
    frames = vecs[..., -width:]
    adjoint = frames.conj().swapaxes(1, 2)
    states = adjoint @ density @ frames
    # R P R in its frame is diagonal: I_r / r for R = I.
    eye = np.eye(width, dtype=np.complex128)
    roots = batched_psd_sqrt(eye * vals[:, None, -width:], tol)
    home = np.arange(len(drawn))             # group -> its first outcome's frame
    # A root of rank one stays |u><u| for ever, so its group stops branching.
    branches = rank > 1
    for k in range(1, n):
        projs = adjoint[:, None] @ stacks[k] @ frames[:, None]
        idx = _draw(roots, states[home], projs[home], group, uniforms[:, k], tol)
        outcomes[:, k] = idx
        if k + 1 == n or not branches.any():
            continue
        group, parent, last = _regroup(group, idx, branches, len(stacks[k]))
        grow = branches[parent]
        branches = grow & (_ranks(stacks[k])[last] > 1)
        home, roots = home[parent], roots[parent]
        s = roots[grow]
        grown = s @ projs[home[grow], last[grow]] @ s
        roots[grow] = batched_psd_sqrt(_unit_trace(grown), tol)
    return outcomes


def exact_chain_distribution(spec: ChainSpec, rho0: AlgebraicState,
                             tol: Tolerances = DEFAULT) -> JointDistribution:
    """The exact joint distribution of the chain under its bracketing.
    Raises `TableTooLargeError` when the effect table is past the size
    guard."""
    table = collapse_effect_tree(spec.sequence(), spec.tree(), tol)
    return joint_distribution(table, rho0, tol)


def sample_chain_tree(spec: ChainSpec, rho0: AlgebraicState, runs: int,
                      tol: Tolerances = DEFAULT) -> np.ndarray:
    """Sample outcome tuples directly from the bracketing's exact joint
    distribution (one uniform per run from the run's substream)."""
    return sample_distribution(exact_chain_distribution(spec, rho0, tol),
                               spec.seed, runs)


def sample_distribution(dist: JointDistribution, seed: int, runs: int) -> np.ndarray:
    """Outcome-index tuples drawn from a joint table by inverse CDF over its
    C-order entries, one uniform per run from the run's substream of `seed`.
    `sample_chain_tree` is this applied to the chain's exact table.  The
    tuples and the index arrays they are stacked from take 16 B per run and
    axis, under `require_table_size`."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    require_table_size((runs, len(dist.shape)), 16)
    cum = np.cumsum(dist.probabilities.ravel())
    cum[-1] = 1.0
    uniforms = _uniform_block(seed, runs, 1)[:, 0]
    flat_idx = np.searchsorted(cum, uniforms, side="right")
    multi = np.unravel_index(flat_idx, dist.shape)
    return np.stack(multi, axis=1).astype(np.int64, copy=False)


def empirical_distribution(outcomes: np.ndarray, spec: ChainSpec) -> JointDistribution:
    """Relative tuple frequencies of an outcome array on the chain's sample
    space.  The float64 table must pass `require_table_size`."""
    sequence = spec.sequence()
    shape = tuple(obs.n_outcomes for obs in sequence)
    require_table_size(shape, 8)
    counts = np.zeros(shape)
    flat_idx = np.ravel_multi_index(tuple(outcomes.T), shape)
    np.add.at(counts.ravel(), flat_idx, 1.0)
    counts = counts.reshape(shape)
    return JointDistribution(
        [np.asarray(obs.sample_space) for obs in sequence],
        counts / outcomes.shape[0],
    )


@dataclass(frozen=True)
class ConventionComparison:
    conventions: list
    exact: list = field(repr=False)
    empirical: list = field(repr=False)
    exact_tv: dict
    empirical_tv: dict
    exact_vs_empirical_tv: dict


def compare_conventions(specs: list, rho0: AlgebraicState, runs: int,
                        tol: Tolerances = DEFAULT) -> ConventionComparison:
    """Exact and empirical total-variation distances between conventions.

    All specs must share the same observable sequence; each is sampled from
    its own table, then pairwise TV distances are reported for both the exact
    tables and the empirical frequencies."""
    base = specs[0].sequence()
    for s in specs[1:]:
        if [o.name for o in s.sequence()] != [o.name for o in base]:
            raise ValueError("conventions must share the observable sequence")
    exact = [exact_chain_distribution(s, rho0, tol) for s in specs]
    empirical = [
        empirical_distribution(sample_chain_tree(s, rho0, runs, tol), s)
        for s in specs
    ]
    names = [str(s.convention) for s in specs]
    exact_tv = {}
    empirical_tv = {}
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            key = (names[i], names[j])
            exact_tv[key] = total_variation(exact[i], exact[j])
            empirical_tv[key] = total_variation(empirical[i], empirical[j])
    vs = {names[i]: total_variation(exact[i], empirical[i])
          for i in range(len(specs))}
    return ConventionComparison(names, exact, empirical, exact_tv, empirical_tv, vs)
