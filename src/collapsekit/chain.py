"""Long-sequence measurement sampling under a chosen collapse convention.

Randomness comes from the counter-based Philox generator keyed by the chain
seed; run r owns the r-th row of the counter space, so runs are independent
substreams that can be evaluated in any order with byte-identical results.
`_uniforms_at` reads any stretch of that stream: the step sampler reads
its (runs, n) uniforms from position 0, and a block of the table sampler
reads its own, so the table sampler runs independent blocks in lanes on up
to one thread per usable CPU, each lane on one bit generator, and the
draws do not depend on how many threads there are.  `write_records` writes
sampled outcomes as text, one line `run_id<TAB>i1,...,in` per run.

Two mechanisms are provided: step-by-step sampling with a collapse of the
state after every outcome (the left-fold convention, constant memory in the
chain length), and direct sampling of the exact joint distribution under any
of the three named folds of `FOLD_TREES` (left, right and reverse).  For the
left fold that exact law is the step sampler's own recursion run over every
outcome prefix instead of the drawn ones, with the same frames and root
updates, so the two mechanisms agree by construction; the other folds trace
the effect table of `collapse_effect_tree`.
The CLI's `joint` and `equivalence` take their law from here too.  The
table sampler searches the flattened CDF by guide table (indexed search)
over the entries that can be drawn and gathers each run's outcome tuple
whole, with the draws of one binary search per run.  The effect table
holds one d x d entry per outcome tuple, and its size, not a fixed step
count, bounds the chain under every fold:
`collapse_product.require_table_size` refuses a chain whose table would be
past `MAX_TABLE_BYTES` or 32 axes with `TableTooLargeError` before anything
is built.  The samplers' outcome arrays go through the same check.

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
The prefix recursion works in the frames the observable's
`SpectralDecomposition` keeps, the same frames the effect tables use, and
reads r from its `ranks`.  When P has rank one the root is a constant,
|v><v|: the later measurements then act as commuting (QND) operators, and
every later step draws from <v|P'|v> alone.  The same holds after any later
outcome whose projector has rank one.

Otherwise the root depends on the run only through its outcome prefix, so
the step sampler keeps one root per distinct prefix: the cost of a step
scales with the number of distinct prefixes (at most the product of the
outcome counts so far), not with the number of runs.  A prefix whose root
has rank one stops branching.  Once no prefix branches, every root, state
and group is fixed for the rest of the chain, and the step sampler draws
all remaining steps in one pass: one CDF table per position in the cycle of
observables, computed as a single step computes it, so a million-step chain
costs a few CDF tables and one comparison per run and step.  Every new root
is taken of S P S rescaled to unit trace.  The probabilities are scale-free
and the root is positively homogeneous, so this changes no outcome, but it
keeps the prefix's mass from underflowing at any chain length.  An outcome
that keeps at most tol.prob of Tr[S S] cannot be conditioned on: the
sampler raises `ZeroProbabilityOutcomeError` when a prefix's whole mass is
cut, and from the second step on the exact law gives such an outcome's
tuples exact zeros, never rounding residue.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .collapse_product import (
    FOLD_TREES,
    BracketTree,
    JointDistribution,
    TableTooLargeError,
    collapse_effect_tree,
    effect_table_shape,
    joint_distribution,
    require_table_size,
    total_variation,
)
from .config import DEFAULT, Tolerances
from .measurement import (
    AlgebraicState,
    Observable,
    ZeroProbabilityOutcomeError,
    clamp_probabilities,
)
from .operator_core import (
    DimensionMismatchError,
    SpectralDecomposition,
    batched_psd_sqrt,
    psd_sqrt_spectra,
)

__all__ = [
    "ChainSpec",
    "TableTooLargeError",
    "sample_chain_leftfold",
    "sample_chain_tree",
    "sample_distribution",
    "exact_chain_distribution",
    "empirical_distribution",
    "compare_conventions",
    "ConventionComparison",
    "write_records",
]

CONVENTIONS = tuple(FOLD_TREES)

# Runs per block of the table sampler, and cells per block of the step
# sampler's draws and of the record writer (run ids and outcomes).  A block
# of the table sampler draws its own uniforms from its position in the
# seed's stream, and independent blocks run in lanes on `_workers` threads
# (`_each_block`).  Each block's temporaries take a few hundred kB, so a
# call's working memory beyond its uniforms and outcomes is a few hundred
# kB per thread, whatever the run count or the chain length.  The table
# sampler's guide table has at least min(runs, _BLOCK) buckets, at most
# 256 kB more than one bucket per drawable entry.
_BLOCK = 2**15
# Blocks per thread at the least.  Starting a thread and waking it on
# another CPU took about 0.3 ms on a 2-CPU machine, as long as one to three
# blocks, so a second thread pays for itself from about 8 blocks each.
_BLOCKS_PER_THREAD = 8


@dataclass(frozen=True)
class ChainSpec:
    """A measurement sequence plus a collapse convention and an RNG seed.

    `observables` is cycled to reach `length` when shorter.  `convention`
    names one of the folds in `CONVENTIONS`.  `length` and `seed` are
    integers (not bools), with length >= 1 and seed in [0, 2**64).  Each
    refused field raises `ValueError` with a message that starts with the
    field's name."""

    observables: list
    length: int
    convention: str = "left_fold"
    seed: int = 0

    def __post_init__(self):
        if not self.observables:
            raise ValueError("at least one observable required")
        if not isinstance(self.convention, str) or self.convention not in CONVENTIONS:
            raise ValueError(f"convention: expected one of {CONVENTIONS}, "
                             f"got {self.convention!r}")
        _require_integer("length", self.length, 1)
        _require_integer("seed", self.seed, 0, 2**64)

    def sequence(self) -> list:
        return [self.observables[k % len(self.observables)]
                for k in range(self.length)]

    def tree(self) -> BracketTree:
        return FOLD_TREES[self.convention](self.length)


def _require_integer(name: str, value, low: int, high: float = math.inf) -> None:
    """Raise ValueError, with a message that starts with `name`, unless
    `value` is an integer (not a bool) in [low, high)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    if not low <= value < high:
        raise ValueError(f"{name} {value} outside [{low}, {high})")


def write_records(outcomes: np.ndarray, stream) -> None:
    """Write one line per run of the (runs, n) outcome-index array
    `outcomes` to the text stream `stream`: the run's row index r, a tab,
    its n outcome indices in decimal separated by commas, and a newline,
    as f"{r}\t" + ",".join(map(str, row)) + "\n" writes it.

    The lines are assembled as ASCII bytes in blocks of at most _BLOCK
    cells (a run id or an outcome), also cut where the run ids gain a
    digit, one `stream.write` per block, so the text held at once is one
    block.  The blocks are built in the caller's thread: one takes about
    0.1 ms, too short for a second thread to pay for its hand-offs."""
    outcomes = np.asarray(outcomes)
    if outcomes.ndim != 2 or outcomes.shape[1] < 1 or outcomes.dtype.kind not in "iu":
        raise ValueError("outcomes must be a (runs, n) integer array with n >= 1")
    if outcomes.size and outcomes.min() < 0:
        raise ValueError("outcome indices must be non-negative")
    runs, n = outcomes.shape
    cuts = sorted({*range(0, runs, max(1, _BLOCK // (n + 1))),
                   *(10**k for k in range(1, len(str(runs))))} - {runs})
    for lo, hi in zip(cuts, cuts[1:] + [runs]):
        stream.write(_ascii_lines(lo, outcomes[lo:hi]))


def _ascii_lines(first: int, block: np.ndarray) -> str:
    """The record lines of the rows of `block`, whose run ids first,
    first + 1, ... have one digit count.  The ids are written at that
    width and every outcome at the block's largest outcome width, zero
    padded on the left; the padding is then dropped where an outcome is
    narrower."""
    m, n = block.shape
    id_width = len(str(first + m - 1))
    width = len(str(block.max()))
    shape = (m, id_width + 1 + n * (width + 1))
    # Laid out position by position (one byte position of every line
    # contiguous), so that each pass below runs along the lines, not along
    # the few cells of one line; `tobytes` reads the lines in order.
    text = np.empty(shape[::-1], dtype=np.uint8).T
    cells = text[:, id_width + 1:].reshape(m, n, width + 1)
    _digits(np.arange(first, first + m), text[:, :id_width])
    _digits(block, cells[:, :, :width])
    text += ord("0")
    cells[:, :, width] = ord(",")
    text[:, id_width] = ord("\t")
    text[:, -1] = ord("\n")
    if width > 1 and block.min() < 10 ** (width - 1):
        keep = np.ones(shape, dtype=bool)
        lead = keep[:, id_width + 1:].reshape(m, n, width + 1)
        for p in range(width - 1):
            np.greater_equal(block, 10 ** (width - 1 - p), out=lead[:, :, p])
        text = np.ascontiguousarray(text)[keep]
    return text.tobytes().decode("ascii")


def _digits(values: np.ndarray, out: np.ndarray) -> None:
    """The decimal digits of the non-negative integers `values` (...) into
    out (..., w), the last digit last, zero-padded to w digits."""
    # In the narrowest type that holds the values: a floor division by a
    # constant is far cheaper than a remainder, and cheaper still narrow.
    if out.shape[-1] > 1:
        values = values.astype(np.min_scalar_type(values.max()))
    for p in range(out.shape[-1] - 1, 0, -1):
        tens = values // 10
        out[..., p] = values - tens * 10
        values = tens
    out[..., 0] = values


def _uniforms_at(seed: int, start: int, out: np.ndarray, stream=None):
    """Fill the 1-d float64 array `out` with the positions [start, start +
    len(out)) of `Generator(Philox(key=seed)).random`'s stream, and return
    the stream past them: a (generator, position) pair.

    Philox makes four doubles per counter step, and `advance` moves the
    counter and drops what is left of the current step.  So a generator is
    keyed, advanced by start // 4 steps, and start % 4 doubles are
    discarded.  A `stream` that an earlier call for this seed returned is
    advanced instead of keying a new one when its position is a multiple
    of 4 at or below start: keying took about 17 us on a 2-CPU machine
    with numpy 2.4, most of it OS entropy that the key then overrides,
    against about 4 us to advance."""
    if stream is None or stream[1] % 4 or stream[1] > start:
        stream = np.random.Generator(np.random.Philox(key=np.uint64(seed))), 0
    gen, at = stream
    gen.bit_generator.advance((start - at) // 4)
    gen.random(start % 4)
    gen.random(out=out)
    return gen, start + len(out)


def _index_type(largest: int) -> np.dtype:
    """The type of both samplers' outcomes: the narrowest signed integer
    type that holds the outcome indices 0 .. `largest`, int8 up to 127,
    int16 up to 32767, then int32.  Signed, as numpy's own indices are: an
    unsigned type widens when mixed with them (int8 with uint8 makes
    int16).  Widen (`astype(np.int64)`) before arithmetic whose result can
    pass the type."""
    return np.min_scalar_type(-1 - largest)


def _workers(blocks: int) -> int:
    """The threads that `blocks` independent blocks run on: one per
    _BLOCKS_PER_THREAD blocks, at most one per usable CPU (the affinity
    mask where the platform has one), and at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks // _BLOCKS_PER_THREAD))


def _each_block(work, starts: range, workers: int) -> None:
    """work(lane) for each of `workers` lanes of the independent blocks
    that start at `starts`: lane k holds every workers-th start from the
    k-th, in order.  Lane 0 runs in the caller's thread and each other lane
    in a helper that starts here and is joined before it returns.  An
    exception a lane raises is raised to the caller once every thread has
    stopped."""
    lanes = [starts[k::workers] for k in range(workers)]
    if workers == 1:
        work(lanes[0])
        return
    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(work, lane) for lane in lanes[1:]]
        work(lanes[0])
    for helper in helpers:
        helper.result()


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
    first observable no eigensolve follows the first step.  Once no root
    branches, every later step is drawn in one pass from one CDF table per
    position in the cycle of observables, with the arithmetic of a single
    step.  Each root is taken of S P S rescaled to unit trace, which leaves
    the outcomes unchanged and keeps the prefix's mass from underflowing.
    A prefix whose conditional mass vanishes (below tol.prob of the root's
    own scale) raises `ZeroProbabilityOutcomeError` instead of forcing an
    outcome.

    Returns outcome indices of shape (runs, n) in `_index_type` of the
    largest outcome index of the cycle.  The uniforms take 8 B per run and
    step and the outcomes 1 B below 129 outcomes; `require_table_size`
    refuses the call at 16 B per run and step."""
    if spec.convention != "left_fold":
        raise ValueError("step sampling is defined for the left_fold convention")
    _require_integer("runs", runs, 1)
    cycle = spec.observables[:spec.length]
    if any(obs.dim != rho0.dim for obs in cycle):
        raise DimensionMismatchError("observable/state dimension mismatch")
    require_table_size((runs, spec.length), 16)
    uniforms = np.empty((runs, spec.length))
    _uniforms_at(spec.seed, 0, uniforms.reshape(-1))
    return _leftfold_draws([obs.decomposition for obs in cycle], rho0.density,
                           uniforms, tol)


def _cut(values: np.ndarray, roots: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Which entries of `values` (g, ...) keep more than tol.prob of Tr[S S]
    for the root S = roots[g] of their group: what can be conditioned on.
    Unchanged when S and the values scale together."""
    scale = np.einsum("gab,gab->g", roots, roots.conj()).real
    return (values.T > tol.prob * scale).T


def _cdf(roots, states, projs, tol: Tolerances) -> np.ndarray:
    """The interior CDF boundaries (g, m - 1) of each group's conditional
    probabilities over its m outcomes.

    Group g has the accumulated root roots[g], the state states[g] and the
    projector stack projs[g], all in one frame.  A group whose mass
    Tr[S rho S] is cut by `_cut` raises `ZeroProbabilityOutcomeError`."""
    conditional = roots @ states @ roots
    probs = np.clip(np.einsum("gab,gjba->gj", conditional, projs).real, 0.0, None)
    mass = probs.sum(axis=1)
    if not _cut(mass, roots, tol).all():
        raise ZeroProbabilityOutcomeError(
            f"an outcome prefix carries mass {mass.min():.3e}; "
            "it cannot be conditioned on"
        )
    return np.cumsum(probs / mass[:, None], axis=1)[:, :-1]


def _count(inner, group, uniforms, out) -> None:
    """Inverse-CDF draws: out[r, k] is the number of interior boundaries
    inner[group[r]] at or below uniforms[r, k], for aligned (runs, steps)
    views `uniforms` and `out`, counted in out's type.

    The runs gather their boundaries, and compare them with their uniforms,
    in blocks of at most _BLOCK cells."""
    runs, cols = uniforms.shape
    inner = np.ascontiguousarray(inner.T)
    width = min(cols, _BLOCK)
    rows = max(1, _BLOCK // width)
    for lo in range(0, runs, rows):
        bounds = np.take(inner, group[lo:lo + rows], axis=1)[:, None]
        for at in range(0, cols, width):
            # Steps by runs, so each comparison is one pass over the runs.
            u = np.ascontiguousarray(uniforms[lo:lo + rows, at:at + width].T)
            out[lo:lo + rows, at:at + width].T[...] = (bounds <= u).sum(axis=0, dtype=out.dtype)


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


def _frames(first: SpectralDecomposition, heads: np.ndarray, density: np.ndarray,
            tol: Tolerances):
    """The frame of each first outcome in `heads` (outcome indices of the
    decomposition `first`), and what starts there.

    The roots of the prefixes that begin with outcome P stay inside the range
    of P, which its frame in `first.frames` spans, cut to the largest rank in
    `heads`.  Returns the (h, d, w) frames, the state in each frame, the
    (h, w, w) roots sqrt(P / Tr P) in their frames, and whether each root
    has rank above one; a root of rank one stays |u><u| for ever, so its
    prefix stops branching."""
    rank = first.ranks[heads]
    width = int(rank.max())
    frames = first.frames[heads, :, :width]
    states = frames.conj().swapaxes(1, 2) @ density @ frames
    # P / Tr P in its frame is diagonal, I_r / r then zero padding, and so
    # is its root.
    diagonal = np.where(np.arange(width) < rank[:, None], 1.0 / rank[:, None], 0.0)
    roots = np.eye(width, dtype=np.complex128) * psd_sqrt_spectra(diagonal, tol)[:, None]
    return frames, states, roots, rank > 1


def _in_frames(frames: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """A projector stack (n, d, d) in every frame (h, d, w): (h, n, w, w)."""
    return frames.conj().swapaxes(1, 2)[:, None] @ stack @ frames[:, None]


def _next_roots(roots: np.ndarray, projs: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The root after one more outcome: sqrt(S P S) rescaled to unit trace,
    for every root S and projector P of two aligned (g, w, w) stacks.  An
    outcome that keeps at most tol.prob of Tr[S S] cannot be conditioned on:
    its root is zero, never a rescaled rounding residue.  Both the cut and
    the root are unchanged when S is rescaled."""
    grown = roots @ projs @ roots
    trace = np.einsum("gaa->g", grown).real
    live = _cut(trace, roots, tol)[:, None, None]
    unit = np.divide(grown, trace[:, None, None], out=np.zeros_like(grown), where=live)
    return batched_psd_sqrt(unit, tol)


def _extend(roots, home, branches, parent, last, projs, ranks, tol: Tolerances):
    """The prefix step of the sampler and the law: prefix i becomes prefix
    parent[i] then outcome last[i] of the step, whose projectors in each
    frame are `projs` and whose ranks are `ranks`.  Returns the new roots,
    frames (home) and which roots still branch."""
    grow = branches[parent]
    home, roots = home[parent], roots[parent]
    roots[grow] = _next_roots(roots[grow], projs[home[grow], last[grow]], tol)
    return roots, home, grow & (ranks[last] > 1)


def _leftfold_draws(cycle: list, density: np.ndarray, uniforms: np.ndarray,
                    tol: Tolerances) -> np.ndarray:
    """The step sampler's draws.

    Step k measures the decomposition cycle[k % len(cycle)]; row r of
    `uniforms` drives run r by inverse CDF over the outcomes in order.
    Once no root branches, the roots, states, frames and groups are fixed,
    so all later steps at one position of the cycle draw from one CDF table
    in one pass.  Returns the (runs, n) outcomes in `_index_type` of the
    cycle's largest outcome index: 1 B per cell below 129 outcomes, next to
    the uniforms' 8 B."""
    runs, n = uniforms.shape
    c = len(cycle)
    outcomes = np.empty((runs, n), dtype=_index_type(max(len(s.ranks) for s in cycle) - 1))
    first = cycle[0]
    group = np.broadcast_to(np.int64(0), (runs,))     # one group for every run
    eye = np.eye(len(density), dtype=np.complex128)
    _count(_cdf(eye[None], density[None], first.projectors[None], tol), group,
           uniforms[:, :1], outcomes[:, :1])
    if n == 1:
        return outcomes
    # One group, and one frame, per first outcome drawn.
    group, _, drawn = _regroup(group, outcomes[:, 0], np.ones(1, dtype=bool), len(first.ranks))
    frames, states, roots, branches = _frames(first, drawn, density, tol)
    home = np.arange(len(drawn))             # group -> its first outcome's frame
    k = 1
    while k < n and branches.any():
        step = cycle[k % c]
        projs = _in_frames(frames, step.projectors)
        _count(_cdf(roots, states[home], projs[home], tol), group,
               uniforms[:, k:k + 1], outcomes[:, k:k + 1])
        if k + 1 < n:
            group, parent, last = _regroup(group, outcomes[:, k], branches, len(step.ranks))
            roots, home, branches = _extend(roots, home, branches, parent, last,
                                            projs, step.ranks, tol)
        k += 1
    # No root branches from step k on.
    for s in range(k, min(k + c, n)):
        projs = _in_frames(frames, cycle[s % c].projectors)
        _count(_cdf(roots, states[home], projs[home], tol), group,
               uniforms[:, s::c], outcomes[:, s::c])
    return outcomes


def _leftfold_law(steps: list, density: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Tr[rho E] for the left-fold effect E of every outcome tuple, in C
    order: the step sampler's recursion run over every prefix instead of
    the drawn ones, with the same frames and the same root updates.

    Each prefix of length 1 .. n-1 carries its root S at unit trace and its
    effect's trace t, a product of the shares Tr[S P S] of its outcomes; a
    tuple's probability is t Tr[S rho S P] of its last outcome, so no mass
    is divided by.  A share or last probability that `_cut` drops, as the
    root update drops its outcome, is an exact zero rather than rounding
    residue.  Prefixes sit in C order in groups, as in the sampler;
    group g has the root roots[g] in frame home[g].  While some root
    branches, every prefix is its own group and every outcome extends it;
    after that, each group serves the block of its m descendants."""
    first = steps[0]
    if len(steps) == 1:
        return np.einsum("ab,jba->j", density, first.projectors).real
    home = np.arange(len(first.ranks))
    frames, states, roots, branches = _frames(first, home, density, tol)
    mass = first.ranks[:, None]             # (groups, m): Tr P, the rank
    for step in steps[1:-1]:
        projs = _in_frames(frames, step.projectors)
        share = np.einsum("gab,gjba->gj", roots @ roots, projs[home]).real
        share = np.where(_cut(share, roots, tol), share, 0.0)
        mass = mass[..., None] * share[:, None]
        if branches.any():
            parent, last = np.divmod(np.arange(share.size), len(step.ranks))
            roots, home, branches = _extend(roots, home, branches, parent, last,
                                            projs, step.ranks, tol)
        mass = mass.reshape(len(roots), -1)
    conditional = roots @ states[home] @ roots
    projs = _in_frames(frames, steps[-1].projectors)
    probs = np.einsum("gab,gjba->gj", conditional, projs[home]).real
    probs = np.where(_cut(probs, roots, tol), probs, 0.0)
    return (mass[..., None] * probs[:, None]).ravel()


def _table_shape(spec: ChainSpec) -> tuple:
    """`effect_table_shape(spec.sequence())`, from one dimension and outcome
    count per observable of the cycle, without the sequence."""
    *counts, d, _ = effect_table_shape(spec.observables[:spec.length])
    cycles = -(-spec.length // len(counts))
    return (tuple(counts) * cycles)[:spec.length] + (d, d)


def exact_chain_distribution(spec: ChainSpec, rho0: AlgebraicState,
                             tol: Tolerances = DEFAULT) -> JointDistribution:
    """The exact joint distribution of the chain under its bracketing.

    The left fold's law is the step sampler's recursion over every outcome
    prefix: r x r roots in the frame of the first outcome, and probabilities
    alone at the last step.  The right and reverse folds trace the effect
    table of `collapse_effect_tree`.  Either way the probabilities are
    clamped and renormalised by `clamp_probabilities`.  Raises
    `TableTooLargeError` when the effect table is past the size guard, before
    the chain's sequence or tree is built."""
    shape = _table_shape(spec)
    require_table_size(shape, 16)
    sequence = spec.sequence()
    if spec.convention != "left_fold":
        table = collapse_effect_tree(sequence, spec.tree(), tol)
        return joint_distribution(table, rho0, tol)
    if shape[-1] != rho0.dim:
        raise DimensionMismatchError("effects/state dimension mismatch")
    raw = _leftfold_law([obs.decomposition for obs in sequence], rho0.density, tol)
    probs = clamp_probabilities(raw, tol).reshape(shape[:-2])
    return JointDistribution([np.asarray(obs.sample_space) for obs in sequence], probs)


def sample_chain_tree(spec: ChainSpec, rho0: AlgebraicState, runs: int,
                      tol: Tolerances = DEFAULT) -> np.ndarray:
    """Sample outcome tuples directly from the bracketing's exact joint
    distribution (one uniform per run from the run's substream), in the
    type `sample_distribution` returns."""
    return sample_distribution(exact_chain_distribution(spec, rho0, tol),
                               spec.seed, runs)


def sample_distribution(dist: JointDistribution, seed: int, runs: int) -> np.ndarray:
    """Outcome-index tuples drawn from a joint table by inverse CDF over its
    C-order entries, one uniform per run from the run's substream of `seed`.
    `sample_chain_tree` is this applied to the chain's exact table.

    The tuple drawn is the entry at the flat index `np.searchsorted(cdf, u,
    "right")`: the number of CDF values at or below u.  With fewer runs than
    entries, each run takes that binary search, a block of _BLOCK runs at a
    time in the order of their uniforms.  Otherwise only the K entries whose
    CDF value rises above the one before can be drawn, and their values are
    searched by a guide table (`_GuideTable`) of max(K, min(runs, _BLOCK))
    buckets: per run one indexed lookup and a bisection of fixed width,
    most often none, then one comparison, with the same float comparisons
    as the binary search.  Each run's tuple is then gathered whole from a
    table of the K drawable tuples in the outcomes' type, so the table is
    never larger than the outcomes.  Each block draws its own uniforms from
    its position in the seed's stream.  The blocks run in lanes on
    `_workers` threads (`_each_block`), and each lane keys one bit
    generator and advances it from block to block; no uniform array spans
    the runs.

    `seed` is an integer in [0, 2**64) and `runs` one of at least 1, not
    bools; either refused raises ValueError naming it.  Returns outcome
    indices of shape (runs, axes) in `_index_type` of the largest index,
    1 B per run and axis below 129 outcomes per axis; `require_table_size`
    refuses the call at 16 B per run and axis.

    Raises ValueError when the table has a non-finite or negative entry or
    does not sum to 1 within DEFAULT.num (`JointDistribution.check`)."""
    _require_integer("seed", seed, 0, 2**64)
    _require_integer("runs", runs, 1)
    shape = dist.shape
    require_table_size((runs, len(shape)), 16)
    dist.check()
    cum = np.cumsum(dist.probabilities.ravel())
    cum[-1] = 1.0
    index = _index_type(max(shape) - 1)
    if cum.size > runs:
        # Fewer runs than entries: a guide table would cost more to build
        # than it saves, so each run takes one binary search.  Searching a
        # block's uniforms in sorted order keeps the probes in cache.
        def pick(u):
            order = np.argsort(u)
            flat = np.empty(len(u), dtype=np.intp)
            flat[order] = np.searchsorted(cum, u[order], "right")
            return _unravel(flat, shape, index)
    else:
        rises = np.empty(cum.size, dtype=bool)
        rises[0] = cum[0] > 0.0
        np.greater(cum[1:], cum[:-1], out=rises[1:])
        drawable = np.flatnonzero(rises)
        # Each per-entry array is freed once used, to keep the peak memory low.
        values = cum.take(drawable)
        del cum
        rows = np.ascontiguousarray(_unravel(drawable, shape, index))
        del drawable
        search = _GuideTable(values, max(len(values), min(runs, _BLOCK)))

        def pick(u):
            return rows.take(search(u), axis=0)

    outcomes = np.empty((runs, len(shape)), dtype=index)

    def draw(lane: range) -> None:
        u, stream = np.empty(min(_BLOCK, runs)), None
        for lo in lane:
            block = u[:runs - lo]
            stream = _uniforms_at(seed, lo, block, stream)
            outcomes[lo:lo + len(block)] = pick(block)

    blocks = range(0, runs, _BLOCK)
    _each_block(draw, blocks, _workers(len(blocks)))
    return outcomes


class _GuideTable:
    """Indexed search (Chen & Asau 1974; Devroye 1986, ch. III) over K
    strictly increasing values, the last of them at or above 1: called with
    uniforms u in [0, 1), it returns how many values are at or below each
    u, as `np.searchsorted(values, u, "right")` does.

    The table has B = `buckets` buckets, K when not given.  Each value x
    falls into bucket floor(x B), and so does each u, into a bucket of at
    most B since u < 1.  Each float operation is monotone, so every value
    in a lower bucket than u's lies below u and every value in a higher one
    above it: the count is guide[b], the number of values in buckets below
    u's bucket b, plus the count within bucket b.  That count is found by a
    bisection of fixed width, the largest bucket's count, from guide[b] on;
    a probe past the last value reads the last value, which lies above u.
    With B at several times K most buckets hold at most one value, and the
    bisection is skipped: one lookup and one comparison per u.  The guide
    takes 8 (B + 2) bytes for values below 1 + 1 / B."""

    def __init__(self, values: np.ndarray, buckets: int | None = None):
        self.buckets = len(values) if buckets is None else buckets
        bucket = (values * self.buckets).astype(np.intp)
        # Counting bucket(x) + 1 and summing the counts in place leaves
        # guide[b] = the number of values in buckets below b.
        bucket += 1
        self.guide = np.bincount(bucket, minlength=self.buckets + 1)
        self.width = int(self.guide.max())
        np.cumsum(self.guide, out=self.guide)
        self.values = values

    def __call__(self, u: np.ndarray) -> np.ndarray:
        at = self.guide.take((u * self.buckets).astype(np.intp))
        width = self.width
        while width > 1:
            half = width // 2
            at += half * (self.values.take(at + half, mode="clip") <= u)
            width -= half
        at += self.values.take(at, mode="clip") <= u
        return at


def _unravel(flat: np.ndarray, shape: tuple, dtype) -> np.ndarray:
    """The outcome tuples (len(flat), len(shape)) of C-order flat indices
    into a table of `shape`, in `dtype` (`_index_type`, so len(shape)
    bytes per tuple below 129 outcomes per axis).  They are computed axis
    by axis into contiguous rows and returned as the transpose of those
    rows."""
    axes = np.empty((len(shape), len(flat)), dtype=dtype)
    rest = flat
    for axis in range(len(shape) - 1, 0, -1):
        rest, axes[axis] = np.divmod(rest, shape[axis])
    axes[0] = rest
    return axes.T


def empirical_distribution(outcomes: np.ndarray, spec: ChainSpec) -> JointDistribution:
    """Relative tuple frequencies of an outcome array on the chain's sample
    space, counted by `np.bincount`.  The outcomes must be (runs, n) with at
    least one run and n = spec.length, or ValueError is raised.  The table
    (8 B per tuple) must pass `require_table_size`, which is checked before
    the chain's sequence is built."""
    outcomes = np.asarray(outcomes)
    if outcomes.ndim != 2:
        raise ValueError(f"outcomes: expected a (runs, n) array, got shape {outcomes.shape}")
    if outcomes.shape[1] != spec.length:
        raise ValueError(f"outcomes: width {outcomes.shape[1]} is not the chain's "
                         f"length {spec.length}")
    if outcomes.shape[0] < 1:
        raise ValueError("outcomes: no runs to count")
    shape = _table_shape(spec)[:-2]
    require_table_size(shape, 8)
    flat = np.ravel_multi_index(tuple(outcomes.T), shape)
    counts = np.bincount(flat, minlength=math.prod(shape)).reshape(shape)
    return JointDistribution(
        [np.asarray(obs.sample_space) for obs in spec.sequence()],
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
        empirical_distribution(sample_distribution(law, s.seed, runs), s)
        for law, s in zip(exact, specs)
    ]
    names = [s.convention for s in specs]
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
