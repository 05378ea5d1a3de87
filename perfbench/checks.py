"""Computations made apart from the program, and the checkers built on them.

Nothing here imports collapsekit: every reference is derived from the raw
matrices and tables the benchmark generated.  A checker raises
`CheckFailed` when an output is wrong.  `KnownFault` marks the one
expected failure, runs corrupted by the step sampler's underflow, which the
benchmark counts as a failed operation instead of an incorrect one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
from scipy import stats

# The program documents eigenvalues below this as indistinguishable from
# zero; the effect-table reference treats them the same way.
PSD_SLACK = 1e-9
# A run whose uniform lies this close to a reference CDF boundary may
# legitimately land on either side of it.
BOUNDARY_TOL = 1e-9
# Relative eigenvalue floor of the renormalised reference sampler: below it
# an eigenvalue is rounding noise of a rank-deficient product.
NOISE = 1e-12
# Significance level of the frequency tests; a correct sampler fails one
# only with this probability per test.
ALPHA = 1e-7


class CheckFailed(AssertionError):
    """The program's output disagrees with the reference."""


class KnownFault(Exception):
    """Runs of the step sampler differ from the renormalising reference."""

    def __init__(self, mismatched: int, runs: int):
        super().__init__(f"{mismatched} of {runs} runs differ from the reference")
        self.mismatched = mismatched


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual, expected, tol: float, what: str) -> None:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    require(actual.shape == expected.shape,
            f"{what}: shape {actual.shape} != {expected.shape}")
    err = float(np.abs(actual - expected).max()) if actual.size else 0.0
    require(err <= tol, f"{what}: deviation {err:.3e} exceeds {tol:.0e}")


# ---------------------------------------------------------------------------
# operator algebra
# ---------------------------------------------------------------------------

def projectors(matrix: np.ndarray, gap: float = 1e-6) -> np.ndarray:
    """Spectral projectors of a Hermitian matrix in increasing eigenvalue
    order, stacked as (n_outcomes, d, d)."""
    vals, vecs = np.linalg.eigh(matrix)
    groups = [[0]]
    for k in range(1, len(vals)):
        if vals[k] - vals[k - 1] < gap:
            groups[-1].append(k)
        else:
            groups.append([k])
    return np.stack([vecs[:, g] @ vecs[:, g].conj().T for g in groups])


def psd_root(stack: np.ndarray, slack: float = 0.0) -> np.ndarray:
    """Batched PSD square root by eigh; eigenvalues below `slack` count as
    zero, so the root does not amplify eigensolver noise."""
    herm = 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))
    vals, vecs = np.linalg.eigh(herm)
    roots = np.sqrt(np.where(vals < slack, 0.0, vals))
    return (vecs * roots[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))


def leftfold_effects(projs: list) -> list:
    """Left-fold effects of every prefix of a chain, built one matrix at a
    time from E_{s,j} = sqrt(E_s) P_j sqrt(E_s).

    projs[k] is the (n_k, d, d) projector stack of step k; entry k of the
    result maps each outcome prefix of length k+1 to its effect."""
    effects = {(): np.eye(projs[0].shape[-1], dtype=np.complex128)}
    levels = []
    for stack in projs:
        nxt = {}
        for prefix, eff in effects.items():
            root = psd_root(eff, PSD_SLACK)
            for j, p in enumerate(stack):
                nxt[prefix + (j,)] = root @ p @ root
        effects = nxt
        levels.append(effects)
    return levels


def leftfold_joints(projs: list, rho: np.ndarray) -> list:
    """Probability tables of every prefix of the left fold."""
    tables = []
    for k, effects in enumerate(leftfold_effects(projs)):
        table = np.zeros(tuple(len(s) for s in projs[:k + 1]))
        for key, eff in effects.items():
            table[key] = float(np.real(np.trace(rho @ eff)))
        tables.append(table)
    return tables


def bracketings(lo: int, hi: int) -> list:
    """All full binary trees over leaves lo..hi-1 as nested tuples."""
    if hi - lo == 1:
        return [lo]
    out = []
    for split in range(lo + 1, hi):
        for left in bracketings(lo, split):
            for right in bracketings(split, hi):
                out.append((left, right))
    return out


def catalan_numbers(n: int) -> list:
    """C_0..C_n by the convolution recurrence, not the closed form."""
    c = [1]
    for k in range(n):
        c.append(sum(c[i] * c[k - i] for i in range(k + 1)))
    return c


def tree_effects(projs: list, tree) -> np.ndarray:
    """Effect table of a bracketing (nested tuples of leaf indices): each
    node combines its sub-tables entrywise by sqrt(X) Y sqrt(X), with
    eigenvalues below PSD_SLACK taken as zero."""
    if isinstance(tree, int):
        return projs[tree]
    left = tree_effects(projs, tree[0])
    right = tree_effects(projs, tree[1])
    d = left.shape[-1]
    roots = psd_root(left.reshape(-1, d, d), PSD_SLACK)
    rflat = right.reshape(-1, d, d)
    out = roots[:, None] @ rflat[None] @ roots[:, None]
    return out.reshape(left.shape[:-2] + right.shape[:-2] + (d, d))


def born(rho: np.ndarray, effects: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("ab,...ba->...", rho, effects))


def check_effect_table(effects: np.ndarray, reference: np.ndarray, what: str) -> None:
    """Program table against the reference to 1e-9; entries PSD and summing
    to the identity within 1e-8, the bound of the repository's acceptance
    criterion 1 (each eigenvalue the root drops below its 1e-9 slack takes
    up to that much mass out of the total)."""
    close(effects, reference, 1e-9, what)
    d = effects.shape[-1]
    flat = effects.reshape(-1, d, d)
    herm = 0.5 * (flat + np.conj(np.swapaxes(flat, -1, -2)))
    require(float(np.linalg.eigvalsh(herm)[:, 0].min()) >= -1e-8,
            f"{what}: an effect is not PSD")
    close(flat.sum(axis=0), np.eye(d), 1e-8, f"{what}: sum of effects")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def philox_uniforms(seed: int, runs: int, n: int) -> np.ndarray:
    """The documented substream layout: run r owns row r of one Philox
    stream keyed by the chain seed."""
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return gen.random((runs, n))


def reference_leftfold(projs: list, rho: np.ndarray, seed: int, runs: int,
                       chunk: int = 8192):
    """Step sampler that renormalises the accumulated root after every step.

    Returns (outcomes, margin): margin[r] is the smallest distance between
    run r's uniform and an interior CDF boundary along the reference path."""
    n = len(projs)
    d = rho.shape[0]
    uniforms = philox_uniforms(seed, runs, n)
    outcomes = np.empty((runs, n), dtype=np.int64)
    margin = np.full(runs, np.inf)
    for lo in range(0, runs, chunk):
        hi = min(runs, lo + chunk)
        roots = np.broadcast_to(np.eye(d, dtype=np.complex128), (hi - lo, d, d)).copy()
        for k, stack in enumerate(projs):
            probs = np.real(np.einsum("rab,jba->rj", roots @ rho @ roots, stack))
            probs = np.clip(probs, 0.0, None)
            probs /= probs.sum(axis=1, keepdims=True)
            inner = np.cumsum(probs, axis=1)[:, :-1]
            u = uniforms[lo:hi, k]
            idx = (inner <= u[:, None]).sum(axis=1)
            outcomes[lo:hi, k] = idx
            if inner.shape[1]:
                gap = np.abs(inner - u[:, None]).min(axis=1)
                margin[lo:hi] = np.minimum(margin[lo:hi], gap)
            nxt = roots @ stack[idx] @ roots
            nxt /= np.real(np.trace(nxt, axis1=1, axis2=2))[:, None, None]
            roots = psd_root(nxt, NOISE)
    return outcomes, margin


def mismatched_runs(outcomes: np.ndarray, reference: np.ndarray,
                    margin: np.ndarray) -> int:
    """Runs whose outcomes differ from the reference, except runs whose
    uniform lies within BOUNDARY_TOL of a reference CDF boundary."""
    require(outcomes.shape == reference.shape,
            f"outcome shape {outcomes.shape} != {reference.shape}")
    differs = (outcomes != reference).any(axis=1)
    return int((differs & (margin > BOUNDARY_TOL)).sum())


def counts_of(outcomes: np.ndarray, shape: tuple) -> np.ndarray:
    flat = np.ravel_multi_index(tuple(outcomes.T), shape)
    return np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)


def check_frequencies(outcomes: np.ndarray, probs: np.ndarray, what: str) -> None:
    """Chi-square test of outcome frequencies against a probability table.

    Cells expecting fewer than 5 draws are pooled and tested on their own
    with the Poisson upper tail, so rare cells neither dominate the
    statistic nor hide a draw where the reference says none can occur."""
    require(outcomes.ndim == 2 and outcomes.shape[1] == probs.ndim,
            f"{what}: outcome array shape {outcomes.shape}")
    require(int(outcomes.min()) >= 0 and bool((outcomes.max(axis=0) < probs.shape).all()),
            f"{what}: outcome index out of range")
    runs = outcomes.shape[0]
    observed = counts_of(outcomes, probs.shape).ravel().astype(float)
    expected = probs.ravel() * runs
    rare = expected < 5.0
    pooled_obs = float(observed[rare].sum())
    pooled_exp = float(expected[rare].sum())
    if pooled_obs > 0:
        p_rare = float(stats.poisson.sf(pooled_obs - 1, max(pooled_exp, 1e-300)))
        require(p_rare >= ALPHA,
                f"{what}: {pooled_obs:.0f} draws in cells expecting {pooled_exp:.3g}")
    if (~rare).sum() >= 2:
        chi2 = float(((observed[~rare] - expected[~rare]) ** 2 / expected[~rare]).sum())
        dof = int((~rare).sum()) - 1
        p = float(stats.chi2.sf(chi2, dof))
        require(p >= ALPHA, f"{what}: chi-square p-value {p:.3e} (chi2 {chi2:.1f}, dof {dof})")


def distinct_prefixes(outcomes: np.ndarray) -> int:
    """Distinct outcome prefixes, summed over prefix lengths 1..n."""
    total = 0
    code = np.zeros(outcomes.shape[0], dtype=np.int64)
    base = int(outcomes.max()) + 1
    for k in range(outcomes.shape[1]):
        code = code * base + outcomes[:, k]
        total += int(np.unique(code).size)
        # Re-encode by rank so the code never overflows on long chains.
        code = np.unique(code, return_inverse=True)[1].astype(np.int64)
    return total


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def correlator(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ np.kron(a, b))))


def chsh_max(e: np.ndarray) -> float:
    """Largest of the eight CHSH combinations of a 2x2 correlator table."""
    best = -np.inf
    for i, j in itertools.product(range(2), range(2)):
        signs = np.ones((2, 2))
        signs[i, j] = -1.0
        s = float((signs * e).sum())
        best = max(best, s, -s)
    return best


def cycle_omega(corr) -> float:
    """max over sign patterns with an odd number of minus signs of
    sum_i s_i E_i; the n-cycle admits a global joint iff it is <= n - 2
    (Araujo et al., PRA 88, 022118, 2013; unbiased marginals)."""
    corr = np.asarray(corr, dtype=float)
    best = -np.inf
    for signs in itertools.product((1.0, -1.0), repeat=corr.size):
        if sum(s < 0 for s in signs) % 2 == 1:
            best = max(best, float(np.dot(signs, corr)))
    return best


def marginal(joint: np.ndarray, keep) -> np.ndarray:
    """Marginal of a full table on the axes `keep`, in the order given."""
    keep = list(keep)
    drop = tuple(k for k in range(joint.ndim) if k not in keep)
    table = joint.sum(axis=drop)
    order = sorted(keep)
    return np.transpose(table, [order.index(k) for k in keep])


def check_joint_reproduces(joint: np.ndarray, contexts: list, order: list) -> None:
    """contexts: (axis-name tuple, table); order: axis names of `joint`."""
    require(bool(np.all(joint >= 0.0)), "global joint has a negative entry")
    close(joint.sum(), 1.0, 1e-9, "global joint total")
    for names, table in contexts:
        close(marginal(joint, [order.index(nm) for nm in names]), table, 1e-9,
              f"context {names}")


def check_certificate(certificate, contexts: list, sizes: dict) -> None:
    """Farkas check in exact Fractions: with A the context-incidence rows
    plus the normalisation row and b the context entries plus 1, the
    certificate y must satisfy y.A <= 0 on every tuple and y.b > 0.

    certificate: list of ((names, combo) or ("normalization", ()), coef).
    The program reports coefficients as floats (API) or 12-digit decimals
    (CLI); each is read as the nearest fraction with denominator at most
    10**6, which recovers the exact rational the simplex produced."""
    require(len(certificate) > 0, "infeasible verdict without a certificate")
    tables = {tuple(names): table for names, table in contexts}
    order = list(sizes)
    y_norm = Fraction(0)
    rows = []
    yb = Fraction(0)
    for label, coef in certificate:
        y = Fraction(coef).limit_denominator(10**6)
        if label[0] == "normalization":
            y_norm += y
            yb += y
            continue
        names, combo = tuple(label[0]), tuple(label[1])
        require(names in tables, f"certificate names unknown context {names}")
        rows.append(([order.index(nm) for nm in names], combo, y))
        yb += y * Fraction(float(tables[names][combo]))
    for full in itertools.product(*(range(sizes[nm]) for nm in order)):
        ya = y_norm + sum((y for pos, combo, y in rows
                           if all(full[p] == c for p, c in zip(pos, combo))),
                          Fraction(0))
        require(ya <= 0, f"certificate: y.A = {ya} > 0 at tuple {full}")
    require(yb > 0, f"certificate: y.b = {yb} is not positive")
