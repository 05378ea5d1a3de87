from fractions import Fraction

import numpy as np
import pytest

from collapsekit import DEFAULT, AlgebraicState, is_psd
from collapsekit.measurement import observable
from collapsekit.operator_core import NotPositiveSemidefiniteError
from collapsekit.rational_lp import FeasibilityResult

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


def fourier_pair(d: int) -> list:
    """Two non-degenerate d-outcome observables in mutually unbiased bases,
    so that every outcome tuple of a chain cycling them has mass."""
    k = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    labels = np.diag(np.arange(float(d)))
    return [observable("N", labels), observable("F", fourier @ labels @ fourier.conj().T)]


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def philox_uniforms(seed, runs, n):
    """The chain sampler's documented substreams: run r owns row r of one
    Philox stream keyed by the seed."""
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return gen.random((runs, n))


def record_text(outcomes) -> str:
    """The records of a (runs, n) outcome array as `chain.write_records`
    writes them: per run, its row index, a tab, its outcome indices joined
    by commas, and a newline."""
    return "".join(f"{r}\t" + ",".join(map(str, row)) + "\n"
                   for r, row in enumerate(np.asarray(outcomes).tolist()))


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


def reference_feasibility_lp(rows, rhs) -> FeasibilityResult:
    """Phase-1 simplex over A x = b, x >= 0 with exact rational pivoting on
    the dense [A | I | b] tableau, started from the all-artificial basis;
    Bland's rule."""
    m = len(rows)
    if m == 0:
        return FeasibilityResult(Fraction(0), [], [])
    n = len(rows[0])
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    signs = []
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]
            signs.append(-1)
        else:
            signs.append(1)

    tableau = [a[i] + [Fraction(int(i == k)) for k in range(m)] + [b[i]]
               for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [Fraction(int(j >= n)) for j in range(n + m)]
    d = [cost[j] - sum(tableau[i][j] for i in range(m)) for j in range(n + m)]

    while True:
        enter = next((j for j in range(n + m) if d[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        pivot = tableau[leave][enter]
        tableau[leave] = [v / pivot for v in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [vi - f * vp for vi, vp in zip(tableau[i], tableau[leave])]
        f = d[enter]
        d = [dj - f * vp for dj, vp in zip(d, tableau[leave][:-1])]
        basis[leave] = enter

    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tableau[i][-1]
    y = [(Fraction(1) - d[n + i]) * signs[i] for i in range(m)]
    value = sum(tableau[i][-1] for i in range(m) if basis[i] >= n)
    return FeasibilityResult(value, solution, y)


def assert_exact_optimum(result: FeasibilityResult, rows, rhs) -> None:
    """The phase-1 optimality conditions, in exact arithmetic: x >= 0, every
    row's slack sign(b_i) (b_i - A_i x) >= 0 with the slacks summing to the
    violation, and a certificate y with y.A <= 0 and y.b == violation.
    Every Fraction has Python int parts: one that holds a numpy integer
    wraps at 64 bits."""
    for v in (result.violation, *result.solution, *result.certificate):
        assert type(v) is Fraction
        assert type(v.numerator) is int and type(v.denominator) is int
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    x = result.solution
    y = result.certificate
    n = len(a[0]) if a else 0
    assert len(x) == n and len(y) == len(b)
    assert all(v >= 0 for v in x)
    slacks = [(-1 if bi < 0 else 1) * (bi - sum(aij * xj for aij, xj in zip(ai, x)))
              for ai, bi in zip(a, b)]
    assert all(s >= 0 for s in slacks)
    assert sum(slacks) == result.violation
    for j in range(n):
        assert sum(yi * ai[j] for yi, ai in zip(y, a)) <= 0
    assert sum(yi * bi for yi, bi in zip(y, b)) == result.violation


def reference_joint_unitary(na, nb, da, db):
    """The joint instrument's U_AB as a sum of na * nb Kronecker products:
    |t><t| (x) T_A(i+1) (x) T_B(j+1) with (i, j) = divmod(t, nb), where T(k)
    exchanges the ready pointer 0 with pointer k."""
    def transposition(dim, k):
        t = np.eye(dim, dtype=np.complex128)
        t[[0, k]] = t[[k, 0]]
        return t

    n_tuples = na * nb
    u = np.zeros((n_tuples * da * db,) * 2, dtype=np.complex128)
    for t_index in range(n_tuples):
        i, j = divmod(t_index, nb)
        basis_proj = np.zeros((n_tuples, n_tuples), dtype=np.complex128)
        basis_proj[t_index, t_index] = 1.0
        u += np.kron(np.kron(basis_proj, transposition(da, i + 1)),
                     transposition(db, j + 1))
    return u


def reference_roots(stack, tol=DEFAULT):
    """PSD roots of a Hermitian stack (..., d, d) from their own `eigh`,
    with every eigenvalue below the absolute cut tol.psd set to zero."""
    vals, vecs = np.linalg.eigh(0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2))))
    root_vals = np.sqrt(np.where(vals < tol.psd, 0.0, vals))
    return np.einsum("...ik,...k,...jk->...ij", vecs, root_vals, vecs.conj())


def reference_combine(left, right, reverse, tol=DEFAULT):
    """The entrywise sequential product of two flat effect stacks (L, d, d)
    and (R, d, d) as one einsum sandwich, with `reference_roots` (absolute
    cut at tol.psd); shape (L, R, d, d) in (left, right) order."""
    if reverse:
        roots = reference_roots(right, tol)
        return np.einsum("rab,lbc,rcd->lrad", roots, left, roots)
    roots = reference_roots(left, tol)
    return np.einsum("lab,rbc,lcd->lrad", roots, right, roots)


def random_psd_stack(rng, count, dim):
    """PSD matrices of random rank 1..dim, each with largest eigenvalue 1."""
    stack = np.empty((count, dim, dim), dtype=np.complex128)
    for k in range(count):
        m = rng.normal(size=(dim, rng.integers(1, dim + 1)))
        m = m + 1j * rng.normal(size=m.shape)
        x = m @ m.conj().T
        stack[k] = x / np.linalg.eigvalsh(x)[-1]
    return stack


def degenerate_observable(rng, dim, name, values):
    """U diag(values) U^H for a random unitary U."""
    u = random_unitary(rng, dim)
    return observable(name, (u * np.asarray(values, dtype=float)) @ u.conj().T)


def reference_pvm_check(projectors, tol=DEFAULT):
    """The projector-family check as a pairwise Python loop: P_i P_j =
    delta_ij P_i and the family sums to I within tol.num.  It has no
    Hermiticity condition, so oblique idempotents pass it."""
    dim = projectors[0].shape[0]
    total = np.zeros((dim, dim), dtype=np.complex128)
    for i, p in enumerate(projectors):
        total += p
        for j, q in enumerate(projectors):
            target = p if i == j else 0.0
            if np.abs(p @ q - target).max() > tol.num:
                raise ValueError(f"projectors {i},{j} fail orthogonality")
    if np.abs(total - np.eye(dim)).max() > tol.num:
        raise ValueError("projectors do not sum to identity")


def reference_povm_check(effects, tol=DEFAULT):
    """The effect-family check as a per-effect loop: `is_psd` on each effect
    (which also requires it Hermitian), then the sum to I within tol.num."""
    dim = effects[0].shape[0]
    total = np.zeros((dim, dim), dtype=np.complex128)
    for k, e in enumerate(effects):
        if not is_psd(e, tol):
            raise NotPositiveSemidefiniteError(f"effect {k} is not PSD")
        total += e
    if np.abs(total - np.eye(dim)).max() > tol.num:
        raise ValueError("effects do not sum to identity")


def reference_instrument_unitary(projectors, ancilla_dim):
    """A pointer instrument's U = sum_i P_i (x) T(i+1) as a sum of Kronecker
    products, where T(k) exchanges the ready pointer 0 with pointer k."""
    u = 0
    for i, proj in enumerate(projectors):
        t = np.eye(ancilla_dim, dtype=np.complex128)
        t[[0, i + 1]] = t[[i + 1, 0]]
        u = u + np.kron(proj, t)
    return u


def reference_projectors(matrix, degeneracy_gap=1e-8):
    """Spectral projectors built one eigenvalue cluster at a time, as a list:
    eigenvalues whose neighbours lie closer than the gap share a cluster,
    whose projector is block @ block^H over its eigenvectors."""
    m = np.asarray(matrix, dtype=np.complex128)
    m = 0.5 * (m + m.conj().T)
    vals, vecs = np.linalg.eigh(m)
    groups = [[0]]
    for k in range(1, len(vals)):
        if vals[k] - vals[k - 1] < degeneracy_gap:
            groups[-1].append(k)
        else:
            groups.append([k])
    return [vecs[:, g] @ vecs[:, g].conj().T for g in groups]


def reference_chsh_tables(state, a_pair, b_pair):
    """The four CHSH context tables as a Kronecker-product loop:
    Tr[rho (P_i (x) Q_j)] per entry, clipped at 0 and normalized."""
    tables = []
    for a in a_pair:
        for b in b_pair:
            table = np.zeros((a.n_outcomes, b.n_outcomes))
            for i, pa in enumerate(a.projectors):
                for j, pb in enumerate(b.projectors):
                    table[i, j] = float(np.real(state.expect(np.kron(pa, pb))))
            table = np.clip(table, 0.0, None)
            tables.append(table / table.sum())
    return tables


def reference_unifying_state(p_xa, p_xb, x, a, b, max_iter=100_000, residual_tol=1e-9):
    """The state search as a loop over constraint operators: alternating
    projections between the affine set {Tr[rho M_k] = t_k} and the PSD cone,
    with the residual taken as the larger of the worst constraint error and
    the magnitude of the iterate's most negative eigenvalue.  Returns
    (status, iterations, density or None, residual)."""
    dim = x.dim
    operators = [np.eye(dim, dtype=np.complex128)]
    targets = [1.0]
    for obs, dist in ((a, p_xa), (b, p_xb)):
        for i, px in enumerate(x.projectors):
            for j, pu in enumerate(obs.projectors):
                m = px @ pu
                operators.append(0.5 * (m + m.conj().T))
                targets.append(float(dist.probabilities[i, j]))
    targets = np.array(targets)
    gram = np.array([[float(np.real(np.trace(mi @ mj))) for mj in operators]
                     for mi in operators])
    gram_pinv = np.linalg.pinv(gram, rcond=1e-12)
    rho = np.eye(dim, dtype=np.complex128) / dim
    for iteration in range(1, max_iter + 1):
        vals = np.array([float(np.real(np.trace(m @ rho))) for m in operators])
        lam = gram_pinv @ (vals - targets)
        out = rho.copy()
        for lk, m in zip(lam, operators):
            out -= lk * m
        out = 0.5 * (out + out.conj().T)
        evals, evecs = np.linalg.eigh(0.5 * (out + out.conj().T))
        rho = (evecs * np.clip(evals, 0.0, None)) @ evecs.conj().T
        affine_vals = np.array([float(np.real(np.trace(m @ rho))) for m in operators])
        residual = max(np.abs(affine_vals - targets).max(),
                       abs(float(np.linalg.eigvalsh(rho)[0].clip(max=0.0))))
        if residual <= residual_tol:
            return "found", iteration, rho / float(np.trace(rho).real), residual
    return "inconclusive", max_iter, None, residual
