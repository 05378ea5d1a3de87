"""Exact phase-1 simplex for linear feasibility, started from a float basis.

Solves: does {x >= 0 : A x = b} have a point?  Rows are flipped so that
b >= 0, one artificial slack per row is added, and the total slack is
minimised.  That minimum, `violation`, is exact; zero means feasible.

The work is split in two stages around one exact simplex loop:

1. A float64 phase-1 simplex on the [A | I | b] tableau proposes a basis.
   It only chooses where the exact loop starts: its tolerance can change the
   number of exact pivots, never the result.
2. The exact loop works on the m x m basis only, in integers.  Columns of A
   are scaled to integers (a rescaling of x that changes neither the slack
   nor the dual) and b is held as integers over one common denominator.  The
   loop keeps the basis inverse as adjugate / determinant, so a pivot is one
   fraction-free update with exact integer division (Bareiss).
   - The proposed basis B enters in one step: d = |det B| and
     adj = d B^-1 are rounded from the float LU and kept only if
     B @ adj == d I holds exactly in int64.  That shows adj = d B^-1, not
     that d = |det B|, which Bareiss's divisions need: a remainder in one
     of them shows a float determinant that was off, and the loop restarts
     from the all-artificial basis.
   - The adjugate and the integer A stay int64 while a bound shows that no
     product can pass 2**62, and widen to Python ints once it does not.
     The basic values are Python ints throughout.
   From the entered basis it runs dual-simplex pivots while a basic value
   is negative and every reduced cost is >= 0, then primal pivots while a
   reduced cost is negative.  Both choose by smallest variable index
   (Bland's rule and its dual), so both terminate, and the state they start
   from depends only on the basic set.  A proposed basis that fails the
   check, is singular, or is neither primal nor dual feasible is replaced
   by the all-artificial one.

On exit the basis is primal and dual feasible in exact arithmetic, so its
slack is the exact minimum and its dual is a Farkas-type certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = ["FeasibilityResult", "feasibility_lp"]

# Float stage only: entries below this count as zero.
_FLOAT_EPS = 1e-9
# Exact stage: int64 arithmetic while every product stays below this.
_INT64_BOUND = 2**62


@dataclass(frozen=True)
class FeasibilityResult:
    # Exact minimum of the total artificial slack; zero means feasible.
    violation: Fraction
    # A point achieving that minimum (feasible point when violation == 0).
    solution: list
    # Farkas-style certificate: y with y.A <= 0 componentwise and
    # y.b == violation; separating functional when violation > 0.
    certificate: list

    def feasible(self, tolerance: Fraction = Fraction(0)) -> bool:
        return self.violation <= tolerance


def feasibility_lp(rows, rhs) -> FeasibilityResult:
    """Phase-1 simplex over A x = b, x >= 0; exact in rational arithmetic."""
    m = len(rows)
    if m == 0:
        return FeasibilityResult(Fraction(0), [], [])
    # tolist() turns numpy scalars into Python ones: a Fraction built from a
    # numpy integer keeps it, and its arithmetic would wrap at 64 bits.
    a = [[Fraction(v) for v in row] for row in np.asarray(rows).tolist()]
    b = [Fraction(v) for v in np.asarray(rhs).tolist()]
    n = len(a[0])
    # Flip rows so every right-hand side is nonnegative; remember the signs to
    # report the certificate in the caller's orientation.
    signs = [-1 if v < 0 else 1 for v in b]
    # Integers for the exact stage: column j of A times scale[j] (x_j is
    # scale[j] times the new variable, which changes neither the slack nor
    # the dual), and b as target / den.
    scale = [math.lcm(*(row[j].denominator for row in a)) for j in range(n)]
    cells = [[sign * v.numerator * (s // v.denominator) for v, s in zip(row, scale)]
             for row, sign in zip(a, signs)]
    try:
        mat = np.array(cells, dtype=np.int64)
    except OverflowError:
        mat = np.array(cells, dtype=object)
    den = math.lcm(*(v.denominator for v in b))
    target = np.array([abs(v.numerator) * (den // v.denominator) for v in b],
                      dtype=object)

    lp = _ExactBasis(mat, target)
    proposed = _float_basis(mat.astype(float) / np.array(scale, dtype=float),
                            np.array([abs(float(v)) for v in b]))
    if not lp.enter_basis(proposed):
        lp = _ExactBasis(mat, target)
    try:
        lp.dual_pivots()
        lp.primal_pivots()
    except _InexactDivision:
        # The float determinant passed the check but was not |det B|.
        lp = _ExactBasis(mat, target)
        lp.primal_pivots()

    solution = [Fraction(0)] * n
    for i, var in enumerate(lp.basis):
        if var < n:
            solution[var] = Fraction(lp.values[i] * scale[var], lp.det * den)
    value = Fraction(sum(lp.values[i] for i in range(m) if lp.basis[i] >= n),
                     lp.det * den)
    # Python ints, whether the duals are int64 or object.
    y = lp.duals().tolist()
    return FeasibilityResult(
        value, solution, [Fraction(v * sign, lp.det) for v, sign in zip(y, signs)]
    )


def _float_basis(mat: np.ndarray, rhs: np.ndarray) -> list:
    """Phase-1 simplex in float64 on [A | I | b] (b >= 0), entering the most
    negative reduced cost (Dantzig's rule: far fewer pivots than Bland's on
    these degenerate problems).

    Returns the last basis, one column index per row.  It is only a
    proposal, so stopping at the pivot cap or on a rounding artefact is
    harmless."""
    m, n = mat.shape
    t = np.hstack([mat, np.eye(m), rhs[:, None]])
    basis = np.arange(n, n + m)
    cost = np.concatenate([-mat.sum(axis=0), np.zeros(m)])
    for _ in range(10 * (n + m)):
        enter = int(np.argmin(cost))
        if cost[enter] >= -_FLOAT_EPS:
            break
        col = t[:, enter].copy()
        rows = np.flatnonzero(col > _FLOAT_EPS)
        if rows.size == 0:
            break
        ratios = t[rows, -1] / col[rows]
        ties = rows[ratios == ratios.min()]
        leave = ties[np.argmin(basis[ties])]
        pivot_row = t[leave] / col[leave]
        t -= np.outer(col, pivot_row)
        t[leave] = pivot_row
        cost -= cost[enter] * pivot_row[:-1]
        basis[leave] = enter
    return [int(j) for j in basis]


class _InexactDivision(ArithmeticError):
    """A fraction-free update left a remainder: the scale entered with the
    basis was no multiple of |det B|."""


class _ExactBasis:
    """A basis of [A | I] in integers: B^-1 = adj / det with det > 0.

    `values` holds adj @ target, so the basic values are values / (det * den)
    with den the caller's common denominator of b.  Columns n.. are the
    artificials, cost 1; columns of A cost 0.

    `adj` and `mat` are int64 while `_fit`'s bound keeps every product the
    loop forms below 2**62, and are widened to Python ints (dtype object),
    once, when it does not.  `values` and `det` are always Python ints, and
    so is every ratio the pivot rules compare."""

    def __init__(self, mat: np.ndarray, target: np.ndarray):
        self.mat = mat
        self.m, self.n = mat.shape
        self.reach = self.m * max(1, _magnitude(mat))
        self.basis = list(range(self.n, self.n + self.m))
        self.adj = np.eye(self.m, dtype=np.int64).astype(mat.dtype)
        self.det = 1
        self.values = target.copy()
        self._fit()

    def _fit(self) -> None:
        """Widen adj and mat to Python ints, once, unless every product up to
        the next pivot stays below 2**62 in int64.

        With a = max|adj| and M = max(1, max|mat|): a column of A, rho and
        det (B adj = det I) are sums of m terms, at most m M a; the duals at
        most m a, so the reduced costs at most m^2 M a; a pivot's
        p adj - alpha (x) adj[leave] at most 2 m M a^2."""
        if self.adj.dtype != object:
            a = _magnitude(self.adj)
            if self.reach * a * max(self.m, 2 * a) >= _INT64_BOUND:
                self.adj = self.adj.astype(object)
                self.mat = self.mat.astype(object)

    def column(self, j: int) -> np.ndarray:
        """det * (B^-1 times column j)."""
        if j >= self.n:
            return self.adj[:, j - self.n].copy()
        return self.adj @ self.mat[:, j]

    def pivot(self, leave: int, alpha: np.ndarray, enter: int) -> None:
        p = int(alpha[leave])
        others = np.arange(self.m) != leave
        # Bareiss: the division is exact while det = |det B|.
        product = p * self.adj[others] - np.outer(alpha[others], self.adj[leave])
        if (product % self.det).any():
            raise _InexactDivision
        self.adj[others] = product // self.det
        alpha = alpha.astype(object)
        self.values[others] = (p * self.values[others]
                               - alpha[others] * self.values[leave]) // self.det
        self.det = p
        if p < 0:
            self.adj = -self.adj
            self.values = -self.values
            self.det = -p
        self.basis[leave] = enter
        self._fit()

    def enter_basis(self, columns: list) -> bool:
        """Enter the proposed columns of [A | I] in one step, column k in
        row k, on the all-artificial basis.  From float64 LU: d = |det B|
        and adj = d B^-1, each rounded to integers; accepted only when
        d > 0 and B @ adj == d I holds exactly in int64, with a bound that
        shows no product passes 2**62.  False when it does not (always,
        for entries of A too wide for int64), or when the basis is neither
        primal nor dual feasible."""
        if self.adj.dtype == object:
            return False
        cols = np.array(columns)
        artificial = cols >= self.n
        b = np.zeros((self.m, self.m), dtype=np.int64)
        b[:, ~artificial] = self.mat[:, cols[~artificial]]
        b[cols[artificial] - self.n, np.flatnonzero(artificial)] = 1
        d, adj = _scaled_inverse(b)
        # |B| @ |adj| bounds every partial sum of B @ adj (in float64, far
        # inside the factor 2 between 2**62 and int64's range).
        if d == 0 or (np.abs(b).astype(float) @ np.abs(adj).astype(float)
                      ).max() >= _INT64_BOUND:
            return False
        if not (b @ adj == d * np.eye(self.m, dtype=np.int64)).all():
            return False
        self.basis = [int(j) for j in columns]
        self.adj = adj
        self.det = d
        self.values = adj @ self.values
        self._fit()
        return bool((self.values >= 0).all() or (self.reduced_costs() >= 0).all())

    def duals(self) -> np.ndarray:
        """det * y with y = c_B B^-1."""
        return self.adj[np.array(self.basis) >= self.n].sum(axis=0)

    def reduced_costs(self) -> np.ndarray:
        """det * (c_j - y . column j) for every column of [A | I]."""
        y = self.duals()
        return np.concatenate([-(y @ self.mat), self.det - y])

    def dual_pivots(self) -> None:
        """Dual simplex: leave by the smallest basic index among negative
        values, enter by the smallest ratio d_j / -rho_j, ties to the
        smallest index.  Needs every reduced cost >= 0; does nothing while
        the basis is primal feasible."""
        while True:
            negative = np.flatnonzero(self.values < 0).tolist()
            if not negative:
                return
            leave = min(negative, key=lambda i: self.basis[i])
            rho = np.concatenate([self.adj[leave] @ self.mat, self.adj[leave]])
            d = self.reduced_costs()
            enter = min(np.flatnonzero(rho < 0).tolist(),
                        key=lambda j: (Fraction(int(d[j]), int(-rho[j])), j))
            self.pivot(leave, self.column(enter), enter)

    def primal_pivots(self) -> None:
        """Primal simplex with Bland's rule; needs every basic value >= 0."""
        while True:
            negative = np.flatnonzero(self.reduced_costs() < 0)
            if negative.size == 0:
                return
            enter = int(negative[0])
            alpha = self.column(enter)
            leave = min(np.flatnonzero(alpha > 0).tolist(),
                        key=lambda i: (Fraction(self.values[i], int(alpha[i])),
                                       self.basis[i]))
            self.pivot(leave, alpha, enter)


def _scaled_inverse(b: np.ndarray) -> tuple:
    """d = |det b| and adj = d b^-1 from float64 LU, each rounded to an
    integer, adj in int64; (0, None) when d rounds to 0 or an entry reaches
    2**62."""
    f = b.astype(float)
    det = abs(np.linalg.det(f))
    if not 0.5 <= det < _INT64_BOUND:
        return 0, None
    d = round(det)
    # A small det beside huge entries can overflow the float inverse; the
    # bound below then refuses it.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            adj = np.rint(d * np.linalg.inv(f))
    except np.linalg.LinAlgError:
        return 0, None
    if not np.abs(adj).max() < _INT64_BOUND:
        return 0, None
    return d, adj.astype(np.int64)


def _magnitude(x: np.ndarray) -> int:
    """Largest |entry| of an integer array, as a Python int."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))
