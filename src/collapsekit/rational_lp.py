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
   fraction-free update with exact integer division (Bareiss).  From the
   proposed basis it runs dual-simplex pivots while a basic value is
   negative and every reduced cost is >= 0, then primal pivots while a
   reduced cost is negative.  Both choose by smallest index (Bland's rule
   and its dual), so both terminate.  A proposed basis that is singular, or
   neither primal nor dual feasible, is replaced by the all-artificial one.

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
    mat = np.array([[sign * v.numerator * (s // v.denominator)
                     for v, s in zip(row, scale)]
                    for row, sign in zip(a, signs)], dtype=object)
    den = math.lcm(*(v.denominator for v in b))
    target = np.array([abs(v.numerator) * (den // v.denominator) for v in b],
                      dtype=object)

    lp = _ExactBasis(mat, target)
    proposed = _float_basis(mat.astype(float) / np.array(scale, dtype=float),
                            np.array([abs(float(v)) for v in b]))
    if not lp.enter_basis(proposed):
        lp = _ExactBasis(mat, target)
    lp.dual_pivots()
    lp.primal_pivots()

    solution = [Fraction(0)] * n
    for i, var in enumerate(lp.basis):
        if var < n:
            solution[var] = Fraction(lp.values[i] * scale[var], lp.det * den)
    value = Fraction(sum(lp.values[i] for i in range(m) if lp.basis[i] >= n),
                     lp.det * den)
    y = lp.duals()
    return FeasibilityResult(
        value, solution, [Fraction(y[i], lp.det) * signs[i] for i in range(m)]
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


class _ExactBasis:
    """A basis of [A | I] in integers: B^-1 = adj / det with det > 0.

    `values` holds adj @ target, so the basic values are values / (det * den)
    with den the caller's common denominator of b.  Columns n.. are the
    artificials, cost 1; columns of A cost 0."""

    def __init__(self, mat: np.ndarray, target: np.ndarray):
        self.mat = mat
        self.m, self.n = mat.shape
        self.basis = list(range(self.n, self.n + self.m))
        self.adj = np.eye(self.m, dtype=int).astype(object)
        self.det = 1
        self.values = target.copy()

    def column(self, j: int) -> np.ndarray:
        """det * (B^-1 times column j)."""
        if j >= self.n:
            return self.adj[:, j - self.n].copy()
        return self.adj @ self.mat[:, j]

    def pivot(self, leave: int, alpha: np.ndarray, enter: int) -> None:
        p = alpha[leave]
        others = np.arange(self.m) != leave
        self.adj[others] = (p * self.adj[others]
                            - np.outer(alpha[others], self.adj[leave])) // self.det
        self.values[others] = (p * self.values[others]
                               - alpha[others] * self.values[leave]) // self.det
        self.det = p
        if p < 0:
            self.adj = -self.adj
            self.values = -self.values
            self.det = -p
        self.basis[leave] = enter

    def enter_basis(self, columns: list) -> bool:
        """Pivot the proposed columns of A in, each in place of an artificial
        that is not proposed.  False when they are linearly dependent, or
        when the basis reached is neither primal nor dual feasible."""
        keep = set(columns)
        for j in columns:
            if j >= self.n or j in self.basis:
                continue
            alpha = self.column(j)
            leave = next((i for i in range(self.m) if alpha[i] != 0
                          and self.basis[i] >= self.n
                          and self.basis[i] not in keep), None)
            if leave is None:
                return False
            self.pivot(leave, alpha, j)
        return (all(v >= 0 for v in self.values)
                or all(d >= 0 for d in self.reduced_costs()))

    def duals(self) -> np.ndarray:
        """det * y with y = c_B B^-1."""
        rows = [i for i in range(self.m) if self.basis[i] >= self.n]
        return self.adj[rows].sum(axis=0) if rows else np.zeros(self.m, dtype=object)

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
            negative = [i for i in range(self.m) if self.values[i] < 0]
            if not negative:
                return
            leave = min(negative, key=lambda i: self.basis[i])
            rho = np.concatenate([self.adj[leave] @ self.mat, self.adj[leave]])
            d = self.reduced_costs()
            enter = min((j for j in range(self.n + self.m) if rho[j] < 0),
                        key=lambda j: (Fraction(d[j], -rho[j]), j))
            self.pivot(leave, self.column(enter), enter)

    def primal_pivots(self) -> None:
        """Primal simplex with Bland's rule; needs every basic value >= 0."""
        while True:
            d = self.reduced_costs()
            enter = next((j for j in range(self.n + self.m) if d[j] < 0), None)
            if enter is None:
                return
            alpha = self.column(enter)
            leave = min((i for i in range(self.m) if alpha[i] > 0),
                        key=lambda i: (Fraction(self.values[i], alpha[i]),
                                       self.basis[i]))
            self.pivot(leave, alpha, enter)
