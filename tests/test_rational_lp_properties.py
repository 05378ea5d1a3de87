"""Property tests of the exact feasibility LP against the all-rational
reference simplex on random small problems."""

from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from collapsekit import rational_lp
from collapsekit.rational_lp import feasibility_lp

from conftest import assert_exact_optimum, reference_feasibility_lp

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def rational_problems(draw):
    """Up to 5 rows and 6 columns of small fractions of either sign."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 6))
    value = st.fractions(-3, 3, max_denominator=4)
    rows = [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(value, min_size=m, max_size=m))
    return rows, rhs


@st.composite
def degenerate_problems(draw):
    """Small integer rows with repeated and zero rows and many zero
    right-hand sides: ties in every ratio test."""
    n = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(st.integers(-1, 2), min_size=n, max_size=n),
                         min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(base)), min_size=1, max_size=6))
    rows = [base[k] if k < len(base) else [0] * n for k in picks]
    rhs = draw(st.lists(st.sampled_from([0, 0, 1, 2, -1]),
                        min_size=len(rows), max_size=len(rows)))
    return rows, [Fraction(v) for v in rhs]


@st.composite
def marginal_problems(draw):
    """Pairwise marginals of a Dirichlet joint over 2-3 small axes, taken at
    their dyadic float values, with one entry moved by a few ulps: slightly
    inconsistent, so the exact optimum is a tiny positive violation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    joint = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
    tuples = list(product(*(range(s) for s in sizes)))
    rows, rhs = [], []
    for i, j in combinations(range(len(sizes)), 2):
        table = joint.sum(axis=tuple(k for k in range(len(sizes)) if k not in (i, j)))
        for u, v in product(range(sizes[i]), range(sizes[j])):
            rows.append([int(t[i] == u and t[j] == v) for t in tuples])
            rhs.append(float(table[u, v]))
    rows.append([1] * len(tuples))
    rhs.append(1.0)
    k = draw(st.integers(0, len(rhs) - 1))
    toward = draw(st.sampled_from([0.0, 2.0]))
    for _ in range(draw(st.integers(0, 3))):
        rhs[k] = float(np.nextafter(rhs[k], toward))
    return rows, [Fraction(v) for v in rhs]


def check(rows, rhs, given_rows=None):
    result = feasibility_lp(rows if given_rows is None else given_rows, rhs)
    expected = reference_feasibility_lp(rows, rhs)
    assert result.violation == expected.violation
    assert_exact_optimum(result, rows, rhs)


@PROPERTY
@given(rational_problems())
def test_rational_problems_match_reference(problem):
    check(*problem)


@PROPERTY
@given(degenerate_problems())
def test_degenerate_problems_match_reference(problem):
    check(*problem)


@PROPERTY
@given(marginal_problems())
def test_marginal_problems_match_reference(problem):
    rows, rhs = problem
    # As admits_global_joint passes them: an integer array.
    check(rows, rhs, given_rows=np.array(rows, dtype=np.int64))


@PROPERTY
@given(st.one_of(rational_problems(), degenerate_problems()), st.data())
def test_any_proposed_basis_gives_the_same_optimum(problem, data):
    # The float stage only chooses where the exact loop starts: a random
    # proposal (often singular, or neither primal nor dual feasible) must
    # give the same exact optimum.
    rows, rhs = problem
    m, n = len(rows), len(rows[0])
    proposal = data.draw(st.permutations(range(n + m)))[:m]
    with mock.patch.object(rational_lp, "_float_basis", return_value=proposal):
        check(rows, rhs)
