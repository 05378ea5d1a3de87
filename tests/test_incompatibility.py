import math
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest

from collapsekit import (
    AlgebraicState,
    MarginalProblem,
    Tolerances,
    admits_global_joint,
    chsh_marginal_problem,
    chsh_max_over_signs,
    chsh_value,
    noncommutative_unifying_state,
)
from collapsekit import incompatibility, rational_lp
from collapsekit.collapse_product import JointDistribution
from collapsekit.incompatibility import CHSH_QUANTUM_BOUND
from collapsekit.measurement import observable
from collapsekit.rational_lp import FeasibilityResult, feasibility_lp

from conftest import (
    assert_exact_optimum,
    direction_observable,
    random_density,
    random_unitary,
    reference_feasibility_lp,
    singlet_state,
)

PM = [-1.0, 1.0]
SINGLET_ANGLES = (0.0, np.pi / 2, 5 * np.pi / 4, 3 * np.pi / 4)


def _pair_dist(table):
    return JointDistribution([np.array(PM), np.array(PM)], np.asarray(table, float))


def singlet_setup():
    a1 = direction_observable("A1", SINGLET_ANGLES[0])
    a2 = direction_observable("A2", SINGLET_ANGLES[1])
    b1 = direction_observable("B1", SINGLET_ANGLES[2])
    b2 = direction_observable("B2", SINGLET_ANGLES[3])
    return singlet_state(), a1, a2, b1, b2


class TestRationalLp:
    def test_no_constraints_feasible(self):
        result = feasibility_lp([], [])
        assert (result.violation, result.solution, result.certificate) == (0, [], [])
        assert result.feasible()

    def test_trivially_feasible(self):
        result = feasibility_lp(
            [[Fraction(1), Fraction(1)]], [Fraction(1)]
        )
        assert result.violation == 0
        assert sum(result.solution) == 1

    def test_infeasible_with_certificate(self):
        # x >= 0 with x = 1 and x = 2 simultaneously: violation exactly 1.
        rows = [[Fraction(1)], [Fraction(1)]]
        rhs = [Fraction(1), Fraction(2)]
        result = feasibility_lp(rows, rhs)
        assert result.violation == 1
        y = result.certificate
        # Farkas: y.b > 0 while y.A <= 0 componentwise.
        assert y[0] * rhs[0] + y[1] * rhs[1] > 0
        assert y[0] + y[1] <= 0

    def test_exact_rational_solution(self):
        rows = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
        rhs = [Fraction(1, 3), Fraction(1)]
        result = feasibility_lp(rows, rhs)
        assert result.violation == 0
        assert result.solution[0] == Fraction(1, 3)
        assert result.solution[1] == Fraction(2, 3)

    def test_numpy_integers_are_exact(self):
        # Products of these entries pass 2**63: a Fraction built from a numpy
        # integer would wrap around.
        rows = np.array([[2**40, 1, 3], [1, 2**40, 5], [7, 2**39, 1]])
        rhs = np.array([2**41 + 3, 2**40 + 1, 5])
        result = feasibility_lp(rows, rhs)
        expected = reference_feasibility_lp(rows.tolist(), rhs.tolist())
        assert result.violation == expected.violation == Fraction(17592186044439, 7)
        assert_exact_optimum(result, rows.tolist(), rhs.tolist())

    # x1 = 1 and 1e-10 x1 = 1e-12: the float stage ignores the 1e-10 pivot
    # candidate, so its basis (x1 basic in row 0) is exactly infeasible in
    # row 1.  The exact optimum is x1 = 1/100, violation 99/100.
    TINY = Fraction(1, 10**10)
    TINY_ROWS = [[Fraction(1)], [TINY]]
    TINY_RHS = [Fraction(1), TINY / 100]

    def _record_starts(self, monkeypatch):
        seen = {"accepted": [], "negative_values": []}
        basis = rational_lp._ExactBasis
        enter, dual = basis.enter_basis, basis.dual_pivots

        def enter_basis(lp, columns):
            seen["accepted"].append(enter(lp, columns))
            return seen["accepted"][-1]

        def dual_pivots(lp):
            seen["negative_values"].append(any(v < 0 for v in lp.values))
            dual(lp)

        monkeypatch.setattr(basis, "enter_basis", enter_basis)
        monkeypatch.setattr(basis, "dual_pivots", dual_pivots)
        return seen

    def test_dual_repair_of_float_basis(self, monkeypatch):
        seen = self._record_starts(monkeypatch)
        result = feasibility_lp(self.TINY_ROWS, self.TINY_RHS)
        assert seen == {"accepted": [True], "negative_values": [True]}
        assert result.violation == Fraction(99, 100)
        assert result.solution == [Fraction(1, 100)]
        assert reference_feasibility_lp(self.TINY_ROWS, self.TINY_RHS).violation == \
            result.violation
        assert_exact_optimum(result, self.TINY_ROWS, self.TINY_RHS)

    def test_fallback_to_all_artificial_basis(self, monkeypatch):
        # A second column (0, 1e-10) has reduced cost -1e-10, above the float
        # tolerance: the float basis is neither primal nor dual feasible.
        rows = [[Fraction(1), Fraction(0)], [self.TINY, self.TINY]]
        seen = self._record_starts(monkeypatch)
        result = feasibility_lp(rows, self.TINY_RHS)
        assert seen == {"accepted": [False], "negative_values": [False]}
        assert result.violation == Fraction(99, 100)
        assert reference_feasibility_lp(rows, self.TINY_RHS).violation == \
            result.violation
        assert_exact_optimum(result, rows, self.TINY_RHS)

    @staticmethod
    def _adjugate_kinds(monkeypatch):
        """The dtype kind of the adjugate at the start of every pivot."""
        kinds = []
        pivot = rational_lp._ExactBasis.pivot

        def record(lp, *args):
            kinds.append(lp.adj.dtype.kind)
            pivot(lp, *args)

        monkeypatch.setattr(rational_lp._ExactBasis, "pivot", record)
        return kinds

    def test_numpy_integers_widen_after_an_int64_pivot(self, monkeypatch):
        # The float basis's adjugate has entries near 2**80, so it is refused;
        # from the artificial basis the first pivot is int64 and leaves
        # entries of 2**40, past the bound.
        kinds = self._adjugate_kinds(monkeypatch)
        rows = [[2**40, 1, 3], [1, 2**40, 5], [7, 2**39, 1]]
        rhs = [2**41 + 3, 2**40 + 1, 5]
        result = feasibility_lp(np.array(rows), np.array(rhs))
        assert kinds == ["i"]
        assert result.violation == reference_feasibility_lp(rows, rhs).violation
        assert_exact_optimum(result, rows, rhs)

    # Entries below 2**12 in magnitude: from the artificial basis each pivot
    # multiplies the adjugate's entries by up to 2**12, and after five int64
    # pivots they pass the bound.
    WIDENING_ROWS = [[2872, 1121, 91, -1886, -1575, -3761],
                     [-3480, -3961, -2661, 2566, 1224, 3381],
                     [29, 873, 3856, 1880, 1083, 357],
                     [490, 3564, -1824, 2587, 1399, -4074]]
    WIDENING_RHS = [-868, 2927, 444, -3821]

    def test_adjugate_widens_partway(self, monkeypatch):
        kinds = self._adjugate_kinds(monkeypatch)
        monkeypatch.setattr(rational_lp, "_float_basis", lambda *args: [6, 7, 8, 9])
        result = feasibility_lp(self.WIDENING_ROWS, self.WIDENING_RHS)
        assert kinds == ["i"] * 5 + ["O"] * 2
        expected = reference_feasibility_lp(self.WIDENING_ROWS, self.WIDENING_RHS)
        assert result.violation == expected.violation > 0
        assert_exact_optimum(result, self.WIDENING_ROWS, self.WIDENING_RHS)

    def test_wrong_float_inverse_is_refused(self, monkeypatch):
        # One entry of the rounded adjugate off by one: B @ adj != d I.
        rows, rhs = cycle_lp([0.9, 0.9, 0.9, 0.9, -0.9])
        scaled_inverse = rational_lp._scaled_inverse

        def off_by_one(b):
            d, adj = scaled_inverse(b)
            adj[0, 0] += 1
            return d, adj

        monkeypatch.setattr(rational_lp, "_scaled_inverse", off_by_one)
        seen = self._record_starts(monkeypatch)
        result = feasibility_lp(rows, rhs)
        assert seen["accepted"] == [False]
        expected = reference_feasibility_lp(rows.tolist(), rhs)
        assert result.violation == expected.violation > 0
        assert_exact_optimum(result, rows.tolist(), rhs)

    def test_determinant_below_det_b_restarts(self, monkeypatch):
        # B = diag(2, -2) has |det B| = 4.  Halved, d = 2 and adj =
        # diag(1, -1) still pass B @ adj == d I, but the dual pivot that
        # follows divides by 2 with a remainder: the loop must restart from
        # the artificial basis instead of rounding.
        rows, rhs = [[2, 0, 1], [0, -2, 1]], [1, 1]
        scaled_inverse = rational_lp._scaled_inverse

        def halved(b):
            d, adj = scaled_inverse(b)
            return d // 2, adj // 2

        monkeypatch.setattr(rational_lp, "_scaled_inverse", halved)
        monkeypatch.setattr(rational_lp, "_float_basis", lambda *args: [0, 1])
        starts = []
        init = rational_lp._ExactBasis.__init__

        def record_init(lp, *args):
            starts.append(lp)
            init(lp, *args)

        monkeypatch.setattr(rational_lp._ExactBasis, "__init__", record_init)
        seen = self._record_starts(monkeypatch)
        result = feasibility_lp(rows, rhs)
        assert seen == {"accepted": [True], "negative_values": [True]}
        assert len(starts) == 2
        assert result.violation == reference_feasibility_lp(rows, rhs).violation == 0
        assert_exact_optimum(result, rows, rhs)


def cycle_problem(corr) -> MarginalProblem:
    """The n-cycle X0 - X1 - ... - X(n-1) - X0 of +/-1 axes with unbiased
    marginals and correlator corr[k] between X(k) and X(k+1)."""
    n = len(corr)
    names = [f"X{k}" for k in range(n)]
    return MarginalProblem(
        axes={name: PM for name in names},
        contexts=[((names[k], names[(k + 1) % n]),
                   _pair_dist(np.array([[1 + e, 1 - e], [1 - e, 1 + e]]) / 4))
                  for k, e in enumerate(corr)],
    )


def recorded_lp(problem):
    """admits_global_joint's verdict, with the rows, right-hand side and
    exact result of its one feasibility_lp call."""
    calls = []

    def record(rows, rhs):
        calls.append((rows, rhs, feasibility_lp(rows, rhs)))
        return calls[-1][2]

    with mock.patch.object(incompatibility, "feasibility_lp", record):
        verdict = admits_global_joint(problem)
    (rows, rhs, result), = calls
    return verdict, rows, rhs, result


def cycle_lp(corr):
    """The int64 rows and Fraction right-hand side of an n-cycle's LP."""
    _, rows, rhs, _ = recorded_lp(cycle_problem(corr))
    return rows, rhs


def cycle_bound_excess(corr) -> float:
    """max over sign patterns with an odd number of minus signs of
    sum_k s_k corr[k], minus n - 2: a global joint exists iff it is <= 0
    (Araujo et al., PRA 88, 022118, 2013, unbiased marginals).  For n = 4
    this is Fine's criterion, max |E11 + E12 + E21 + E22 - 2 E_ij| <= 2."""
    n = len(corr)
    return max(float(np.dot(signs, corr)) for signs in product((1, -1), repeat=n)
               if signs.count(-1) % 2) - (n - 2)


def assert_farkas(rows, rhs, result) -> None:
    """Exactly: y.A <= 0 componentwise and y.b == violation > 0."""
    y = result.certificate
    common = math.lcm(*(v.denominator for v in y))
    scaled = np.array([int(v * common) for v in y], dtype=object)
    assert (scaled @ rows.astype(object) <= 0).all()
    assert sum(v * b for v, b in zip(y, rhs)) == result.violation > 0


class TestAtTheTupleGuard:
    """The cycle inequalities at MAX_TUPLES: ten binary axes are 1024
    tuples; each LP takes some 30 ms."""

    @pytest.mark.parametrize("corr", [
        [0.79] * 9 + [-0.79],      # odd signs, sum 7.9: inside
        [0.81] * 9 + [-0.81],      # odd signs, sum 8.1: outside
        [0.81] * 10,               # even signs: 8.1 - 2 * 0.81 inside
        [-0.95] * 3 + [0.95] * 7,  # odd signs, sum 9.5: outside
    ])
    def test_ten_cycle_verdicts_follow_the_cycle_inequality(self, corr):
        problem = cycle_problem(corr)
        assert int(np.prod([len(v) for v in problem.axes.values()])) == \
            incompatibility.MAX_TUPLES
        verdict, rows, rhs, result = recorded_lp(problem)
        feasible = cycle_bound_excess(corr) <= 0
        assert verdict.feasible == feasible
        if feasible:
            assert result.violation == 0
            for names, dist in problem.contexts:
                keep = [problem.axis_order().index(name) for name in names]
                assert np.abs(verdict.joint.marginal(keep).probabilities
                              - dist.probabilities).max() <= 1e-12
        else:
            assert_farkas(rows, rhs, result)

    @pytest.mark.parametrize("n, draws", [(4, 40), (10, 4)])
    def test_random_cycle_verdicts(self, n, draws):
        # n = 4 is CHSH, where the cycle inequality is Fine's criterion.
        rng = np.random.default_rng(n)
        verdicts = []
        for _ in range(draws):
            corr = rng.uniform(0.6, 1.0, size=n) * rng.choice((-1, 1), size=n)
            if abs(cycle_bound_excess(corr)) < 1e-3:
                continue
            verdict, rows, rhs, result = recorded_lp(cycle_problem(corr))
            assert verdict.feasible == (cycle_bound_excess(corr) <= 0)
            if not verdict.feasible:
                assert_farkas(rows, rhs, result)
            verdicts.append(verdict.feasible)
        assert True in verdicts and False in verdicts

    def test_eleven_cycle_is_refused_by_the_guard(self):
        with pytest.raises(ValueError, match="2048 exceeds the guard of 1024"):
            admits_global_joint(cycle_problem([0.5] * 11))


class TestAdmitsGlobalJoint:
    def test_product_distributions_feasible(self):
        # Independent fair coins in every context: the product joint works.
        quarter = _pair_dist([[0.25, 0.25], [0.25, 0.25]])
        problem = MarginalProblem(
            axes={"A1": PM, "A2": PM, "B1": PM, "B2": PM},
            contexts=[(("A1", "B1"), quarter), (("A1", "B2"), quarter),
                      (("A2", "B1"), quarter), (("A2", "B2"), quarter)],
        )
        verdict = admits_global_joint(problem)
        assert verdict.feasible
        assert verdict.violation <= 1e-12
        joint = verdict.joint
        assert joint.probabilities.shape == (2, 2, 2, 2)

    def test_recovered_joint_reproduces_contexts(self):
        quarter = _pair_dist([[0.25, 0.25], [0.25, 0.25]])
        corr = _pair_dist([[0.5, 0.0], [0.0, 0.5]])
        problem = MarginalProblem(
            axes={"A1": PM, "A2": PM, "B1": PM, "B2": PM},
            contexts=[(("A1", "B1"), corr), (("A1", "B2"), quarter),
                      (("A2", "B1"), quarter), (("A2", "B2"), quarter)],
        )
        verdict = admits_global_joint(problem)
        assert verdict.feasible
        # Re-marginalize the recovered joint over each context.
        order = problem.axis_order()
        for names, dist in problem.contexts:
            axes_idx = [order.index(n) for n in names]
            marg = verdict.joint.marginal(axes_idx).probabilities
            assert np.abs(marg - dist.probabilities).max() <= 1e-9

    def test_pr_box_infeasible(self):
        corr = _pair_dist([[0.5, 0.0], [0.0, 0.5]])
        anti = _pair_dist([[0.0, 0.5], [0.5, 0.0]])
        problem = MarginalProblem(
            axes={"A1": PM, "A2": PM, "B1": PM, "B2": PM},
            contexts=[(("A1", "B1"), corr), (("A1", "B2"), corr),
                      (("A2", "B1"), corr), (("A2", "B2"), anti)],
        )
        verdict = admits_global_joint(problem)
        assert not verdict.feasible
        assert verdict.violation > 0.1
        assert verdict.certificate

    def test_certificate_separates(self):
        corr = _pair_dist([[0.5, 0.0], [0.0, 0.5]])
        anti = _pair_dist([[0.0, 0.5], [0.5, 0.0]])
        problem = MarginalProblem(
            axes={"A1": PM, "A2": PM, "B1": PM, "B2": PM},
            contexts=[(("A1", "B1"), corr), (("A1", "B2"), corr),
                      (("A2", "B1"), corr), (("A2", "B2"), anti)],
        )
        verdict = admits_global_joint(problem)
        # y.b must be strictly positive: the witnessed inequality is violated.
        lookup = dict(verdict.certificate)
        total = 0.0
        for names, dist in problem.contexts:
            flat = dist.probabilities.ravel()
            for entry, combo in enumerate(
                np.ndindex(*dist.probabilities.shape)
            ):
                coef = lookup.get((names, tuple(combo)), 0.0)
                total += coef * flat[entry]
        total += lookup.get(("normalization", ()), 0.0)
        assert total > 1e-6

    def test_inconsistent_marginals_rejected(self):
        biased = _pair_dist([[0.4, 0.2], [0.1, 0.3]])   # A1 marginal (0.6, 0.4)
        quarter = _pair_dist([[0.25, 0.25], [0.25, 0.25]])
        problem = MarginalProblem(
            axes={"A1": PM, "B1": PM, "B2": PM},
            contexts=[(("A1", "B1"), biased), (("A1", "B2"), quarter)],
        )
        with pytest.raises(ValueError):
            admits_global_joint(problem)

    @pytest.mark.parametrize("context, message", [
        ((("A1", "C"), _pair_dist([[0.25, 0.25], [0.25, 0.25]])), "undeclared axes"),
        ((("A1",), JointDistribution([np.array(PM)], np.array([0.2, 0.3, 0.5]))),
         "probabilities of shape"),
    ], ids=["undeclared-axis", "three-probabilities-over-two-values"])
    def test_malformed_context_rejected(self, context, message):
        quarter = _pair_dist([[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(ValueError, match=rf"^contexts\[1\]: {message}"):
            MarginalProblem(axes={"A1": PM, "B1": PM},
                            contexts=[(("A1", "B1"), quarter), context])

    def test_constraint_rows_labels_and_rhs(self, monkeypatch):
        # Contexts of arity 1-3, one with its axes out of problem order,
        # taken from one global joint.
        rng = np.random.default_rng(7)
        sizes = {"A": 2, "B": 3, "C": 2}
        joint = rng.dirichlet(np.ones(12)).reshape(2, 3, 2)
        axes = {name: list(range(s)) for name, s in sizes.items()}

        def context(names):
            keep = ["ABC".index(n) for n in names]
            table = joint.sum(axis=tuple(k for k in range(3) if k not in keep))
            table = np.transpose(table, np.argsort(np.argsort(keep)))
            return names, JointDistribution(
                [np.arange(sizes[n], dtype=float) for n in names], table)

        problem = MarginalProblem(axes, [context(("C", "A")), context(("B",)),
                                         context(("A", "B", "C"))])
        # The row-by-row construction the vectorised build replaces.
        order = list(sizes)
        rows, rhs, labels = [], [], []
        for names, dist in problem.contexts:
            pos = [order.index(n) for n in names]
            flat = dist.probabilities.ravel()
            for entry, combo in enumerate(product(*(range(sizes[n]) for n in names))):
                rows.append([int(all(t[p] == c for p, c in zip(pos, combo)))
                             for t in product(*(range(sizes[n]) for n in order))])
                rhs.append(Fraction(float(flat[entry])))
                labels.append((names, combo))
        rows.append([1] * 12)
        rhs.append(Fraction(1))
        labels.append(("normalization", ()))

        seen = {}

        def fake_lp(a, b):
            seen["rows"], seen["rhs"] = np.asarray(a), b
            return FeasibilityResult(Fraction(1), [], list(range(1, len(b) + 1)))

        monkeypatch.setattr(incompatibility, "feasibility_lp", fake_lp)
        verdict = admits_global_joint(problem)
        assert np.array_equal(seen["rows"], np.array(rows))
        assert seen["rhs"] == rhs
        assert verdict.certificate == [(label, float(k + 1))
                                       for k, label in enumerate(labels)]

    def test_tuple_space_guard(self):
        dist = _pair_dist([[0.25, 0.25], [0.25, 0.25]])
        axes = {f"X{k}": PM for k in range(15)}
        problem = MarginalProblem(
            axes=axes, contexts=[(("X0", "X1"), dist)]
        )
        with pytest.raises(ValueError):
            admits_global_joint(problem)


class TestChsh:
    def test_singlet_optimum(self):
        state, a1, a2, b1, b2 = singlet_setup()
        value = chsh_value(state, a1, a2, b1, b2)
        assert value == pytest.approx(CHSH_QUANTUM_BOUND, abs=1e-10)

    def test_commuting_settings_classical(self):
        z = direction_observable("Z", 0.0)
        state = AlgebraicState.maximally_mixed(4)
        assert chsh_value(state, z, z, z, z) <= 2.0 + 1e-12

    def test_max_over_signs_ge_fixed(self):
        state, a1, a2, b1, b2 = singlet_setup()
        fixed = chsh_value(state, a1, a2, b1, b2)
        best = chsh_max_over_signs(state, a1, a2, b1, b2)
        assert best >= fixed - 1e-12

    @pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 3)])
    def test_correlators_from_the_context_tables(self, rng, da, db):
        # Each correlator is sum a b p_ij(a, b) over the table that
        # chsh_marginal_problem hands to the LP, and agrees with the dense
        # <A (x) B> of the reconstructed matrices; the all-sign maximum is
        # the largest of the eight signed sums.
        def pm_observable(name, dim):
            u = random_unitary(rng, dim)
            return observable(name, (u * rng.choice(PM, size=dim)) @ u.conj().T)

        def correlator(dist):
            return dist.axes[0] @ dist.probabilities @ dist.axes[1]

        for _ in range(10):
            a1, a2 = pm_observable("A1", da), pm_observable("A2", da)
            b1, b2 = pm_observable("B1", db), pm_observable("B2", db)
            state = random_density(rng, da * db)
            contexts = dict(chsh_marginal_problem(state, a1, a2, b1, b2).contexts)
            e = np.array([[correlator(contexts[(a, b)]) for b in ("B1", "B2")]
                          for a in ("A1", "A2")])
            dense = np.array([[state.expect(np.kron(a.matrix(), b.matrix())).real
                               for b in (b1, b2)] for a in (a1, a2)])
            assert np.abs(e - dense).max() < 1e-13
            assert chsh_value(state, a1, a2, b1, b2) == abs(
                e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])
            signed = []
            for k in range(4):
                signs = np.ones(4)
                signs[k] = -1.0
                signed.append(abs(signs @ dense.ravel()))
            assert chsh_max_over_signs(state, a1, a2, b1, b2) == pytest.approx(
                max(signed), abs=1e-13)

    def test_rejects_non_pm_observables(self):
        state = AlgebraicState.maximally_mixed(4)
        bad = observable("bad", np.diag([0.0, 1.0]))
        z = direction_observable("Z", 0.0)
        with pytest.raises(ValueError):
            chsh_value(state, bad, z, z, z)

    @pytest.mark.parametrize("slot", [1, 3])
    def test_settings_of_one_party_differ_in_dimension(self, slot):
        state, *settings = singlet_setup()
        settings[slot] = observable("W", np.diag([1.0, -1.0, 1.0]))
        for check in (chsh_value, chsh_max_over_signs, chsh_marginal_problem):
            with pytest.raises(ValueError, match="different dimensions"):
                check(state, *settings)

    def test_lp_agrees_with_fine_criterion_singlet(self):
        state, a1, a2, b1, b2 = singlet_setup()
        assert chsh_max_over_signs(state, a1, a2, b1, b2) > 2.0
        problem = chsh_marginal_problem(state, a1, a2, b1, b2)
        verdict = admits_global_joint(problem)
        assert not verdict.feasible
        assert verdict.certificate

    def test_marginal_tables_off_one_raise(self):
        # The trace is 1 + 5e-10, inside the state's own tol.num; under a
        # tighter tol.num the tables are off 1 and are not renormalised.
        state = AlgebraicState((1.0 + 5e-10) * np.eye(4) / 4)
        settings = [direction_observable(name, 0.0) for name in ("A1", "A2", "B1", "B2")]
        chsh_marginal_problem(state, *settings)
        with pytest.raises(ValueError, match="sum to"):
            chsh_marginal_problem(state, *settings, tol=Tolerances(num=1e-10))

    def test_lp_agrees_with_fine_criterion_classical(self):
        # Settings that stay at or below the classical bound must be feasible.
        state = AlgebraicState.maximally_mixed(4)
        a1 = direction_observable("A1", 0.0)
        a2 = direction_observable("A2", np.pi / 3)
        b1 = direction_observable("B1", np.pi / 5)
        b2 = direction_observable("B2", np.pi / 7)
        assert chsh_max_over_signs(state, a1, a2, b1, b2) <= 2.0
        verdict = admits_global_joint(chsh_marginal_problem(state, a1, a2, b1, b2))
        assert verdict.feasible


class TestNoncommutativeUnifyingState:
    def test_recovers_consistent_contexts(self):
        # X = Z (x) 1 commutes with A = 1 (x) Z and B = 1 (x) X; target tables
        # come from a genuine state, so a unifying state exists.
        z2 = np.diag([-1.0, 1.0]).astype(complex)
        x2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        x = observable("X", np.kron(z2, np.eye(2)))
        a = observable("A", np.kron(np.eye(2), z2))
        b = observable("B", np.kron(np.eye(2), x2))
        psi = np.zeros(4)
        psi[0], psi[3] = 1 / np.sqrt(2), 1 / np.sqrt(2)
        rho = AlgebraicState.pure(psi)
        p_xa = _pair_dist([[float(np.real(rho.expect(px @ pu)))
                            for pu in a.projectors] for px in x.projectors])
        p_xb = _pair_dist([[float(np.real(rho.expect(px @ pv)))
                            for pv in b.projectors] for px in x.projectors])
        result = noncommutative_unifying_state(p_xa, p_xb, x, a, b)
        assert result.status == "found"
        out = result.state
        for i, px in enumerate(x.projectors):
            for j, pu in enumerate(a.projectors):
                assert float(np.real(out.expect(px @ pu))) == pytest.approx(
                    p_xa.probabilities[i, j], abs=1e-6
                )

    def test_inconsistent_targets_inconclusive(self):
        # Same operators but a fabricated X-marginal mismatch between the two
        # tables: no state can satisfy both, so the search cannot converge.
        z2 = np.diag([-1.0, 1.0]).astype(complex)
        x2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        x = observable("X", np.kron(z2, np.eye(2)))
        a = observable("A", np.kron(np.eye(2), z2))
        b = observable("B", np.kron(np.eye(2), x2))
        p_xa = _pair_dist([[0.45, 0.05], [0.05, 0.45]])
        p_xb = _pair_dist([[0.05, 0.15], [0.15, 0.65]])   # X-marginal differs
        result = noncommutative_unifying_state(
            p_xa, p_xb, x, a, b, max_iter=2000
        )
        assert result.status == "inconclusive"
        assert result.residual > 1e-9

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e6])
    def test_commuting_x_accepted_at_any_scale(self, rng, scale):
        u = random_unitary(rng, 4)
        x, a, b = (observable(name, scale * (u * np.array(v, dtype=float)) @ u.conj().T)
                   for name, v in (("X", (0, 0, 1, 1)), ("A", (0, 1, 0, 1)),
                                   ("B", (0, 1, 1, 0))))
        dist = _pair_dist([[0.25, 0.25], [0.25, 0.25]])
        result = noncommutative_unifying_state(dist, dist, x, a, b, max_iter=10)
        assert result.status in ("found", "inconclusive")

    def test_noncommuting_x_rejected(self):
        z = observable("Z", np.diag([-1.0, 1.0]))
        x = observable("X", np.array([[0.0, 1.0], [1.0, 0.0]]))
        dist = _pair_dist([[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(ValueError):
            noncommutative_unifying_state(dist, dist, z, x, x)
