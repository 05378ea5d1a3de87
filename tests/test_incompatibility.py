from fractions import Fraction
from itertools import product

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

    def test_noncommuting_x_rejected(self):
        z = observable("Z", np.diag([-1.0, 1.0]))
        x = observable("X", np.array([[0.0, 1.0], [1.0, 0.0]]))
        dist = _pair_dist([[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(ValueError):
            noncommutative_unifying_state(dist, dist, z, x, x)
