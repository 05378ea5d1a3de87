"""Operator families as one read-only (n, d, d) stack, and the array
expressions over those stacks checked against their per-member loops."""

import json

import numpy as np
import pytest

from collapsekit.chain import records
from collapsekit.cli import main
from collapsekit.collapse_product import JointDistribution, catalan
from collapsekit.incompatibility import chsh_marginal_problem, noncommutative_unifying_state
from collapsekit.measurement import (
    POVM,
    PVM,
    AlgebraicState,
    observable,
    povm_from_mixture,
    pvm_from_observable,
)
from collapsekit.operator_core import SpectralDecomposition

from conftest import (
    direction_observable,
    random_density,
    random_unitary,
    reference_chsh_tables,
    reference_projectors,
    reference_unifying_state,
    singlet_state,
)


def _observables(rng):
    """(matrix, observable) pairs: non-degenerate and degenerate spectra at
    each d = 2..10."""
    for dim in range(2, 11):
        for values in (rng.normal(size=dim), np.arange(dim) % max(1, dim // 3)):
            u = random_unitary(rng, dim)
            matrix = (u * np.asarray(values, dtype=float)) @ u.conj().T
            yield matrix, observable("A", matrix)


class TestProjectorStacks:
    def test_read_only_stack_equal_to_cluster_loop(self, rng):
        for matrix, obs in _observables(rng):
            stack = obs.projectors
            assert isinstance(stack, np.ndarray)
            assert stack.dtype == np.complex128
            assert stack.shape == (obs.n_outcomes, obs.dim, obs.dim)
            assert not stack.flags.writeable
            assert np.array_equal(stack, np.stack(reference_projectors(matrix)))

    def test_frames_span_each_projector(self, rng):
        # spectral_decompose hands over its eigenvector blocks; a raw
        # decomposition computes the same frames from its projectors.  Both
        # take their width from `ranks`, the projectors' traces, read-only.
        for _, obs in _observables(rng):
            handed = obs.decomposition
            assert "frames" in vars(handed)
            raw = SpectralDecomposition(handed.eigenvalues, handed.projectors)
            ranks = np.rint(np.trace(obs.projectors, axis1=1, axis2=2).real)
            for decomposition in (handed, raw):
                assert decomposition.ranks.dtype == np.int64
                np.testing.assert_array_equal(decomposition.ranks, ranks)
                with pytest.raises(ValueError):
                    decomposition.ranks[0] = 0
            assert "frames" not in vars(raw)
            for frames in (handed.frames, raw.frames):
                assert frames.shape == (obs.n_outcomes, obs.dim, int(ranks.max()))
                assert not frames.flags.writeable
                # [B_i | 0]: orthonormal columns, then zero padding.
                gram = frames.conj().swapaxes(1, 2) @ frames
                pad = np.arange(frames.shape[-1]) < ranks[:, None]
                assert np.abs(gram - pad[:, :, None] * np.eye(len(pad[0]))).max() < 1e-14
                assert np.abs(frames @ frames.conj().swapaxes(1, 2) - obs.projectors).max() < 1e-14

    def test_writing_raises(self, rng):
        _, obs = next(_observables(rng))
        with pytest.raises(ValueError):
            obs.projectors[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            obs.projectors[1] += obs.projectors[0]

    def test_real_list_is_coerced_and_copied(self):
        given = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        decomp = SpectralDecomposition([-1.0, 1.0], given)
        assert decomp.projectors.dtype == np.complex128
        assert decomp.projectors.shape == (2, 2, 2)
        assert np.array_equal(decomp.projectors, np.stack(given))
        given[0][0, 0] = 5.0
        assert decomp.projectors[0, 0, 0] == 1.0
        decomp.check()

    @pytest.mark.parametrize("projectors", [
        [np.eye(2), np.eye(3)],                 # ragged
        [np.ones((2, 3)), np.ones((2, 3))],     # non-square
        [np.ones(2), np.ones(2)],               # vectors
    ])
    def test_bad_shapes_raise(self, projectors):
        with pytest.raises(ValueError):
            SpectralDecomposition([0.0, 1.0], projectors)

    def test_non_square_message_names_the_shape(self):
        with pytest.raises(ValueError, match=r"\(2, 2, 3\)"):
            SpectralDecomposition([0.0, 1.0], [np.ones((2, 3)), np.ones((2, 3))])

    def test_pvm_and_povm_hold_stacks(self, rng):
        for _, obs in _observables(rng):
            values = list(obs.sample_space)
            pvm = pvm_from_observable(obs, [values[::2], values[1::2]])
            assert isinstance(pvm.projectors, np.ndarray)
            assert pvm.projectors.shape == (2, obs.dim, obs.dim)
            assert not pvm.projectors.flags.writeable
            kappas = rng.dirichlet(np.ones(3), size=obs.n_outcomes)
            povm = povm_from_mixture(kappas, obs.projectors)
            assert isinstance(povm.effects, np.ndarray)
            assert povm.effects.dtype == np.complex128
            assert povm.effects.shape == (3, obs.dim, obs.dim)
            assert not povm.effects.flags.writeable
        listed = PVM([0, 1], [np.diag([1, 0]), np.diag([0, 1])])
        assert listed.projectors.dtype == np.complex128
        listed.check()
        effects = POVM(["a", "b"], [np.eye(2) / 2, np.eye(2) / 2]).effects
        assert effects.shape == (2, 2, 2) and not effects.flags.writeable


class TestChshTables:
    def test_tables_match_kron_loop(self, rng):
        settings = [
            (singlet_state(), (0.0, np.pi / 2), (5 * np.pi / 4, 3 * np.pi / 4)),
            (AlgebraicState.maximally_mixed(4), (0.0, np.pi / 3), (np.pi / 5, np.pi / 7)),
        ]
        for _ in range(6):
            settings.append((random_density(rng, 4), rng.uniform(0, 2 * np.pi, 2),
                             rng.uniform(0, 2 * np.pi, 2)))
        for state, (ta1, ta2), (tb1, tb2) in settings:
            a_pair = (direction_observable("A1", ta1), direction_observable("A2", ta2))
            b_pair = (direction_observable("B1", tb1), direction_observable("B2", tb2))
            problem = chsh_marginal_problem(state, *a_pair, *b_pair)
            reference = reference_chsh_tables(state, a_pair, b_pair)
            assert [names for names, _ in problem.contexts] == [
                ("A1", "B1"), ("A1", "B2"), ("A2", "B1"), ("A2", "B2")]
            for (_, dist), table in zip(problem.contexts, reference):
                assert np.abs(dist.probabilities - table).max() <= 1e-15


def _pair_dist(table):
    return JointDistribution([np.array([0.0, 1.0])] * 2, np.asarray(table, dtype=float))


def _block_problem(rng, dim, consistent, pure):
    """X with two eigenspaces of dimension dim/2 and A, B acting inside them
    (so both commute with X); targets from a full-rank or a pure state, and
    for inconsistent problems B's X-marginal reweighted away from A's."""
    m = dim // 2
    x = observable("X", np.diag([0.0] * m + [1.0] * m))

    def block_observable(name):
        u = np.zeros((dim, dim), dtype=np.complex128)
        u[:m, :m] = random_unitary(rng, m)
        u[m:, m:] = random_unitary(rng, m)
        return observable(name, (u * (np.arange(dim) % 2).astype(float)) @ u.conj().T)

    a, b = block_observable("A"), block_observable("B")
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        rho = AlgebraicState.pure(v / np.linalg.norm(v)).density
    else:
        rho = random_density(rng, dim).density
    tables = [np.array([[np.real(np.trace(rho @ p @ q)) for q in obs.projectors]
                        for p in x.projectors]) for obs in (a, b)]
    if not consistent:
        tables[1] = tables[1] * np.array([[0.6], [1.4]])
        tables[1] /= tables[1].sum()
    return _pair_dist(tables[0]), _pair_dist(tables[1]), x, a, b


def _two_qubit_problems():
    z2 = np.diag([-1.0, 1.0]).astype(complex)
    x2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    x = observable("X", np.kron(z2, np.eye(2)))
    a = observable("A", np.kron(np.eye(2), z2))
    b = observable("B", np.kron(np.eye(2), x2))
    psi = np.zeros(4)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = AlgebraicState.pure(psi)
    p_xa = _pair_dist([[float(np.real(rho.expect(px @ pu))) for pu in a.projectors]
                       for px in x.projectors])
    p_xb = _pair_dist([[float(np.real(rho.expect(px @ pv))) for pv in b.projectors]
                       for px in x.projectors])
    yield (p_xa, p_xb, x, a, b), 100_000
    yield (_pair_dist([[0.45, 0.05], [0.05, 0.45]]),
           _pair_dist([[0.05, 0.15], [0.15, 0.65]]), x, a, b), 2000


class TestStateSearch:
    def _assert_matches_reference(self, args, max_iter):
        result = noncommutative_unifying_state(*args, max_iter=max_iter)
        status, iterations, density, residual = reference_unifying_state(*args, max_iter=max_iter)
        assert result.status == status
        assert result.iterations == iterations
        assert abs(result.residual - residual) <= 1e-12
        if density is None:
            assert result.state is None
        else:
            assert np.abs(result.state.density - density).max() <= 1e-12

    def test_existing_problems(self):
        for args, max_iter in _two_qubit_problems():
            self._assert_matches_reference(args, max_iter)

    @pytest.mark.parametrize("dim", [4, 6, 8])
    def test_random_block_problems(self, rng, dim):
        for consistent, pure in ((True, False), (True, True), (False, False)):
            args = _block_problem(rng, dim, consistent, pure)
            self._assert_matches_reference(args, 2000 if consistent else 50)


class TestRecordsAndBrackets:
    def test_records_carry_python_ints(self):
        outcomes = np.array([[0, 2], [1, 0]], dtype=np.int64)
        for record in records(outcomes):
            assert all(type(v) is int for v in record.outcomes)

    def test_brackets_count_is_catalan_past_twelve(self, capsys):
        assert main(["--format=json", "brackets", "14"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["bracketings"] for r in rows] == [catalan(n) for n in range(1, 15)]
        assert rows[11]["bracketings"] == 58786
