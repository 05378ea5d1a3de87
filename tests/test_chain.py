import io
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from collapsekit import chain
from collapsekit import (
    AlgebraicState,
    ChainSpec,
    Tolerances,
    compare_conventions,
    empirical_distribution,
    exact_chain_distribution,
    sample_chain_leftfold,
    sample_chain_tree,
    total_variation,
    write_records,
)
from collapsekit.chain import sample_distribution
from collapsekit.collapse_product import (
    JointDistribution,
    Leaf,
    Node,
    collapse_effect_tree,
    joint_distribution,
    left_fold_tree,
)
from collapsekit.measurement import (
    ZeroProbabilityOutcomeError,
    discretize_observable,
    observable,
)
from collapsekit.operator_core import DimensionMismatchError, batched_psd_sqrt

from conftest import (
    PAULI_X,
    PAULI_Z,
    assert_same_draws,
    degenerate_observable,
    direction_observable,
    fourier_pair,
    philox_uniforms,
    random_density,
    random_unitary,
    record_text,
    reference_leftfold,
)

Z = observable("Z", PAULI_Z)
X = observable("X", PAULI_X)
KET0 = AlgebraicState.pure([1.0, 0.0])
MIXED = AlgebraicState.maximally_mixed(2)


class TestChainSpec:
    def test_cycling(self):
        spec = ChainSpec([Z, X], length=5)
        names = [o.name for o in spec.sequence()]
        assert names == ["Z", "X", "Z", "X", "Z"]

    def test_tree_from_convention(self):
        assert str(ChainSpec([Z], 3, "left_fold").tree()) == "((0 >o 1) >o 2)"
        assert str(ChainSpec([Z], 3, "right_fold").tree()) == "(0 >o (1 >o 2))"
        assert str(ChainSpec([Z], 3, "reverse_fold").tree()) == "((0 o< 1) o< 2)"

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ChainSpec([Z], 0)
        with pytest.raises(ValueError):
            ChainSpec([], 3)
        with pytest.raises(ValueError):
            ChainSpec([Z], 3, "middle_out")

    @pytest.mark.parametrize("field, value", [
        ("length", 2.5), ("length", True), ("seed", True), ("seed", 1.0),
        ("convention", 5), ("convention", Node(Leaf(0), Leaf(1))),
    ], ids=repr)
    def test_field_of_the_wrong_type_rejected(self, field, value):
        fields = {"length": 2, "convention": "left_fold", "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field}: "):
            ChainSpec([Z], **fields)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ChainSpec([Z], 3, seed=seed)
        ChainSpec([Z], 3, seed=2**64 - 1)


class TestDeterminism:
    def test_leftfold_byte_identical(self):
        spec = ChainSpec([Z, X], length=6, seed=42)
        a = sample_chain_leftfold(spec, MIXED, runs=500)
        b = sample_chain_leftfold(spec, MIXED, runs=500)
        assert np.array_equal(a, b)

    def test_seed_changes_output(self):
        a = sample_chain_leftfold(ChainSpec([Z, X], 6, seed=1), MIXED, 500)
        b = sample_chain_leftfold(ChainSpec([Z, X], 6, seed=2), MIXED, 500)
        assert not np.array_equal(a, b)

    def test_run_prefix_stability(self):
        # Run r's outcomes do not depend on how many runs are requested.
        spec = ChainSpec([Z, X], length=4, seed=7)
        small = sample_chain_leftfold(spec, MIXED, runs=100)
        large = sample_chain_leftfold(spec, MIXED, runs=1000)
        assert np.array_equal(small, large[:100])

    def test_tree_sampler_deterministic(self):
        spec = ChainSpec([Z, X], length=3, seed=11)
        a = sample_chain_tree(spec, MIXED, runs=500)
        b = sample_chain_tree(spec, MIXED, runs=500)
        assert np.array_equal(a, b)


class TestStatistics:
    def test_single_measurement_binomial(self):
        # X on |0>: each outcome is a fair coin; 3-sigma band on the count.
        runs = 20_000
        spec = ChainSpec([X], length=1, seed=3)
        outcomes = sample_chain_leftfold(spec, KET0, runs)
        count = int(outcomes.sum())
        sigma = np.sqrt(runs * 0.25)
        assert abs(count - runs / 2) < 3 * sigma

    def test_repeatability_same_observable(self):
        # Consecutive identical measurements repeat their outcome.
        spec = ChainSpec([Z], length=5, seed=9)
        outcomes = sample_chain_leftfold(spec, MIXED, runs=2000)
        assert np.all(outcomes == outcomes[:, :1])

    def test_leftfold_matches_exact(self):
        runs = 50_000
        spec = ChainSpec([Z, X, Z], length=3, seed=17)
        outcomes = sample_chain_leftfold(spec, KET0, runs)
        emp = empirical_distribution(outcomes, spec)
        exact = exact_chain_distribution(spec, KET0)
        assert total_variation(exact, emp) < 0.01

    def test_mechanism_equivalence_chi_square(self):
        # Step sampling and table sampling target the same distribution.
        runs = 50_000
        spec = ChainSpec([Z, X], length=3, seed=23)
        exact = exact_chain_distribution(spec, KET0)
        for sampler in (sample_chain_leftfold, sample_chain_tree):
            outcomes = sampler(spec, KET0, runs)
            emp = empirical_distribution(outcomes, spec)
            expected = exact.probabilities.ravel() * runs
            observed = emp.probabilities.ravel() * runs
            mask = expected > 1e-9
            chi2 = float(((observed[mask] - expected[mask]) ** 2
                          / expected[mask]).sum())
            dof = int(mask.sum()) - 1
            assert chi2 < stats.chi2.ppf(0.999, dof)

    def test_left_vs_right_fold_diverge(self):
        left = ChainSpec([Z, X, Z], 3, "left_fold")
        right = ChainSpec([Z, X, Z], 3, "right_fold")
        cmp = compare_conventions([left, right], KET0, runs=20_000)
        key = ("left_fold", "right_fold")
        assert cmp.exact_tv[key] > 0.1
        assert cmp.empirical_tv[key] > 0.05
        for v in cmp.exact_vs_empirical_tv.values():
            assert v < 0.02

    def test_compare_conventions_builds_each_law_once(self, monkeypatch):
        specs = [ChainSpec([Z, X, Z], 3, name, seed=5)
                 for name in ("left_fold", "right_fold", "reverse_fold")]
        exact = [exact_chain_distribution(s, KET0) for s in specs]
        empirical = [empirical_distribution(sample_chain_tree(s, KET0, 3000), s)
                     for s in specs]
        calls = []
        build = chain.exact_chain_distribution

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(chain, "exact_chain_distribution", counting)
        cmp = compare_conventions(specs, KET0, runs=3000)
        assert [c[0] for c in calls] == specs
        for got, want in zip(cmp.exact + cmp.empirical, exact + empirical):
            assert np.array_equal(got.probabilities, want.probabilities)
        names = [str(s.convention) for s in specs]
        assert cmp.conventions == names
        assert cmp.exact_tv == {(a, b): total_variation(exact[i], exact[j])
                                for i, a in enumerate(names)
                                for j, b in enumerate(names) if i < j}
        assert cmp.empirical_tv == {
            (a, b): total_variation(empirical[i], empirical[j])
            for i, a in enumerate(names) for j, b in enumerate(names) if i < j}
        assert cmp.exact_vs_empirical_tv == {
            a: total_variation(exact[i], empirical[i]) for i, a in enumerate(names)}

    def test_commuting_reverse_fold_identical(self):
        a = observable("A", np.diag([1.0, 2.0]))
        b = observable("B", np.diag([3.0, 5.0]))
        rho = AlgebraicState(np.diag([0.3, 0.7]))
        fwd = exact_chain_distribution(ChainSpec([a, b, a], 3, "left_fold"), rho)
        rev = exact_chain_distribution(ChainSpec([a, b, a], 3, "reverse_fold"), rho)
        assert total_variation(fwd, rev) <= 1e-12


class TestRecords:
    def test_line_format(self):
        outcomes = np.array([[0, 1, 1], [1, 0, 0]])
        assert written(outcomes) == ["0\t0,1,1\n", "1\t1,0,0\n"]


def written(outcomes) -> list:
    """The text write_records writes, split after each newline (so that a
    failing comparison reports the first differing line, not a diff)."""
    stream = io.StringIO()
    write_records(outcomes, stream)
    return stream.getvalue().splitlines(keepends=True)


def oracle(outcomes) -> list:
    return record_text(outcomes).splitlines(keepends=True)


BLOCK = chain._BLOCK


class TestWriteRecords:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("runs", [1, 9, 10, 11, 100, 1001,
                                      BLOCK - 1, BLOCK, BLOCK + 1])
    def test_equals_the_records(self, runs, n):
        outcomes = np.random.default_rng(runs).integers(0, 13, size=(runs, n))
        assert written(outcomes) == oracle(outcomes)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_across_blocks_of_cells(self, n, blocks, extra):
        # A block holds BLOCK cells: BLOCK // (n + 1) runs of an id and n outcomes.
        runs = blocks * (BLOCK // (n + 1)) + extra
        outcomes = np.random.default_rng(runs).integers(0, 13, size=(runs, n))
        assert written(outcomes) == oracle(outcomes)

    def test_outcome_indices_past_nine(self):
        # Twelve outcomes, each with probability 1/12.
        twelve = observable("N", np.diag(np.arange(12.0)))
        outcomes = sample_chain_leftfold(
            ChainSpec([twelve], 3), AlgebraicState.maximally_mixed(12), 5000)
        assert outcomes.max() >= 10
        assert written(outcomes) == oracle(outcomes)

    def test_every_digit_count(self):
        # Columns of 1 to 19 digits, with widths that vary and widths that do not.
        values = np.array([10**k for k in range(19)] + [10**k - 1 for k in range(1, 19)] + [0])
        outcomes = np.stack([values, values[::-1], np.full(len(values), 7)], axis=1)
        assert written(outcomes) == oracle(outcomes)
        assert written(np.full((5, 2), 42)) == oracle(np.full((5, 2), 42))

    def test_a_row_past_the_block(self):
        outcomes = np.random.default_rng(1).integers(0, 123, size=(3, BLOCK + 5))
        assert written(outcomes) == oracle(outcomes)

    def test_unsigned_and_zero_runs(self):
        outcomes = np.array([[7, 0], [10, 1000]], dtype=np.uint16)
        assert written(outcomes) == ["0\t7,0\n", "1\t10,1000\n"]
        assert written(np.zeros((0, 2), dtype=np.int64)) == []

    @pytest.mark.parametrize("outcomes", [
        np.array([[0, -1]]), np.array([0, 1]), np.zeros((2, 0), dtype=np.int64),
        np.array([[0.0, 1.0]]),
    ])
    def test_rejects_what_records_do_not_hold(self, outcomes):
        with pytest.raises(ValueError):
            write_records(outcomes, io.StringIO())


def narrowest(outcomes: int) -> np.dtype:
    """The samplers' outcome type for a widest axis of `outcomes` outcomes."""
    if outcomes <= 2**7:
        return np.dtype(np.int8)
    if outcomes <= 2**15:
        return np.dtype(np.int16)
    return np.dtype(np.int32)


def reference_draws(dist, u):
    """The flat inverse-CDF draws of uniforms u by binary search, unravelled."""
    cum = np.cumsum(dist.probabilities.ravel())
    cum[-1] = 1.0
    return np.stack(np.unravel_index(np.searchsorted(cum, u, "right"), dist.shape), 1)


def table(probabilities):
    probabilities = np.asarray(probabilities, dtype=float)
    return JointDistribution([np.arange(s, dtype=float) for s in probabilities.shape],
                             probabilities / probabilities.sum())


def plateaus(shape, seed):
    """A table with about a third of its entries, and some whole blocks and
    its last entries, at zero probability."""
    rng = np.random.default_rng(seed)
    p = rng.random(shape) * (rng.random(shape) > 0.35)
    if len(shape) > 1 and shape[0] > 2:
        p[1] = 0.0
    p.reshape(-1)[-3:] = 0.0
    p.reshape(-1)[0] += 0.01
    return p


def unscaled(probabilities):
    probabilities = np.asarray(probabilities, dtype=float)
    return JointDistribution([np.arange(s, dtype=float) for s in probabilities.shape],
                             probabilities)


def c3_like():
    """Shaped like the chain workload's c3: a non-degenerate first observable
    measured again at steps 4 and 7 repeats its outcome, so 288 of 4608
    tuples can have mass; the 12 of them that start (0, 0, 0) have none."""
    shape = (4, 2, 3, 4, 2, 3, 4, 2)
    i = np.indices(shape)
    p = np.random.default_rng(8).random(shape) * ((i[0] == i[3]) & (i[0] == i[6]))
    p[0, 0, 0] = 0.0
    return p / p.sum()


def overshoot():
    """A cumulative sum that passes 1 two entries before the end: the forced
    last CDF value 1.0 lies below the one before it."""
    p = np.full(40, 1.0 / 38)
    p[-2:] = 0.0
    p[-3] += 4e-10
    p[-1] = 1e-10
    return p


EDGE_CASES = {
    "c3_like": c3_like(),
    "leading_and_trailing_zeros": np.r_[np.zeros(7), np.arange(1.0, 12.0), np.zeros(5)] / 66,
    "sum_reaches_one_early": np.r_[0.25, 0.75, 0.0, 1e-17, 0.0],
    "overshoot": overshoot(),
    "one_drawable_entry": np.r_[np.zeros(6), 1.0, np.zeros(3)].reshape(2, 5),
    "dirichlet_001": np.random.default_rng(4).dirichlet(np.full(4608, 0.01)).reshape(8, 24, 24),
}


def count_guide_tables(monkeypatch, tables=None) -> list:
    """Record [K, calls] for each guide table `sample_distribution` builds,
    and append the table itself, with its bucket count and bisection
    width, to `tables` when given.  Blocks call the table from several
    threads, so each count is taken under a lock."""
    built = []
    lock = threading.Lock()

    class Counting(chain._GuideTable):
        def __init__(self, values, buckets=None):
            super().__init__(values, buckets)
            built.append([len(values), 0])
            if tables is not None:
                tables.append(self)

        def __call__(self, u):
            with lock:
                built[-1][1] += 1
            return super().__call__(u)

    monkeypatch.setattr(chain, "_GuideTable", Counting)
    return built


def feed_uniforms(monkeypatch, u: np.ndarray) -> None:
    """Make the stream position p of every seed read u[p]."""
    def uniforms_at(seed, start, out, stream=None):
        out[...] = u[start:start + len(out)]
        return stream

    monkeypatch.setattr(chain, "_uniforms_at", uniforms_at)


class TestSampleDistribution:
    @pytest.mark.parametrize("shape", [(1,), (2,), (5,), (17,), (2, 2, 2), (1, 3, 1),
                                       (4, 2, 3, 4), (7, 9, 5), (3, 1, 16, 2)])
    @pytest.mark.parametrize("runs", [1, 1000, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_equals_the_flat_binary_search(self, shape, runs):
        dist = table(plateaus(shape, sum(shape)))
        drawn = sample_distribution(dist, 23, runs)
        assert drawn.dtype == narrowest(max(shape)) and drawn.flags.c_contiguous
        assert drawn.shape == (runs, len(shape))
        np.testing.assert_array_equal(
            drawn, reference_draws(dist, philox_uniforms(23, runs, 1)[:, 0]))

    @pytest.mark.parametrize("shape", [(6,), (3, 4), (2, 5, 3)])
    def test_uniforms_on_the_boundaries(self, shape, monkeypatch):
        # Every uniform equals a CDF value or lies one float below it: the
        # draw must break each tie as searchsorted(..., "right") does.
        dist = table(plateaus(shape, 3))
        cum = np.cumsum(dist.probabilities.ravel())
        u = np.concatenate([cum, np.nextafter(cum, 0.0), [0.0]])
        u = u[u < 1.0]
        feed_uniforms(monkeypatch, u)
        np.testing.assert_array_equal(sample_distribution(dist, 0, len(u)),
                                      reference_draws(dist, u))

    @pytest.mark.parametrize("runs", [7, 64])
    def test_both_samplers_on_the_boundaries(self, runs, monkeypatch):
        # A diagonal four-outcome chain in the maximally mixed state: its
        # first step has the CDF boundaries 1/4, 1/2 and 3/4, and every
        # later step repeats the first outcome.  Each uniform equals a
        # boundary, lies one float below one, or is 0, and 64 runs (one per
        # table entry) take the table sampler's guide table.  Both samplers
        # must count the boundaries at or below u, as searchsorted(...,
        # "right") does.
        spec = ChainSpec([observable("N", np.diag(np.arange(4.0)))], 3)
        rho = AlgebraicState.maximally_mixed(4)
        bounds = np.arange(1, 4) / 4
        u = np.zeros(runs)
        u[:7] = np.concatenate([bounds, np.nextafter(bounds, 0.0), [0.0]])
        expected = np.repeat(np.searchsorted(bounds, u, "right")[:, None], 3, axis=1)
        assert set(expected[:7, 0]) == {0, 1, 2, 3}
        feed_uniforms(monkeypatch, np.repeat(u, 3))     # each step of run r reads u[r]
        np.testing.assert_array_equal(sample_chain_leftfold(spec, rho, runs), expected)
        feed_uniforms(monkeypatch, u)
        guides = count_guide_tables(monkeypatch)
        np.testing.assert_array_equal(sample_chain_tree(spec, rho, runs), expected)
        assert len(guides) == (runs >= 64)

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    @pytest.mark.parametrize("runs", [1, 1000, BLOCK + 1, 5000 + BLOCK])
    def test_edge_tables(self, name, runs):
        dist = unscaled(EDGE_CASES[name])
        np.testing.assert_array_equal(
            sample_distribution(dist, 31, runs),
            reference_draws(dist, philox_uniforms(31, runs, 1)[:, 0]))

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_uniforms_on_cdf_values_and_bucket_edges(self, name, monkeypatch):
        # Every uniform equals a drawable CDF value or a bucket edge g / K
        # (K drawable entries) or g / B (the guide table's B buckets), or
        # lies one float on either side of one.  The B edges alone make
        # more than BLOCK runs, so B = max(K, BLOCK).
        dist = unscaled(EDGE_CASES[name])
        cum = np.cumsum(dist.probabilities.ravel())
        cum[-1] = 1.0
        values = cum[np.diff(cum, prepend=0.0) > 0]
        k = len(values)
        b = max(k, BLOCK)
        u = np.concatenate([values, np.arange(k + 1) / k, np.arange(b + 1) / b])
        u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        u = np.concatenate([u, np.zeros(dist.probabilities.size)])    # runs >= entries
        feed_uniforms(monkeypatch, u)
        tables = []
        guides = count_guide_tables(monkeypatch, tables)
        np.testing.assert_array_equal(sample_distribution(dist, 0, len(u)),
                                      reference_draws(dist, u))
        assert guides == [[len(values), -(-len(u) // BLOCK)]]
        assert [t.buckets for t in tables] == [b]

    def test_more_drawable_entries_than_a_block(self, monkeypatch):
        # K > BLOCK: one bucket per drawable entry, as before.
        p = np.random.default_rng(6).random(BLOCK + 100) + 0.01
        dist = table(p)
        runs = len(p) + 5
        tables = []
        count_guide_tables(monkeypatch, tables)
        np.testing.assert_array_equal(
            sample_distribution(dist, 8, runs),
            reference_draws(dist, philox_uniforms(8, runs, 1)[:, 0]))
        assert [t.buckets for t in tables] == [len(p)]

    def test_values_crowding_one_bucket(self, monkeypatch):
        # 41 CDF values within 5e-8 of 0.3 share one of BLOCK buckets, so
        # the bisection still runs; uniforms on those values and one float
        # on either side must break each tie as searchsorted does.
        p = np.r_[0.3, np.full(40, 1e-9), np.full(23, 0.7 / 23)]
        dist = unscaled(p / p.sum())
        cum = np.cumsum(dist.probabilities)
        cum[-1] = 1.0
        crowd = cum[:41]
        u = np.concatenate([crowd, np.nextafter(crowd, 0.0), np.nextafter(crowd, 1.0)])
        runs = BLOCK + 3
        u = np.concatenate([u, np.random.default_rng(2).random(runs - len(u))])
        feed_uniforms(monkeypatch, u)
        tables = []
        count_guide_tables(monkeypatch, tables)
        np.testing.assert_array_equal(sample_distribution(dist, 0, runs),
                                      reference_draws(dist, u))
        assert tables[0].buckets == BLOCK and tables[0].width >= 41

    @pytest.mark.parametrize("runs", [1, 4607, 4608, 5000, BLOCK - 1, BLOCK, 3 * BLOCK + 1])
    def test_guide_table_only_for_at_least_one_run_per_entry(self, runs, monkeypatch):
        # With fewer runs than entries each run takes a binary search;
        # otherwise one guide table over the 276 drawable entries, with
        # min(runs, BLOCK) buckets, serves every block.
        dist = unscaled(EDGE_CASES["c3_like"])
        tables = []
        guides = count_guide_tables(monkeypatch, tables)
        drawn = sample_distribution(dist, 5, runs)
        np.testing.assert_array_equal(
            drawn, reference_draws(dist, philox_uniforms(5, runs, 1)[:, 0]))
        assert guides == ([] if runs < 4608 else [[276, -(-runs // BLOCK)]])
        assert [t.buckets for t in tables] == ([] if runs < 4608 else [min(runs, BLOCK)])

    def test_guide_table_values_past_one(self):
        # Values of 1 + 1/K and more fall past u's last bucket, K.
        values = np.array([0.1, 0.4, 0.45, 0.5, 1.0, 1.5, 2.5])
        u = np.sort(np.r_[np.linspace(0.0, 1.0, 50, endpoint=False), values[:4],
                          np.nextafter(values[:4], 0.0)])
        np.testing.assert_array_equal(chain._GuideTable(values)(u),
                                      np.searchsorted(values, u, "right"))

    @pytest.mark.parametrize("seed, runs, name", [
        (-1, 5, "seed"), (2**64, 5, "seed"), (True, 5, "seed"), (1.0, 5, "seed"),
        ("3", 5, "seed"), (3, 0, "runs"), (3, -2, "runs"), (3, True, "runs"),
        (3, 2.0, "runs"), (3, None, "runs"),
    ])
    def test_invalid_seed_or_runs_refused(self, seed, runs, name):
        with pytest.raises(ValueError, match=f"^{name}"):
            sample_distribution(table([1.0, 2.0]), seed, runs)

    def test_integer_seed_and_runs_of_any_type(self):
        dist = table([1.0, 2.0, 3.0])
        expected = reference_draws(dist, philox_uniforms(2**64 - 1, 7, 1)[:, 0])
        for seed, runs in ((2**64 - 1, 7), (np.uint64(2**64 - 1), np.int64(7)),
                           (np.uint64(2**64 - 1), np.uint8(7))):
            np.testing.assert_array_equal(sample_distribution(dist, seed, runs), expected)

    @pytest.mark.parametrize("probabilities, message", [
        ([0.25, 0.25], "sum to 1"),
        ([0.5, np.nan, 0.5], "non-finite"),
        ([0.5, np.inf, 0.5], "non-finite"),
        ([0.6, -0.2, 0.6], "negative"),
    ])
    @pytest.mark.parametrize("runs", [1, 10])
    def test_invalid_tables_refused(self, probabilities, message, runs):
        with pytest.raises(ValueError, match=message):
            sample_distribution(unscaled(probabilities), 3, runs)


def draws_by_thread_count(monkeypatch, draw) -> list:
    """draw() with the worker count forced to 1, left at the default, and
    forced to 3 (more threads than blocks or CPUs where that holds)."""
    outputs = []
    for workers in (1, None, 3):
        with monkeypatch.context() as patch:
            if workers is not None:
                patch.setattr(chain, "_workers", lambda blocks, w=workers: min(w, max(1, blocks)))
            outputs.append(draw())
    return outputs


class TestBlocksAndThreads:
    @pytest.mark.parametrize("seed", [0, 23, 2**64 - 1])
    @pytest.mark.parametrize("start", [*range(8), BLOCK - 3, BLOCK, 3 * BLOCK + 5])
    @pytest.mark.parametrize("length", [0, 1, 5, BLOCK + 7])
    def test_uniforms_at_any_stream_position(self, seed, start, length):
        stream = philox_uniforms(seed, start + length, 1)[:, 0]
        out = np.empty(length)
        chain._uniforms_at(seed, start, out)
        np.testing.assert_array_equal(out, stream[start:])

    # A guide table at every run count, and a binary search at every one.
    @pytest.mark.parametrize("shape", [(3, 4), (64, 64, 32)])
    @pytest.mark.parametrize("runs", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_table_draws_do_not_depend_on_the_threads(self, shape, runs, monkeypatch):
        dist = table(plateaus(shape, 2))
        drawn = draws_by_thread_count(monkeypatch, lambda: sample_distribution(dist, 41, runs))
        for other in drawn:
            assert other.tobytes() == drawn[0].tobytes()
        np.testing.assert_array_equal(
            drawn[0], reference_draws(dist, philox_uniforms(41, runs, 1)[:, 0]))

    # 3 * BLOCK + 5 runs: four blocks, the last partial and not a multiple
    # of 4 runs.  With 2 workers lane 0 advances past block 1 to block 2;
    # with 3, past blocks 1 and 2 to block 3.  A guide table for (3, 4),
    # a binary search for (64, 64, 32).
    @pytest.mark.parametrize("shape", [(3, 4), (64, 64, 32)])
    @pytest.mark.parametrize("fed", [False, True])
    def test_each_lane_keys_one_generator(self, shape, fed, monkeypatch):
        runs = 3 * BLOCK + 5
        dist = table(plateaus(shape, 2))
        u = philox_uniforms(41, runs, 1)[:, 0]
        if fed:
            # Uniforms of another stream: every block must read them.
            u = np.random.default_rng(9).random(runs)
            feed_uniforms(monkeypatch, u)
        philox = np.random.Philox
        keyed = []

        def counting(*args, **kwargs):
            keyed.append(1)
            return philox(*args, **kwargs)

        for workers in (1, 2, 3):
            keyed.clear()
            with monkeypatch.context() as patch:
                patch.setattr(chain, "_workers", lambda blocks, w=workers: w)
                patch.setattr(np.random, "Philox", counting)
                drawn = sample_distribution(dist, 41, runs)
            assert drawn.tobytes() == reference_draws(dist, u).astype(drawn.dtype).tobytes()
            assert len(keyed) == (0 if fed else workers)

    def test_guide_adds_at_most_a_block_of_buckets(self, monkeypatch):
        # K = 276 < BLOCK: the guide's min(runs, BLOCK) buckets take at
        # most 8 (BLOCK + 2) bytes more than 276 of them.
        dist = unscaled(EDGE_CASES["c3_like"])
        monkeypatch.setattr(chain, "_workers", lambda blocks: 1)

        def peak() -> int:
            tracemalloc.start()
            try:
                sample_distribution(dist, 5, 4 * BLOCK)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        wide = peak()

        class OnePerEntry(chain._GuideTable):
            def __init__(self, values, buckets=None):
                super().__init__(values)

        monkeypatch.setattr(chain, "_GuideTable", OnePerEntry)
        assert wide - peak() <= 8 * (BLOCK + 2)

    # With 3 workers, block 0 is the caller's and block 5 a helper's.
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("bad", [0, 5])
    def test_an_exception_in_a_block_reaches_the_caller(self, workers, bad):
        def work(lane):
            for lo in lane:
                if lo == bad:
                    raise ZeroDivisionError(f"block {bad}")

        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match=f"block {bad}"):
            chain._each_block(work, range(64), workers)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_every_block_runs_once(self, workers):
        ran = []
        chain._each_block(ran.extend, range(0, 6001, 3), workers)
        assert sorted(ran) == list(range(0, 6001, 3))

    @pytest.mark.parametrize("blocks, cpus, workers", [
        (0, 2, 1), (7, 2, 1), (15, 2, 1), (16, 2, 2), (31, 2, 2), (31, 4, 3), (1000, 1, 1)])
    def test_one_thread_per_eight_blocks_up_to_one_per_cpu(self, blocks, cpus, workers,
                                                           monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert chain._workers(blocks) == workers

    def test_no_thread_outlives_a_call(self, monkeypatch):
        monkeypatch.setattr(chain, "_workers", lambda blocks: min(3, max(1, blocks)))
        before = threading.active_count()
        dist = table(plateaus((4, 5), 1))
        sample_distribution(dist, 1, 3 * BLOCK)
        assert threading.active_count() == before

    def test_no_thread_at_import(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(chain.__file__)))
        code = "import threading, collapsekit; print(threading.active_count())"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"


def rank_two_halves(rng, name):
    """A d = 4 observable with two rank-2 outcomes in a random basis."""
    u = random_unitary(rng, 4)
    return observable(name, (u * np.array([0.0, 0.0, 1.0, 1.0])) @ u.conj().T)


class TestOutcomeType:
    """Both samplers return the narrowest signed integer type that holds
    the largest outcome index, and what reads their outcomes gives what
    it gives on the same outcomes widened to int64."""

    # Every table's last C-order entry, the largest index on every axis,
    # carries half the mass; 100 runs take a binary search, 40000 a guide
    # table.
    @pytest.mark.parametrize("shape", [(128,), (2, 128), (129,), (129, 3),
                                       (32768,), (32769,)])
    @pytest.mark.parametrize("runs", [100, 40000])
    def test_table_sampler_at_the_type_boundaries(self, shape, runs):
        p = np.ones(shape)
        p.reshape(-1)[-1] = p.size
        dist = table(p)
        drawn = sample_distribution(dist, 3, runs)
        assert drawn.dtype == narrowest(max(shape))
        assert drawn.max() == max(shape) - 1
        np.testing.assert_array_equal(
            drawn, reference_draws(dist, philox_uniforms(3, runs, 1)[:, 0]))

    @pytest.mark.parametrize("d", [128, 129])
    def test_step_sampler_at_the_type_boundaries(self, d):
        # On the maximally mixed state a diagonal observable's outcomes are
        # uniform, and measured again it repeats its outcome.
        runs = 4000
        spec = ChainSpec([observable("N", np.diag(np.arange(float(d))))], 2, seed=9)
        drawn = sample_chain_leftfold(spec, AlgebraicState.maximally_mixed(d), runs)
        assert drawn.dtype == narrowest(d)
        p = np.full(d, 1.0 / d)
        inner = np.cumsum(p / p.sum())[:-1]
        first = np.searchsorted(inner, philox_uniforms(9, runs, 2)[:, 0], "right")
        np.testing.assert_array_equal(drawn, np.stack([first, first], axis=1))
        assert drawn.max() == d - 1

    def test_empirical_distribution_past_the_type(self):
        # Four steps of four outcomes: flat indices up to 255.
        spec = ChainSpec(fourier_pair(4), 4, seed=2)
        outcomes = sample_chain_leftfold(spec, AlgebraicState.maximally_mixed(4), 20000)
        assert outcomes.dtype == np.int8
        flat = np.ravel_multi_index(tuple(outcomes.T.astype(np.int64)), (4,) * 4)
        assert flat.max() == 255
        np.testing.assert_array_equal(
            empirical_distribution(outcomes, spec).probabilities,
            empirical_distribution(outcomes.astype(np.int64), spec).probabilities)

    def test_records_past_the_type(self):
        # Run ids past 2**15 beside one-byte outcomes.
        spec = ChainSpec(fourier_pair(4), 3, seed=4)
        outcomes = sample_chain_leftfold(spec, AlgebraicState.maximally_mixed(4),
                                         2**15 + 300)
        assert outcomes.dtype == np.int8
        assert written(outcomes) == written(outcomes.astype(np.int64))
        assert written(outcomes)[-1] == oracle(outcomes)[-1]

    def test_regroup_keys_past_the_type(self, monkeypatch):
        # Rank-2 outcomes in d = 4 keep every prefix branching: 2**9 groups
        # by the last step, so the keys group * 2 + outcome reach 1023.
        rng = np.random.default_rng(5)
        spec = ChainSpec([rank_two_halves(rng, f"H{k}") for k in range(10)], 10, seed=6)
        rho = random_density(rng, 4)
        keys = []
        regroup = chain._regroup

        def widened(group, idx, branches, n_outcomes):
            got = regroup(group, idx, branches, n_outcomes)
            wide = regroup(group, idx.astype(np.int64), branches, n_outcomes)
            for a, b in zip(got, wide):
                np.testing.assert_array_equal(a, b)
            keys.append(int((group * n_outcomes + idx.astype(np.int64)).max()))
            return got

        monkeypatch.setattr(chain, "_regroup", widened)
        runs = 3000
        outcomes = sample_chain_leftfold(spec, rho, runs)
        assert outcomes.dtype == np.int8 and max(keys) > 127
        stacks = [np.stack(obs.projectors) for obs in spec.sequence()]
        reference, margin = reference_leftfold(
            stacks, rho.density, philox_uniforms(spec.seed, runs, spec.length))
        assert_same_draws(outcomes, reference, margin)

    def test_table_sampler_memory(self):
        # The chain workload's c3 shape at 2**20 runs: 32 blocks, so at most
        # four threads, each with under 1 MiB of temporaries.
        dist = unscaled(EDGE_CASES["c3_like"])
        tracemalloc.start()
        try:
            drawn = sample_distribution(dist, 5, 2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert drawn.nbytes == 2**20 * 8
        assert peak <= drawn.nbytes + 4 * 2**20


class TestEmpiricalDistribution:
    @pytest.mark.parametrize("observables, runs", [([Z], 1), ([Z], 500), ([Z, X], 2),
                                                   ([Z, X], 1), ([Z, X, Z], 997)])
    def test_equals_counting_one_by_one(self, observables, runs):
        spec = ChainSpec(observables, len(observables))
        outcomes = np.random.default_rng(runs).integers(0, 2, size=(runs, spec.length))
        shape = (2,) * spec.length
        counts = np.zeros(shape)
        np.add.at(counts.ravel(), np.ravel_multi_index(tuple(outcomes.T), shape), 1.0)
        emp = empirical_distribution(outcomes, spec)
        assert emp.probabilities.dtype == np.float64
        np.testing.assert_array_equal(emp.probabilities, counts / runs)

    @pytest.mark.parametrize("outcomes, message", [
        (np.zeros((0, 2), dtype=np.int64), "no runs"),
        (np.zeros((5, 3), dtype=np.int64), "width 3 is not the chain's length 2"),
        (np.zeros((5, 1), dtype=np.int8), "width 1 is not the chain's length 2"),
        (np.zeros(5, dtype=np.int64), r"shape \(5,\)"),
    ])
    def test_refuses_outcomes_it_cannot_count(self, outcomes, message):
        # Zero runs would give 0 / 0 in every cell, a table of NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                empirical_distribution(outcomes, ChainSpec([Z, X], 2))

    def test_shape_one(self):
        one = observable("One", np.eye(2))
        emp = empirical_distribution(np.zeros((7, 1), dtype=np.int64), ChainSpec([one], 1))
        assert emp.probabilities.shape == (1,)
        assert emp.probabilities.tolist() == [1.0]


class TestGuards:
    def test_leftfold_requires_leftfold_convention(self):
        with pytest.raises(ValueError):
            sample_chain_leftfold(ChainSpec([Z], 2, "right_fold"), MIXED, 10)

    @pytest.mark.parametrize("runs", [0, True, 2.0])
    def test_leftfold_refuses_runs_that_are_not_a_count(self, runs):
        with pytest.raises(ValueError, match="^runs"):
            sample_chain_leftfold(ChainSpec([Z], 2), MIXED, runs)

    def test_tree_length_limit(self):
        # 2**22 tuples of 2 x 2 complex entries: 256 MiB, past MAX_TABLE_BYTES.
        with pytest.raises(ValueError):
            exact_chain_distribution(ChainSpec([Z], 22), MIXED)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sample_chain_leftfold(
                ChainSpec([Z], 2), AlgebraicState.maximally_mixed(3), 10
            )


def near_unbiased_basis(rng, dim, spread):
    """Fourier basis with random phases, rotated by exp(i*spread*H)."""
    k = np.arange(dim)
    fourier = np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
    phases = np.exp(2j * np.pi * rng.random(dim))
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    rotation = (vecs * np.exp(1j * spread * vals / np.abs(vals).max())) @ vecs.conj().T
    return (phases[:, None] * fourier) @ rotation


def check_against_reference(spec, rho, runs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outcomes = sample_chain_leftfold(spec, rho, runs)
    stacks = [np.stack(obs.projectors) for obs in spec.sequence()]
    reference, margin = reference_leftfold(
        stacks, rho.density, philox_uniforms(spec.seed, runs, spec.length))
    assert_same_draws(outcomes, reference, margin)


class TestLongChains:
    # Carried without rescaling, the accumulated root of these chains falls
    # below the PSD clamp and runs end on forced outcomes.

    def test_d8_n20_near_unbiased(self):
        rng = np.random.default_rng(20210125)
        base = random_unitary(rng, 8)
        labels = np.diag(np.arange(8.0))
        bases = [base] + [base @ near_unbiased_basis(rng, 8, 0.1) for _ in range(2)]
        observables = [observable(f"U{i}", u @ labels @ u.conj().T)
                       for i, u in enumerate(bases)]
        check_against_reference(ChainSpec(observables, 20, seed=424242),
                                random_density(rng, 8), runs=300)

    def test_d2_n40_rare_outcome(self):
        rng = np.random.default_rng(171717)
        theta = 2.0 * np.arccos(np.sqrt(0.8))
        z = observable("Z", np.diag([0.0, 1.0]))
        b = direction_observable("B", theta)
        check_against_reference(ChainSpec([z, b, b], 40, seed=171717),
                                random_density(rng, 2), runs=2000)

    def test_step_matches_table_d2_n10(self):
        runs = 100_000
        observables = [direction_observable(f"T{i}", t)
                       for i, t in enumerate((0.0, 0.7, 1.9))]
        spec = ChainSpec(observables, 10, seed=31)
        rho = random_density(np.random.default_rng(31), 2)
        expected = exact_chain_distribution(spec, rho).probabilities.ravel() * runs
        emp = empirical_distribution(sample_chain_leftfold(spec, rho, runs), spec)
        observed = emp.probabilities.ravel() * runs
        # Cells expecting fewer than 5 draws are pooled into one.
        rare = expected < 5.0
        obs_cells, exp_cells = observed[~rare], expected[~rare]
        if rare.any():
            obs_cells = np.append(obs_cells, observed[rare].sum())
            exp_cells = np.append(exp_cells, expected[rare].sum())
        chi2 = float(((obs_cells - exp_cells) ** 2 / exp_cells).sum())
        assert stats.chi2.sf(chi2, len(exp_cells) - 1) > 1e-3

    def test_vanished_mass_raises(self):
        # A rank-2 outcome leaves a unit-trace effect with eigenvalues 1/2,
        # all inside a PSD slack of 0.6: the clamped root carries no mass.
        a = observable("A", np.diag([1.0, 1.0, 2.0]))
        spec = ChainSpec([a], 2, seed=5)
        rho = AlgebraicState.maximally_mixed(3)
        outcomes = sample_chain_leftfold(spec, rho, 100)
        assert np.all(outcomes == outcomes[:, :1])
        with pytest.raises(ZeroProbabilityOutcomeError):
            sample_chain_leftfold(spec, rho, 100, Tolerances(psd=0.6))


def pair_table(first_obs, later_obs, rho):
    """p(i_1, i_k) of the left fold for a non-degenerate first observable:
    Tr[rho P_i1] <v_i1|P_kj|v_i1>, with v_i1 spanning the range of P_i1."""
    table = np.empty((first_obs.n_outcomes, later_obs.n_outcomes))
    for i, p in enumerate(first_obs.projectors):
        v = np.linalg.eigh(p)[1][:, -1]
        first = np.trace(rho.density @ p).real
        table[i] = [first * (v.conj() @ q @ v).real for q in later_obs.projectors]
    return table


class TestFirstOutcomeRange:
    # Every root lives on the range of the first outcome's projector; a
    # rank-one outcome fixes the root for the rest of the chain.

    def test_mixed_rank_first_d6(self):
        rng = np.random.default_rng(123456)
        first = degenerate_observable(rng, 6, "F", [0, 1, 1, 2, 2, 2])
        later = [degenerate_observable(rng, 6, "L0", [0, 1, 2, 2, 3, 3]),
                 degenerate_observable(rng, 6, "L1", [0, 0, 0, 1, 1, 1]),
                 degenerate_observable(rng, 6, "L2", np.arange(6))]
        check_against_reference(ChainSpec([first] + later, 14, seed=654321),
                                random_density(rng, 6), runs=2000)

    def test_degenerate_first_d8_n32(self):
        rng = np.random.default_rng(8032)
        base = random_unitary(rng, 8)
        spectra = [np.repeat(np.arange(4.0), 2), np.repeat(np.arange(2.0), 4),
                   np.repeat(np.arange(4.0), 2)]
        bases = [base] + [base @ near_unbiased_basis(rng, 8, 0.1) for _ in range(2)]
        observables = [observable(f"D{i}", (u * s) @ u.conj().T)
                       for i, (u, s) in enumerate(zip(bases, spectra))]
        check_against_reference(ChainSpec(observables, 32, seed=8032),
                                random_density(rng, 8), runs=300)

    @pytest.mark.parametrize("psd", [1e-9, 0.3, 0.6, 1.5])
    def test_starting_roots_without_an_eigensolve(self, rng, psd):
        # sqrt(P / Tr P) in its frame is diagonal; its closed form matches the
        # eigensolve root byte for byte, the PSD cut included.
        tol = Tolerances(psd=psd)
        for _ in range(40):
            dim = int(rng.integers(1, 9))
            first = degenerate_observable(rng, dim, "F", rng.integers(0, 3, size=dim))
            heads = rng.integers(0, first.n_outcomes, size=int(rng.integers(1, 6)))
            roots = chain._frames(first.decomposition, heads, np.eye(dim) / dim, tol)[2]
            rank = first.decomposition.ranks[heads]
            width = int(rank.max())
            diagonal = np.where(np.arange(width) < rank[:, None], 1.0 / rank[:, None], 0.0)
            expected = batched_psd_sqrt(np.eye(width, dtype=np.complex128) * diagonal[:, None],
                                        tol)
            assert np.array_equal(roots, expected)

    def test_vanished_mass_rank_one_first(self):
        # A rank-one first outcome leaves the unit-trace effect [1] on its
        # range; a PSD slack above 1 clamps its root to zero, so the prefix
        # carries no mass.
        spec = ChainSpec([Z, X], 3, seed=5)
        sample_chain_leftfold(spec, MIXED, 100, Tolerances(psd=0.9))
        with pytest.raises(ZeroProbabilityOutcomeError):
            sample_chain_leftfold(spec, MIXED, 100, Tolerances(psd=1.5))

    def test_pair_frequencies_past_table_limit(self):
        # n = 60 is far beyond the exact table, but for a non-degenerate
        # first observable each (i_1, i_k) pair has a closed form.
        runs = 20_000
        rng = np.random.default_rng(60)
        first = degenerate_observable(rng, 3, "F", [0, 1, 2])
        later = [degenerate_observable(rng, 3, "L0", [0, 1, 1]),
                 degenerate_observable(rng, 3, "L1", [0, 1, 2])]
        spec = ChainSpec([first] + later, 60, seed=60)
        rho = random_density(rng, 3)
        outcomes = sample_chain_leftfold(spec, rho, runs)
        sequence = spec.sequence()
        for k in (1, 32, 58):
            expected = pair_table(first, sequence[k], rho).ravel() * runs
            pairs = outcomes[:, 0] * sequence[k].n_outcomes + outcomes[:, k]
            observed = np.bincount(pairs, minlength=len(expected))
            chi2 = float(((observed - expected) ** 2 / expected).sum())
            assert stats.chi2.sf(chi2, len(expected) - 1) > 1e-3


def pooled_pair_p_values(outcomes, spec, rho):
    """Chi-square p-values of the (i_1, i_k) counts pooled over the steps k
    >= 1 at each cycle position whose observable differs from the first.

    Given i_1 the later outcomes of a non-degenerate first observable are
    independent, each with <v_i1|P|v_i1>: row i_1 of `pair_table` over its
    sum p(i_1).  So each row is tested against the draws it holds, and a few
    runs suffice."""
    first, c = spec.observables[0], len(spec.observables)
    p_values = []
    for j in range(1, c):
        later = spec.observables[j]
        table = pair_table(first, later, rho)
        conditional = table / table.sum(axis=1, keepdims=True)
        steps = outcomes[:, j::c]
        pairs = np.repeat(outcomes[:, :1], steps.shape[1], axis=1) * later.n_outcomes + steps
        observed = np.bincount(pairs.ravel(), minlength=table.size).reshape(table.shape)
        rows = observed.sum(axis=1) > 0
        expected = observed.sum(axis=1, keepdims=True) * conditional
        chi2 = float(((observed - expected)[rows] ** 2 / expected[rows]).sum())
        p_values.append(stats.chi2.sf(chi2, int(rows.sum()) * (table.shape[1] - 1)))
    return p_values


def count_cdf_tables(monkeypatch):
    """Count the sampler's CDF tables: one per step while some root
    branches, then one per cycle position."""
    calls = []
    cdf = chain._cdf

    def counting(*args):
        calls.append(args)
        return cdf(*args)

    monkeypatch.setattr(chain, "_cdf", counting)
    return calls


class TestFrozenRoots:
    # Once no root branches, every remaining step is drawn from one CDF
    # table per cycle position, with the arithmetic of a single step.

    def test_frozen_at_step_one_cycle_of_three(self, monkeypatch):
        rng = np.random.default_rng(3301)
        observables = [degenerate_observable(rng, 4, f"N{i}", np.arange(4.0))
                       for i in range(3)]
        calls = count_cdf_tables(monkeypatch)
        check_against_reference(ChainSpec(observables, 23, seed=3301),
                                random_density(rng, 4), runs=2000)
        assert len(calls) == 1 + 3

    def test_frozen_mid_chain_off_the_cycle(self, monkeypatch):
        # Degenerate first outcomes branch at step 1; the non-degenerate
        # observable at step 2 gives every prefix a rank-one outcome, so
        # the roots freeze from step 3 of a cycle of 4.
        rng = np.random.default_rng(3302)
        observables = [degenerate_observable(rng, 6, "F", [0, 0, 1, 1, 1, 2]),
                       degenerate_observable(rng, 6, "G", [0, 0, 0, 1, 1, 1]),
                       degenerate_observable(rng, 6, "N", np.arange(6.0)),
                       degenerate_observable(rng, 6, "H", [0, 1, 1, 2, 2, 2])]
        calls = count_cdf_tables(monkeypatch)
        check_against_reference(ChainSpec(observables, 22, seed=3302),
                                random_density(rng, 6), runs=1000)
        assert len(calls) == 3 + 4

    def test_never_frozen(self, monkeypatch):
        rng = np.random.default_rng(3303)
        observables = [degenerate_observable(rng, 4, f"D{i}", [0, 0, 1, 1])
                       for i in range(3)]
        calls = count_cdf_tables(monkeypatch)
        check_against_reference(ChainSpec(observables, 12, seed=3303),
                                random_density(rng, 4), runs=2000)
        assert len(calls) == 12

    def test_fewer_steps_left_than_the_cycle(self, monkeypatch):
        rng = np.random.default_rng(3304)
        observables = [degenerate_observable(rng, 3, f"N{i}", np.arange(3.0))
                       for i in range(5)]
        calls = count_cdf_tables(monkeypatch)
        check_against_reference(ChainSpec(observables, 3, seed=3304),
                                random_density(rng, 3), runs=2000)
        assert len(calls) == 3

    def test_pair_frequencies_at_1e5_steps(self):
        rng = np.random.default_rng(100_000)
        first = degenerate_observable(rng, 3, "F", [0, 1, 2])
        later = [degenerate_observable(rng, 3, "L0", [0, 1, 1]),
                 degenerate_observable(rng, 3, "L1", [0, 1, 2])]
        spec = ChainSpec([first] + later, 100_000, seed=100_000)
        rho = random_density(rng, 3)
        outcomes = sample_chain_leftfold(spec, rho, 4)
        # The first observable measured again repeats its outcome.
        assert (outcomes[:, ::3] == outcomes[:, :1]).all()
        assert min(pooled_pair_p_values(outcomes, spec, rho)) > 1e-3


def table_law(spec, rho):
    """The left fold's law traced from its effect table: the reference for
    the prefix recursion of `exact_chain_distribution`."""
    table = collapse_effect_tree(spec.sequence(), left_fold_tree(spec.length))
    return joint_distribution(table, rho)


# (dimension, spectrum of the first observable, chain length, pure state).
# Later observables: a non-degenerate one (rank-one outcomes) and one with
# outcome ranks (2, 1, ..., 1), cycled after the first.
LAW_CASES = [
    (2, [0, 1], 1, False),
    (2, [0, 1], 2, True),
    (2, [0, 1], 5, False),
    (3, [0, 0, 1], 1, True),
    (3, [0, 0, 1], 2, False),
    (3, [0, 1, 2], 4, True),
    (4, [0, 0, 1, 1], 2, True),
    (4, [0, 0, 1, 1], 4, False),
    (4, [0, 0, 1, 2], 4, True),
    (5, [0, 0, 0, 1, 1], 3, False),
    (5, [0, 1, 2, 3, 4], 3, True),
    (6, [0, 0, 1, 1, 2, 2], 3, False),
    (6, [0, 0, 0, 1, 1, 1], 4, True),
    (6, [0, 0, 1, 2, 3, 4], 3, False),
]


def law_case(d, first, n, pure):
    rng = np.random.default_rng([d, n, len(set(first)), int(pure)])
    observables = [degenerate_observable(rng, d, "F", first),
                   degenerate_observable(rng, d, "N", np.arange(d)),
                   degenerate_observable(rng, d, "M", [0] + list(range(d - 1)))]
    rho = (AlgebraicState.pure(random_unitary(rng, d)[:, 0]) if pure
           else random_density(rng, d))
    return ChainSpec(observables, n, seed=int(rng.integers(2**63))), rho


class TestExactLeftFoldLaw:
    # The left fold's exact law comes from the step sampler's frames and
    # root updates run over every prefix; the effect table stays the
    # reference.

    @pytest.mark.parametrize("case", LAW_CASES, ids=str)
    def test_equals_the_effect_table(self, case):
        spec, rho = law_case(*case)
        expected = table_law(spec, rho)
        dist = exact_chain_distribution(spec, rho)
        assert dist.shape == expected.shape
        for axis, reference in zip(dist.axes, expected.axes):
            np.testing.assert_array_equal(axis, reference)
        assert np.abs(dist.probabilities - expected.probabilities).max() <= 1e-13

    @pytest.mark.parametrize("case", LAW_CASES, ids=str)
    def test_table_sampler_draws_from_the_effect_table(self, case):
        spec, rho = law_case(*case)
        runs = 20_000
        expected = table_law(spec, rho)
        drawn = sample_chain_tree(spec, rho, runs)
        reference = sample_distribution(expected, spec.seed, runs)
        # A run may differ only where its uniform is within 1e-9 of a CDF
        # value of the reference law.
        cum = np.cumsum(expected.probabilities.ravel())
        u = philox_uniforms(spec.seed, runs, 1)[:, 0]
        margin = np.abs(u[:, None] - cum[None, :]).min(axis=1)
        assert_same_draws(drawn, reference, margin)

    def test_zero_mass_tuples_are_exact_zeros(self):
        # Outcome 0 of Z is -1, which |0> never shows.
        dist = exact_chain_distribution(ChainSpec([Z], 2), KET0)
        assert dist.probabilities.tolist() == [[0.0, 0.0], [0.0, 1.0]]
        dist = exact_chain_distribution(ChainSpec([Z, X], 4), KET0)
        assert (dist.probabilities[0] == 0.0).all()

    @pytest.mark.parametrize("rotated", [False, True])
    def test_repeated_degenerate_observable(self, rotated):
        # Rank-two outcomes measured again: every prefix that changes its
        # outcome has zero mass, so its root update meets S P S = 0, exactly
        # in the eigenbasis and up to rounding in a rotated one.  Its tuples
        # are exact zeros either way.
        rng = np.random.default_rng(44)
        u = random_unitary(rng, 4) if rotated else np.eye(4)
        a = observable("A", (u * np.array([0.0, 0.0, 1.0, 1.0])) @ u.conj().T)
        b = degenerate_observable(rng, 4, "B", [0, 1, 2, 2])
        spec = ChainSpec([a, a, b, a], 4)
        rho = random_density(rng, 4)
        dist = exact_chain_distribution(spec, rho)
        expected = table_law(spec, rho)
        assert np.abs(dist.probabilities - expected.probabilities).max() <= 1e-13
        assert (dist.probabilities[expected.probabilities == 0.0] == 0.0).all()
        assert (dist.probabilities[0, 1] == 0.0).all()
        assert (dist.probabilities[1, 0] == 0.0).all()

    @pytest.mark.parametrize("rotated", [False, True])
    def test_frozen_roots_give_exact_zeros(self, rotated):
        # A non-degenerate observable measured again after another one: its
        # roots no longer branch, and every tuple whose last outcome differs
        # from the first has zero mass, up to rounding in a rotated basis.
        rng = np.random.default_rng(45)
        u = random_unitary(rng, 3) if rotated else np.eye(3)
        n = observable("N", (u * np.arange(3.0)) @ u.conj().T)
        b = degenerate_observable(rng, 3, "B", [0, 1, 1])
        spec = ChainSpec([n, b, n, b, n], 5)
        rho = random_density(rng, 3)
        dist = exact_chain_distribution(spec, rho)
        expected = table_law(spec, rho)
        assert np.abs(dist.probabilities - expected.probabilities).max() <= 1e-13
        assert (dist.probabilities[expected.probabilities == 0.0] == 0.0).all()
        first, third, last = np.indices(dist.shape)[[0, 2, 4]]
        assert (dist.probabilities[(first != third) | (first != last)] == 0.0).all()

    def test_other_bracketings_trace_the_table(self):
        rng = np.random.default_rng(7)
        observables = [degenerate_observable(rng, 3, f"O{i}", [0, 0, 1]) for i in range(2)]
        rho = random_density(rng, 3)
        for convention in ("right_fold", "reverse_fold"):
            spec = ChainSpec(observables, 3, convention)
            table = collapse_effect_tree(spec.sequence(), spec.tree())
            np.testing.assert_array_equal(
                exact_chain_distribution(spec, rho).probabilities,
                joint_distribution(table, rho).probabilities)

    def test_state_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            exact_chain_distribution(ChainSpec([Z, X], 3), AlgebraicState.maximally_mixed(3))

    def test_raw_decompositions(self):
        # The prefix recursion reads each outcome's frame and rank from the
        # observable's decomposition: raw ones from `discretize_observable`
        # compute their frames from the projectors, while `observable()`
        # hands over the eigenvector blocks of its own eigensolve.  Both give
        # the same law and the same draws.
        rng = np.random.default_rng(18)
        raw = [discretize_observable(degenerate_observable(rng, 5, f"A{k}", np.arange(5)),
                                     thresholds)
               for k, thresholds in enumerate([[0.5, 2.5], [1.5], [0.5, 1.5, 3.5]])]
        assert [o.decomposition.ranks.tolist() for o in raw] == [[1, 2, 2], [2, 3], [1, 1, 2, 1]]
        assert not any("frames" in vars(o.decomposition) for o in raw)
        built = [observable(o.name, o.matrix()) for o in raw]
        rho = random_density(rng, 5)
        spec, same = ChainSpec(raw, 5, seed=18), ChainSpec(built, 5, seed=18)
        law = exact_chain_distribution(spec, rho).probabilities
        assert np.abs(law - exact_chain_distribution(same, rho).probabilities).max() <= 1e-15
        np.testing.assert_array_equal(sample_chain_leftfold(spec, rho, 20_000),
                                      sample_chain_leftfold(same, rho, 20_000))
