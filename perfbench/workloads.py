"""The four workloads: inputs, operations and output checks.

A workload object is built from a seed and a scale ("full" for measured
runs, "tiny" for the self-test).  `build()` generates the inputs, turns them
into program objects and CLI documents, and lists the operations of one
round; `warm_up()` calls each kind of operation once at a small size;
`prepare()` computes the references the checks compare against.  Only
`Op.call` is timed.  Each `Op.check` raises `checks.CheckFailed` on a wrong
output and `checks.KnownFault` on runs corrupted by the step sampler's
underflow; it may record per-round statistics in `self.stats`.

Every operation is called through an attribute of `collapsekit` or one of
its modules at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import collapsekit as ck
import collapsekit.cli
from collapsekit.incompatibility import MarginalProblem

import checks as C
import gen


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]


def matrix_json(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def observable_doc(name: str, m) -> dict:
    return {"kind": "observable", "name": name, "matrix": matrix_json(m)}


def run_cli(argv: list):
    """collapsekit.cli.main in this process; returns (exit code, stdout)."""
    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        code = collapsekit.cli.main(argv)
    return code, buf.getvalue()


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str, docdir: str):
        if scale not in ("full", "tiny"):
            raise ValueError(f"unknown scale {scale!r}")
        self.seed = seed
        self.tiny = scale == "tiny"
        self.docdir = docdir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.ops: list = []
        self.warm: list = []          # (kind, callable) at a small size
        self.stats: dict = {}         # (op index, statistic) -> value per round
        self._seen: dict = {}         # op index -> output digest

    def size(self, full, tiny):
        return tiny if self.tiny else full

    def doc(self, filename: str, document: dict) -> str:
        path = os.path.join(self.docdir, filename)
        with open(path, "w") as fh:
            json.dump(document, fh)
        return path

    def add(self, kind: str, call, check) -> int:
        self.ops.append(Op(kind, call, check))
        return len(self.ops) - 1

    def same_as_before(self, index: int, output: np.ndarray, what: str) -> None:
        """Same inputs and seed must give byte-identical outcomes each round."""
        h = digest(output)
        C.require(self._seen.setdefault(index, h) == h,
                  f"{what}: outcomes changed between two calls with one seed")

    def check_runs(self, index, outcomes, reference, margin) -> None:
        """Step-sampler runs against the reference sampler; records the
        chain statistics and raises KnownFault if any run differs."""
        bad = C.mismatched_runs(outcomes, reference, margin)
        self.stats[(index, "chain.outcomes")] = outcomes.size
        self.stats[(index, "chain.distinct_prefixes")] = C.distinct_prefixes(outcomes)
        self.stats[(index, "chain.runs_mismatched")] = bad
        if bad:
            raise C.KnownFault(bad, outcomes.shape[0])

    def build(self) -> None:
        raise NotImplementedError

    def first_of_each_kind(self) -> list:
        """Warm-up list made of the first operation of each kind."""
        first = {}
        for op in self.ops:
            first.setdefault(op.kind, op.call)
        return list(first.items())

    def warm_up(self) -> None:
        for _, fn in self.warm:
            fn()

    def prepare(self) -> None:
        pass

    def round_stats(self) -> dict:
        out: dict = {}
        for (_, key), value in self.stats.items():
            out[key] = out.get(key, 0) + value
        return out


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

@dataclass
class ChainInput:
    label: str
    matrices: list            # cycled observables, as matrices
    length: int
    rho: np.ndarray
    seed: int

    def step_projectors(self) -> list:
        stacks = [C.projectors(m) for m in self.matrices]
        return [stacks[k % len(stacks)] for k in range(self.length)]

    def spec(self, length=None):
        obs = [ck.observable(f"M{k}", m) for k, m in enumerate(self.matrices)]
        return ck.ChainSpec(obs, self.length if length is None else length,
                            "left_fold", self.seed)

    def spec_doc(self) -> dict:
        return {"kind": "chain-spec",
                "observables": [observable_doc(f"M{k}", m)
                                for k, m in enumerate(self.matrices)],
                "length": self.length, "convention": "left_fold", "seed": self.seed}


def floored_chain(rng, label, d, rank_cycle, length, spread, floor, seed_of) -> ChainInput:
    """A chain whose first observable is non-degenerate and whose later
    observables are near-unbiased to it.

    With a rank-one first projector the left-fold root stays proportional to
    it, so the mass the step sampler carries into step k is the product of
    the conditional probabilities <a|P|a> of steps 2..k.  Draw until the
    smallest such product over every path with positive probability is at
    least `floor`, well above the sampler's 1e-9 eigenvalue clamp."""
    if any(r != 1 for r in rank_cycle[0]):
        raise ValueError("the first observable must be non-degenerate")
    for _ in range(200):
        base = gen.unitary(rng, d)
        mats = [gen.hermitian_from_basis(base, gen.outcome_labels(rng, d, rank_cycle[0]))]
        for ranks in rank_cycle[1:]:
            basis = base @ gen.near_unbiased_basis(rng, d, spread)
            mats.append(gen.hermitian_from_basis(basis, gen.outcome_labels(rng, d, ranks)))
        chain = ChainInput(label, mats, length, gen.density(rng, d), seed_of(rng))
        projs = chain.step_projectors()
        vecs = np.linalg.eigh(mats[0])[1]
        worst = np.inf
        for i in range(d):
            a = vecs[:, i]
            mass = 1.0
            for stack in projs[1:]:
                q = np.real(np.einsum("a,jab,b->j", a.conj(), stack, a))
                mass *= q[q > 1e-12].min()
            worst = min(worst, mass)
        if worst >= floor:
            return chain
    raise RuntimeError(f"no {label} chain above the probability floor")


def chain_seed(rng) -> int:
    return int(rng.integers(1, 2**31))


class ChainWorkload(Workload):
    """Short chains sampled at 1e5-1e6 runs per call: both samplers, the
    exact table, frequencies, and `collapsekit chain` with records."""

    name = "chain"

    def build(self) -> None:
        rng = self.rng
        runs_step = self.size(100_000, 2_000)
        runs_tree = self.size(1_000_000, 20_000)
        # c1, c3: non-degenerate first observable; c2: degenerate first, so the
        # root evolves inside a rank-2 subspace.  Later observables mix
        # degenerate and non-degenerate spectra.
        c1 = floored_chain(rng, "c1", 2, [(1, 1), (1, 1), (1, 1)], 3, 0.3, 1e-6, chain_seed)
        c3 = floored_chain(rng, "c3", 4, [(1, 1, 1, 1), (2, 2), (2, 1, 1)],
                           self.size(8, 5), 0.3, 1e-6, chain_seed)
        c2 = self._degenerate_first(rng)
        self.chains = {c.label: c for c in (c1, c2, c3)}
        self.cli_seed = chain_seed(rng)
        self.objects = {}
        for c in (c1, c2, c3):
            spec = c.spec()
            state = ck.AlgebraicState(c.rho)
            self.objects[c.label] = (spec, state)
            self.doc(f"{c.label}.json", c.spec_doc())
            self.doc(f"{c.label}-rho.json", {"kind": "state", "matrix": matrix_json(c.rho)})
        short_c3 = (c3.spec(c3.length - 1), self.objects["c3"][1])

        def step(label, runs):
            spec, state = self.objects[label]
            return lambda: ck.sample_chain_leftfold(spec, state, runs)

        def tree(label, runs):
            spec, state = self.objects[label]
            return lambda: ck.sample_chain_tree(spec, state, runs)

        def exact(spec, state):
            return lambda: ck.exact_chain_distribution(spec, state)

        def cli_records(label, runs, seed):
            d = self.docdir
            argv = ["--format", "json", "chain", os.path.join(d, f"{label}.json"),
                    "--state", os.path.join(d, f"{label}-rho.json"), "--runs", str(runs),
                    "--mechanism", "step", "--seed", str(seed), "--emit-records"]
            return lambda: run_cli(argv)

        def cli_table(label, runs):
            d = self.docdir
            argv = ["--format", "json", "chain", os.path.join(d, f"{label}.json"),
                    "--state", os.path.join(d, f"{label}-rho.json"), "--runs", str(runs),
                    "--mechanism", "table"]
            return lambda: run_cli(argv)

        self.add("leftfold", step("c1", runs_step), self._check_step("c1"))
        self.add("leftfold", step("c2", runs_step), self._check_step("c2"))
        self.add("tree", tree("c1", runs_tree), self._check_tree("c1"))
        self.add("tree", tree("c3", runs_tree), self._check_tree("c3"))
        self.add("exact", exact(*self.objects["c3"]), self._check_exact("c3", 0))
        self.add("exact", exact(*short_c3), self._check_exact("c3", 1))
        self.add("empirical",
                 lambda: ck.empirical_distribution(self._c1_outcomes, self.objects["c1"][0]),
                 self._check_empirical)
        self.add("cli_records", cli_records("c1", runs_step, self.cli_seed),
                 self._check_cli_records("c1", self.cli_seed))
        self.add("cli_table", cli_table("c2", runs_step), self._check_cli_table("c2"))

        self.warm = [("leftfold", step("c2", 100)), ("tree", tree("c3", 100)),
                     ("exact", exact(*self.objects["c3"])),
                     ("empirical", lambda: ck.empirical_distribution(
                         np.zeros((10, 3), dtype=np.int64), self.objects["c1"][0])),
                     ("cli_records", cli_records("c1", 100, self.cli_seed)),
                     ("cli_table", cli_table("c2", 100))]
        self._c1_outcomes = np.zeros((1, 3), dtype=np.int64)

    def _degenerate_first(self, rng) -> ChainInput:
        """d=3, four steps cycling (2,1), (1,1,1), (2,1) spectra.

        The step sampler's root squared is the left-fold effect of the
        prefix, and the sampler clamps its eigenvalues below 1e-9.  Redrawn
        until every eigenvalue of every prefix effect is either rounding
        noise (below 1e-12) or at least 1e-6, so no run nears the clamp."""
        for _ in range(200):
            mats = [gen.random_observable_matrix(rng, 3, r)
                    for r in [(2, 1), (1, 1, 1), (2, 1)]]
            chain = ChainInput("c2", mats, 4, gen.density(rng, 3), chain_seed(rng))
            effects = C.leftfold_effects(chain.step_projectors())
            vals = np.concatenate([np.linalg.eigvalsh(np.stack(list(level.values()))).ravel()
                                   for level in effects])
            if not np.any((vals > 1e-12) & (vals < 1e-6)):
                return chain
        raise RuntimeError("no c2 chain clear of the clamp")

    def prepare(self) -> None:
        self.joints = {}
        for label, c in self.chains.items():
            self.joints[label] = C.leftfold_joints(c.step_projectors(), c.rho)
        self.references = {}
        runs = self.size(100_000, 2_000)
        for label in ("c1", "c2"):
            c = self.chains[label]
            self.references[(label, c.seed)] = C.reference_leftfold(
                c.step_projectors(), c.rho, c.seed, runs)
        c1 = self.chains["c1"]
        self.references[("c1", self.cli_seed)] = C.reference_leftfold(
            c1.step_projectors(), c1.rho, self.cli_seed, runs)

    def _sampled(self, index, outcomes, label, seed, what):
        """Checks shared by the step sampler and the CLI records."""
        C.require(outcomes.dtype.kind == "i", f"{what}: outcomes are not integers")
        C.check_frequencies(outcomes, self.joints[label][-1], what)
        self.same_as_before(index, outcomes, what)
        self.check_runs(index, outcomes, *self.references[(label, seed)])

    def _check_step(self, label):
        index = len(self.ops)

        def check(outcomes):
            if label == "c1":
                self._c1_outcomes = outcomes
            self._sampled(index, outcomes, label, self.chains[label].seed,
                          f"leftfold {label}")
        return check

    def _check_tree(self, label):
        index = len(self.ops)

        def check(outcomes):
            C.check_frequencies(outcomes, self.joints[label][-1], f"tree {label}")
            self.same_as_before(index, outcomes, f"tree {label}")
        return check

    def _check_exact(self, label, shorter: int):
        def check(dist):
            table = dist.probabilities
            C.close(table, self.joints[label][-1 - shorter], 1e-9,
                    f"exact table {label} (length -{shorter})")
            if shorter:
                # Summing the left fold over its last step gives the table of
                # the chain one step shorter.
                C.close(self._full_table.sum(axis=-1), table, 1e-12,
                        f"{label}: full table summed over the last step")
            else:
                self._full_table = table
        return check

    def _check_empirical(self, dist):
        outcomes = self._c1_outcomes
        shape = self.joints["c1"][-1].shape
        expected = C.counts_of(outcomes, shape) / outcomes.shape[0]
        C.require(np.array_equal(dist.probabilities, expected),
                  "empirical distribution differs from counted frequencies")

    def _check_cli_records(self, label, seed):
        index = len(self.ops)

        def check(result):
            code, text = result
            C.require(code == 0, f"cli chain exited {code}")
            n = self.chains[label].length
            values = np.fromstring(text.replace("\t", ",").replace("\n", ","),
                                   dtype=np.int64, sep=",")
            C.require(values.size % (n + 1) == 0, "cli records are malformed")
            rows = values.reshape(-1, n + 1)
            C.require(np.array_equal(rows[:, 0], np.arange(rows.shape[0])),
                      "cli record ids are not 0..runs-1 in order")
            self._sampled(index, rows[:, 1:], label, seed, f"cli records {label}")
        return check

    def _check_cli_table(self, label):
        def check(result):
            code, text = result
            C.require(code == 0, f"cli chain exited {code}")
            rows = json.loads(text)["rows"]
            exact = np.array([float(r["exact"]) for r in rows])
            empirical = np.array([float(r["empirical"]) for r in rows])
            reference = self.joints[label][-1]
            C.close(exact, reference.ravel(), 1e-9, f"cli exact table {label}")
            C.close(empirical.sum(), 1.0, 1e-9, f"cli empirical total {label}")
            # Frequencies are printed at 12 significant digits; counts recover
            # exactly after rounding.
            runs = self.size(100_000, 2_000)
            counts = np.rint(empirical * runs).astype(np.int64)
            C.close(counts / runs, empirical, 1e-9, "cli empirical frequencies")
            samples = np.repeat(np.arange(counts.size), counts)
            outcomes = np.stack(np.unravel_index(samples, reference.shape), axis=1)
            C.check_frequencies(outcomes, reference, f"cli table sampler {label}")
        return check


class LongChainWorkload(Workload):
    """Chains of 12-40 steps at d = 2-8 through the step sampler only, each
    run checked against a sampler that renormalises after every step.

    The seeded chains stay above a probability floor where today's sampler is
    correct.  Two fixed chains, the same for every seed, reach the
    accumulated-root underflow: their corrupted runs make those operations
    fail in every round of every run."""

    name = "long_chain"

    def build(self) -> None:
        rng = self.rng
        runs = self.size(3_000, 300)
        floor = 1e-7
        seeded = [
            floored_chain(rng, "d8n12", 8, [(1,) * 8, (1,) * 8, (4, 4)], 12, 0.1, floor, chain_seed),
            floored_chain(rng, "d2n40", 2, [(1, 1), (1, 1)], 40, 0.05, floor, chain_seed),
            floored_chain(rng, "d4n24", 4, [(1,) * 4, (2, 2)], 24, 0.1, floor, chain_seed),
            floored_chain(rng, "d6n16", 6, [(1,) * 6, (2, 2, 2), (3, 3)], 16, 0.1, floor, chain_seed),
        ]
        self.chains = seeded + fixed_underflow_chains()
        self.runs = {c.label: runs for c in seeded}
        self.runs.update({c.label: self.size(2_000, 2_000) for c in self.chains[len(seeded):]})
        self.objects = {}
        for c in self.chains:
            self.objects[c.label] = (c.spec(), ck.AlgebraicState(c.rho))
            self.add("leftfold", self._call(c.label, self.runs[c.label]),
                     self._check(len(self.ops), c.label))
        self.warm = [("leftfold", self._call(self.chains[0].label, 50))]

    def _call(self, label, runs):
        spec, state = self.objects[label]
        return lambda: ck.sample_chain_leftfold(spec, state, runs)

    def prepare(self) -> None:
        self.references = {
            c.label: C.reference_leftfold(c.step_projectors(), c.rho, c.seed,
                                          self.runs[c.label])
            for c in self.chains
        }

    def _check(self, index, label):
        return lambda outcomes: self.check_runs(index, outcomes, *self.references[label])


def fixed_underflow_chains() -> list:
    """Inputs that do not depend on the seed, on which the step sampler's
    accumulated root falls below its 1e-9 eigenvalue clamp.

    With a non-degenerate first observable the root stays proportional to
    the first outcome's projector, and its squared scale is the product of
    the later conditional probabilities.  u8n20: d=8, 20 steps cycling three
    near-unbiased bases, so 13 steps carry about 1/8 each and most runs fall
    below the clamp.  u2n40: d=2, 40 steps cycling Z, B, B with B at
    conditional probabilities 0.2/0.8; only runs that draw the rare outcome
    often fall below it."""
    rng = np.random.default_rng(20210125)
    base = gen.unitary(rng, 8)
    mats = [gen.hermitian_from_basis(base, np.arange(8.0))]
    for _ in range(2):
        mats.append(gen.hermitian_from_basis(
            base @ gen.near_unbiased_basis(rng, 8, 0.1), np.arange(8.0)))
    u8 = ChainInput("u8n20", mats, 20, gen.density(rng, 8), 424242)
    theta = 2.0 * np.arccos(np.sqrt(0.8))
    z = np.diag([0.0, 1.0]).astype(np.complex128)
    b = (gen.spin(theta) + np.eye(2)) / 2.0
    u2 = ChainInput("u2n40", [z, b, b], 40, gen.density(rng, 2), 171717)
    return [u8, u2]


# ---------------------------------------------------------------------------
# joint tables
# ---------------------------------------------------------------------------

def to_nested(tree):
    """Program bracket tree -> nested tuples of leaf indices."""
    if hasattr(tree, "left"):
        C.require(not tree.reverse, "enumerated tree carries a reverse node")
        return (to_nested(tree.left), to_nested(tree.right))
    return tree.index


class JointsWorkload(Workload):
    """Desk-scale queries: all bracketings, commutative models, q-relative
    collapse, pointer instruments, joint instruments, and the CLI commands
    joint, equivalence and instruments."""

    name = "joints"

    # Non-commuting families stop at 6 measurements.  With 7 at d=8 the
    # program's root drops genuine eigenvalues below its 1e-9 slack, and on
    # some seeds `joint_distribution` rejects its own table ("probabilities
    # sum to 0.9999999986"); with 7 at d=4 or d=6 the lost mass reached
    # 7e-10 in 40 seeds.  Seven measurements run as a commuting family,
    # whose effects are projectors.
    FAMILIES = {
        # label: (d, ranks of every observable, commuting)
        "k7": (8, [(4, 4)] * 7, True),
        "b6": (6, [(3, 3)] * 6, False),
        "b5": (8, [(4, 4)] * 5, False),
        "s5": (4, [(2, 1, 1)] * 5, False),
    }
    TINY_FAMILIES = {
        "b4": (4, [(2, 2)] * 4, False),
        "k3": (3, [(2, 1), (1, 1, 1), (1, 2)], True),
    }
    INSTRUMENTS = [(4, (1,) * 4, (2, 1, 1)), (6, (1,) * 6, (2, 2, 2)),
                   (8, (2, 2, 2, 2), (1,) * 8), (10, (1,) * 10, (1,) * 10)]
    TINY_INSTRUMENTS = [(3, (1, 1, 1), (2, 1))]

    def build(self) -> None:
        rng = self.rng
        families = self.size(self.FAMILIES, self.TINY_FAMILIES)
        self.family = {}
        for label, (d, ranks, commuting) in families.items():
            if commuting:
                mats = gen.commuting_family(rng, d, ranks)
            else:
                mats = [gen.random_observable_matrix(rng, d, r) for r in ranks]
            obs = [ck.observable(f"{label}{k}", m) for k, m in enumerate(mats)]
            rho = gen.density(rng, d)
            self.family[label] = (mats, obs, rho, ck.AlgebraicState(rho), commuting)
        for label, (mats, obs, rho, state, _) in self.family.items():
            n = len(obs)
            self.add("enumerate", (lambda n=n: ck.enumerate_bracketings(n)),
                     self._check_enumerate(n))
            for tree in ck.enumerate_bracketings(n):
                self.add("bracketing", self._table_call(obs, tree, state),
                         self._check_tree(label, to_nested(tree)))

        # Commutative models of three tables: left folds of two families and
        # a seeded Dirichlet table.
        self._targets = {}
        for key in list(self.family)[:2]:
            mats, _, rho, _, _ = self.family[key]
            left = 0
            for k in range(1, len(mats)):
                left = (left, k)
            table = C.born(rho, C.tree_effects([C.projectors(m) for m in mats], left))
            table = np.clip(table, 0.0, None)
            self._targets[key] = table / table.sum()
        self._targets["dirichlet"] = rng.dirichlet(np.ones(24)).reshape(2, 3, 4)
        for key, table in self._targets.items():
            axes = [np.arange(s, dtype=float) for s in table.shape]
            self._targets[key] = ck.JointDistribution(axes, table)
            self.add("equivalence", self._equivalence_call(key),
                     self._check_equivalence(key))

        # q-relative collapse: Q sets of 5 and 6 operators at d = 6 and 8.
        self.qsets = []
        for d, count, na, nb in self.size([(6, 5, 3, 4), (8, 6, 4, 3)], [(3, 3, 2, 2)]):
            qs = gen.random_povm_set(rng, d, count)
            ka, kb = gen.stochastic(rng, count, na), gen.stochastic(rng, count, nb)
            self.qsets.append((qs, ka, kb))
            self.add("q_relative", self._q_call(qs, ka, kb), self._check_q(qs, ka, kb))

        # Pointer instruments at d = 4-10.
        self.pairs = []
        for d, ra, rb in self.size(self.INSTRUMENTS, self.TINY_INSTRUMENTS):
            ma = gen.random_observable_matrix(rng, d, ra)
            mb = gen.random_observable_matrix(rng, d, rb)
            psi = gen.unit_vector(rng, d)
            pair = (ck.observable("A", ma), ck.observable("B", mb), ck.VectorState(psi))
            self.pairs.append((ma, mb, psi))
            self.add("instrument", self._instrument_call(*pair),
                     self._check_instrument(ma, mb, psi))

        # Joint instruments for 3x3, 4x4 and 5x5 targets.
        for n in self.size((3, 4, 5), (2, 3)):
            target = rng.dirichlet(np.ones(n * n)).reshape(n, n)
            dist = ck.JointDistribution([np.arange(n, dtype=float)] * 2, target)
            self.add("joint_instrument", self._joint_instrument_call(dist),
                     self._check_joint_instrument(target))

        self._build_cli(rng)

        self.warm = self.first_of_each_kind()

    # -- calls ---------------------------------------------------------------

    @staticmethod
    def _table_call(obs, tree, state):
        def call():
            table = ck.collapse_effect_tree(obs, tree)
            return table, ck.joint_distribution(table, state)
        return call

    def _equivalence_call(self, key):
        def call():
            dist = self._targets[key]
            model = ck.build_commutative_model(dist)
            return model, ck.verify_equivalence(model, dist)
        return call

    @staticmethod
    def _q_call(qs, ka, kb):
        def call():
            e_a = ck.povm_from_mixture(ka, qs)
            e_b = ck.povm_from_mixture(kb, qs)
            return ck.q_relative_collapse(e_a, e_b, ka, kb, qs)
        return call

    @staticmethod
    def _instrument_call(a, b, psi):
        def call():
            model = ck.InstrumentModel(ck.build_instrument(a, a.n_outcomes + 1),
                                       ck.build_instrument(b, b.n_outcomes + 1))
            return (ck.sequential_probabilities(model, psi),
                    ck.interference_comparison(model, psi))
        return call

    @staticmethod
    def _joint_instrument_call(dist):
        def call():
            return ck.joint_instrument_probabilities(ck.build_joint_instrument(dist))
        return call

    def _build_cli(self, rng) -> None:
        d = 4
        mats = [gen.random_observable_matrix(rng, d, r)
                for r in [(2, 1, 1), (1, 1, 1, 1), (2, 2)]]
        rho = gen.density(rng, d)
        psi = gen.unit_vector(rng, d)
        self.cli_mats, self.cli_rho, self.cli_psi = mats, rho, psi
        paths = [self.doc(f"obs{k}.json", observable_doc(f"O{k}", m))
                 for k, m in enumerate(mats)]
        state = self.doc("rho.json", {"kind": "state", "matrix": matrix_json(rho)})
        vector = self.doc("psi.json", {"kind": "vector", "amplitudes":
                                       [[float(v.real), float(v.imag)] for v in psi]})
        for tree in ("left", "right"):
            argv = ["--format", "json", "joint", *paths, "--state", state, "--tree", tree]
            self.add("cli_joint", (lambda argv=argv: run_cli(argv)),
                     self._check_cli_joint(tree))
        argv = ["--format", "json", "equivalence", *paths[:2], "--state", state]
        self.add("cli_equivalence", lambda: run_cli(argv), self._check_cli_equivalence)
        argv_i = ["--format", "json", "instruments", *paths[:2], "--vector", vector]
        self.add("cli_instruments", lambda: run_cli(argv_i), self._check_cli_instruments)

    # -- references ------------------------------------------------------------

    def prepare(self) -> None:
        self.projs = {label: [C.projectors(m) for m in f[0]]
                      for label, f in self.family.items()}
        self.ref_tables = {}
        for label, projs in self.projs.items():
            for tree in C.bracketings(0, len(projs)):
                self.ref_tables[(label, tree)] = C.tree_effects(projs, tree)
        # Tr[rho P_1 P_2 ... P_n] for the commuting families.
        self.classical = {}
        for label, (_, _, rho, _, commuting) in self.family.items():
            if commuting:
                d = rho.shape[0]
                prod = np.eye(d, dtype=np.complex128)[None]
                for stack in self.projs[label]:
                    prod = np.einsum("xab,jbc->xjac", prod, stack).reshape(-1, d, d)
                shape = tuple(len(s) for s in self.projs[label])
                self.classical[label] = C.born(rho, prod).reshape(shape)
        cli_projs = [C.projectors(m) for m in self.cli_mats]
        self.cli_left = C.born(self.cli_rho, C.tree_effects(cli_projs, ((0, 1), 2)))
        self.cli_right = C.born(self.cli_rho, C.tree_effects(cli_projs, (0, (1, 2))))
        self.cli_pair = C.born(self.cli_rho, C.tree_effects(cli_projs[:2], (0, 1)))

    # -- checks ----------------------------------------------------------------

    def _check_enumerate(self, n):
        def check(trees):
            C.require(len(trees) == C.catalan_numbers(n)[n - 1],
                      f"{len(trees)} bracketings of {n}, Catalan number is "
                      f"{C.catalan_numbers(n)[n - 1]}")
            C.require(sorted(map(repr, map(to_nested, trees)))
                      == sorted(map(repr, C.bracketings(0, n))),
                      f"bracketings of {n} are not the full binary trees")
        return check

    def _check_tree(self, label, tree):
        def check(result):
            table, dist = result
            _, _, rho, _, commuting = self.family[label]
            reference = self.ref_tables[(label, tree)]
            C.check_effect_table(table.effects, reference, f"{label} {tree}")
            C.close(dist.probabilities, C.born(rho, reference), 1e-9,
                    f"{label} {tree} joint")
            if commuting:
                C.close(dist.probabilities, self.classical[label], 1e-9,
                        f"{label} {tree}: commuting joint vs Tr[rho prod P]")
        return check

    def _check_equivalence(self, key):
        def check(result):
            model, report = result
            dist = self._targets[key]
            C.require(np.array_equal(model.joint_probability(), dist.probabilities),
                      f"commutative model of {key} does not reproduce its table")
            grids = np.meshgrid(*dist.axes, indexing="ij")
            for k, grid in enumerate(grids):
                C.require(np.array_equal(model.primed_values[k], grid.ravel()),
                          f"primed observable {k} of {key} is not the coordinate")
            C.require(report.max_deviation == 0.0,
                      f"equivalence report deviation {report.max_deviation!r}")
            C.require(report.min_polynomial_positivity >= 0.0,
                      "positivity probe went negative")
        return check

    def _check_q(self, qs, ka, kb):
        def check(table):
            stack = np.stack(qs)
            roots = C.psd_root(stack)
            core = roots[:, None] @ stack[None] @ roots[:, None]
            reference = np.einsum("lx,my,lmab->xyab", ka, kb, core)
            C.check_effect_table(table.effects, reference, "q-relative collapse")
        return check

    def _check_instrument(self, ma, mb, psi):
        def check(result):
            dist, comparison = result
            pa, pb = C.projectors(ma), C.projectors(mb)
            amp = np.einsum("jab,ibc,c->ija", pb, pa, psi)     # Q_j P_i psi
            expected = (np.abs(amp) ** 2).sum(axis=-1)        # Tr[rho P_i Q_j P_i]
            C.close(dist.probabilities, expected, 1e-12, "pointer probabilities")
            unmeasured = np.real(np.einsum("a,jab,b->j", psi.conj(), pb, psi))
            got = np.array([[m, u] for _, m, u in comparison])
            C.close(got[:, 0], expected.sum(axis=0), 1e-12, "interference: measured")
            C.close(got[:, 1], unmeasured, 1e-12, "interference: unmeasured")
        return check

    def _check_joint_instrument(self, target):
        def check(dist):
            C.close(dist.probabilities, target, 1e-12, "joint instrument vs target")
        return check

    def _check_cli_joint(self, tree):
        def check(result):
            code, text = result
            C.require(code == 0, f"cli joint exited {code}")
            probs = np.array([float(r["probability"]) for r in json.loads(text)["rows"]])
            expected = self.cli_left if tree == "left" else self.cli_right
            C.close(probs, expected.ravel(), 1e-9, f"cli joint --tree {tree}")
        return check

    def _check_cli_equivalence(self, result):
        code, text = result
        C.require(code == 0, f"cli equivalence exited {code}")
        out = json.loads(text)
        diag = np.array([float(v) for v in out["state_diagonal"].split(",")])
        C.require(out["dim"] == self.cli_pair.size, "cli equivalence dimension")
        C.close(diag, self.cli_pair.ravel(), 1e-9, "cli equivalence state diagonal")
        C.require(float(out["max_deviation"]) == 0.0, "cli equivalence deviation")

    def _check_cli_instruments(self, result):
        code, text = result
        C.require(code == 0, f"cli instruments exited {code}")
        out = json.loads(text)
        probs = np.array([float(r["probability"]) for r in out["joint"]])
        pa, pb = (C.projectors(m) for m in self.cli_mats[:2])
        amp = np.einsum("jab,ibc,c->ija", pb, pa, self.cli_psi)
        expected = (np.abs(amp) ** 2).sum(axis=-1)
        C.close(probs, expected.ravel(), 1e-9, "cli instruments joint")
        C.require(float(out["luders_duality_max_deviation"]) <= 1e-12,
                  "cli instruments duality")


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def problem_doc(axes: dict, contexts: list) -> dict:
    return {"kind": "marginal-problem",
            "axes": {k: [float(v) for v in vals] for k, vals in axes.items()},
            "contexts": [{"axes": list(names), "table": np.asarray(t).tolist()}
                         for names, t in contexts]}


def make_problem(axes: dict, contexts: list) -> MarginalProblem:
    return MarginalProblem(axes, [
        (tuple(names), ck.JointDistribution([np.asarray(axes[n], dtype=float) for n in names],
                                            np.asarray(t, dtype=float)))
        for names, t in contexts])


class FeasibilityWorkload(Workload):
    """Exact feasibility of marginal problems (CHSH, n-cycles, marginals of
    a known global joint) through the API and `collapsekit feasible`, and
    the alternating-projection state search."""

    name = "feasibility"

    RANDOM = [((2, 2, 2, 2), [(0, 1), (1, 2), (2, 3), (0, 3)]),
              ((3, 3, 4), [(0, 1), (1, 2), (0, 2)]),
              ((2, 2, 2, 2, 2, 2), [(k, k + 1) for k in range(5)] + [(0, 5)]),
              ((3, 3, 3, 3), [(0, 1), (1, 2), (2, 3)])]
    TINY_RANDOM = [((2, 2, 2), [(0, 1), (1, 2)])]
    MARGIN = 0.02

    def build(self) -> None:
        rng = self.rng
        self.problems = {}        # label -> (axes, contexts, expected verdict)

        # Several draws of every problem class: the pivot count of one
        # problem varies by about a third with the drawn values, and the
        # draws average that out within a round.
        for k in range(self.size(8, 2)):
            self._chsh(rng, k, infeasible=(k % 2 == 0))
        for draw in range(self.size(2, 1)):
            for n in self.size((4, 5, 6), (4,)):
                for infeasible in (True, False):
                    self._cycle(rng, n, infeasible, draw)
        random_problems = self.size(self.RANDOM, self.TINY_RANDOM)
        for draw in range(self.size(5, 1)):
            for k, (sizes, ctx) in enumerate(random_problems):
                self._random(rng, k + len(random_problems) * draw, sizes, ctx)

        for label, (axes, contexts, _) in self.problems.items():
            if label.startswith("chsh"):
                continue
            problem = make_problem(axes, contexts)
            self.add("feasible", (lambda p=problem: ck.admits_global_joint(p)),
                     self._check_verdict(label))
        cli_labels = [next(l for l in self.problems if l.startswith(p))
                      for p in ("chsh", "cycle", "random")]
        for label in cli_labels:
            axes, contexts, _ = self.problems[label]
            path = self.doc(f"{label}.json", problem_doc(axes, contexts))
            argv = ["--format", "json", "feasible", path]
            self.add("cli_feasible", (lambda argv=argv: run_cli(argv)),
                     self._check_cli(label))
        for d, consistent in self.size([(4, True), (6, True), (4, False)], [(4, True), (4, False)]):
            self._unifying(rng, d, consistent)
        self.warm = self.first_of_each_kind()

    def _chsh(self, rng, k, infeasible: bool) -> None:
        """Werner state, spin settings near the optimal angles.  Redrawn until
        the largest CHSH combination is MARGIN away from 2."""
        for _ in range(200):
            v = rng.uniform(0.85, 1.0) if infeasible else rng.uniform(0.3, 0.65)
            base = rng.uniform(0.0, 2 * np.pi)
            angles = np.array([0.0, np.pi / 2, 5 * np.pi / 4, 3 * np.pi / 4]) + base
            angles = angles + rng.normal(scale=0.15, size=4)
            rho = gen.werner(v)
            mats = [gen.spin(t) for t in angles]
            e = np.array([[C.correlator(rho, a, b) for b in mats[2:]] for a in mats[:2]])
            s = C.chsh_max(e)
            if abs(s - 2.0) >= self.MARGIN and (s > 2.0) == infeasible:
                break
        else:
            raise RuntimeError("no CHSH configuration away from the boundary")
        obs = [ck.observable(nm, m) for nm, m in zip(("A1", "A2", "B1", "B2"), mats)]
        state = ck.AlgebraicState(rho)
        label = f"chsh{k}"
        # Context tables the benchmark computes itself, in (A, B) order.
        contexts = []
        for ia, ma in zip(("A1", "A2"), mats[:2]):
            for ib, mb in zip(("B1", "B2"), mats[2:]):
                pa, pb = C.projectors(ma), C.projectors(mb)
                table = np.array([[np.real(np.trace(rho @ np.kron(x, y))) for y in pb]
                                  for x in pa])
                contexts.append(((ia, ib), table))
        axes = {nm: [-1.0, 1.0] for nm in ("A1", "A2", "B1", "B2")}
        self.problems[label] = (axes, contexts, not infeasible)

        def call():
            problem = ck.chsh_marginal_problem(state, *obs)
            return problem, ck.admits_global_joint(problem)
        self.add("chsh", call, self._check_chsh(label))

    def _cycle(self, rng, n, infeasible: bool, draw: int) -> None:
        """n-cycle with unbiased +/-1 marginals and correlators E_i."""
        for _ in range(500):
            if infeasible:
                e = rng.uniform(0.85, 0.99, size=n)
                flips = rng.choice(n, size=1 + 2 * int(rng.integers(0, (n - 1) // 2 + 1)),
                                   replace=False)
                e[flips] *= -1.0
            else:
                e = rng.uniform(-0.9, 0.9, size=n)
            omega = C.cycle_omega(e)
            if abs(omega - (n - 2)) >= self.MARGIN and (omega > n - 2) == infeasible:
                break
        else:
            raise RuntimeError("no n-cycle away from the boundary")
        names = [f"X{k}" for k in range(n)]
        axes = {nm: [-1.0, 1.0] for nm in names}
        contexts = []
        for k in range(n):
            t = np.array([[1 + e[k], 1 - e[k]], [1 - e[k], 1 + e[k]]]) / 4.0
            contexts.append(((names[k], names[(k + 1) % n]), t))
        label = f"cycle{n}{'x' if infeasible else 'f'}{draw}"
        self.problems[label] = (axes, contexts, not infeasible)

    def _random(self, rng, k, sizes, ctx) -> None:
        """Pairwise marginals of a seeded Dirichlet global joint: feasible."""
        joint = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
        names = [f"Y{i}" for i in range(len(sizes))]
        axes = {nm: list(range(s)) for nm, s in zip(names, sizes)}
        contexts = [((names[i], names[j]), C.marginal(joint, [i, j])) for i, j in ctx]
        self.problems[f"random{k}"] = (axes, contexts, True)

    def _unifying(self, rng, d, consistent: bool) -> None:
        """X with two eigenspaces of dimension d/2; A and B act inside them,
        so both commute with X.  Consistent targets come from a full-rank
        state; inconsistent ones give B's table X-marginals that disagree
        with A's."""
        m = d // 2
        x = np.diag([0.0] * m + [1.0] * m).astype(np.complex128)

        def block_observable():
            u = np.zeros((d, d), dtype=np.complex128)
            u[:m, :m] = gen.unitary(rng, m)
            u[m:, m:] = gen.unitary(rng, m)
            return gen.hermitian_from_basis(u, np.arange(d) % 2)

        ma, mb = block_observable(), block_observable()
        rho = gen.density(rng, d)
        px = C.projectors(x)
        ta = np.array([[np.real(np.trace(rho @ p @ q)) for q in C.projectors(ma)] for p in px])
        tb = np.array([[np.real(np.trace(rho @ p @ q)) for q in C.projectors(mb)] for p in px])
        if not consistent:
            tb = tb * np.array([[0.6], [1.4]])
            tb = tb / tb.sum()
        obs = [ck.observable(nm, mat) for nm, mat in (("X", x), ("A", ma), ("B", mb))]
        axes = [np.array([0.0, 1.0])] * 2
        p_xa, p_xb = ck.JointDistribution(axes, ta), ck.JointDistribution(axes, tb)
        max_iter = 20_000 if consistent else self.size(300, 50)

        def call():
            return ck.noncommutative_unifying_state(p_xa, p_xb, *obs, max_iter=max_iter)

        def check(result):
            if not consistent:
                C.require(result.status == "inconclusive" and result.iterations == max_iter,
                          "state search claims a state for inconsistent targets")
                return
            C.require(result.status == "found", f"no state found for consistent targets "
                      f"(residual {result.residual:.3e})")
            r = result.state.density
            C.require(float(np.linalg.eigvalsh(r)[0]) >= -1e-9, "found state is not PSD")
            C.close(np.trace(r).real, 1.0, 1e-9, "found state trace")
            for table, mat in ((ta, ma), (tb, mb)):
                got = np.array([[np.real(np.trace(r @ p @ q)) for q in C.projectors(mat)]
                                for p in px])
                C.close(got, table, 1e-6, "found state vs targets")
        self.add("unifying", call, check)

    # -- checks ----------------------------------------------------------------

    def _verify(self, label, feasible, joint, certificate) -> None:
        axes, contexts, expected = self.problems[label]
        C.require(feasible == expected,
                  f"{label}: verdict {'feasible' if feasible else 'infeasible'}, "
                  f"expected {'feasible' if expected else 'infeasible'}")
        if feasible:
            C.require(joint is not None, f"{label}: feasible verdict without a joint")
            C.check_joint_reproduces(joint, contexts, list(axes))
        else:
            C.check_certificate(certificate, contexts,
                                {nm: len(v) for nm, v in axes.items()})

    def _check_verdict(self, label):
        def check(verdict):
            joint = verdict.joint.probabilities if verdict.joint is not None else None
            self._verify(label, verdict.feasible, joint, verdict.certificate)
        return check

    def _check_chsh(self, label):
        def check(result):
            problem, verdict = result
            axes, contexts, _ = self.problems[label]
            given = dict(problem.contexts)
            for names, table in contexts:
                C.close(given[names].probabilities, table, 1e-9, f"{label} context {names}")
            joint = verdict.joint.probabilities if verdict.joint is not None else None
            self._verify(label, verdict.feasible, joint, verdict.certificate)
        return check

    def _check_cli(self, label):
        def check(result):
            code, text = result
            out = json.loads(text)
            feasible = out["verdict"] == "feasible"
            C.require(code == (0 if feasible else 3), f"cli feasible exited {code}")
            axes, _, _ = self.problems[label]
            joint = certificate = None
            if feasible:
                shape = tuple(len(v) for v in axes.values())
                joint = np.array([float(r["probability"]) for r in out["joint"]]).reshape(shape)
            else:
                import ast
                certificate = [(ast.literal_eval(r["constraint"]), r["coefficient"])
                               for r in out["certificate"]]
            self._verify(label, feasible, joint, certificate)
        return check


WORKLOADS = {w.name: w for w in (ChainWorkload, LongChainWorkload,
                                 JointsWorkload, FeasibilityWorkload)}
