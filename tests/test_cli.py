import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from collapsekit import chain as chain_mod
from collapsekit import cli, instruments, io
from collapsekit.cli import build_parser, main
from collapsekit.collapse_product import (
    FOLD_TREES,
    collapse_effect_tree,
    joint_distribution,
)
from collapsekit.config import Tolerances
from collapsekit.io import DocumentError, dump_document, load_document
from collapsekit.measurement import AlgebraicState, VectorState, observable

from conftest import (
    PAULI_Z,
    degenerate_observable,
    fourier_pair,
    random_unitary,
    record_text,
)


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def docs(tmp_path):
    theta = {}
    for name, angle in (("a1", 0.0), ("a2", np.pi / 2),
                        ("b1", 5 * np.pi / 4), ("b2", 3 * np.pi / 4)):
        m = np.cos(angle) * np.diag([1.0, -1.0]) + np.sin(angle) * np.array(
            [[0.0, 1.0], [1.0, 0.0]]
        )
        theta[name] = write(tmp_path / f"{name}.json", {
            "kind": "observable", "name": name.upper(),
            "matrix": [[float(v) for v in row] for row in m],
        })
    theta["z"] = write(tmp_path / "z.json", {
        "kind": "observable", "name": "Z", "matrix": [[1.0, 0.0], [0.0, -1.0]],
    })
    theta["x"] = write(tmp_path / "x.json", {
        "kind": "observable", "name": "X", "matrix": [[0.0, 1.0], [1.0, 0.0]],
    })
    theta["ket0"] = write(tmp_path / "ket0.json", {
        "kind": "state", "matrix": [[1.0, 0.0], [0.0, 0.0]],
    })
    theta["vec0"] = write(tmp_path / "vec0.json", {
        "kind": "vector", "amplitudes": [1.0, 0.0],
    })
    psi = np.zeros((4, 4))
    psi[1, 1] = psi[2, 2] = 0.5
    psi[1, 2] = psi[2, 1] = -0.5
    theta["singlet"] = write(tmp_path / "singlet.json", {
        "kind": "state", "matrix": [[float(v) for v in row] for row in psi],
    })
    corr = [[0.5, 0.0], [0.0, 0.5]]
    anti = [[0.0, 0.5], [0.5, 0.0]]
    theta["prbox"] = write(tmp_path / "prbox.json", {
        "kind": "marginal-problem",
        "axes": {"A1": [-1, 1], "A2": [-1, 1], "B1": [-1, 1], "B2": [-1, 1]},
        "contexts": [
            {"axes": ["A1", "B1"], "table": corr},
            {"axes": ["A1", "B2"], "table": corr},
            {"axes": ["A2", "B1"], "table": corr},
            {"axes": ["A2", "B2"], "table": anti},
        ],
    })
    theta["product"] = write(tmp_path / "product.json", {
        "kind": "marginal-problem",
        "axes": {"A1": [-1, 1], "B1": [-1, 1]},
        "contexts": [
            {"axes": ["A1", "B1"], "table": [[0.25, 0.25], [0.25, 0.25]]},
        ],
    })
    theta["chain"] = write(tmp_path / "chain.json", {
        "kind": "chain-spec",
        "observables": [
            {"kind": "observable", "name": "Z",
             "matrix": [[1.0, 0.0], [0.0, -1.0]]},
            {"kind": "observable", "name": "X",
             "matrix": [[0.0, 1.0], [1.0, 0.0]]},
        ],
        "length": 3, "convention": "left_fold", "seed": 5,
    })
    theta["tmp"] = tmp_path
    return theta


class TestDecompose:
    def test_table_output(self, docs, capsys):
        assert main([f"--format=table", "decompose", docs["z"]]) == 0
        out = capsys.readouterr().out
        assert "-1" in out and "1" in out

    def test_json_output(self, docs, capsys):
        assert main(["--format=json", "decompose", docs["z"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eigenvalues"] == ["-1", "1"]
        assert payload["ranks"] == [1, 1]

    def test_missing_file_exit_2(self, docs, capsys):
        assert main(["decompose", str(docs["tmp"] / "nope.json")]) == 2

    def test_wrong_kind_exit_2(self, docs, capsys):
        assert main(["decompose", docs["ket0"]]) == 2

    def test_degeneracy_gap_from_the_document(self, docs, capsys):
        # Eigenvalues 1 and 1 + 1e-9 share a cluster at the default gap of
        # 1e-8 and split at a document gap of 1e-12.
        doc = {"kind": "observable", "name": "N",
               "matrix": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0 + 1e-9]]}
        for extra, ranks in (({}, [1, 2]), ({"degeneracy_gap": 1e-12}, [1, 1, 1])):
            path = write(docs["tmp"] / "near.json", {**doc, **extra})
            assert main(["--format=json", "decompose", path]) == 0
            assert json.loads(capsys.readouterr().out)["ranks"] == ranks

    def test_gap_flag_removed(self, docs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", docs["z"], "--gap", "1e-12"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("gap", ["1e400", "NaN", "true", '"x"', "0", "-1e-8"])
    def test_gap_not_a_finite_positive_real_exit_2(self, docs, capsys, gap):
        # 1e400 reads as inf, which would merge diag(1, 1, 2) into one outcome.
        path = docs["tmp"] / "gap.json"
        path.write_text('{"kind": "observable", "name": "N", "degeneracy_gap": ' + gap
                        + ', "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]}')
        assert main(["--format=json", "decompose", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "degeneracy_gap" in captured.err

    def test_malformed_json_reports_position(self, docs, capsys):
        bad = docs["tmp"] / "bad.json"
        bad.write_text('{"kind": "observable", "matrix": [[1, }')
        assert main(["decompose", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err


class TestJoint:
    def test_z_then_x_on_ket0(self, docs, capsys):
        assert main(["--format=json", "joint", docs["z"], docs["x"],
                     "--state", docs["ket0"]]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        table = {r["outcomes"]: float(r["probability"]) for r in rows}
        assert table["1,-1"] == pytest.approx(0.5)
        assert table["1,1"] == pytest.approx(0.5)
        assert table["-1,-1"] == 0.0

    def test_left_right_trees_differ(self, docs, capsys):
        outputs = []
        for tree in ("left", "right"):
            assert main(["--format=json", "joint", docs["z"], docs["x"],
                         docs["z"], "--state", docs["ket0"],
                         "--tree", tree]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]

    def test_table_past_the_size_guard_exit_2(self, docs, capsys):
        # 22 binary observables: a 256 MiB table, refused before allocation.
        assert main(["joint", *[docs["z"]] * 22, "--state", docs["ket0"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "MAX_TABLE_BYTES" in err


class TestTreeConventions:
    @pytest.mark.parametrize("convention", sorted(FOLD_TREES))
    def test_tree_flag_uses_the_fold_registry(self, docs, capsys, convention):
        # `--tree left` names the same tree as the chain convention left_fold.
        name = convention.removesuffix("_fold")
        assert main(["--format=json", "joint", docs["z"], docs["x"], docs["z"],
                     "--state", docs["ket0"], "--tree", name]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        obs = [load_document(docs[k]) for k in ("z", "x", "z")]
        tree = chain_mod.ChainSpec(obs, 3, convention).tree()
        dist = joint_distribution(collapse_effect_tree(obs, tree),
                                  load_document(docs["ket0"]))
        got = [float(r["probability"]) for r in rows]
        assert got == pytest.approx(dist.probabilities.ravel().tolist(), abs=1e-11)


class TestOneLeftFoldLaw:
    def test_joint_equivalence_and_chain_print_one_law(self, docs, capsys):
        # A, A, B with A of ranks (2, 1): the tuples whose two A outcomes
        # differ are structurally zero.  `joint --tree left`, the state of
        # `equivalence` and the exact column of `chain` print the same
        # strings for every tuple, those included.
        rng = np.random.default_rng(0)
        a = degenerate_observable(rng, 3, "A", [0, 0, 1])
        b = degenerate_observable(rng, 3, "B", [0, 1, 2])
        sequence = [a, a, b]
        paths = [write(docs["tmp"] / f"o{k}.json", json.loads(dump_document(o)))
                 for k, o in enumerate(sequence)]
        state = write(docs["tmp"] / "rho3.json", json.loads(dump_document(
            AlgebraicState.pure(random_unitary(rng, 3)[:, 0]))))
        spec = write(docs["tmp"] / "chain3.json", {
            "kind": "chain-spec", "length": 3, "convention": "left_fold",
            "observables": [json.loads(dump_document(o)) for o in sequence]})

        assert main(["--format=json", "joint", *paths, "--state", state,
                     "--tree", "left"]) == 0
        joint = [r["probability"] for r in json.loads(capsys.readouterr().out)["rows"]]
        assert main(["--format=json", "equivalence", *paths, "--state", state]) == 0
        diagonal = json.loads(capsys.readouterr().out)["state_diagonal"].split(",")
        assert main(["--format=json", "chain", spec, "--state", state,
                     "--mechanism", "table"]) == 0
        exact = [r["exact"] for r in json.loads(capsys.readouterr().out)["rows"]]
        assert len(joint) == 2 * 2 * 3
        assert all(float(p) <= 1e-15 for p in joint[3:9])
        assert joint == diagonal == exact


class TestEquivalence:
    def test_exact(self, docs, capsys):
        assert main(["--format=json", "equivalence", docs["z"], docs["x"],
                     "--state", docs["ket0"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim"] == 4
        assert float(payload["max_deviation"]) == 0.0
        assert float(payload["min_polynomial_positivity"]) >= -1e-10

    def test_perturb_detected(self, docs, capsys):
        assert main(["--format=json", "equivalence", docs["z"], docs["x"],
                     "--state", docs["ket0"], "--perturb", "1e-6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert float(payload["max_deviation"]) == pytest.approx(1e-6)


class TestInstruments:
    def test_pointer_statistics(self, docs, capsys):
        assert main(["--format=json", "instruments", docs["z"], docs["x"],
                     "--vector", docs["vec0"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        table = {r["outcomes"]: float(r["probability"]) for r in payload["joint"]}
        assert table["1,1"] == pytest.approx(0.5)
        assert float(payload["luders_duality_max_deviation"]) <= 1e-12

    def test_non_finite_vector_exit_2(self, docs, capsys):
        # Python's json reads NaN; the vector is refused, not sampled.
        nan = docs["tmp"] / "nan.json"
        nan.write_text('{"kind": "vector", "amplitudes": [NaN, 0]}')
        assert main(["instruments", docs["z"], docs["x"], "--vector", str(nan)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite" in captured.err


    def test_pointer_statistics_computed_once(self, docs, capsys, monkeypatch):
        calls = []
        compute = cli.sequential_probabilities

        def counting(*args, **kwargs):
            calls.append(args)
            return compute(*args, **kwargs)

        # The CLI's own name and the one the instruments module calls.
        monkeypatch.setattr(cli, "sequential_probabilities", counting)
        monkeypatch.setattr(instruments, "sequential_probabilities", counting)
        assert main(["--format=json", "instruments", docs["z"], docs["x"],
                     "--vector", docs["vec0"]]) == 0
        assert len(calls) == 1
        rows = json.loads(capsys.readouterr().out)["interference"]
        assert [(r["with_first_measured"], r["without_first"]) for r in rows] == [
            ("0.5", "0.5"), ("0.5", "0.5")]


class TestOutcomeLabels:
    """Each printed outcome tuple is its values at 12 significant digits,
    joined by commas, in the table's C order."""

    @staticmethod
    def expected(dist):
        return [",".join(f"{v:.12g}" for v in t) for t in dist.tuples()]

    def test_joint_and_chain_rows(self, docs, capsys):
        awkward = write(docs["tmp"] / "awkward.json", {
            "kind": "observable", "name": "W",
            "matrix": [[1 / 3, 0.0, 0.0], [0.0, -2.5e-7, 0.0],
                       [0.0, 0.0, 12345.678901234]],
        })
        state = write(docs["tmp"] / "mixed3.json", {
            "kind": "state", "matrix": (np.eye(3) / 3).tolist()})
        spec = write(docs["tmp"] / "awkward-chain.json", {
            "kind": "chain-spec", "length": 3, "seed": 2,
            "observables": [json.loads((docs["tmp"] / "awkward.json").read_text())],
        })
        observables = [load_document(awkward)] * 2
        dist = joint_distribution(collapse_effect_tree(
            observables, FOLD_TREES["left_fold"](2)), load_document(state))
        assert main(["--format=json", "joint", awkward, awkward, "--state", state]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["outcomes"] for r in rows] == self.expected(dist)
        exact = chain_mod.exact_chain_distribution(load_document(spec), load_document(state))
        assert main(["--format=json", "chain", spec, "--state", state]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["outcomes"] for r in rows] == self.expected(exact)


class TestChsh:
    def test_singlet_value(self, docs, capsys):
        assert main(["--format=json", "chsh",
                     docs["a1"], docs["a2"], docs["b1"], docs["b2"],
                     "--state", docs["singlet"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert float(payload["chsh_value"]) == pytest.approx(
            2.0 * np.sqrt(2.0), abs=1e-6
        )


class TestFeasible:
    def test_feasible_exit_0(self, docs, capsys):
        assert main(["--format=json", "feasible", docs["product"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "feasible"

    def test_pr_box_exit_3(self, docs, capsys):
        assert main(["--format=json", "feasible", docs["prbox"]]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "infeasible"
        assert payload["certificate"]
        assert float(payload["violation"]) > 0.1


class TestChain:
    def test_records_deterministic(self, docs, capsys):
        argv = ["chain", docs["chain"], "--state", docs["ket0"],
                "--runs", "50", "--mechanism", "step", "--emit-records"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert len(first.strip().splitlines()) == 50

    def test_seed_flag_changes_records(self, docs, capsys):
        base = ["chain", docs["chain"], "--state", docs["ket0"],
                "--runs", "50", "--mechanism", "step", "--emit-records"]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base + ["--seed", "99"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_seed_flag_does_not_carry_to_the_next_call(self, docs, capsys):
        # One parser serves every call of main in a process: a --seed given
        # to one call must not become the default of the next.
        spec = json.loads((docs["tmp"] / "chain.json").read_text())
        spec["seed"] = 0
        seed0 = write(docs["tmp"] / "chain_seed0.json", spec)
        base = ["chain", seed0, "--state", docs["ket0"],
                "--runs", "50", "--mechanism", "step", "--emit-records"]
        assert main(base + ["--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(base) == 0
        second = capsys.readouterr().out
        outcomes = chain_mod.sample_chain_leftfold(
            load_document(seed0), load_document(docs["ket0"]), 50)
        assert second == record_text(outcomes)
        assert first != second

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_summary_table(self, docs, capsys):
        assert main(["--format=json", "chain", docs["chain"],
                     "--state", docs["ket0"], "--runs", "2000"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        total = sum(float(r["empirical"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)


    def test_table_mechanism_builds_the_exact_table_once(self, docs, capsys,
                                                         monkeypatch):
        spec = load_document(docs["chain"])
        state = load_document(docs["ket0"])
        expected = record_text(chain_mod.sample_chain_tree(spec, state, 300))
        calls = []
        build = chain_mod.exact_chain_distribution

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(chain_mod, "exact_chain_distribution", counting)
        argv = ["chain", docs["chain"], "--state", docs["ket0"],
                "--runs", "300", "--mechanism", "table"]
        assert main(["--format=json"] + argv) == 0
        assert len(calls) == 1
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert sum(float(r["empirical"]) for r in rows) == pytest.approx(1.0)
        assert main(argv + ["--emit-records"]) == 0
        assert capsys.readouterr().out == expected

    def test_long_step_chain_without_exact_table(self, docs, capsys):
        # The exact table of 22 binary steps (256 MiB) is past MAX_TABLE_BYTES:
        # the step sampler still runs and reports the observed tuples without
        # exact values.
        spec = json.loads((docs["tmp"] / "chain.json").read_text())
        spec["length"] = 22
        long_chain = write(docs["tmp"] / "chain22.json", spec)
        assert main(["--format=json", "chain", long_chain, "--state", docs["ket0"],
                     "--runs", "500", "--mechanism", "step"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert all(r["exact"] is None for r in rows)
        assert all(len(r["outcomes"].split(",")) == 22 for r in rows)
        assert sum(float(r["empirical"]) for r in rows) == pytest.approx(1.0)
        assert main(["chain", long_chain, "--state", docs["ket0"],
                     "--mechanism", "table"]) == 2


class TestChainRowsOfNarrowOutcomes:
    """`collapsekit chain` prints the same rows from its samplers' one-byte
    outcomes as from the same outcomes widened to int64."""

    @pytest.mark.parametrize("length, mechanism", [
        (4, "step"), (4, "table"),   # exact rows over 256 tuples
        (14, "step"),                # past the size guard: np.unique's rows
    ])
    def test_rows_as_from_int64_outcomes(self, docs, capsys, monkeypatch, length, mechanism):
        spec = write(docs["tmp"] / "fourier.json", {
            "kind": "chain-spec", "length": length, "seed": 8,
            "observables": [json.loads(dump_document(o)) for o in fourier_pair(4)]})
        state = docs["tmp"] / "mixed4.json"
        state.write_text(dump_document(AlgebraicState.maximally_mixed(4)))
        argv = ["--format=json", "chain", spec, "--state", str(state),
                "--runs", "3000", "--mechanism", mechanism]
        sampler = {"step": "sample_chain_leftfold", "table": "sample_distribution"}[mechanism]
        sample = getattr(chain_mod, sampler)
        dtypes = []

        def recorded(*args):
            outcomes = sample(*args)
            dtypes.append(outcomes.dtype)
            return outcomes

        monkeypatch.setattr(chain_mod, sampler, recorded)
        assert main(argv) == 0
        narrow = json.loads(capsys.readouterr().out)["rows"]
        monkeypatch.setattr(chain_mod, sampler, lambda *args: sample(*args).astype(np.int64))
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == narrow
        assert dtypes == [np.int8]
        exact = [r["exact"] for r in narrow]
        if length == 4:
            assert len(narrow) == 256 and None not in exact
        else:
            assert set(exact) == {None} and len(narrow) > 256


class TestChainRowsPastTheGuard:
    """Past the size guard `collapsekit chain` prints the observed tuples,
    in the order and with the counts of `np.unique(outcomes, axis=0)`."""

    @staticmethod
    def expected_rows(spec, state, runs):
        outcomes = chain_mod.sample_chain_leftfold(spec, state, runs)
        observed, counts = np.unique(outcomes, axis=0, return_counts=True)
        return outcomes.dtype, [{
            "convention": spec.convention,
            "outcomes": ",".join(f"{obs.sample_space[i]:.12g}"
                                 for obs, i in zip(spec.sequence(), t)),
            "exact": None,
            "empirical": f"{c / runs:.12g}",
        } for t, c in zip(observed.tolist(), counts.tolist())]

    @pytest.mark.parametrize("outcomes, length, dtype", [(4, 14, np.int8), (257, 1, np.int16)])
    def test_rows_of_np_unique(self, docs, capsys, outcomes, length, dtype):
        # 257 outcomes are labelled 0 .. 256: the rows' order is numeric,
        # not that of their text, and index 256 makes the byte order of the
        # outcome type count.
        family = (fourier_pair(4) if outcomes == 4
                  else [observable("N", np.diag(np.arange(float(outcomes))))])
        spec = write(docs["tmp"] / "spec.json", {
            "kind": "chain-spec", "length": length, "seed": 8,
            "observables": [json.loads(dump_document(o)) for o in family]})
        mixed = AlgebraicState.maximally_mixed(outcomes)
        state = docs["tmp"] / "mixed.json"
        state.write_text(dump_document(mixed))
        assert main(["--format=json", "chain", spec, "--state", str(state),
                     "--runs", "3000", "--mechanism", "step"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        drawn, expected = self.expected_rows(load_document(spec), mixed, 3000)
        assert drawn == dtype and len(rows) > 250
        assert rows == expected

    def test_a_long_chain_in_bounded_memory(self, docs, capsys):
        # Two runs of 2**18 steps: about 5 MiB of uniforms and outcomes.
        # np.unique(axis=0) counts these rows over one structured field per
        # step, in about 150 MiB.
        doc = json.loads((docs["tmp"] / "chain.json").read_text())
        spec = write(docs["tmp"] / "long.json", {**doc, "length": 2**18})
        argv = ["--format=json", "chain", spec, "--state", docs["ket0"],
                "--runs", "2", "--mechanism", "step"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert peak < 24 * 2**20
        _, expected = self.expected_rows(load_document(spec), load_document(docs["ket0"]), 2)
        assert rows == expected


class TestBrackets:
    def test_catalan_sequence(self, docs, capsys):
        assert main(["--format=json", "brackets", "7"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["bracketings"] for r in rows] == [1, 1, 2, 5, 14, 42, 132]


class TestToleranceFlags:
    def test_flag_overrides_config(self, docs, capsys):
        # A slightly non-Hermitian matrix passes with a loose flag even when
        # the config file is strict.
        near = docs["tmp"] / "near.json"
        near.write_text(json.dumps({
            "kind": "observable", "name": "N",
            "matrix": [[1.0, 1e-7], [0.0, -1.0]],
        }))
        cfg = docs["tmp"] / "cfg.json"
        cfg.write_text(json.dumps({"herm": 1e-12}))
        assert main(["--config", str(cfg), "decompose", str(near)]) == 2
        capsys.readouterr()
        assert main(["--config", str(cfg), "--tol-herm", "1e-3",
                     "decompose", str(near)]) == 0

    @pytest.mark.parametrize("flags", [["--tol-psd", "-1"], ["--tol-prob", "nan"],
                                       ["--tol-num", "inf"]], ids=" ".join)
    def test_bad_flag_exit_2(self, docs, capsys, flags):
        assert main(flags + ["decompose", docs["z"]]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_flags_and_config_keys_are_the_tolerance_fields(self, docs, capsys):
        names = [f.name for f in dataclasses.fields(Tolerances)]
        flags = {a.dest for a in build_parser()._actions if a.dest.startswith("tol_")}
        assert flags == {f"tol_{name}" for name in names}
        cfg = write(docs["tmp"] / "cfg.json", {name: 0.5 for name in names})
        assert main(["--config", cfg, "brackets", "3"]) == 0

    def test_unknown_config_key_exit_2(self, docs, capsys):
        path = write(docs["tmp"] / "cfg.json", {"herm": 1e-3, "hrem": 1e-3})
        assert main(["--config", path, "brackets", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "'hrem'" in captured.err

    @pytest.mark.parametrize("cfg", [{"herm": "x"}, {"psd": -1e-9}, {"num": True},
                                     {"prob": [1e-12]}], ids=json.dumps)
    def test_bad_config_exit_2(self, docs, capsys, cfg):
        path = write(docs["tmp"] / "cfg.json", cfg)
        assert main(["--config", path, "decompose", docs["z"]]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestDocumentRoundTrip:
    def test_observable(self, docs, tmp_path):
        z = load_document(docs["z"])
        out = tmp_path / "z2.json"
        out.write_text(dump_document(z))
        z2 = load_document(str(out), expect="observable")
        assert np.abs(z.matrix() - z2.matrix()).max() == 0.0

    def test_state(self, docs, tmp_path):
        rho = AlgebraicState.maximally_mixed(3)
        out = tmp_path / "rho.json"
        out.write_text(dump_document(rho))
        rho2 = load_document(str(out), expect="state")
        assert np.abs(rho.density - rho2.density).max() == 0.0

    def test_vector(self, tmp_path):
        psi = VectorState(np.array([0.6, 0.8j]))
        out = tmp_path / "psi.json"
        out.write_text(dump_document(psi))
        psi2 = load_document(str(out), expect="vector")
        assert np.array_equal(psi.amplitudes, psi2.amplitudes)


class TestMarginalProblemDocuments:
    def problem(self, tmp_path, contexts):
        return write(tmp_path / "problem.json", {
            "kind": "marginal-problem", "axes": {"A": [0, 1]},
            "contexts": contexts,
        })

    def test_undeclared_axis_exit_2(self, tmp_path, capsys):
        path = self.problem(tmp_path, [
            {"axes": ["A"], "table": [0.5, 0.5]},
            {"axes": ["A", "B"], "table": [[0.25, 0.25], [0.25, 0.25]]},
        ])
        assert main(["feasible", path]) == 2
        err = capsys.readouterr().err
        assert "contexts[1]" in err and "'B'" in err
        with pytest.raises(DocumentError, match=r"contexts\[1\]"):
            load_document(path)

    def test_context_not_an_object_exit_2(self, tmp_path, capsys):
        path = self.problem(tmp_path, [["A"]])
        assert main(["feasible", path]) == 2
        assert "contexts[0]" in capsys.readouterr().err
        with pytest.raises(DocumentError, match=r"contexts\[0\]"):
            load_document(path)

    def test_axis_names_not_strings_exit_2(self, tmp_path, capsys):
        path = self.problem(tmp_path, [{"axes": [["A"]], "table": [0.5, 0.5]}])
        assert main(["feasible", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: contexts[0].axes:")

    def test_table_shape_off_the_axes_exit_2(self, tmp_path, capsys):
        path = self.problem(tmp_path, [{"axes": ["A"], "table": [0.25, 0.25, 0.5]}])
        assert main(["feasible", path]) == 2
        err = capsys.readouterr().err
        assert f"{path}: contexts[0]: probabilities of shape (3,)" in err

    def test_axis_not_a_list_exit_2(self, tmp_path, capsys):
        path = write(tmp_path / "problem.json", {
            "kind": "marginal-problem", "axes": {"A": 3},
            "contexts": [{"axes": ["A"], "table": [1.0]}],
        })
        assert main(["feasible", path]) == 2
        assert "axes['A']" in capsys.readouterr().err
        with pytest.raises(DocumentError, match="expected a list"):
            load_document(path)


class TestNumbersInDocuments:
    # Every numeric document value must be a finite JSON number: bools,
    # strings, nulls and lists are refused with the path of the entry.
    @pytest.mark.parametrize("matrix, where", [
        ([[True, 0], [0, False]], "matrix[0][0]"),
        ([[["1", 0], 0], [0, 1]], "matrix[0][0][0]"),
        ([[[None, 0], 0], [0, 1]], "matrix[0][0][0]"),
        ([[1, [0, "0"]], [0, 1]], "matrix[0][1][1]"),
        ([[1, 0], [0, 10**400]], "matrix[1][1]"),
        ([[1, 0], 0], "matrix[1]"),
        ([[1, 0], [0]], "matrix[1]"),
        ([[1.0, 0.5], [0.5, True]], "matrix[1][1]"),
        ([[[1, 0], [0, 0]], [[0, 0], [1, False]]], "matrix[1][1][1]"),
        ([[1, 0], [0, float("nan")]], "matrix[1][1]"),
        ([[[1, 0], [0, float("inf")]], [[0, 0], [1, 0]]], "matrix[0][1][1]"),
        ([[1, "0"], [0, 1]], "matrix[0][1]"),
    ], ids=["bools", "string-real-part", "null-real-part", "string-imaginary-part",
            "past-the-float-range", "row-not-a-list", "ragged-rows", "bool-among-numbers",
            "bool-among-pairs", "nan", "inf-in-a-pair", "string-among-numbers"])
    def test_observable_entry_exit_2(self, tmp_path, capsys, matrix, where):
        path = write(tmp_path / "obs.json", {"kind": "observable", "matrix": matrix})
        assert main(["decompose", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path}: {where}:")

    @pytest.mark.parametrize("matrix", [
        [[1, 0.5], [0.5, -2]],
        [[[1, 0], [0.5, -0.25]], [[0.5, 0.25], [-2, 0]]],
        [[[1, 0], 0.5], [0.5, [-2, -0.0]]],
        [[10**30, 2**53 + 1], [2**53 + 1, -0.0]],
    ], ids=["numbers", "pairs", "mixed", "large-integers"])
    def test_matrix_as_parsed_entry_by_entry(self, matrix):
        # A matrix of numbers or of pairs is parsed by numpy in one pass; one
        # mixing the two is walked. Either way every entry is
        # complex(float(re), float(im)), byte for byte.
        expected = np.array([[complex(*map(float, v)) if isinstance(v, list) else complex(float(v))
                              for v in row] for row in matrix])
        parsed = io._parse_matrix(matrix, "matrix")
        assert parsed.dtype == np.complex128
        assert parsed.tobytes() == expected.tobytes()

    def test_numeric_matrix_takes_no_entry_walk(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("an entry was parsed on its own")

        monkeypatch.setattr(io, "_parse_complex", no_walk)
        for rows in ([[1, 0], [0, 1]], [[[1, 0], [0, -1]], [[0, 1], [1, 0]]]):
            assert io._parse_matrix(rows, "matrix").shape == (2, 2)

    def test_vector_amplitude_refused(self, tmp_path):
        path = write(tmp_path / "vec.json", {"kind": "vector", "amplitudes": [1, [0, True]]})
        with pytest.raises(DocumentError, match=r": amplitudes\[1\]\[1\]:"):
            load_document(path)

    @pytest.mark.parametrize("axis, table, where", [
        (["0", "1"], ["0.25", "0.75"], "axes['A'][0]"),
        ([False, True], [0.25, 0.75], "axes['A'][0]"),
        ([[0], 1], [0.25, 0.75], "axes['A'][0]"),
        ([0, 1], [0.25, "0.75"], "contexts[0].table[1]"),
    ], ids=["strings", "bools", "list-value", "string-table-entry"])
    def test_marginal_problem_entry_exit_2(self, tmp_path, capsys, axis, table, where):
        path = write(tmp_path / "problem.json", {
            "kind": "marginal-problem", "axes": {"A": axis},
            "contexts": [{"axes": ["A"], "table": table}],
        })
        assert main(["feasible", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path}: {where}:")


class TestInputErrors:
    def test_missing_config_exit_2(self, docs, capsys):
        missing = str(docs["tmp"] / "does-not-exist.json")
        assert main(["--config", missing, "brackets", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does-not-exist.json" in err

    def test_config_not_an_object_exit_2(self, docs, capsys):
        cfg = write(docs["tmp"] / "cfg.json", [1, 2])
        assert main(["--config", cfg, "brackets", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "top level must be an object" in err

    def test_negative_seed_exit_2(self, docs, capsys):
        argv = ["chain", docs["chain"], "--state", docs["ket0"], "--runs", "5",
                "--seed", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: seed -1")


class TestChainSpecDocuments:
    @pytest.mark.parametrize("field, value", [
        ("convention", {"x": 1}), ("convention", 3),
        ("length", 2.9), ("length", True), ("length", "3"),
        ("seed", True), ("seed", 1.0), ("seed", None),
    ], ids=repr)
    def test_field_of_the_wrong_type_exit_2(self, docs, capsys, field, value):
        with open(docs["chain"]) as fh:
            doc = json.load(fh)
        path = write(docs["tmp"] / "spec.json", {**doc, field: value})
        argv = ["chain", path, "--state", docs["ket0"], "--runs", "5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path}: {field}:")
        with pytest.raises(DocumentError, match=field):
            load_document(path)


class TestPovmDocuments:
    def test_round_trip(self, tmp_path):
        doc = {"kind": "povm", "sample_points": [0, 1],
               "effects": [[[0.25, 0.0], [0.0, 0.5]], [[0.75, 0.0], [0.0, 0.5]]]}
        povm = load_document(write(tmp_path / "povm.json", doc), expect="povm")
        out = tmp_path / "povm2.json"
        out.write_text(dump_document(povm))
        again = load_document(str(out), expect="povm")
        assert np.array_equal(np.stack(again.effects), np.stack(povm.effects))

    def test_empty_povm_is_a_document_error(self, tmp_path):
        doc = {"kind": "povm", "sample_points": [], "effects": []}
        with pytest.raises(DocumentError, match="shape"):
            load_document(write(tmp_path / "empty.json", doc))

    def test_effects_of_mixed_sizes_are_a_document_error(self, tmp_path):
        doc = {"kind": "povm", "sample_points": [0, 1],
               "effects": [[[1.0]], [[1.0, 0.0], [0.0, 1.0]]]}
        with pytest.raises(DocumentError):
            load_document(write(tmp_path / "mixed.json", doc))
