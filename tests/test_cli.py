import json

import numpy as np
import pytest

from collapsekit import chain as chain_mod
from collapsekit import cli, instruments
from collapsekit.cli import build_parser, main
from collapsekit.collapse_product import (
    FOLD_TREES,
    collapse_effect_tree,
    joint_distribution,
)
from collapsekit.io import DocumentError, dump_document, load_document
from collapsekit.measurement import AlgebraicState, observable

from conftest import PAULI_Z, degenerate_observable, random_unitary


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

    def test_env_seed(self, docs, capsys, monkeypatch):
        base = ["chain", docs["chain"], "--state", docs["ket0"],
                "--runs", "50", "--mechanism", "step", "--emit-records"]
        monkeypatch.setenv("COLLAPSEKIT_SEED", "99")
        assert main(base) == 0
        env_out = capsys.readouterr().out
        monkeypatch.delenv("COLLAPSEKIT_SEED")
        assert main(base + ["--seed", "99"]) == 0
        flag_out = capsys.readouterr().out
        assert env_out == flag_out

    def test_seed_flag_does_not_carry_to_the_next_call(self, docs, capsys,
                                                        monkeypatch):
        # One parser serves every call of main in a process: a --seed given
        # to one call must not become the default of the next.
        monkeypatch.delenv("COLLAPSEKIT_SEED", raising=False)
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
        assert second == "".join(r.line() + "\n" for r in chain_mod.records(outcomes))
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
        expected = "".join(r.line() + "\n" for r in chain_mod.records(
            chain_mod.sample_chain_tree(spec, state, 300)))
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

    def test_axis_not_a_list_exit_2(self, tmp_path, capsys):
        path = write(tmp_path / "problem.json", {
            "kind": "marginal-problem", "axes": {"A": 3},
            "contexts": [{"axes": ["A"], "table": [1.0]}],
        })
        assert main(["feasible", path]) == 2
        assert "axes['A']" in capsys.readouterr().err
        with pytest.raises(DocumentError, match="expected a list"):
            load_document(path)


class TestInputErrors:
    def test_env_seed_not_an_integer_exit_2(self, docs, capsys, monkeypatch):
        monkeypatch.setenv("COLLAPSEKIT_SEED", "abc")
        argv = ["chain", docs["chain"], "--state", docs["ket0"], "--runs", "5"]
        assert main(argv) == 2
        assert "abc" in capsys.readouterr().err

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

    def test_negative_seed_exit_2(self, docs, capsys, monkeypatch):
        monkeypatch.delenv("COLLAPSEKIT_SEED", raising=False)
        argv = ["chain", docs["chain"], "--state", docs["ket0"], "--runs", "5",
                "--seed", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: seed -1")


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
