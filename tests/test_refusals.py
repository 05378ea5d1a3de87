"""Refused inputs: one case per input check of the package that the other
tests do not reach.  Each case names the message its check raises, so the
case fails if the check is deleted, even where the input would fail later
with another error."""

import json
import re
from unittest import mock

import numpy as np
import pytest

from collapsekit import (
    AlgebraicState,
    ChainSpec,
    InstrumentModel,
    build_instrument,
    build_joint_instrument,
    chsh_value,
    collapse_effect_tree,
    compare_conventions,
    discretize_observable,
    joint_distribution,
    left_fold_tree,
    luders_collapse,
    luders_duality_check,
    moments,
    noncommutative_unifying_state,
    povm_from_mixture,
    probability_density,
    pvm_from_observable,
    qnd_check,
    reverse_fold_tree,
    right_fold_tree,
    sequential_product,
    total_variation,
)
from collapsekit import incompatibility
from collapsekit.collapse_product import JointDistribution
from collapsekit.incompatibility import MarginalProblem
from collapsekit.io import DocumentError, dump_document, load_document
from collapsekit.measurement import POVM, PVM, VectorState, observable
from collapsekit.operator_core import (
    DimensionMismatchError,
    SpectralDecomposition,
    as_matrix,
    require_projectors,
)

from conftest import PAULI_X, PAULI_Z, direction_observable

Z = observable("Z", PAULI_Z)
X = observable("X", PAULI_X)
Z3 = observable("Z3", np.diag([0.0, 1.0, 2.0]))
MIXED = AlgebraicState.maximally_mixed(2)
MIXED3 = AlgebraicState.maximally_mixed(3)
PAIR = JointDistribution([np.array([0, 1]), np.array([0, 1])], np.full((2, 2), 0.25))


CASES = {
    # collapse_product
    "left_fold_of_no_leaves": (ValueError, "n must be >= 1",
                               lambda: left_fold_tree(0)),
    "right_fold_of_no_leaves": (ValueError, "n must be >= 1",
                                lambda: right_fold_tree(0)),
    "reverse_fold_of_no_leaves": (ValueError, "n must be >= 1",
                                  lambda: reverse_fold_tree(0)),
    "sequential_product_of_two_sizes": (
        DimensionMismatchError, "operand dimension mismatch",
        lambda: sequential_product(np.eye(2), np.eye(3))),
    "joint_distribution_on_another_size": (
        DimensionMismatchError, "effects/state dimension mismatch",
        lambda: joint_distribution(collapse_effect_tree([Z, X], left_fold_tree(2)), MIXED3)),
    "total_variation_of_two_shapes": (
        ValueError, "shape mismatch",
        lambda: total_variation(PAIR, JointDistribution([np.array([0, 1])],
                                                        np.array([0.5, 0.5])))),
    # equivalence
    "qnd_check_of_two_sizes": (
        DimensionMismatchError, "observables act on different dimensions",
        lambda: qnd_check([Z, Z3])),
    # incompatibility
    "context_of_undeclared_lengths": (
        ValueError, "contexts[0]: axes of lengths (3, 2) for ('a', 'b'), declared with (2, 2)",
        lambda: MarginalProblem({"a": [0, 1], "b": [0, 1]}, [(("a", "b"), JointDistribution(
            [np.array([0, 1, 2]), np.array([0, 1])], np.full((3, 2), 1 / 6)))])),
    "chsh_state_of_another_size": (
        ValueError, "state dimension is not the product of the factor dims",
        lambda: chsh_value(MIXED3, Z, X, Z, X)),
    "unifying_state_of_another_shape": (
        ValueError, "context table shape does not match the observables",
        lambda: noncommutative_unifying_state(
            JointDistribution([np.array([0, 1]), np.array([0, 1, 2])], np.full((2, 3), 1 / 6)),
            PAIR, Z, Z, Z)),
    # instruments
    "instruments_on_two_systems": (
        DimensionMismatchError, "instruments act on different systems",
        lambda: InstrumentModel(build_instrument(Z, 3), build_instrument(Z3, 4))),
    "luders_duality_of_two_sizes": (
        DimensionMismatchError, "dimension mismatch",
        lambda: luders_duality_check(Z, Z3, VectorState(np.array([1.0, 0.0])))),
    "joint_instrument_of_small_ancillas": (
        ValueError, "ancilla too small for the outcome counts",
        lambda: build_joint_instrument(PAIR, (3, 2))),
    # measurement
    "expectation_of_another_size": (
        DimensionMismatchError, "operator/state dimension mismatch",
        lambda: MIXED.expect(np.eye(3))),
    "pvm_of_fewer_points": (
        ValueError, "sample point / projector count mismatch",
        lambda: PVM([0], Z.projectors)),
    "povm_of_fewer_points": (
        ValueError, "sample point / effect count mismatch",
        lambda: POVM([0], Z.projectors)),
    "probabilities_on_another_size": (
        DimensionMismatchError, "observable/state dimension mismatch",
        lambda: probability_density(Z3, MIXED)),
    "negative_moment_order": (ValueError, "n_max must be >= 0",
                              lambda: moments(Z, MIXED, -1)),
    "collapse_on_another_size": (
        DimensionMismatchError, "observable/state dimension mismatch",
        lambda: luders_collapse(MIXED3, Z, 0)),
    "partition_of_no_eigenvalue": (
        ValueError, "partition value 5.0 does not match one eigenvalue",
        lambda: pvm_from_observable(Z, [[5.0], [1.0, -1.0]])),
    "thresholds_out_of_order": (
        ValueError, "thresholds must be strictly increasing",
        lambda: discretize_observable(Z3, [1.5, 0.5])),
    "mixture_of_fewer_points": (
        ValueError, "sample point count does not match the kappa table",
        lambda: povm_from_mixture([[1.0, 0.0], [0.0, 1.0]], Z.projectors, ["up"])),
    # operator_core
    "matrix_not_square": (ValueError, "expected a square matrix, got shape (2, 3)",
                          lambda: as_matrix(np.zeros((2, 3)))),
    "matrix_of_no_rows": (ValueError, "matrix dimension must be >= 1",
                          lambda: as_matrix(np.zeros((0, 0)))),
    "matrix_not_finite": (ValueError, "matrix has non-finite entries",
                          lambda: as_matrix([[np.inf, 0.0], [0.0, 1.0]])),
    "projectors_not_idempotent": (
        ValueError, "projectors 0,0 not orthogonal/idempotent (residual 2.500e-01)",
        lambda: require_projectors([np.diag([0.5, 0.0]), np.diag([0.5, 1.0])])),
    "decomposition_of_fewer_eigenvalues": (
        ValueError, "eigenvalue/projector count mismatch",
        lambda: SpectralDecomposition([1.0], Z.projectors)),
    "decomposition_of_nothing": (
        ValueError, "empty decomposition",
        lambda: SpectralDecomposition([], np.zeros((0, 2, 2)))),
    "eigenvalues_out_of_order": (
        ValueError, "eigenvalues must be strictly increasing",
        lambda: SpectralDecomposition([1.0, -1.0], Z.projectors)),
    # chain
    "conventions_of_two_sequences": (
        ValueError, "conventions must share the observable sequence",
        lambda: compare_conventions([ChainSpec([Z, X], 2), ChainSpec([X, Z], 2, "right_fold")],
                                    MIXED, 10)),
}


@pytest.mark.parametrize("case", CASES)
def test_(case):
    exc, message, call = CASES[case]
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


def test_chsh_past_the_quantum_bound_():
    # No state of the package's checks reaches the bound; correlators of a
    # Popescu-Rohrlich box give 4.
    box = np.array([[1.0, 1.0], [1.0, -1.0]])
    a1, a2, b1, b2 = (direction_observable(f"D{k}", 0.3 * k) for k in range(4))
    singlet = AlgebraicState.pure(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2))
    with mock.patch.object(incompatibility, "_correlators", return_value=box):
        with pytest.raises(ValueError, match=r"^CHSH value 4\.0 exceeds the quantum bound$"):
            chsh_value(singlet, a1, a2, b1, b2)


DOCUMENTS = {
    "matrix_of_no_rows": ({"kind": "observable", "matrix": []},
                          "matrix: expected a non-empty list of rows"),
    "unknown_kind": ({"kind": "tensor"}, "unknown kind 'tensor'; expected one of"),
    "amplitudes_not_a_list": ({"kind": "vector", "amplitudes": 1.0},
                              "amplitudes: expected a list"),
    "povm_without_effects": ({"kind": "povm", "sample_points": [0]},
                             "povm needs sample_points and effects lists"),
    "chain_of_no_observables": ({"kind": "chain-spec", "observables": []},
                                "chain-spec needs a non-empty observables list"),
    "problem_without_axes": ({"kind": "marginal-problem", "contexts": []},
                             "marginal-problem needs axes dict and contexts list"),
    "top_level_not_an_object": ([{"kind": "state"}], "top level must be an object"),
}


@pytest.mark.parametrize("case", DOCUMENTS)
def test_document_(tmp_path, case):
    doc, message = DOCUMENTS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DocumentError, match=f"^{re.escape(f'{path}: {message}')}"):
        load_document(str(path))


def test_dump_refuses_an_unknown_object():
    with pytest.raises(TypeError, match="^cannot serialize dict$"):
        dump_document({"kind": "state"})
