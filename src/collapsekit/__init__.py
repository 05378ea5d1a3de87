"""collapsekit: joint probability construction for sequential measurements.

A finite-dimensional operator toolkit built around the collapse product of
probability-density generating operators: sequential-measurement joints,
arbitrary bracketings, equivalent no-collapse commutative (QND) models,
system-ancilla instrument realizations, commeasurability checks, and
reproducible chain sampling.
"""

from .chain import (
    ChainSpec,
    compare_conventions,
    empirical_distribution,
    exact_chain_distribution,
    sample_chain_leftfold,
    sample_chain_tree,
    write_records,
)
from .collapse_product import (
    BracketTree,
    JointDistribution,
    JointEffectTable,
    Leaf,
    Node,
    catalan,
    collapse_effect_pair,
    collapse_effect_tree,
    enumerate_bracketings,
    joint_distribution,
    left_fold_tree,
    q_relative_collapse,
    reverse_collapse_pair,
    reverse_fold_tree,
    right_fold_tree,
    sequential_product,
    total_variation,
)
from .config import DEFAULT, Tolerances
from .equivalence import (
    CommutativeModel,
    build_commutative_model,
    qnd_check,
    verify_equivalence,
)
from .incompatibility import (
    MarginalProblem,
    admits_global_joint,
    chsh_marginal_problem,
    chsh_max_over_signs,
    chsh_value,
    noncommutative_unifying_state,
)
from .instruments import (
    InstrumentModel,
    build_instrument,
    build_joint_instrument,
    interference_comparison,
    interference_from_joint,
    joint_instrument_probabilities,
    luders_duality_check,
    sequential_probabilities,
)
from .measurement import (
    POVM,
    PVM,
    AlgebraicState,
    Observable,
    VectorState,
    characteristic_function,
    discretize_observable,
    luders_collapse,
    moments,
    observable,
    povm_from_mixture,
    probability_density,
    pvm_from_observable,
)
from .operator_core import (
    SpectralDecomposition,
    batched_psd_sqrt,
    commutator_norm,
    is_psd,
    psd_sqrt,
    spectral_decompose,
)

__version__ = "0.1.0"
