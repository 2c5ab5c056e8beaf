"""Twisted finite-group superalgebras: supermodule classification by Z8-valued
super Frobenius-Schur indicators, and partition-function crosschecks for
finite gauge theories on oriented, unoriented, spin, and pin- surfaces."""

from .catalog import CATALOG_NAMES, catalog_group, cyclic
from .errors import (
    BudgetExceededError,
    DecompositionError,
    SnapError,
    ValidationError,
)
from .gauge import (
    FAMILIES,
    PartitionReport,
    TheoryData,
    crosscheck,
    enumerate_homs,
    partition_lhs,
    partition_rhs,
    report_to_dict,
)
from .groups import (
    EvenSubgroup,
    Group,
    build_group,
    even_subgroup,
    group_from_permutations,
    group_from_table,
    load_group,
    product_group,
)
from .superalg import (
    ClassificationReport,
    Supermodule,
    TwistedGroupAlgebra,
    assemble_supermodules,
    classification_to_dict,
    classify,
    classify_gradings,
    decompose_regular,
    eighth_root,
    ordinary_fs,
    snapped_string,
    special_element,
)
from .surfaces import (
    BLOCK_TABLES,
    Presentation,
    QuadraticRefinement,
    Surface,
    abk,
    arf,
    enumerate_structures,
    nonorientable,
    orientable,
    parse_surface,
    presentation,
)
from .twists import (
    Twist,
    clifford_ladder,
    clifford_twist,
    combine_twists,
    coboundary,
    h2_basis,
    h2_representatives,
    trivial_group,
    validate_twist,
    z2_homomorphisms,
)

__version__ = "0.1.0"
