"""roothk: exact verification toolkit for Weyl-group quotient constructions.

Builds root data and Weyl groups exactly, certifies that the invariant
two-form space on a doubled lattice span is one-dimensional, certifies
freeness in codimension two by counting the reflections among the enumerated
elements, lists the group-stable lattices between a root lattice and its
dual, and reports symplectic-resolution verdicts from the cited
classification.
"""

__version__ = "0.1.0"

from .errors import (
    DiscriminantTooLargeError,
    LatticeActionError,
    RootHKError,
)
from .exact_linalg import (
    IntMatrix,
    SmithForm,
    hermite_normal_form,
    smith_normal_form,
)
from .root_data import (
    RootDatum,
    RootSystemSpec,
    build_root_datum,
    simple_reflections,
    standard_table,
)
from .weyl import (
    DEFAULT_GROUP_CAP,
    WeylGroup,
    coset_halves,
    element_iter,
    generate_group,
    group_order_formula,
)
from .invariant_theory import (
    InvariantReport,
    Representation,
    invariant_dim,
    invariant_report,
    irreducibility_check,
    rep_reflection,
    rep_sym2,
    rep_wedge2,
)
from .lattice_tower import (
    DiscriminantGroup,
    IntermediateLattice,
    TowerReport,
    classify_up_to_rescaling,
    discriminant_group,
    induced_discriminant_action,
    invariant_intermediate_lattices,
)
from .hk_analysis import (
    FixedLocusEntry,
    FreenessCheck,
    HKVerdict,
    ResolutionVerdict,
    analyze,
    brute_force_fixed_point_count,
    fixed_locus_on_abelian,
    freeness_codim_check,
    known_model,
)

__all__ = [name for name in dir() if not name.startswith("_")]
