"""Exact combinatorial and linear-algebra models around the cyclic category.

The package provides, at a finite truncation and in exact arithmetic:

- the paracyclic and cyclic categories (objects, hom enumeration modulo the
  integer shift action, composition, duality),
- paracyclic preorders and their convex equivalence relations,
- the stratified corner spaces of gap cocycles with their fiber lines,
- constructible sheaves on those spaces as poset representations over a
  prime field or the rationals,
- the equivalence between such sheaf systems and representations of the
  surjection subcategory, together with the localization adjunction,
- the simplicial object of filtered 2-periodic chain complexes with its
  row-shift rotation.

All values are immutable and all operations are pure, so everything here
is safe to share between threads.
"""

from ._linalg import PrimeField, QQ, field_from_token
from .consheaf import (
    FinVect,
    StratSheaf,
    UpSet,
    constant_sheaf,
    enumerate_upsets,
    gluing_check,
    gluing_rows,
    pullback_sheaf,
    random_sheaf,
    sections,
    stalk,
    up_closure,
    validate_sheaf,
    whole_space,
)
from .corner import (
    CornerPoint,
    FiberPoint,
    alpha_eval,
    distance,
    fiber_invariants,
    fixed_point,
    pullback_point,
    section_point,
    stratum_of,
    validate_point,
    witness_point,
)
from .equivalence import (
    ParaRep,
    SheafSystem,
    build_conv_tilde,
    check_localization_adjunction,
    random_rep,
    realize_sheaf,
    realize_system,
    recover_rep,
    validate_rep,
    validate_system,
)
from .errors import PackageError
from .extreal import ExtReal, NEG_INF, POS_INF, ext_add, ext_sub, ext_sum
from .paracat import (
    CycMap,
    ParaMap,
    ParaPreorder,
    Parasimplex,
    classify,
    compose,
    composition_table,
    cyc_canonicalize,
    dualize_map,
    embed_simplex,
    enumerate_hom,
    shift_action,
)
from .preord import (
    ConvexRelation,
    enumerate_conv,
    is_valid_morphism,
    pullback_relation,
    quotient_by_relation,
)
from .sdot import (
    ComplexMap,
    FilteredObject,
    TwoPeriodicComplex,
    cone,
    degeneracy,
    face,
    fingerprint,
    homology_dims,
    is_quasi_iso,
    rotate,
    rotation_periodicity_check,
    shift,
)
from .selftest import run_all

__version__ = "0.1.0"
