"""Exact symbolic superalgebra.

Grassmann algebras and super polynomial rings with exact coefficient
arithmetic, free supermodules and graded morphisms, idempotent projectors
(sphere tangent bundles, the mod-6 example, rank-one supersphere
projectors), truncated-jet superanalysis, and named verification suites.
"""

from .errors import (
    CapacityError,
    DomainError,
    ParityError,
    ParseError,
    RingMismatchError,
    ShapeError,
    SuperAlgError,
)
from .multiindex import merge_bits
from .scalars import (
    GaussianRational,
    GaussianRationalRing,
    IntegerModRing,
    PolyQuotientRing,
    RadicalGaussianRing,
    RationalRing,
    Relation,
)
from .superring import Involution, SuperElement, SuperRing, grassmann_ring
from .expressions import parse_element
from .supermodule import (
    FreeType,
    ModElement,
    SuperMorphism,
    end_projector,
    extend_basis_map,
    left_evaluate,
    lift_through_split_surjection,
    section_splitting,
    split_idempotent,
    tensor_basis,
    tensor_elements,
    tensor_morphisms,
)
from .spheres import make_sphere_projector, stably_free_certificate, z6_example, z6_ring
from .superanalysis import (
    Jet,
    SuperPoint,
    SuperSmoothFn,
    body_point,
    circle_tangent,
    continue_analytically,
    eval_g_infinity,
    sqrt_even,
    super_cos,
    super_sin,
    supercircle_chart,
    trig_super_ring,
)
from .landi import inner, make_bra, make_uosp_ring, pi_apply, projector_p
from .reports import SuiteReport
from .suites import SUITES, run_suite

__version__ = "0.1.0"
