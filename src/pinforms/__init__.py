"""Quadratic-form calculus for spin and pin structures on closed surfaces.

Mod-2 homology classes of a standard closed surface carry the intersection
pairing; spin structures appear as mod-2 quadratic refinements classified
by the Arf invariant, and pin- structures as mod-4 quadratic enhancements
classified by the Brown invariant in Z/8.  The package enumerates
structures, computes invariants by independent routes, partitions
structures into isometry orbits, and tabulates censuses against
closed-form counts and a genus recursion.
"""

from .census import (
    BordismClass,
    ClosedFormEntry,
    FLAG_CONFIRMED,
    FLAG_CONJECTURE_FAILED,
    FLAG_CONJECTURED_CONFIRMED,
    FLAG_DISPUTED,
    THEORIES,
    Theory,
    bordism_class,
    cobordant,
    pin_census_closed_form,
    pin_census_enumerated,
    pin_census_recursive,
    reference_census,
)
from .enhancements import (
    Enhancement,
    ValueHistogram,
    brown_compass,
    brown_from_histograms,
    brown_gauss,
    brown_gauss_many,
    brown_normal_form,
    brown_spectrum,
    cap_off_summand,
    direct_sum_enhancement,
    enhancement_from_refinement,
    enumerate_enhancements,
    value_histogram,
    value_histograms,
)
from .orbits import (
    Isometry,
    act,
    banding_isometry,
    isometry_generators,
    isometry_group,
    mulclose,
    orbit_partition,
    transvection,
)
from .pinplus import (
    Mod4Homology,
    PinPlusForm,
    WellDefined,
    enumerate_pinplus,
    is_well_defined,
    mod4_homology,
)
from .refinements import (
    Census,
    Refinement,
    arf_majority,
    arf_normal_form,
    arf_spectrum,
    arf_symplectic,
    enumerate_refinements,
    spin_census,
)
from .surfaces import (
    H1Class,
    IntersectionForm,
    InvariantViolation,
    LimitError,
    MAX_NORMAL_FORM_DIM,
    MAX_TABLE_DIM,
    QuadraticStructure,
    Surface,
    direct_sum,
    enumerate_classes,
    hyperbolic_form,
    identity_form,
    intersection,
    nonorientable_surface,
    orientable_surface,
    walsh_hadamard,
)

__version__ = "0.1.0"
