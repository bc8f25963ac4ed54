"""Exact computation of the singular-theta two-torsion locus classes.

The locus of principally polarized abelian varieties whose theta divisor
has a singularity at an odd two-torsion point, as a cycle class on A_g and
on its perfect cone compactification, for genus up to five: F_2 symplectic
combinatorics, the boundary word algebra, the tautological rings, and the
assembled classes, all over exact rationals.
"""
from .boundary import (
    ConfigType,
    EMPTY,
    BoundaryPoly,
    DegreeOverflowError,
    InfeasibleBasisError,
    all_types,
    canonical_config,
    change_basis,
    check_identity,
    expand_named,
    expand_word,
    expand_zm_power,
    load_identities,
    n_odd,
    product,
    pushforward_level2,
)
from .characteristics import (
    BoundaryLabel,
    NonOrthogonalError,
    brute_force_count,
    count_vanishing,
    enumerate_labels,
    symplectic_form,
)
from .pipeline import (
    MixedClass,
    RouteMismatchError,
    class_compactified,
    class_open,
    compare_with_published,
    ij_taut,
    product_locus_taut,
    strata,
    taut_projection,
    theta_null_product_taut,
)
from .tautring import (
    TautRing,
    normalization,
    ring,
    taut_project_boundary,
)
from .zeta import bernoulli, zeta_negative_odd

__version__ = "0.1.0"
