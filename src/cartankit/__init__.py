"""cartankit: finite-scale toolkit for regular inclusions of C*-algebras.

Build reduced C*-algebras of finite twisted groupoids, analyze
finite-dimensional inclusions, extract Weyl twists from Cartan pairs,
and construct Cartan envelopes via the eigenfunctional-twist pipeline.
"""

__version__ = "0.1.0"

from .envelope import (
    CompatibleCover,
    Eigenfunctional,
    EnvelopeCertificate,
    build_cover,
    cartan_envelope,
    cover_comparison,
    eig_inverse,
    eig_product,
    eigen_twist,
    eigenfunctional,
    envelope_uniqueness_crosscheck,
    theta_F,
)
from .errors import CartanKitError
from .groupoid import (
    FiniteGroupoid,
    build_groupoid,
    disjoint_union,
    find_isomorphism,
    has_factorization_property,
    is_bisection,
    isotropy,
    klein_four_groupoid,
    pair_groupoid,
    validate,
)
from .inclusion import (
    Inclusion,
    ModState,
    PseudoExpectation,
    beta,
    fixed_point_ideal,
    fixed_set_check,
    is_compatible_state,
    is_normalizer,
    left_kernel,
    make_inclusion,
    mod_states,
    pseudo_expectations,
    radical_ideal,
    strongly_compatible,
    theta,
)
from .matalg import (
    FdStarAlgebra,
    IdealSubspace,
    block_structure,
    generate_star_algebra,
    ideal_generated_by,
    minimal_projections,
    operator_norm,
    relative_commutant,
)
from .reduced import (
    ReducedAlgebra,
    groupoid_inclusion,
    is_cartan_pair,
    realize,
    reduced_norm,
    regular_representation,
)
from .twist import (
    CocycleTwist,
    EquivariantFunction,
    conjugate_twist,
    convolve,
    delta,
    involution,
    restrict_twist,
    transpose,
    trivial_twist,
    validate_cocycle,
    validate_twist,
)
from .weyl import germ_equal, germ_expectation_criterion, weyl_twist
