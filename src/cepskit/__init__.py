"""Exact-arithmetic verification toolkit for finite conditional expectation
preserving systems: first-return decompositions, Kac certificates,
Kakutani-Rokhlin towers, and periodic approximations of the Koopman
homomorphism, every identity checked with exact rationals."""

from .approx import (
    PeriodicApproximation,
    approximate_periodic,
    build_s_prime,
    distance_profile,
    s_prime_apply,
    surjectivity_preimage,
)
from .errors import (
    CepsError,
    DimensionError,
    DomainError,
    InvalidSystem,
    MalformedInput,
    NotAperiodicAtHorizon,
    NotConditionallyErgodic,
    TheoremViolation,
)
from .generators import (
    RandomSpec,
    direct_product,
    random_system,
    single_cycle,
    swap_example,
    truncated_counterexample,
    with_single_block,
)
from .lattice import (
    Component,
    LatticeElement,
    band_project,
    elem,
    indicator,
    is_component,
    join,
    meet,
    ones,
    pos_part,
    support_component,
    zeros,
)
from .rationals import as_rational, format_rational
from .recurrence import (
    ReturnDecomposition,
    check_recurrent,
    disjointness_witnesses,
    first_return_time,
    kac_certificate,
    return_decomposition,
)
from .system import (
    GroundSystem,
    ValidationReport,
    from_raw,
    load,
    save,
    validate_ceps,
)
from .tower import (
    BoundCertificate,
    Tower,
    build_tower,
    build_tower_eps,
    build_tower_eps_ls,
    find_base_component,
    n_aperiodic,
    proof_chain_identity,
)

__version__ = "0.1.0"
