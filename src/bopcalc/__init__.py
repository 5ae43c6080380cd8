"""Homology and homotopy bookkeeping for the BoP Omega spectrum.

The package turns the additive structure of the spaces in the Omega
spectra for BoP and its relatives (BP, truncated BP, bu, bo) into exact
integer computations: truncated power series for graded dimensions,
generator tables for single-parity homology, a rank rule and a spectral
sequence walk for solving the tower, the stable splitting identities,
and an experimental lab for the conjectured cohomology of the truncated
analogues.  Everything is exact; there are no floats anywhere.
"""

from .algebra import (
    KINDS,
    GeneratorTable,
    ParityReport,
    extract_generators,
    parity_check,
    poincare_log_derivative,
    poincare_series,
    resolve_extensions,
    table_from_log_derivative,
    tensor,
    tor_suspend,
)
from .catalog import (
    BP,
    BPBAR,
    BO,
    BOP,
    BU,
    CATALOGUED_SPECTRA,
    F,
    X,
    HomotopyProfile,
    SpaceRef,
    SpectrumId,
    bo_space_homology,
    bpn,
    bu_space_homology,
    homotopy_profile,
    parse_spectrum,
)
from .conjecture import (
    EpsilonContext,
    SquareMonomial,
    bop_cohomology_series,
    conjectured_bopn_cohomology,
    epsilon,
    epsilon_context,
    first_appearance,
    milnor_quotient_series,
    milnor_sq2_quotient_series,
    square_degree_check,
    square_monomial,
    steenrod_series,
    verify_conjecture_shape,
    verify_epsilon_partition,
    verify_first_appearance,
    verify_square_decompositions,
    verify_stable_limit,
)
from .errors import (
    BopcalcError,
    ConjectureShapeError,
    InvalidKind,
    InvalidParameter,
    NegativeDimension,
    NotApplicable,
    NotInvertible,
    RankRuleInapplicable,
    TruncationError,
    UnresolvedExtension,
    ZeroDegreeFactor,
)
from .reports import VerificationReport, first_mismatch, run_check
from .series import (
    TruncatedSeries,
    from_log_derivative,
    geometric,
    log_derivative,
    make_polynomial,
    one,
    product_over,
)
from .splitting import (
    SplittingIndex,
    head_series,
    layer_series,
    splitting_indices,
    tail_series,
    verify_bop6_homotopy_splitting,
    verify_bpn_rank_recursion,
    verify_head_induction,
    verify_index_bijection,
    verify_irreducibility,
    verify_rational_splitting,
    verify_rhs_one,
)
from .towers import (
    TowerResult,
    bop_space,
    bop_tower,
    bss_iterate,
    rank_rule_homology,
    ses_quotient,
    verify_bo_deloopings,
    verify_bop_tower,
    verify_bu_bo_factorization,
    verify_negative_tower,
    verify_rank_rule_bss,
)

__version__ = "0.1.0"
