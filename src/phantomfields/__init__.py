"""Stationary random fields on Z^d and phantom distribution diagnostics."""

__version__ = "0.1.0"

from .covariance import (
    CharacteristicPolygon,
    DEFAULT_GAMMAS,
    GammaPair,
    InfeasibleParameterError,
    SeparableCovariance,
    build_eta1,
    build_eta2,
    covariance_at,
    delta_sup,
    example_covariance,
    validate_gammas,
    validate_polya,
)
from .diagnostics import (
    berman_bound,
    beta_k_estimate,
    bound_vs_empirical,
    bound_vs_maxima,
    enumeration_beta,
    enumeration_block_cdf,
    exhaustive_splits,
    quarter_grid_splits,
)
from .lattice import (
    MonotoneCurve,
    curve_diagonal,
    curve_from_table,
    curve_psi_example,
)
from .phantom import (
    EmpiricalLaw,
    ExactLaw,
    InconsistentIndexError,
    LevelSequence,
    PhantomCandidate,
    StepPhantom,
    construct_G_psi,
    empirical_max_law,
    equicorrelated_max_cdf,
    estimate_extremal_index,
    estimate_level_sequence,
    exact_level_sequence,
    exact_max_law,
    extremal_index,
    gumbel_H0,
    levels_u,
    limit_H,
    normal_candidate,
    normalizers,
    phantom_distance,
    uniform_candidate,
)
from .sampling import (
    FactorizationError,
    GaussianSeparableField,
    IIDField,
    MovingMaxField,
    TwoAtomInnovations,
    equicorrelated_maxes,
    replication_rng,
    sub_seed,
)
