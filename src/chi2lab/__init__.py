"""chi2lab: quantum chi-squared divergences on positive operators.

Computation of the order-alpha chi-squared divergence (including its
extension to singular second arguments), comparison divergences,
reconstruction of hidden operators from divergence queries, and a
decompiler recovering the (anti)unitary behind any divergence-preserving
map.
"""

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    Chi2LabError,
    DimensionMismatch,
    IllConditionedProbe,
    InconsistentOracle,
    InconsistentSymmetry,
    MatrixFormatError,
    NotASymmetry,
    NotDensity,
    NotHermitian,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
    ReconstructionError,
    SingularOperator,
    SolverFailure,
)
from .linalg import SpectralDecomposition, hs_norm, jacobi_eigh, op_norm
from .operators import (
    ComplexMatrix,
    DensityOperator,
    HermitianMatrix,
    NonsingularDensity,
    PdOperator,
    PsdOperator,
    RankOneProjection,
    eigh,
    frac_power,
    norms,
    projection_family,
    support_contained,
    support_projection,
)
from .ensembles import (
    haar_unitary,
    random_density,
    random_ensemble,
    random_hermitian,
    random_nonsingular_density,
    random_pd,
    random_projection,
    random_psd,
)
from .matio import load_matrix, matrix_from_obj, matrix_to_obj, save_matrix
from .divergence import (
    Alpha,
    DivergenceValue,
    chi2,
    chi2_extended,
    chi2_limit_probe,
    chi2_shifted,
    quadratic_relative_entropy,
)
from .comparisons import (
    SQUARE,
    SQUARED_RATIO_LOSS,
    XLOGX,
    ScalarFunction,
    bregman_divergence,
    f_divergence,
    jensen_divergence,
)
# exports nothing: chi2bench/tracer.py patches this module by name, so the
# package imports it until the optimizer and its tracer rows are deleted
from . import optimize  # noqa: F401
from .oracle import DivergenceOracle, chi2_oracle, rank_one_query_oracle
from .tomography import ProbeSchedule, probe_state, quadratic_form_tomography
from .peeling import spectral_peel
from .wigner import (
    ConjugationMap,
    ProjectionMap,
    check_orthogonality_preservation,
    check_transition_probabilities,
    conjugation_projection_map,
    wigner_synthesize,
)
from .decompile import DecompileReport, preserver_decompile
from .properties import (
    PROPERTY_NAMES,
    PropertyReport,
    render_text,
    reports_to_obj,
    run_property_suite,
)
from .demos import (
    SECOND_VARIABLE_NOTE,
    demo_first_variable_discontinuity,
    demo_second_variable_discontinuity,
)
from .distinguishers import (
    distinguish_from_bregman,
    distinguish_from_f_divergence,
    distinguish_from_jensen,
)

__version__ = "0.1.0"
