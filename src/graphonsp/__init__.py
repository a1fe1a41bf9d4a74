"""Signal processing on sparse graph sequences via generalized graphons.

Sparse graph sequences converge to the zero graphon under the classical cut
distance, which trivializes the limit theory.  This library works with
generalized graphons on the quarter plane together with the *stretched* cut
distance: every graphon is rescaled to unit 1-norm before comparison, so
sparse sequences acquire nonzero limits, eigenvalues scale as
``lambda / sqrt(2 |E|)``, and polynomial filters transfer across graph
sizes.  The modules cover the value types and norms (:mod:`.core`), cut
norms and distances (:mod:`.cutmetric`), graph/signal samplers
(:mod:`.sampling`), integral operators and spectral filters
(:mod:`.operators`), eigenvalue-scaling diagnostics (:mod:`.spectral`),
filter-coefficient regression (:mod:`.filterfit`), and a CLI (:mod:`.cli`).
"""

import logging

from .core import (
    CelebrityLimit,
    ConstantBox,
    Graph,
    RankOneExp,
    SignedStepGraphon,
    StepGraphon,
    StepSignal,
    StretchTag,
    as_step,
    canonical_graphon,
    l1_distance,
    l1_restricted,
    normalized_graphon,
    read_edge_list,
    restrict,
    step_difference,
    stretch,
    stretch_signal,
    unstretch_step,
    write_edge_list,
)
from .cutmetric import (
    AlignmentResult,
    CutResult,
    cut_distance_steps,
    cut_norm,
    stretched_cut_distance,
)
from .errors import GraphonError
from .filterfit import (
    CoefficientTrajectory,
    ConvergenceRatios,
    DiffusionSpec,
    coefficient_trajectory,
    convergence_ratios,
    fit_filter,
    signed_sqrt,
    synthesize_diffusion,
)
from .operators import (
    GraphonOperator,
    PolynomialFilter,
    SpectralFilter,
    apply,
    apply_polynomial,
    apply_spectral,
    chebyshev_polynomial_apply,
    operator_norm_bound,
)
from .sampling import (
    GrowthSchedule,
    GrowthStep,
    SamplePoints,
    SampledGraph,
    core_periphery_graph,
    dense_core_graph,
    extract_sparse_subsequence,
    grow_subgraphs,
    pair_density,
    sample_double_sequence,
    sample_graph,
    sample_signal,
)
from .spectral import (
    EigenReport,
    FitReport,
    TrajectoryPoint,
    eigensolve,
    fit_models,
    moving_scaled_averages,
    scaled_spectrum,
    trajectory,
)

__version__ = "0.1.0"

# a library logs to "graphonsp" and leaves handlers to the application
logging.getLogger(__name__).addHandler(logging.NullHandler())
