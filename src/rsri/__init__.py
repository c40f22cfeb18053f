"""Randomly sparsified Richardson iteration for sparse linear systems.

A solver toolkit built around one idea: compress each fixed-point iterate
to at most m entries with an unbiased, negatively correlated sparsifier,
so every iteration touches only m matrix columns, then average iterates
past a burn-in.  Includes the pivotal sampler and sparsifier, a
column-oracle matrix layer with Matrix Market I/O, personalized PageRank
problem builders, Monte Carlo and push-style baselines, and an experiment
harness with CSV/SVG reports.
"""

from .baselines import ResidualTrace, WalkCapError, mc_surfer, push_cd
from .harness import (
    RmseEstimate,
    SweepRow,
    estimate_rmse,
    matched_walk_count,
    run_sweep,
    sweep_csv_text,
    tail_report,
)
from .operators import (
    ColumnMatrix,
    ContractionDiagnostics,
    CscMatrix,
    DenseColumnMatrix,
    FunctionColumnMatrix,
    MatrixMarketError,
    apply,
    densify,
    diagnostics,
    identity,
    load_matrix_market,
    matrix_norm1_of_g,
    save_matrix_market,
)
from .pagerank import (
    DEFAULT_ALPHA,
    EdgeList,
    PageRankProblem,
    assemble,
    build_problem,
    load_edge_list,
    synth_bounded_outdegree,
)
from .sampling import (
    ProbabilityVector,
    RandomStream,
    pivotal_sample,
    pivotal_sample_batch,
    spawn_stream,
)
from .solvers import (
    LinearProblem,
    NonConvergenceError,
    RsriConfig,
    SolveReport,
    expected_average,
    reference_solve,
    richardson,
    rsri,
    rsri_functionals,
)
from .sparsify import PreservationSplit, preservation_split, sparsify, sparsify_l2_bound
from .vectors import SparseVector, VectorNorms, dot, norms, tail_sums

__version__ = "0.1.0"
