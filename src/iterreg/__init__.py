"""Iterative regularization of convex-bias interpolation by primal-dual steps."""

from .bias import Bias, BlockBias, L1, Nuclear, SqL2, Zero, soft_threshold, subgradient_residual
from .errors import (
    AssumptionViolated,
    BoundViolation,
    CertificateInvalid,
    CertificationFailure,
    ContractViolation,
    IterRegError,
    NumericalFailure,
    RuleInapplicable,
)
from .linop import (
    DenseOperator,
    Grad2D,
    LinearOperator,
    MaskOperator,
    StackedOperator,
    identity,
    op_norm,
)
from .metrics import (
    BoundInputs,
    NormBoundData,
    gap,
    gap_equals_bregman_check,
    norm_bound,
    norm_bound_data,
    stability_feas_bound,
    stability_gap_bound,
    weighted_v,
)
from .pdsolver import (
    IterateLog,
    PdState,
    SaddleCertificate,
    SolverConfig,
    certify,
    initial_state,
    iterate,
    make_config,
    run,
    step,
)
from .problems import (
    NoisyProblem,
    add_noise,
    gen_matcomp,
    gen_sparse,
    load_problem,
    save_problem,
    tv_reformulate,
)
from .baseline import PathResult, TikhonovSolution, lambda_grid, lasso_path, solve_tikhonov
from .stopping import budget_stop, discrepancy_stop, oracle_stop

__version__ = "0.1.0"
