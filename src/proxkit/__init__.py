"""proxkit: proximal point methods for weakly convex optimization.

Implements the proximal point iteration on the Moreau envelope, the
proximally guided stochastic subgradient method, the prox-linear method
for composite problems, and Catalyst acceleration for smooth, strongly
convex finite sums, together with a synthetic problem zoo and a
benchmark harness.
"""

__version__ = "0.1.0"

from .bench import (
    ExperimentConfig,
    emit_summary,
    list_problems,
    list_solvers,
    load_config,
    parse_config_text,
    run_experiment,
)
from .catalyst import (
    FiniteSumProblem,
    InnerMethod,
    LogisticLoss,
    SquaredLoss,
    Subproblem,
    catalyst_run,
    choose_kappa,
    gd_run,
    inner_method,
    momentum_update,
    svrg_run,
)
from .core import finite_difference_gradient, operator_norm
from .errors import (
    BudgetExceeded,
    ConfigError,
    EmptyInput,
    InvalidModulus,
    NonconvexSubproblem,
    OracleFailure,
    ProbeFailure,
    ProxkitError,
)
from .moreau import MoreauPoint, prox_map, proximal_point_run
from .oracles import (
    BoxIndicator,
    CompositeProblem,
    L1Mean,
    L1Norm,
    L2Norm,
    SmoothMap,
    SmoothPlusProx,
    Zero,
)
from .pgsg import PgsgSchedule, StochasticProblem, default_schedule, pgsg_run
from .problems import (
    GENERATORS,
    SyntheticInstance,
    make_box_nls,
    make_erm_logistic,
    make_lasso,
    make_phase_retrieval,
    make_ridge,
    make_robust_pca,
    make_z2_sync,
)
from .proxlinear import (
    RateEstimate,
    SurrogateGradient,
    estimate_local_rate,
    proxlinear_run,
    proxlinear_step,
)
from .report import SolverReport
from .rng import RandomStream
