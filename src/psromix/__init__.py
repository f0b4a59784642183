"""Iterative empirical-game solving with single-policy best responses.

The package builds empirical games, whose cells come from simulation or,
with ``run.analytic_cells``, from exact values; solves them with
meta-strategy solvers; and grows strategy sets with best-response oracles.
Besides the plain epoch loop it implements two variants that only ever train
against a single opponent policy: one transfers stored responses across
epochs by value-mixing them, the other collapses the opponent mixture into a
single value-mixed policy before training.
"""

from . import envs, exact
from .engine import (
    RunConfig,
    RunRecord,
    checkpoint,
    expand_enfg,
    export_regret_curve,
    resume,
    run_algorithm,
)
from .envs import (
    Environment,
    LeducEnv,
    MatrixGameEnv,
    estimate_payoffs,
    leduc_encode,
    make_env,
    rps_env,
    simulate_episode,
)
from .errors import *  # noqa: F401,F403 -- the error module defines __all__-safe names only
from .exact import ExactOracle, analytic_payoffs, exact_best_response, has_exact_values
from .evaluation import (
    SimilarityReport,
    proxy_regret,
    regret,
    similarity_report,
    sum_regret,
)
from .games import (
    EmpiricalGame,
    PayoffTable,
    StrategyId,
    deviation_gains,
    load_game,
    payoff_tensor,
    save_game,
)
from .hparams import HParamSearchResult, HParamSearchSpec, hparam_search, preset_hparams
from .oracle import (
    OracleHParams,
    SimulationCounter,
    TabularOracle,
    epsilon_at,
    train_best_response,
)
from .policies import (
    FixedMixturePolicy,
    QTable,
    ValuePolicy,
    pure_action_policy,
    uniform_random_policy,
)
from .qmixing import MixedQPolicy, combine_opponents, combine_responses
from .serialize import load_policy, save_policy
from .solvers import (
    SolutionProfile,
    get_solver,
    solve_last,
    solve_nash,
    solve_replicator,
    solve_uniform,
)

__version__ = "0.1.0"
