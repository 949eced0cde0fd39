"""Two-type continuous-state branching processes in Levy random environments.

Simulation of the jump SDE system, exact mixed integer moments via a
generator-derived linear ODE closure, the integral-form moment recursion
as a cross-check, f-moment finiteness classification, and a Monte Carlo
verification harness.
"""

from .branching import BranchingSpec, effective_drift_matrix, phi_eval
from .env import EnvPath, LevyEnvSpec, levy_exponent, sample_env_path
from .errors import (
    Cbre2Error,
    ConfigError,
    DivergentCoefficient,
    DivergentCrossMoment,
    DivergentExponent,
    ExponentOverflow,
    FixedPointDivergence,
    HypothesisViolated,
    InvalidStep,
    MassOverflow,
    ZeroInitialState,
)
from .fmoment import (
    MomentTestFunction,
    condition_b_check,
    exp_power,
    f_moment_verdict,
    power,
    power_log,
)
from .measures import (
    Atom1D,
    Atom2D,
    AxisTail,
    JumpMeasure,
    JumpMeasure1D,
    Tail1D,
)
from .moments import (
    MomentGenerator,
    MomentTable,
    QuenchedLaplace,
    annealed_laplace_mc,
    build_moment_generator,
    first_moment_closed_form,
    moment_polynomial,
    moment_table,
    monomial_basis,
    quenched_laplace,
    recursion_check,
    recursion_checks,
    recursion_coefficients,
    solve_moment_ode,
)
from .scenario import ScenarioConfig, dump_scenario, load_scenario, scenario_from_dict
from .simulate import (
    StatePath,
    scenario_states,
    simulate_paths,
    simulate_states,
)
from .truncation import BranchingRule, TruncationPredicate, norm_cap, unit_square
from .verify import (
    EstimateReport,
    coupling_monotonicity_report,
    estimate_moments,
    martingale_test,
    truncation_convergence_report,
)

__version__ = "0.1.0"
