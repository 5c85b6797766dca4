"""Jump-diffusion market simulation and optimal quadratic hedging in benchmark units."""

from .levy_core import (
    IntegrationError,
    JumpAtom,
    LevyMeasure,
    PriceRangeError,
    SingularDenominatorError,
    SymmetricCoefficients,
    TimeGrid,
    compensate,
    exponential_prices,
    integrate_block,
    integrate_proportional_block,
    product_coefficients,
    quotient_coefficients,
    sample_noise_block,
)
from .market import (
    AssetSpec,
    GeometricBernoulliSpec,
    PricingKernelSpec,
    benchmark_coefficients,
    domestic_drift,
    from_natural,
    kernel_coefficients,
    natural_coefficients,
    to_natural,
)
from .hedging import (
    ConstantRatioRule,
    DegeneracyError,
    DegeneracyReport,
    GramSystem,
    SingleHedgeCoefficients,
    analytic_delta,
    benchmark_holdings,
    degeneracy_check,
    gram_system,
    hedge_residuals,
    multi_asset_hedge,
    portfolio_values,
    rho_diagnostic,
    single_coefficients,
    solve_ratios,
    two_asset_hedge,
    volatility_gram,
)
from .sim_harness import (
    PATH_COLUMNS,
    BruteForceResult,
    Scenario,
    ScenarioResult,
    brute_force_constant_hedge,
    builtin_scenario,
    run_scenario,
    scenario_ratios,
    scenario_rho,
)

__version__ = "0.1.0"
