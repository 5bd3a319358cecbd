"""
Liquidity stress testing toolkit for investment funds.

Measurement: redemption coverage ratios (time-to-liquidation and HQLA
approaches), liquidation scheduling and analytics, reverse stress tests.
Management: cash-buffer sizing, swing pricing / anti-dilution levies,
redemption gates.
"""

from .core import (
    TRADING_DAYS_PER_YEAR,
    DomainError,
    Portfolio,
    RedemptionPortfolio,
    RedemptionShock,
    Security,
    WeightDistortion,
    daily_volatility,
    herfindahl,
    load_correlation,
    load_portfolio,
    load_portfolio_json,
    portfolio_from_dict,
    round_shares,
    save_portfolio,
    tna,
    weight_distortion,
    weights,
)
from .liquidation import (
    MAX_DAYS_DEFAULT,
    UNREACHABLE,
    LiquidationSchedule,
    build_schedule,
    daily_liquidation_profile,
    illiquid_assets,
    liquidation_ratio,
    liquidation_time,
)
from .rcr import (
    RcrReport,
    max_admissible_shock,
    optimal_pro_rata,
    pro_rata_portfolio,
    rcr_report,
    time_to_liquidity,
    waterfall_portfolio,
)
from .hqla import (
    AssetClass,
    HqlaBucket,
    RatingBand,
    SpecificRiskParams,
    ccf_parametric,
    ccf_static_lookup,
    drawdown_factor,
    liquidity_factor,
    load_buckets,
    rcr_hqla,
)
from .reverse import (
    AssetRstFailure,
    AssetRstNoSolution,
    LiabilityRstResult,
    asset_rst,
    liability_rst,
    liability_rst_feasible,
    stressed_rcr,
)
from .optimizer import (
    BondRiskSpec,
    CostModel,
    InfeasiblePolicy,
    OptimalPolicy,
    PolicyEvaluation,
    SolverStart,
    TransactionCost,
    evaluate_policy,
    optimize_policy,
    tracking_risk_bond,
    tracking_risk_equity,
    transaction_cost,
)
from .specialfuncs import hyp2f1_family, integral_i_ab, integral_i_w
from .buffer import (
    BufferAnalytics,
    BufferCostParams,
    BufferMarketParams,
    approximation_error,
    break_even_premium,
    buffer_analytics,
    expected_lg_approx,
    expected_lg_components_closed,
    expected_lg_components_quadrature,
    expected_lg_derivative,
    expected_lg_exact,
    expected_lg_quadrature,
    max_approximation_error,
    net_buffer_cost,
    optimal_cash_buffer,
    simulate_lg,
    tc_asset_derivative,
    tc_asset_sqrt,
    tc_cash,
)
from .swing import (
    AdlFees,
    AdlRule,
    FlowEvent,
    FundState,
    GateFill,
    GatePolicy,
    GateRequest,
    SwingConfig,
    SwingMode,
    SwingResult,
    adl_fees,
    dilution_per_unit,
    dynamic_threshold,
    gate_schedule,
    gate_totals,
    nav_step,
    swing_nav,
)

__version__ = "0.1.0"
