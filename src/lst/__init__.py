"""
Liquidity stress testing toolkit for investment funds.

Measurement: redemption coverage ratios (time-to-liquidation and HQLA
approaches), liquidation scheduling and analytics, reverse stress tests.
Management: cash-buffer sizing, swing pricing / anti-dilution levies,
redemption gates.

The package loads lazily: ``import lst`` imports no submodule and no numpy,
and ``lst.<name>`` imports the one submodule that defines the name on first
use (PEP 562), so a scalar tool such as swing pricing runs without the array
stack.
"""

from importlib import import_module

#: Submodule -> the public names it exports at package level.
_EXPORTS = {
    "_checks": ("DomainError",),
    "core": (
        "TRADING_DAYS_PER_YEAR",
        "Portfolio",
        "RedemptionPortfolio",
        "RedemptionShock",
        "Security",
        "WeightDistortion",
        "daily_volatility",
        "herfindahl",
        "load_correlation",
        "load_portfolio",
        "round_shares",
        "save_portfolio",
        "tna",
        "weight_distortion",
        "weights",
    ),
    "liquidation": (
        "MAX_DAYS_DEFAULT",
        "UNREACHABLE",
        "LiquidationSchedule",
        "build_schedule",
        "daily_liquidation_profile",
        "illiquid_assets",
        "liquidation_ratio",
        "liquidation_time",
    ),
    "rcr": (
        "RcrReport",
        "max_admissible_shock",
        "optimal_pro_rata",
        "pro_rata_portfolio",
        "rcr_report",
        "time_to_liquidity",
        "waterfall_portfolio",
    ),
    "hqla": (
        "AssetClass",
        "HqlaBucket",
        "RatingBand",
        "SpecificRiskParams",
        "ccf_parametric",
        "ccf_static_lookup",
        "drawdown_factor",
        "liquidity_factor",
        "load_buckets",
        "rcr_hqla",
    ),
    "reverse": (
        "AssetRstFailure",
        "AssetRstNoSolution",
        "LiabilityRstResult",
        "asset_rst",
        "liability_rst",
        "liability_rst_feasible",
        "stressed_rcr",
    ),
    "optimizer": (
        "BondRiskSpec",
        "CostModel",
        "InfeasiblePolicy",
        "OptimalPolicy",
        "PolicyEvaluation",
        "SolverStart",
        "TransactionCost",
        "evaluate_policy",
        "optimize_policy",
        "tracking_risk_bond",
        "tracking_risk_equity",
        "transaction_cost",
    ),
    "specialfuncs": ("hyp2f1_family", "integral_i_ab", "integral_i_w"),
    "buffer": (
        "BufferAnalytics",
        "BufferCostParams",
        "BufferMarketParams",
        "approximation_error",
        "break_even_premium",
        "buffer_analytics",
        "expected_lg_approx",
        "expected_lg_components_closed",
        "expected_lg_components_quadrature",
        "expected_lg_derivative",
        "expected_lg_exact",
        "expected_lg_quadrature",
        "max_approximation_error",
        "net_buffer_cost",
        "optimal_cash_buffer",
        "simulate_lg",
        "tc_asset_derivative",
        "tc_asset_sqrt",
        "tc_cash",
    ),
    "swing": (
        "AdlFees",
        "AdlRule",
        "FlowEvent",
        "FundState",
        "GateFill",
        "GatePolicy",
        "GateRequest",
        "SwingConfig",
        "SwingMode",
        "SwingResult",
        "adl_fees",
        "dilution_per_unit",
        "dynamic_threshold",
        "gate_schedule",
        "gate_totals",
        "nav_step",
        "swing_nav",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as in lst.core
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
