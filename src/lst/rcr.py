"""
Redemption coverage ratio and liquidity shortfall under the time-to-liquidation
approach, with the three standard liquidation-policy builders (naive pro-rata,
optimal pro-rata, waterfall).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._checks import as_integer, check_days, check_number
from .core import DomainError, Portfolio, RedemptionPortfolio, RedemptionShock, tna
from .liquidation import (
    LiquidationSchedule,
    MAX_DAYS_DEFAULT,
    _first_day,
    _raised,
    build_schedule,
)


@dataclass(frozen=True, eq=False)
class RcrReport:
    """Per-day coverage table for one redemption scenario.

    Row h (1-based) carries the liquidation ratio LR(q;h), the cash raised
    A(h), the coverage ratio RCR(h) = A(h)/R and the liquidity shortfall
    LS(h) = rate * max(0, 1 - RCR(h)) as a fraction of net assets.
    """

    shock: RedemptionShock
    schedule: LiquidationSchedule
    lr: np.ndarray
    amount: np.ndarray
    rcr: np.ndarray
    ls: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.lr)

    def row(self, h: int) -> dict:
        # an integer day outside the table: its message names the horizon
        if as_integer(h) is not None and not 1 <= h <= self.horizon:
            raise DomainError(f"day {h} outside report horizon 1..{self.horizon}")
        check_days("day", h)
        i = h - 1
        return {"h": h, "lr": float(self.lr[i]), "amount": float(self.amount[i]),
                "rcr": float(self.rcr[i]), "ls": float(self.ls[i])}


def rcr_report(
    portfolio: Portfolio,
    shock: RedemptionShock,
    redemption: RedemptionPortfolio,
    horizon: int = MAX_DAYS_DEFAULT,
) -> RcrReport:
    """Build the day-by-day RCR/LS table for a redemption portfolio.

    When the redemption portfolio's value equals the shock amount, RCR(h)
    coincides with the liquidation ratio. The cash raised on every day comes
    from the closed-form schedule in O(n log n + horizon).
    """
    check_days("horizon", horizon)
    if shock.amount <= 0:
        raise DomainError("redemption shock must be positive")
    schedule = build_schedule(portfolio, redemption, max_days=horizon)
    value = redemption.value(portfolio)
    if value <= 0:
        raise DomainError("redemption portfolio has no value to liquidate")
    cum_value = schedule.amounts(horizon)  # flat once the schedule is exhausted
    lr = cum_value / value
    rcr = cum_value / shock.amount
    ls = shock.rate * np.maximum(0.0, 1.0 - rcr)
    return RcrReport(shock=shock, schedule=schedule, lr=lr, amount=cum_value, rcr=rcr, ls=ls)


def pro_rata_portfolio(portfolio: Portfolio, rate: float) -> RedemptionPortfolio:
    """Vertical slicing: q = rate * holdings, preserving the asset structure."""
    check_number("redemption rate", rate, "[0, 1]")
    return RedemptionPortfolio(quantities=rate * portfolio.shares)


def optimal_pro_rata(portfolio: Portfolio, tau_h: int) -> Tuple[float, RedemptionPortfolio]:
    """Largest proportional slice fully liquidatable within tau_h days.

    Returns (phi, q*) with phi = min_i min(tau_h * limit_i / shares_i, 1),
    the minimum running over held securities only. phi * TNA is the maximum
    admissible redemption shock for the horizon; the slice itself does not
    depend on the shock.
    """
    check_days("tau_h", tau_h)
    shares = portfolio.shares
    limits = portfolio.daily_limits
    held = shares > 0
    if not held.any():
        raise DomainError("portfolio holds no shares")
    phi = float(np.minimum(tau_h * limits[held] / shares[held], 1.0).min())
    return phi, RedemptionPortfolio(quantities=phi * shares)


def waterfall_portfolio(portfolio: Portfolio) -> RedemptionPortfolio:
    """Horizontal slicing: the whole portfolio is up for sale, every asset
    selling at its daily limit until exhausted."""
    return RedemptionPortfolio(quantities=portfolio.shares)  # the constructor copies


def max_admissible_shock(portfolio: Portfolio, tau_h: int, policy: str = "optimal") -> float:
    """Maximum redemption rate absorbable within tau_h days under a policy.

    ``optimal`` uses the optimal pro-rata slice (phi); ``waterfall`` uses the
    cash the waterfall raises in tau_h days as a fraction of net assets,
    the one sum ``_raised`` over the whole holdings, with no schedule built.
    """
    check_days("tau_h", tau_h)
    if policy == "optimal":
        phi, _ = optimal_pro_rata(portfolio, tau_h)
        return phi
    if policy == "waterfall":
        raised = _raised(tau_h, portfolio.daily_limits, portfolio.shares, portfolio.prices)
        return raised / tna(portfolio)
    raise DomainError(f"unknown policy {policy!r}")


def time_to_liquidity(report: RcrReport, p: float):
    """Smallest h with RCR(h) >= p, or UNREACHABLE.

    Once the schedule is exhausted the coverage ratio is flat, so a threshold
    above the terminal RCR is unreachable at any horizon.
    """
    check_number("threshold p", p, "positive")
    return _first_day(report.rcr, p)
