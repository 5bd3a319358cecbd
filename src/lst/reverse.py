"""
Reverse stress testing: the redemption rate above which, and the volume
multiplier below which, the redemption coverage ratio breaches its floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from ._checks import check_days
from .core import DomainError, Portfolio, RedemptionPortfolio, tna, weights
from .liquidation import _raised, validated_limits

BISECTION_TOL = 1e-6
BISECTION_MAX_ITER = 200


@dataclass(frozen=True)
class LiabilityRstResult:
    """Liability reverse-stress scenario for one horizon."""

    tau_h: int
    rcr_floor: float
    amount: float      # shock in currency above which the floor is breached
    rate: float        # same, as a fraction of net assets
    feasible: bool     # rate <= 1, i.e. the breach is reachable by redemptions

    def __iter__(self):
        return iter((self.amount, self.rate))


class AssetRstFailure(Enum):
    """Why no volume-multiplier threshold exists."""

    ALREADY_BELOW_FLOOR = "coverage is at or below the floor even without a volume shock"
    FLOOR_UNREACHABLE = "coverage stays above the floor for any positive multiplier"


@dataclass(frozen=True)
class AssetRstNoSolution:
    tau_h: int
    rcr_floor: float
    reason: AssetRstFailure


def stressed_rcr(
    portfolio: Portfolio,
    redemption: RedemptionPortfolio,
    shock_amount: float,
    tau_h: int,
    volume_multiplier: float = 1.0,
) -> float:
    """RCR(tau_h) with every daily limit scaled by the volume multiplier.

    Greedy selling raises sum_i P_i * min(tau_h * m * cap_i, q_i) by day
    tau_h; this is evaluated directly, with no schedule built.
    """
    limits = validated_limits(portfolio, redemption, tau_h,
                              volume_multiplier * portfolio.daily_limits)
    return _raised(tau_h, limits, redemption.quantities, portfolio.prices) / shock_amount


def _check_floor(rcr_floor: float) -> None:
    if not (rcr_floor > 0 and math.isfinite(rcr_floor)):
        raise DomainError("RCR floor must be positive and finite")


def liability_rst(
    portfolio: Portfolio,
    alpha: np.ndarray,
    rcr_floor: float,
    tau_h: int,
) -> LiabilityRstResult:
    """Redemption shock above which RCR(tau_h) falls below the floor.

    ``alpha[i]`` is the proportion of security i that remains saleable in the
    stress; the liquidation portfolio is alpha * holdings. The scenario is
    A(tau_h) / floor; it is flagged infeasible when that exceeds net assets
    (no redemption rate <= 1 breaches the floor, which happens whenever the
    floor is below the stressed saleable weight of the fund). A(tau_h) is
    the one sum ``_raised``, with no schedule built.
    """
    _check_floor(rcr_floor)
    check_days("tau_h", tau_h)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (portfolio.n,):
        raise DomainError("alpha must give one proportion per security")
    if not np.all((alpha >= 0) & (alpha <= 1)):
        raise DomainError("alpha proportions must lie in [0, 1]")
    amount = _raised(tau_h, portfolio.daily_limits, alpha * portfolio.shares,
                     portfolio.prices) / rcr_floor
    rate = amount / tna(portfolio)
    return LiabilityRstResult(
        tau_h=tau_h, rcr_floor=rcr_floor, amount=amount, rate=rate, feasible=rate <= 1.0
    )


def liability_rst_feasible(portfolio: Portfolio, alpha: np.ndarray, rcr_floor: float) -> bool:
    """Whether some redemption rate <= 1 breaches the floor at long horizons.

    Holds exactly when the floor is at least the stressed saleable weight
    sum(alpha_i * w_i).
    """
    _check_floor(rcr_floor)
    alpha = np.asarray(alpha, dtype=float)
    return rcr_floor >= float(alpha @ weights(portfolio)) - 1e-12


def asset_rst(
    portfolio: Portfolio,
    standard_rate: float,
    rcr_floor: float,
    tau_h: int,
    tol: float = BISECTION_TOL,
) -> Union[float, AssetRstNoSolution]:
    """Volume multiplier below which RCR(tau_h) falls below the floor.

    The liquidation portfolio is the pro-rata slice at ``standard_rate`` and
    every daily limit scales with the multiplier. Coverage is non-decreasing
    in the multiplier, so the threshold is found by bisection; daily limits
    stay real-valued (no share rounding). Every evaluation, the two end
    points included, is the closed form of ``stressed_rcr`` in O(n),
    written into one preallocated buffer; the checked day count, rate and
    ``tol`` leave no limit for ``stressed_rcr``'s check to reject.

    Coverage is piecewise linear in the multiplier, so its root could be
    solved exactly; the bisection (its midpoints, its ``<=`` test and its
    stop at ``tol``) is kept on purpose, because the published 6-digit
    multipliers are those of this sequence and the exact root prints
    differently in some cells.

    Returns:
        The multiplier in (0, 1), or a typed no-solution outcome when the
        unstressed coverage is already at/below the floor, or when the floor
        cannot be reached by shrinking volumes.
    """
    if not 0.0 < standard_rate <= 1.0:
        raise DomainError("standard redemption rate must lie in (0, 1]")
    _check_floor(rcr_floor)
    check_days("tau_h", tau_h)
    if not 0.0 < tol < 1.0:
        raise DomainError(f"bisection tol must lie in (0, 1), got {tol!r}")
    q = standard_rate * portfolio.shares  # the pro-rata slice
    shock_amount = standard_rate * tna(portfolio)
    cap, prices = portfolio.daily_limits, portfolio.prices
    buf = np.empty_like(cap)

    def coverage(m: float) -> float:
        return _raised(tau_h, np.multiply(cap, m, out=buf), q, prices, out=buf) / shock_amount

    if coverage(1.0) <= rcr_floor:
        return AssetRstNoSolution(tau_h=tau_h, rcr_floor=rcr_floor,
                                  reason=AssetRstFailure.ALREADY_BELOW_FLOOR)
    if coverage(tol) >= rcr_floor:
        return AssetRstNoSolution(tau_h=tau_h, rcr_floor=rcr_floor,
                                  reason=AssetRstFailure.FLOOR_UNREACHABLE)
    lo, hi = 0.0, 1.0
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if coverage(mid) <= rcr_floor:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)
