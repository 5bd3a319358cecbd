"""
Reverse stress testing: the redemption rate above which, and the volume
multiplier below which, the redemption coverage ratio breaches its floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from ._checks import check_days, check_number
from .core import DomainError, Portfolio, RedemptionPortfolio, tna, weights
from .liquidation import _check_target, _raised, _waterfall

BISECTION_TOL = 1e-6

_U = 2.0**-53            # unit roundoff of a float64
_TINY = 2.0**-1070       # 32 times the largest underflow error of one operation
_NO_OVERFLOW = 2.0**1020  # a curve value below this leaves the exact sum finite


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
    tau_h; this is evaluated directly, with no schedule built. A scaled
    limit past the float range is inf, which binds no name.
    """
    check_number("shock_amount", shock_amount, "positive")
    check_number("volume_multiplier", volume_multiplier, "non-negative")
    check_days("tau_h", tau_h)
    _check_target(portfolio, redemption)
    with np.errstate(over="ignore"):
        limits = volume_multiplier * portfolio.daily_limits
        return _raised(tau_h, limits, redemption.quantities, portfolio.prices) / shock_amount


def _check_alpha(portfolio: Portfolio, alpha) -> np.ndarray:
    """``alpha`` as a float array of one proportion in [0, 1] per security."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (portfolio.n,):
        raise DomainError("alpha must give one proportion per security")
    check_number("alpha proportions", alpha, "[0, 1]")
    return alpha


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
    check_number("RCR floor", rcr_floor, "positive")
    check_days("tau_h", tau_h)
    alpha = _check_alpha(portfolio, alpha)
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
    check_number("RCR floor", rcr_floor, "positive")
    alpha = _check_alpha(portfolio, alpha)
    return rcr_floor >= float(alpha @ weights(portfolio)) - 1e-12


def asset_rst(
    portfolio: Portfolio,
    standard_rate: float,
    rcr_floor: float,
    tau_h: int,
) -> Union[float, AssetRstNoSolution]:
    """Volume multiplier below which RCR(tau_h) falls below the floor.

    The liquidation portfolio is the pro-rata slice q = r * shares at the
    standard rate r, and every daily limit scales with the multiplier m.
    Coverage is non-decreasing in m, so the threshold is found by
    bisection; daily limits stay real-valued (no share rounding).

    Coverage is piecewise linear in m, so its root could be solved exactly;
    the bisection (its midpoints, its ``<=`` test and its stop at
    ``BISECTION_TOL``, 20 halvings) is kept on purpose, because the
    published 6-digit multipliers are those of this sequence and the exact
    root prints differently in some cells.
    Every comparison with the floor, the two end points included, is that
    of the exact coverage c1(m) = A / R, where A is the closed form of
    ``stressed_rcr``, the sum ``_raised`` in O(n), and R = r * TNA.

    Each comparison is read first off the portfolio's waterfall curve W
    (``_waterfall``) in O(log n): sum_i P_i min(tau m cap_i, r s_i) equals
    r W(tau m / r), so c2(m) = r W(h) / R at h = tau m / r. Let T be that
    sum in exact arithmetic and c = T / R. Both c1 and c2 sum n
    non-negative terms, so with u = 2^-53 and gamma_k = k u / (1 - k u):

    * c1: tau m cap_i and r s_i carry at most two roundings, so their
      minimum does; the dot product adds at most n, the division one:
      c1 = c (1 + a), |a| <= gamma_(n+3).
    * c2: h = fl(fl(tau m) / r) carries two roundings. A name counts as
      finished when fl(s_i / cap_i) <= h, which can differ from
      s_i <= (tau m / r) cap_i only within three roundings, so the amount
      it contributes, s_i or (tau m / r) cap_i, is within gamma_3 of
      min((tau m / r) cap_i, s_i). The prefix sum of P_i s_i and the suffix
      sum of P_i cap_i add at most n roundings; h's own two, the product
      with h, the addition, the factor r and the division six more:
      c2 = c (1 + b), |b| <= gamma_(n+9).

    So when |c2 - floor| > g floor with g >= (gamma_(n+3) + gamma_(n+9)) /
    (1 - gamma_(n+3)), about 2 gamma_(n+9), c1 lies strictly on the same
    side of the floor as c2. The guard is g = 4 (n + 9) u, about twice
    that, which also covers the rounding of the test itself. An operation
    that underflows adds up to 2^-1075 in its own units instead; with
    Sigma P and Sigma P cap the sums of prices and of daily values, all
    such terms stay below e = 2^-1070 ((tau + 2)(n + Sigma P) +
    Sigma P cap) / R + 2^-1070, which is added to the guard. Only a curve
    value within g floor + e of the floor, or one too large to leave the
    exact sum finite (NaN and inf included), falls back to ``_raised``. So
    every midpoint, decision and result is that of the exact bisection, at
    the cost of one O(n) sum of prices per call instead of about 22 full
    passes.

    Returns:
        The multiplier in (0, 1), or a typed no-solution outcome when the
        unstressed coverage is already at/below the floor, or when the floor
        cannot be reached by shrinking volumes.
    """
    check_number("standard redemption rate", standard_rate, "(0, 1]")
    check_number("RCR floor", rcr_floor, "positive")
    check_days("tau_h", tau_h)
    shock_amount = standard_rate * tna(portfolio)
    shares, cap, prices = portfolio.shares, portfolio.daily_limits, portfolio.prices
    t, full, rest, _ = _waterfall(portfolio)
    n = portfolio.n
    slack = (4 * (n + 9) * _U * rcr_floor
             + _TINY * ((tau_h + 2) * (n + float(prices.sum())) + float(rest[0])) / shock_amount
             + _TINY)

    def coverage(m: float) -> float:
        """A value that compares with the floor as c1(m) does: c2(m) where
        the guard allows, else c1(m) itself."""
        h = tau_h * m / standard_rate
        k = t.searchsorted(h, "right")
        value = standard_rate * (full.item(k) + h * rest.item(k))
        c = value / shock_amount
        if value < _NO_OVERFLOW and abs(c - rcr_floor) > slack:
            return c
        return _raised(tau_h, cap * m, standard_rate * shares, prices) / shock_amount

    if coverage(1.0) <= rcr_floor:
        return AssetRstNoSolution(tau_h=tau_h, rcr_floor=rcr_floor,
                                  reason=AssetRstFailure.ALREADY_BELOW_FLOOR)
    if coverage(BISECTION_TOL) >= rcr_floor:
        return AssetRstNoSolution(tau_h=tau_h, rcr_floor=rcr_floor,
                                  reason=AssetRstFailure.FLOOR_UNREACHABLE)
    lo, hi = 0.0, 1.0
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if coverage(mid) <= rcr_floor:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
