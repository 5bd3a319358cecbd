"""
Cash-buffer cost-benefit machinery.

Covers the return/risk analytics of holding a cash buffer, the expected
liquidation gain (closed form, quadrature and approximate variants, with and
without a daily trading limit), the net buffer cost and its minimizer, the
break-even risk premium, and the approximation-error diagnostics of the
additive transaction-cost shortcut.

Redemptions follow the power law F(x) = x^eta by default; a custom CDF with
density can be plugged in for the quadrature paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from ._checks import check_days, check_number
from .core import DomainError, check_finite, daily_volatility
from .specialfuncs import ETA_RANGE, _as_array, _as_given, integral_i_ab, integral_i_w

_GRID_STEP = 1e-3  # coarse scan resolution of the buffer optimizer
_ZOOM = 10  # each refine grid is _ZOOM times finer than the last
_W_TOL = 1e-9  # the refine stops once its grid spacing is at most this
# The smallest trading limit: a full redemption sells out within 10,000 days.
# The exact gain sums one term per limit segment, so its cost grows as
# 1/x_plus, and a smaller limit would run without bound.
X_PLUS_MIN = 1e-4


# =============================================================================
# PARAMETERS
# =============================================================================

@dataclass(frozen=True)
class BufferMarketParams:
    """Return/risk inputs of the buffer cost side.

    Attributes:
        mu_asset, mu_cash: Expected annual returns of the assets and the cash.
        sigma_asset, sigma_cash: Annual volatilities.
        rho: Correlation between cash and asset returns.
        te_aversion: Tracking-error aversion (the quadratic penalty weight).
    """

    mu_asset: float
    mu_cash: float = 0.0
    sigma_asset: float = 0.0
    sigma_cash: float = 0.0
    rho: float = 0.0
    te_aversion: float = 0.0

    def __post_init__(self) -> None:
        check_finite(self, ("mu_asset", "mu_cash"))
        check_finite(self, ("sigma_asset", "sigma_cash", "te_aversion"), "non-negative")
        check_number("correlation", self.rho, "[-1, 1]")

    @property
    def te_variance_unit(self) -> float:
        """Tracking-error variance per unit of squared buffer weight; inf or
        NaN where a huge volatility overflows (a float ``**`` would raise)."""
        return (
            self.sigma_cash * self.sigma_cash
            + self.sigma_asset * self.sigma_asset
            - 2.0 * self.rho * self.sigma_cash * self.sigma_asset
        )


@dataclass(frozen=True)
class BufferCostParams:
    """Transaction-cost and redemption-law inputs of the buffer gain side.

    Attributes:
        spread: Bid-ask spread of the risky assets, as a fraction.
        cash_cost: Unit cost of liquidating cash (usually tiny).
        beta_impact: Square-root market-impact coefficient.
        sigma: Annual volatility feeding the impact term (converted to daily by
            sqrt(TRADING_DAYS_PER_YEAR)).
        x_plus: Daily trading limit as a fraction of net assets, at least
            ``X_PLUS_MIN``; >= 1 means the whole fund can be sold in one day.
        eta: Exponent of the redemption-rate law F(x) = x^eta, in
            (0, ``specialfuncs.ETA_MAX``].
        cdf, pdf: Optional custom redemption law (distribution function and
            density on [0, 1]); used by the quadrature paths only.
    """

    spread: float
    cash_cost: float = 0.0
    beta_impact: float = 0.0
    sigma: float = 0.0
    x_plus: float = 1.0
    eta: float = 1.0
    cdf: Optional[Callable[[float], float]] = None
    pdf: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        check_finite(self, ("spread", "cash_cost", "beta_impact", "sigma"), "non-negative")
        # no interval: any x_plus >= 1, infinity included, means no limit
        if not self.x_plus > 0:
            raise DomainError("trading limit must be positive")
        if self.x_plus < X_PLUS_MIN:
            raise DomainError(f"trading limit must be at least {X_PLUS_MIN:g}, got {self.x_plus!r}")
        check_number("eta", self.eta, ETA_RANGE)
        if (self.cdf is None) != (self.pdf is None):
            raise DomainError("custom redemption law needs both cdf and pdf")

    @property
    def sigma_daily(self) -> float:
        return daily_volatility(self.sigma)

    @property
    def unlimited(self) -> bool:
        """True when the trading limit never binds."""
        return self.x_plus >= 1.0

    def redemption_cdf(self, x):
        """F(x) for a float or an array x; a custom cdf is called one element at a time."""
        if self.cdf is None:
            return x**self.eta
        return np.vectorize(self.cdf, otypes=[float])(x) if np.ndim(x) else self.cdf(x)

    def redemption_pdf(self, x: float) -> float:
        if self.pdf is not None:
            return self.pdf(x)
        if x <= 0.0:
            return 0.0
        return self.eta * x ** (self.eta - 1.0)

    @property
    def expected_redemption(self) -> float:
        """Mean redemption rate, eta / (eta + 1) under the power law."""
        if self.cdf is not None:
            return _integrate(lambda x: 1.0 - self.cdf(x), 0.0, 1.0)
        return self.eta / (self.eta + 1.0)


# =============================================================================
# PORTFOLIO ANALYTICS WITH A BUFFER
# =============================================================================

@dataclass(frozen=True)
class BufferAnalytics:
    """Exact return/risk statistics of a fund holding a cash buffer.

    ``sharpe`` is None when the blended volatility is zero, and ``info_ratio``
    is None when the tracking-error volatility is zero.
    """

    expected_return: float
    volatility: float
    excess_return: float
    tracking_error: float
    beta: Optional[float]
    correlation: Optional[float]
    sharpe: Optional[float]
    info_ratio: Optional[float]


def buffer_analytics(market: BufferMarketParams, w: float) -> BufferAnalytics:
    """Mean/variance, tracking-error, beta, Sharpe and information ratios
    of the blended fund at cash weight w (exact bilinear formulas)."""
    check_number("cash weight", w, "[0, 1]")
    m = market
    premium = m.mu_asset - m.mu_cash
    exp_ret = m.mu_asset - w * premium
    cash, asset = w * m.sigma_cash, (1.0 - w) * m.sigma_asset
    var = cash * cash + asset * asset + 2.0 * m.rho * cash * asset
    check_number("blended variance", var)
    check_number("tracking-error variance", m.te_variance_unit)
    vol = math.sqrt(max(var, 0.0))
    te_vol = w * math.sqrt(max(m.te_variance_unit, 0.0))
    beta = None
    if m.sigma_asset > 0:
        beta = 1.0 - w + w * m.rho * m.sigma_cash / m.sigma_asset
    corr = None
    if vol > 0 and m.sigma_asset > 0:
        corr = (w * m.rho * m.sigma_cash + (1.0 - w) * m.sigma_asset) / vol
    sharpe = (exp_ret - m.mu_cash) / vol if vol > 0 else None
    info = -premium / math.sqrt(m.te_variance_unit) if te_vol > 0 else None
    return BufferAnalytics(
        expected_return=exp_ret,
        volatility=vol,
        excess_return=-w * premium,
        tracking_error=te_vol,
        beta=beta,
        correlation=corr,
        sharpe=sharpe,
        info_ratio=info,
    )


# =============================================================================
# TRANSACTION COSTS
# =============================================================================

def _sqrt(x):
    # math.sqrt for floats (Python's x ** 0.5 calls pow(), which misrounds
    # about one root in a thousand), np.sqrt for arrays: both correctly rounded
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


class _SqrtCost(NamedTuple):
    days: Callable
    cost: Callable
    slope: Callable


def _sqrt_cost(params: BufferCostParams) -> _SqrtCost:
    """The square-root cost model of ``params``, bound once.

    ``days(x)`` splits a sale of x >= 0 into k full days at the limit and a
    residual r (an exact multiple of the limit finishes on day k);
    ``cost(x)`` is the cost of selling x and ``slope(x)`` its right
    derivative; a negative x sells nothing. They use arithmetic operators
    only (``// 1.0`` is the floor), so the same expression serves a float in
    a quad integrand and an array of Monte-Carlo draws, with bit-identical
    values.
    """
    s, beta, sig, xp = params.spread, params.beta_impact, params.sigma_daily, params.x_plus
    full_day = xp**1.5
    unlimited = params.unlimited

    def days(x):
        k = (x / xp) // 1.0
        k = k - ((x - k * xp <= 0.0) & (k > 0.0))
        return k, x - k * xp

    def cost(x):
        x = (x + abs(x)) * 0.5  # max(x, 0): doubling and halving are exact
        if unlimited:
            return x * (s + beta * sig * _sqrt(x))
        k, r = days(x)
        return x * s + k * beta * sig * full_day + beta * sig * r * _sqrt(r)

    def slope(x):
        x = (x + abs(x)) * 0.5
        r = x if unlimited else days(x)[1]
        return s + 1.5 * beta * sig * _sqrt(r)

    return _SqrtCost(days, cost, slope)


def tc_asset_sqrt(x, params: BufferCostParams):
    """Cost of liquidating a fraction x of net assets under the square-root model.

    Without a binding limit this is x * (s + beta * sigma_d * sqrt(x)); with a
    daily limit the sale splits into kappa full days at the limit plus a
    residual day, the spread part staying linear. x may be a float or an array.
    """
    check_number("sale", x)
    if np.any(x > 1.0 + 1e-12):
        raise DomainError("cannot liquidate more than the whole fund")
    return _sqrt_cost(params).cost(x)


def tc_asset_derivative(x, params: BufferCostParams):
    """Marginal cost d/dx of ``tc_asset_sqrt`` (right derivative at kinks)."""
    check_number("sale", x)
    return _sqrt_cost(params).slope(x)


def tc_cash(x, params: BufferCostParams):
    """Cost of liquidating a fraction x (a float or an array) of net assets held as cash."""
    check_number("sale", x)
    return _as_given(np.maximum(_as_array(x), 0.0) * params.cash_cost, x)


# =============================================================================
# EXPECTED LIQUIDATION GAIN
# =============================================================================

def _integrate(f, lo: float, hi: float, points=()) -> float:
    """integral_lo^hi f by scipy's adaptive quadrature split at ``points``,
    the package's one numerical integral (scipy is imported on first use)."""
    from scipy import integrate

    value, _ = integrate.quad(f, lo, hi, points=points or None,
                              epsabs=1e-13, epsrel=1e-11, limit=400)
    return value


def _cost_breakpoints(params: BufferCostParams, lo: float, hi: float, shift: float = 0.0):
    """Kink locations of tc_asset(x - shift) inside (lo, hi), ascending."""
    if params.unlimited:
        return []
    pts = shift + params.x_plus * np.arange(1, int((hi - shift) / params.x_plus) + 2)
    return pts[(lo < pts) & (pts < hi)].tolist()


def expected_lg_quadrature(params: BufferCostParams, w):
    """Expected liquidation gain from its defining integral.

    E[LG(w)] = integral_0^w (TC_asset - TC_cash) dF
             + integral_w^1 (TC_asset(x) - TC_asset(x - w)) dF.

    This is the oracle the Monte-Carlo validator must agree with; it handles
    any trading limit and any plugged-in redemption law. w may be a float or
    an array, integrated one weight at a time.
    """
    if np.ndim(w):  # one weight, or one row of weights, at a time
        rows = np.asarray(w, dtype=float).tolist()
        return np.array([expected_lg_quadrature(params, x) for x in rows])
    cash_part, asset_part = expected_lg_components_quadrature(params, w)
    return cash_part + asset_part


def expected_lg_components_quadrature(params: BufferCostParams, w: float) -> Tuple[float, float]:
    """(cash-substitution gain, reduced-asset-sale gain) by adaptive quadrature."""
    check_number("cash weight", w, "[0, 1]")
    if w == 0.0:
        return 0.0, 0.0
    pdf = params.redemption_pdf
    tc = _sqrt_cost(params).cost

    def f_cash(x: float) -> float:
        return (tc(x) - x * params.cash_cost) * pdf(x)  # tc_cash, unchecked, at x > 0

    def f_asset(t: float) -> float:
        x = math.exp(t)
        return (tc(x) - tc(x - w)) * pdf(x) * x

    cash_part = _integrate(f_cash, 0.0, w, _cost_breakpoints(params, 0.0, w))
    if w >= 1.0:
        return cash_part, 0.0
    # over t = ln x: on [w, 1] a density singular at 0, such as eta x^(eta-1)
    # with eta < 1, looks singular at the left end until the bisection reaches
    # the scale of w, and for a tiny w the extrapolation stops early at the
    # integral from 0 instead (off by s w^(eta+1), 1.1e-13 at w = 2^-24)
    pts2 = sorted(set(_cost_breakpoints(params, w, 1.0) + _cost_breakpoints(params, w, 1.0, shift=w)))
    asset_part = _integrate(f_asset, math.log(w), 0.0, [math.log(p) for p in pts2])
    return cash_part, asset_part


def expected_lg_components_closed(params: BufferCostParams, w) -> Tuple[float, float]:
    """Closed-form gain components for the unlimited case (x_plus >= 1).

    Note: this is the reference closed form the optimum fixtures come from;
    its asset leg carries
    eta * s * w * (1 - w) where the defining integral gives s * w * (1 - w^eta),
    so the two expressions only coincide at eta = 1. The defining-integral
    value is always available through ``expected_lg_quadrature``. w may be a
    float or an array.
    """
    if not params.unlimited:
        raise DomainError("closed form requires x_plus >= 1")
    if params.cdf is not None:
        raise DomainError("closed form requires the power-law redemption model")
    check_number("cash weight", w, "[0, 1]")
    x = _as_array(w)
    eta = params.eta
    s, c = params.spread, params.cash_cost
    impact = params.beta_impact * params.sigma_daily
    cash_part = (eta * (s - c) / (eta + 1.0)) * x ** (eta + 1.0) \
        + (2.0 * eta * impact / (2.0 * eta + 3.0)) * x ** (eta + 1.5)
    asset_part = eta * s * x * (1.0 - x) \
        + (2.0 * eta * impact / (2.0 * eta + 3.0)) * (1.0 - x ** (eta + 1.5)) \
        - eta * impact * integral_i_w(x, eta)
    return _as_given(cash_part, w), _as_given(asset_part, w)


def _impact_integral(params: BufferCostParams, lo, hi):
    """integral_lo^hi of the impact part of TC_asset(x - lo) dF(x) under the
    power law, for lo <= hi (floats or arrays; returns an array).

    On its k-th trading-limit segment (a_k, b_k] = (lo + (k-1) x_plus,
    lo + k x_plus], clipped to hi, the sale x - lo takes k - 1 full days and
    a residual x - a_k, so the segment adds
    beta sigma_d ((k-1) x_plus^1.5 (F(b_k) - F(a_k)) + eta I(a_k, b_k)).
    The loop runs over segments and keeps one accumulator the size of lo,
    so memory does not grow as x_plus shrinks.
    """
    impact = params.beta_impact * params.sigma_daily
    lo, hi = np.broadcast_arrays(np.atleast_1d(lo), np.atleast_1d(hi))
    total = np.zeros(lo.shape)
    if impact == 0.0:
        return total
    eta, xp = params.eta, params.x_plus
    full_day = xp**1.5
    k = 1
    while True:
        a = np.minimum(lo + (k - 1) * xp, hi)
        b = np.minimum(lo + k * xp, hi)
        on = a < b
        if not on.any():
            return impact * total
        a, b = a[on], b[on]
        total[on] += (k - 1) * full_day * (b**eta - a**eta) + eta * integral_i_ab(a, b, eta)
        k += 1


def _head(params: BufferCostParams, y):
    """H(y) = integral_0^y TC_asset dF under the power law, for an array y."""
    eta = params.eta
    return eta * params.spread * y ** (eta + 1.0) / (eta + 1.0) + _impact_integral(params, 0.0, y)


def _power_law_gain(params: BufferCostParams, w):
    """Exact E[LG(w)] under the power law at any trading limit.

    E[LG(w)] = H(1) - integral_0^w TC_cash dF - integral_w^1 TC_asset(x - w) dF,
    where the shifted sale's spread leg is
    s (eta / (eta + 1) (1 - w^(eta+1)) - w (1 - w^eta)) and its impact leg
    has the same staircase and I terms on the segments starting at w. w may be
    a float or an array; the value is exactly 0 at w = 0, where the
    difference would leave a rounding residue.
    """
    x = _as_array(w)
    eta, s, c = params.eta, params.spread, params.cash_cost
    mean = eta / (eta + 1.0)
    power = x ** (eta + 1.0)
    shifted = s * (mean * (1.0 - power) - x * (1.0 - x**eta)) + _impact_integral(params, x, 1.0)
    gain = np.where(x > 0.0, _head(params, np.ones(1)) - c * mean * power - shifted, 0.0)
    return _as_given(gain, w)


def expected_lg_exact(params: BufferCostParams, w):
    """Exact expected liquidation gain at a cash weight w (a float or an array).

    Under the power law: the sum over trading-limit segments when a limit
    binds (x+ < 1), which is the expectation of the defining integral. With
    no trading limit (x+ >= 1) it returns the paper's reference closed form
    ``expected_lg_components_closed``, whose asset leg is
    ``eta * s * w * (1 - w)``, as the goldens do. That form is the true
    expectation only at eta = 1, so at other eta the value jumps at
    x+ = 1: with spread 20bp, cash cost 1bp, impact 0.4, sigma 0.2, eta = 2
    and w = 0.1 it is 7.686e-4 at x+ = 0.999999 (quadrature of the
    defining integral agrees) and 9.306e-4 at x+ = 1. A custom redemption
    law takes the adaptive quadrature of the defining integral.
    """
    if params.cdf is not None:
        return expected_lg_quadrature(params, w)
    check_number("cash weight", w, "[0, 1]")
    if params.unlimited:
        cash_part, asset_part = expected_lg_components_closed(params, w)
        return cash_part + asset_part
    return _power_law_gain(params, w)


def expected_lg_approx(params: BufferCostParams, w):
    """Approximate expected liquidation gain (additive-cost shortcut).

    E[LG(w)] ~= integral_0^w TC_asset dF + TC_asset(w) * (1 - F(w)), dropping
    the cash liquidation cost. Monotone non-decreasing in w. Closed form under
    the power law (piecewise over trading-limit segments); quadrature for a
    custom redemption law, one weight at a time. w may be a float or an array.
    """
    check_number("cash weight", w, "[0, 1]")
    x = _as_array(w)
    kernel = _sqrt_cost(params)
    if params.cdf is None:
        head = _head(params, x)
    else:
        head = np.array([_integrate(lambda t: kernel.cost(t) * params.redemption_pdf(t), 0.0, v,
                                    _cost_breakpoints(params, 0.0, v)) for v in x.tolist()])
    return _as_given(head + kernel.cost(x) * (1.0 - params.redemption_cdf(x)), w)


def expected_lg_derivative(params: BufferCostParams, w, method: str = "auto"):
    """d/dw of the expected liquidation gain at a float or an array w.

    ``approx`` uses the analytic derivative of the additive shortcut,
    TC'_asset(w) * (1 - F(w)); ``fd`` central-differences the exact gain;
    ``auto`` picks ``approx`` when ``x_plus < 1`` (a trading limit that
    binds) and ``fd`` when ``x_plus >= 1``.
    """
    check_number("cash weight", w, "[0, 1]")
    if method == "auto":
        method = "approx" if not params.unlimited else "fd"
    x = _as_array(w)
    if method == "approx":
        slope = tc_asset_derivative(x, params) * (1.0 - params.redemption_cdf(x))
    elif method == "fd":
        h = 1e-6
        lo, hi = np.maximum(0.0, x - h), np.minimum(1.0, x + h)
        slope = (expected_lg_exact(params, hi) - expected_lg_exact(params, lo)) / (hi - lo)
    else:
        raise DomainError(f"unknown method {method!r}")
    return _as_given(slope, w)


def simulate_lg(params: BufferCostParams, w: float, n: int = 1_000_000, seed: int = 20210901):
    """Monte-Carlo estimate of E[LG(w)] under the power law.

    Draws redemption rates by inverse transform and applies the pathwise gain.
    Returns (mean, standard error). n must be an integer of at least 2.
    """
    check_days("n", n, least=2)
    check_number("cash weight", w, "[0, 1]")
    if params.cdf is not None:
        raise DomainError("the Monte-Carlo validator supports the power law only")
    rng = np.random.default_rng(seed)
    shocks = rng.random(n) ** (1.0 / params.eta)
    tc = _sqrt_cost(params).cost
    gains = tc(shocks) - np.where(shocks <= w, shocks * params.cash_cost, tc(shocks - w))
    mean = float(gains.mean())
    stderr = float(gains.std(ddof=1) / math.sqrt(n))
    return mean, stderr


# =============================================================================
# NET BUFFER COST AND ITS OPTIMUM
# =============================================================================

def net_buffer_cost(market: BufferMarketParams, params: BufferCostParams, w):
    """Risk-premium drag plus tracking-error penalty minus expected gain.

    NBC(w) = w * premium + (lambda / 2) * w^2 * te_variance - E[LG(w)], for
    a float or an array w.
    """
    check_number("cash weight", w, "[0, 1]")
    premium = market.mu_asset - market.mu_cash
    penalty = 0.5 * market.te_aversion * w * w * market.te_variance_unit
    return w * premium + penalty - expected_lg_exact(params, w)


def optimal_cash_buffer(market: BufferMarketParams, params: BufferCostParams) -> float:
    """Cash weight minimizing the net buffer cost over [0, 1].

    Scans a 1e-3 grid (the exact gain can be bimodal near w = 1) in one
    array call, then narrows the best bracket with finer grids of
    ``2 * _ZOOM + 1`` points, one array call each, until their spacing is
    at most ``_W_TOL``; a point replaces the best only when it is strictly
    lower, and exact ties resolve to the smaller weight. A grid cost that
    is not finite, such as one that overflows at huge costs, is a
    DomainError naming eta.
    """
    grid = np.arange(0.0, 1.0 + _GRID_STEP / 2, _GRID_STEP)
    with np.errstate(all="ignore"):
        values = net_buffer_cost(market, params, grid)
        if not np.isfinite(values).all():
            raise DomainError(f"net buffer cost is not finite on the weight grid at eta = {params.eta!r}")
        best = int(np.argmin(values))  # first index wins ties, i.e. smaller w
        w, fw, scale = grid[best], values[best], 1
        # each grid spans the best point +- the last spacing, _GRID_STEP / scale:
        # one rounding, so a _W_TOL of _GRID_STEP / _ZOOM**k stops after k grids
        while _GRID_STEP / scale > _W_TOL:
            step = _GRID_STEP / scale
            zoom = np.linspace(max(w - step, 0.0), min(w + step, 1.0), 2 * _ZOOM + 1)
            costs = net_buffer_cost(market, params, zoom)
            i = int(np.argmin(costs))
            if costs[i] < fw:
                w, fw = zoom[i], costs[i]
            scale *= _ZOOM
    candidates = [(values[best], grid[best]), (fw, w), (values[0], 0.0)]
    best_value = min(v for v, _ in candidates)
    return float(min(x for v, x in candidates if v <= best_value + 1e-15))


def break_even_premium(
    market: BufferMarketParams,
    params: BufferCostParams,
    w,
    method: str = "auto",
):
    """Asset-cash return spread making the buffer level w (a float or an
    array) exactly optimal.

    rho(w) = dE[LG]/dw - lambda * w * te_variance; a buffer is worth holding
    at all iff the actual premium is below rho(0), which is independent of the
    tracking-error aversion.
    """
    gain_slope = expected_lg_derivative(params, w, method=method)
    return gain_slope - market.te_aversion * w * market.te_variance_unit


# =============================================================================
# APPROXIMATION-ERROR DIAGNOSTICS
# =============================================================================

def approximation_error(params: BufferCostParams, w: float) -> float:
    """Worst additive-cost error sup_{R in [w, 1]} |(TC(R) - TC(w)) - TC(R - w)|.

    The spread leg cancels. With f(x) = x^1.5 the impact of a sale is
    k f(x_plus) + f(r) for k full days and a residual r, so the error at an
    offset u = R - w depends on w only through l = w mod x_plus, has period
    x_plus in u, rises up to u = x_plus - l and falls back to 0 after it:
    the sup is beta sigma_d (f(l + u*) - f(l) - f(u*)) at
    u* = min(x_plus - l, 1 - w), with l = w when no limit binds.
    """
    check_number("cash weight", w, "[0, 1]")
    level = w % params.x_plus
    offset = min(params.x_plus - level, 1.0 - w)
    top = level + offset
    impact = params.beta_impact * params.sigma_daily
    return impact * (top * math.sqrt(top) - level * math.sqrt(level) - offset * math.sqrt(offset))


def max_approximation_error(params: BufferCostParams) -> float:
    """sup over buffer levels of ``approximation_error``: at l = m / 2 with
    m = min(x_plus, 1), beta sigma_d m^1.5 (1 - sqrt(1/2))."""
    m = min(params.x_plus, 1.0)
    return params.beta_impact * params.sigma_daily * m * math.sqrt(m) * (1.0 - math.sqrt(0.5))
