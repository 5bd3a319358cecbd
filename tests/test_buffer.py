import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lst import (
    BufferCostParams,
    BufferMarketParams,
    DomainError,
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

# Example cash-buffer cost set: 20bp spread, 1bp cash cost, 0.4 impact on a
# 20% annual volatility, no binding trading limit, uniform redemption law.
BASE = BufferCostParams(spread=20e-4, cash_cost=1e-4, beta_impact=0.4,
                        sigma=0.20, x_plus=1.0, eta=1.0)
LIMITED = BufferCostParams(spread=20e-4, cash_cost=1e-4, beta_impact=0.4,
                           sigma=0.20, x_plus=0.10, eta=1.0)
# Stressed variant: wider spread and higher volatility.
STRESSED = BufferCostParams(spread=50e-4, cash_cost=1e-4, beta_impact=0.4,
                            sigma=0.80, x_plus=0.10, eta=1.0)


def with_eta(params: BufferCostParams, eta: float) -> BufferCostParams:
    return BufferCostParams(spread=params.spread, cash_cost=params.cash_cost,
                            beta_impact=params.beta_impact, sigma=params.sigma,
                            x_plus=params.x_plus, eta=eta)


class TestBufferAnalytics:
    MARKET = BufferMarketParams(mu_asset=0.06, mu_cash=0.01, sigma_asset=0.20,
                                sigma_cash=0.02, rho=0.1, te_aversion=0.5)

    def test_no_buffer(self):
        a = buffer_analytics(self.MARKET, 0.0)
        assert a.expected_return == self.MARKET.mu_asset
        assert a.tracking_error == 0.0
        assert a.beta == 1.0
        assert a.info_ratio is None

    def test_all_cash_no_vol(self):
        market = BufferMarketParams(mu_asset=0.06, mu_cash=0.01, sigma_asset=0.20)
        a = buffer_analytics(market, 1.0)
        assert a.expected_return == pytest.approx(market.mu_cash)
        assert a.volatility == 0.0
        assert a.sharpe is None

    def test_zero_cash_vol_info_ratio_is_minus_asset_sharpe(self):
        market = BufferMarketParams(mu_asset=0.06, mu_cash=0.01, sigma_asset=0.20)
        for w in (0.1, 0.5, 0.9):
            a = buffer_analytics(market, w)
            assert a.info_ratio == pytest.approx(-(0.06 - 0.01) / 0.20, rel=1e-12)
            assert a.beta == pytest.approx(1.0 - w, rel=1e-12)
            assert a.tracking_error == pytest.approx(w * 0.20, rel=1e-12)

    def test_exact_variance_bilinear(self):
        a = buffer_analytics(self.MARKET, 0.3)
        m = self.MARKET
        var = (0.09 * m.sigma_cash**2 + 0.49 * m.sigma_asset**2
               + 2 * 0.3 * 0.7 * m.rho * m.sigma_cash * m.sigma_asset)
        assert a.volatility == pytest.approx(math.sqrt(var), rel=1e-12)
        assert a.excess_return == pytest.approx(-0.3 * 0.05, rel=1e-12)

    def test_weight_domain(self):
        with pytest.raises(DomainError):
            buffer_analytics(self.MARKET, 1.2)


class TestBufferAnalyticsAtExtremeVolatilities:
    """Volatilities the market params accept give a result or a DomainError:
    a float ``**`` once raised OverflowError, and a division by an
    underflowed sigma_asset**2 ZeroDivisionError."""

    @pytest.mark.parametrize("w, name", [(0.0, "blended"), (0.3, "blended"),
                                         (1.0, "tracking-error")])
    def test_a_variance_past_the_float_range_is_a_domain_error(self, w, name):
        market = BufferMarketParams(mu_asset=0.06, sigma_asset=1e200)
        with pytest.raises(DomainError, match=f"^{name} variance must be finite, got inf$"):
            buffer_analytics(market, w)

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
    def test_volatilities_whose_squares_underflow(self, rho):
        market = BufferMarketParams(mu_asset=0.06, sigma_asset=1e-200, sigma_cash=1e-200, rho=rho)
        for w in (0.0, 0.3, 1.0):
            a = buffer_analytics(market, w)
            assert a.beta == pytest.approx(1.0 - w * (1.0 - rho), rel=1e-15, abs=1e-15)
            assert a.expected_return == pytest.approx(0.06 * (1.0 - w))

    @pytest.mark.parametrize("sigma", [1e-162, 1e-160, 1e-200, 0.2])
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5, 1.0])
    def test_volatilities_keep_their_digits_when_their_squares_underflow(self, sigma, rho):
        # the volatilities scale with sigma, so each keeps every digit of the
        # sigma = 1 result, also where its square underflows (below about 1e-154)
        market = BufferMarketParams(mu_asset=0.06, sigma_asset=sigma, sigma_cash=2 * sigma, rho=rho)
        unit = buffer_analytics(BufferMarketParams(mu_asset=0.06, sigma_cash=2.0, sigma_asset=1.0, rho=rho), 0.3)
        a = buffer_analytics(market, 0.3)
        assert a.volatility == pytest.approx(sigma * unit.volatility, rel=4e-16)
        assert a.tracking_error == pytest.approx(sigma * unit.tracking_error, rel=4e-16)
        assert a.correlation == pytest.approx(unit.correlation, rel=4e-16)
        assert a.sharpe == pytest.approx(unit.sharpe / sigma, rel=4e-16)

@st.composite
def cost_params(draw):
    x_plus = draw(st.sampled_from([0.05, 0.1, 0.16, 0.3, 1.0, 1.5]) | st.floats(0.01, 2.0))
    return BufferCostParams(spread=draw(st.floats(0.0, 0.01)), cash_cost=1e-4,
                            beta_impact=draw(st.floats(0.0, 1.0)), sigma=draw(st.floats(0.0, 1.0)),
                            x_plus=x_plus, eta=1.0)


@st.composite
def params_and_sales(draw):
    params = draw(cost_params())
    multiples = st.integers(0, int(1.0 / params.x_plus)).map(lambda k: k * params.x_plus)
    sales = draw(st.lists(st.floats(0.0, 1.0) | multiples | st.floats(-0.5, 0.0) | st.just(1.0),
                          min_size=1, max_size=40))
    return params, sales


def additive_error(params, w, u):
    """|(TC(w + u) - TC(w)) - TC(u)| by three float calls."""
    return abs((tc_asset_sqrt(w + u, params) - tc_asset_sqrt(w, params)) - tc_asset_sqrt(u, params))


def approximation_error_loop(params, w, n_grid):
    """Reference: one float call per offset, the maximum taken in Python."""
    span = min(params.x_plus, 1.0 - w)
    if span <= 0:
        return 0.0
    return max(additive_error(params, w, u) for u in np.linspace(0.0, span, n_grid).tolist())


def rounding_allowance(params):
    """Eight units in the last place of TC(1): the loop's four float terms
    (three costs and the closed form) are each at most TC(1) and round by a
    few units in their last place. A unit in the last place, unlike eps
    times a value, keeps the underflow of subnormal costs."""
    return 8 * np.spacing(tc_asset_sqrt(1.0, params))


def worst_offset(params, w):
    """u* = min(x_plus - l, 1 - w) with l = w mod x_plus, where the additive
    error of the sale from w peaks."""
    return min(params.x_plus - w % params.x_plus, 1.0 - w)


class TestCostKernel:
    @settings(max_examples=200, deadline=None)
    @given(params_and_sales())
    def test_array_call_equals_float_calls(self, case):
        params, sales = case
        for f in (tc_asset_sqrt, tc_asset_derivative):
            vector = f(np.array(sales), params)
            assert vector.tolist() == [f(x, params) for x in sales], f.__name__

    def test_dense_sample_array_equals_float_calls(self):
        # dense enough to meet the roots that pow(x, 0.5) misrounds
        sales = np.random.default_rng(74).random(20_000)
        for params in (BASE, LIMITED):
            for f in (tc_asset_sqrt, tc_asset_derivative):
                assert f(sales, params).tolist() == [f(x, params) for x in sales.tolist()]

    @settings(max_examples=60, deadline=None)
    @given(cost_params(), st.floats(0.0, 1.0))
    def test_approximation_error_equals_loop(self, params, w):
        # the closed form is the sup: no grid offset beats it, and the loop
        # meets it at u*
        exact, allowance = approximation_error(params, w), rounding_allowance(params)
        assert approximation_error_loop(params, w, 2001) <= exact + allowance
        assert abs(additive_error(params, w, worst_offset(params, w)) - exact) <= allowance

    @settings(max_examples=30, deadline=None)
    @given(cost_params())
    def test_max_approximation_error_equals_loop(self, params):
        # the sup over levels is met at l = m / 2 and beaten at no level of
        # a grid over the fund
        exact, allowance = max_approximation_error(params), rounding_allowance(params)
        levels = np.linspace(0.0, 1.0, 9).tolist()
        assert max(approximation_error_loop(params, w, 201) for w in levels) <= exact + allowance
        peak = min(params.x_plus, 1.0) / 2
        assert abs(additive_error(params, peak, peak) - exact) <= allowance

    def test_published_maximum_errors(self):
        expected = {0.10: 4.5952868865501414e-05, 0.16: 9.300206760577417e-05,
                    0.17: 0.00010185585809953914, 0.30: 0.00023877811088579527,
                    0.90: 0.0012407274593685378}
        for x_plus, value in expected.items():
            params = BufferCostParams(spread=0.002, beta_impact=0.4, sigma=0.2,
                                      x_plus=x_plus, eta=2.0)
            assert max_approximation_error(params) == value, x_plus


class TestParameterDomain:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["spread", "cash_cost", "beta_impact", "sigma", "eta"])
    def test_cost_params_reject_non_finite(self, field, value):
        with pytest.raises(DomainError, match=field):
            BufferCostParams(**{"spread": 20e-4, field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mu_asset", "mu_cash", "sigma_asset", "sigma_cash",
                                       "te_aversion"])
    def test_market_params_reject_non_finite(self, field, value):
        with pytest.raises(DomainError, match=field):
            BufferMarketParams(**{"mu_asset": 0.01, field: value})


class TestTcAsset:
    def test_zero(self):
        assert tc_asset_sqrt(0.0, BASE) == 0.0

    def test_unlimited_band(self):
        # with a 20% vol and 20bp spread the full-sale cost stays under 70bp
        costs = [tc_asset_sqrt(x, BASE) for x in np.linspace(0.01, 1.0, 100)]
        assert 0.0 < max(costs) <= 70e-4
        assert max(costs) == costs[-1]

    def test_limited_equals_per_day_sum(self):
        # 25% under a 10% daily limit: two full days plus a 5% residual day
        params = LIMITED
        sig = params.sigma_daily
        full_day = 0.10 * (params.spread + 0.4 * sig * math.sqrt(0.10))
        residual = 0.05 * (params.spread + 0.4 * sig * math.sqrt(0.05))
        assert tc_asset_sqrt(0.25, params) == pytest.approx(2 * full_day + residual, rel=1e-12)

    def test_exact_multiple_has_no_extra_day(self):
        params = LIMITED
        sig = params.sigma_daily
        full_day = 0.10 * (params.spread + 0.4 * sig * math.sqrt(0.10))
        assert tc_asset_sqrt(0.30, params) == pytest.approx(3 * full_day, rel=1e-10)

    def test_derivative_matches_finite_differences(self):
        for params in (BASE, LIMITED):
            for x in (0.03, 0.12, 0.27, 0.61):
                fd = (tc_asset_sqrt(x + 1e-7, params) - tc_asset_sqrt(x - 1e-7, params)) / 2e-7
                assert tc_asset_derivative(x, params) == pytest.approx(fd, rel=1e-5)


class TestExpectedGain:
    def test_zero_buffer_gains_nothing(self):
        for params in (BASE, LIMITED):
            assert expected_lg_exact(params, 0.0) == 0.0
            assert expected_lg_approx(params, 0.0) == 0.0

    def test_closed_form_matches_quadrature_at_uniform_law(self):
        # the printed closed form coincides with the defining integral at eta = 1
        for w in (0.1, 0.4, 0.7, 0.95):
            assert expected_lg_exact(BASE, w) == pytest.approx(
                expected_lg_quadrature(BASE, w), rel=1e-9)

    def test_asset_component_vanishes_at_endpoints(self):
        for eta in (0.5, 1.0, 2.0, 3.0):
            params = with_eta(BASE, eta)
            assert expected_lg_components_closed(params, 0.0)[1] == pytest.approx(0.0, abs=1e-15)
            assert expected_lg_components_closed(params, 1.0)[1] == pytest.approx(0.0, abs=1e-15)
            quad0 = expected_lg_components_quadrature(params, 1.0)
            assert quad0[1] == pytest.approx(0.0, abs=1e-12)

    def test_optimum_uniform_law(self):
        market = BufferMarketParams(mu_asset=0.0)
        w = optimal_cash_buffer(market, BASE)
        assert 100 * w == pytest.approx(96.67, abs=0.1)

    def test_approx_monotone_and_close_under_trading_limit(self):
        grid = np.linspace(0.0, 1.0, 41)
        values = [expected_lg_approx(LIMITED, float(w)) for w in grid]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
        gaps = [abs(v - expected_lg_quadrature(LIMITED, float(w)))
                for w, v in zip(grid, values)]
        assert max(gaps) <= 1e-4  # within one basis point everywhere

    def test_approx_closed_form_matches_numeric_integral(self):
        # the piecewise closed form equals int_0^w TC dF + TC(w)(1 - F(w))
        from scipy import integrate

        for eta in (0.5, 1.0, 2.0, 3.0, 1.7):
            params = with_eta(LIMITED, eta)
            for w in (0.05, 0.1, 0.23, 0.5, 0.9):
                head, _ = integrate.quad(
                    lambda x: tc_asset_sqrt(x, params) * params.redemption_pdf(x),
                    0, w, points=[k * 0.1 for k in range(1, 10) if k * 0.1 < w] or None,
                    epsabs=1e-13, limit=300)
                expected = head + tc_asset_sqrt(w, params) * (1 - w**eta)
                assert expected_lg_approx(params, w) == pytest.approx(expected, rel=1e-8)

    def test_derivative_sign_pattern_of_exact_gain(self):
        # increasing at 0 and 1/2, decreasing just before full cash
        for params in (BASE, LIMITED, with_eta(BASE, 2.0)):
            eps = 1e-4
            low = (expected_lg_exact(params, eps) - expected_lg_exact(params, 0.0)) / eps
            mid = expected_lg_derivative(params, 0.5, method="fd")
            high = (expected_lg_exact(params, 1.0) - expected_lg_exact(params, 1.0 - 1e-3)) / 1e-3
            assert low > 0
            assert mid > 0
            assert high < 0

    def test_monte_carlo_matches_quadrature(self):
        # covers a binding limit, a heavy-redemption law and a singular density
        cases = ((LIMITED, 0.3), (with_eta(BASE, 2.0), 0.6), (with_eta(LIMITED, 0.5), 0.15))
        for params, w in cases:
            mean, stderr = simulate_lg(params, w, n=1_000_000, seed=20210901)
            target = expected_lg_quadrature(params, w)
            assert abs(mean - target) <= 3 * stderr

    def test_power_law_pdf_is_zero_at_no_redemption(self):
        # eta x^(eta - 1) has a pole at 0 for eta < 1; no redemption has density 0
        for eta in (0.5, 1.0, 2.0):
            assert with_eta(BASE, eta).redemption_pdf(0.0) == 0.0
        assert with_eta(BASE, 2.0).redemption_pdf(0.25) == 0.5


@st.composite
def limited_gain_cases(draw):
    x_plus = draw(st.floats(0.02, 0.99))
    params = BufferCostParams(spread=draw(st.floats(0.0, 0.01)), cash_cost=draw(st.floats(0.0, 1e-3)),
                              beta_impact=draw(st.floats(0.0, 1.0)), sigma=draw(st.floats(0.0, 1.0)),
                              x_plus=x_plus, eta=draw(st.floats(0.3, 4.0)))
    k = st.integers(0, int(1.0 / x_plus))
    kinks = k.map(lambda k: k * x_plus) | k.map(lambda k: 1.0 - k * x_plus)
    weights = st.floats(0.0, 1.0) | kinks.map(lambda w: min(max(w, 0.0), 1.0))
    return params, draw(st.lists(weights, min_size=1, max_size=4))


def optimal_buffer_by_quadrature(market, params):
    """Reference: the optimizer's scan, refine and tie rule on the quadrature gain."""
    from scipy import optimize

    premium = market.mu_asset - market.mu_cash

    def nbc(w):
        return (w * premium + 0.5 * market.te_aversion * w * w * market.te_variance_unit
                - expected_lg_quadrature(params, w))

    grid = np.arange(0.0, 1.0005, 1e-3).tolist()
    values = [nbc(w) for w in grid]
    best = int(np.argmin(values))
    res = optimize.minimize_scalar(lambda w: nbc(float(np.clip(w, 0.0, 1.0))),
                                   bounds=(grid[max(best - 1, 0)], grid[min(best + 1, 1000)]),
                                   method="bounded", options={"xatol": 1e-9})
    candidates = [(values[best], grid[best]), (res.fun, res.x), (nbc(0.0), 0.0), (nbc(1.0), 1.0)]
    lowest = min(v for v, _ in candidates)
    return min(w for v, w in candidates if v <= lowest + 1e-15)


class TestClosedFormGain:
    @settings(max_examples=100, deadline=None)
    @given(limited_gain_cases())
    def test_equals_quadrature(self, case):
        # abs: the quadrature oracle is asked for 1e-13 absolute accuracy only
        params, weights = case
        values = expected_lg_exact(params, np.array(weights))
        assert values.tolist() == [expected_lg_exact(params, w) for w in weights]
        for w, value in zip(weights, values.tolist()):
            assert value == pytest.approx(expected_lg_quadrature(params, w), rel=1e-9, abs=1e-13), w

    @pytest.mark.parametrize("x_plus", [0.9, 0.3, 0.1, 0.03])
    @pytest.mark.parametrize("eta", [0.5, 0.7, 2.0, 3.0])
    @pytest.mark.parametrize("spread", [20e-4, 50e-4])
    def test_zero_buffer_gains_exactly_nothing(self, x_plus, eta, spread):
        # without the w = 0 guard some of these leave a residue of about 1e-19
        params = with_eta(BufferCostParams(spread=spread, cash_cost=1e-4, beta_impact=0.4,
                                           sigma=0.20, x_plus=x_plus), eta)
        assert expected_lg_exact(params, 0.0) == 0.0
        assert expected_lg_exact(params, np.array([0.0, 0.5]))[0] == 0.0
        market = BufferMarketParams(mu_asset=0.01, sigma_asset=0.2, te_aversion=1.0)
        assert net_buffer_cost(market, params, np.array([0.0]))[0] == 0.0

    @pytest.mark.parametrize("x_plus", [0.1, 1.0])
    @pytest.mark.parametrize("eta", [0.3, 1.0, 4.0])
    def test_subnormal_buffer_gains_nothing(self, x_plus, eta):
        params = with_eta(BufferCostParams(spread=20e-4, cash_cost=1e-4, beta_impact=0.4,
                                           sigma=0.20, x_plus=x_plus), eta)
        for w in (5e-324, 1e-300):
            assert expected_lg_exact(params, w) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("market, params", [
        (BufferMarketParams(mu_asset=0.0, sigma_asset=0.20),
         with_eta(BufferCostParams(spread=20e-4, cash_cost=1e-4, beta_impact=0.4,
                                   sigma=0.20, x_plus=0.9), 2.0)),
        (BufferMarketParams(mu_asset=0.002, sigma_asset=0.20, te_aversion=0.5),
         with_eta(BufferCostParams(spread=20e-4, cash_cost=1e-4, beta_impact=0.4,
                                   sigma=0.20, x_plus=0.5), 0.7)),
    ])
    def test_optimum_equals_quadrature_scan(self, market, params):
        # agreement to the six digits lst buffer prints
        assert optimal_cash_buffer(market, params) == pytest.approx(
            optimal_buffer_by_quadrature(market, params), abs=1e-6)

    def test_tiny_trading_limit_finishes_in_bounded_time(self):
        params = with_eta(BufferCostParams(spread=20e-4, cash_cost=1e-4, beta_impact=0.4,
                                           sigma=0.20, x_plus=1e-3), 2.0)
        market = BufferMarketParams(mu_asset=0.0)
        start = time.perf_counter()
        w = optimal_cash_buffer(market, params)
        assert time.perf_counter() - start < 30.0
        grid = np.linspace(0.0, 1.0, 101)
        assert net_buffer_cost(market, params, w) <= net_buffer_cost(market, params, grid).min()


class TestNetBufferCost:
    def test_zero_buffer_costs_nothing(self):
        market = BufferMarketParams(mu_asset=0.01, sigma_asset=0.20, te_aversion=1.0)
        assert net_buffer_cost(market, BASE, 0.0) == 0.0

    def test_large_premium_keeps_cost_increasing(self):
        # normal-period costs cannot pay for a 1% premium drag
        market = BufferMarketParams(mu_asset=0.01)
        for params in (BASE, LIMITED):
            grid = np.linspace(0, 1, 21)
            values = [net_buffer_cost(market, params, float(w)) for w in grid]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_asset_return_fills_the_fund_with_cash(self):
        market = BufferMarketParams(mu_asset=-0.01)
        assert optimal_cash_buffer(market, BASE) == pytest.approx(1.0, abs=1e-9)

    def test_stressed_limit_case_buffer_near_trading_limit(self):
        # uniform redemptions (mean 50%), stressed costs, 10% daily limit:
        # the optimum sits at the trading-limit kink (~10%); the approximate
        # gain puts it exactly there
        market = BufferMarketParams(mu_asset=0.01)
        w = optimal_cash_buffer(market, STRESSED)
        assert abs(w - 0.10) < 0.015
        grid = np.arange(0.0, 1.0001, 1e-3)
        approx_nbc = [0.01 * w_ - expected_lg_approx(STRESSED, float(w_)) for w_ in grid]
        assert grid[int(np.argmin(approx_nbc))] == pytest.approx(0.10, abs=1e-9)

    def test_unlimited_case_matches_published_mean_redemption(self):
        # without a trading limit the same buffer level becomes optimal at a
        # mean redemption rate near 23%
        market = BufferMarketParams(mu_asset=0.01)
        eta = 0.23 / 0.77
        params = BufferCostParams(spread=50e-4, cash_cost=1e-4, beta_impact=0.4,
                                  sigma=0.80, x_plus=1.0, eta=eta)
        assert params.expected_redemption == pytest.approx(0.23, rel=1e-12)
        w = optimal_cash_buffer(market, params)
        assert abs(w - 0.10) < 0.015

    @pytest.mark.parametrize("eta", [200.0, 1e308])
    def test_non_finite_grid_cost_names_eta(self, eta):
        # an eta above specialfuncs.ETA_MAX is rejected when the costs are built,
        # before the expected gain can overflow at small w (from about eta = 150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match=rf"^eta must lie in \(0, 12\], got {re.escape(repr(eta))}$"):
                with_eta(BASE, eta)

    def test_non_finite_grid_cost_is_a_domain_error(self):
        # costs near the float limit overflow the grid at every eta
        params = BufferCostParams(spread=1e308, beta_impact=1e308, sigma=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"not finite .* at eta = 1\.0$"):
                optimal_cash_buffer(BufferMarketParams(mu_asset=0.01), params)

    def test_higher_premium_wipes_out_the_buffer(self):
        market = BufferMarketParams(mu_asset=0.025)
        for eta in (0.5, 1.0, 3.0):
            params = with_eta(STRESSED, eta)
            grid = np.linspace(0, 1, 21)
            baseline = net_buffer_cost(market, params, 0.0)
            assert all(net_buffer_cost(market, params, float(w)) >= baseline - 1e-15
                       for w in grid[1:])


class TestBreakEvenPremium:
    def test_at_zero_independent_of_aversion(self):
        for lam in (0.0, 0.5, 5.0):
            market = BufferMarketParams(mu_asset=0.01, sigma_asset=0.3, te_aversion=lam)
            value = break_even_premium(market, LIMITED, 0.0)
            reference = break_even_premium(
                BufferMarketParams(mu_asset=0.01, sigma_asset=0.3), LIMITED, 0.0)
            assert value == pytest.approx(reference, rel=1e-12)

    def test_approx_derivative_is_nonnegative(self):
        market = BufferMarketParams(mu_asset=0.01)
        for w in np.linspace(0, 0.99, 34):
            value = break_even_premium(market, LIMITED, float(w), method="approx")
            assert value >= -1e-15
            expected = tc_asset_derivative(float(w), LIMITED) * (1 - LIMITED.redemption_cdf(float(w)))
            assert value == pytest.approx(expected, rel=1e-12)

    def test_approx_matches_derivative_of_approx_gain(self):
        h = 1e-6
        for w in (0.03, 0.27, 0.64):
            fd = (expected_lg_approx(LIMITED, w + h) - expected_lg_approx(LIMITED, w - h)) / (2 * h)
            analytic = expected_lg_derivative(LIMITED, w, method="approx")
            assert analytic == pytest.approx(fd, abs=1e-6)

    def test_both_paths_agree_in_the_accurate_regime(self):
        # the gain levels agree within 1bp; the slopes can disagree a few bp
        # locally around the trading-limit kinks
        for w in (0.02, 0.25, 0.55):
            approx = expected_lg_derivative(LIMITED, w, method="approx")
            exact = expected_lg_derivative(LIMITED, w, method="fd")
            assert approx == pytest.approx(exact, abs=6e-4)

    def test_decision_rule_consistency(self):
        # setting the premium exactly to rho(w0) makes w0 the optimum
        params = with_eta(BASE, 2.0)
        for w0 in (0.3, 0.6):
            market0 = BufferMarketParams(mu_asset=0.0)
            rho = break_even_premium(market0, params, w0, method="fd")
            market = BufferMarketParams(mu_asset=rho)
            w_star = optimal_cash_buffer(market, params)
            assert abs(w_star - w0) < 1e-3


@st.composite
def one_path_cases(draw):
    x_plus = draw(st.sampled_from([1.0, 1.5]) | st.floats(0.02, 0.99))
    params = BufferCostParams(spread=draw(st.floats(0.0, 0.01)), cash_cost=draw(st.floats(0.0, 1e-3)),
                              beta_impact=draw(st.floats(0.0, 1.0)), sigma=draw(st.floats(0.0, 1.0)),
                              x_plus=x_plus, eta=draw(st.floats(0.1, 12.0)))
    market = BufferMarketParams(mu_asset=draw(st.floats(-0.01, 0.01)), sigma_asset=0.2,
                                sigma_cash=0.01, te_aversion=draw(st.floats(0.0, 5.0)))
    weights = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1e-6, 1.0 - 1e-6, 1.0, 5e-324])
    return market, params, draw(st.lists(weights, min_size=1, max_size=12))


class TestOnePath:
    """A float takes the array path: an array call equals its float calls bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(one_path_cases())
    def test_array_call_equals_float_calls(self, case):
        market, params, weights = case
        calls = {
            "exact": lambda w: expected_lg_exact(params, w),
            "approx": lambda w: expected_lg_approx(params, w),
            "slope-approx": lambda w: expected_lg_derivative(params, w, method="approx"),
            "slope-fd": lambda w: expected_lg_derivative(params, w, method="fd"),
            "break-even": lambda w: break_even_premium(market, params, w),
            "net-cost": lambda w: net_buffer_cost(market, params, w),
            "cash-cost": lambda w: tc_cash(w, params),
        }
        if params.unlimited:
            calls["closed-cash"] = lambda w: expected_lg_components_closed(params, w)[0]
            calls["closed-asset"] = lambda w: expected_lg_components_closed(params, w)[1]
        for name, call in calls.items():
            floats = [call(w) for w in weights]
            assert all(type(v) is float for v in floats), name
            assert call(np.array(weights)).tolist() == floats, name


class TestApproximationError:
    def test_max_error_below_one_bp_up_to_sixteen_percent(self):
        for x_plus in (0.05, 0.10, 0.14, 0.16):
            params = BufferCostParams(spread=20e-4, beta_impact=0.4, sigma=0.20,
                                      x_plus=x_plus, eta=1.0)
            assert max_approximation_error(params) <= 1e-4

    def test_max_error_exceeds_one_bp_above_sixteen_percent(self):
        for x_plus in (0.17, 0.20, 0.30):
            params = BufferCostParams(spread=20e-4, beta_impact=0.4, sigma=0.20,
                                      x_plus=x_plus, eta=1.0)
            assert max_approximation_error(params) > 1e-4

    def test_cyclical_in_the_buffer_level(self):
        for x_plus in (0.10, 0.20, 0.30):
            params = BufferCostParams(spread=20e-4, beta_impact=0.4, sigma=0.20,
                                      x_plus=x_plus, eta=1.0)
            for w in (0.2 * x_plus, 0.7 * x_plus):
                base = approximation_error(params, w)
                k = 1
                while w + (k + 1) * x_plus <= 1.0:
                    shifted = approximation_error(params, w + k * x_plus)
                    assert abs(shifted - base) <= 1e-12
                    k += 1


@st.composite
def optimum_cases(draw):
    """A premium and power-law costs at the CLI's defaults, with or without a
    trading limit and a tracking-error aversion."""
    x_plus = draw(st.just(1.0) | st.floats(0.02, 0.99))
    params = BufferCostParams(spread=20e-4, cash_cost=1e-4, beta_impact=0.4, sigma=0.20,
                              x_plus=x_plus, eta=draw(st.floats(0.3, 4.0)))
    market = BufferMarketParams(mu_asset=draw(st.floats(-1e-3, 3e-3)), sigma_asset=0.20,
                                te_aversion=draw(st.sampled_from([0.0, 0.5, 2.0])))
    return market, params


class TestOptimumRefine:
    @pytest.mark.parametrize("x_plus", [1.0, 0.3])
    def test_costs_come_from_few_array_calls(self, x_plus, monkeypatch):
        from lst import buffer

        calls = []

        def spy(market, params, w):
            calls.append(w)
            return net_buffer_cost(market, params, w)

        monkeypatch.setattr(buffer, "net_buffer_cost", spy)
        params = BufferCostParams(spread=20e-4, cash_cost=1e-4, beta_impact=0.4, sigma=0.20,
                                  x_plus=x_plus, eta=2.0)
        optimal_cash_buffer(BufferMarketParams(mu_asset=1e-4, sigma_asset=0.20), params)
        assert all(isinstance(w, np.ndarray) for w in calls)
        assert 1 < len(calls) <= 1 + 7  # the scan, then one call per finer grid

    @pytest.mark.parametrize("eta, mu, x_plus", [
        (eta, mu, 1.0) for eta in (0.5, 1.0, 2.0, 3.0) for mu in (0.0, 1e-4)] + [(2.0, 0.0, 0.9)])
    def test_no_worse_than_scipy_bounded(self, eta, mu, x_plus):
        # scipy's bounded Brent method at xatol 1e-9 on the bracket the finer
        # grids narrow, for the CLI's buffer defaults
        from scipy import optimize

        market = BufferMarketParams(mu_asset=mu, sigma_asset=0.20)
        params = BufferCostParams(spread=20e-4, cash_cost=1e-4, beta_impact=0.4, sigma=0.20,
                                  x_plus=x_plus, eta=eta)
        grid = np.arange(0.0, 1.0005, 1e-3)
        best = int(np.argmin(net_buffer_cost(market, params, grid)))

        def nbc(w):
            return net_buffer_cost(market, params, np.array([min(max(w, 0.0), 1.0)]))[0]

        brent = optimize.minimize_scalar(nbc, bounds=(grid[best - 1], grid[best + 1]),
                                         method="bounded", options={"xatol": 1e-9}).x
        w = optimal_cash_buffer(market, params)
        assert w == pytest.approx(brent, abs=1e-7)
        assert nbc(w) <= nbc(brent)

    @settings(max_examples=40, deadline=None)
    @given(optimum_cases())
    def test_no_worse_than_the_scan(self, case):
        # 1e-15: the tie rule may pick a smaller weight within that of the lowest cost
        market, params = case
        w = optimal_cash_buffer(market, params)
        assert 0.0 <= w <= 1.0
        scan = net_buffer_cost(market, params, np.arange(0.0, 1.0005, 1e-3))
        assert net_buffer_cost(market, params, np.array([w]))[0] <= scan.min() + 1e-15

    def test_all_zero_costs_keep_no_cash(self):
        params = BufferCostParams(spread=0.0)
        assert optimal_cash_buffer(BufferMarketParams(mu_asset=0.0), params) == 0.0

    def test_negative_premium_holds_only_cash(self):
        assert optimal_cash_buffer(BufferMarketParams(mu_asset=-0.01), BASE) == 1.0


@st.composite
def monte_carlo_cases(draw):
    """Cost parameters, a cash weight and a simulation seed. Without a
    trading limit the reference closed form keeps its published
    eta*s*w*(1-w) asset leg, which is the expectation only at eta = 1. The
    weight is drawn by its redemption probability F(w) = w^eta >= 1e-3, so
    that 10^5 draws see a hundred redemptions below it: a rarer event moves
    the mean without showing in the standard error."""
    x_plus = draw(st.floats(0.02, 0.99) | st.sampled_from([0.05, 0.1, 1.0, 1.5]))
    eta = 1.0 if x_plus >= 1.0 else draw(st.floats(0.3, 4.0) | st.just(1.0))
    params = BufferCostParams(spread=draw(st.floats(1e-4, 0.01)), cash_cost=draw(st.floats(0.0, 1e-3)),
                              beta_impact=draw(st.floats(0.0, 1.0)), sigma=draw(st.floats(0.0, 1.0)),
                              x_plus=x_plus, eta=eta)
    w = draw(st.floats(1e-3, 1.0)) ** (1.0 / eta)
    return params, w, draw(st.integers(0, 2**32 - 1))


class TestMonteCarloProperty:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(monte_carlo_cases())
    def test_simulation_agrees_with_the_exact_gain(self, case):
        params, w, seed = case
        mean, stderr = simulate_lg(params, w, n=100_000, seed=seed)
        assert abs(mean - expected_lg_exact(params, w)) <= 4 * stderr


class TestRejectedInputs:
    @pytest.mark.parametrize("call, message", [
        (lambda: BufferMarketParams(mu_asset=0.01, rho=2.0), r"^correlation must lie in \[-1, 1\], got 2\.0$"),
        (lambda: BufferCostParams(spread=20e-4, x_plus=0.0), "^trading limit must be positive$"),
        (lambda: BufferCostParams(spread=20e-4, eta=12.5), r"^eta must lie in \(0, 12\], got 12\.5$"),
        (lambda: tc_asset_sqrt(1.5, BASE), "^cannot liquidate more than the whole fund$"),
        (lambda: expected_lg_components_closed(LIMITED, 0.5), "^closed form requires x_plus >= 1$"),
        (lambda: expected_lg_derivative(BASE, 0.5, method="central"), "^unknown method 'central'$"),
        (lambda: break_even_premium(BufferMarketParams(mu_asset=0.01), LIMITED, 0.5, method="exact"),
         "^unknown method 'exact'$"),
        # a NaN weight read as a chord over [0, 1], and w = 2 as a negative slope
        (lambda: expected_lg_derivative(BufferCostParams(spread=0.002), math.nan),
         r"^cash weight must lie in \[0, 1\], got nan$"),
        (lambda: expected_lg_derivative(BufferCostParams(spread=0.002, x_plus=0.1), 2.0),
         r"^cash weight must lie in \[0, 1\], got 2\.0$"),
        (lambda: expected_lg_derivative(BufferCostParams(spread=0.002, x_plus=0.1), math.nan),
         r"^cash weight must lie in \[0, 1\], got nan$"),
        (lambda: tc_asset_sqrt(math.nan, BASE), "^sale must be finite, got nan$"),
        (lambda: tc_asset_sqrt(np.array([0.1, math.nan]), LIMITED), "^sale must be finite, got nan$"),
        (lambda: tc_asset_derivative(math.nan, LIMITED), "^sale must be finite, got nan$"),
        (lambda: tc_cash(math.nan, BASE), "^sale must be finite, got nan$"),
        (lambda: simulate_lg(BASE, 0.5, n=1), "^n must be an integer of at least 2, got 1$"),
        (lambda: simulate_lg(BASE, 0.5, n=0), "^n must be an integer of at least 2, got 0$"),
    ], ids=["market-rho", "zero-limit", "eta-above-bound", "sale-above-fund",
            "closed-form-limited", "derivative-method",
            "break-even-method", "derivative-weight-nan",
            "derivative-weight-above-one-limited", "derivative-weight-nan-limited", "sale-nan",
            "sale-array-nan", "slope-sale-nan", "cash-sale-nan", "simulate-one-draw",
            "simulate-no-draws"])
    def test_domain_error(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()


class TestNonFiniteInputs:
    @pytest.mark.parametrize("call, message", [
        (lambda: simulate_lg(BASE, math.nan, n=10), r"^cash weight must lie in \[0, 1\], got nan$"),
        (lambda: simulate_lg(BASE, math.inf, n=10), r"^cash weight must lie in \[0, 1\], got inf$"),
        (lambda: tc_cash(math.inf, BASE), "^sale must be finite, got inf$"),
        (lambda: tc_cash(-math.inf, BASE), "^sale must be finite, got -inf$"),
        (lambda: tc_asset_sqrt(-math.inf, BASE), "^sale must be finite, got -inf$"),
        (lambda: tc_asset_derivative(math.inf, LIMITED), "^sale must be finite, got inf$"),
        (lambda: tc_asset_derivative(-math.inf, LIMITED), "^sale must be finite, got -inf$"),
        (lambda: tc_cash(np.array([0.1, -math.inf]), BASE), "^sale must be finite, got -inf$"),
        (lambda: BufferMarketParams(mu_asset=0.01, rho=math.nan),
         r"^correlation must lie in \[-1, 1\], got nan$"),
    ], ids=["simulate-nan", "simulate-inf", "cash-inf", "cash-minus-inf", "sqrt-minus-inf",
            "slope-inf", "slope-minus-inf", "cash-array", "rho-nan"])
    def test_rejected_by_name(self, call, message):
        # each returned a number: nan, 0.0 or a Monte-Carlo mean
        with pytest.raises(DomainError, match=message):
            call()

    def test_a_negative_finite_sale_still_sells_nothing(self):
        assert tc_cash(-0.5, BASE) == 0.0
        assert tc_asset_sqrt(-0.5, BASE) == 0.0
