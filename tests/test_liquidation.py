import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lst import (
    UNREACHABLE,
    DomainError,
    Portfolio,
    RedemptionPortfolio,
    RedemptionShock,
    Security,
    asset_rst,
    build_schedule,
    daily_liquidation_profile,
    illiquid_assets,
    liquidation_ratio,
    liquidation_time,
    rcr_report,
    stressed_rcr,
    time_to_liquidity,
    tna,
)
from lst.liquidation import validated_limits
from lst.reverse import BISECTION_TOL
from conftest import random_portfolio

# Day-by-day share sales for the naive 20% pro-rata scenario on the demo fund.
PRO_RATA_SCHEDULE = [
    [20_000, 20_000, 10_000, 20_000, 15_100, 2_000, 360],
    [20_000, 20_000, 80, 20_000, 0, 1_500, 0],
    [20_000, 20_000, 0, 100, 0, 0, 0],
    [20_000, 20, 0, 0, 0, 0, 0],
    [7_020, 0, 0, 0, 0, 0, 0],
]


def pro_rata_20(fund):
    return RedemptionPortfolio(quantities=0.2 * fund.shares)


class TestBuildSchedule:
    def test_pro_rata_day_by_day(self, fund):
        schedule = build_schedule(fund, pro_rata_20(fund))
        assert schedule.horizon == 5
        np.testing.assert_allclose(schedule.sold, PRO_RATA_SCHEDULE, atol=1e-9)
        np.testing.assert_allclose(schedule.cumulative(),
                                   [87_020, 60_020, 10_080, 40_100, 15_100, 3_500, 360])

    def test_zero_redemption(self, fund):
        schedule = build_schedule(fund, RedemptionPortfolio(quantities=np.zeros(fund.n)))
        assert schedule.horizon == 0
        assert schedule.exhausted

    def test_waterfall_day_one_and_length(self, fund):
        schedule = build_schedule(fund, RedemptionPortfolio(quantities=fund.shares))
        np.testing.assert_allclose(schedule.sold[0],
                                   [20_000, 20_000, 10_000, 20_000, 20_000, 2_000, 1_000])
        # full liquidation completes on day 22; the published table pads a zero row at 23
        assert schedule.horizon == 22
        assert schedule.exhausted
        np.testing.assert_allclose(schedule.cumulative(), fund.shares)

    def test_oversell_rejected(self, fund):
        too_much = RedemptionPortfolio(quantities=fund.shares * 1.01)
        with pytest.raises(DomainError):
            build_schedule(fund, too_much)

    def test_never_oversell_property(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = random_portfolio(rng)
            q = RedemptionPortfolio(quantities=rng.uniform(0, 1, p.n) * p.shares)
            schedule = build_schedule(p, q, max_days=int(rng.integers(1, 40)))
            assert np.all(schedule.cumulative() <= q.quantities + 1e-9)
            assert np.all(schedule.sold <= p.daily_limits + 1e-9)
            assert np.all(schedule.sold >= 0)

    def test_matches_closed_form_oracle(self):
        # cumulative sales after h days must equal min(target, h * daily limit)
        rng = np.random.default_rng(32)
        for _ in range(50):
            p = random_portfolio(rng)
            q = RedemptionPortfolio(quantities=rng.uniform(0, 1, p.n) * p.shares)
            schedule = build_schedule(p, q, max_days=500)
            for h in (1, 2, 3, 5, 13):
                expected = np.minimum(q.quantities, h * p.daily_limits)
                np.testing.assert_allclose(schedule.cumulative(h), expected, atol=1e-6)

    def test_limit_override(self, fund):
        schedule = build_schedule(fund, pro_rata_20(fund), limits=0.5 * fund.daily_limits)
        np.testing.assert_allclose(schedule.sold[0][:4], [10_000, 10_000, 5_000, 10_000])

    def test_stuck_assets_flagged(self):
        p = Portfolio(securities=(Security("L", 100, 10, daily_limit=50),
                                  Security("F", 100, 10, daily_limit=0)))
        schedule = build_schedule(p, RedemptionPortfolio(quantities=np.array([100.0, 100.0])))
        assert schedule.stuck == ("F",)
        assert not schedule.exhausted


class TestLiquidationRatio:
    def test_naive_pro_rata_day_one(self, fund):
        schedule = build_schedule(fund, pro_rata_20(fund))
        assert 100 * liquidation_ratio(schedule, 1) == pytest.approx(52.53, abs=0.005)

    def test_full_liquidation_reaches_one(self, fund):
        schedule = build_schedule(fund, pro_rata_20(fund))
        assert liquidation_ratio(schedule, 5) == pytest.approx(1.0, abs=1e-12)
        assert liquidation_ratio(schedule, 9) == pytest.approx(1.0, abs=1e-12)

    def test_waterfall_day_five(self, fund):
        schedule = build_schedule(fund, RedemptionPortfolio(quantities=fund.shares))
        assert 100 * liquidation_ratio(schedule, 5) == pytest.approx(52.53, abs=0.005)

    def test_monotone_in_h(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            p = random_portfolio(rng)
            q = RedemptionPortfolio(quantities=rng.uniform(0.01, 1, p.n) * p.shares)
            schedule = build_schedule(p, q)
            ratios = [liquidation_ratio(schedule, h) for h in range(1, schedule.horizon + 2)]
            assert np.all(np.diff(ratios) >= -1e-12)

    def test_zero_value_rejected(self, fund):
        schedule = build_schedule(fund, RedemptionPortfolio(quantities=np.zeros(fund.n)))
        with pytest.raises(DomainError):
            liquidation_ratio(schedule, 1)


class TestLiquidationTime:
    def test_full_liquidation_week(self, fund):
        schedule = build_schedule(fund, pro_rata_20(fund))
        assert liquidation_time(schedule, 1.0) == 5

    def test_small_threshold_met_day_one(self, fund):
        schedule = build_schedule(fund, pro_rata_20(fund))
        assert liquidation_time(schedule, 1e-9) == 1

    def test_illiquid_position_takes_ninety_days(self, illiquid_fund):
        q = RedemptionPortfolio(quantities=illiquid_fund.shares)
        schedule = build_schedule(illiquid_fund, q)
        assert liquidation_time(schedule, 1.0) == 90

    def test_unreachable_within_horizon(self, fund):
        schedule = build_schedule(fund, pro_rata_20(fund), max_days=2)
        assert liquidation_time(schedule, 1.0) is UNREACHABLE

    def test_threshold_domain(self, fund):
        schedule = build_schedule(fund, pro_rata_20(fund))
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                liquidation_time(schedule, bad)


class TestDailyProfile:
    def test_two_day_single_asset(self):
        p = Portfolio(securities=(Security("X", 200, 10, daily_limit=100),))
        profile, residual = daily_liquidation_profile(p)
        np.testing.assert_allclose(profile, [0.5, 0.5])
        assert residual == 0.0

    def test_conservation(self, fund):
        profile, residual = daily_liquidation_profile(fund)
        assert residual == 0.0
        assert profile.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(profile >= -1e-15)

    def test_zero_limit_asset_reported_as_residual(self):
        p = Portfolio(securities=(Security("L", 100, 10, daily_limit=50),
                                  Security("F", 100, 10, daily_limit=0)))
        profile, residual = daily_liquidation_profile(p)
        assert residual == pytest.approx(0.5)
        assert profile.sum() == pytest.approx(0.5)

    def test_illiquid_fund_long_tail_shape(self, illiquid_fund):
        profile, residual = daily_liquidation_profile(illiquid_fund)
        assert residual == 0.0
        assert len(profile) == 90
        # significant liquidation over the first 22 days, then a thin tail
        assert profile[:22].sum() > 0.97
        assert np.all(profile[22:] < 0.001)

    def test_matches_schedule_differencing(self, illiquid_fund):
        # cross-check the closed form against a simulated full unwind
        p = illiquid_fund
        schedule = build_schedule(p, RedemptionPortfolio(quantities=p.shares), max_days=500)
        sold_value = schedule.sold @ p.prices / (p.shares @ p.prices)
        profile, _ = daily_liquidation_profile(p)
        np.testing.assert_allclose(profile, sold_value, atol=1e-12)


class TestIlliquidAssets:
    def test_published_thresholds(self, illiquid_fund):
        h_star, frac = illiquid_assets(illiquid_fund, 0.005)
        assert 100 * frac == pytest.approx(1.52, abs=0.005)
        h_star_1, frac_1 = illiquid_assets(illiquid_fund, 0.01)
        assert 100 * frac_1 == pytest.approx(2.50, abs=0.005)
        assert h_star_1 <= h_star

    def test_fully_liquid_portfolio(self):
        p = Portfolio(securities=(Security("X", 100, 10, daily_limit=100),))
        h_star, frac = illiquid_assets(p, 1e-6)
        assert frac == pytest.approx(0.0, abs=1e-12)
        assert h_star == 2

    def test_threshold_domain(self, fund):
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                illiquid_assets(fund, bad)


class TestValidation:
    def test_nan_limits_rejected(self, fund):
        limits = fund.daily_limits.copy()
        limits[2] = np.nan
        with pytest.raises(DomainError):
            build_schedule(fund, pro_rata_20(fund), limits=limits)


# =============================================================================
# Closed form against the day loop
# =============================================================================

def loop_schedule(q, cap, max_days):
    """Reference greedy day loop: sell min(remaining, cap) of each security per day.

    Returns (sold, exhausted) with sold of shape (days, n).
    """
    remaining = np.where(cap > 0, q, 0.0)
    rows = []
    while remaining.sum() > 1e-9 and len(rows) < max_days:
        today = np.minimum(remaining, cap)
        rows.append(today)
        remaining = remaining - today
    sold = np.array(rows).reshape(-1, len(q))
    exhausted = bool(remaining.sum() <= 1e-9) and not np.any((q > 0) & (cap == 0))
    return sold, exhausted


def loop_amounts(sold, prices, days):
    """Cash raised after each of days 1..days, flat once the loop stopped."""
    running, out = 0.0, np.zeros(days)
    for h in range(days):
        if h < len(sold):
            running += float(sold[h] @ prices)
        out[h] = running
    return out


def first_day(series, p):
    hit = np.flatnonzero(series >= p * (1 - 1e-12))
    return int(hit[0]) + 1 if hit.size else UNREACHABLE


def clear_of(series, p):
    """No value sits on the rounding edge of the first-crossing test."""
    edge = p * (1 - 1e-12)
    return not np.any(np.abs(series - edge) <= 1e-14 * edge)


@st.composite
def integral_cases(draw):
    """Integer shares, limits and targets: the day loop is exact on these.

    Targets mix arbitrary amounts, whole positions and exact multiples of the
    daily limit; limits include zeros (stuck names) and max_days may truncate.
    """
    n = draw(st.integers(1, 6))
    shares = [draw(st.integers(0, 200_000)) for _ in range(n)]
    shares[0] = max(shares[0], 1)
    caps = [draw(st.sampled_from([0, 1, 7, 1_000, 20_000]) | st.integers(0, 50_000)) for _ in range(n)]
    prices = [draw(st.floats(0.5, 2_000)) for _ in range(n)]
    q = []
    for s, c in zip(shares, caps):
        kind = draw(st.sampled_from(["any", "all", "multiple", "none"]))
        if kind == "any":
            q.append(draw(st.integers(0, s)))
        elif kind == "all":
            q.append(s)
        elif kind == "multiple":
            q.append(min(c * draw(st.integers(0, 40)), s))
        else:
            q.append(0)
    fund = Portfolio(securities=tuple(
        Security(f"S{i}", float(s), p, daily_limit=float(c))
        for i, (s, p, c) in enumerate(zip(shares, prices, caps))))
    return fund, np.array(q, dtype=float), draw(st.integers(1, 60))


PROPERTY = settings(max_examples=150, deadline=None)


class TestClosedFormMatchesDayLoop:
    @PROPERTY
    @given(integral_cases())
    def test_schedule_fields(self, case):
        fund, q, max_days = case
        schedule = build_schedule(fund, RedemptionPortfolio(quantities=q), max_days=max_days)
        sold, exhausted = loop_schedule(q, fund.daily_limits, max_days)
        assert schedule.horizon == len(sold)
        assert schedule.exhausted == exhausted
        assert schedule.stuck == tuple(
            fund.ids[i] for i in range(fund.n) if q[i] > 0 and fund.daily_limits[i] == 0)
        np.testing.assert_array_equal(schedule.sold, sold)
        for h in range(0, max_days + 2):
            np.testing.assert_array_equal(schedule.cumulative(h), sold[:h].sum(axis=0))

    @PROPERTY
    @given(integral_cases(), st.floats(0.01, 1.2), st.floats(0.01, 1.0))
    def test_rcr_and_first_crossing_days(self, case, p_rcr, p_lr):
        fund, q, horizon = case
        redemption = RedemptionPortfolio(quantities=q)
        value = float(q @ fund.prices)
        assume(value > 0)
        shock = RedemptionShock(rate=0.5, amount=0.5 * tna(fund))
        report = rcr_report(fund, shock, redemption, horizon=horizon)
        sold, _ = loop_schedule(q, fund.daily_limits, horizon)
        amounts = loop_amounts(sold, fund.prices, horizon)
        np.testing.assert_allclose(report.amount, amounts, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(report.rcr, amounts / shock.amount, rtol=1e-12, atol=1e-15)

        rcr = amounts / shock.amount
        assume(clear_of(rcr, p_rcr))
        assert time_to_liquidity(report, p_rcr) == first_day(rcr, p_rcr)

        lr = amounts[:len(sold)] / value
        assume(clear_of(lr, p_lr))
        assert liquidation_time(report.schedule, p_lr) == first_day(lr, p_lr)

    @PROPERTY
    @given(integral_cases())
    def test_rcr_non_decreasing_in_h_and_multiplier(self, case):
        fund, q, horizon = case
        assume(float(q @ fund.prices) > 0)
        shock = RedemptionShock(rate=0.5, amount=0.5 * tna(fund))
        report = rcr_report(fund, shock, RedemptionPortfolio(quantities=q), horizon=horizon)
        assert np.all(np.diff(report.rcr) >= -1e-12)
        multipliers = np.linspace(0.0, 1.0, 41)
        rcr_m = [stressed_rcr(fund, RedemptionPortfolio(quantities=q), shock.amount, horizon, m)
                 for m in multipliers]
        assert np.all(np.diff(rcr_m) >= 0.0)

    @PROPERTY
    @given(integral_cases())
    def test_profile_is_waterfall_sold_value(self, case):
        fund, _, _ = case
        profile, residual = daily_liquidation_profile(fund, max_days=10_000)
        sold, _ = loop_schedule(fund.shares, fund.daily_limits, 10_000)
        np.testing.assert_allclose(profile, sold @ fund.prices / tna(fund), rtol=0, atol=1e-12)
        assert profile.sum() + residual <= 1.0 + 1e-12  # below 1 only when truncated


def exact_asset_root(fund, rate, floor, tau):
    """Smallest m with sum_i P_i min(tau m cap_i, q_i) = floor * R, from the sorted breakpoints."""
    q, cap, price = rate * fund.shares, fund.daily_limits, fund.prices
    target = floor * rate * tna(fund)
    live = (cap > 0) & (q > 0)
    b = q[live] / (tau * cap[live])
    order = np.argsort(b)
    b, full, slope = b[order], (price * q)[live][order], (tau * price * cap)[live][order]
    done = np.concatenate(([0.0], np.cumsum(full)))
    rest = slope.sum() - np.concatenate(([0.0], np.cumsum(slope)))
    k = int(np.searchsorted(done[1:] + b * rest[1:], target))
    return (target - done[k]) / rest[k]


class TestAssetRstRoot:
    @PROPERTY
    @given(integral_cases(), st.floats(0.01, 1.0), st.floats(0.0, 1.0), st.integers(1, 5))
    def test_within_tol_of_exact_root(self, case, rate, where, tau):
        # a floor strictly between the coverages at m = tol and m = 1 has a root
        fund = case[0]
        q = RedemptionPortfolio(quantities=rate * fund.shares)
        shock = rate * tna(fund)
        low = stressed_rcr(fund, q, shock, tau, BISECTION_TOL)
        high = stressed_rcr(fund, q, shock, tau, 1.0)
        floor = min(max(low + where * (high - low), np.nextafter(low, np.inf)),
                    np.nextafter(high, -np.inf))
        assume(low < floor < high)  # no float between them: coverage flat in m
        res = asset_rst(fund, rate, floor, tau)
        assert isinstance(res, float)
        assert abs(res - exact_asset_root(fund, rate, floor, tau)) <= BISECTION_TOL


class TestRejectedInputs:
    @pytest.mark.parametrize("call, message", [
        (lambda f: liquidation_time(build_schedule(f, RedemptionPortfolio(quantities=np.zeros(f.n))),
                                    0.5),
         "^liquidation time undefined for a zero-value redemption$"),
        (lambda f: validated_limits(f, RedemptionPortfolio(quantities=np.zeros(f.n - 1)), 5),
         "^redemption portfolio does not match portfolio size$"),
        (lambda f: validated_limits(f, RedemptionPortfolio(quantities=np.zeros(f.n)), 5,
                                    limits=np.ones(f.n + 1)),
         "^limits must give one daily limit per security$"),
    ], ids=["zero-value-liquidation-time", "redemption-length", "limits-length"])
    def test_domain_error(self, fund, call, message):
        with pytest.raises(DomainError, match=message):
            call(fund)
