"""Each liquidation curve is sorted once: a schedule keeps the value curve
behind ``amounts``, a portfolio keeps its waterfall curve, which the daily
profile and the illiquid-asset measure read, every curve at a portfolio's
own limits starts from the waterfall's order, and the liability RST and the
waterfall admissible shock read A(tau) as one sum. Every value is compared
with the same formula on a curve sorted afresh, bit for bit."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lst import (
    UNREACHABLE,
    CostModel,
    DomainError,
    Portfolio,
    RedemptionPortfolio,
    RedemptionShock,
    Security,
    asset_rst,
    build_schedule,
    daily_liquidation_profile,
    evaluate_policy,
    illiquid_assets,
    liability_rst,
    liquidation_time,
    max_admissible_shock,
    optimal_pro_rata,
    optimize_policy,
    rcr_report,
    tna,
    waterfall_portfolio,
    weights,
)
from lst.liquidation import _curve, _evaluate, _raised, _waterfall
from conftest import tied_columns, with_limits

ALPHA = np.array([0.20, 0.30, 0.0, 0.15, 0.0, 0.0, 0.0])
EPS = np.finfo(float).eps


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@st.composite
def funds(draw, min_n=1, max_n=12):
    """Columns of a random fund: some names unheld, some with a zero daily
    limit, limits from a sliver of a position to more than all of it."""
    n = draw(st.integers(min_n, max_n))
    shares = draw(st.lists(st.sampled_from([0]) | st.integers(1, 10**6), min_size=n, max_size=n))
    prices = draw(st.lists(st.floats(0.01, 2000.0), min_size=n, max_size=n))
    limits = draw(st.lists(st.sampled_from([0.0]) | st.floats(1e-3, 2e6), min_size=n, max_size=n))
    assume(sum(s * p for s, p in zip(shares, prices)) > 0)
    return dict(shares=shares, price=prices, daily_limit=limits, daily_volume=[0.0] * n,
                volatility=[0.0] * n, spread=[0.0] * n)


def from_columns(columns) -> Portfolio:
    return Portfolio.from_columns([f"S{i}" for i in range(len(columns["shares"]))], columns)


def from_securities(columns) -> Portfolio:
    rows = zip(*(columns[k] for k in ("shares", "price", "daily_limit")))
    return Portfolio([Security(id=f"S{i}", shares=s, price=p, daily_limit=c)
                      for i, (s, p, c) in enumerate(rows)])


def reference_liquidation_time(schedule, p):
    """``liquidation_time`` on a value curve sorted afresh."""
    total = schedule.target.value(schedule.portfolio)
    days = np.arange(1, schedule.horizon + 1)
    cum = _evaluate(_curve(schedule.sellable, schedule.cap, schedule.portfolio.prices), days)
    hit = np.flatnonzero(cum >= p * total * (1 - 1e-12))
    return int(hit[0]) + 1 if hit.size else UNREACHABLE


def reference_profile(portfolio, max_days):
    """``daily_liquidation_profile`` with its waterfall curve sorted afresh:
    np.diff(W(0..H)) / TNA, H the last finishing day rounded up, at most
    ``max_days``; the residual is the weight of the names with no daily limit."""
    shares, cap, prices = portfolio.shares, portfolio.daily_limits, portfolio.prices
    live = cap > 0
    with np.errstate(over="ignore"):  # inf: a name that never finishes
        horizon = math.ceil(min((shares[live] / cap[live]).max(), max_days)) if live.any() else 0
    profile = np.diff(_evaluate(_curve(shares, cap, prices), np.arange(horizon + 1))) / tna(portfolio)
    return profile, float(weights(portfolio)[cap == 0].sum())


def reference_illiquid(portfolio, w_star):
    """``illiquid_assets`` by scanning the daily profile of the whole unwind,
    np.diff(W(0..H)) / TNA on a waterfall curve sorted afresh, 2^16 days at a
    time: the first day with a weight <= w_star. The scan reaches the day
    after the last name that finishes, which sells only names that never do."""
    block = 2**16
    curve = _curve(portfolio.shares, portfolio.daily_limits, portfolio.prices)
    finite = curve[0][np.isfinite(curve[0])]
    end = math.ceil(finite.max()) + 1 if finite.size else 1
    for start in range(1, end + 1, block):
        days = np.arange(start - 1, min(start + block, end + 1))
        below = np.flatnonzero(np.diff(_evaluate(curve, days)) / tna(portfolio) <= w_star + 1e-15)
        if below.size:
            h_star = start + int(below[0])
            return h_star, 1.0 - float(_evaluate(curve, [h_star - 1])[0]) / tna(portfolio)
    raise AssertionError("the profile never falls to w_star")


def reference_curve(sellable, cap, prices):
    """A value curve sorted afresh by one full stable argsort: ``(t, full,
    rest, order)``, with ``order`` the live indices in that order."""
    live = cap > 0
    with np.errstate(over="ignore"):  # inf: a name that never finishes
        t = sellable[live] / cap[live]
    order = np.argsort(t, kind="stable")
    full = np.concatenate(([0.0], np.cumsum((prices[live] * sellable[live])[order])))
    rate = (prices[live] * cap[live])[order]
    rest = np.concatenate((np.cumsum(rate[::-1])[::-1], [0.0]))
    return t[order], full, rest, np.flatnonzero(live)[order]


def same_curve(got, want) -> bool:
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want)) \
        and len(got) == len(want) == 4


#: A position and a daily limit whose finishing day shares/cap overflows to inf.
NEVER = (1e300, 1e-10)


@st.composite
def tied_funds(draw, max_n=3000):
    """A portfolio from ``tied_columns``, n up to ``max_n``, where up to
    three names may never finish: shares/cap overflows to inf, so they tie
    with each other at inf (one of them a hair larger, so their keys tie
    where their shares do not)."""
    n = draw(st.sampled_from([1, 2, 3]) | st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = tied_columns(rng, n)
    never = rng.choice(n, draw(st.integers(0, min(n, 3))), replace=False)
    shares, cap = NEVER
    columns["shares"][never] = [np.nextafter(shares, np.inf) if k % 2 else shares
                                for k in range(len(never))]
    columns["daily_limit"][never] = cap
    return from_columns(columns)


#: Slice factors: 0 (every key 0), 1, factors that round many one-ulp pairs
#: of shares equal (0.8 and 0.6 at shares in [2^k, 1.25 * 2^k)), and any.
SLICES = st.sampled_from([0.0, 1.0, 0.8, 0.6, 0.1, 0.2]) | st.floats(0.0, 1.0)


class TestKeptOrder:
    @settings(max_examples=150, deadline=None)
    @given(tied_funds(), st.lists(SLICES, min_size=1, max_size=4))
    def test_hinted_curve_is_the_fresh_stable_sort(self, portfolio, slices):
        shares, cap, prices = portfolio.shares, portfolio.daily_limits, portfolio.prices
        hint = _waterfall(portfolio)[3]
        assert same_curve(_waterfall(portfolio), reference_curve(shares, cap, prices))
        for c in slices:
            q = c * shares
            assert same_curve(_curve(q, cap, prices, hint), reference_curve(q, cap, prices))
            schedule = build_schedule(portfolio, RedemptionPortfolio(quantities=q))
            assert same_curve(schedule._value_curve,
                              reference_curve(schedule.sellable, cap, prices))

    def test_a_tie_of_scaled_keys_goes_back_to_index_order(self):
        # shares/cap puts name 1 first; 0.8 * shares rounds both keys equal,
        # so the stable sort lists name 0 first
        shares = np.array([np.nextafter(1.5, 2.0), 1.5])
        cap, prices = np.ones(2), np.array([3.0, 7.0])
        hint = _curve(shares, cap, prices)[3]
        assert hint.tolist() == [1, 0]
        q = 0.8 * shares
        assert q[0] == q[1]
        got = _curve(q, cap, prices, hint)
        assert got[3].tolist() == [0, 1]
        assert same_curve(got, reference_curve(q, cap, prices))
        # an empty slice: every key is 0, one run in index order
        zero = _curve(0.0 * shares, cap, prices, hint)
        assert zero[3].tolist() == [0, 1]
        assert same_curve(zero, reference_curve(0.0 * shares, cap, prices))

    @settings(max_examples=60, deadline=None)
    @given(tied_funds(max_n=400), SLICES, st.floats(0.1, 3.0), st.data())
    def test_stressed_limits_sort_afresh(self, portfolio, c, scale, data):
        # other limits may make other names live: a copy at those limits
        # sorts its own waterfall afresh, and its schedules start from it
        n = portfolio.n
        own = portfolio.daily_limits
        revived = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        limits = np.where(np.array(revived) & (own == 0), 50.0, scale * own)
        stressed = with_limits(portfolio, limits)
        q = RedemptionPortfolio(quantities=c * portfolio.shares)
        schedule = build_schedule(stressed, q)
        assert schedule.cap is stressed.daily_limits
        assert same_curve(schedule._value_curve,
                          reference_curve(schedule.sellable, schedule.cap, portfolio.prices))

    def test_a_name_live_only_under_stressed_limits_is_on_the_curve(self):
        columns = dict(shares=[100.0, 50.0, 70.0], price=[10.0, 20.0, 5.0],
                       daily_limit=[10.0, 0.0, 7.0], daily_volume=[0, 0, 0],
                       volatility=[0, 0, 0], spread=[0, 0, 0])
        stressed = with_limits(from_columns(columns), [0.0, 25.0, 7.0])
        schedule = build_schedule(stressed, RedemptionPortfolio(quantities=stressed.shares))
        assert schedule._value_curve[3].tolist() == [1, 2]
        assert bits(schedule.amounts(3)) == bits([500.0 + 35.0, 1000.0 + 70.0, 1000.0 + 105.0])

    def test_a_daily_weight_that_underflows_stays_on_the_profile(self):
        # name 1 is live at its limit, though its daily weight
        # cap * price / TNA rounds to 0: the profile reads it off the
        # waterfall, in value units, and it is no residual
        columns = dict(shares=[100.0, 1e6, 70.0], price=[10.0, 1e-30, 5.0],
                       daily_limit=[10.0, 1e-300, 7.0], daily_volume=[0, 0, 0],
                       volatility=[0, 0, 0], spread=[0, 0, 0])
        portfolio = from_columns(columns)
        assert _waterfall(portfolio)[3].tolist() == [0, 2, 1]
        for max_days in (5, 10, 260):
            profile, residual = daily_liquidation_profile(portfolio, max_days)
            want, want_residual = reference_profile(portfolio, max_days)
            assert len(profile) == max_days and residual == want_residual == 0.0
            assert bits(profile) == bits(want)
        assert illiquid_assets(portfolio, 1e-3) == reference_illiquid(portfolio, 1e-3)

    @settings(max_examples=30, deadline=None)
    @given(tied_funds(max_n=50))
    def test_waterfall_is_kept_once_read_only_and_per_portfolio(self, portfolio):
        assert portfolio._waterfall is None
        curve = _waterfall(portfolio)
        build_schedule(portfolio, RedemptionPortfolio(quantities=portfolio.shares)).amounts(5)
        daily_liquidation_profile(portfolio)
        illiquid_assets(portfolio, 1e-3)
        assert _waterfall(portfolio) is curve
        for a in curve:
            assert not a.flags.writeable
        twin = with_limits(portfolio, portfolio.daily_limits)
        assert _waterfall(twin) is not curve and same_curve(_waterfall(twin), curve)


class TestScheduleCurve:
    @settings(max_examples=120, deadline=None)
    @given(funds(), st.floats(0.0, 1.0), st.integers(1, 400),
           st.lists(st.integers(1, 500), min_size=1, max_size=4),
           st.lists(st.sampled_from([1.0, 0.5]) | st.floats(1e-6, 1.0), min_size=1, max_size=4))
    def test_amounts_and_liquidation_time_equal_a_fresh_sort(self, columns, rate, max_days,
                                                             days, thresholds):
        portfolio = from_columns(columns)
        q = RedemptionPortfolio(quantities=rate * portfolio.shares)
        schedule = build_schedule(portfolio, q, max_days=max_days)
        prices = portfolio.prices
        for d in days + days:  # every length twice: the second read is off the kept curve
            # days before the horizon off a fresh sort, capped at the one sum at the
            # horizon, which the rest read
            head = np.arange(1, min(d + 1, schedule.horizon))
            last = schedule.amount(schedule.horizon)
            amounts = schedule.amounts(d)
            assert bits(amounts[:head.size]) == bits(
                np.minimum(_evaluate(_curve(schedule.sellable, schedule.cap, prices), head), last))
            assert bits(amounts[head.size:]) == bits(np.full(d - head.size, last))
        if schedule.target.value(portfolio) > 0:
            for p in thresholds:
                assert liquidation_time(schedule, p) == reference_liquidation_time(schedule, p)

    @settings(max_examples=50, deadline=None)
    @given(funds())
    def test_curve_is_built_once_and_read_only(self, columns):
        portfolio = from_columns(columns)
        schedule = build_schedule(portfolio, RedemptionPortfolio(quantities=portfolio.shares))
        schedule.amounts(3)
        curve = schedule._value_curve
        schedule.amounts(7)
        assert schedule._value_curve is curve
        for a in curve:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_zero_limits_sell_nothing(self):
        columns = dict(shares=[100, 50], price=[10.0, 20.0], daily_limit=[0.0, 0.0],
                       daily_volume=[0, 0], volatility=[0, 0], spread=[0, 0])
        schedule = build_schedule(from_columns(columns),
                                  RedemptionPortfolio(quantities=[100.0, 50.0]), max_days=5)
        assert schedule.stuck == ("S0", "S1")
        assert bits(schedule.amounts(5)) == bits(np.zeros(5))
        assert liquidation_time(schedule, 0.5) is UNREACHABLE

    @settings(max_examples=200, deadline=None)
    @given(funds(), st.integers(0, 5))
    def test_a_sold_out_waterfall_reads_full_coverage_exactly(self, columns, extra):
        # every held name sells out by about day 50: from the horizon on, the table
        # reads the sum the net assets are, so LR and RCR are 1.0 and LS is 0.0
        columns["daily_limit"] = [max(c, s / 50) for s, c in zip(columns["shares"],
                                                                   columns["daily_limit"])]
        portfolio = from_columns(columns)
        shock = RedemptionShock.from_rate(portfolio, 1.0)
        schedule = build_schedule(portfolio, waterfall_portfolio(portfolio))
        assert schedule.exhausted
        report = rcr_report(portfolio, shock, waterfall_portfolio(portfolio),
                            horizon=schedule.horizon + extra)
        tail = slice(schedule.horizon - 1, None)
        assert np.all(report.lr[tail] == 1.0) and np.all(report.rcr[tail] == 1.0)
        assert np.all(report.ls[tail] == 0.0)
        assert np.all(np.diff(report.amount) >= 0.0)

    @pytest.mark.parametrize("rows", [
        [(480.01, 0.55, 447.04), (958.56, 21.3, 378.26), (317.96, 31.76, 314.77),
         (402.68, 46.78, 108.28)],
        [(353.92, 43.43, 61.87), (592.0, 6.87, 536.56), (236.07, 23.62, 114.96),
         (802.4, 14.22, 186.9)],
    ], ids=["ended-one-ulp-below", "ended-one-ulp-above"])
    def test_the_table_ends_where_the_sold_out_day_reads(self, rows):
        # the curve's prefix sums ended these tables at 1 -/+ 2^-53 (LS 1.1e-16)
        portfolio = Portfolio([Security(f"S{i}", s, p, daily_limit=c, daily_volume=c)
                               for i, (s, p, c) in enumerate(rows)])
        report = rcr_report(portfolio, RedemptionShock.from_rate(portfolio, 1.0),
                            waterfall_portfolio(portfolio), horizon=12)
        assert report.row(12) == {"h": 12, "lr": 1.0, "amount": tna(portfolio), "rcr": 1.0,
                                  "ls": 0.0}


class TestAmountWithoutSchedule:
    @settings(max_examples=120, deadline=None)
    @given(funds(), st.data(), st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 2.0),
           st.integers(1, 40))
    def test_liability_rst_is_the_raised_sum(self, columns, data, floor, tau):
        portfolio = from_columns(columns)
        n = portfolio.n
        alpha = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                            min_size=n, max_size=n)))
        q = alpha * portfolio.shares
        cap, prices = portfolio.daily_limits, portfolio.prices
        res = liability_rst(portfolio, alpha, floor, tau)
        want = _raised(tau, cap, q, prices)
        assert res.amount == want / floor
        assert res.rate == want / floor / tna(portfolio)
        # a schedule ends on its first sold-out day, so it reads the same sum
        assert build_schedule(portfolio, RedemptionPortfolio(quantities=q),
                              max_days=tau).amount(tau) == want

    @settings(max_examples=120, deadline=None)
    @given(funds(), st.integers(1, 40))
    def test_waterfall_admissible_shock_is_the_raised_sum(self, columns, tau):
        portfolio = from_columns(columns)
        shares, cap, prices = portfolio.shares, portfolio.daily_limits, portfolio.prices
        want = _raised(tau, cap, shares, prices)
        assert max_admissible_shock(portfolio, tau, "waterfall") == want / tna(portfolio)
        assert build_schedule(portfolio, RedemptionPortfolio(quantities=shares),
                              max_days=tau).amount(tau) == want

    @settings(max_examples=50, deadline=None)
    @given(funds().map(lambda c: dict(c, daily_limit=[x or 1.0 for x in c["daily_limit"]])))
    def test_fully_liquid_fund_absorbs_exactly_its_net_assets(self, columns):
        portfolio = from_columns(columns)
        tau = int(np.ceil((portfolio.shares / portfolio.daily_limits).max())) + 1
        assert max_admissible_shock(portfolio, tau, "waterfall") == 1.0

    def test_a_hair_past_a_whole_day_sells_out_the_next_day(self):
        # each position finishes a hair past a whole day, so the schedule is
        # sold out on day 20, and it reads all net assets, as the sum does
        columns = dict(shares=[473189.0, 511822.0, 755167.0],
                       price=[82.94255678822374, 41.51071450054697, 55.40977507963289],
                       daily_limit=[24904.68421052629, 511821.9999999998, 251722.33333333323],
                       daily_volume=[0, 0, 0], volatility=[0, 0, 0], spread=[0, 0, 0])
        portfolio = from_columns(columns)
        schedule = build_schedule(portfolio, RedemptionPortfolio(quantities=portfolio.shares),
                                  max_days=20)
        assert (schedule.horizon, schedule.exhausted) == (20, True)
        assert bits(schedule.cumulative(20)) == bits(portfolio.shares)
        assert schedule.amount(20) / tna(portfolio) == 1.0 == \
            max_admissible_shock(portfolio, 20, "waterfall")
        assert liability_rst(portfolio, np.ones(3), 1.0, 20).rate == 1.0

    def test_liability_rst_on_the_demo_fund(self, fund):
        # the published liability table's amounts, through the direct sum
        for tau in range(1, 6):
            q = ALPHA * fund.shares
            schedule = build_schedule(fund, RedemptionPortfolio(quantities=q), max_days=tau)
            assert liability_rst(fund, ALPHA, 0.5, tau).amount == schedule.amount(tau) / 0.5


class TestUnwindCurve:
    @settings(max_examples=150, deadline=None)
    @given(funds(), st.sampled_from([5e-4, 1e-3, 2e-3, 0.05]) | st.floats(1e-6, 0.5),
           st.lists(st.sampled_from([260, 10_000]) | st.integers(1, 600), min_size=1, max_size=4),
           st.booleans())
    def test_profile_and_illiquid_equal_a_fresh_sort(self, columns, w_star, horizons, securities):
        build = from_securities if securities else from_columns
        portfolio = build(columns)
        for max_days in horizons + horizons[::-1]:
            profile, residual = daily_liquidation_profile(portfolio, max_days)
            want, want_residual = reference_profile(portfolio, max_days)
            assert bits(profile) == bits(want) and residual == want_residual
        # the illiquid day of the whole unwind, then the profile's default
        # horizon, in the stress report's order
        assert illiquid_assets(portfolio, w_star) == reference_illiquid(portfolio, w_star)
        profile, _ = daily_liquidation_profile(portfolio)
        assert bits(profile) == bits(reference_profile(portfolio, 260)[0])

    @settings(max_examples=50, deadline=None)
    @given(funds(min_n=2), st.floats(0.1, 10.0))
    def test_two_portfolios_never_share_a_curve(self, columns, scale):
        # same ids and holdings, other limits: each reads its own curve
        first = from_columns(columns)
        other = dict(columns, daily_limit=[scale * c for c in columns["daily_limit"]])
        second = from_columns(other)
        twin = from_securities(columns)
        for p in (first, second, twin):
            profile, _ = daily_liquidation_profile(p)
            assert bits(profile) == bits(reference_profile(p, 260)[0])
            assert illiquid_assets(p, 1e-3) == reference_illiquid(p, 1e-3)
        assert first._waterfall is not second._waterfall and first._waterfall is not twin._waterfall
        assert first._waterfall[0] is not twin._waterfall[0]
        for a in first._waterfall:
            assert not a.flags.writeable

    def test_a_name_that_never_finishes_runs_the_profile_to_max_days(self):
        # shares / cap of name 0 overflows to inf: it never finishes, so the
        # profile runs to max_days, and the illiquid day is read off the
        # curve, all without a numpy warning
        columns = dict(shares=[1e300, 10.0], price=[1.0, 1.0], daily_limit=[1e-10, 5.0],
                       daily_volume=[0, 0], volatility=[0, 0], spread=[0, 0])
        portfolio = from_columns(columns)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _waterfall(portfolio)[0].tolist() == [2.0, math.inf]
            for max_days in (1, 3, 260):
                profile, residual = daily_liquidation_profile(portfolio, max_days)
                want, want_residual = reference_profile(portfolio, max_days)
                assert len(profile) == max_days and bits(profile) == bits(want)
                assert residual == want_residual == 0.0
            assert len(daily_liquidation_profile(portfolio)[0]) == 260
            assert illiquid_assets(portfolio, 1e-3) == (1, 1.0) == reference_illiquid(portfolio, 1e-3)

    # (shares, price, daily limit) of each name, w_star, and the illiquid day
    # and fraction by hand; the day is h = ceil(t[j-1]) or h + 1
    @pytest.mark.parametrize("names, w_star, h_star, fraction", [
        ([(100, 1, 10), (100, 1, 50)], 0.5, 1, 1.0),     # j = 0: day 1 is already below
        ([(100, 1, 10), (100, 1, 50)], 0.1, 3, 0.4),     # whole days: day 3 sells 0.05
        ([(100, 1, 10), (100, 1, 50)], 1e-12, 11, 0.0),  # the day after the last name finishes
        ([(100, 1, 30), (100, 1, 100)], 0.2, 2, 0.35),   # h = 1 sells 0.65: h + 1
        ([(100, 1, 30), (100, 1, 100)], 0.1, 4, 0.05),   # the residue day 4 sells 0.05
        ([(100, 1, 30), (100, 1, 100)], 0.05, 4, 0.05),  # w_star equal to that residue
        ([(100, 1, 30), (100, 1, 100)], 0.04, 5, 0.0),   # the residue is above: h + 1
        ([(100, 1, 0), (100, 1, 25)], 0.1, 5, 0.5),      # a name with no limit never sells
        ([(0, 1, 10), (100, 1, 20)], 0.1, 6, 0.0),       # a name with no shares
        ([(100, 1, 10), (50, 2, 5)], 0.05, 11, 0.0),     # two names finish on day 10
    ], ids=["above-every-day", "whole-days", "tiny-w-star", "first-day-above",
            "residue-below", "residue-equal", "residue-above", "zero-limit", "zero-shares",
            "tied-finish"])
    def test_the_illiquid_day_by_hand(self, names, w_star, h_star, fraction):
        portfolio = Portfolio([Security(f"S{i}", s, p, daily_limit=c)
                               for i, (s, p, c) in enumerate(names)])
        got = illiquid_assets(portfolio, w_star)
        assert got == reference_illiquid(portfolio, w_star)
        assert got[0] == h_star and got[1] == pytest.approx(fraction, abs=1e-15)

    def test_a_million_day_unwind_is_read_to_its_end(self):
        # name A sells 5e-7 of net assets a day, above w_star, until day 10^6:
        # a profile cut at 10,000 days read (10001, 0.495)
        portfolio = Portfolio([Security("A", 1e6, 1.0, daily_limit=1.0),
                               Security("B", 1e6, 1.0, daily_limit=1e6)])
        assert illiquid_assets(portfolio, 1e-7) == (1_000_001, 0.0) == \
            reference_illiquid(portfolio, 1e-7)

    @settings(max_examples=60, deadline=None)
    @given(funds(), st.integers(10_001, 10**6), st.floats(1.0, 2000.0), st.floats(0.01, 0.99))
    def test_an_unwind_past_ten_thousand_days_equals_the_whole_scan(self, columns, days, price,
                                                                   share):
        # one more name sells 10^6 shares over about ``days`` days, and w_star
        # is ``share`` of its daily weight: no day before it finishes is at or
        # below w_star
        extra = dict(shares=1e6, price=price, daily_limit=1e6 / days, daily_volume=0.0,
                     volatility=0.0, spread=0.0)
        portfolio = from_columns({k: list(v) + [extra[k]] for k, v in columns.items()})
        w_star = share * price * 1e6 / days / tna(portfolio)
        h_star, fraction = illiquid_assets(portfolio, w_star)
        assert h_star > 10_000
        assert (h_star, fraction) == reference_illiquid(portfolio, w_star)

    def test_a_new_portfolio_starts_without_a_curve(self, fund):
        columns = dict(shares=fund.shares, price=fund.prices, daily_limit=fund.daily_limits,
                       daily_volume=fund.daily_volumes, volatility=fund.volatilities,
                       spread=fund.spreads)
        assert Portfolio.from_columns(fund.ids, columns)._waterfall is None
        assert Portfolio(fund.securities)._waterfall is None


BAD_DAYS = [0, -3, 2.5, 2.0, float("nan"), float("inf"), True, "3", None, np.float64(2.0)]


class TestDayCountsAndTolerance:
    @pytest.mark.parametrize("tau", BAD_DAYS, ids=repr)
    def test_bad_day_counts_are_domain_errors(self, fund, tau):
        calls = (lambda: liability_rst(fund, ALPHA, 0.5, tau),
                 lambda: asset_rst(fund, 0.1, 0.5, tau),
                 lambda: optimal_pro_rata(fund, tau),
                 lambda: max_admissible_shock(fund, tau, "optimal"),
                 lambda: max_admissible_shock(fund, tau, "waterfall"))
        for call in calls:
            with pytest.raises(DomainError, match="tau_h must be an integer of at least 1"):
                call()

    # one rule, ``check_days``, for the day counts of the liquidation analytics
    # and the policy horizon: 0, a negative or a fractional count is an error
    @pytest.mark.parametrize("days", BAD_DAYS, ids=repr)
    def test_bad_profile_max_days(self, fund, days):
        with pytest.raises(DomainError, match="max_days must be an integer of at least 1"):
            daily_liquidation_profile(fund, days)

    @pytest.mark.parametrize("days", BAD_DAYS, ids=repr)
    def test_bad_schedule_max_days(self, fund, days):
        with pytest.raises(DomainError, match="max_days must be an integer of at least 1"):
            build_schedule(fund, RedemptionPortfolio(quantities=fund.shares), max_days=days)

    @pytest.mark.parametrize("w_star", [0.0, -0.0, -1e-9, 1.5, float("inf"), float("-inf"),
                                        np.float64(0.0), np.float64(1.0)], ids=repr)
    def test_bad_illiquid_assets_w_star(self, fund, w_star):
        message = rf"^w_star must lie in \(0, 1\), got {re.escape(repr(float(w_star)))}$"
        with pytest.raises(DomainError, match=message):
            illiquid_assets(fund, w_star)

    # the published multipliers are those of 20 halvings of [0, 1] down to
    # BISECTION_TOL: the result, the midpoint of the last bracket, is an odd
    # multiple of 2^-21
    @pytest.mark.parametrize("rate, floor, tau", [(0.1, 0.5, 2), (0.05, 0.9, 5), (0.1, 0.5, 1)])
    def test_the_bisection_stops_after_twenty_halvings(self, fund, rate, floor, tau):
        res = asset_rst(fund, rate, floor, tau)
        assert isinstance(res, float)
        k = res * 2**21
        assert k == int(k) and int(k) % 2 == 1

    @pytest.mark.parametrize("days", BAD_DAYS, ids=repr)
    def test_bad_evaluation_horizon(self, fund, days):
        q = RedemptionPortfolio(quantities=0.1 * fund.shares)
        with pytest.raises(DomainError, match="horizon must be an integer of at least 1"):
            evaluate_policy(fund, CostModel(), q, horizon=days)

    @pytest.mark.parametrize("days", BAD_DAYS, ids=repr)
    def test_bad_optimizer_horizon(self, fund, days):
        shock = RedemptionShock.from_rate(fund, 0.10)
        with pytest.raises(DomainError, match="horizon must be an integer of at least 1"):
            optimize_policy(fund, CostModel(), shock, 20e-4, 0.10, horizon=days)

    def test_numpy_integers_are_day_counts(self, fund):
        for days in (np.int64(3), np.int32(3)):
            assert bits(daily_liquidation_profile(fund, days)[0]) == \
                bits(daily_liquidation_profile(fund, 3)[0])
            q = RedemptionPortfolio(quantities=0.1 * fund.shares)
            assert evaluate_policy(fund, CostModel(), q, days) == evaluate_policy(fund, CostModel(), q, 3)
        for tau in (np.int64(3), np.int32(3)):
            assert liability_rst(fund, ALPHA, 0.5, tau) == liability_rst(fund, ALPHA, 0.5, 3)
            assert asset_rst(fund, 0.1, 0.5, tau) == asset_rst(fund, 0.1, 0.5, 3)
            assert optimal_pro_rata(fund, tau)[0] == optimal_pro_rata(fund, 3)[0]
            assert max_admissible_shock(fund, tau, "waterfall") == \
                max_admissible_shock(fund, 3, "waterfall")


def reference_horizon(sellable, cap, max_days):
    """``(horizon, done)`` by a linear scan over days: the first h in
    0..max_days on which every name is sold out, h * cap >= sellable, at
    most ``max_days``, and whether every name is sold out then."""
    sold_out = (np.arange(max_days + 1.0)[:, None] * cap >= sellable).all(axis=1)
    horizon = int(np.argmax(sold_out)) if sold_out.any() else max_days
    return horizon, bool(sold_out[horizon])


@st.composite
def horizon_cases(draw):
    """Positions and limits over many magnitudes: shares from 1e-12 to 1e15
    (an ulp of 1e15 exceeds 1e-9), limits down to 1e-12 and zero, names that
    never finish (inf), and positions a few ulps of 1e-9 shares past a whole
    number of days."""
    n = draw(st.integers(1, 8))
    shares, caps = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["any", "whole", "residue", "never", "stuck"]))
        cap = draw(st.sampled_from([1e-12, 1.0, 0.5, 3.0, 7.0]) | st.floats(1e-12, 1e6))
        if kind == "any":
            q = draw(st.sampled_from([0.0, 1e-12, 1e15]) | st.floats(1e-12, 1e15))
        elif kind == "whole":  # k full days, or a hair over or under
            k = draw(st.integers(0, 12_000))
            q = k * cap * (1 + draw(st.sampled_from([0.0, EPS, -EPS, 1e-12])))
        elif kind == "residue":  # 1e-9 shares, give or take a few ulps, after k days
            cap = draw(st.sampled_from([1.0, 0.5, 2.0, 0.25]))  # k * cap is exact
            k = draw(st.integers(0, 12_000))
            ulps = draw(st.integers(-4, 4))
            q = k * cap + 1e-9 * (1 + ulps * EPS) / n
        elif kind == "never":
            q, cap = NEVER
        else:
            cap = 0.0
            q = draw(st.floats(1e-12, 1e15))
        shares.append(max(q, 0.0))
        caps.append(cap)
    max_days = draw(st.sampled_from([1, 2, 260, 10_000]) | st.integers(1, 10_000))
    rate = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.0, 1.0))
    columns = dict(shares=shares, price=[1.0] * n, daily_limit=caps, daily_volume=[0.0] * n,
                   volatility=[0.0] * n, spread=[0.0] * n)
    return from_columns(columns), rate, max_days


class TestHorizonRule:
    """The horizon is read off the last finishing day, one day either side
    at most, and must equal the linear scan ``reference_horizon``."""

    @settings(max_examples=400, deadline=None)
    @given(horizon_cases())
    def test_horizon_and_exhausted_equal_the_linear_scan(self, case):
        portfolio, rate, max_days = case
        q = RedemptionPortfolio(quantities=rate * portfolio.shares)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            schedule = build_schedule(portfolio, q, max_days=max_days)
        horizon, done = reference_horizon(schedule.sellable, schedule.cap, max_days)
        assert schedule.horizon == horizon
        assert schedule.exhausted == (done and not schedule.stuck)
        if schedule.exhausted:
            assert bits(schedule.cumulative(horizon)) == bits(schedule.sellable)

    def test_residues_at_done_tol(self):
        # 1e-9 shares, give or take an ulp, are left after 3 days: day 4
        # sells them, unless max_days cuts the schedule first
        cap = np.array([1.0])
        for residue in (np.nextafter(1e-9, 0.0), 1e-9, np.nextafter(1e-9, 1.0)):
            columns = dict(shares=[3.0 + residue], price=[1.0], daily_limit=cap,
                           daily_volume=[0.0], volatility=[0.0], spread=[0.0])
            portfolio = from_columns(columns)
            for max_days in (1, 3, 4, 260):
                schedule = build_schedule(portfolio, RedemptionPortfolio(quantities=portfolio.shares),
                                          max_days=max_days)
                assert (schedule.horizon, schedule.exhausted) == \
                    reference_horizon(schedule.sellable, cap, max_days) == \
                    (min(4, max_days), max_days >= 4)

    @pytest.mark.parametrize("shares, cap, horizon", [
        # finishes 1e-10 shares past day 3: day 4 sells the rest
        (3.0 + 1e-10, 1.0, 4),
        # shares/cap rounds to 6.0, yet six days leave an ulp of the
        # position (0.5 shares) unsold: day 7 ends it
        (4039593111535853.5, 673265518589308.9, 7),
    ], ids=["1e-10-past-day-3", "an-ulp-past-day-6"])
    def test_a_residue_takes_one_more_day(self, shares, cap, horizon):
        columns = dict(shares=[shares], price=[1.0], daily_limit=[cap],
                       daily_volume=[0.0], volatility=[0.0], spread=[0.0])
        portfolio = from_columns(columns)
        schedule = build_schedule(portfolio, RedemptionPortfolio(quantities=portfolio.shares))
        assert (schedule.horizon, schedule.exhausted) == (horizon, True) == \
            reference_horizon(schedule.sellable, schedule.cap, 260)
        assert bits(schedule.cumulative(horizon)) == bits(portfolio.shares)


class TestKeptNetAssets:
    @settings(max_examples=60, deadline=None)
    @given(funds())
    def test_kept_tna_is_the_dot_product(self, columns):
        portfolio = from_columns(columns)
        assert portfolio._tna is None
        value = tna(portfolio)
        want = float(portfolio.shares @ portfolio.prices)
        assert value.hex() == want.hex() and portfolio._tna.hex() == want.hex()
        assert tna(portfolio).hex() == want.hex()

    def test_tna_reads_the_kept_value(self, fund):
        portfolio = Portfolio(fund.securities)
        value = tna(portfolio)
        assert value == float(portfolio.shares @ portfolio.prices)
        portfolio._tna = 2.5  # no second dot product: the kept value is read
        assert tna(portfolio) == 2.5

    def test_a_fund_with_no_net_assets_raises_on_every_call(self):
        columns = dict(shares=[0.0, 0.0], price=[10.0, 20.0], daily_limit=[1.0, 1.0],
                       daily_volume=[0, 0], volatility=[0, 0], spread=[0, 0])
        portfolio = from_columns(columns)
        for _ in range(3):
            with pytest.raises(DomainError, match="total net assets must be positive"):
                tna(portfolio)
            with pytest.raises(DomainError, match="total net assets must be positive"):
                weights(portfolio)

    @settings(max_examples=30, deadline=None)
    @given(funds(), st.floats(0.1, 10.0))
    def test_two_portfolios_never_share_the_value(self, columns, scale):
        first = from_columns(columns)
        other = from_columns(dict(columns, shares=[scale * s for s in columns["shares"]]))
        twin = from_securities(columns)
        for p in (first, other, twin):
            assert tna(p).hex() == float(p.shares @ p.prices).hex()
        assert other._tna == float(other.shares @ other.prices)
        assert twin._tna is not None and Portfolio(twin.securities)._tna is None


class TestWaterfallScheduleSharesTheCurve:
    @settings(max_examples=60, deadline=None)
    @given(tied_funds(max_n=400))
    def test_the_waterfall_table_reads_the_kept_curve(self, portfolio):
        shock = RedemptionShock.from_rate(portfolio, 0.2)
        report = rcr_report(portfolio, shock, waterfall_portfolio(portfolio), horizon=30)
        assert report.schedule._value_curve is _waterfall(portfolio)
        assert same_curve(_waterfall(portfolio), reference_curve(
            portfolio.shares, portfolio.daily_limits, portfolio.prices))

    @settings(max_examples=60, deadline=None)
    @given(tied_funds(max_n=400), st.floats(0.0, 1.0, exclude_max=True), st.data())
    def test_partial_and_stressed_targets_sort_their_own(self, portfolio, c, data):
        cap, prices = portfolio.daily_limits, portfolio.prices
        live = np.flatnonzero(cap > 0)
        q = portfolio.shares.copy()
        if live.size and q[live].any():
            # one live name a hair short of its whole position
            i = data.draw(st.sampled_from(live[q[live] > 0].tolist()))
            q[i] = np.nextafter(q[i], 0.0)
            targets = [q, c * portfolio.shares]
        else:
            targets = [c * portfolio.shares]
        for target in targets:
            schedule = build_schedule(portfolio, RedemptionPortfolio(quantities=target))
            if not np.array_equal(schedule.sellable[live], portfolio.shares[live]):
                assert schedule._value_curve is not _waterfall(portfolio)
            assert same_curve(schedule._value_curve,
                              reference_curve(schedule.sellable, cap, prices))
        # stressed limits, some names stuck: a copy at those limits, whose
        # whole holdings read the copy's own waterfall, not the portfolio's
        stressed = with_limits(portfolio, np.where(np.arange(portfolio.n) % 2 == 0, 0.0, cap))
        schedule = build_schedule(stressed, waterfall_portfolio(stressed))
        assert schedule._value_curve is _waterfall(stressed) is not _waterfall(portfolio)
        assert same_curve(schedule._value_curve,
                          reference_curve(schedule.sellable, stressed.daily_limits, prices))

    def test_own_limits_are_read_as_they_are_and_stressed_ones_checked(self, fund):
        schedule = build_schedule(fund, waterfall_portfolio(fund))
        assert schedule.cap is fund.daily_limits
        # stressed limits are a copy's own, checked where the copy is built
        for bad in (-1.0, float("nan"), float("inf")):
            limits = fund.daily_limits.copy()
            limits[3] = bad
            message = rf"^security 'A4': daily_limit must be finite and non-negative, got {bad!r}$"
            with pytest.raises(DomainError, match=message):
                with_limits(fund, limits)

    def test_a_tie_of_signed_zeros_keeps_each_keys_bits(self):
        # 0.0 and -0.0 are equal keys of other bits: the tie repair moves
        # each key with its index, as the stable sort lists them
        cap, prices = np.ones(4), np.ones(4)
        for sellable in (np.array([0.0, -0.0, 0.0, -0.0]), np.array([-0.0, 0.0, -0.0, 0.0])):
            got = _curve(sellable, cap, prices)
            assert same_curve(got, reference_curve(sellable, cap, prices))
            hinted = _curve(sellable, cap, prices, np.array([3, 2, 1, 0]))
            assert same_curve(hinted, reference_curve(sellable, cap, prices))
