import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lst import (
    AssetRstFailure,
    AssetRstNoSolution,
    DomainError,
    Portfolio,
    RedemptionShock,
    asset_rst,
    liability_rst,
    liability_rst_feasible,
    pro_rata_portfolio,
    rcr_report,
    stressed_rcr,
    tna,
    weights,
)
from lst import reverse
from lst.liquidation import _raised, _waterfall
from conftest import random_portfolio, tied_columns

ALPHA = np.array([0.20, 0.30, 0.0, 0.15, 0.0, 0.0, 0.0])

# {tau: {floor: (shock $mn, rate %)}} for the stressed saleable proportions above.
# The (tau=4, floor=100%) rate is 14.1: the published 14.4 contradicts its own
# $-amount twin (20.0 / 141.734 = 14.1%).
LIABILITY_TABLE = {
    1: {0.25: (25.1, 17.7), 0.50: (12.6, 8.9), 0.75: (8.4, 5.9), 1.00: (6.3, 4.4)},
    2: {0.25: (46.2, 32.6), 0.50: (23.1, 16.3), 0.75: (15.4, 10.9), 1.00: (11.5, 8.1)},
    3: {0.25: (63.2, 44.6), 0.50: (31.6, 22.3), 0.75: (21.1, 14.9), 1.00: (15.8, 11.1)},
    4: {0.25: (80.1, 56.5), 0.50: (40.1, 28.3), 0.75: (26.7, 18.8), 1.00: (20.0, 14.1)},
    5: {0.25: (87.5, 61.8), 0.50: (43.8, 30.9), 0.75: (29.2, 20.6), 1.00: (21.9, 15.4)},
}


class TestLiabilityRst:
    def test_reference_cells(self, fund):
        res = liability_rst(fund, ALPHA, 0.25, 1)
        assert res.amount / 1e6 == pytest.approx(25.1, abs=0.05)
        assert 100 * res.rate == pytest.approx(17.7, abs=0.05)
        res = liability_rst(fund, ALPHA, 1.00, 1)
        assert 100 * res.rate == pytest.approx(4.4, abs=0.05)

    def test_full_table(self, fund):
        for tau, by_floor in LIABILITY_TABLE.items():
            for floor, (amount_mn, rate_pct) in by_floor.items():
                res = liability_rst(fund, ALPHA, floor, tau)
                assert res.amount / 1e6 == pytest.approx(amount_mn, abs=0.05), (tau, floor)
                assert 100 * res.rate == pytest.approx(rate_pct, abs=0.05), (tau, floor)

    def test_nothing_saleable(self, fund):
        res = liability_rst(fund, np.zeros(fund.n), 0.25, 3)
        assert res.amount == 0.0
        assert res.rate == 0.0

    def test_feasibility_criterion_both_directions(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            p = random_portfolio(rng)
            alpha = rng.uniform(0, 1, p.n)
            saleable_weight = float(alpha @ weights(p))
            above = min(saleable_weight * 1.1 + 1e-6, 1.0)
            below = saleable_weight * 0.9
            if above > saleable_weight:
                assert liability_rst_feasible(p, alpha, above)
            if 0 < below < saleable_weight:
                assert not liability_rst_feasible(p, alpha, below)

    def test_infeasible_flagged(self, fund):
        # a floor far below the stressed saleable weight cannot be breached
        res = liability_rst(fund, np.ones(fund.n), 0.01, 260)
        assert not res.feasible
        assert res.rate > 1.0

    def test_domain_errors(self, fund):
        with pytest.raises(DomainError):
            liability_rst(fund, ALPHA, 0.0, 1)
        with pytest.raises(DomainError):
            liability_rst(fund, np.array([2.0] * fund.n), 0.25, 1)
        with pytest.raises(DomainError):
            liability_rst(fund, np.array([np.nan] * fund.n), 0.25, 1)

    def test_nan_floor_rejected(self, fund):
        with pytest.raises(DomainError):
            liability_rst(fund, ALPHA, float("nan"), 1)
        with pytest.raises(DomainError):
            liability_rst_feasible(fund, ALPHA, float("nan"))


class TestAssetRst:
    def test_identity_multiplier_reproduces_rcr(self, fund):
        q = pro_rata_portfolio(fund, 0.10)
        shock = RedemptionShock.from_rate(fund, 0.10)
        report = rcr_report(fund, shock, q, horizon=2)
        scaled = stressed_rcr(fund, q, shock.amount, 2, volume_multiplier=1.0)
        assert scaled == pytest.approx(report.rcr[1], rel=1e-12)

    def test_no_solution_when_already_below_floor(self, fund):
        # at a 30% standard redemption the unstressed coverage stays below one
        # until day seven, so demanding full coverage admits no volume threshold
        # over the first six days
        for tau in range(1, 7):
            res = asset_rst(fund, 0.30, 1.0, tau)
            assert isinstance(res, AssetRstNoSolution)
            assert res.reason is AssetRstFailure.ALREADY_BELOW_FLOOR
        # a floor just under the day-six coverage (0.978) separates the regimes
        assert isinstance(asset_rst(fund, 0.30, 0.95, 6), float)
        res5 = asset_rst(fund, 0.30, 0.95, 5)
        assert isinstance(res5, AssetRstNoSolution)
        assert res5.reason is AssetRstFailure.ALREADY_BELOW_FLOOR

    def test_root_brackets_the_floor(self, fund):
        q = pro_rata_portfolio(fund, 0.10)
        shock = 0.10 * float(fund.shares @ fund.prices)
        for tau, floor in [(1, 0.5), (2, 0.6), (2, 0.9), (3, 0.75)]:
            m_v = asset_rst(fund, 0.10, floor, tau)
            assert isinstance(m_v, float)
            below = stressed_rcr(fund, q, shock, tau, m_v - 1e-5)
            above = stressed_rcr(fund, q, shock, tau, m_v + 1e-5)
            assert below <= floor + 1e-9
            assert above >= floor - 1e-9

    def test_random_instances_bracket(self):
        rng = np.random.default_rng(62)
        found = 0
        while found < 25:
            p = random_portfolio(rng)
            rate = float(rng.uniform(0.05, 0.5))
            tau = int(rng.integers(1, 6))
            floor = float(rng.uniform(0.2, 0.9))
            res = asset_rst(p, rate, floor, tau)
            if not isinstance(res, float):
                continue
            found += 1
            q = pro_rata_portfolio(p, rate)
            shock = rate * float(p.shares @ p.prices)
            assert stressed_rcr(p, q, shock, tau, res - 1e-5) <= floor + 1e-9
            assert stressed_rcr(p, q, shock, tau, res + 1e-5) >= floor - 1e-9

    def test_monotone_in_horizon_and_floor(self, fund):
        floors = (0.4, 0.6, 0.8)
        taus = (1, 2, 3, 4, 5)
        by_floor = {}
        for floor in floors:
            row = []
            for tau in taus:
                res = asset_rst(fund, 0.10, floor, tau)
                row.append(res if isinstance(res, float) else np.nan)
            by_floor[floor] = row
            clean = [v for v in row if not np.isnan(v)]
            assert all(a >= b - 1e-5 for a, b in zip(clean, clean[1:]))  # decreasing in tau
        for tau_idx in range(len(taus)):
            col = [by_floor[f][tau_idx] for f in floors]
            clean = [v for v in col if not np.isnan(v)]
            assert all(a <= b + 1e-5 for a, b in zip(clean, clean[1:]))  # increasing in floor

    def test_rcr_monotone_in_multiplier(self, fund):
        q = pro_rata_portfolio(fund, 0.10)
        shock = 0.10 * float(fund.shares @ fund.prices)
        for tau in (1, 3, 5):
            values = [stressed_rcr(fund, q, shock, tau, m) for m in np.linspace(0.05, 1, 20)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_domain_errors(self, fund):
        with pytest.raises(DomainError):
            asset_rst(fund, 0.0, 0.5, 1)
        with pytest.raises(DomainError):
            asset_rst(fund, 1.5, 0.5, 1)

    def test_nan_floor_rejected(self, fund):
        with pytest.raises(DomainError):
            asset_rst(fund, 0.1, float("nan"), 2)

    def test_stressed_rcr_rejects_bad_multiplier(self, fund):
        q = pro_rata_portfolio(fund, 0.1)
        for bad in (-0.5, float("nan")):
            with pytest.raises(DomainError):
                stressed_rcr(fund, q, 1e6, 2, bad)

    def test_nan_standard_rate_rejected(self, fund):
        with pytest.raises(DomainError):
            asset_rst(fund, float("nan"), 0.5, 2)


def reference_asset_rst(portfolio, rate, floor, tau, tol=1e-6):
    """The bisection with ``stressed_rcr`` (and its limit checks) at every step."""
    q = pro_rata_portfolio(portfolio, rate)
    shock = rate * tna(portfolio)
    if stressed_rcr(portfolio, q, shock, tau, 1.0) <= floor:
        return AssetRstFailure.ALREADY_BELOW_FLOOR
    if stressed_rcr(portfolio, q, shock, tau, tol) >= floor:
        return AssetRstFailure.FLOOR_UNREACHABLE
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if stressed_rcr(portfolio, q, shock, tau, mid) <= floor:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


@st.composite
def asset_rst_cases(draw, wide=False):
    """A random fund, some of its names with a zero daily limit, and a floor
    at or just around the coverage at m = 1, at m = tol, or at a dyadic m
    that the bisection steps on, where the ``<=`` test meets a tie.

    A ``wide`` fund has up to 2000 names whose keys shares/cap tie or nearly
    tie (``tied_columns``), so the rounding guard is tested at the n it
    scales with."""
    if wide:
        n = draw(st.integers(2, 2000))
        columns = tied_columns(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    else:
        n = draw(st.integers(1, 8))
        shares = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
        prices = draw(st.lists(st.floats(0.5, 2000.0), min_size=n, max_size=n))
        limits = draw(st.lists(st.sampled_from([0.0]) | st.floats(0.01, 1e5),
                               min_size=n, max_size=n))
        columns = dict(shares=shares, price=prices, daily_limit=limits, daily_volume=[0] * n,
                       volatility=[0] * n, spread=[0] * n)
    portfolio = Portfolio.from_columns([f"S{i}" for i in range(n)], columns)
    rate = draw(st.floats(0.01, 1.0))
    tau = draw(st.integers(1, 10))
    q = pro_rata_portfolio(portfolio, rate)
    shock = rate * tna(portfolio)
    m = draw(st.sampled_from([1.0, 1e-6]) | st.integers(1, 2**20 - 1).map(lambda k: k / 2**20))
    floor = stressed_rcr(portfolio, q, shock, tau, m) * draw(
        st.sampled_from([1.0, 1 - 1e-12, 1 + 1e-12, 1 - 1e-7, 1 + 1e-7]))
    assume(floor > 0)
    return portfolio, rate, floor, tau


def check_against_reference(case):
    portfolio, rate, floor, tau = case
    ours = asset_rst(portfolio, rate, floor, tau)
    want = reference_asset_rst(portfolio, rate, floor, tau)
    if isinstance(want, AssetRstFailure):
        assert isinstance(ours, AssetRstNoSolution) and ours.reason is want
    else:
        assert type(ours) is float and ours == want


class TestAssetRstBisection:
    @settings(max_examples=300, deadline=None)
    @given(asset_rst_cases())
    def test_equals_a_bisection_through_stressed_rcr(self, case):
        check_against_reference(case)

    @settings(max_examples=100, deadline=None)
    @given(asset_rst_cases(wide=True))
    def test_wide_funds_with_tied_keys(self, case):
        check_against_reference(case)

    def test_a_curve_value_off_by_hundreds_of_ulps_falls_back(self):
        # after a term of 1, each of 1000 terms of 1.5 u (u = 2^-53) rounds
        # up to 2 u in the curve's running sum: its coverage is 320-390 u
        # above the exact one, inside the guard 4 (n + 9) u but far outside
        # a guard of a few u
        n = 1002
        shares = np.ones(n)
        prices = np.r_[1.0, np.full(n - 2, 1.5 * 2.0**-53), 1.0]
        limits = np.r_[4.0, np.full(n - 2, 2.0), 0.5]
        portfolio = Portfolio.from_columns(
            [f"S{i}" for i in range(n)],
            dict(shares=shares, price=prices, daily_limit=limits, daily_volume=np.zeros(n),
                 volatility=np.zeros(n), spread=np.zeros(n)))
        q, total = pro_rata_portfolio(portfolio, 1.0), tna(portfolio)
        t, full, rest, _ = _waterfall(portfolio)
        for m in (1.0, 0.75, 0.625, 0.5 + 2**-10):
            floor = stressed_rcr(portfolio, q, total, 1, m)
            k = t.searchsorted(m, "right")
            assert (full[k] + m * rest[k]) / total > floor * (1 + 300 * 2.0**-53)
            check_against_reference((portfolio, 1.0, floor, 1))

    def test_steps_are_read_off_the_curve(self, fund, monkeypatch):
        # away from a tie with the floor no step needs the exact O(n) sum
        calls = []
        monkeypatch.setattr(reverse, "_raised", lambda *a: calls.append(a) or _raised(*a))
        wide = Portfolio.from_columns([f"S{i}" for i in range(3000)],
                                      tied_columns(np.random.default_rng(7), 3000))
        for portfolio in (fund, wide):
            for tau in range(1, 6):
                for floor in (0.15, 0.3, 0.5):
                    asset_rst(portfolio, 0.1, floor, tau)
        assert calls == []


class TestRejectedInputs:
    @pytest.mark.parametrize("shape", [(6,), (8,), (1, 7)], ids=["short", "long", "2d"])
    def test_alpha_of_the_wrong_shape(self, fund, shape):
        with pytest.raises(DomainError, match="^alpha must give one proportion per security$"):
            liability_rst(fund, np.full(shape, 0.5), 0.5, 1)
