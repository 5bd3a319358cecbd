import numpy as np
import pytest

from lst import (
    UNREACHABLE,
    DomainError,
    Portfolio,
    RedemptionPortfolio,
    RedemptionShock,
    Security,
    max_admissible_shock,
    optimal_pro_rata,
    pro_rata_portfolio,
    rcr_report,
    round_shares,
    time_to_liquidity,
    tna,
    waterfall_portfolio,
)
from conftest import random_portfolio

# (h, LR %, amount $mn, RCR %, LS %) for the naive 20% pro-rata scenario.
NAIVE_TABLE = [
    (1, 52.53, 14.892, 52.53, 9.49),
    (2, 76.51, 21.689, 76.51, 4.70),
    (3, 91.51, 25.939, 91.51, 1.70),
    (4, 97.80, 27.722, 97.80, 0.44),
    (5, 100.00, 28.347, 100.00, 0.00),
    (6, 100.00, 28.347, 100.00, 0.00),
]

# (tau, phi %, [(h, LR %, amount $mn, RCR %, LS %)]) for the optimal slices.
OPTIMAL_TABLE = [
    (1, 4.60, [(1, 100.00, 6.515, 22.98, 15.40)]),
    (2, 9.19, [(1, 79.18, 10.317, 36.39, 12.72), (2, 100.00, 13.030, 45.97, 10.81)]),
    (3, 13.79, [(1, 63.66, 12.443, 43.89, 11.22), (2, 90.02, 17.595, 62.07, 7.59),
                (3, 100.00, 19.545, 68.95, 6.21)]),
    (4, 18.39, [(1, 54.81, 14.284, 50.39, 9.92), (2, 79.18, 20.633, 72.79, 5.44),
                (3, 93.17, 24.280, 85.65, 2.87), (4, 100.00, 26.060, 91.93, 1.61)]),
    (5, 22.98, [(1, 47.13, 15.353, 54.16, 9.17), (2, 70.74, 23.044, 81.29, 3.74),
                (3, 85.68, 27.911, 98.46, 0.31), (4, 94.54, 30.795, 108.64, 0.00),
                (5, 100.00, 32.575, 114.92, 0.00)]),
]

WATERFALL_TABLE = [
    (1, 11.80, 16.727, 59.01, 8.20),
    (2, 23.38, 33.136, 116.90, 0.00),
    (3, 34.06, 48.274, 170.30, 0.00),
    (4, 44.21, 62.661, 221.05, 0.00),
    (5, 52.53, 74.459, 262.67, 0.00),
    (6, 57.55, 81.572, 287.76, 0.00),
]


def assert_table(report, expected):
    for h, lr, amount, rcr, ls in expected:
        row = report.row(h)
        assert 100 * row["lr"] == pytest.approx(lr, abs=0.005)
        assert row["amount"] / 1e6 == pytest.approx(amount, abs=0.0005)
        assert 100 * row["rcr"] == pytest.approx(rcr, abs=0.005)
        assert 100 * row["ls"] == pytest.approx(ls, abs=0.005)


class TestRcrReport:
    def test_naive_pro_rata_table(self, fund):
        shock = RedemptionShock.from_rate(fund, 0.20)
        report = rcr_report(fund, shock, pro_rata_portfolio(fund, 0.20), horizon=6)
        assert_table(report, NAIVE_TABLE)

    def test_rcr_equals_lr_when_values_match(self, fund):
        shock = RedemptionShock.from_rate(fund, 0.20)
        report = rcr_report(fund, shock, pro_rata_portfolio(fund, 0.20), horizon=6)
        np.testing.assert_allclose(report.rcr, report.lr, atol=1e-14)

    def test_zero_shock_rejected(self, fund):
        shock = RedemptionShock(rate=0.0, amount=0.0)
        with pytest.raises(DomainError):
            rcr_report(fund, shock, pro_rata_portfolio(fund, 0.10))

    def test_scaling_identity(self):
        # RCR(h) = V(q)/R * LR(q;h) for any q and shock
        rng = np.random.default_rng(41)
        for _ in range(50):
            p = random_portfolio(rng)
            q = RedemptionPortfolio(quantities=rng.uniform(0.01, 1, p.n) * p.shares)
            rate = float(rng.uniform(0.01, 1.0))
            shock = RedemptionShock.from_rate(p, rate)
            report = rcr_report(p, shock, q, horizon=30)
            scale = q.value(p) / shock.amount
            np.testing.assert_allclose(report.rcr, scale * report.lr, rtol=1e-12)
            assert np.all(report.ls >= -1e-15)
            assert np.all(report.ls <= rate + 1e-15)
            assert np.all(np.diff(report.rcr) >= -1e-12)

    def test_three_case_theorem(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            p = random_portfolio(rng)
            quantities = np.minimum(rng.uniform(0.05, 1, p.n) * p.shares,
                                    50 * p.daily_limits)
            q = RedemptionPortfolio(quantities=quantities)
            value = q.value(p)
            horizon = 60
            for scale, expect in ((1.0, "one"), (0.7, "above"), (1.3, "below")):
                shock = RedemptionShock(rate=min(scale * value / tna(p), 1.0),
                                        amount=scale * value)
                report = rcr_report(p, shock, q, horizon=horizon)
                terminal = report.rcr[-1]
                if expect == "one":
                    assert terminal == pytest.approx(1.0, abs=1e-12)
                elif expect == "above":
                    assert terminal == pytest.approx(value / shock.amount, rel=1e-12)
                    assert terminal > 1
                else:
                    assert np.all(report.rcr < 1 + 1e-12)


class TestProRata:
    def test_zero_rate(self, fund):
        q = pro_rata_portfolio(fund, 0.0)
        assert q.value(fund) == 0.0

    def test_twenty_percent_quantities(self, fund):
        q = pro_rata_portfolio(fund, 0.20)
        np.testing.assert_allclose(q.quantities,
                                   [87_020, 60_020, 10_080, 40_100, 15_100, 3_500, 360])

    def test_full_rate(self, fund):
        np.testing.assert_allclose(pro_rata_portfolio(fund, 1.0).quantities, fund.shares)

    def test_rate_domain(self, fund):
        with pytest.raises(DomainError):
            pro_rata_portfolio(fund, 1.0001)


class TestOptimalProRata:
    def test_phi_one_day(self, fund):
        phi, q_star = optimal_pro_rata(fund, 1)
        assert 100 * phi == pytest.approx(4.60, abs=0.005)
        # the binding asset sells exactly at its one-day limit
        np.testing.assert_allclose(
            round_shares(q_star.quantities),
            [20_000, 13_795, 2_317, 9_216, 3_470, 804, 83])
        assert q_star.value(fund) / 1e6 == pytest.approx(6.515, abs=0.0005)

    def test_published_table(self, fund):
        shock = RedemptionShock.from_rate(fund, 0.20)
        for tau, phi_pct, rows in OPTIMAL_TABLE:
            phi, q_star = optimal_pro_rata(fund, tau)
            assert 100 * phi == pytest.approx(phi_pct, abs=0.005)
            report = rcr_report(fund, shock, q_star, horizon=tau)
            assert_table(report, rows)
            # RCR at the horizon is phi over the redemption rate
            assert report.rcr[tau - 1] == pytest.approx(phi / 0.20, rel=1e-12)

    def test_slice_caps_at_whole_portfolio(self, fund):
        phi, q_star = optimal_pro_rata(fund, 10_000)
        assert phi == 1.0
        np.testing.assert_allclose(q_star.quantities, fund.shares)

    def test_independent_of_shock(self, fund):
        # the optimal slice is a property of the portfolio and horizon alone
        phi_a, q_a = optimal_pro_rata(fund, 3)
        phi_b, q_b = optimal_pro_rata(fund, 3)
        assert phi_a == phi_b
        np.testing.assert_array_equal(q_a.quantities, q_b.quantities)

    def test_unheld_assets_do_not_constrain(self):
        rng = np.random.default_rng(43)
        p = random_portfolio(rng, n=4)
        zeroed = list(p.securities)
        zeroed[2] = type(zeroed[2])(id="Z", shares=0, price=10.0, daily_limit=0.0)
        p2 = type(p)(securities=tuple(zeroed))
        phi, _ = optimal_pro_rata(p2, 1)
        assert phi > 0

    def test_tau_domain(self, fund):
        with pytest.raises(DomainError):
            optimal_pro_rata(fund, 0)


class TestWaterfall:
    def test_targets_whole_portfolio(self, fund):
        np.testing.assert_array_equal(waterfall_portfolio(fund).quantities, fund.shares)

    def test_published_table(self, fund):
        shock = RedemptionShock.from_rate(fund, 0.20)
        report = rcr_report(fund, shock, waterfall_portfolio(fund), horizon=6)
        assert_table(report, WATERFALL_TABLE)

    def test_dominates_pro_rata_shock_capacity(self, fund):
        for h in range(1, 26):
            waterfall = max_admissible_shock(fund, h, policy="waterfall")
            optimal = max_admissible_shock(fund, h, policy="optimal")
            assert waterfall >= optimal - 1e-12


class TestTimeToLiquidity:
    def test_naive_pro_rata_week(self, fund):
        shock = RedemptionShock.from_rate(fund, 0.20)
        report = rcr_report(fund, shock, pro_rata_portfolio(fund, 0.20), horizon=10)
        assert time_to_liquidity(report, 1.0) == 5

    def test_waterfall_two_days(self, fund):
        shock = RedemptionShock.from_rate(fund, 0.20)
        report = rcr_report(fund, shock, waterfall_portfolio(fund), horizon=10)
        assert time_to_liquidity(report, 1.0) == 2

    def test_unreachable_threshold(self, fund):
        shock = RedemptionShock.from_rate(fund, 0.20)
        q = pro_rata_portfolio(fund, 0.10)  # value covers only half the shock
        report = rcr_report(fund, shock, q, horizon=50)
        assert time_to_liquidity(report, 0.5) == 3  # met once q fully liquidates
        assert time_to_liquidity(report, 0.51) is UNREACHABLE

    def test_matches_liquidation_time_when_values_match(self, fund):
        from lst import build_schedule, liquidation_time

        shock = RedemptionShock.from_rate(fund, 0.20)
        q = pro_rata_portfolio(fund, 0.20)
        report = rcr_report(fund, shock, q, horizon=20)
        schedule = build_schedule(fund, q)
        for p in (0.3, 0.7, 0.95, 1.0):
            assert time_to_liquidity(report, p) == liquidation_time(schedule, p)


def twenty_percent_report(fund):
    return rcr_report(fund, RedemptionShock.from_rate(fund, 0.20), pro_rata_portfolio(fund, 0.20),
                      horizon=6)


class TestRejectedInputs:
    @pytest.mark.parametrize("call, message", [
        (lambda f: twenty_percent_report(f).row(7), r"^day 7 outside report horizon 1\.\.6$"),
        (lambda f: twenty_percent_report(f).row(0), r"^day 0 outside report horizon 1\.\.6$"),
        (lambda f: rcr_report(f, RedemptionShock.from_rate(f, 0.20),
                              RedemptionPortfolio(quantities=np.zeros(f.n))),
         "^redemption portfolio has no value to liquidate$"),
        (lambda f: optimal_pro_rata(Portfolio(securities=(Security("X", 0, 10.0, daily_limit=5),)), 3),
         "^portfolio holds no shares$"),
        (lambda f: max_admissible_shock(f, 5, "vertical"), "^unknown policy 'vertical'$"),
        (lambda f: time_to_liquidity(twenty_percent_report(f), 0.0),
         r"^threshold p must be finite and positive, got 0\.0$"),
        (lambda f: time_to_liquidity(twenty_percent_report(f), -0.5),
         r"^threshold p must be finite and positive, got -0\.5$"),
        (lambda f: time_to_liquidity(twenty_percent_report(f), np.nan),
         "^threshold p must be finite and positive, got nan$"),
        # an infinite threshold read as unreachable
        (lambda f: time_to_liquidity(twenty_percent_report(f), np.inf),
         "^threshold p must be finite and positive, got inf$"),
        (lambda f: pro_rata_portfolio(f, np.nan), r"^redemption rate must lie in \[0, 1\], got nan$"),
    ], ids=["row-past-horizon", "row-zero", "zero-value-redemption", "no-shares-held",
            "unknown-policy", "p-zero", "p-negative", "p-nan", "p-inf", "pro-rata-rate-nan"])
    def test_domain_error(self, fund, call, message):
        with pytest.raises(DomainError, match=message):
            call(fund)
