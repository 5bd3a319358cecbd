from fractions import Fraction

import numpy as np
import pytest

from lst import (
    DomainError,
    Portfolio,
    RedemptionPortfolio,
    RedemptionShock,
    Security,
    herfindahl,
    load_correlation,
    load_portfolio,
    portfolio_from_dict,
    round_shares,
    save_portfolio,
    tna,
    weight_distortion,
    weights,
)
from conftest import random_portfolio

# Published value weights of the demo fund, in percent.
FUND_WEIGHTS = [27.32, 26.04, 17.35, 14.43, 8.90, 3.94, 2.02]


class TestTna:
    def test_demo_fund(self, fund):
        assert tna(fund) == pytest.approx(141_733_600.0)
        assert round(tna(fund) / 1e6, 3) == 141.734

    def test_single_unit_security(self):
        p = Portfolio(securities=(Security("X", 1, 1.0),))
        assert tna(p) == 1.0

    def test_matches_exact_rational_sum(self):
        # oracle: arbitrary-precision accumulation of the same data
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_portfolio(rng, n=5)
            exact = sum(
                Fraction(s.shares).limit_denominator(10**12)
                * Fraction(s.price).limit_denominator(10**12)
                for s in p.securities
            )
            assert tna(p) == pytest.approx(float(exact), rel=1e-12)

    def test_empty_portfolio_rejected(self):
        with pytest.raises(DomainError):
            Portfolio(securities=())


class TestWeights:
    def test_demo_fund_published_vector(self, fund):
        np.testing.assert_allclose(100 * weights(fund), FUND_WEIGHTS, atol=0.005)

    def test_equal_value_assets(self):
        p = Portfolio(securities=tuple(Security(f"S{i}", 10, 25.0) for i in range(4)))
        np.testing.assert_allclose(weights(p), 0.25)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_portfolio(rng)
            assert abs(weights(p).sum() - 1.0) < 1e-12


class TestWeightDistortion:
    def test_pro_rata_leaves_weights_unchanged(self, fund):
        q = RedemptionPortfolio(quantities=0.37 * fund.shares)
        delta, post = weight_distortion(fund, q)
        np.testing.assert_allclose(delta, 0.0, atol=1e-15)
        np.testing.assert_allclose(post, weights(fund))

    def test_partial_day_one_fill(self, fund):
        # remaining-portfolio weights after the first day of a naive 20% pro-rata fill
        sold = np.array([20_000, 20_000, 10_000, 20_000, 15_100, 2_000, 360.0])
        _, post = weight_distortion(fund, RedemptionPortfolio(quantities=sold))
        np.testing.assert_allclose(
            100 * post, [29.13, 27.16, 15.54, 14.51, 7.95, 3.90, 1.80], atol=0.005)

    def test_waterfall_day_two_residual(self, fund):
        sold = np.array([40_000, 40_000, 20_000, 40_000, 40_000, 4_000, 1_800.0])
        _, post = weight_distortion(fund, RedemptionPortfolio(quantities=sold))
        np.testing.assert_allclose(
            100 * post, [32.38, 29.46, 13.66, 15.07, 5.46, 3.97, 0.00], atol=0.005)

    def test_identity_with_direct_post_weights(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_portfolio(rng)
            frac = rng.uniform(0, 0.95, size=p.n)
            q = RedemptionPortfolio(quantities=frac * p.shares)
            delta, post = weight_distortion(p, q)
            held = p.shares - q.quantities
            direct = held * p.prices / (held @ p.prices)
            np.testing.assert_allclose(post, direct, atol=1e-12)
            assert abs(post.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(weights(p) + delta, post, atol=1e-15)

    def test_full_liquidation_rejected(self, fund):
        with pytest.raises(DomainError):
            weight_distortion(fund, RedemptionPortfolio(quantities=fund.shares))


class TestHerfindahl:
    def test_equal_weights(self):
        p = Portfolio(securities=tuple(Security(f"S{i}", 1, 10.0) for i in range(8)))
        assert herfindahl(p) == pytest.approx(1 / 8)

    def test_single_asset(self):
        assert herfindahl(Portfolio(securities=(Security("X", 5, 3.0),))) == pytest.approx(1.0)

    def test_demo_fund_matches_published_weights(self, fund):
        expected = sum((w / 100) ** 2 for w in FUND_WEIGHTS)
        assert herfindahl(fund) == pytest.approx(expected, abs=5e-5)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_portfolio(rng)
            h = herfindahl(p)
            assert 1 / p.n - 1e-12 <= h <= 1 + 1e-12


class TestShockAndRedemption:
    def test_shock_from_rate(self, fund):
        shock = RedemptionShock.from_rate(fund, 0.20)
        assert shock.amount == pytest.approx(0.20 * tna(fund), rel=1e-12)

    def test_rate_bounds(self):
        with pytest.raises(DomainError):
            RedemptionShock(rate=1.2, amount=1.0)
        with pytest.raises(DomainError):
            RedemptionShock(rate=-0.1, amount=1.0)

    def test_nan_amount_rejected(self):
        with pytest.raises(DomainError):
            RedemptionShock(rate=0.1, amount=float("nan"))

    def test_negative_quantities_rejected(self):
        with pytest.raises(DomainError):
            RedemptionPortfolio(quantities=np.array([1.0, -2.0]))

    def test_value(self, fund):
        q = RedemptionPortfolio(quantities=0.5 * fund.shares)
        assert q.value(fund) == pytest.approx(0.5 * tna(fund))


class TestValidation:
    def test_bad_price(self):
        with pytest.raises(DomainError):
            Security("X", 10, 0.0)

    def test_negative_field(self):
        with pytest.raises(DomainError):
            Security("X", -1, 10.0)

    def test_nan_shares_rejected(self):
        with pytest.raises(DomainError):
            Security("X", float("nan"), 10.0)

    def test_non_finite_fields_rejected(self):
        with pytest.raises(DomainError):
            Security("X", 10, float("inf"))
        with pytest.raises(DomainError):
            Security("X", 10, 10.0, daily_limit=float("inf"))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            Portfolio(securities=(Security("a", 1, 1.0), Security("a", 2, 1.0)))

    def test_nan_redemption_quantities_rejected(self):
        with pytest.raises(DomainError):
            RedemptionPortfolio(quantities=np.array([1.0, np.nan]))

    def test_columns_built_once_and_read_only(self, fund):
        assert fund.shares is fund.shares
        assert fund.ids is fund.ids
        with pytest.raises(ValueError):
            fund.daily_limits[0] = 0.0

    def test_correlation_must_match_size(self, fund):
        with pytest.raises(DomainError):
            Portfolio(securities=fund.securities[:3], correlation=np.eye(4))

    def test_correlation_must_be_symmetric(self):
        rho = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(DomainError):
            Portfolio(securities=(Security("A", 1, 1), Security("B", 1, 1)), correlation=rho)

    def test_correlation_must_be_psd(self):
        rho = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        secs = tuple(Security(f"S{i}", 1, 1) for i in range(3))
        with pytest.raises(DomainError):
            Portfolio(securities=secs, correlation=rho)

    def test_missing_correlation_fails_fast(self, fund):
        bare = Portfolio(securities=fund.securities)
        with pytest.raises(DomainError, match="correlation"):
            bare.require_correlation()


class TestRounding:
    def test_half_up(self):
        np.testing.assert_array_equal(round_shares([0.5, 1.49, 2316.94, 13794.53]),
                                      [1, 1, 2317, 13795])


class TestFileFormats:
    def test_csv_round_trip(self, fund, tmp_path):
        path = tmp_path / "fund.csv"
        save_portfolio(fund, path)
        loaded = load_portfolio(path)
        assert loaded.ids == fund.ids
        np.testing.assert_array_equal(loaded.shares, fund.shares)
        np.testing.assert_array_equal(loaded.prices, fund.prices)
        np.testing.assert_array_equal(loaded.spreads, fund.spreads)

    def test_correlation_sidecar(self, fund, tmp_path):
        path = tmp_path / "rho.csv"
        with open(path, "w") as fh:
            for row in fund.correlation:
                fh.write(",".join(str(v) for v in row) + "\n")
        np.testing.assert_allclose(load_correlation(path), fund.correlation)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,shares,price\nX,1,2\n")
        with pytest.raises(DomainError):
            load_portfolio(path)

    def test_json_equivalent(self, fund):
        data = {
            "securities": [
                {"id": s.id, "shares": s.shares, "price": s.price,
                 "daily_limit": s.daily_limit, "daily_volume": s.daily_volume,
                 "volatility": s.volatility, "spread": s.spread}
                for s in fund.securities
            ],
            "correlation": fund.correlation.tolist(),
        }
        loaded = portfolio_from_dict(data)
        np.testing.assert_array_equal(loaded.shares, fund.shares)
        np.testing.assert_allclose(loaded.correlation, fund.correlation)
