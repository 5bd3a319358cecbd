import dataclasses
import math

import numpy as np
import pytest

from lst import (
    AssetClass,
    DomainError,
    HqlaBucket,
    RatingBand,
    SpecificRiskParams,
    ccf_parametric,
    ccf_static_lookup,
    drawdown_factor,
    liquidity_factor,
    rcr_hqla,
)

LARGE_CAP = HqlaBucket("large-cap equities", selling_intensity=0.05,
                       loss_intensity=0.0625, max_drawdown=0.50)
SPECIFIC_RISK = SpecificRiskParams(tna_threshold=1e9, herfindahl_threshold=0.01,
                                   size_coefficient=0.10, concentration_coefficient=0.25,
                                   cap=0.80)

# RCR grid for a 40% shock: {herfindahl: {tau: [RCR at 1, 5, 7, 10 $bn]}}.
RCR_GRID = {
    0.01: {1: [0.12, 0.07, 0.05, 0.02], 5: [0.56, 0.34, 0.23, 0.11],
           10: [1.08, 0.65, 0.43, 0.22], 20: [2.01, 1.20, 0.80, 0.40],
           60: [1.64, 0.99, 0.66, 0.33]},
    0.04: {1: [0.09, 0.04, 0.02, 0.02], 5: [0.42, 0.20, 0.11, 0.11],
           10: [0.81, 0.38, 0.22, 0.22], 20: [1.50, 0.70, 0.40, 0.40],
           60: [1.23, 0.58, 0.33, 0.33]},
}

STATIC_MATRIX = {
    (AssetClass.CASH, RatingBand.AA_TO_AAA): 1.00,
    (AssetClass.CASH, RatingBand.BELOW_BBB): 1.00,
    (AssetClass.EQUITY, RatingBand.AA_TO_AAA): 0.50,
    (AssetClass.EQUITY, RatingBand.BBB_TO_BBBPLUS): 0.50,
    (AssetClass.SOVEREIGN, RatingBand.AA_TO_AAA): 1.00,
    (AssetClass.SOVEREIGN, RatingBand.A_TO_APLUS): 0.85,
    (AssetClass.SOVEREIGN, RatingBand.BBB_TO_BBBPLUS): 0.50,
    (AssetClass.SOVEREIGN, RatingBand.BELOW_BBB): 0.00,
    (AssetClass.CORPORATE, RatingBand.AA_TO_AAA): 0.85,
    (AssetClass.CORPORATE, RatingBand.A_TO_APLUS): 0.50,
    (AssetClass.CORPORATE, RatingBand.BBB_TO_BBBPLUS): 0.50,
    (AssetClass.CORPORATE, RatingBand.BELOW_BBB): 0.00,
    (AssetClass.SECURITIZATION, RatingBand.AA_TO_AAA): 0.85,
    (AssetClass.SECURITIZATION, RatingBand.A_TO_APLUS): 0.50,
    (AssetClass.SECURITIZATION, RatingBand.BBB_TO_BBBPLUS): 0.00,
    (AssetClass.SECURITIZATION, RatingBand.BELOW_BBB): 0.00,
}


class TestStaticLookup:
    def test_matrix_cells(self):
        for (asset_class, rating), expected in STATIC_MATRIX.items():
            assert ccf_static_lookup(asset_class, rating) == expected

    def test_every_pair_defined(self):
        for asset_class in AssetClass:
            for rating in RatingBand:
                value = ccf_static_lookup(asset_class, rating)
                assert 0.0 <= value <= 1.0

    def test_unknown_pair_rejected(self):
        with pytest.raises(DomainError):
            ccf_static_lookup("commodity", RatingBand.AA_TO_AAA)


class TestParametricCcf:
    def test_zero_horizon(self):
        assert ccf_parametric(LARGE_CAP, None, 0.0) == 0.0

    def test_reference_cell(self):
        # ten-day horizon, fund at both thresholds: no specific-risk penalty
        ccf = ccf_parametric(LARGE_CAP, SPECIFIC_RISK, 10, fund_tna=1e9, fund_herfindahl=0.01)
        assert ccf == pytest.approx(0.5 * (1 - 0.0625 * math.sqrt(5)), rel=1e-12)
        rcr, _ = rcr_hqla([(1.0, ccf)], 0.40)
        assert rcr == pytest.approx(1.08, abs=0.005)

    def test_size_penalty_cell(self):
        ccf = ccf_parametric(LARGE_CAP, SPECIFIC_RISK, 10, fund_tna=5e9, fund_herfindahl=0.01)
        rcr, _ = rcr_hqla([(1.0, ccf)], 0.40)
        assert rcr == pytest.approx(0.65, abs=0.005)

    def test_full_grid(self):
        for herf, by_tau in RCR_GRID.items():
            for tau, row in by_tau.items():
                for tna_bn, expected in zip((1, 5, 7, 10), row):
                    ccf = ccf_parametric(LARGE_CAP, SPECIFIC_RISK, tau,
                                         fund_tna=tna_bn * 1e9, fund_herfindahl=herf)
                    rcr, _ = rcr_hqla([(1.0, ccf)], 0.40)
                    assert rcr == pytest.approx(expected, abs=0.005), (herf, tau, tna_bn)

    def test_monotone_in_size_and_concentration(self):
        for tau in (1, 5, 10, 20, 60):
            values = [
                ccf_parametric(LARGE_CAP, SPECIFIC_RISK, tau, fund_tna=t * 1e9,
                               fund_herfindahl=h)
                for h in (0.01, 0.04) for t in (1, 5, 7, 10)
            ]
            by_size = np.array(values).reshape(2, 4)
            assert np.all(np.diff(by_size, axis=1) <= 1e-15)  # decreasing in TNA
            assert np.all(by_size[1] <= by_size[0] + 1e-15)   # decreasing in H

    def test_hump_shape_in_horizon(self):
        # increasing (liquidity dominates) then decreasing (drawdown dominates)
        taus = np.linspace(0, 60, 241)
        values = np.array([ccf_parametric(LARGE_CAP, None, t) for t in taus])
        peak = int(values.argmax())
        assert 0 < peak < len(values) - 1
        assert np.all(np.diff(values[: peak + 1]) >= -1e-12)
        assert np.all(np.diff(values[peak:]) <= 1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            bucket = HqlaBucket("b", selling_intensity=float(rng.uniform(0, 0.5)),
                                loss_intensity=float(rng.uniform(0, 0.3)),
                                max_drawdown=float(rng.uniform(0, 1)))
            tau = float(rng.uniform(0, 80))
            sf = SPECIFIC_RISK.factor(float(rng.uniform(0, 2e10)), float(rng.uniform(0.001, 1)))
            assert 0.0 <= sf <= SPECIFIC_RISK.cap
            ccf = ccf_parametric(bucket, SPECIFIC_RISK, tau,
                                 fund_tna=float(rng.uniform(0, 2e10)),
                                 fund_herfindahl=float(rng.uniform(0.001, 1)))
            assert 0.0 <= ccf <= 1.0

    def test_conservative_variant_never_larger(self):
        for tau in (1, 5, 10, 20, 60):
            standard = ccf_parametric(LARGE_CAP, None, tau)
            conservative = ccf_parametric(LARGE_CAP, None, tau, conservative=True)
            assert conservative <= standard + 1e-15

    def test_negative_horizon_rejected(self):
        with pytest.raises(DomainError):
            ccf_parametric(LARGE_CAP, None, -1)


class TestRcrHqla:
    def test_pure_equity_fund(self):
        rcr, ls = rcr_hqla([(1.0, 0.50)], 0.20)
        assert rcr == pytest.approx(2.5)
        assert ls == 0.0

    def test_high_yield_fund_never_covered(self):
        for rate in (0.05, 0.20, 0.50, 1.0):
            rcr, ls = rcr_hqla([(1.0, 0.0)], rate)
            assert rcr == 0.0
            assert ls == pytest.approx(rate)

    def test_balanced_fund_bounds(self):
        # half investment-grade bonds (CCF between 50% and 100%), half equities
        for rate in (0.2, 0.5, 0.9):
            for ig_ccf in (0.50, 0.85, 1.00):
                rcr, _ = rcr_hqla([(0.5, ig_ccf), (0.5, 0.50)], rate)
                assert 0.50 / rate - 1e-12 <= rcr <= 0.75 / rate + 1e-12

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            rcr_hqla([(0.5, 1.0), (0.4, 0.5)], 0.2)

    def test_zero_rate_rejected(self):
        with pytest.raises(DomainError):
            rcr_hqla([(1.0, 0.5)], 0.0)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("base, field", [
        (LARGE_CAP, "selling_intensity"), (LARGE_CAP, "loss_intensity"),
        (LARGE_CAP, "max_drawdown"), (LARGE_CAP, "ccf_static"),
        (SPECIFIC_RISK, "tna_threshold"), (SPECIFIC_RISK, "herfindahl_threshold"),
        (SPECIFIC_RISK, "size_coefficient"), (SPECIFIC_RISK, "concentration_coefficient"),
        (SPECIFIC_RISK, "cap"),
    ])
    def test_rejected_by_field_name(self, base, field, value):
        with pytest.raises(DomainError, match=f"^{field} "):
            dataclasses.replace(base, **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["tau_h", "fund_tna", "fund_herfindahl"])
    def test_ccf_arguments_rejected_by_name(self, field, value):
        args = {"tau_h": 10.0, "fund_tna": 5e9, "fund_herfindahl": 0.02, field: value}
        with pytest.raises(DomainError, match=f"^{field} "):
            ccf_parametric(LARGE_CAP, SPECIFIC_RISK, **args)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rate_rejected(self, value):
        with pytest.raises(DomainError, match="^rate "):
            rcr_hqla([(1.0, 0.5)], value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
    def test_weight_rejected_by_position(self, value):
        # a NaN weight also makes the weight sum NaN, which the sum check passes
        with pytest.raises(DomainError, match="^weight 2 "):
            rcr_hqla([(0.6, 0.5), (value, 1.0), (0.4, 0.85)], 0.2)


class TestRejectedInputs:
    @pytest.mark.parametrize("call, message", [
        (lambda: HqlaBucket("x", ccf_static=1.5), r"^static CCF must lie in \[0, 1\]$"),
        (lambda: HqlaBucket("x", ccf_static=-0.1), r"^static CCF must lie in \[0, 1\]$"),
        (lambda: dataclasses.replace(SPECIFIC_RISK, cap=1.5),
         r"^specific-risk cap must lie in \[0, 1\]$"),
        # a negative penalty once lifted a parametric CCF above 1
        (lambda: dataclasses.replace(SPECIFIC_RISK, size_coefficient=-0.5),
         r"^size_coefficient must be finite and non-negative, got -0\.5$"),
        (lambda: dataclasses.replace(SPECIFIC_RISK, concentration_coefficient=-1e-9),
         "^concentration_coefficient must be finite and non-negative, got -1e-09$"),
        # a NaN CCF read as a zero shortfall, and a CCF of 5 as an RCR of 25
        (lambda: rcr_hqla([(1.0, math.nan)], 0.2), r"^CCF 1 must lie in \[0, 1\], got nan$"),
        (lambda: rcr_hqla([(0.8, 0.5), (0.2, 5.0)], 0.2), r"^CCF 2 must lie in \[0, 1\], got 5\.0$"),
        (lambda: rcr_hqla([(1.0, -0.1)], 0.2), r"^CCF 1 must lie in \[0, 1\], got -0\.1$"),
        (lambda: liquidity_factor(LARGE_CAP, math.nan),
         "^tau_h must be finite and non-negative, got nan$"),
        (lambda: drawdown_factor(LARGE_CAP, -1.0),
         r"^tau_h must be finite and non-negative, got -1\.0$"),
    ], ids=["ccf-above-one", "ccf-negative", "cap-above-one", "size-coefficient-negative",
            "concentration-coefficient-negative", "pair-ccf-nan", "pair-ccf-above-one",
            "pair-ccf-negative", "liquidity-tau-nan", "drawdown-tau-negative"])
    def test_domain_error(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()
