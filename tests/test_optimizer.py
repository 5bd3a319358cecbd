import math
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lst import (
    BondRiskSpec,
    CostModel,
    DomainError,
    InfeasiblePolicy,
    OptimalPolicy,
    Portfolio,
    RedemptionPortfolio,
    RedemptionShock,
    Security,
    TransactionCost,
    build_schedule,
    evaluate_policy,
    load_portfolio,
    optimize_policy,
    tracking_risk_bond,
    tna,
    tracking_risk_equity,
    transaction_cost,
)
from lst import _slsqp
from lst.core import daily_volatility
from lst._slsqp import SlsqpResult
from conftest import CORRELATION, FUND_ROWS, MIXING_POLICIES, make_fund, random_portfolio

DATA = resources.files("lst") / "data"
FUND = str(DATA / "example_fund.csv")
CORR = str(DATA / "example_fund_corr.csv")


def policy(name: str) -> RedemptionPortfolio:
    return RedemptionPortfolio(quantities=np.array(MIXING_POLICIES[name][0], dtype=float))


class TestCostModel:
    def test_validation(self):
        with pytest.raises(DomainError):
            CostModel(knee=0.2, participation_cap=0.1)
        with pytest.raises(DomainError):
            CostModel(regime="cubic")
        with pytest.raises(DomainError):
            CostModel(beta_impact=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["beta_impact", "knee", "participation_cap"])
    def test_non_finite_fields_rejected_by_name(self, field, value):
        with pytest.raises(DomainError, match=field):
            CostModel(**{field: value})

    def test_regimes_join_continuously_at_the_knee(self):
        cm = CostModel()
        below = cm.impact_shape(np.array([cm.knee - 1e-12]))[0]
        above = cm.impact_shape(np.array([cm.knee + 1e-12]))[0]
        assert above == pytest.approx(below, rel=1e-9)
        assert cm.impact_shape(np.array([cm.knee]))[0] == pytest.approx(math.sqrt(cm.knee))

    def test_linear_regime_exceeds_sqrt_above_knee(self):
        two = CostModel(regime="sqrt_linear")
        one = CostModel(regime="sqrt")
        x = np.array([0.06, 0.08, 0.10])
        assert np.all(two.impact_shape(x) > one.impact_shape(x))
        x_low = np.array([0.01, 0.03, 0.05])
        np.testing.assert_allclose(two.impact_shape(x_low), one.impact_shape(x_low))

    def test_custom_impact_hook(self):
        cm = CostModel(custom_impact=lambda x: 2.0 * x)
        np.testing.assert_allclose(cm.impact_shape(np.array([0.02, 0.08])), [0.04, 0.16])


class TestTransactionCost:
    def test_zero_liquidation_costs_nothing(self, fund, cost_model):
        schedule = build_schedule(fund, RedemptionPortfolio(quantities=np.zeros(fund.n)))
        cost = transaction_cost(fund, cost_model, schedule)
        assert cost.total == cost.spread_part == cost.impact_part == 0.0

    def test_single_asset_below_knee_closed_form(self):
        p = Portfolio(securities=(
            Security("X", 5_000, 50.0, daily_limit=10_000, daily_volume=100_000,
                     volatility=0.26, spread=8e-4),))
        cm = CostModel()
        q = RedemptionPortfolio(quantities=np.array([3_000.0]))
        cost = transaction_cost(p, cm, build_schedule(p, q))
        x = 3_000 / 100_000
        sigma_daily = 0.26 / math.sqrt(260)
        expected_unit = 8e-4 + 0.4 * sigma_daily * math.sqrt(x)
        assert cost.total == pytest.approx(expected_unit, rel=1e-12)

    def test_mixing_table_under_two_regime_cost(self, fund, cost_model):
        for name, (quantities, _, tc, tc_s, tc_pi, _) in MIXING_POLICIES.items():
            q = RedemptionPortfolio(quantities=np.array(quantities, dtype=float))
            cost = transaction_cost(fund, cost_model, build_schedule(fund, q))
            assert 1e4 * cost.total == pytest.approx(tc, abs=0.05), name
            assert 1e4 * cost.spread_part == pytest.approx(tc_s, abs=0.05), name
            assert 1e4 * cost.impact_part == pytest.approx(tc_pi, abs=0.05), name

    def test_single_regime_undershoots_published_costs(self, fund):
        # the pure square-root cost misses the published totals by ~16-22%
        sqrt_only = CostModel(regime="sqrt")
        for name, (quantities, _, tc, *_rest) in MIXING_POLICIES.items():
            q = RedemptionPortfolio(quantities=np.array(quantities, dtype=float))
            cost = transaction_cost(fund, sqrt_only, build_schedule(fund, q))
            assert 1e4 * cost.total < tc * 0.85, name

    def test_split_adds_up(self, fund, cost_model):
        rng = np.random.default_rng(81)
        for _ in range(20):
            q = RedemptionPortfolio(quantities=rng.uniform(0, 0.2, fund.n) * fund.shares)
            cost = transaction_cost(fund, cost_model, build_schedule(fund, q))
            assert cost.total == pytest.approx(cost.spread_part + cost.impact_part, abs=1e-15)

    def test_zero_volume_with_sales_rejected(self, cost_model):
        p = Portfolio(securities=(Security("X", 100, 10.0, daily_limit=50, daily_volume=0),))
        schedule = build_schedule(p, RedemptionPortfolio(quantities=np.array([50.0])))
        with pytest.raises(DomainError):
            transaction_cost(p, cost_model, schedule)

    def test_participation_above_cap_rejected(self, cost_model):
        p = Portfolio(securities=(
            Security("X", 100_000, 10.0, daily_limit=50_000, daily_volume=100_000),))
        schedule = build_schedule(p, RedemptionPortfolio(quantities=np.array([50_000.0])))
        with pytest.raises(DomainError):
            transaction_cost(p, cost_model, schedule)  # 50% of volume in one day


def reference_transaction_cost(portfolio, cost_model, schedule):
    """``transaction_cost`` as a day loop that checks every day's sale:
    days without a sale are skipped, and each other day is checked for sales
    at zero volume and above the participation cap before it is priced. A
    schedule that leaves names unsold, those with more than ``max_days``
    days of their cap in the target, is then rejected."""
    value = schedule.target.value(portfolio)
    if value <= 0:
        return TransactionCost(total=0.0, spread_part=0.0, impact_part=0.0)
    volumes = portfolio.daily_volumes
    spread_cost = 0.0
    impact_cost = 0.0
    cap = cost_model.participation_cap
    daily_vol = daily_volatility(portfolio.volatilities)
    for day in schedule.sold:
        active = day > 0
        if not active.any():
            continue
        if np.any((volumes <= 0) & active):
            bad = [portfolio.ids[i] for i in np.nonzero((volumes <= 0) & active)[0]]
            raise DomainError(f"securities {bad} trade with zero daily volume")
        x = np.where(volumes > 0, day / np.where(volumes > 0, volumes, 1.0), 0.0)
        if np.any(x > cap * (1 + 1e-9)):
            bad = [portfolio.ids[i] for i in np.nonzero(x > cap * (1 + 1e-9))[0]]
            raise DomainError(f"participation above the one-day cap for {bad}")
        notional = day * portfolio.prices
        spread_cost += float((notional * portfolio.spreads)[active].sum())
        impact = cost_model.beta_impact * daily_vol * cost_model.impact_shape(x)
        impact_cost += float((notional * impact)[active].sum())
    if not schedule.exhausted:
        q = schedule.target.quantities
        bad = [portfolio.ids[i] for i in np.nonzero(q > schedule.max_days * schedule.cap)[0]]
        raise DomainError(f"securities {bad} do not sell out within {schedule.max_days} days")
    return TransactionCost(
        total=(spread_cost + impact_cost) / value,
        spread_part=spread_cost / value,
        impact_part=impact_cost / value,
    )


def outcome_of(call):
    """A call's result, or the text of the DomainError it raised."""
    try:
        return call()
    except DomainError as exc:
        return f"DomainError: {exc}"


class TestTransactionCostMatchesDayByDayChecks:
    """A name's sale never grows from one day to the next, so checking day 1
    decides both checks: the same costs, bit for bit, and the same errors."""

    MODELS = (CostModel(), CostModel(regime="sqrt"),
              CostModel(knee=0.03, participation_cap=0.2, custom_impact=lambda x: x ** 0.6))

    def test_random_funds(self):
        rng = np.random.default_rng(14)
        raised = []
        for case in range(400):
            n = int(rng.integers(1, 41))
            volume = np.round(np.exp(rng.normal(11.0, 1.5, n)))
            volume[rng.random(n) < rng.choice([0.0, 0.05])] = 0.0
            # limits at 2-10% of the volume, in some funds also above the 10% cap
            over = rng.choice([0.0, 0.05])
            limit = np.floor(volume * rng.choice([0.02, 0.05, 0.1, 0.15, 0.5], n,
                                                 p=[0.3, 0.3, 0.4 - 2 * over, over, over]))
            limit[limit == 0] = 1.0
            shares = np.round(limit * rng.uniform(0.2, 25.0, n))
            p = Portfolio(securities=tuple(
                Security(f"S{i}", shares=float(shares[i]), price=float(rng.uniform(1.0, 500.0)),
                         daily_limit=float(limit[i]), daily_volume=float(volume[i]),
                         volatility=float(rng.uniform(0.05, 0.6)),
                         spread=float(rng.uniform(0.0, 3e-3)))
                for i in range(n)))
            q = shares * rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.8)
            # some schedules are cut at max_days, which is rejected as well
            schedule = build_schedule(p, RedemptionPortfolio(quantities=q),
                                      max_days=int(rng.integers(5, 41)))
            for model in self.MODELS:
                ours = outcome_of(lambda: transaction_cost(p, model, schedule))
                assert ours == outcome_of(lambda: reference_transaction_cost(p, model, schedule)), case
                if isinstance(ours, str):
                    raised.append("volume" if "zero daily volume" in ours else
                                  "unsold" if "do not sell out" in ours else "cap")
        # both paths, priced and rejected, and all three errors are exercised
        assert 100 < raised.count("volume") and 100 < raised.count("cap") and len(raised) < 800
        assert 100 < raised.count("unsold")

    def test_only_the_first_day_is_checked(self, cost_model):
        # a sale that grows after day 1 (never one of build_schedule's): the
        # second day's 50% participation and zero-volume sale go unchecked
        p = Portfolio(securities=(
            Security("X", 1_000, 10.0, daily_limit=100, daily_volume=1_000, volatility=0.2),
            Security("Y", 1_000, 10.0, daily_limit=100, daily_volume=0, volatility=0.2)))
        grows = SimpleNamespace(target=RedemptionPortfolio(quantities=[600.0, 50.0]),
                                sold=np.array([[100.0, 0.0], [500.0, 50.0]]), exhausted=True)
        assert transaction_cost(p, cost_model, grows).total > 0
        with pytest.raises(DomainError, match="trade with zero daily volume"):
            reference_transaction_cost(p, cost_model, grows)


class TestTrackingRiskEquity:
    def test_pro_rata_is_zero(self, fund):
        for rate in (0.05, 0.1, 0.5):
            q = RedemptionPortfolio(quantities=rate * fund.shares)
            assert tracking_risk_equity(fund, q) == pytest.approx(0.0, abs=1e-15)

    def test_published_values(self, fund):
        for name, (quantities, tr, *_rest) in MIXING_POLICIES.items():
            q = RedemptionPortfolio(quantities=np.array(quantities, dtype=float))
            assert 1e4 * tracking_risk_equity(fund, q) == pytest.approx(tr, abs=0.05), name

    def test_missing_correlation_rejected(self):
        fund = make_fund(correlation=False)
        q = RedemptionPortfolio(quantities=0.1 * fund.shares)
        with pytest.raises(DomainError):
            tracking_risk_equity(fund, q)


class TestTrackingRiskBond:
    def make_spec(self, portfolio, rng=None):
        rng = rng or np.random.default_rng(0)
        n = portfolio.n
        return BondRiskSpec(
            sectors=tuple(str(rng.integers(0, 3)) for _ in range(n)),
            buckets=tuple(str(rng.integers(0, 4)) for _ in range(n)),
            modified_duration=tuple(float(rng.uniform(0.5, 12)) for _ in range(n)),
            dts=tuple(float(rng.uniform(10, 400)) for _ in range(n)),
        )

    def test_pro_rata_is_zero(self, fund):
        spec = self.make_spec(fund)
        q = RedemptionPortfolio(quantities=0.2 * fund.shares)
        assert tracking_risk_bond(fund, q, spec) == pytest.approx(0.0, abs=1e-12)

    def test_signed_netting_inside_sector(self):
        # equal and opposite weight moves with identical MD/DTS cancel
        p = Portfolio(securities=(
            Security("B1", 1_000, 100.0), Security("B2", 1_000, 100.0)))
        spec = BondRiskSpec(sectors=("fin", "fin"), buckets=("5y", "5y"),
                            modified_duration=(4.0, 4.0), dts=(120.0, 120.0))
        q = RedemptionPortfolio(quantities=np.array([500.0, 0.0]))
        from lst import weight_distortion

        delta = weight_distortion(p, q).delta
        assert delta.sum() == pytest.approx(0.0, abs=1e-15)
        assert tracking_risk_bond(p, q, spec) == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def groupby_oracle(p, q, spec):
        """The tracking risk by independent aggregation with dictionaries."""
        from lst import weight_distortion

        delta = weight_distortion(p, q).delta
        by_sector, by_cell, by_dts = {}, {}, {}
        for i in range(p.n):
            s, b = spec.sectors[i], spec.buckets[i]
            by_sector[s] = by_sector.get(s, 0.0) + delta[i]
            by_cell[(s, b)] = by_cell.get((s, b), 0.0) + delta[i] * spec.modified_duration[i]
            by_dts[s] = by_dts.get(s, 0.0) + delta[i] * spec.dts[i]
        return (sum(abs(v) for v in by_sector.values())
                + sum(abs(v) for v in by_cell.values())
                + sum(abs(v) for v in by_dts.values()))

    def test_matches_groupby_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            p = random_portfolio(rng, n=10)
            spec = self.make_spec(p, rng)
            q = RedemptionPortfolio(quantities=rng.uniform(0, 0.8, p.n) * p.shares)
            assert tracking_risk_bond(p, q, spec) == pytest.approx(self.groupby_oracle(p, q, spec),
                                                                   rel=1e-12)

    def test_mixed_labels_match_groupby_oracle_up_to_300_bonds(self):
        # str and int labels side by side: 1 and "1" are two sectors, and the
        # buckets of a sector may mix both kinds too
        rng = np.random.default_rng(19)
        labels = [0, 1, 2, "0", "1", "2", "a"]
        for n in (1, 2, 7, 30, 120, 300):
            p = random_portfolio(rng, n=n)
            for _ in range(3):
                spec = BondRiskSpec(
                    sectors=tuple(labels[k] for k in rng.integers(0, len(labels), n)),
                    buckets=tuple(labels[k] for k in rng.integers(0, 4, n)),
                    modified_duration=tuple(rng.uniform(0.5, 12, n).tolist()),
                    dts=tuple(rng.uniform(10, 400, n).tolist()))
                q = RedemptionPortfolio(quantities=rng.uniform(0, 0.8, n) * p.shares)
                assert tracking_risk_bond(p, q, spec) == \
                    pytest.approx(self.groupby_oracle(p, q, spec), rel=1e-12, abs=0.0), n

    def test_equal_labels_of_two_types_are_one_sector(self):
        # 1 and 1.0 compare equal, so they net as one sector; "1" is another
        p = Portfolio(securities=(Security("B1", 1_000, 100.0), Security("B2", 1_000, 100.0)))
        q = RedemptionPortfolio(quantities=np.array([500.0, 0.0]))
        same = BondRiskSpec(sectors=(1, 1.0), buckets=("5y", "5y"),
                            modified_duration=(4.0, 4.0), dts=(120.0, 120.0))
        assert tracking_risk_bond(p, q, same) == pytest.approx(0.0, abs=1e-12)
        apart = BondRiskSpec(sectors=(1, "1"), buckets=("5y", "5y"),
                             modified_duration=(4.0, 4.0), dts=(120.0, 120.0))
        assert tracking_risk_bond(p, q, apart) == pytest.approx(
            self.groupby_oracle(p, q, apart), rel=1e-12)
        assert tracking_risk_bond(p, q, apart) > 0.0

    @pytest.mark.parametrize("field, value", [
        ("modified_duration", math.nan), ("modified_duration", math.inf),
        ("dts", math.nan), ("dts", -math.inf)])
    def test_non_finite_duration_or_dts_rejected_by_field_and_bond(self, field, value):
        fields = dict(sectors=("a", "a", "b"), buckets=(1, 2, 1),
                      modified_duration=(2.0, 5.0, 3.0), dts=(0.1, 0.3, 0.2))
        fields[field] = fields[field][:2] + (value,)
        with pytest.raises(DomainError, match=rf"^{field} of bond 2 must be finite, got {value!r}$"):
            BondRiskSpec(**fields)

    @pytest.mark.parametrize("field", ["sectors", "buckets"])
    def test_missing_label_rejected_when_the_spec_is_built(self, field):
        fields = dict(sectors=("a", "a", "b"), buckets=(1, 2, 1),
                      modified_duration=(2.0, 5.0, 3.0), dts=(0.1, 0.3, 0.2))
        fields[field] = (fields[field][0], None, fields[field][2])
        with pytest.raises(DomainError, match="^bond 1 needs a sector and a maturity bucket$"):
            BondRiskSpec(**fields)

    def test_incomplete_spec_rejected(self, fund):
        spec = BondRiskSpec(sectors=("a",), buckets=("b",),
                            modified_duration=(1.0,), dts=(1.0,))
        q = RedemptionPortfolio(quantities=0.1 * fund.shares)
        with pytest.raises(DomainError):
            tracking_risk_bond(fund, q, spec)


class TestEvaluatePolicy:
    def test_published_rows(self, fund, cost_model):
        for name, (quantities, tr, tc, tc_s, tc_pi, ls) in MIXING_POLICIES.items():
            ev = evaluate_policy(fund, cost_model, policy(name), 1)
            assert 1e4 * ev.tracking_risk == pytest.approx(tr, abs=0.05), name
            assert 1e4 * ev.tc == pytest.approx(tc, abs=0.05), name
            assert 100 * ev.shortfall == pytest.approx(ls, abs=0.05), name
            assert ev.components_consistent

    def test_mixture_composition(self, fund, cost_model):
        # portfolio #5 is 40% of #1 plus 60% of #4 (up to share rounding)
        blend = 0.4 * np.array(MIXING_POLICIES["#1"][0]) + 0.6 * np.array(MIXING_POLICIES["#4"][0])
        np.testing.assert_allclose(blend, MIXING_POLICIES["#5"][0], atol=0.5)
        ev = evaluate_policy(fund, cost_model, RedemptionPortfolio(quantities=blend), 1)
        assert 100 * ev.shortfall == pytest.approx(9.4, abs=0.05)
        assert 1e4 * ev.tracking_risk == pytest.approx(21.2, abs=0.05)


class TestOptimizePolicy:
    def test_zero_tracking_cap_returns_pro_rata(self, fund, cost_model):
        shock = RedemptionShock.from_rate(fund, 0.10)
        res = optimize_policy(fund, cost_model, shock, tr_max=0.0, ls_max=1.0)
        assert isinstance(res, OptimalPolicy)
        np.testing.assert_allclose(res.redemption.quantities, 0.10 * fund.shares, rtol=1e-9)

    def test_zero_tracking_cap_returns_pro_rata_when_a_bound_is_below_the_holdings(self,
                                                                                   cost_model):
        # A7 sells 260 of its 1,800 shares within 260 days at 1 a day; its 5%
        # slice, 90 shares, still fits, so the zero-risk pro-rata is feasible
        fund = make_fund(limit_overrides={"A7": 1})
        res = optimize_policy(fund, cost_model, RedemptionShock.from_rate(fund, 0.05),
                              tr_max=0.0, ls_max=1.0)
        assert isinstance(res, OptimalPolicy)
        np.testing.assert_allclose(res.redemption.quantities, 0.05 * fund.shares, rtol=1e-9)

    def test_capped_problem_beats_the_benchmark_mixture(self, fund, cost_model):
        # LS <= 10% and TR <= 20bp admit a policy at least as cheap as the
        # published compromise portfolio (22.6bp)
        shock = RedemptionShock.from_rate(fund, 0.10)
        res = optimize_policy(fund, cost_model, shock, tr_max=20e-4, ls_max=0.10)
        assert isinstance(res, OptimalPolicy)
        ev = res.evaluation
        assert ev.tracking_risk <= 20e-4 + 1e-9
        assert ev.shortfall <= 0.10 + 1e-9
        assert 1e4 * ev.tc <= 22.6

    def test_unconstrained_run_undercuts_all_candidates(self, fund, cost_model):
        shock = RedemptionShock.from_rate(fund, 0.10)
        res = optimize_policy(fund, cost_model, shock, tr_max=np.inf, ls_max=1.0)
        assert isinstance(res, OptimalPolicy)
        best_candidate = min(
            evaluate_policy(fund, cost_model, policy(name), 1).tc for name in MIXING_POLICIES)
        assert res.evaluation.tc <= best_candidate + 1e-9

    def test_never_worse_than_feasible_pro_rata(self, fund, cost_model):
        shock = RedemptionShock.from_rate(fund, 0.10)
        pro_rata = evaluate_policy(
            fund, cost_model, RedemptionPortfolio(quantities=0.1 * fund.shares), 1)
        res = optimize_policy(fund, cost_model, shock, tr_max=1.0, ls_max=0.50)
        assert isinstance(res, OptimalPolicy)
        assert res.evaluation.tc <= pro_rata.tc + 1e-9

    def test_impossible_shortfall_is_typed(self, fund, cost_model):
        # a 20% shock cannot be raised in one day even selling at every limit
        shock = RedemptionShock.from_rate(fund, 0.20)
        res = optimize_policy(fund, cost_model, shock, tr_max=1.0, ls_max=0.0)
        assert isinstance(res, InfeasiblePolicy)
        assert res.binding_constraint == "shortfall"

    def test_zero_shock_rejected(self, fund, cost_model):
        with pytest.raises(DomainError):
            optimize_policy(fund, cost_model, RedemptionShock(rate=0.0, amount=0.0),
                            tr_max=1.0, ls_max=1.0)

    @pytest.mark.parametrize("caps, name", [
        ((math.nan, 0.10), "tr_max"), ((-1e-4, 0.10), "tr_max"), ((-math.inf, 0.10), "tr_max"),
        ((20e-4, math.nan), "ls_max"), ((20e-4, -0.01), "ls_max")])
    def test_nan_or_negative_cap_rejected_by_name(self, fund, cost_model, caps, name):
        # a NaN cap would act as no cap: no constraint is added and no `x > cap` check fails
        shock = RedemptionShock.from_rate(fund, 0.10)
        with pytest.raises(DomainError, match=rf"^{name} must be non-negative, got "):
            optimize_policy(fund, cost_model, shock, *caps)


def scipy_slsqp(fun, x0, lb, ub, eq=(), ineq=(), maxiter=100, ftol=1e-6):
    """The oracle: ``scipy.optimize.minimize(method="SLSQP")`` behind ``_slsqp.minimize``'s signature."""
    from scipy import optimize

    res = optimize.minimize(
        fun, x0, method="SLSQP", bounds=list(zip(lb, ub)),
        constraints=([{"type": "eq", "fun": c} for c in eq]
                     + [{"type": "ineq", "fun": c} for c in ineq]),
        options={"maxiter": maxiter, "ftol": ftol})
    return SlsqpResult(x=res.x, fun=res.fun, mode=res.status, nit=res.nit, nfev=res.nfev)


def outcome(res: SlsqpResult):
    return res.x.tobytes(), res.fun, res.mode, res.nit, res.nfev


def slsqp_problem(rng, n, kinked, n_ineq, scale, n_fixed):
    """A box-bounded problem with one linear equality and 0-2 inequalities.

    Variables live at ``scale`` (1e9 forces scipy's relative-step fallback);
    some boxes are narrower than the difference step, and each start
    coordinate lies inside its box, on a bound or past one.
    """
    lb = rng.uniform(-2.0, 1.0, n)
    ub = lb + rng.choice([1e-9, 0.1, 1.0, 3.0], n, p=[0.1, 0.3, 0.3, 0.3])
    fixed = rng.choice(n, n_fixed, replace=False)
    ub[fixed] = lb[fixed]
    inside = rng.uniform(lb, ub)
    x0 = np.choose(rng.choice(5, n, p=[0.4, 0.2, 0.2, 0.1, 0.1]),
                   [rng.uniform(lb, ub), lb, ub, lb - 1.0, ub + 1.0])
    c, w, a = rng.normal(0.0, 1.0, n), rng.uniform(0.5, 2.0, n), rng.normal(0.0, 1.0, n)
    if kinked:
        def fun(x):
            z = x / scale
            return float(w @ np.abs(z - c) + 0.05 * z @ z)
    else:
        def fun(x):
            z = x / scale
            return float(w @ (z - c) ** 2 + 0.1 * math.sin(a @ z))
    b = float(a @ inside)
    eq = [lambda x: float(a @ (x / scale)) - b]
    ineq = []
    for _ in range(n_ineq):
        centre = rng.normal(0.0, 1.0, n)
        if kinked:
            r = float(np.abs(inside - centre).max()) + 0.3
            ineq.append(lambda x, m=centre, r=r: r - float(np.abs(x / scale - m).max()))
        else:
            r = float((inside - centre) @ (inside - centre)) + 0.5
            ineq.append(lambda x, m=centre, r=r: r - float((x / scale - m) @ (x / scale - m)))
    return fun, scale * x0, scale * lb, scale * ub, eq, ineq


class TestSlsqpMinimize:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.booleans(), st.integers(0, 2),
           st.sampled_from([1.0, 1e9]), st.integers(0, 1))
    def test_reproduces_scipy_slsqp(self, seed, n, kinked, n_ineq, scale, n_fixed):
        problem = slsqp_problem(np.random.default_rng(seed), n, kinked, n_ineq, scale, n_fixed)
        options = dict(maxiter=300, ftol=1e-8)
        assert outcome(_slsqp.minimize(*problem, **options)) == \
            outcome(scipy_slsqp(*problem, **options))


def one_factor_fund(n=30, seed=30) -> Portfolio:
    """n names with one-factor correlations, each sellable within 1-12 days at its limit."""
    rng = np.random.default_rng(seed)
    volume = np.round(np.exp(rng.normal(math.log(2e5), 1.0, n))) + 1000.0
    limit = 0.1 * volume
    securities = tuple(
        Security(f"S{i:02d}", shares=float(np.round(limit[i] * rng.uniform(1.0, 12.0))),
                 price=float(np.round(rng.uniform(10.0, 300.0), 2)), daily_limit=float(limit[i]),
                 daily_volume=float(volume[i]), volatility=float(rng.uniform(0.1, 0.4)),
                 spread=float(rng.uniform(2e-4, 2e-3)))
        for i in range(n))
    beta = rng.uniform(0.3, 0.9, n)
    rho = np.outer(beta, beta)
    np.fill_diagonal(rho, 1.0)
    return Portfolio(securities=securities, correlation=rho)


class TestOptimizePolicyMatchesScipy:
    """optimize_policy gives the same policy and start records under scipy's SLSQP."""

    def same_under_scipy(self, monkeypatch, portfolio, shock, tr_max, ls_max, horizon):
        args = (portfolio, CostModel(), RedemptionShock.from_rate(portfolio, shock),
                tr_max, ls_max, horizon)
        ours = optimize_policy(*args)
        monkeypatch.setattr(_slsqp, "minimize", scipy_slsqp)
        theirs = optimize_policy(*args)
        assert isinstance(ours, OptimalPolicy)
        assert ours.redemption.quantities.tobytes() == theirs.redemption.quantities.tobytes()
        assert ours.starts == theirs.starts
        return ours

    @pytest.mark.parametrize("shock, tr_max, ls_max, h", [
        ("0.05", "10bp", "0.30", 2), ("0.10", "20bp", "0.10", 1), ("0.15", "30bp", "0.40", 3)])
    def test_packaged_fund_cli_arguments(self, monkeypatch, shock, tr_max, ls_max, h):
        from lst.cli import parse_rate

        fund = load_portfolio(FUND, correlation_path=CORR)
        self.same_under_scipy(monkeypatch, fund, parse_rate(shock), parse_rate(tr_max),
                              parse_rate(ls_max), h)

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_one_factor_fund(self, monkeypatch, h):
        self.same_under_scipy(monkeypatch, one_factor_fund(), 0.10, 20e-4, 0.30, h)

    def test_zero_share_holding_is_a_fixed_variable(self, monkeypatch):
        # bounds (0, 0) make scipy solve over the other names only
        zeroed = Portfolio(securities=tuple(
            Security(sid, 0 if sid == "A6" else shares, *rest) for sid, shares, *rest in FUND_ROWS),
            correlation=CORRELATION)
        res = self.same_under_scipy(monkeypatch, zeroed, 0.10, 20e-4, 0.30, 2)
        assert res.redemption.quantities[5] == 0.0


def least_shortfall(portfolio, shock, h):
    """1 - A(h) / B: no sale raises more by day h than every name sold at its
    limit, A(h) = sum_i P_i min(h cap_i, shares_i)."""
    raised = np.minimum(h * portfolio.daily_limits, portfolio.shares) @ portfolio.prices
    return 1.0 - raised / shock.amount


class TestShortfallVerdictIsTheClosedForm:
    """``InfeasiblePolicy("shortfall")`` exactly when the least reachable
    shortfall exceeds ``ls_max``; otherwise a policy within the cap."""

    @pytest.mark.parametrize("make", [
        lambda: load_portfolio(FUND, correlation_path=CORR), one_factor_fund],
        ids=["packaged", "one-factor"])
    @pytest.mark.parametrize("rate", [0.05, 0.20, 0.40])
    def test_verdict_over_shocks_horizons_and_caps(self, make, rate):
        portfolio, cost_model = make(), CostModel()
        shock = RedemptionShock.from_rate(portfolio, rate)
        for h in (1, 3):
            least = least_shortfall(portfolio, shock, h)
            for ls_max in (0.0, 0.3, 0.99):
                res = optimize_policy(portfolio, cost_model, shock, 1.0, ls_max, h)
                case = (rate, h, ls_max, least)
                if least > ls_max + 1e-9:
                    assert isinstance(res, InfeasiblePolicy), case
                    assert res.binding_constraint == "shortfall" and res.starts == (), case
                    assert res.message.endswith(f"the least shortfall is {least:.6g}"), case
                else:
                    assert isinstance(res, OptimalPolicy), case
                    assert least - 1e-9 <= res.evaluation.shortfall <= ls_max + 1e-9, case
                    assert res.redemption.value(portfolio) == pytest.approx(shock.amount,
                                                                            rel=1e-6), case


class TestUnsoldPartIsNotPriced:
    """A sale a schedule does not finish is a DomainError, and the optimizer
    sells no more of a name than it finishes within ``MAX_DAYS_DEFAULT`` days."""

    def test_a_sale_cut_at_max_days_is_rejected(self, cost_model):
        p = Portfolio(securities=(Security("X", 1_000, 10.0, daily_limit=1, daily_volume=100,
                                           volatility=0.2, spread=1e-3),))
        q = RedemptionPortfolio(quantities=np.array([1_000.0]))
        with pytest.raises(DomainError, match=r"securities \['X'\] do not sell out within 260 days"):
            transaction_cost(p, cost_model, build_schedule(p, q))
        # given the days, every share is priced at the one-share unit cost
        unit = cost_model.unit_cost(np.array([0.01]), p.spreads, p.volatilities)[0]
        assert transaction_cost(p, cost_model, build_schedule(p, q, max_days=1_000)).total == \
            pytest.approx(unit, rel=1e-12)

    def test_a_name_with_a_zero_limit_is_rejected(self, cost_model):
        fund = make_fund(limit_overrides={"A7": 0})
        q = RedemptionPortfolio(quantities=0.1 * fund.shares)
        with pytest.raises(DomainError, match=r"securities \['A7'\] do not sell out"):
            transaction_cost(fund, cost_model, build_schedule(fund, q))

    def test_optimizer_sells_none_of_an_untradeable_name(self, cost_model):
        fund = make_fund(limit_overrides={"A7": 0})
        res = optimize_policy(fund, cost_model, RedemptionShock.from_rate(fund, 0.05),
                              tr_max=1.0, ls_max=0.99)
        assert isinstance(res, OptimalPolicy)
        assert res.redemption.quantities[6] == 0.0
        assert res.evaluation == evaluate_policy(fund, cost_model, res.redemption, 1)

    def test_shock_above_what_the_limits_sell_is_a_budget_verdict(self, cost_model):
        # A7 cannot be sold, and B holds 1,000 shares at 1 a day: 260 of them sell
        fund = Portfolio(securities=(
            Security("A", 1_000, 10.0, daily_limit=100, daily_volume=1_000, volatility=0.2),
            Security("B", 1_000, 10.0, daily_limit=1, daily_volume=100, volatility=0.2),
            Security("A7", 100, 10.0, daily_limit=0, daily_volume=100, volatility=0.2)),
            correlation=np.eye(3))
        sellable = (1_000 + 260) * 10.0 / tna(fund)
        res = optimize_policy(fund, cost_model, RedemptionShock.from_rate(fund, sellable * 1.001),
                              tr_max=1.0, ls_max=1.0, horizon=1)
        assert isinstance(res, InfeasiblePolicy) and res.binding_constraint == "budget"
        res = optimize_policy(fund, cost_model, RedemptionShock.from_rate(fund, sellable * 0.999),
                              tr_max=1.0, ls_max=1.0, horizon=1)
        assert isinstance(res, OptimalPolicy)
        assert res.redemption.quantities[1] <= 260.0 and res.redemption.quantities[2] == 0.0


class TestWinnerScoredOnce:
    """The returned evaluation is the winner's own ``evaluate_policy`` score."""

    @pytest.mark.parametrize("shock, tr_max, ls_max, h", [
        (0.05, 10e-4, 0.30, 2), (0.10, 20e-4, 0.10, 1), (0.15, 30e-4, 0.40, 3),
        (0.10, math.inf, 1.0, 1)])
    def test_evaluation_is_that_of_the_returned_redemption(self, fund, cost_model,
                                                           shock, tr_max, ls_max, h):
        res = optimize_policy(fund, cost_model, RedemptionShock.from_rate(fund, shock),
                              tr_max, ls_max, h)
        assert isinstance(res, OptimalPolicy)
        assert res.evaluation == evaluate_policy(fund, cost_model, res.redemption, h)

    def test_non_finite_bond_spec_never_reaches_the_optimizer(self, fund, cost_model):
        # a NaN duration would make every tracking risk NaN, which passes the cap check
        with pytest.raises(DomainError, match="^modified_duration of bond 3 must be finite"):
            spec = BondRiskSpec(sectors=("a", "a", "b", "b", "c", "c", "c"),
                                buckets=(1, 2, 1, 2, 1, 2, 3),
                                modified_duration=(2.0, 5.0, 3.0, math.nan, 1.0, 4.0, 9.0),
                                dts=(0.1, 0.3, 0.2, 0.5, 0.05, 0.2, 0.6))
            optimize_policy(fund, cost_model, RedemptionShock.from_rate(fund, 0.10), 1e-4, 1.0,
                            bond_spec=spec)

    def test_bond_spec_scores_bond_tracking_risk(self, fund, cost_model):
        spec = BondRiskSpec(sectors=("a", "a", "b", "b", "c", "c", "c"),
                            buckets=(1, 2, 1, 2, 1, 2, 3),
                            modified_duration=(2.0, 5.0, 3.0, 7.0, 1.0, 4.0, 9.0),
                            dts=(0.1, 0.3, 0.2, 0.5, 0.05, 0.2, 0.6))
        shock = RedemptionShock.from_rate(fund, 0.10)
        res = optimize_policy(fund, cost_model, shock, 0.05, 0.30, 2, bond_spec=spec)
        assert isinstance(res, OptimalPolicy)
        assert res.evaluation == evaluate_policy(fund, cost_model, res.redemption, 2, spec)
        assert res.evaluation.tracking_risk == tracking_risk_bond(fund, res.redemption, spec)


class TestSolverDiagnostics:
    def test_one_record_per_start_and_one_chosen(self, fund, cost_model):
        shock = RedemptionShock.from_rate(fund, 0.10)
        res = optimize_policy(fund, cost_model, shock, tr_max=20e-4, ls_max=0.10)
        assert isinstance(res, OptimalPolicy)
        names = [s.name for s in res.starts]
        assert names == ["pro-rata", "cheapest", "pro-rata/cheapest", "fastest",
                         "pro-rata/fastest"]
        assert sum(s.chosen for s in res.starts) == 1
        for s in res.starts:
            assert s.mode == 0 and s.message == "Optimization terminated successfully"
            assert s.nit >= 1 and s.nfev > fund.n

    def test_tracking_risk_infeasibility_keeps_the_records(self, cost_model):
        # only pro-rata tracks exactly, and its illiquid half cannot be sold in a day
        p = Portfolio(securities=(
            Security("L", 1_000, 10.0, daily_limit=1_000, daily_volume=10_000, volatility=0.2),
            Security("I", 1_000, 10.0, daily_limit=10, daily_volume=100, volatility=0.3)),
            correlation=np.array([[1.0, 0.5], [0.5, 1.0]]))
        shock = RedemptionShock.from_rate(p, 0.10)
        res = optimize_policy(p, cost_model, shock, tr_max=0.0, ls_max=0.0)
        assert isinstance(res, InfeasiblePolicy) and res.binding_constraint == "tracking-risk"
        assert len(res.starts) == 5 and not any(s.chosen for s in res.starts)

    def test_a_start_the_cost_model_cannot_price_is_recorded_without_a_mode(self, cost_model):
        # A1 may sell 100,000 a day, half its volume: starts that sell more than
        # the 10% participation cap on day 1 stop at a DomainError
        fund = make_fund(limit_overrides={"A1": 100_000})
        res = optimize_policy(fund, cost_model, RedemptionShock.from_rate(fund, 0.10),
                              tr_max=1.0, ls_max=1.0)
        assert isinstance(res, OptimalPolicy)
        failed = [s for s in res.starts if s.mode is None]
        assert [s.name for s in failed] == ["pro-rata", "pro-rata/cheapest", "fastest",
                                            "pro-rata/fastest"]
        for s in failed:
            assert s.message == "participation above the one-day cap for ['A1']"
            assert (s.nit, s.nfev, s.chosen) == (0, 0, False)
        assert res.evaluation == evaluate_policy(fund, cost_model, res.redemption, 1)

    def test_shortfall_infeasibility_runs_no_start(self, fund, cost_model):
        shock = RedemptionShock.from_rate(fund, 0.20)
        res = optimize_policy(fund, cost_model, shock, tr_max=1.0, ls_max=0.0)
        assert isinstance(res, InfeasiblePolicy) and res.starts == ()
