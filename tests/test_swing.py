import math
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lst import (
    AdlRule,
    DomainError,
    FlowEvent,
    FundState,
    GateFill,
    GatePolicy,
    GateRequest,
    SwingConfig,
    SwingMode,
    SwingResult,
    adl_fees,
    dilution_per_unit,
    dynamic_threshold,
    gate_schedule,
    gate_totals,
    nav_step,
    swing_nav,
)

STATE = FundState(nav=100.0, units=10.0)
FULL = SwingConfig(mode=SwingMode.FULL)


class TestNavStep:
    def test_no_flow(self):
        assert nav_step(STATE, FlowEvent(asset_return=0.05)).nav == pytest.approx(105.0)

    def test_subscription_spreads_cost_over_enlarged_base(self):
        after = nav_step(STATE, FlowEvent(subscribed=5, asset_return=0.05, tc=30))
        assert after.nav == pytest.approx(103.0)
        assert after.units == 15

    def test_redemption_spreads_cost_over_original_base(self):
        after = nav_step(STATE, FlowEvent(redeemed=5, asset_return=0.05, tc=30))
        assert after.nav == pytest.approx(102.0)
        assert after.units == 5

    def test_dilution_asymmetry(self):
        # same |flow| and cost: redemptions dilute remaining investors more
        sub = dilution_per_unit(STATE, FlowEvent(subscribed=5, tc=30))
        red = dilution_per_unit(STATE, FlowEvent(redeemed=5, tc=30))
        assert red > sub
        assert sub == pytest.approx(2.0)
        assert red == pytest.approx(3.0)

    def test_redeeming_everything_rejected(self):
        with pytest.raises(DomainError):
            nav_step(STATE, FlowEvent(redeemed=10))

    def test_tna_is_nav_times_units(self):
        assert STATE.tna == 1000.0


class TestSwingNav:
    def test_subscription_swings_up(self):
        res = swing_nav(STATE, FlowEvent(subscribed=5, asset_return=0.05, tc=30), FULL)
        assert res.activated
        assert res.nav_swing == pytest.approx(111.0)

    def test_redemption_swings_down(self):
        res = swing_nav(STATE, FlowEvent(redeemed=5, asset_return=0.05, tc=30), FULL)
        assert res.nav_swing == pytest.approx(99.0)

    def test_mode_none_never_swings(self):
        res = swing_nav(STATE, FlowEvent(redeemed=2, asset_return=0.05, tc=30),
                        SwingConfig(mode=SwingMode.NONE))
        assert (res.nav_gross, res.activated) == (pytest.approx(105.0), False)
        assert res.nav_swing is res.nav_ask is res.nav_bid is None

    def test_no_net_flow_is_a_no_op(self):
        res = swing_nav(STATE, FlowEvent(subscribed=3, redeemed=3, tc=10), FULL)
        assert not res.activated
        assert res.nav_swing is None

    def test_buy_and_hold_investor_unaffected(self):
        # after the swing step the fund's net assets equal units * gross NAV,
        # so a passive holder sits exactly on the no-flow path
        rng = np.random.default_rng(91)
        for _ in range(1000):
            units = float(rng.uniform(1, 1000))
            state = FundState(nav=float(rng.uniform(10, 500)), units=units)
            subscribed = float(rng.uniform(0, 300))
            redeemed = float(rng.uniform(0, min(units + subscribed - 0.1, 300)))
            event = FlowEvent(subscribed=subscribed, redeemed=redeemed,
                              asset_return=float(rng.uniform(-0.1, 0.1)),
                              tc=float(rng.uniform(0, 50)))
            gross = (1.0 + event.asset_return) * state.nav
            if event.tc > gross * -event.net_units > 0:  # the swung NAV would be negative
                with pytest.raises(DomainError, match="exceeds the gross value"):
                    swing_nav(state, event, FULL)
                continue
            res = swing_nav(state, event, FULL)
            if not res.activated:
                continue
            units_after = state.units + event.net_units
            tna_after = (state.units * res.nav_gross
                         + event.net_units * res.nav_swing - event.tc)
            assert tna_after == pytest.approx(units_after * res.nav_gross, abs=1e-10 * tna_after + 1e-10)

    def test_partial_mode_threshold_is_inclusive(self):
        config = SwingConfig(mode=SwingMode.PARTIAL, threshold=0.5)
        exactly_at = swing_nav(STATE, FlowEvent(redeemed=5, tc=10), config)  # 5/5 = 100% >= 50%
        assert exactly_at.activated
        at_boundary = swing_nav(
            FundState(nav=100, units=10), FlowEvent(subscribed=5, tc=10), config)
        assert at_boundary.activated  # 5 / min(10, 15) = 50% >= 50%
        below = swing_nav(
            FundState(nav=100, units=10), FlowEvent(subscribed=4, tc=10), config)
        assert not below.activated  # 4 / 10 = 40% < 50%

    @pytest.mark.parametrize("mode", list(SwingMode))
    def test_a_mode_string_is_its_member(self, mode):
        # kept as a string, the mode would match no member and swing fully
        config = SwingConfig(mode=mode.value, threshold=0.5)
        assert config.mode is mode
        assert config == SwingConfig(mode=mode, threshold=0.5)
        event = FlowEvent(redeemed=1, tc=30)
        assert swing_nav(STATE, event, config) == swing_nav(STATE, event, SwingConfig(mode=mode, threshold=0.5))

    def test_partial_string_below_its_threshold_does_not_swing(self):
        result = swing_nav(FundState(nav=100.0, units=100.0), FlowEvent(redeemed=1, tc=30),
                           SwingConfig(mode="partial", threshold=0.5))
        assert not result.activated and result.nav_swing is None

    @pytest.mark.parametrize("mode", ["bogus", "FULL", None, 1])
    def test_an_unknown_mode_names_the_valid_ones(self, mode):
        message = (r"^swing mode must be one of 'none', 'full', 'partial', 'dual', 'dynamic', "
                   rf"got {re.escape(repr(mode))}$")
        with pytest.raises(DomainError, match=message):
            SwingConfig(mode=mode)

    def test_dual_pricing_pro_rata_split(self):
        config = SwingConfig(mode=SwingMode.DUAL, penalty=1.0)
        res = swing_nav(STATE, FlowEvent(subscribed=10, redeemed=5, asset_return=0.05, tc=30), config)
        assert res.nav_ask == pytest.approx(107.0)
        assert res.nav_bid == pytest.approx(103.0)

    def test_dual_pricing_penalized_split(self):
        config = SwingConfig(mode=SwingMode.DUAL, penalty=2.0)
        res = swing_nav(STATE, FlowEvent(subscribed=10, redeemed=5, asset_return=0.05, tc=30), config)
        assert res.nav_ask == pytest.approx(106.5)
        assert res.nav_bid == pytest.approx(102.0)

    def test_dual_pricing_without_flows_is_not_activated(self):
        res = swing_nav(STATE, FlowEvent(asset_return=0.05, tc=30),
                        SwingConfig(mode=SwingMode.DUAL))
        assert not res.activated
        assert res.nav_ask is None and res.nav_bid is None
        assert res.nav_gross == pytest.approx(105.0)

    def test_dual_split_charges_exactly_the_cost(self):
        rng = np.random.default_rng(92)
        for _ in range(200):
            subscribed = float(rng.uniform(0.1, 50))
            redeemed = float(rng.uniform(0.1, 9))
            tc = float(rng.uniform(0, 40))
            gamma = float(rng.uniform(1, 4))
            config = SwingConfig(mode=SwingMode.DUAL, penalty=gamma)
            res = swing_nav(STATE, FlowEvent(subscribed=subscribed, redeemed=redeemed, tc=tc), config)
            charged = (subscribed * (res.nav_ask - res.nav_gross)
                       - redeemed * (res.nav_bid - res.nav_gross))
            assert charged == pytest.approx(tc, abs=1e-9)

    @pytest.mark.parametrize("config, event, part, nav", [
        (FULL, FlowEvent(redeemed=2, tc=500), "500", "-150"),
        (SwingConfig(mode=SwingMode.PARTIAL, threshold=0.1), FlowEvent(redeemed=2, tc=500),
         "500", "-150"),
        (SwingConfig(mode=SwingMode.DUAL), FlowEvent(redeemed=2, tc=500), "500", "-150"),
        # gamma 2 gives the redeemers 2 * 2 / (3 + 2 * 2) of the cost
        (SwingConfig(mode=SwingMode.DUAL, penalty=2.0), FlowEvent(subscribed=3, redeemed=2, tc=500),
         "285.714", "-42.8571"),
    ], ids=["full", "partial", "dual-redemption-only", "dual-net-subscription"])
    def test_a_negative_redeeming_nav_is_rejected(self, config, event, part, nav):
        # the redeemers' cost is more than their units are worth at the gross NAV
        message = (f"^the redeemers' part {part} of the transaction cost 500 exceeds the "
                   f"gross value 200 of the 2 redeemed units \\(NAV {nav}\\)$")
        with pytest.raises(DomainError, match=message):
            swing_nav(STATE, event, config)

    @pytest.mark.parametrize("mode", [SwingMode.FULL, SwingMode.DUAL])
    def test_a_redeeming_nav_of_zero_is_kept(self, mode):
        res = swing_nav(STATE, FlowEvent(redeemed=2, tc=200), SwingConfig(mode=mode))
        assert (res.nav_swing if mode == SwingMode.FULL else res.nav_bid) == 0.0

    def test_dynamic_threshold_values(self):
        config = SwingConfig(mode=SwingMode.DYNAMIC, product=2e-4)
        assert dynamic_threshold(config, 40e-4) == pytest.approx(0.05)
        assert dynamic_threshold(config, 60e-4) == pytest.approx(1 / 30)
        assert dynamic_threshold(config, 2e-4) == pytest.approx(1.0)
        with pytest.raises(DomainError):
            dynamic_threshold(config, 0.0)

    def test_dynamic_mode_activates_when_stress_raises_the_factor(self):
        # a 4% redemption misses a 5% static threshold but clears the dynamic
        # one once the factor moves from 40bp to 60bp (threshold 3.33%)
        state = FundState(nav=100.0, units=100.0)
        event = FlowEvent(redeemed=4.0, tc=0.0)
        static = SwingConfig(mode=SwingMode.PARTIAL, threshold=0.05)
        assert not swing_nav(state, event, static).activated
        dynamic = SwingConfig(mode=SwingMode.DYNAMIC, product=2e-4, factor=60e-4)
        assert swing_nav(state, event, dynamic).activated

    def test_dynamic_mode_infers_factor_from_costs(self):
        # without an explicit factor, the day's cost ratio implies one:
        # tc / (gross nav * |net flow|) = 24 / (100 * 4) = 60bp
        state = FundState(nav=100.0, units=100.0)
        event = FlowEvent(redeemed=4.0, tc=24.0)
        dynamic = SwingConfig(mode=SwingMode.DYNAMIC, product=2e-4)
        res = swing_nav(state, event, dynamic)
        assert res.activated
        assert res.nav_swing == pytest.approx(100.0 - 24.0 / 4.0)

    def test_a_day_with_no_cost_infers_no_swing(self):
        # the inferred factor is 0, so the threshold product / 0 is infinite;
        # this once raised "swing factor must be finite and positive, got 0.0"
        dynamic = SwingConfig(mode=SwingMode.DYNAMIC, product=2e-4)
        for event in (FlowEvent(redeemed=4.0), FlowEvent(subscribed=4.0)):
            res = swing_nav(FundState(nav=100.0, units=100.0), event, dynamic)
            assert res == SwingResult(nav_gross=100.0, activated=False)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make, field", [
        (FundState, "nav"), (FundState, "units"),
        (FlowEvent, "subscribed"), (FlowEvent, "redeemed"), (FlowEvent, "tc"),
        (FlowEvent, "asset_return"),
        (SwingConfig, "threshold"), (SwingConfig, "factor"), (SwingConfig, "product"),
        (SwingConfig, "penalty"),
    ])
    def test_rejected_by_field_name(self, make, field, value):
        defaults = {"nav": 100.0, "units": 10.0} if make is FundState else {}
        with pytest.raises(DomainError, match=field):
            make(**{**defaults, field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_adl_fees_reject_non_finite(self, value):
        for args in ((value, 5, 30), (10, value, 30), (10, 5, value)):
            with pytest.raises(DomainError):
                adl_fees(*args, AdlRule.GROSS)

    @pytest.mark.parametrize("k, name", [(0, "subscribed"), (1, "redeemed"), (2, "tc")])
    def test_adl_fees_name_the_argument(self, k, name):
        args = [10.0, 5.0, 30.0]
        args[k] = -1.0
        with pytest.raises(DomainError, match=rf"^{name} must be finite and non-negative, got -1\.0$"):
            adl_fees(*args, AdlRule.GROSS)


class TestAdlFees:
    def test_gross_rule_charges_majority_side(self):
        fees = adl_fees(10, 5, 30, AdlRule.GROSS)
        assert fees.entry == pytest.approx(3.0)
        assert fees.exit == 0.0
        fees = adl_fees(5, 10, 30, AdlRule.GROSS)
        assert fees.entry == 0.0
        assert fees.exit == pytest.approx(3.0)

    def test_netted_rule_uses_net_flow(self):
        fees = adl_fees(10, 5, 30, AdlRule.NETTED)
        assert fees.entry == pytest.approx(6.0)
        assert fees.exit == 0.0

    def test_pro_rata_charges_both_sides(self):
        fees = adl_fees(10, 5, 30, AdlRule.PRO_RATA)
        assert fees.entry == fees.exit == pytest.approx(2.0)

    def test_pure_subscription_has_no_exit_fee(self):
        for rule in AdlRule:
            assert adl_fees(10, 0, 30, rule).exit == 0.0

    def test_netted_degenerate_at_zero_net_flow(self):
        fees = adl_fees(5, 5, 30, AdlRule.NETTED)
        assert not fees.defined
        assert fees.entry is None and fees.exit is None

    def test_gross_rule_charges_nothing_at_zero_net_flow(self):
        fees = adl_fees(5, 5, 30, AdlRule.GROSS)
        assert fees.defined
        assert (fees.entry, fees.exit) == (0.0, 0.0)

    def test_no_flows_rejected(self):
        with pytest.raises(DomainError):
            adl_fees(0, 0, 30, AdlRule.GROSS)

    @pytest.mark.parametrize("rule", list(AdlRule))
    def test_a_rule_string_is_its_member(self, rule):
        assert adl_fees(10, 5, 30, rule.value) == adl_fees(10, 5, 30, rule)

    @pytest.mark.parametrize("rule", ["bogus", "pro_rata", None])
    def test_an_unknown_rule_names_the_valid_ones(self, rule):
        message = (r"^anti-dilution rule must be one of 'netted', 'gross', 'pro-rata', "
                   rf"got {re.escape(repr(rule))}$")
        with pytest.raises(DomainError, match=message):
            adl_fees(10, 5, 30, rule)


def gate_schedule_by_days(requests, policy):
    """Reference: the day-by-day queue, one day of the cap at a time."""
    queue = deque()  # [investor, remaining, original]
    fills = []
    pending = sorted(requests, key=lambda r: r.day)
    idx = 0
    day = min((r.day for r in requests), default=0)
    while idx < len(pending) or queue:
        while idx < len(pending) and pending[idx].day <= day:
            req = pending[idx]
            if req.rate > 0:
                queue.append([req.investor, req.rate, req.rate])
            idx += 1
        capacity = policy.daily_cap
        while queue and capacity > 1e-15:
            entry = queue[0]
            executed = min(entry[1], capacity)
            fills.append(GateFill(day=day, investor=entry[0], rate=executed,
                                  fraction_of_request=executed / entry[2]))
            entry[1] -= executed
            capacity -= executed
            if entry[1] <= 1e-15:
                queue.popleft()
        day = pending[idx].day if not queue and idx < len(pending) else day + 1
    return fills


@st.composite
def gate_cases(draw):
    cap = draw(st.sampled_from([0.01, 0.02, 0.05, 0.25, 1.0]) | st.floats(0.01, 1.0))
    rates = (st.floats(0.0, 0.2) | st.sampled_from([0.0, 1e-16, 1e-15, 2e-15, cap, cap / 3, 1.0])
             | st.floats(0.0, 1.0))
    days = st.integers(-3, 6) | st.sampled_from([40, 10**6])
    requests = draw(st.lists(st.tuples(days, rates), max_size=10))
    if requests and draw(st.booleans()):  # rates that add up to the cap
        requests.append((requests[-1][0], max(cap - sum(r for _, r in requests), 0.0)))
    return [GateRequest(day=d, investor=f"I{i}", rate=r) for i, (d, r) in enumerate(requests)], cap


class TestGate:
    @settings(max_examples=300, deadline=None)
    @given(gate_cases())
    def test_one_pass_equals_the_day_by_day_queue(self, case):
        requests, cap = case
        policy = GatePolicy(daily_cap=cap)
        assert gate_schedule(requests, policy) == gate_schedule_by_days(requests, policy)

    def test_published_queue(self):
        fills = gate_schedule(
            [GateRequest(day=0, investor="A", rate=0.05),
             GateRequest(day=1, investor="B", rate=0.02)],
            GatePolicy(daily_cap=0.02),
        )
        observed = [(f.day, f.investor, round(100 * f.rate, 10), round(100 * f.fraction_of_request, 10))
                    for f in fills]
        assert observed == [
            (0, "A", 2.0, 40.0),
            (1, "A", 2.0, 40.0),
            (2, "A", 1.0, 20.0),
            (2, "B", 1.0, 50.0),
            (3, "B", 1.0, 50.0),
        ]

    def test_no_gate_executes_same_day(self):
        fills = gate_schedule(
            [GateRequest(day=0, investor="A", rate=0.05),
             GateRequest(day=1, investor="B", rate=0.02)],
            GatePolicy(daily_cap=1.0),
        )
        assert [(f.day, f.investor, f.fraction_of_request) for f in fills] == [
            (0, "A", 1.0), (1, "B", 1.0)]

    def test_single_request_slices_evenly(self):
        fills = gate_schedule([GateRequest(day=0, investor="A", rate=0.10)],
                              GatePolicy(daily_cap=0.02))
        assert len(fills) == 5
        assert all(f.rate == pytest.approx(0.02) for f in fills)
        assert [f.day for f in fills] == [0, 1, 2, 3, 4]

    def test_conservation_and_cap_properties(self):
        rng = np.random.default_rng(93)
        for _ in range(50):
            requests = [
                GateRequest(day=int(rng.integers(0, 5)), investor=f"I{i}",
                            rate=float(rng.uniform(0, 0.08)))
                for i in range(int(rng.integers(1, 8)))
            ]
            cap = float(rng.uniform(0.01, 0.05))
            fills = gate_schedule(requests, GatePolicy(daily_cap=cap))
            totals = gate_totals(fills)
            for req in requests:
                if req.rate > 0:
                    assert totals[req.investor] == pytest.approx(
                        sum(r.rate for r in requests if r.investor == req.investor), abs=1e-12)
            by_day = {}
            for f in fills:
                by_day[f.day] = by_day.get(f.day, 0.0) + f.rate
            assert all(v <= cap + 1e-12 for v in by_day.values())

    def test_fifo_priority(self):
        fills = gate_schedule(
            [GateRequest(day=0, investor="early", rate=0.04),
             GateRequest(day=0, investor="late", rate=0.04)],
            GatePolicy(daily_cap=0.04),
        )
        assert fills[0].investor == "early"
        assert fills[0].fraction_of_request == pytest.approx(1.0)
        assert fills[1].day == 1

    def test_idle_days_between_requests(self):
        fills = gate_schedule(
            [GateRequest(day=0, investor="A", rate=0.01),
             GateRequest(day=5, investor="B", rate=0.01)],
            GatePolicy(daily_cap=0.02),
        )
        assert [(f.day, f.investor) for f in fills] == [(0, "A"), (5, "B")]

    def test_idle_gap_is_skipped(self):
        fills = gate_schedule(
            [GateRequest(day=0, investor="A", rate=0.01),
             GateRequest(day=10**6, investor="B", rate=0.01)],
            GatePolicy(daily_cap=0.02),
        )
        assert [(f.day, f.investor) for f in fills] == [(0, "A"), (10**6, "B")]

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(DomainError):
            GateRequest(day=0, investor="A", rate=rate)

    @pytest.mark.parametrize("rate", [-1e-300, 1.0000000000000002, 2.0, 1e300])
    def test_rate_outside_the_fund_rejected(self, rate):
        # a request cannot exceed the fund; a rate of 1e300 once never ended
        with pytest.raises(DomainError, match=r"redemption rate must lie in \[0, 1\]"):
            GateRequest(day=0, investor="A", rate=rate)

    def test_whole_fund_request_drains_at_the_cap(self):
        fills = gate_schedule([GateRequest(day=0, investor="A", rate=1.0)],
                              GatePolicy(daily_cap=0.5))
        assert [(f.day, f.rate, f.fraction_of_request) for f in fills] == \
            [(0, 0.5, 0.5), (1, 0.5, 0.5)]

    @pytest.mark.parametrize("day", [math.nan, 0.5, 1.0, np.float64(2.0), True, "1", None])
    def test_day_that_is_not_an_integer_rejected(self, day):
        # a NaN day once looped for ever, and 0.5 filled on days 0.5, 1.5, 2.5
        with pytest.raises(DomainError, match="request day must be an integer"):
            GateRequest(day=day, investor="A", rate=0.05)

    def test_zero_negative_and_numpy_days_queue(self):
        fills = gate_schedule(
            [GateRequest(day=np.int64(0), investor="B", rate=0.02),
             GateRequest(day=-2, investor="A", rate=0.03)],
            GatePolicy(daily_cap=0.02),
        )
        assert [(f.day, f.investor) for f in fills] == [(-2, "A"), (-1, "A"), (0, "B")]

    def test_cap_domain(self):
        with pytest.raises(DomainError):
            GatePolicy(daily_cap=0.0)


class TestRejectedInputs:
    @pytest.mark.parametrize("call, message", [
        (lambda: SwingConfig(mode=SwingMode.DUAL, penalty=0.5),
         "^redemption penalty must be at least 1$"),
        (lambda: swing_nav(STATE, FlowEvent(redeemed=10.0), FULL), "^flows redeem the whole fund$"),
        (lambda: swing_nav(STATE, FlowEvent(subscribed=1.0, redeemed=12.0), FULL),
         "^flows redeem the whole fund$"),
        (lambda: dynamic_threshold(SwingConfig(mode=SwingMode.DYNAMIC, product=2e-4), math.nan),
         "^swing factor must be finite and positive, got nan$"),
        (lambda: dynamic_threshold(SwingConfig(mode=SwingMode.DYNAMIC, product=2e-4), math.inf),
         "^swing factor must be finite and positive, got inf$"),
        # a return of -1 once divided by a gross NAV of 0, and below -1 gave a negative NAV
        (lambda: FlowEvent(redeemed=2.0, tc=5.0, asset_return=-1.0),
         r"^asset_return must be finite and above -1, got -1\.0$"),
        (lambda: FlowEvent(redeemed=2.0, tc=5.0, asset_return=-1.5),
         r"^asset_return must be finite and above -1, got -1\.5$"),
    ], ids=["penalty-below-one", "every-unit-redeemed", "more-than-every-unit",
            "dynamic-factor-nan", "dynamic-factor-inf", "total-loss-return", "return-below-minus-one"])
    def test_domain_error(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()
