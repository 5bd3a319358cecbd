"""
NAV dilution accounting, swing pricing (full / partial / dual / dynamic),
anti-dilution levies and the redemption-gate queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

from ._checks import DomainError, as_integer, check_finite, check_number


# =============================================================================
# FUND STATE AND FLOWS
# =============================================================================

@dataclass(frozen=True)
class FundState:
    """Unit price and unit count of a fund (liabilities assumed negligible)."""

    nav: float
    units: float

    def __post_init__(self) -> None:
        check_finite(self, ("nav", "units"), "positive")

    @property
    def tna(self) -> float:
        return self.nav * self.units


@dataclass(frozen=True)
class FlowEvent:
    """One dealing day: subscriptions, redemptions, asset return and the
    transaction cost the flows trigger."""

    subscribed: float = 0.0
    redeemed: float = 0.0
    asset_return: float = 0.0
    tc: float = 0.0

    def __post_init__(self) -> None:
        check_finite(self, ("subscribed", "redeemed", "tc"), "non-negative")
        check_number("asset_return", self.asset_return, "above -1")  # -1 leaves a gross NAV of 0

    @property
    def net_units(self) -> float:
        return self.subscribed - self.redeemed


def nav_step(state: FundState, event: FlowEvent) -> FundState:
    """Next-day NAV when transaction costs are mutualized (no swing).

    No flow: NAV * (1 + r). Net subscription: costs spread over the enlarged
    unit count; net redemption: over the unchanged one. This asymmetry is why
    redemptions dilute remaining investors more than subscriptions do.
    """
    gross = (1.0 + event.asset_return) * state.nav
    units_after = state.units + event.net_units
    if units_after <= 0:
        raise DomainError("flows redeem the whole fund")
    # no flow spreads any cost over the unchanged units, as a net redemption does
    nav = gross - event.tc / (units_after if event.net_units > 0 else state.units)
    return FundState(nav=nav, units=units_after)


def dilution_per_unit(state: FundState, event: FlowEvent) -> float:
    """NAV hit borne by each investor when costs are not swung:
    TC / max(units before, units after)."""
    return event.tc / max(state.units, state.units + event.net_units)


# =============================================================================
# SWING PRICING
# =============================================================================

def _as_member(kind, value, name: str):
    """``value``, a member of the Enum ``kind`` or its value such as "partial",
    as the member; anything else is a DomainError naming the valid values."""
    try:
        return kind(value)
    except ValueError:
        valid = ", ".join(repr(member.value) for member in kind)
        raise DomainError(f"{name} must be one of {valid}, got {value!r}") from None


class SwingMode(Enum):
    NONE = "none"
    FULL = "full"
    PARTIAL = "partial"
    DUAL = "dual"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class SwingConfig:
    """Swing-pricing policy.

    ``threshold`` applies in partial mode (net flow as a fraction of units);
    ``factor`` and ``product`` drive the dynamic threshold = product / factor;
    ``penalty`` is the gamma >= 1 weight on redemptions in the dual-pricing
    cost split (1 = pro-rata). ``mode`` is a ``SwingMode`` or its value.
    """

    mode: SwingMode = SwingMode.FULL
    threshold: float = 0.0
    factor: float = 0.0
    product: float = 0.0
    penalty: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", _as_member(SwingMode, self.mode, "swing mode"))
        check_finite(self, ("threshold", "factor", "product", "penalty"), "non-negative")
        if self.penalty < 1.0:
            raise DomainError("redemption penalty must be at least 1")


@dataclass(frozen=True)
class SwingResult:
    """Outcome of one swing-pricing step.

    Single-NAV modes fill ``nav_swing``; dual pricing fills ``nav_ask`` and
    ``nav_bid``. ``activated`` is False when the mechanism did not trigger
    (below threshold, or zero net flow), in which case the gross NAV applies.
    """

    nav_gross: float
    activated: bool
    nav_swing: Optional[float] = None
    nav_ask: Optional[float] = None
    nav_bid: Optional[float] = None


def dynamic_threshold(config: SwingConfig, factor_today: float) -> float:
    """Swing threshold implied by today's swing factor: product / factor."""
    check_number("swing factor", factor_today, "positive")
    return config.product / factor_today


def swing_nav(state: FundState, event: FlowEvent, config: SwingConfig) -> SwingResult:
    """Apply swing pricing to one dealing day.

    The adjusted NAV charges the day's transaction costs to the transacting
    side: NAV_swing = NAV_gross + TC / (net units), which is a markup for net
    subscriptions and a markdown for net redemptions. Buy-and-hold investors
    end the day exactly on the no-flow path; the fund's total net assets
    equal units_after * NAV_gross.

    Dual pricing splits the cost between an ask NAV (subscribers) and a bid
    NAV (redeemers) using alpha = N+ / (N+ + penalty * N-).

    Returns a non-activated result when there is no net flow (nothing to
    swing) or, in partial/dynamic mode, when |net flow| is below the
    (possibly dynamic) threshold, infinite on a day with no cost.
    Activation uses an inclusive comparison.
    A redeeming NAV below 0 (the swung NAV of a net redemption, or the dual
    bid) is a DomainError: the costs exceed what the redeemed units are worth.
    """
    gross = (1.0 + event.asset_return) * state.nav
    net = event.net_units
    units_after = state.units + net
    if units_after <= 0:
        raise DomainError("flows redeem the whole fund")

    if config.mode == SwingMode.NONE:
        return SwingResult(nav_gross=gross, activated=False)

    if config.mode == SwingMode.DUAL:
        if event.subscribed == 0 and event.redeemed == 0:
            return SwingResult(nav_gross=gross, activated=False)
        alpha = event.subscribed / (event.subscribed + config.penalty * event.redeemed)
        ask = gross + (alpha * event.tc / event.subscribed if event.subscribed > 0 else 0.0)
        bid = gross - ((1.0 - alpha) * event.tc / event.redeemed if event.redeemed > 0 else 0.0)
        _check_swung(bid, (1.0 - alpha) * event.tc, event.tc, gross, event.redeemed)
        return SwingResult(nav_gross=gross, activated=True, nav_ask=ask, nav_bid=bid)

    if net == 0:
        return SwingResult(nav_gross=gross, activated=False)

    if config.mode in (SwingMode.PARTIAL, SwingMode.DYNAMIC):
        threshold = config.threshold
        if config.mode == SwingMode.DYNAMIC:
            factor = config.factor
            if factor <= 0:
                # infer today's factor from the cost of the day's net flow
                factor = event.tc / (gross * abs(net)) if event.tc > 0 else 0.0
            if factor == 0:  # a day with no cost: the threshold is infinite
                return SwingResult(nav_gross=gross, activated=False)
            threshold = dynamic_threshold(config, factor)
        flow_rate = abs(net) / min(state.units, units_after)
        if flow_rate < threshold:
            return SwingResult(nav_gross=gross, activated=False)

    swung = gross + event.tc / net
    _check_swung(swung, event.tc, event.tc, gross, -net)
    return SwingResult(nav_gross=gross, activated=True, nav_swing=swung)


def _check_swung(nav: float, cost: float, tc: float, gross: float, redeemed: float) -> None:
    """Reject a redeeming NAV below 0: the redeemers' ``cost`` exceeds the
    gross value of the units they redeem."""
    if nav < 0:
        raise DomainError(f"the redeemers' part {cost:.6g} of the transaction cost {tc:.6g} "
                          f"exceeds the gross value {gross * redeemed:.6g} of the {redeemed:.6g} "
                          f"redeemed units (NAV {nav:.6g})")


# =============================================================================
# ANTI-DILUTION LEVIES
# =============================================================================

class AdlRule(Enum):
    NETTED = "netted"
    GROSS = "gross"
    PRO_RATA = "pro-rata"


@dataclass(frozen=True)
class AdlFees:
    """Entry/exit fees per unit; both None for the degenerate netted case
    (zero net flow leaves the netted levy undefined)."""

    entry: Optional[float]
    exit: Optional[float]

    @property
    def defined(self) -> bool:
        return self.entry is not None


def adl_fees(subscribed: float, redeemed: float, tc: float, rule: AdlRule) -> AdlFees:
    """Anti-dilution levies charging the day's costs through fees.

    Netted charges TC / |net units| to the majority side; gross charges
    TC / N+ (or TC / N-) to the majority side; pro-rata charges
    TC / (N+ + N-) to both sides. ``rule`` is an ``AdlRule`` or its value.
    """
    for name, value in (("subscribed", subscribed), ("redeemed", redeemed), ("tc", tc)):
        check_number(name, value, "non-negative")
    if subscribed + redeemed == 0:
        raise DomainError("no flows to levy")
    rule = _as_member(AdlRule, rule, "anti-dilution rule")
    net = subscribed - redeemed
    if rule == AdlRule.PRO_RATA:
        fee = tc / (subscribed + redeemed)
        return AdlFees(entry=fee if subscribed > 0 else 0.0,
                       exit=fee if redeemed > 0 else 0.0)
    if net == 0:
        if rule == AdlRule.NETTED:
            return AdlFees(entry=None, exit=None)
        return AdlFees(entry=0.0, exit=0.0)
    if rule == AdlRule.NETTED:
        fee = tc / abs(net)
    else:
        fee = tc / (subscribed if net > 0 else redeemed)
    if net > 0:
        return AdlFees(entry=fee, exit=0.0)
    return AdlFees(entry=0.0, exit=fee)


# =============================================================================
# REDEMPTION GATE
# =============================================================================

#: The smallest gate cap. ``gate_schedule`` makes one fill per day a request
#: spans, about rate/cap fills, so the bound keeps a request for all net
#: assets to about 10,000 fills.
GATE_CAP_MIN = 1e-4
GATE_CAP_RANGE = f"[{GATE_CAP_MIN:g}, 1]"  # the cap's bound for ``check_number``


@dataclass(frozen=True)
class GatePolicy:
    """Daily cap on executed redemptions, as a fraction of net assets."""

    daily_cap: float

    def __post_init__(self) -> None:
        check_number("gate cap", self.daily_cap, GATE_CAP_RANGE)


@dataclass(frozen=True)
class GateRequest:
    """A redemption request: arrival day and size as a fraction of net assets,
    at most 1, since a request cannot exceed the fund."""

    day: int
    investor: str
    rate: float

    def __post_init__(self) -> None:
        # any integer day, 0 and negative ones included
        if as_integer(self.day) is None:
            raise DomainError(f"request day must be an integer, got {self.day!r}")
        check_number("redemption rate", self.rate, "[0, 1]")


@dataclass(frozen=True)
class GateFill:
    """Execution slice: the part of a request filled on a given day."""

    day: int
    investor: str
    rate: float           # executed fraction of net assets
    fraction_of_request: float


def gate_schedule(requests: Sequence[GateRequest], policy: GatePolicy) -> List[GateFill]:
    """FIFO gate: each day executes up to the cap, earlier requests first.

    Requests arriving the same day keep their listing order. One pass fills
    each request in turn, from its arrival day or, if later, the day the one
    before it finished, so unexecuted remainders carry to the next day ahead
    of later arrivals. Fills are exact fractions (no rounding).
    """
    fills: List[GateFill] = []
    day, capacity = None, 0.0  # the day being filled and the capacity left on it
    for req in sorted(requests, key=lambda r: r.day):  # stable: listing order within a day
        if req.rate <= 0:
            continue
        if day is None or req.day > day:  # the queue ran dry before this arrival
            day, capacity = req.day, policy.daily_cap
        remaining = req.rate
        while True:
            if capacity <= 1e-15:
                day, capacity = day + 1, policy.daily_cap
            executed = min(remaining, capacity)
            fills.append(GateFill(day=day, investor=req.investor, rate=executed,
                                  fraction_of_request=executed / req.rate))
            remaining -= executed
            capacity -= executed
            if remaining <= 1e-15:
                break
    return fills


def gate_totals(fills: Sequence[GateFill]) -> dict:
    """Total executed rate per investor."""
    totals: dict = {}
    for fill in fills:
        totals[fill.investor] = totals.get(fill.investor, 0.0) + fill.rate
    return totals
