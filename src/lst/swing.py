"""
NAV dilution accounting, swing pricing (full / partial / dual / dynamic),
anti-dilution levies and the redemption-gate queue.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, List, Optional, Sequence

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
        check_finite(self, ("asset_return",))

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
    cost split (1 = pro-rata).
    """

    mode: SwingMode = SwingMode.FULL
    threshold: float = 0.0
    factor: float = 0.0
    product: float = 0.0
    penalty: float = 1.0

    def __post_init__(self) -> None:
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
    (possibly dynamic) threshold. Activation uses an inclusive comparison.
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
            threshold = dynamic_threshold(config, factor)
        flow_rate = abs(net) / min(state.units, units_after)
        if flow_rate < threshold:
            return SwingResult(nav_gross=gross, activated=False)

    swung = gross + event.tc / net
    return SwingResult(nav_gross=gross, activated=True, nav_swing=swung)


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
    TC / (N+ + N-) to both sides.
    """
    if not all(v >= 0 and math.isfinite(v) for v in (subscribed, redeemed, tc)):
        raise DomainError("flows and costs must be finite and non-negative")
    if subscribed + redeemed == 0:
        raise DomainError("no flows to levy")
    rule = AdlRule(rule)
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

#: The smallest gate cap: a request for all net assets clears within 10,000
#: days. ``gate_schedule`` steps one day at a time, and below 1e-15 a day
#: executes nothing, so a smaller cap would run without bound.
GATE_CAP_MIN = 1e-4


@dataclass(frozen=True)
class GatePolicy:
    """Daily cap on executed redemptions, as a fraction of net assets."""

    daily_cap: float

    def __post_init__(self) -> None:
        if not GATE_CAP_MIN <= self.daily_cap <= 1.0:
            raise DomainError(f"gate cap must lie in [{GATE_CAP_MIN:g}, 1], got {self.daily_cap!r}")


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
        if not 0 <= self.rate <= 1:
            raise DomainError(f"redemption rate must lie in [0, 1], got {self.rate!r}")


@dataclass(frozen=True)
class GateFill:
    """Execution slice: the part of a request filled on a given day."""

    day: int
    investor: str
    rate: float           # executed fraction of net assets
    fraction_of_request: float


def gate_schedule(requests: Sequence[GateRequest], policy: GatePolicy) -> List[GateFill]:
    """FIFO gate: each day executes up to the cap, earlier requests first.

    Requests arriving the same day keep their listing order. Unexecuted
    remainders carry to the next day ahead of later arrivals. Fills are exact
    fractions (no rounding).
    """
    queue: Deque[List] = deque()  # [investor, remaining, original]
    fills: List[GateFill] = []
    pending = sorted(requests, key=lambda r: r.day)  # stable: listing order within a day
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
            fills.append(
                GateFill(day=day, investor=entry[0], rate=executed,
                         fraction_of_request=executed / entry[2])
            )
            entry[1] -= executed
            capacity -= executed
            if entry[1] <= 1e-15:
                queue.popleft()
        # an empty queue waits for the next arrival, not through idle days
        day = pending[idx].day if not queue and idx < len(pending) else day + 1
    return fills


def gate_totals(fills: Sequence[GateFill]) -> dict:
    """Total executed rate per investor."""
    totals: dict = {}
    for fill in fills:
        totals[fill.investor] = totals.get(fill.investor, 0.0) + fill.rate
    return totals
