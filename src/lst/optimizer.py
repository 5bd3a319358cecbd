"""
Mixed liquidation policies: transaction-cost evaluation under the two-regime
square-root/linear unit cost, tracking risk for equity and bond portfolios,
and the constrained policy optimizer trading cost against tracking risk and
liquidation shortfall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Tuple, Union

import numpy as np

from . import _slsqp
from ._checks import check_days, check_number
from .core import (
    DomainError,
    Portfolio,
    RedemptionPortfolio,
    RedemptionShock,
    check_finite,
    daily_volatility,
    tna,
    weight_distortion,
)
from .liquidation import MAX_DAYS_DEFAULT, LiquidationSchedule, _raised, build_schedule


# =============================================================================
# TRANSACTION COSTS
# =============================================================================

@dataclass(frozen=True)
class CostModel:
    """Unit transaction cost of trading a participation x = quantity / volume.

    c(x) = spread + beta_impact * sigma_daily * impact(x) with the impact
    shape selected by ``regime``:

    * ``sqrt_linear`` (default): sqrt(x) up to the knee, then the linear
      continuation sqrt(knee) * x / knee — the square-root/linear two-regime
      shape that market-impact calibrations produce for stressed sizes;
    * ``sqrt``: the single-regime square-root form at every size.

    Participations above ``participation_cap`` are not tradeable within one
    day.
    """

    beta_impact: float = 0.4
    knee: float = 0.05
    participation_cap: float = 0.10
    regime: str = "sqrt_linear"

    def __post_init__(self) -> None:
        check_finite(self, ("beta_impact",), "non-negative")
        check_finite(self, ("knee", "participation_cap"))
        if not 0.0 < self.knee <= self.participation_cap <= 1.0:  # a chain of three fields
            raise DomainError("need 0 < knee <= participation_cap <= 1")
        if self.regime not in ("sqrt", "sqrt_linear"):
            raise DomainError(f"unknown cost regime {self.regime!r}")

    def impact_shape(self, x: np.ndarray) -> np.ndarray:
        """Size-dependent impact multiplier before beta and volatility."""
        x = np.asarray(x, dtype=float)
        root = np.sqrt(np.maximum(x, 0.0))
        if self.regime == "sqrt":
            return root
        knee_root = math.sqrt(self.knee)
        return np.where(x <= self.knee, root, knee_root * x / self.knee)

    def unit_cost(self, x: np.ndarray, spread: np.ndarray, annual_vol: np.ndarray) -> np.ndarray:
        """Unit cost c(x) for given spreads and annualized volatilities."""
        daily_vol = daily_volatility(np.asarray(annual_vol, dtype=float))
        return np.asarray(spread, dtype=float) + self.beta_impact * daily_vol * self.impact_shape(x)


@dataclass(frozen=True)
class TransactionCost:
    """Transaction cost of a liquidation, as fractions of the liquidated value."""

    total: float
    spread_part: float
    impact_part: float


def transaction_cost(
    portfolio: Portfolio,
    cost_model: CostModel,
    schedule: LiquidationSchedule,
) -> TransactionCost:
    """Total cost of executing a liquidation schedule.

    Sums q_i(h) * P_i * c_i(q_i(h) / v_i) over securities and days, split
    into the bid-ask and market-impact components, and normalizes by the
    value of the liquidated portfolio (costs are in fractions of the traded
    amount, matching how liquidation costs are usually quoted).
    A sale at zero volume or above the participation cap is a DomainError,
    and so is a schedule that leaves part of its target unsold, unpriced.
    """
    value = schedule.target.value(portfolio)
    if value <= 0:
        return TransactionCost(total=0.0, spread_part=0.0, impact_part=0.0)
    volumes = portfolio.daily_volumes
    has_volume = volumes > 0
    per_volume = np.where(has_volume, volumes, 1.0)
    sold = schedule.sold
    # day h sells clip(s_i - (h-1) cap_i, 0, cap_i), which never grows with h:
    # a sale that passes both checks on day 1 passes them on every day
    if len(sold):
        bad = [portfolio.ids[i] for i in np.flatnonzero((volumes <= 0) & (sold[0] > 0))]
        if bad:
            raise DomainError(f"securities {bad} trade with zero daily volume")
        x = np.where(has_volume, sold[0] / per_volume, 0.0)
        bad = [portfolio.ids[i] for i in np.flatnonzero(x > cost_model.participation_cap * (1 + 1e-9))]
        if bad:
            raise DomainError(f"participation above the one-day cap for {bad}")
    if not schedule.exhausted:
        left = schedule.target.quantities - schedule.cumulative()
        bad = [portfolio.ids[i] for i in np.flatnonzero(left > 0)]
        raise DomainError(f"securities {bad} do not sell out within {schedule.max_days} days")
    impact_scale = cost_model.beta_impact * daily_volatility(portfolio.volatilities)
    spread_cost = impact_cost = 0.0
    for day in sold:
        active = day > 0
        x = np.where(has_volume, day / per_volume, 0.0)
        notional = day * portfolio.prices
        spread_cost += float((notional * portfolio.spreads)[active].sum())
        with np.errstate(over="ignore"):  # inf: a cost past the float range
            impact = notional * (impact_scale * cost_model.impact_shape(x))
        impact_cost += float(impact[active].sum())
    return TransactionCost(
        total=(spread_cost + impact_cost) / value,
        spread_part=spread_cost / value,
        impact_part=impact_cost / value,
    )


# =============================================================================
# TRACKING RISK
# =============================================================================

def tracking_risk_equity(portfolio: Portfolio, redemption: RedemptionPortfolio) -> float:
    """Tracking-error volatility of the post-liquidation weights.

    sqrt(dw' Sigma dw) with Sigma built from annualized volatilities and the
    portfolio's correlation matrix (which must be present).
    """
    rho = portfolio.require_correlation()
    delta = weight_distortion(portfolio, redemption).delta
    vols = portfolio.volatilities
    cov = np.outer(vols, vols) * rho
    return float(math.sqrt(max(delta @ cov @ delta, 0.0)))


@dataclass(frozen=True)
class BondRiskSpec:
    """Sector / maturity-bucket / duration / spread data for bond tracking risk.

    Every bond maps to exactly one sector and one maturity bucket, neither
    ``None``; labels are told apart by equality, so ``1`` and ``"1"`` are two
    sectors. ``modified_duration`` (in years) and ``dts``
    (duration-times-spread) must be finite.
    """

    sectors: tuple
    buckets: tuple
    modified_duration: tuple
    dts: tuple

    def __post_init__(self) -> None:
        n = len(self.sectors)
        if not (len(self.buckets) == len(self.modified_duration) == len(self.dts) == n):
            raise DomainError("bond risk spec fields must have equal length")
        for i, (sector, bucket) in enumerate(zip(self.sectors, self.buckets)):
            if sector is None or bucket is None:
                raise DomainError(f"bond {i} needs a sector and a maturity bucket")
        for name in ("modified_duration", "dts"):
            for i, value in enumerate(getattr(self, name)):
                check_number(f"{name} of bond {i}", value)

    @cached_property
    def _groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each bond's sector index and (sector, bucket) cell index, numbered
        in order of first appearance."""
        sector_of, cell_of = {}, {}
        sector = [sector_of.setdefault(s, len(sector_of)) for s in self.sectors]
        cell = [cell_of.setdefault(c, len(cell_of)) for c in zip(self.sectors, self.buckets)]
        return np.array(sector, dtype=np.intp), np.array(cell, dtype=np.intp)

    def validate_for(self, portfolio: Portfolio) -> None:
        if len(self.sectors) != portfolio.n:
            raise DomainError("bond risk spec does not cover every bond")


def tracking_risk_bond(
    portfolio: Portfolio,
    redemption: RedemptionPortfolio,
    spec: BondRiskSpec,
) -> float:
    """Bond tracking risk: sector weight gap + per-bucket duration gap + DTS gap.

    Sums |sum of dw| within each sector, |sum of dw * MD| within each
    sector-bucket cell, and |sum of dw * DTS| within each sector. Signed
    distortions net inside each absolute value.
    """
    spec.validate_for(portfolio)
    delta = weight_distortion(portfolio, redemption).delta
    sector, cell = spec._groups
    gaps = (np.bincount(sector, delta), np.bincount(cell, delta * spec.modified_duration),
            np.bincount(sector, delta * spec.dts))
    return float(sum(np.abs(gap).sum() for gap in gaps))


def _tracking_risk(portfolio: Portfolio, redemption: RedemptionPortfolio,
                   bond_spec: Optional[BondRiskSpec]) -> float:
    """Bond tracking risk under a ``bond_spec``, equity tracking risk without one."""
    if bond_spec is not None:
        return tracking_risk_bond(portfolio, redemption, bond_spec)
    return tracking_risk_equity(portfolio, redemption)


# =============================================================================
# POLICY EVALUATION AND OPTIMIZATION
# =============================================================================

@dataclass(frozen=True)
class PolicyEvaluation:
    """Cost / tracking-risk / shortfall summary of one liquidation portfolio."""

    tracking_risk: float
    tc: float
    tc_spread: float
    tc_impact: float
    shortfall: float  # 1 - liquidation ratio at the evaluation horizon

    @property
    def components_consistent(self) -> bool:
        return abs(self.tc - (self.tc_spread + self.tc_impact)) < 1e-12


def evaluate_policy(
    portfolio: Portfolio,
    cost_model: CostModel,
    redemption: RedemptionPortfolio,
    horizon: int = 1,
    bond_spec: Optional[BondRiskSpec] = None,
) -> PolicyEvaluation:
    """Evaluate a liquidation portfolio: tracking risk, cost split, shortfall."""
    check_days("horizon", horizon)
    return _evaluation(portfolio, cost_model, redemption, horizon,
                       _tracking_risk(portfolio, redemption, bond_spec))


def _evaluation(portfolio: Portfolio, cost_model: CostModel, redemption: RedemptionPortfolio,
                horizon: int, tracking_risk: float) -> PolicyEvaluation:
    """``evaluate_policy`` of a redemption whose tracking risk is already known."""
    schedule = build_schedule(portfolio, redemption)
    cost = transaction_cost(portfolio, cost_model, schedule)
    shortfall = 1.0 - schedule.amount(horizon) / redemption.value(portfolio)
    return PolicyEvaluation(
        tracking_risk=tracking_risk,
        tc=cost.total,
        tc_spread=cost.spread_part,
        tc_impact=cost.impact_part,
        shortfall=max(shortfall, 0.0),
    )


@dataclass(frozen=True)
class SolverStart:
    """Outcome of the SLSQP run from one starting point of ``optimize_policy``.

    ``mode`` is SLSQP's exit mode (0 is success) and ``message`` its text; a
    run that hit a ``DomainError`` has mode ``None`` and the error as its
    message. ``chosen`` marks the start whose result (or clipped start point)
    became the returned policy.
    """

    name: str
    mode: Optional[int]
    message: str
    nit: int
    nfev: int
    chosen: bool = False


@dataclass(frozen=True)
class InfeasiblePolicy:
    """Returned when no liquidation portfolio satisfies the constraint set."""

    binding_constraint: str
    message: str
    starts: Tuple[SolverStart, ...] = ()


@dataclass(frozen=True)
class OptimalPolicy:
    redemption: RedemptionPortfolio
    evaluation: PolicyEvaluation
    starts: Tuple[SolverStart, ...] = ()


def optimize_policy(
    portfolio: Portfolio,
    cost_model: CostModel,
    shock: RedemptionShock,
    tr_max: float,
    ls_max: float,
    horizon: int = 1,
    bond_spec: Optional[BondRiskSpec] = None,
) -> Union[OptimalPolicy, InfeasiblePolicy]:
    """Minimize transaction cost subject to tracking-risk and shortfall caps.

    minimize TC(q) s.t. TR(q) <= tr_max, 1 - LR(q; horizon) <= ls_max,
    value(q) = shock amount, 0 <= q <= b = min(holdings, MAX_DAYS_DEFAULT *
    daily limits), all that ``transaction_cost`` prices. Both caps must be
    non-negative (a NaN cap is a DomainError); ``tr_max = inf`` and
    ``ls_max >= 1`` leave their constraint out.

    Runs SLSQP (``_slsqp.minimize``, scipy's kernel without the
    ``scipy.optimize`` package) from several deterministic starting points:
    pro-rata, a cheapest-first fill, the fastest-liquidating fill, and the
    midpoints of pro-rata with each fill. A point goes onto the budget
    plane by one scale and one cap at b. The shortfall is 1 - A(horizon) /
    budget, with A(horizon), the cash a greedy sale raises by the horizon,
    read as one sum (``_raised``), no schedule built. Each result and start
    point on the budget that meets both caps is scored once, as
    ``evaluate_policy`` scores it, with the tracking risk of its cap check;
    the cheapest wins, the first of equals.

    Three verdicts are typed outcomes. ``InfeasiblePolicy("budget")``: the
    shock exceeds the value of b. ``InfeasiblePolicy("shortfall")`` is a
    proof: nothing raises more by the horizon than A(horizon) of b, so the
    least shortfall, 1 - A(horizon) / budget, exceeds ``ls_max``; below it,
    the fastest start sells A(horizon) and fills the rest from b.
    ``InfeasiblePolicy("tracking-risk")`` means that no start reached a
    point meeting both caps; it is not a proof that none exists, since a
    local solver from a few starts can miss a feasible region. The result
    carries one ``SolverStart`` per start. A shock of the whole net assets
    raises ``evaluate_policy``'s full-liquidation DomainError before any start.
    """
    check_days("horizon", horizon)
    for name, cap in (("tr_max", tr_max), ("ls_max", ls_max)):
        if not cap >= 0:  # NaN too; inf is no interval's end: it means no cap
            raise DomainError(f"{name} must be non-negative, got {cap!r}")
    if shock.amount <= 0:
        raise DomainError("redemption shock must be positive")
    total = tna(portfolio)
    prices, limits, budget = portfolio.prices, portfolio.daily_limits, shock.amount
    box = np.minimum(portfolio.shares, MAX_DAYS_DEFAULT * limits)
    if budget > box @ prices:
        return InfeasiblePolicy("budget", "shock exceeds total net assets" if budget > total else
                                f"shock exceeds the value sellable within {MAX_DAYS_DEFAULT} "
                                f"days at the daily limits")
    if budget >= total:
        raise DomainError("full liquidation leaves no portfolio to weight")

    # each clips its argument to the bounds: SLSQP's trial points may leave them
    def tr_of(q: np.ndarray) -> float:
        return _tracking_risk(portfolio, RedemptionPortfolio(np.clip(q, 0.0, box)), bond_spec)

    def ls_of(q: np.ndarray) -> float:
        return 1.0 - _raised(horizon, limits, np.clip(q, 0.0, box), prices) / budget

    def tc_of(q: np.ndarray) -> float:
        schedule = build_schedule(portfolio, RedemptionPortfolio(np.clip(q, 0.0, box)))
        return transaction_cost(portfolio, cost_model, schedule).total

    least = ls_of(box)
    if least > ls_max + 1e-9:
        return InfeasiblePolicy(
            "shortfall",
            f"no portfolio of value {budget:.6g} liquidates within the cap "
            f"ls_max={ls_max} over {horizon} day(s): the least shortfall is {least:.6g}",
        )
    speed_caps = np.minimum(box, horizon * limits)
    if least > 0:  # the horizon capacity falls short of the budget
        fastest = speed_caps + _greedy_fill(portfolio, box - speed_caps,
                                            budget - speed_caps @ prices)
    else:
        fastest = _greedy_fill(portfolio, speed_caps, budget)
    pro_rata = (budget / total) * portfolio.shares
    cheapest = _greedy_fill(portfolio, box, budget, by_cost=cost_model)
    starts = {"pro-rata": pro_rata, "cheapest": cheapest,
              "pro-rata/cheapest": 0.5 * pro_rata + 0.5 * cheapest,
              "fastest": fastest, "pro-rata/fastest": 0.5 * pro_rata + 0.5 * fastest}

    def clip_to_budget(q: np.ndarray) -> np.ndarray:
        q = np.clip(q, 0.0, box)
        value = q @ prices
        if value <= 0:
            return np.minimum(pro_rata, box)
        return np.minimum(q * (budget / value), box)

    ineq = []
    if np.isfinite(tr_max):
        ineq.append(lambda q: tr_max - tr_of(q))
    if ls_max < 1.0:
        ineq.append(lambda q: ls_max - ls_of(q))

    best = None
    records = []
    for name, start in starts.items():
        start = clip_to_budget(np.asarray(start, dtype=float))
        try:
            res = _slsqp.minimize(
                tc_of,
                start, np.zeros(portfolio.n), box,
                eq=[lambda q: (q @ prices - budget) / budget],
                ineq=ineq,
                maxiter=300,
                ftol=1e-8,
            )
        except DomainError as exc:
            records.append(SolverStart(name, None, str(exc), 0, 0))
            continue
        records.append(SolverStart(name, res.mode, res.message, res.nit, res.nfev))
        for candidate in (res.x, start):
            q = clip_to_budget(np.asarray(candidate, dtype=float))
            if abs(q @ prices - budget) > 1e-6 * budget:
                continue
            redemption = RedemptionPortfolio(quantities=q)
            tr = _tracking_risk(portfolio, redemption, bond_spec)
            if tr > tr_max + 1e-9 or ls_of(q) > ls_max + 1e-9:
                continue
            evaluation = _evaluation(portfolio, cost_model, redemption, horizon, tr)
            if best is None or evaluation.tc < best.evaluation.tc:
                best = OptimalPolicy(redemption, evaluation, tuple(records))
    if best is None:
        return InfeasiblePolicy(
            "tracking-risk",
            "no evaluated portfolio satisfied both the tracking and shortfall caps",
            tuple(records),
        )
    chosen = len(best.starts) - 1  # the last start recorded when the winner was scored
    records[chosen] = replace(records[chosen], chosen=True)
    return replace(best, starts=tuple(records))


def _greedy_fill(portfolio: Portfolio, caps: np.ndarray, budget: float,
                 by_cost: Optional[CostModel] = None) -> np.ndarray:
    """Fill a budget from per-security capacity, as listed or cheapest first
    under ``by_cost``; a budget above the capacity takes all of it."""
    order = np.arange(portfolio.n)
    if by_cost is not None:
        vols = np.where(portfolio.daily_volumes > 0, portfolio.daily_volumes, np.inf)
        x_cap = np.minimum(portfolio.daily_limits / vols, by_cost.participation_cap)
        marginal = by_cost.unit_cost(x_cap, portfolio.spreads, portfolio.volatilities)
        order = np.argsort(marginal, kind="stable")
    q = np.zeros(portfolio.n)
    remaining = budget
    for i in order:
        if remaining <= 0:
            break
        take_value = min(remaining, caps[i] * portfolio.prices[i])
        q[i] = take_value / portfolio.prices[i]
        remaining -= take_value
    return q
