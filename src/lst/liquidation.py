"""
Liquidation scheduling under daily trading limits, and the analytics derived
from a schedule: liquidation ratio, liquidation time, the daily liquidation
profile and the illiquid-asset measure.

Greedy selling at the daily limits has the closed form
cum_i(h) = min(h * cap_i, q_i); every analytic here evaluates it directly
instead of stepping through days: many days at once off a value curve
sorted once (``_curve``, kept per schedule), one day by a single sum
(``_raised``). A portfolio keeps one curve, its waterfall
W(h) = sum_i P_i min(h cap_i, shares_i) (``_waterfall``): the daily profile,
the illiquid-asset measure and a waterfall schedule read it, and its order
of the live names is where every other schedule's curve starts its sort:
a schedule always sells at the portfolio's own limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from ._checks import check_days, check_number
from .core import DomainError, Portfolio, RedemptionPortfolio, tna, weights

#: Default scheduling horizon: one trading year.
MAX_DAYS_DEFAULT = 260


class Unreachable:
    """Sentinel for a liquidation/liquidity time that is never reached."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNREACHABLE"


#: Singleton returned instead of a day count when a threshold is never met.
UNREACHABLE = Unreachable()


def _sort_live(sellable: np.ndarray, cap: np.ndarray,
               hint: Optional[np.ndarray] = None) -> tuple:
    """The live positions (cap_i > 0) by finishing day t_i = sellable_i / cap_i.

    Returns ``(order, t)``: the live indices in the order
    ``np.argsort(t, kind="stable")`` gives them (ties in index order) and
    the t_i in that order. Precondition: no key is NaN (every public caller
    validates ``sellable`` and ``cap`` first); inf, a name that never
    finishes, is a key like any other.

    Which sort runs changes only the cost. A fresh sort is numpy's
    quicksort (vectorized on x86; about 5x faster than the stable sort at
    n = 10^4), which leaves each run of equal keys in no particular order.
    ``hint``, a portfolio's kept order of its live names by shares/cap
    (``_waterfall``), must list exactly the live positions, which it does
    by construction: every schedule sells at its portfolio's own limits. A
    slice c * shares has keys in nearly that order, so the stable sort
    (timsort) of the hinted keys runs in about O(n). That sort keeps the
    hint's order within a run of equal keys, and two keys can round equal
    where shares/cap differ (c * s / cap against s / cap). Either way, each
    run of equal keys is then put back into index order, keys and indices
    together, so the result is exactly the plain stable argsort.
    """
    if hint is None:
        idx, kind = np.flatnonzero(cap > 0), "quicksort"
    else:
        idx, kind = hint, "stable"
    with np.errstate(over="ignore"):  # inf: a name that never finishes
        t = sellable[idx] / cap[idx]
    by_t = np.argsort(t, kind=kind)
    order, t = idx[by_t], t[by_t]
    tie = t[1:] == t[:-1]
    if tie.any():
        at = np.flatnonzero(np.concatenate((tie, [False])) | np.concatenate(([False], tie)))
        # sorted t holds each run of equal keys together: order by key, then
        # index; t moves too, since 0.0 and -0.0 are equal keys of other bits
        by_index = np.lexsort((order[at], t[at]))
        order[at], t[at] = order[at][by_index], t[at][by_index]
    return order, t


def _curve(sellable: np.ndarray, cap: np.ndarray, prices: np.ndarray,
           hint: Optional[np.ndarray] = None) -> tuple:
    """The greedy value curve of ``sellable`` at the daily ``cap``, sorted once.

    Position i finishes after t_i = sellable_i / cap_i days (never when
    cap_i = 0, which sells nothing). Returns ``(t, full, rest, order)``: the
    t_i in ascending order, ``full[k]``, the value of the k first-finishing
    positions, ``rest[k]``, the daily value of the others, and the live
    positions in that order (``_sort_live``; ``hint`` as there). The arrays
    are read-only, so a curve can be kept and read many times.
    """
    order, t = _sort_live(sellable, cap, hint)
    full = np.concatenate(([0.0], np.cumsum((prices * sellable)[order])))
    rate = (prices * cap)[order]
    rest = np.concatenate((np.cumsum(rate[::-1])[::-1], [0.0]))  # rest[k] = sum(rate[k:])
    for a in (t, full, rest, order):
        a.flags.writeable = False
    return t, full, rest, order


def _waterfall(portfolio: Portfolio) -> tuple:
    """The portfolio's waterfall curve, ``_curve`` of its whole holdings at
    its own daily limits: W(h) = sum_i P_i min(h cap_i, shares_i). Sorted on
    first use and kept on the portfolio. Its ``order``, the live names by
    shares/cap, is the hint every other curve at these limits starts from,
    so a portfolio pays for one full sort."""
    if portfolio._waterfall is None:
        portfolio._waterfall = _curve(portfolio.shares, portfolio.daily_limits, portfolio.prices)
    return portfolio._waterfall


def _evaluate(curve: tuple, days) -> np.ndarray:
    """Value raised after each h in ``days``, read off a ``_curve``: the full
    value of the positions finished by day h plus h times the daily value of
    the others, in O(len(days) log n)."""
    t, full, rest, _ = curve
    days = np.asarray(days, dtype=float)
    k = np.searchsorted(t, days, side="right")  # positions finished by day h
    return full[k] + days * rest[k]


def _raised(tau_h: int, limits: np.ndarray, q: np.ndarray, prices: np.ndarray) -> float:
    """Cash raised by day tau_h selling ``q`` greedily at the daily ``limits``:
    A(tau_h) = sum_i P_i * min(tau_h * limits_i, q_i), with no schedule built."""
    sold = np.multiply(limits, tau_h)
    return float(np.minimum(sold, q, out=sold) @ prices)


@dataclass(frozen=True, eq=False)
class LiquidationSchedule:
    """Greedy liquidation at the daily limits, held in closed form.

    Selling min(remaining, cap_i) of security i every day leaves
    ``min(h * cap_i, sellable_i)`` sold after h days, so the schedule is the
    triple ``(sellable, cap, horizon)``: O(n) memory whatever the horizon.
    ``sellable`` is the target with stuck positions zeroed. The schedule ends
    on its first sold-out day, the first h with ``h * cap >= sellable`` for
    every name in floating point, or at ``max_days``, whichever comes first;
    ``exhausted`` is that test at the horizon, with no name stuck. So an
    exhausted schedule has ``cumulative(horizon) == sellable``, and
    ``amount(h)`` is ``_raised(min(h, horizon), cap, sellable, prices)``, the
    one sum the report and the reverse stress tests read. ``stuck`` flags
    securities that can never finish (zero daily limit with a positive
    target).

    ``sold`` (shares sold per day and security) is rebuilt on every access
    and never stored; read it once when iterating over days. ``cap`` is the
    portfolio's own ``daily_limits``, so the live names are those of the
    portfolio's kept order by construction. The sorted value curve behind
    ``amounts`` starts from that order, is built on first use and kept, so
    an RCR table and the liquidation times read off one schedule sort it
    once; a schedule of the whole holdings reads the portfolio's waterfall
    curve itself.
    """

    portfolio: Portfolio
    target: RedemptionPortfolio
    sellable: np.ndarray
    cap: np.ndarray
    horizon: int
    max_days: int
    exhausted: bool
    stuck: tuple

    @property
    def sold(self) -> np.ndarray:
        """``sold[h-1, i]``: shares of security i sold on day h, shape (horizon, n).

        Day h sells what is left after h-1 days, clipped to the daily cap:
        the first difference of ``cumulative``, with every full day exactly
        ``cap``.
        """
        before = np.arange(self.horizon).reshape(-1, 1) * self.cap
        return np.clip(self.sellable - before, 0.0, self.cap)

    def cumulative(self, h: Optional[int] = None) -> np.ndarray:
        """Total shares sold per security up to and including day h: min(h * cap, sellable)."""
        h = self.horizon if h is None else h
        check_days("h", h, least=0)
        return np.minimum(min(h, self.horizon) * self.cap, self.sellable)

    def amount(self, h: int) -> float:
        """Cash raised after h trading days (prices frozen): ``_raised`` at
        day min(h, horizon), the dot product of ``cumulative(h)``."""
        check_days("h", h, least=0)
        return _raised(min(h, self.horizon), self.cap, self.sellable, self.portfolio.prices)

    def amounts(self, days: int) -> np.ndarray:
        """Cash raised after each of days 1..days: off the value curve before
        the horizon, then flat at ``amount(horizon)``, the sum a sold-out
        target's value is. The curve's prefix sums round differently, so an
        earlier day is capped at that sum and the table never falls."""
        check_days("days", days, least=0)
        last = self.amount(self.horizon)
        head = _evaluate(self._value_curve, np.arange(1, min(days + 1, self.horizon)))
        return np.concatenate((np.minimum(head, last), np.full(days - len(head), last)))

    @cached_property
    def _value_curve(self) -> tuple:
        portfolio = self.portfolio
        waterfall = _waterfall(portfolio)
        live = waterfall[3]
        # the whole holdings (same bits on every live name): the kept curve itself
        if np.array_equal(self.sellable[live].view(np.int64), portfolio.shares[live].view(np.int64)):
            return waterfall
        return _curve(self.sellable, self.cap, portfolio.prices, live)


def _check_target(portfolio: Portfolio, redemption: RedemptionPortfolio) -> None:
    """Reject a target that is not one quantity per security within the holdings."""
    q = redemption.quantities
    if len(q) != portfolio.n:
        raise DomainError("redemption portfolio does not match portfolio size")
    if np.any(q > portfolio.shares * (1 + 1e-12) + 1e-9):
        raise DomainError("cannot liquidate more shares than held")


def build_schedule(
    portfolio: Portfolio,
    redemption: RedemptionPortfolio,
    max_days: int = MAX_DAYS_DEFAULT,
) -> LiquidationSchedule:
    """Greedy liquidation: each day sell min(remaining, daily limit) of each security.

    Every schedule sells at the portfolio's own daily limits, so its live
    names are those of the portfolio's kept order (``_waterfall``) by
    construction. Stressed volumes enter only through ``stressed_rcr`` and
    ``asset_rst``, which read one sum and build no schedule.

    Evaluated in closed form, with no day loop: cumulative sales after h days
    are min(h * cap, target). The horizon is the first day h in 0..max_days
    on which every name is sold out in floating point, h * cap >= sellable
    elementwise, capped at ``max_days``; the schedule is exhausted when that
    test holds at the horizon and no name is stuck. fl(h * cap) never falls
    as h grows, so the test is monotone, and fl(s_i / cap_i) puts each live
    name's first sold-out day within one day of its ceiling (for finishing
    days below 2^51). So the horizon is h0 = ceil(max_i s_i / cap_i) over
    the live names (cap_i > 0), at most ``max_days`` (a name that never
    finishes gives ``max_days``), or one day either side of it: at most
    three O(n) passes. The schedule stores no day-by-security matrix;
    ``sold`` is built on demand.

    Args:
        portfolio: Fund holdings with daily limits.
        redemption: Target quantities, must not exceed the holdings.
        max_days: Truncation horizon, an integer of at least 1.

    Raises:
        DomainError: if max_days is not an integer of at least 1
            (``check_days``), or the target does not give one quantity per
            security within the holdings.
    """
    check_days("max_days", max_days)
    _check_target(portfolio, redemption)
    cap = portfolio.daily_limits
    q = redemption.quantities
    live = cap > 0
    stuck = tuple(portfolio.ids[i] for i in np.flatnonzero((q > 0) & ~live))
    sellable = np.where(live, q, 0.0)
    sellable.flags.writeable = False

    def sold_out(h: int) -> bool:
        return bool((h * cap >= sellable).all())

    # inf: a name that never finishes, or a day's sale past the float range
    with np.errstate(over="ignore"):
        last = float((sellable[live] / cap[live]).max()) if live.any() else 0.0
        horizon = math.ceil(min(last, max_days))
        if horizon > 0 and sold_out(horizon - 1):
            horizon, done = horizon - 1, True
        else:
            done = sold_out(horizon)
            if not done and horizon < max_days:
                horizon += 1
                done = sold_out(horizon)
    exhausted = done and not stuck
    return LiquidationSchedule(
        portfolio=portfolio, target=redemption, sellable=sellable, cap=cap,
        horizon=horizon, max_days=max_days, exhausted=exhausted, stuck=stuck,
    )


def liquidation_ratio(schedule: LiquidationSchedule, h: int) -> float:
    """Proportion of the redemption portfolio's value liquidated after h days."""
    total = schedule.target.value(schedule.portfolio)
    if total <= 0:
        raise DomainError("liquidation ratio undefined for a zero-value redemption")
    return schedule.amount(h) / total


def _first_day(series: np.ndarray, level: float):
    """First day h (``series[h-1]``, 1-based) on which ``series`` reaches
    ``level`` up to a relative 1e-12, or UNREACHABLE if it never does."""
    hit = np.flatnonzero(series >= level * (1 - 1e-12))
    return int(hit[0]) + 1 if hit.size else UNREACHABLE


def liquidation_time(schedule: LiquidationSchedule, p: float):
    """Smallest h with liquidation ratio >= p, or UNREACHABLE within max_days."""
    check_number("threshold p", p, "(0, 1]")
    total = schedule.target.value(schedule.portfolio)
    if total <= 0:
        raise DomainError("liquidation time undefined for a zero-value redemption")
    return _first_day(schedule.amounts(schedule.horizon), p * total)


def daily_liquidation_profile(portfolio: Portfolio, max_days: int = MAX_DAYS_DEFAULT):
    """Daily liquidation weights of a full waterfall-style unwind.

    Day h sells W(h) - W(h-1) of value, where W is the portfolio's waterfall
    curve (``_waterfall``), sorted once per portfolio. So the profile is
    np.diff(W(0..H)) / TNA, in O(H log n), with H the last finishing day
    shares_i / cap_i of a live name rounded up, or ``max_days`` if sooner.

    Returns:
        (profile, residual): profile is indexed by day (profile[0] is day 1)
        and sums to 1 - residual, unless cut at ``max_days``; residual is
        the weight of securities with a zero daily limit, which never
        liquidate.

    Raises:
        DomainError: if max_days is not an integer of at least 1.
    """
    check_days("max_days", max_days)
    curve = _waterfall(portfolio)
    t = curve[0]
    horizon = math.ceil(min(t[-1], max_days)) if t.size else 0
    residual = float(weights(portfolio)[portfolio.daily_limits == 0].sum())
    return np.diff(_evaluate(curve, np.arange(horizon + 1))) / tna(portfolio), residual


def illiquid_assets(portfolio: Portfolio, w_star: float) -> Tuple[int, float]:
    """Illiquid amount: weight not yet sold when daily liquidation drops below w_star.

    Returns (h_star, illiquid_fraction): h_star is the first day of the
    daily profile with a weight <= w_star, the fraction 1 - W(h_star - 1) /
    TNA, both read off the waterfall curve W. With j the first sorted
    position whose daily value ``rest[j]`` is at most w_star of net assets
    (``rest[n] = 0``), every day before ceil(t[j-1]) sells at least
    ``rest[j-1]`` and every day after it at most ``rest[j]``: h_star is
    h = max(ceil(t[j-1]), 1), or h + 1 if day h still sells above w_star.
    t[j-1] is finite, since a name that never finishes sells under 1e-308
    of net assets a day.
    """
    check_number("w_star", w_star, "(0, 1)")
    curve = _waterfall(portfolio)
    t, _, rest, _ = curve
    total = tna(portfolio)
    level = w_star + 1e-15
    j = int(np.argmax(rest / total <= level))
    h_star = 1
    if j:
        h = max(math.ceil(t[j - 1]), 1)
        before, after = _evaluate(curve, [h - 1, h])
        h_star = h + 1 if (after - before) / total > level else h
    return h_star, 1.0 - float(_evaluate(curve, h_star - 1)) / total
