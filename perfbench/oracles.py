"""Independent oracles the benchmark checks lst's outputs against.

Nothing here calls lst. The liquidation oracles use the closed form of
greedy selling at the daily limits, cum_i(h) = min(h * cap_i, q_i), evaluated
for every day at once by sorting the days each position needs to finish.
Threshold checks allow a relative band of ``BAND`` around the threshold, where
the day-by-day sums and the closed form may round to different sides.
"""

from __future__ import annotations

import csv
import math

import numpy as np

BAND = 1e-9
RTOL = 1e-9
TRADING_DAYS = 260


class CheckFailed(AssertionError):
    """An output disagreed with its oracle."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(a, b, what: str, rtol: float = RTOL, atol: float = 0.0) -> None:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    require(a.shape == b.shape and np.allclose(a, b, rtol=rtol, atol=atol), what)


def read_fund(path) -> dict:
    """Fund columns as float arrays, parsed without lst."""
    cols = ("shares", "price", "daily_limit", "daily_volume", "volatility", "spread")
    rows = {c: [] for c in cols}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for c in cols:
                rows[c].append(float(row[c]))
    return {c: np.array(v) for c, v in rows.items()}


# =============================================================================
# LIQUIDATION
# =============================================================================

def greedy_cum(q, cap, price, hs) -> np.ndarray:
    """sum_i price_i * min(h * cap_i, q_i) for each h in ``hs`` (cap 0 never sells)."""
    q, cap, price = (np.asarray(x, dtype=float) for x in (q, cap, price))
    live = cap > 0
    t = q[live] / cap[live]
    order = np.argsort(t, kind="stable")
    t = t[order]
    full = (price[live] * q[live])[order]
    rate = (price[live] * cap[live])[order]
    cum_full = np.concatenate(([0.0], np.cumsum(full)))
    cum_rate = np.concatenate(([0.0], np.cumsum(rate)))
    hs = np.asarray(hs, dtype=float)
    k = np.searchsorted(t, hs, side="right")
    return cum_full[k] + hs * (cum_rate[-1] - cum_rate[k])


def check_first_day(result, series, p: float, unreachable, what: str) -> None:
    """``result`` is the first day (1-based) with series >= p, or ``unreachable``."""
    series = np.asarray(series)
    if result is unreachable:
        require(series.max() < p * (1 + BAND), f"{what}: UNREACHABLE but oracle reaches {p}")
        return
    require(isinstance(result, int) and 1 <= result <= len(series), f"{what}: bad day {result!r}")
    require(series[result - 1] >= p * (1 - BAND), f"{what}: day {result} below {p}")
    require(result == 1 or series[result - 2] < p * (1 + BAND), f"{what}: day {result} not the first")


def asset_root(q, cap, price, tau: int, target: float) -> float:
    """Smallest m with sum_i P_i min(tau * m * cap_i, q_i) = target (exact, piecewise linear)."""
    live = (cap > 0) & (q > 0)
    b = q[live] / (tau * cap[live])
    order = np.argsort(b, kind="stable")
    b = b[order]
    full = (price[live] * q[live])[order]
    slope = (tau * price[live] * cap[live])[order]
    cum_full = np.concatenate(([0.0], np.cumsum(full)))
    rest = slope.sum() - np.concatenate(([0.0], np.cumsum(slope)))
    at_break = cum_full[1:] + b * rest[1:]  # g(b_k) after position k finishes
    k = int(np.searchsorted(at_break, target, side="left"))
    return float((target - cum_full[k]) / rest[k])


# =============================================================================
# HQLA
# =============================================================================

def ccf(bucket: dict, tau: float, fund_tna: float, herf: float, sr: dict) -> float:
    if "ccf_static" in bucket:
        return float(bucket["ccf_static"])
    lf = min(1.0, bucket.get("lambda", 0.0) * tau)
    df = min(bucket.get("mdd", 1.0), bucket.get("eta_dd", 0.0) * math.sqrt(tau / 2.0))
    size = sr["size_coefficient"] * max(fund_tna / sr["tna_threshold"] - 1.0, 0.0)
    conc = sr["concentration_coefficient"] * max(math.sqrt(herf / sr["herfindahl_threshold"]) - 1.0, 0.0)
    return lf * (1.0 - df) * (1.0 - min(size + conc, sr["cap"]))


# =============================================================================
# POLICY OPTIMIZER
# =============================================================================

def tracking_risk(f: dict, rho: np.ndarray, q: np.ndarray) -> float:
    p, s = f["price"], f["shares"]
    total, sold = float(s @ p), float(q @ p)
    if sold == 0.0:
        return 0.0
    delta = sold / (total - sold) * (s * p / total - q * p / sold)
    cov = np.outer(f["volatility"], f["volatility"]) * rho
    return math.sqrt(max(float(delta @ cov @ delta), 0.0))


def transaction_cost(f: dict, q: np.ndarray, beta=0.4, knee=0.05) -> float:
    """k full days at the limit plus one partial day, per security, over value(q)."""
    p, cap, v = f["price"], f["daily_limit"], f["daily_volume"]
    value = float(q @ p)
    k = np.floor(q / cap)
    r = q - k * cap
    sig = f["volatility"] / math.sqrt(TRADING_DAYS)

    def unit(x):
        shape = np.where(x <= knee, np.sqrt(x), math.sqrt(knee) * x / knee)
        return f["spread"] + beta * sig * shape

    cost = k * cap * p * unit(cap / v) + r * p * unit(r / v)
    return float(cost.sum()) / value


def fastest_fill(f: dict, horizon: int, budget: float):
    """Budget filled in listed order from min(shares, h * limit); None if it cannot be."""
    caps = np.minimum(f["shares"], horizon * f["daily_limit"])
    q = np.zeros_like(caps)
    remaining = budget
    for i in range(len(caps)):
        if remaining <= 0:
            break
        take = min(remaining, caps[i] * f["price"][i])
        q[i] = take / f["price"][i]
        remaining -= take
    return None if remaining > 1e-9 * max(budget, 1.0) else q


def shortfall(f: dict, q: np.ndarray, horizon: int, budget: float) -> float:
    return 1.0 - float(greedy_cum(q, f["daily_limit"], f["price"], [horizon])[0]) / budget


# =============================================================================
# CASH BUFFER
# =============================================================================

def tc_asset(x: np.ndarray, c: dict) -> np.ndarray:
    """Square-root liquidation cost with the daily limit split, vectorized."""
    x = np.asarray(x, dtype=float)
    s, xp = c["spread"], c["x_plus"]
    impact = c["beta_impact"] * c["sigma"] / math.sqrt(TRADING_DAYS)
    if xp >= 1.0:
        return np.where(x > 0, x * (s + impact * np.sqrt(np.maximum(x, 0.0))), 0.0)
    k = np.floor(x / xp)
    k = np.where((k > 0) & (x - k * xp <= 0.0), k - 1, k)
    r = x - k * xp
    cost = x * s + k * impact * xp**1.5 + impact * r * np.sqrt(np.maximum(r, 0.0))
    return np.where(x > 0, cost, 0.0)


def max_approximation_error(c: dict, n_w: int, n_grid: int) -> float:
    worst = 0.0
    for w in np.linspace(0.0, min(c["x_plus"], 1.0), n_w):
        span = min(c["x_plus"], 1.0 - w)
        if span <= 0:
            continue
        u = np.linspace(0.0, span, n_grid)
        err = np.abs(tc_asset(w + u, c) - tc_asset(np.array([w]), c) - tc_asset(u, c))
        worst = max(worst, float(err.max()))
    return worst
