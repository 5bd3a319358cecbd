"""
Core domain model shared by every analytics module.

Holds the immutable value types (securities, portfolios, redemption shocks,
redemption portfolios), the basic portfolio algebra (net assets, weights,
weight distortion, concentration) and the portfolio file formats.

All quantities are real-valued internally; ``round_shares`` is a display-only
helper for integer share counts.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

#: Trading-day annualization convention (annual vol -> daily vol via sqrt).
TRADING_DAYS_PER_YEAR = 260


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


_BOUNDS = {"": lambda v: True, "non-negative": lambda v: v >= 0, "positive": lambda v: v > 0}


def check_finite(obj, names, bound: str = "") -> None:
    """Reject, by name, a field of ``obj`` that is NaN or infinite, or that
    breaks ``bound`` ("non-negative" or "positive")."""
    holds = _BOUNDS[bound]
    for name in names:
        value = getattr(obj, name)
        if not (math.isfinite(value) and holds(value)):
            kind = f"finite and {bound}" if bound else "finite"
            raise DomainError(f"{name} must be {kind}, got {value!r}")


# =============================================================================
# VALUE TYPES
# =============================================================================

@dataclass(frozen=True)
class Security:
    """A single fund holding with its liquidation policy data.

    Attributes:
        id: Security identifier.
        shares: Number of shares held (>= 0).
        price: Current price per share (> 0).
        daily_limit: Maximum shares sellable per trading day (>= 0).
        daily_volume: Average daily traded volume in shares (>= 0).
        volatility: Annualized return volatility, as a fraction.
        spread: Two-way bid-ask spread, as a fraction of price.
    """

    id: str
    shares: float
    price: float
    daily_limit: float = 0.0
    daily_volume: float = 0.0
    volatility: float = 0.0
    spread: float = 0.0

    def __post_init__(self) -> None:
        if not (self.price > 0 and math.isfinite(self.price)):
            raise DomainError(f"security {self.id!r}: price must be positive and finite")
        for name in ("shares", "daily_limit", "daily_volume", "volatility", "spread"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise DomainError(f"security {self.id!r}: {name} must be non-negative and finite")
        # daily_limit may exceed daily_volume: both are data, consistency is
        # the data provider's problem.


@dataclass(frozen=True, eq=False)
class Portfolio:
    """An ordered collection of securities plus an optional correlation matrix.

    The column arrays (``shares``, ``prices``, ...) and ``ids`` are built once
    at construction and are read-only.
    """

    securities: tuple
    correlation: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "securities", tuple(self.securities))
        if len(self.securities) == 0:
            raise DomainError("portfolio is empty")
        ids = tuple(s.id for s in self.securities)
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, k in Counter(ids).items() if k > 1)
            raise DomainError(f"duplicate security ids {dupes}")
        object.__setattr__(self, "_ids", ids)
        for name in _PORTFOLIO_FIELDS[1:]:
            col = np.array([getattr(s, name) for s in self.securities], dtype=float)
            col.flags.writeable = False
            object.__setattr__(self, "_" + name, col)
        if self.correlation is not None:
            rho = np.asarray(self.correlation, dtype=float)
            n = len(self.securities)
            if rho.shape != (n, n):
                raise DomainError(f"correlation matrix shape {rho.shape} does not match {n} securities")
            if not np.allclose(rho, rho.T, atol=1e-10):
                raise DomainError("correlation matrix is not symmetric")
            if not np.allclose(np.diag(rho), 1.0, atol=1e-10):
                raise DomainError("correlation matrix diagonal must be 1")
            if np.any(np.abs(rho) > 1 + 1e-12):
                raise DomainError("correlation entries must lie in [-1, 1]")
            if np.linalg.eigvalsh(rho).min() < -1e-8:
                raise DomainError("correlation matrix is not positive semi-definite")
            rho = rho.copy()
            rho.flags.writeable = False
            object.__setattr__(self, "correlation", rho)

    @property
    def n(self) -> int:
        return len(self.securities)

    @property
    def ids(self) -> tuple:
        return self._ids

    @property
    def shares(self) -> np.ndarray:
        return self._shares

    @property
    def prices(self) -> np.ndarray:
        return self._price

    @property
    def daily_limits(self) -> np.ndarray:
        return self._daily_limit

    @property
    def daily_volumes(self) -> np.ndarray:
        return self._daily_volume

    @property
    def volatilities(self) -> np.ndarray:
        return self._volatility

    @property
    def spreads(self) -> np.ndarray:
        return self._spread

    def require_correlation(self) -> np.ndarray:
        if self.correlation is None:
            raise DomainError(
                "this operation needs a correlation matrix; load one alongside "
                "the portfolio (identity is not assumed)"
            )
        return self.correlation


@dataclass(frozen=True)
class RedemptionShock:
    """A redemption scenario: rate as a fraction of net assets, amount in currency."""

    rate: float
    amount: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise DomainError("redemption rate must lie in [0, 1]")
        if not (self.amount >= 0 and math.isfinite(self.amount)):
            raise DomainError("redemption amount must be non-negative and finite")

    @classmethod
    def from_rate(cls, portfolio: Portfolio, rate: float) -> "RedemptionShock":
        return cls(rate=rate, amount=rate * tna(portfolio))


@dataclass(frozen=True, eq=False)
class RedemptionPortfolio:
    """Per-security share quantities to liquidate, aligned with a Portfolio."""

    quantities: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.quantities, dtype=float).copy()
        if q.ndim != 1:
            raise DomainError("redemption quantities must be a 1-d vector")
        if not np.all(q >= 0):
            raise DomainError("redemption quantities must be non-negative")
        q.flags.writeable = False
        object.__setattr__(self, "quantities", q)

    def value(self, portfolio: Portfolio) -> float:
        """Market value of the redemption portfolio, sum(q_i * P_i)."""
        if len(self.quantities) != portfolio.n:
            raise DomainError("redemption portfolio does not match portfolio size")
        return float(self.quantities @ portfolio.prices)


class WeightDistortion(NamedTuple):
    """Weight change caused by a liquidation: post = pre + delta."""

    delta: np.ndarray
    post: np.ndarray


# =============================================================================
# PORTFOLIO ALGEBRA
# =============================================================================

def tna(portfolio: Portfolio) -> float:
    """Total net assets: sum of shares times price over all holdings."""
    value = float(portfolio.shares @ portfolio.prices)
    if value <= 0:
        raise DomainError("total net assets must be positive")
    return value


def weights(portfolio: Portfolio) -> np.ndarray:
    """Value weights w_i = shares_i * price_i / TNA (sums to one)."""
    return portfolio.shares * portfolio.prices / tna(portfolio)


def weight_distortion(portfolio: Portfolio, redemption: RedemptionPortfolio) -> WeightDistortion:
    """Weight change of the remaining portfolio after liquidating ``redemption``.

    delta_i = V(q) / (V(omega) - V(q)) * (w_i(omega) - w_i(q)) and the
    post-liquidation weights are w(omega) + delta.

    Raises:
        DomainError: on full liquidation (post-weights undefined).
    """
    total = tna(portfolio)
    sold = redemption.value(portfolio)
    if sold >= total:
        raise DomainError("full liquidation leaves no portfolio to weight")
    w = weights(portfolio)
    if sold == 0.0:
        zero = np.zeros_like(w)
        return WeightDistortion(delta=zero, post=w.copy())
    wq = redemption.quantities * portfolio.prices / sold
    delta = sold / (total - sold) * (w - wq)
    return WeightDistortion(delta=delta, post=w + delta)


def herfindahl(portfolio: Portfolio) -> float:
    """Herfindahl concentration index of the value weights, in [1/n, 1]."""
    w = weights(portfolio)
    return float(w @ w)


def round_shares(x) -> np.ndarray:
    """Round share counts half-up to whole shares. Display helper only."""
    return np.floor(np.asarray(x, dtype=float) + 0.5)


# =============================================================================
# FILE FORMATS
# =============================================================================

_PORTFOLIO_FIELDS = ("id", "shares", "price", "daily_limit", "daily_volume", "volatility", "spread")


def load_portfolio(path, correlation_path=None) -> Portfolio:
    """Read a portfolio CSV (header: id,shares,price,daily_limit,daily_volume,volatility,spread).

    The correlation matrix, when used, lives in a sidecar CSV (n x n,
    row-major, no header).
    """
    securities = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [f for f in _PORTFOLIO_FIELDS if f not in (reader.fieldnames or [])]
        if missing:
            raise DomainError(f"portfolio file {path}: missing columns {missing}")
        for row in reader:
            securities.append(
                Security(
                    id=row["id"],
                    shares=float(row["shares"]),
                    price=float(row["price"]),
                    daily_limit=float(row["daily_limit"]),
                    daily_volume=float(row["daily_volume"]),
                    volatility=float(row["volatility"]),
                    spread=float(row["spread"]),
                )
            )
    correlation = load_correlation(correlation_path) if correlation_path else None
    return Portfolio(securities=tuple(securities), correlation=correlation)


def save_portfolio(portfolio: Portfolio, path) -> None:
    """Write a portfolio CSV; floats use shortest round-trip representation."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_PORTFOLIO_FIELDS)
        for s in portfolio.securities:
            writer.writerow([s.id, repr(s.shares), repr(s.price), repr(s.daily_limit),
                             repr(s.daily_volume), repr(s.volatility), repr(s.spread)])


def load_correlation(path) -> np.ndarray:
    """Read an n x n correlation matrix from a headerless CSV."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row:
                rows.append([float(x) for x in row])
    return np.array(rows, dtype=float)


def portfolio_from_dict(data: dict) -> Portfolio:
    """Build a portfolio from the JSON equivalent of the CSV format."""
    securities = tuple(
        Security(
            id=str(rec["id"]),
            shares=float(rec["shares"]),
            price=float(rec["price"]),
            daily_limit=float(rec.get("daily_limit", 0.0)),
            daily_volume=float(rec.get("daily_volume", 0.0)),
            volatility=float(rec.get("volatility", 0.0)),
            spread=float(rec.get("spread", 0.0)),
        )
        for rec in data["securities"]
    )
    correlation = np.array(data["correlation"], dtype=float) if data.get("correlation") else None
    return Portfolio(securities=securities, correlation=correlation)


def load_portfolio_json(path) -> Portfolio:
    with open(path) as fh:
        return portfolio_from_dict(json.load(fh))


def daily_volatility(annual_vol, trading_days: int = TRADING_DAYS_PER_YEAR):
    """Convert annualized volatilities (a float or an array) to daily ones by
    the sqrt-of-time rule."""
    return annual_vol / math.sqrt(trading_days)
