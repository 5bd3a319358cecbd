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
import io
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

try:  # numpy's chunked text kernel, the one np.loadtxt runs on a file
    from numpy._core._multiarray_umath import _load_from_filelike
except ImportError as exc:
    raise ImportError("the file loader needs numpy>=2.0 "
                      "(numpy._core._multiarray_umath._load_from_filelike not found)") from exc

# the errors and scalar checks live in a numpy-free module, so that the
# scalar tools can load without numpy; core re-exports them
from ._checks import (
    BOUNDS,
    DomainError,
    check_finite,
    check_number,
    check_widths,
    csv_error,
    csv_rows,
    reject_first_non_number,
)

#: Trading-day annualization convention (annual vol -> daily vol via sqrt).
TRADING_DAYS_PER_YEAR = 260


# =============================================================================
# VALUE TYPES
# =============================================================================

_NUMERIC_FIELDS = ("shares", "price", "daily_limit", "daily_volume", "volatility", "spread")
_PORTFOLIO_FIELDS = ("id",) + _NUMERIC_FIELDS
#: The bound each numeric holding field must meet besides being finite, in
#: the order the fields of one row are checked (price first).
_HOLDING_BOUNDS = {"price": "positive", "shares": "non-negative", "daily_limit": "non-negative",
                   "daily_volume": "non-negative", "volatility": "non-negative",
                   "spread": "non-negative"}


def _check_holdings(ids, columns) -> None:
    """Reject the first holding, in row order, with a numeric field that is
    not finite or breaks its bound (fields in ``_HOLDING_BOUNDS`` order).

    ``columns`` maps each field to one value per id: an array, or a number
    for a single holding. It works on both, so this is the one rule for a
    valid holding, whether it comes from a ``Security`` or from columns.
    """
    ok = np.array([BOUNDS[bound](columns[name]) for name, bound in _HOLDING_BOUNDS.items()])
    if np.count_nonzero(ok) == ok.size:
        return
    row = int(ok.reshape(len(_HOLDING_BOUNDS), -1).all(axis=0).argmin())
    for name, bound in _HOLDING_BOUNDS.items():
        value = columns[name]
        check_number(f"security {ids[row]!r}: {name}", value[row] if np.ndim(value) else value, bound)


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
        # daily_limit may exceed daily_volume: both are data, consistency is
        # the data provider's problem.
        _check_holdings((self.id,), vars(self))


class Portfolio:
    """An ordered collection of holdings plus an optional correlation matrix.

    Holdings are stored by column: ``ids`` and the read-only arrays
    (``shares``, ``prices``, ...) are validated and fixed at construction.
    ``Portfolio(securities)`` and ``Portfolio.from_columns`` share that one
    path; ``securities`` is built from the columns on first access, and so
    is what a portfolio keeps of its own analytics, each computed once from
    the read-only columns:

    - ``_tna``, the total net assets, on the first ``tna`` call;
    - ``_waterfall``, the one sorted curve ``liquidation`` keeps: the value
      curve of the whole holdings at the daily limits, which the daily
      profile, the illiquid-asset measure and a waterfall schedule read,
      and whose order of the live names by shares/cap every other curve at
      those limits starts from.
    """

    __slots__ = ("_ids", "_columns", "_correlation", "_securities", "_tna", "_waterfall")

    def __init__(self, securities, correlation=None) -> None:
        securities = tuple(securities)
        columns = {name: [getattr(s, name) for s in securities] for name in _NUMERIC_FIELDS}
        self._init(tuple(s.id for s in securities), columns, correlation)
        self._securities = securities

    @classmethod
    def from_columns(cls, ids, columns, correlation=None) -> Portfolio:
        """Build a portfolio from ``ids`` and a mapping of each numeric
        ``Security`` field to one value per id (copied and validated as
        columns), with no ``Security`` objects."""
        portfolio = cls.__new__(cls)
        portfolio._init(tuple(ids), columns, correlation)
        portfolio._securities = None
        return portfolio

    def _init(self, ids: tuple, columns, correlation) -> None:
        n = len(ids)
        if n == 0:
            raise DomainError("portfolio is empty")
        if len(set(ids)) != n:
            dupes = sorted(i for i, k in Counter(ids).items() if k > 1)
            raise DomainError(f"duplicate security ids {dupes}")
        cols = {}
        for name in _NUMERIC_FIELDS:
            col = np.array(columns[name], dtype=float)
            if col.shape != (n,):
                raise DomainError(f"column {name} has shape {col.shape}, expected ({n},)")
            col.flags.writeable = False
            cols[name] = col
        _check_holdings(ids, cols)
        self._ids, self._columns = ids, cols
        self._tna = self._waterfall = None
        self._correlation = None if correlation is None else _checked_correlation(correlation, n)

    @property
    def securities(self) -> tuple:
        if self._securities is None:
            rows = zip(self._ids, *(self._columns[name].tolist() for name in _NUMERIC_FIELDS))
            self._securities = tuple(Security(*row) for row in rows)
        return self._securities

    @property
    def correlation(self) -> Optional[np.ndarray]:
        return self._correlation

    @property
    def n(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> tuple:
        return self._ids

    @property
    def shares(self) -> np.ndarray:
        return self._columns["shares"]

    @property
    def prices(self) -> np.ndarray:
        return self._columns["price"]

    @property
    def daily_limits(self) -> np.ndarray:
        return self._columns["daily_limit"]

    @property
    def daily_volumes(self) -> np.ndarray:
        return self._columns["daily_volume"]

    @property
    def volatilities(self) -> np.ndarray:
        return self._columns["volatility"]

    @property
    def spreads(self) -> np.ndarray:
        return self._columns["spread"]

    def require_correlation(self) -> np.ndarray:
        if self._correlation is None:
            raise DomainError(
                "this operation needs a correlation matrix; load one alongside "
                "the portfolio (identity is not assumed)"
            )
        return self._correlation


def _checked_correlation(correlation, n: int) -> np.ndarray:
    """A read-only copy of an n x n correlation matrix, after checking it."""
    rho = np.array(correlation, dtype=float)
    if rho.shape != (n, n):
        raise DomainError(f"correlation matrix shape {rho.shape} does not match {n} securities")
    if not np.allclose(rho, rho.T, atol=1e-10):
        raise DomainError("correlation matrix is not symmetric")
    if not np.allclose(np.diag(rho), 1.0, atol=1e-10):
        raise DomainError("correlation matrix diagonal must be 1")
    if np.any(np.abs(rho) > 1 + 1e-12):  # a tolerance for a computed matrix's rounding
        raise DomainError("correlation entries must lie in [-1, 1]")
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise DomainError("correlation matrix is not positive semi-definite")
    rho.flags.writeable = False
    return rho


@dataclass(frozen=True)
class RedemptionShock:
    """A redemption scenario: rate as a fraction of net assets, amount in currency."""

    rate: float
    amount: float

    def __post_init__(self) -> None:
        check_number("redemption rate", self.rate, "[0, 1]")
        check_number("redemption amount", self.amount, "non-negative")

    @classmethod
    def from_rate(cls, portfolio: Portfolio, rate: float) -> "RedemptionShock":
        return cls(rate=rate, amount=rate * tna(portfolio))


@dataclass(frozen=True, eq=False)
class RedemptionPortfolio:
    """Per-security share quantities to liquidate, aligned with a Portfolio."""

    quantities: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.quantities, dtype=float)
        if q.ndim != 1:
            raise DomainError("redemption quantities must be a 1-d vector")
        check_number("redemption quantities", q, "non-negative")
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
    """Total net assets: sum of shares times price over all holdings,
    computed on the first call and kept on the portfolio; a portfolio whose
    value is not positive raises on every call."""
    value = portfolio._tna
    if value is None:
        value = portfolio._tna = float(portfolio.shares @ portfolio.prices)
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

#: Characters that numpy's float parser strips as whitespace and Python's
#: ``float()`` rejects; a file that holds one is read by the csv path.
_C_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def _short_lines(text: str) -> bool:
    """Whether no line of ``text`` is longer than ``csv.field_size_limit()``.

    True when every full block of ``limit // 2 + 1`` characters holds a line
    break, which bounds each line by the limit; a few ``find`` calls per
    megabyte. A cell within one line is then within the limit too.
    """
    size = csv.field_size_limit() // 2 + 1
    return all(text.find("\n", j, j + size) >= 0 or text.find("\r", j, j + size) >= 0
               for j in range(0, len(text) - size + 1, size))


def _long_text_cell(table) -> bool:
    """Whether a text (``object``) field of a parsed table holds a cell
    longer than ``csv.field_size_limit()``."""
    limit = csv.field_size_limit()
    return any(len(cell) > limit for name in table.dtype.names
               if table.dtype[name] == object for cell in table[name].tolist())


def _c_table(path, kind: str, header_dtype=None):
    """Parse a CSV file with one call of numpy's C text reader.

    Returns ``(first, table, text)``, where ``first`` is the first non-blank
    row as ``csv.reader`` reads it. With ``header_dtype``, ``first`` is a header and
    ``table`` holds the rows below it in the structured dtype
    ``header_dtype(first)``; without, ``table`` is every row as a 2-d float
    array. ``table`` is None when the C reader raises ``ValueError``, when the
    file has no first row, when the text holds a character the two parsers
    read differently, or when a cell may be longer than
    ``csv.field_size_limit()``, which only ``csv.reader`` enforces. The
    caller's csv path then parses ``text``, the text read here (None when
    ``table`` is not), so that path alone defines the accepted syntax and
    the error messages. A field over the limit in the first row is a
    DomainError naming the file (a ``kind`` file) and the line.

    The file is opened once, and numpy parses the text that was read, in
    chunks, with the kernel ``np.loadtxt`` runs on a file.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    lines = io.StringIO(text, newline="")
    reader = csv.reader(lines)
    try:
        first = next(filter(None, reader), [])
    except csv.Error as exc:
        raise csv_error(path, kind, reader, exc) from None
    if not first or any(c in text for c in _C_ONLY_SPACES) or not _short_lines(text):
        return first, None, text
    lines.seek(0)
    try:
        table = _load_from_filelike(
            lines, delimiter=",", comment=None, quote='"',
            skiplines=reader.line_num if header_dtype else 0,
            dtype=header_dtype(first) if header_dtype else np.dtype(float), filelike=True)
    except ValueError:
        return first, None, text
    # a quoted cell may span lines, each shorter than the limit
    if header_dtype and '"' in text and _long_text_cell(table):
        return first, None, text
    return first, table, None


def _portfolio_dtype(header) -> np.dtype:
    """One field per header column, in order: float64 for the numeric
    holding fields, ``object`` (untruncated text) for the id and the rest."""
    return np.dtype([(f"f{k}", float if name in _NUMERIC_FIELDS else object)
                     for k, name in enumerate(header)])


def load_portfolio(path, correlation_path=None) -> Portfolio:
    """Read a portfolio CSV (header: id,shares,price,daily_limit,daily_volume,volatility,spread).

    Columns may come in any order, each read column named once; blank lines
    are skipped, and every other row must have as many fields as the
    header. Cells use Python ``float()`` syntax. numpy's C reader parses the
    rows below the header in one call; the text of any file it rejects is
    parsed by ``csv.reader`` and ``float()`` instead (``_csv_portfolio``),
    which names the file line of a bad row or cell. Each file is read once
    (a pipe will do). The holdings are validated as columns, so no
    ``Security`` object is built.

    The correlation matrix, when used, lives in a sidecar CSV (n x n,
    row-major, no header).
    """
    header, table, text = _c_table(path, "portfolio", _portfolio_dtype)
    missing = [f for f in _PORTFOLIO_FIELDS if f not in header]
    if missing:
        raise DomainError(f"portfolio file {path}: missing columns {missing}")
    repeated = [f for f in _PORTFOLIO_FIELDS if header.count(f) > 1]
    if repeated:
        raise DomainError(f"portfolio file {path}: repeated columns {repeated}")
    if table is None:
        ids, columns = _csv_portfolio(path, text)
    else:
        ids, *values = (table[f"f{header.index(name)}"] for name in _PORTFOLIO_FIELDS)
        ids = ids.tolist()  # a tuple of a list is far cheaper than of an object array
        columns = dict(zip(_NUMERIC_FIELDS, values))
    correlation = load_correlation(correlation_path) if correlation_path else None
    return Portfolio.from_columns(ids, columns, correlation)


def _csv_portfolio(path, text: str):
    """``(ids, columns)`` of a portfolio CSV's ``text`` whose header has passed
    its checks, read by ``csv.reader`` with each numeric column parsed by one
    ``np.array`` call of ``float()`` syntax; a DomainError names the file
    line of the first ragged row or non-number cell."""
    rows, lines = csv_rows(text, path, "portfolio")
    check_widths(path, "portfolio", rows, lines, "header")
    cells = {col[0]: col[1:] for col in zip(*rows)}
    try:
        columns = {name: np.array(cells[name], dtype=float) for name in _NUMERIC_FIELDS}
    except ValueError:
        reject_first_non_number(path, "portfolio", (
            (line, name, cells[name][k]) for k, line in enumerate(lines[1:]) for name in _NUMERIC_FIELDS))
        raise
    return cells["id"], columns


def save_portfolio(portfolio: Portfolio, path) -> None:
    """Write a portfolio CSV; floats use shortest round-trip representation."""
    columns = [portfolio._columns[name].tolist() for name in _NUMERIC_FIELDS]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_PORTFOLIO_FIELDS)
        writer.writerows([sid, *map(repr, values)] for sid, *values in zip(portfolio.ids, *columns))


def load_correlation(path) -> np.ndarray:
    """Read an n x n correlation matrix from a headerless CSV (blank lines
    skipped): numpy's C reader first, the csv path (``_csv_correlation``)
    on the text of any file it rejects."""
    _, table, text = _c_table(path, "correlation")
    return _csv_correlation(path, text) if table is None else table


def _csv_correlation(path, text: str) -> np.ndarray:
    """A correlation CSV's ``text`` read by ``csv.reader`` and ``float()``; a
    DomainError names the file line of the first ragged row or non-number cell."""
    rows, lines = csv_rows(text, path, "correlation")
    if rows:
        check_widths(path, "correlation", rows, lines, "first row")
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        reject_first_non_number(path, "correlation", (
            (line, f"column {j + 1}", cell) for line, row in zip(lines, rows) for j, cell in enumerate(row)))
        raise


def daily_volatility(annual_vol):
    """Convert annualized volatilities (a float or an array) to daily ones by
    the sqrt-of-time rule over ``TRADING_DAYS_PER_YEAR``."""
    return annual_vol / math.sqrt(TRADING_DAYS_PER_YEAR)
