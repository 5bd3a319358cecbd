import csv
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lst import (
    DomainError,
    Portfolio,
    RedemptionPortfolio,
    RedemptionShock,
    Security,
    herfindahl,
    load_correlation,
    load_portfolio,
    round_shares,
    save_portfolio,
    tna,
    weight_distortion,
    weights,
)
from lst import core
from conftest import random_portfolio

# Published value weights of the demo fund, in percent.
FUND_WEIGHTS = [27.32, 26.04, 17.35, 14.43, 8.90, 3.94, 2.02]


class TestTna:
    def test_demo_fund(self, fund):
        assert tna(fund) == pytest.approx(141_733_600.0)
        assert round(tna(fund) / 1e6, 3) == 141.734

    def test_single_unit_security(self):
        p = Portfolio(securities=(Security("X", 1, 1.0),))
        assert tna(p) == 1.0

    def test_matches_exact_rational_sum(self):
        # oracle: arbitrary-precision accumulation of the same data
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_portfolio(rng, n=5)
            exact = sum(
                Fraction(s.shares).limit_denominator(10**12)
                * Fraction(s.price).limit_denominator(10**12)
                for s in p.securities
            )
            assert tna(p) == pytest.approx(float(exact), rel=1e-12)

    def test_empty_portfolio_rejected(self):
        with pytest.raises(DomainError):
            Portfolio(securities=())


class TestWeights:
    def test_demo_fund_published_vector(self, fund):
        np.testing.assert_allclose(100 * weights(fund), FUND_WEIGHTS, atol=0.005)

    def test_equal_value_assets(self):
        p = Portfolio(securities=tuple(Security(f"S{i}", 10, 25.0) for i in range(4)))
        np.testing.assert_allclose(weights(p), 0.25)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_portfolio(rng)
            assert abs(weights(p).sum() - 1.0) < 1e-12


class TestWeightDistortion:
    def test_pro_rata_leaves_weights_unchanged(self, fund):
        q = RedemptionPortfolio(quantities=0.37 * fund.shares)
        delta, post = weight_distortion(fund, q)
        np.testing.assert_allclose(delta, 0.0, atol=1e-15)
        np.testing.assert_allclose(post, weights(fund))

    def test_partial_day_one_fill(self, fund):
        # remaining-portfolio weights after the first day of a naive 20% pro-rata fill
        sold = np.array([20_000, 20_000, 10_000, 20_000, 15_100, 2_000, 360.0])
        _, post = weight_distortion(fund, RedemptionPortfolio(quantities=sold))
        np.testing.assert_allclose(
            100 * post, [29.13, 27.16, 15.54, 14.51, 7.95, 3.90, 1.80], atol=0.005)

    def test_waterfall_day_two_residual(self, fund):
        sold = np.array([40_000, 40_000, 20_000, 40_000, 40_000, 4_000, 1_800.0])
        _, post = weight_distortion(fund, RedemptionPortfolio(quantities=sold))
        np.testing.assert_allclose(
            100 * post, [32.38, 29.46, 13.66, 15.07, 5.46, 3.97, 0.00], atol=0.005)

    def test_identity_with_direct_post_weights(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_portfolio(rng)
            frac = rng.uniform(0, 0.95, size=p.n)
            q = RedemptionPortfolio(quantities=frac * p.shares)
            delta, post = weight_distortion(p, q)
            held = p.shares - q.quantities
            direct = held * p.prices / (held @ p.prices)
            np.testing.assert_allclose(post, direct, atol=1e-12)
            assert abs(post.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(weights(p) + delta, post, atol=1e-15)

    def test_full_liquidation_rejected(self, fund):
        with pytest.raises(DomainError):
            weight_distortion(fund, RedemptionPortfolio(quantities=fund.shares))


class TestHerfindahl:
    def test_equal_weights(self):
        p = Portfolio(securities=tuple(Security(f"S{i}", 1, 10.0) for i in range(8)))
        assert herfindahl(p) == pytest.approx(1 / 8)

    def test_single_asset(self):
        assert herfindahl(Portfolio(securities=(Security("X", 5, 3.0),))) == pytest.approx(1.0)

    def test_demo_fund_matches_published_weights(self, fund):
        expected = sum((w / 100) ** 2 for w in FUND_WEIGHTS)
        assert herfindahl(fund) == pytest.approx(expected, abs=5e-5)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_portfolio(rng)
            h = herfindahl(p)
            assert 1 / p.n - 1e-12 <= h <= 1 + 1e-12


class TestShockAndRedemption:
    def test_shock_from_rate(self, fund):
        shock = RedemptionShock.from_rate(fund, 0.20)
        assert shock.amount == pytest.approx(0.20 * tna(fund), rel=1e-12)

    def test_rate_bounds(self):
        with pytest.raises(DomainError):
            RedemptionShock(rate=1.2, amount=1.0)
        with pytest.raises(DomainError):
            RedemptionShock(rate=-0.1, amount=1.0)

    def test_nan_amount_rejected(self):
        with pytest.raises(DomainError):
            RedemptionShock(rate=0.1, amount=float("nan"))

    def test_negative_quantities_rejected(self):
        with pytest.raises(DomainError):
            RedemptionPortfolio(quantities=np.array([1.0, -2.0]))

    def test_value(self, fund):
        q = RedemptionPortfolio(quantities=0.5 * fund.shares)
        assert q.value(fund) == pytest.approx(0.5 * tna(fund))


class TestValidation:
    def test_bad_price(self):
        with pytest.raises(DomainError):
            Security("X", 10, 0.0)

    def test_negative_field(self):
        with pytest.raises(DomainError):
            Security("X", -1, 10.0)

    def test_nan_shares_rejected(self):
        with pytest.raises(DomainError):
            Security("X", float("nan"), 10.0)

    def test_non_finite_fields_rejected(self):
        with pytest.raises(DomainError):
            Security("X", 10, float("inf"))
        with pytest.raises(DomainError):
            Security("X", 10, 10.0, daily_limit=float("inf"))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            Portfolio(securities=(Security("a", 1, 1.0), Security("a", 2, 1.0)))

    def test_nan_redemption_quantities_rejected(self):
        with pytest.raises(DomainError):
            RedemptionPortfolio(quantities=np.array([1.0, np.nan]))

    def test_columns_built_once_and_read_only(self, fund):
        assert fund.shares is fund.shares
        assert fund.ids is fund.ids
        with pytest.raises(ValueError):
            fund.daily_limits[0] = 0.0

    def test_correlation_must_match_size(self, fund):
        with pytest.raises(DomainError):
            Portfolio(securities=fund.securities[:3], correlation=np.eye(4))

    def test_correlation_must_be_symmetric(self):
        rho = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(DomainError):
            Portfolio(securities=(Security("A", 1, 1), Security("B", 1, 1)), correlation=rho)

    def test_correlation_must_be_psd(self):
        rho = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        secs = tuple(Security(f"S{i}", 1, 1) for i in range(3))
        with pytest.raises(DomainError):
            Portfolio(securities=secs, correlation=rho)

    def test_missing_correlation_fails_fast(self, fund):
        bare = Portfolio(securities=fund.securities)
        with pytest.raises(DomainError, match="correlation"):
            bare.require_correlation()


class TestRounding:
    def test_half_up(self):
        np.testing.assert_array_equal(round_shares([0.5, 1.49, 2316.94, 13794.53]),
                                      [1, 1, 2317, 13795])


class TestFileFormats:
    def test_csv_round_trip(self, fund, tmp_path):
        path = tmp_path / "fund.csv"
        save_portfolio(fund, path)
        loaded = load_portfolio(path)
        assert loaded.ids == fund.ids
        np.testing.assert_array_equal(loaded.shares, fund.shares)
        np.testing.assert_array_equal(loaded.prices, fund.prices)
        np.testing.assert_array_equal(loaded.spreads, fund.spreads)

    def test_correlation_sidecar(self, fund, tmp_path):
        path = tmp_path / "rho.csv"
        with open(path, "w") as fh:
            for row in fund.correlation:
                fh.write(",".join(str(v) for v in row) + "\n")
        np.testing.assert_allclose(load_correlation(path), fund.correlation)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,shares,price\nX,1,2\n")
        with pytest.raises(DomainError):
            load_portfolio(path)


# =============================================================================
# COLUMN-NATIVE LOADING
# =============================================================================

HEADER = "id,shares,price,daily_limit,daily_volume,volatility,spread\n"
NUMERIC = ("shares", "price", "daily_limit", "daily_volume", "volatility", "spread")
PACKAGED_FUND = resources.files("lst") / "data" / "example_fund.csv"


def reference_rows(path):
    """The per-row loader the columnar one replaced: ``csv.DictReader``, one
    ``float()`` per cell and the per-``Security`` checks written out, row by
    row (price first). Returns ``[(id, {field: value})]``."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rec = {name: float(row[name]) for name in NUMERIC}
            if not (rec["price"] > 0 and math.isfinite(rec["price"])):
                raise DomainError(f"security {row['id']!r}: price must be finite and positive, "
                                  f"got {rec['price']!r}")
            for name in ("shares", "daily_limit", "daily_volume", "volatility", "spread"):
                if not (rec[name] >= 0 and math.isfinite(rec[name])):
                    raise DomainError(f"security {row['id']!r}: {name} must be finite and "
                                      f"non-negative, got {rec[name]!r}")
            out.append((row["id"], rec))
    return out


def assert_matches_reference(p, path):
    rows = reference_rows(path)
    assert p.ids == tuple(sid for sid, _ in rows)
    for name, col in zip(NUMERIC, (p.shares, p.prices, p.daily_limits, p.daily_volumes,
                                   p.volatilities, p.spreads)):
        assert col.tobytes() == np.array([rec[name] for _, rec in rows]).tobytes()


def write_generated_fund(path, n, seed):
    """A random fund whose cells use several spellings float() accepts."""
    rng = np.random.default_rng(seed)
    spellings = (repr, lambda x: f"{x:.17g}", lambda x: f"{x:.4e}", lambda x: f" {x:.6f} ",
                 lambda x: str(int(x)) if x == int(x) else repr(x))
    cols = [rng.integers(0, 10**6, n).astype(float), rng.lognormal(4, 1, n),
            np.round(rng.uniform(0, 5e4, n)), rng.uniform(0, 5e5, n),
            rng.uniform(0, 0.6, n), rng.uniform(0, 3e-3, n)]
    pick = rng.integers(0, len(spellings), size=(n, 6))
    lines = [HEADER]
    for i in range(n):
        cells = [spellings[pick[i, j]](float(cols[j][i])) for j in range(6)]
        lines.append(f"S{i}," + ",".join(cells) + "\n")
    path.write_text("".join(lines))


class TestColumnarLoading:
    def test_packaged_fund_equals_per_row_reference(self):
        with resources.as_file(PACKAGED_FUND) as path:
            assert_matches_reference(load_portfolio(path), path)

    def test_generated_large_fund_equals_per_row_reference(self, tmp_path):
        path = tmp_path / "big.csv"
        write_generated_fund(path, 10_000, seed=3)
        assert_matches_reference(load_portfolio(path), path)

    def test_quoting_blank_lines_and_column_order(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text('spread,price,id,volatility,extra,daily_volume,daily_limit,shares\n'
                        '\n'
                        '0.001,10,"a,""b""",0.2,x,100,5,7\n'
                        '\n\n'
                        '0.002, 1_000 ,"multi\nline",0.1,y,1e3,0,3\n')
        p = load_portfolio(path)
        assert p.ids == ('a,"b"', "multi\nline")
        np.testing.assert_array_equal(p.prices, [10.0, 1000.0])
        assert_matches_reference(p, path)
        path.write_text("\n\n" + HEADER + "A,1,2,3,4,0.1,0.01\n")
        assert load_portfolio(path).ids == ("A",)

    @pytest.mark.parametrize("row, fields", [("X,1,2,3,4,0.1\n", 6), ("X,1,2,3,4,0.1,0.01,9\n", 8)])
    def test_ragged_row_rejected(self, tmp_path, row, fields):
        path = tmp_path / "ragged.csv"
        path.write_text(HEADER + "A,1,2,3,4,0.1,0.01\n\n" + row)
        with pytest.raises(DomainError) as err:
            load_portfolio(path)
        message = str(err.value)
        assert str(path) in message and "line 4" in message
        assert f"{fields} fields" in message and "header has 7" in message

    def test_non_numeric_cell_names_column_and_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text(HEADER + "A,1,2,3,4,0.1,0.01\nB,1,abc,3,4,0.1,0.01\nC,x,2,3,4,0.1,0.01\n")
        with pytest.raises(DomainError, match=r"line 3: price 'abc' is not a number"):
            load_portfolio(path)

    def test_first_bad_row_and_field_match_per_row_reference(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER
                        + "A,1,2,3,4,0.1,0.01\n"
                        + "B,1,2,3,4,nan,-0.01\n"       # volatility before spread
                        + "C,-1,0,3,4,0.1,0.01\n"       # price before shares
                        + "D,1,2,-3,4,0.1,0.01\n")
        with pytest.raises(DomainError) as ours:
            load_portfolio(path)
        with pytest.raises(DomainError) as theirs:
            reference_rows(path)
        assert str(ours.value) == str(theirs.value) == \
            "security 'B': volatility must be finite and non-negative, got nan"

    def test_random_bad_cells_match_per_row_reference(self, tmp_path):
        rng = np.random.default_rng(17)
        bad_values = ("-1", "nan", "inf", "-inf", "-0.5")
        for case in range(60):
            cells = np.full((6, 6), "1.5", dtype=object)
            for _ in range(int(rng.integers(1, 5))):
                cells[rng.integers(0, 6), rng.integers(0, 6)] = rng.choice(bad_values)
            if rng.random() < 0.3:
                cells[rng.integers(0, 6), 1] = "0"  # zero price: bad; zero elsewhere is fine
            path = tmp_path / f"case{case}.csv"
            path.write_text(HEADER + "".join(f"S{i}," + ",".join(row) + "\n"
                                             for i, row in enumerate(cells)))
            records = [dict(id=f"S{i}", **{n: float(v) for n, v in zip(NUMERIC, row)})
                       for i, row in enumerate(cells)]
            with pytest.raises(DomainError) as theirs:
                reference_rows(path)
            with pytest.raises(DomainError) as from_file:
                load_portfolio(path)
            with pytest.raises(DomainError) as from_securities:
                Portfolio(securities=tuple(Security(**rec) for rec in records))
            assert str(from_file.value) == str(theirs.value)
            assert str(from_securities.value) == str(theirs.value)

    def test_empty_and_duplicate_errors_unchanged(self, tmp_path):
        empty, dupes = tmp_path / "empty.csv", tmp_path / "dupes.csv"
        empty.write_text(HEADER)
        dupes.write_text(HEADER + "A,1,2,3,4,0.1,0.01\nA,1,2,3,4,0.1,0.01\n")
        with pytest.raises(DomainError, match="portfolio is empty"):
            load_portfolio(empty)
        with pytest.raises(DomainError, match=r"duplicate security ids \['A'\]"):
            load_portfolio(dupes)

    def test_loading_builds_no_security(self, monkeypatch, tmp_path):
        path = tmp_path / "big.csv"
        write_generated_fund(path, 2_000, seed=5)
        calls = []
        original = Security.__post_init__
        monkeypatch.setattr(Security, "__post_init__", lambda s: calls.append(1) or original(s))
        p = load_portfolio(path)
        assert calls == []
        expected = tuple(Security(sid, **rec) for sid, rec in reference_rows(path))
        calls.clear()
        assert p.securities == expected
        assert len(calls) == p.n and p.securities is p.securities

    def test_from_columns_copies_and_checks_shape(self):
        shares = np.array([1.0, 2.0])
        cols = dict(shares=shares, price=[1.0, 2.0], daily_limit=[0, 0], daily_volume=[0, 0],
                    volatility=[0, 0], spread=[0, 0])
        p = Portfolio.from_columns(("a", "b"), cols)
        assert shares.flags.writeable and p.shares is not shares
        with pytest.raises(DomainError, match="column price"):
            Portfolio.from_columns(("a", "b"), {**cols, "price": [1.0]})


# =============================================================================
# C READER AND CSV FALLBACK
# =============================================================================

FIELDS = ("id",) + NUMERIC


def load_outcome(path):
    """What ``load_portfolio`` makes of a file: ids and column bytes, or the
    DomainError text."""
    try:
        p = load_portfolio(path)
    except DomainError as err:
        return str(err)
    return p.ids, [col.tobytes() for col in (p.shares, p.prices, p.daily_limits,
                                             p.daily_volumes, p.volatilities, p.spreads)]


def reference_outcome(path):
    """The same from ``reference_rows``, with ``Portfolio``'s empty and
    duplicate checks."""
    try:
        rows = reference_rows(path)
    except DomainError as err:
        return str(err)
    ids = tuple(sid for sid, _ in rows)
    if not ids:
        return "portfolio is empty"
    if len(set(ids)) != len(ids):
        return f"duplicate security ids {sorted({i for i in ids if ids.count(i) > 1})}"
    return ids, [np.array([rec[name] for _, rec in rows]).tobytes() for name in NUMERIC]


def quoted(text):
    return '"' + text.replace('"', '""') + '"'


# spellings of one value: the write_generated_fund ones, quoted, with an
# underscore, and with a separator character float() does not strip
SPELLINGS = (repr, lambda x: f"{x:.17g}", lambda x: f"{x:.4e}", lambda x: f" {x:.6f} ",
             lambda x: str(int(x)) if x == int(x) else repr(x), lambda x: quoted(repr(x)),
             lambda x: f"{int(x):_}", lambda x: repr(x) + "\x1c")
LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def fund_files(draw):
    """The text of a portfolio CSV and whether its rows are well formed.

    Ids may need quoting (commas, quotes, line breaks, a quoted ``\\r\\n``),
    may be empty or longer than 64 characters; columns come in any order
    with extra ones; blank and whitespace-only lines, mixed line ends,
    ``1_000`` cells, non-numbers, ragged rows and a leading byte order mark
    are drawn too.
    """
    n = draw(st.integers(0, 5))
    header = list(draw(st.permutations(FIELDS + tuple(
        draw(st.lists(st.sampled_from(["note", "", "note"]), max_size=2))))))
    chars = st.sampled_from(',"\n\r ') | st.characters(min_codepoint=32, max_codepoint=126)
    ids = draw(st.lists(st.text(chars, max_size=4) | st.text("ab", min_size=65, max_size=80)
                        | st.sampled_from(["x\r\ny", "x\ny", "\r", "\r\n"]),
                        min_size=n, max_size=n))
    value = st.floats(min_value=0.0, max_value=1e7, allow_nan=False) | st.sampled_from(
        [0.0, 1.0, 1000.0, -1.0, math.nan, math.inf])
    spellings = draw(st.sampled_from([SPELLINGS[:6], SPELLINGS]))
    rows, well_formed = [], True
    for sid in ids:
        cells = []
        for name in header:
            if name == "id":
                cells.append(quoted(sid) if draw(st.booleans()) or set(sid) & set(',"\r\n') else sid)
            elif name in NUMERIC:
                x = draw(value)
                spell = draw(st.sampled_from(spellings)) if math.isfinite(x) else repr
                cells.append(spell(x))
            else:
                cells.append(draw(st.sampled_from(["", "x", quoted("a,b")])))
        if draw(st.integers(0, 9)) == 0:
            well_formed = False
            cells = cells[:-1] if draw(st.booleans()) else cells + ["9"]
        if draw(st.integers(0, 9)) == 0:
            well_formed = False
            cells[draw(st.integers(0, len(cells) - 1))] = "abc"
        rows.append(",".join(cells))
    lines = [",".join(header)] + rows
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "", "   "]))
        well_formed &= filler == ""
        lines.insert(draw(st.integers(0, len(lines))), filler)
    text = "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)
    if draw(st.integers(0, 9)) == 0:
        text, well_formed = "\ufeff" + text, False  # a byte order mark
    return text, well_formed


@st.composite
def correlation_files(draw):
    """The text of a correlation CSV: up to 4 rows of up to 4 cells in the
    ``SPELLINGS``, with ragged rows, non-numbers, blank lines and mixed line
    ends drawn too."""
    n = draw(st.integers(0, 4))
    value = st.floats(min_value=-1.0, max_value=1.0) | st.sampled_from([0.0, 1.0, 0.5, math.nan])
    lines = []
    for _ in range(n):
        cells = []
        for _ in range(n):
            x = draw(value)
            cells.append(draw(st.sampled_from(SPELLINGS))(x) if math.isfinite(x) else repr(x))
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["9"]
        if cells and draw(st.integers(0, 9)) == 0:
            cells[draw(st.integers(0, len(cells) - 1))] = "abc"
        lines.append(",".join(cells))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   "])))
    return "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)


def correlation_outcome(path):
    """What ``load_correlation`` makes of a file: its shape and bytes, or the
    DomainError text."""
    try:
        rho = load_correlation(path)
    except DomainError as err:
        return str(err)
    return rho.shape, rho.tobytes()


def by_name_pipe_and_fd(outcome, path):
    """``outcome`` of the file at ``path`` given by name, through a pipe
    (``/dev/fd/N``) and as an int file descriptor, each with the file name
    that a message shows replaced by ``<file>``."""
    def shown(result, name):
        return result.replace(f"file {name}", "file <file>") if isinstance(result, str) else result

    results = [shown(outcome(path), path)]
    read, write = os.pipe()
    os.write(write, path.read_bytes())  # a few hundred bytes: the pipe holds them
    os.close(write)
    try:
        results.append(shown(outcome(f"/dev/fd/{read}"), f"/dev/fd/{read}"))
    finally:
        os.close(read)
    fd = os.open(path, os.O_RDONLY)  # the loader closes it
    results.append(shown(outcome(fd), fd))
    return results


def c_reader_refuses():
    """A patch under which numpy's C reader raises ``ValueError`` on every
    file, so that the csv path decides."""
    return mock.patch.object(core, "_load_from_filelike", side_effect=ValueError)


def csv_only(function, *args):
    """``function(*args)`` with the csv path parsing every file."""
    with c_reader_refuses():
        return function(*args)


def fell_back(*args):
    raise AssertionError("fell back to the csv path")


class TestCReader:
    @settings(max_examples=400, deadline=None)
    @given(fund_files(), st.booleans())
    def test_equals_the_csv_path_and_the_per_row_reference(self, drawn, as_str):
        text, well_formed = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fund.csv"
            path.write_text(text, newline="")
            if as_str:
                path = str(path)
            ours = load_outcome(path)
            assert ours == csv_only(load_outcome, path)
            if well_formed and not any(c in text for c in "_\x1c"):
                assert ours == reference_outcome(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @settings(max_examples=150, deadline=None)
    @given(fund_files(), correlation_files())
    def test_a_path_a_pipe_and_a_file_descriptor_read_alike(self, fund, rho):
        # both paths parse the text that was read, never the file again
        with tempfile.TemporaryDirectory() as tmp:
            for outcome, text in ((load_outcome, fund[0]), (correlation_outcome, rho)):
                path = Path(tmp) / "input.csv"
                path.write_text(text, newline="")
                by_name, by_pipe, by_fd = by_name_pipe_and_fd(outcome, path)
                assert by_name == by_pipe == by_fd

    def test_a_refused_file_is_parsed_by_the_csv_path(self, tmp_path):
        fund, rho = tmp_path / "fund.csv", tmp_path / "rho.csv"
        write_generated_fund(fund, 3, seed=5)
        rho.write_text("1,0.5,0\n0.5,1,0\n0,0,1\n")
        with c_reader_refuses(), \
                mock.patch.object(core, "_csv_portfolio", wraps=core._csv_portfolio) as holdings, \
                mock.patch.object(core, "_csv_correlation", wraps=core._csv_correlation) as matrix:
            loaded = load_portfolio(fund, rho)
        assert holdings.call_count == matrix.call_count == 1
        assert_matches_reference(loaded, fund)
        assert loaded.correlation.tolist() == [[1, 0.5, 0], [0.5, 1, 0], [0, 0, 1]]

    def test_long_quoted_ids_across_numpy_reads(self, monkeypatch, tmp_path):
        # ids of varied length with quoted line breaks and commas, so that
        # numpy's chunk boundaries fall inside quoted cells
        rng = np.random.default_rng(11)
        rows = [quoted("\n".join("i,d" * int(k) for k in rng.integers(0, 400, 3)) + str(i))
                + f",{i},2.5,3,4,0.1,0.01\n" for i in range(2_000)]
        path = tmp_path / "ids.csv"
        path.write_text(HEADER + "".join(rows))
        want = csv_only(load_outcome, path)
        assert want == reference_outcome(path)
        monkeypatch.setattr(core, "_csv_portfolio", fell_back)
        assert load_outcome(path) == want

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_keeps_the_text_that_was_read(self, tmp_path, suffix):
        # numpy's opener would decompress a file by its suffix
        path = tmp_path / f"fund.csv{suffix}"
        write_generated_fund(path, 50, seed=5)
        assert_matches_reference(load_portfolio(path), path)

    def test_url_like_path_keeps_the_text_that_was_read(self, tmp_path, monkeypatch):
        # "http://host/fund.csv" is a local file here; numpy's opener would fetch it
        (tmp_path / "http:" / "host").mkdir(parents=True)
        write_generated_fund(tmp_path / "http:" / "host" / "fund.csv", 20, seed=5)
        monkeypatch.chdir(tmp_path)
        with mock.patch("urllib.request.urlopen", side_effect=AssertionError("fetched")):
            fed = load_outcome("http://host/fund.csv")
        assert fed == load_outcome(tmp_path / "http:" / "host" / "fund.csv")

    def test_a_pipe_and_a_file_descriptor_keep_the_text_that_was_read(self, tmp_path):
        # a pipe reads empty the second time; an int fd has no name to reopen
        path = tmp_path / "fund.csv"
        write_generated_fund(path, 20, seed=5)
        want = load_outcome(path)
        assert load_outcome(os.open(path, os.O_RDONLY)) == want
        if os.path.isdir("/dev/fd"):
            read, write = os.pipe()
            os.write(write, path.read_bytes())
            os.close(write)
            try:
                assert load_outcome(f"/dev/fd/{read}") == want
            finally:
                os.close(read)

    def test_each_input_file_is_opened_once(self, tmp_path):
        # numpy parses the text that was read, so a file rewritten or removed
        # after the read cannot change the table; counted by the "open" audit
        # event of a fresh interpreter, which every Python-level open raises
        fund, rho = tmp_path / "fund.csv", tmp_path / "rho.csv"
        write_generated_fund(fund, 200, seed=5)
        rho.write_text("".join(",".join("1" if i == j else "0" for j in range(200)) + "\n"
                                     for i in range(200)))
        code = ("import sys; from lst import load_portfolio; opened = []; "
                "sys.addaudithook(lambda event, args: event == 'open' and opened.append(args[0])); "
                f"load_portfolio({str(fund)!r}, {str(rho)!r}); "
                f"print(opened.count({str(fund)!r}), opened.count({str(rho)!r}))")
        src = str(Path(core.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out.split() == ["1", "1"]

    def test_file_rewritten_before_numpy_reads_it(self, tmp_path):
        path = tmp_path / "fund.csv"
        write_generated_fund(path, 200, seed=5)
        want = load_outcome(path)

        real = core._load_from_filelike

        def rewrite_then_parse(*args, **kwargs):
            write_generated_fund(path, 300, seed=6)
            return real(*args, **kwargs)

        with mock.patch.object(core, "_load_from_filelike", side_effect=rewrite_then_parse) as kernel, \
                mock.patch.object(core, "_csv_portfolio", fell_back):
            assert load_outcome(path) == want
        assert kernel.call_count == 1
        assert load_outcome(path) != want

    def test_file_removed_before_numpy_reads_it(self, tmp_path):
        path = tmp_path / "fund.csv"
        write_generated_fund(path, 200, seed=5)
        want = load_outcome(path)

        real = core._load_from_filelike

        def remove_then_parse(*args, **kwargs):
            path.unlink()
            return real(*args, **kwargs)

        with mock.patch.object(core, "_load_from_filelike", side_effect=remove_then_parse) as kernel, \
                mock.patch.object(core, "_csv_portfolio", fell_back):
            assert load_outcome(path) == want
        assert kernel.call_count == 1
        assert not path.exists()

    def test_large_plain_file_never_falls_back(self, monkeypatch, tmp_path):
        path = tmp_path / "big.csv"
        write_generated_fund(path, 2_000, seed=7)
        monkeypatch.setattr(core, "_csv_portfolio", fell_back)
        assert_matches_reference(load_portfolio(path), path)

    def test_header_only_file_is_empty_without_a_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        for text in (HEADER, "\n" + HEADER + "\n\r\n"):
            path.write_text(text, newline="")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="portfolio is empty"):
                    load_portfolio(path)

    def test_separator_character_is_not_a_number(self, tmp_path):
        # numpy's float parser strips U+001C..U+001F and float() does not
        path = tmp_path / "fs.csv"
        path.write_text(HEADER + "A,1,2\x1c,3,4,0.1,0.01\n")
        with pytest.raises(DomainError, match=r"line 2: price '2\\x1c' is not a number"):
            load_portfolio(path)

    def test_correlation_is_bit_identical_through_both_paths(self, tmp_path):
        rng = np.random.default_rng(19)
        for n in (1, 2, 7, 40):
            rho = rng.uniform(-1, 1, size=(n, n))
            path = tmp_path / f"rho{n}.csv"
            path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rho.tolist()))
            fast, slow = load_correlation(path), core._csv_correlation(path, path.read_text())
            assert fast.shape == slow.shape == (n, n)
            assert fast.tobytes() == slow.tobytes() == rho.tobytes()

    def test_correlation_fallback_keeps_its_messages(self, tmp_path):
        path = tmp_path / "rho.csv"
        path.write_text("1,0.5\r0.5,1_0\r")
        assert load_correlation(path).tolist() == [[1.0, 0.5], [0.5, 10.0]]
        path.write_text("1,0.5\n0.5, \n")
        with pytest.raises(DomainError, match=r"line 2: column 2 ' ' is not a number"):
            load_correlation(path)


@st.composite
def column_portfolios(draw):
    n = draw(st.integers(1, 8))
    # ASCII ids, with the characters CSV must quote drawn often
    chars = st.sampled_from(',"\n\r ') | st.characters(min_codepoint=1, max_codepoint=127)
    ids = draw(st.lists(st.text(chars, max_size=6), min_size=n, max_size=n, unique=True))
    amount = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    price = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
    columns = {name: draw(st.lists(price if name == "price" else amount, min_size=n, max_size=n))
               for name in NUMERIC}
    return Portfolio.from_columns(ids, columns)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(column_portfolios())
    def test_save_then_load_is_bit_identical(self, p):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fund.csv"
            save_portfolio(p, path)
            loaded = load_portfolio(path)
        assert loaded.ids == p.ids
        for name in ("shares", "prices", "daily_limits", "daily_volumes", "volatilities", "spreads"):
            assert getattr(loaded, name).tobytes() == getattr(p, name).tobytes()

    def test_writes_repr_of_each_value(self, fund, tmp_path):
        path = tmp_path / "fund.csv"
        save_portfolio(fund, path)
        rows = path.read_text().splitlines()
        assert rows[0] == HEADER.strip()
        assert rows[1] == "A1,435100.0,89.0,20000.0,200000.0,0.2,0.0005"


class TestCorrelationFile:
    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "rho.csv"
        path.write_text("1,0.5\n\n0.5\n")
        with pytest.raises(DomainError, match=r"line 3: 1 fields where the first row has 2"):
            load_correlation(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "rho.csv"
        path.write_text("1,0.5\n\n0.5,1\n\n")
        np.testing.assert_array_equal(load_correlation(path), [[1.0, 0.5], [0.5, 1.0]])

    @pytest.mark.parametrize("text, where", [
        ("1,x\nx,1\n", "line 1: column 2 'x'"),
        ("1,0.5\n\n0.5,1e\n", "line 3: column 2 '1e'"),
        ("one,0.5\n0.5,1\n", "line 1: column 1 'one'"),
    ])
    def test_non_numeric_cell_names_line_and_column(self, tmp_path, text, where):
        path = tmp_path / "rho.csv"
        path.write_text(text)
        with pytest.raises(DomainError) as err:
            load_correlation(path)
        assert str(err.value) == f"correlation file {path}, {where} is not a number"


class TestRepeatedColumns:
    @pytest.mark.parametrize("extra", ["price", "spread", "id"])
    def test_column_named_twice_is_rejected(self, tmp_path, extra):
        path = tmp_path / "fund.csv"
        path.write_text(HEADER.strip() + f",{extra}\nA,1,2,3,4,0.1,0.01,5\n")
        with pytest.raises(DomainError, match=rf"portfolio file .*: repeated columns \['{extra}'\]"):
            load_portfolio(path)

    def test_repeated_unread_column_is_ignored(self, tmp_path):
        path = tmp_path / "fund.csv"
        path.write_text(HEADER.strip() + ",note,note\nA,1,2,3,4,0.1,0.01,a,b\n")
        assert load_portfolio(path).ids == ("A",)


LIMIT = csv.field_size_limit()
OVER = "0" * LIMIT + "1"  # a number one character over the csv field limit


class TestFieldLimit:
    """A cell longer than ``csv.field_size_limit()`` is a DomainError naming
    the file and line, wherever it sits and whichever path parses the file."""

    def write(self, path, row, k):
        rows = [f"A{i},1,2,3,4,0.1,0.01" for i in range(4)]
        rows[k] = row
        path.write_text(HEADER + "".join(r + "\n" for r in rows))

    def assert_both_paths_raise(self, path, match):
        with pytest.raises(DomainError, match=match) as fast:
            load_portfolio(path)
        with c_reader_refuses():
            with pytest.raises(DomainError) as slow:
                load_portfolio(path)
        assert str(fast.value) == str(slow.value)
        return str(fast.value)

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("row", ["X" * (LIMIT + 1) + ",1,2,3,4,0.1,0.01",
                                     f"B,{OVER},2,3,4,0.1,0.01",
                                     f"B,1,2,3,4,0.1,0.01,{OVER}"],
                             ids=["id", "number", "extra column"])
    def test_long_cell_names_the_line(self, tmp_path, row, k):
        path = tmp_path / "fund.csv"
        self.write(path, row, k)
        detail = self.assert_both_paths_raise(path, "field larger than field limit")
        assert detail == f"portfolio file {path}, line {k + 2}: field larger than field limit ({LIMIT})"

    def test_long_header_cell(self, tmp_path):
        path = tmp_path / "fund.csv"
        path.write_text(HEADER.strip() + ",x" + "y" * LIMIT + "\nA,1,2,3,4,0.1,0.01,z\n")
        assert self.assert_both_paths_raise(path, "field larger").startswith(
            f"portfolio file {path}, line 1: ")

    def test_quoted_cell_spanning_short_lines(self, tmp_path):
        # no line is over the limit, the cell is
        path = tmp_path / "fund.csv"
        self.write(path, quoted(("x" * 999 + "\n") * 200) + ",1,2,3,4,0.1,0.01", 2)
        self.assert_both_paths_raise(path, f"portfolio file .*, line 1[0-9][0-9]: field larger")

    def test_cell_at_the_limit_loads_through_both_paths(self, tmp_path):
        path = tmp_path / "fund.csv"
        self.write(path, "X" * LIMIT + ",1,2,3,4,0.1,0.01", 2)
        ours = load_outcome(path)
        with c_reader_refuses():
            assert load_outcome(path) == ours
        assert ours[0][2] == "X" * LIMIT

    def test_long_ids_below_the_limit_stay_on_the_c_reader(self, monkeypatch, tmp_path):
        path = tmp_path / "fund.csv"
        path.write_text(HEADER + "".join(f"{quoted('x' * 4000 + str(i))},1,2,3,4,0.1,0.01\n"
                                         for i in range(100)))
        monkeypatch.setattr(core, "_csv_portfolio", fell_back)
        assert load_portfolio(path).n == 100

    def test_a_raised_limit_is_honoured(self, tmp_path):
        path = tmp_path / "fund.csv"
        self.write(path, "X" * 200_000 + ",1,2,3,4,0.1,0.01", 2)
        csv.field_size_limit(400_000)
        try:
            ours = load_outcome(path)
            with c_reader_refuses():
                assert load_outcome(path) == ours
        finally:
            csv.field_size_limit(LIMIT)
        assert ours[0][2] == "X" * 200_000

    @pytest.mark.parametrize("k", [0, 1])
    def test_long_correlation_cell(self, tmp_path, k):
        rows = ["1,0.5", "0.5,1"]
        rows[k] = f"1,{OVER}"
        path = tmp_path / "rho.csv"
        path.write_text("\n".join(rows) + "\n")
        want = f"correlation file {path}, line {k + 1}: field larger than field limit ({LIMIT})"
        for read in (load_correlation, lambda path: core._csv_correlation(path, path.read_text())):
            with pytest.raises(DomainError) as err:
                read(path)
            assert str(err.value) == want


class TestRejectedInputs:
    @pytest.mark.parametrize("call, message", [
        (lambda f: RedemptionPortfolio(quantities=np.zeros((2, 2))),
         "^redemption quantities must be a 1-d vector$"),
        (lambda f: RedemptionPortfolio(quantities=np.zeros(f.n + 1)).value(f),
         "^redemption portfolio does not match portfolio size$"),
        (lambda f: Portfolio(securities=f.securities[:2], correlation=[[0.5, 0.0], [0.0, 0.5]]),
         "^correlation matrix diagonal must be 1$"),
        (lambda f: Portfolio(securities=f.securities[:2], correlation=[[1.0, 1.5], [1.5, 1.0]]),
         r"^correlation entries must lie in \[-1, 1\]$"),
        (lambda f: RedemptionPortfolio(quantities=[1.0, np.inf]),
         "^redemption quantities must be finite and non-negative, got inf$"),
        (lambda f: RedemptionPortfolio(quantities=[np.nan, -1.0]),
         "^redemption quantities must be finite and non-negative, got nan$"),
        (lambda f: RedemptionShock(rate=1.5, amount=1.0),
         r"^redemption rate must lie in \[0, 1\], got 1\.5$"),
        (lambda f: RedemptionShock(rate=0.5, amount=np.inf),
         "^redemption amount must be finite and non-negative, got inf$"),
    ], ids=["quantities-2d", "value-size-mismatch", "correlation-diagonal", "correlation-above-one",
            "quantities-inf", "quantities-nan", "shock-rate-above-one", "shock-amount-inf"])
    def test_domain_error(self, fund, call, message):
        with pytest.raises(DomainError, match=message):
            call(fund)

    def test_zero_sale_leaves_the_weights_unchanged(self, fund):
        distortion = weight_distortion(fund, RedemptionPortfolio(quantities=np.zeros(fund.n)))
        assert np.array_equal(distortion.delta, np.zeros(fund.n))
        assert np.array_equal(distortion.post, weights(fund))
