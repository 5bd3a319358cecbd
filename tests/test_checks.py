"""The one rule for a bounded number: ``_checks.check_number`` validates a
float or an array against an interval of ``BOUNDS``, and no other module
writes the rule out. Every public day count is checked by
``_checks.check_days`` under its own name."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from lst import (
    CostModel,
    DomainError,
    RedemptionShock,
    asset_rst,
    build_schedule,
    daily_liquidation_profile,
    evaluate_policy,
    liability_rst,
    liquidation_ratio,
    max_admissible_shock,
    optimal_pro_rata,
    optimize_policy,
    pro_rata_portfolio,
    rcr_report,
    stressed_rcr,
)
from lst._checks import check_number
from lst.specialfuncs import ETA_MAX, ETA_RANGE
from lst.swing import GATE_CAP_MIN, GATE_CAP_RANGE

SRC = Path(__file__).resolve().parents[1] / "src" / "lst"

#: Every bound the package passes to ``check_number``.
PACKAGE_BOUNDS = ["", "non-negative", "positive", "above -1", "[0, 1]", "(0, 1]", "(0, 1)",
                  "[-1, 1]", ETA_RANGE, GATE_CAP_RANGE]


class TestCheckNumber:
    @pytest.mark.parametrize("bound", PACKAGE_BOUNDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_no_bound_holds_nan_or_an_infinity(self, bound, value):
        for form in (value, np.float64(value), np.array([0.5, value]), np.full((2, 2), value)):
            with pytest.raises(DomainError):
                check_number("x", form, bound)

    @pytest.mark.parametrize("bound, inside, outside", [
        ("", [-1e308, 0.0, 1e308], []),
        ("non-negative", [0.0, -0.0, 1e308], [-5e-324, -1.0]),
        ("positive", [5e-324, 1e308], [0.0, -0.0, -1.0]),
        ("above -1", [np.nextafter(-1.0, 0.0), 1e308], [-1.0, -2.0]),
        ("[0, 1]", [0.0, 1.0], [-5e-324, np.nextafter(1.0, 2.0)]),
        ("(0, 1]", [5e-324, 1.0], [0.0, np.nextafter(1.0, 2.0)]),
        ("(0, 1)", [5e-324, np.nextafter(1.0, 0.0)], [0.0, 1.0]),
        ("[-1, 1]", [-1.0, 1.0], [np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0)]),
        (ETA_RANGE, [5e-324, ETA_MAX], [0.0, np.nextafter(ETA_MAX, math.inf)]),
        (GATE_CAP_RANGE, [GATE_CAP_MIN, 1.0], [np.nextafter(GATE_CAP_MIN, 0.0), 1.5]),
    ])
    def test_ends_are_the_bound_s_own(self, bound, inside, outside):
        # a constant's interval text parses back to the constant itself
        for value in inside:
            check_number("x", value, bound)
        check_number("x", np.array(inside), bound)
        for value in outside:
            with pytest.raises(DomainError):
                check_number("x", value, bound)
            with pytest.raises(DomainError):
                check_number("x", np.array(inside + [value]), bound)

    @pytest.mark.parametrize("value, bound, message", [
        (1.5, "[0, 1]", r"^x must lie in \[0, 1\], got 1\.5$"),
        (np.float64(-0.25), "[0, 1]", r"^x must lie in \[0, 1\], got -0\.25$"),
        (np.array([[0.5, 2.0], [math.nan, 3.0]]), "[0, 1]", r"^x must lie in \[0, 1\], got 2\.0$"),
        (np.array([0.5, math.nan, -1.0]), "(0, 1]", r"^x must lie in \(0, 1\], got nan$"),
        (-1, "non-negative", "^x must be finite and non-negative, got -1$"),
        (np.array([1, 0, -3]), "positive", "^x must be finite and positive, got 0$"),
        (np.float32(math.inf), "", "^x must be finite, got inf$"),
        (-1.0, "above -1", r"^x must be finite and above -1, got -1\.0$"),
    ], ids=["float", "numpy-scalar", "first-of-2d", "nan-first", "int", "int-array",
            "float32", "word-bound"])
    def test_message_names_the_input_the_bound_and_the_first_offender(self, value, bound,
                                                                      message):
        with pytest.raises(DomainError, match=message):
            check_number("x", value, bound)

    def test_an_empty_array_passes(self):
        check_number("x", np.array([]), "positive")

    def test_a_bound_that_is_no_interval_is_no_key(self):
        for bound in ("finite", "0, 1", "[0, 1"):
            with pytest.raises(KeyError):
                check_number("x", 0.5, bound)


def messages(path: Path):
    """(line, text) of each DomainError or ConfigError built in ``path``; an
    f-string's fields read as {}."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("DomainError",
                                                                              "ConfigError"):
            parts = [p for arg in node.args
                     for p in (arg.values if isinstance(arg, ast.JoinedStr) else [arg])]
            yield node.lineno, "".join(p.value if isinstance(p, ast.Constant) else "{}"
                                       for p in parts)


RULE_PHRASES = ("must lie in", "must be finite", "and finite")

#: Messages that state a bound inline, by file, with the reason the rule does not apply.
INLINE = {
    ("core.py", "correlation entries must lie in [-1, 1]"):
        "a correlation matrix allows |rho| up to 1 + 1e-12, the rounding of a computed matrix",
}


class TestOneRule:
    def test_no_module_but_checks_writes_the_rule_out(self):
        found = {(path.name, text): line for path in sorted(SRC.glob("*.py"))
                 if path.name != "_checks.py" for line, text in messages(path)
                 if any(phrase in text for phrase in RULE_PHRASES)}
        ad_hoc = sorted(f"{name}:{line}: {text}" for (name, text), line in found.items()
                        if (name, text) not in INLINE)
        assert ad_hoc == [], "call check_number instead"
        assert sorted(found) == sorted(INLINE)  # an allowlisted check that went, goes from the list

    def test_the_scan_sees_the_rule(self):
        # the rule's own messages, so a scan that reads nothing cannot pass
        texts = [text for _, text in messages(SRC / "_checks.py")]
        assert any("must lie in" in text for text in texts)


#: (parameter name, call with that day count) of every public day count.
DAY_COUNTS = {
    "rcr_report": ("horizon", lambda f, d: rcr_report(
        f, RedemptionShock.from_rate(f, 0.1), pro_rata_portfolio(f, 0.1), horizon=d)),
    "build_schedule": ("max_days", lambda f, d: build_schedule(
        f, pro_rata_portfolio(f, 0.1), max_days=d)),
    "stressed_rcr": ("tau_h", lambda f, d: stressed_rcr(f, pro_rata_portfolio(f, 0.1), 1e6, d)),
    "liability_rst": ("tau_h", lambda f, d: liability_rst(f, np.zeros(f.n), 0.5, d)),
    "asset_rst": ("tau_h", lambda f, d: asset_rst(f, 0.1, 0.5, d)),
    "optimal_pro_rata": ("tau_h", lambda f, d: optimal_pro_rata(f, d)),
    "max_admissible_shock": ("tau_h", lambda f, d: max_admissible_shock(f, d)),
    "evaluate_policy": ("horizon", lambda f, d: evaluate_policy(
        f, CostModel(), pro_rata_portfolio(f, 0.1), horizon=d)),
    "optimize_policy": ("horizon", lambda f, d: optimize_policy(
        f, CostModel(), RedemptionShock.from_rate(f, 0.1), 0.002, 0.1, horizon=d)),
    "daily_liquidation_profile": ("max_days", lambda f, d: daily_liquidation_profile(
        f, max_days=d)),
}


def twenty_percent_schedule(f):
    return build_schedule(f, pro_rata_portfolio(f, 0.2))


#: (parameter name, call with that day) of every public day index from 0.
DAY_INDICES = {
    "LiquidationSchedule.amount": ("h", lambda f, d: twenty_percent_schedule(f).amount(d)),
    "LiquidationSchedule.amounts": ("days", lambda f, d: twenty_percent_schedule(f).amounts(d)),
    "LiquidationSchedule.cumulative": ("h", lambda f, d: twenty_percent_schedule(f).cumulative(d)),
    "liquidation_ratio": ("h", lambda f, d: liquidation_ratio(twenty_percent_schedule(f), d)),
}


class TestDayCounts:
    @pytest.mark.parametrize("days", [0, 2.0])
    @pytest.mark.parametrize("function", sorted(DAY_COUNTS))
    def test_a_day_count_is_rejected_under_its_own_name(self, fund, function, days):
        name, call = DAY_COUNTS[function]
        message = f"^{name} must be an integer of at least 1, got {re.escape(repr(days))}$"
        with pytest.raises(DomainError, match=message):
            call(fund, days)

    # amount(1.5) once raised a day and a half of sales, and amount(-1) 0.0
    @pytest.mark.parametrize("day", [-1, 1.5, 2.0, True])
    @pytest.mark.parametrize("function", sorted(DAY_INDICES))
    def test_a_day_index_is_rejected_under_its_own_name(self, fund, function, day):
        name, call = DAY_INDICES[function]
        message = f"^{name} must be an integer of at least 0, got {re.escape(repr(day))}$"
        with pytest.raises(DomainError, match=message):
            call(fund, day)

    def test_day_zero_has_sold_nothing(self, fund):
        schedule = twenty_percent_schedule(fund)
        assert schedule.amount(0) == 0.0 == liquidation_ratio(schedule, 0)
        assert schedule.amounts(0).size == 0 and not schedule.cumulative(0).any()
        assert schedule.amount(np.int64(3)) == schedule.amount(3)

    # row(2.0) once raised numpy's IndexError; an integer outside the table
    # names the horizon (tests/test_rcr.py)
    @pytest.mark.parametrize("day", [1.5, 2.0, True])
    def test_a_report_row_is_an_integer_day(self, fund, day):
        report = rcr_report(fund, RedemptionShock.from_rate(fund, 0.2), pro_rata_portfolio(fund, 0.2),
                            horizon=6)
        with pytest.raises(DomainError, match=f"^day must be an integer of at least 1, got {day!r}$"):
            report.row(day)
