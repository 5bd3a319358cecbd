"""
Command-line front end: scenario ingestion, orchestration and deterministic
CSV/JSON emission, including the golden-table regression runner.

Exit codes: 0 on success, 1 when a computation reports a typed infeasibility
(no-solution reverse stress, infeasible policy constraints), 2 on config or
validation errors, 3 on any other exception (a fault of lst, reported as one
``"internal"`` JSON line).

Each subcommand imports the analytics it calls when it runs, so ``lst hqla``,
``lst swing`` and ``lst gate`` load no numpy and only ``lst optimize`` loads
the SLSQP kernel.

Startup and exit: ``import lst.cli`` loads no analytics module, ``main`` adds
flags only to the subparser of the command it runs, and ``run``, the script
entry, ends the process without interpreter teardown (see ``run``). The text
before this paragraph is ``lst --help``'s description.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence

from ._checks import (ConfigError, DomainError, check_number, check_widths, load_json, parse_cell,
                      read_rows)

if TYPE_CHECKING:
    import numpy as np

    from .core import Portfolio

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

#: ``lst --help``'s description: the module docstring before its startup note.
_DESCRIPTION = __doc__ and __doc__.split("\nStartup and exit:")[0]  # None under -OO

#: Largest --curve-points of ``lst buffer``: a 1e-4 step on [0, 1].
MAX_CURVE_POINTS = 10_001
#: Largest day count the command line reads.
MAX_DAYS = 10_000


# =============================================================================
# FORMATTING AND SMALL PARSERS
# =============================================================================

def _fmt(x: float) -> str:
    """Deterministic numeric formatting: six significant digits."""
    return format(float(x), ".6g")


def _pct(x: float, raw: bool = False) -> str:
    """Percentages at two decimals (benchmark-table style) unless raw."""
    return repr(float(x)) if raw else f"{100 * x:.2f}"


def _bp(x: float, raw: bool = False) -> str:
    return repr(float(x)) if raw else f"{1e4 * x:.1f}"


def parse_rate(text: str) -> float:
    """Parse a fraction given as '0.002', '20bp' or '0.2%'."""
    t = str(text).strip().lower()
    if t.endswith("bp") or t.endswith("bps"):
        return float(t.rstrip("ps").rstrip("b")) * 1e-4
    if t.endswith("%"):
        return float(t[:-1]) / 100.0
    return float(t)


def parse_days(text: str) -> List[int]:
    """Parse a non-empty day list: '5', '1..5' or '1,3,5', of at most
    ``MAX_DAYS`` days and none after day ``MAX_DAYS`` (a range is checked
    before it is built); a day below 1 is left to the analytics."""
    t = str(text).strip()
    if ".." in t:
        lo, hi = (int(x) for x in t.split(".."))
        days = range(max(lo, hi - MAX_DAYS), hi + 1)  # too long a range keeps MAX_DAYS + 1
    else:
        days = [int(x) for x in t.split(",") if x.strip()]
    if not days:
        raise DomainError(f"day list {text!r} names no day")
    if len(days) > MAX_DAYS or max(days) > MAX_DAYS:
        raise DomainError(f"day list {text!r} must name at most {MAX_DAYS} days, "
                          f"none after day {MAX_DAYS}")
    return list(days)


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(header, rows))


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write a subcommand's table to ``--out`` if given, else to stdout."""
    if args.out:
        write_csv(args.out, header, rows)
    else:
        sys.stdout.write(_csv_text(header, rows))


def _error(report: dict, code: int) -> int:
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return code


# =============================================================================
# SUBCOMMANDS
# =============================================================================

def cmd_rcr(args) -> int:
    from .core import RedemptionShock, load_portfolio
    from .rcr import optimal_pro_rata, pro_rata_portfolio, rcr_report, waterfall_portfolio

    portfolio = load_portfolio(args.portfolio, correlation_path=args.corr)
    shock = RedemptionShock.from_rate(portfolio, args.shock)
    if args.policy == "prorata":
        redemption = pro_rata_portfolio(portfolio, args.shock)
    elif args.policy == "optimal":
        phi, redemption = optimal_pro_rata(portfolio, args.tau)
        if phi == 0:
            # the names whose term of phi is 0: a zero limit, or one that rounds to 0
            stuck = [sid for sid, held, cap in
                     zip(portfolio.ids, portfolio.shares, portfolio.daily_limits)
                     if held > 0 and args.tau * cap / held == 0]
            return _error(
                {"error": "infeasible-policy", "binding": "daily-limit",
                 "detail": f"the optimal pro-rata slice is empty: held securities {stuck} "
                           f"sell nothing within {args.tau} days at their daily limits"},
                EXIT_INFEASIBLE,
            )
    else:
        redemption = waterfall_portfolio(portfolio)
    report = rcr_report(portfolio, shock, redemption, horizon=args.horizon or max(args.tau, 6))
    header = ["h", "lr_pct", "amount", "rcr_pct", "ls_pct"]
    rows = [
        [h, _pct(report.lr[h - 1], args.raw), _fmt(report.amount[h - 1]),
         _pct(report.rcr[h - 1], args.raw), _pct(report.ls[h - 1], args.raw)]
        for h in range(1, report.horizon + 1)
    ]
    _emit(args, header, rows)
    if args.schedule_out:
        from .liquidation import build_schedule

        schedule = build_schedule(portfolio, redemption)  # full unwind, not report-truncated
        cash = schedule.amounts(schedule.horizon)
        write_csv(args.schedule_out, ["h", *portfolio.ids, "cumulative_value"],
                  [[h, *map(_fmt, day), _fmt(value)]
                   for h, (day, value) in enumerate(zip(schedule.sold, cash), start=1)])
    return EXIT_OK


def cmd_hqla(args) -> int:
    from .hqla import SpecificRiskParams, ccf_parametric, load_buckets, rcr_hqla

    if (args.tna_star is None) != (args.h_star is None):
        raise DomainError("--tna-star and --h-star go together: give both or neither")
    buckets = load_buckets(args.buckets)
    if len(args.weights) != len(buckets):
        raise DomainError("--weights must give one weight per bucket")
    sf = None
    if args.tna_star is not None:
        sf = SpecificRiskParams(tna_threshold=args.tna_star, herfindahl_threshold=args.h_star,
                                size_coefficient=args.xi_size,
                                concentration_coefficient=args.xi_conc, cap=args.sf_cap)
    pairs = []
    rows = []
    for weight, bucket in zip(args.weights, buckets):
        ccf = ccf_parametric(bucket, sf, args.tau, fund_tna=args.tna,
                             fund_herfindahl=args.herfindahl, conservative=args.conservative)
        pairs.append((weight, ccf))
        rows.append([bucket.name, _fmt(weight), _fmt(ccf)])
    rcr, ls = rcr_hqla(pairs, args.shock)
    rows.append(["rcr", "", _fmt(rcr)])
    rows.append(["ls", "", _fmt(ls)])
    header = ["bucket", "weight", "value"]
    _emit(args, header, rows)
    return EXIT_OK


def _load_alpha(path, ids) -> np.ndarray:
    """Stressed saleable proportions, one per security in ``ids``: one value
    per line, or an id,value CSV.

    The value is the last field of each non-blank row; only the first row may
    be a header. Every value is parsed, and checked to lie in [0, 1], before
    the ids are matched, so a non-number or a value out of range is reported
    first, by its line. Rows that carry an id (two or more
    fields) are matched to the securities by that id, which must name each
    security exactly once; a values-only file is matched by position.
    """
    import numpy as np

    rows, lines = read_rows(path, "alpha")
    start = 0
    if rows:
        try:
            float(rows[0][-1])
        except ValueError:
            start = 1  # a header line
    rows = rows[start:]
    values = []
    for line, row in zip(lines[start:], rows):
        value = parse_cell(path, "alpha", line, "value", row[-1])
        try:
            check_number("alpha proportions", value, "[0, 1]")
        except DomainError as exc:
            raise DomainError(f"alpha file {path}, line {line}: {exc}") from None
        values.append(value)
    if all(len(row) == 1 for row in rows):
        return np.array(values, dtype=float)
    by_id = {}
    for row, value in zip(rows, values):
        if row[0] in by_id:
            raise DomainError(f"alpha file {path}: security {row[0]!r} is listed twice")
        by_id[row[0]] = value
    unknown = sorted(set(by_id) - set(ids))
    if unknown:
        raise DomainError(f"alpha file {path}: ids not in the portfolio {unknown}")
    missing = [sid for sid in ids if sid not in by_id]
    if missing:
        raise DomainError(f"alpha file {path}: no value for securities {missing}")
    return np.array([by_id[sid] for sid in ids], dtype=float)


def cmd_rst(args) -> int:
    from .core import load_portfolio
    from .reverse import AssetRstNoSolution, asset_rst, liability_rst

    if args.mode == "liability" and args.alpha is None:
        raise DomainError("a --alpha file is required")
    portfolio = load_portfolio(args.portfolio, correlation_path=args.corr)
    no_solution = False
    if args.mode == "liability":
        alpha = _load_alpha(args.alpha, portfolio.ids)
        header = ["tau", "floor_pct", "amount", "rate_pct", "feasible"]
        rows = []
        for tau in args.tau:
            for floor in args.floor:
                res = liability_rst(portfolio, alpha, floor, tau)
                rows.append([tau, _pct(floor, args.raw), _fmt(res.amount),
                             _pct(res.rate, args.raw), str(res.feasible).lower()])
    else:
        header = ["tau", "floor_pct", "volume_multiplier"]
        rows = []
        for tau in args.tau:
            for floor in args.floor:
                res = asset_rst(portfolio, args.rate_star, floor, tau)
                if isinstance(res, AssetRstNoSolution):
                    no_solution = True
                    rows.append([tau, _pct(floor, args.raw), f"no-solution:{res.reason.name}"])
                else:
                    rows.append([tau, _pct(floor, args.raw), _fmt(res)])
    _emit(args, header, rows)
    return EXIT_INFEASIBLE if no_solution else EXIT_OK


def cmd_optimize(args) -> int:
    from .core import RedemptionShock, load_portfolio
    from .optimizer import CostModel, InfeasiblePolicy, optimize_policy

    portfolio = load_portfolio(args.portfolio, correlation_path=args.corr)
    shock = RedemptionShock.from_rate(portfolio, args.shock)
    cost_model = CostModel(beta_impact=args.impact, knee=args.knee,
                           participation_cap=args.cap, regime=args.regime)
    result = optimize_policy(portfolio, cost_model, shock,
                             tr_max=args.tr_max, ls_max=args.ls_max, horizon=args.h)
    if isinstance(result, InfeasiblePolicy):
        return _error(
            {"error": "infeasible-policy", "binding": result.binding_constraint,
             "detail": result.message},
            EXIT_INFEASIBLE,
        )
    ev = result.evaluation
    header = ["field", "value"]
    rows = [[sid, _fmt(qty)] for sid, qty in zip(portfolio.ids, result.redemption.quantities)]
    rows += [
        ["tracking_risk_bp", _bp(ev.tracking_risk, args.raw)],
        ["tc_bp", _bp(ev.tc, args.raw)],
        ["tc_spread_bp", _bp(ev.tc_spread, args.raw)],
        ["tc_impact_bp", _bp(ev.tc_impact, args.raw)],
        ["shortfall_pct", _pct(ev.shortfall, args.raw)],
    ]
    _emit(args, header, rows)
    return EXIT_OK


def cmd_buffer(args) -> int:
    import numpy as np

    from .buffer import (
        BufferCostParams,
        BufferMarketParams,
        break_even_premium,
        net_buffer_cost,
        optimal_cash_buffer,
    )

    market = BufferMarketParams(mu_asset=args.mu_asset, mu_cash=args.mu_cash,
                                sigma_asset=args.sigma_asset, sigma_cash=args.sigma_cash,
                                rho=args.rho, te_aversion=getattr(args, "lambda"))
    params = BufferCostParams(spread=args.spread, cash_cost=args.cash_cost, beta_impact=args.impact,
                              sigma=args.sigma_asset if args.sigma is None else args.sigma,
                              x_plus=args.xplus, eta=args.eta)
    # solved before --out-dir is made, so that an error leaves no directory
    w_star = optimal_cash_buffer(market, params)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    print(f"w_star,{_fmt(w_star)}")
    if args.out_dir:
        grid = np.linspace(0.0, 1.0, args.curve_points)
        for name, column, values in (
            ("nbc_curve.csv", "nbc", net_buffer_cost(market, params, grid)),
            ("break_even_curve.csv", "premium", break_even_premium(market, params, grid)),
        ):
            write_csv(out / name, ["w", column], [[_fmt(w), _fmt(v)] for w, v in zip(grid, values)])
    return EXIT_OK


def cmd_swing(args) -> int:
    from .swing import FlowEvent, FundState, SwingConfig, adl_fees, swing_nav

    state = FundState(nav=args.nav, units=args.units)
    subscribed, redeemed = args.sub, args.red
    if args.flow is not None:
        subscribed, redeemed = (args.flow, 0.0) if args.flow >= 0 else (0.0, -args.flow)
    event = FlowEvent(subscribed=subscribed, redeemed=redeemed,
                      asset_return=getattr(args, "return"), tc=args.tc)
    config = SwingConfig(mode=args.mode, threshold=args.threshold,
                         factor=args.factor, product=args.product, penalty=args.gamma)
    result = swing_nav(state, event, config)
    rows = [["nav_gross", _fmt(result.nav_gross)], ["activated", str(result.activated).lower()]]
    if result.nav_swing is not None:
        rows.append(["nav_swing", _fmt(result.nav_swing)])
    if result.nav_ask is not None:
        rows.append(["nav_ask", _fmt(result.nav_ask)])
        rows.append(["nav_bid", _fmt(result.nav_bid)])
    if args.adl:
        fees = adl_fees(subscribed, redeemed, event.tc, args.adl)
        rows.append(["adl_entry", _fmt(fees.entry) if fees.entry is not None else "undefined"])
        rows.append(["adl_exit", _fmt(fees.exit) if fees.exit is not None else "undefined"])
    sys.stdout.write(_csv_text(["field", "value"], rows))
    return EXIT_OK


_REQUEST_FIELDS = ("day", "investor", "rate")


def _load_requests(path) -> list:
    """Gate requests from a CSV with day, investor and rate columns in any
    order; blank lines are skipped and every row has as many fields as the
    header. A cell that is not a number, or a request ``GateRequest``
    rejects, is a DomainError naming the file and line."""
    from .swing import GateRequest

    rows, lines = read_rows(path, "requests")
    header = rows[0] if rows else []
    missing = [f for f in _REQUEST_FIELDS if f not in header]
    if missing:
        raise DomainError(f"requests file {path}: missing columns {missing}")
    check_widths(path, "requests", rows, lines, "header")
    day, investor, rate = (header.index(f) for f in _REQUEST_FIELDS)
    requests = []
    for line, row in zip(lines[1:], rows[1:]):
        cells = dict(day=parse_cell(path, "requests", line, "day", row[day], int),
                     investor=row[investor],
                     rate=parse_cell(path, "requests", line, "rate", row[rate]))
        try:
            requests.append(GateRequest(**cells))
        except DomainError as exc:
            raise DomainError(f"requests file {path}, line {line}: {exc}") from None
    return requests


def cmd_gate(args) -> int:
    from .swing import GatePolicy, gate_schedule

    requests = _load_requests(args.requests)
    fills = gate_schedule(requests, GatePolicy(daily_cap=args.cap))
    header = ["day", "investor", "rate_pct", "fraction_of_request_pct"]
    rows = [[f.day, f.investor, _pct(f.rate, args.raw), _pct(f.fraction_of_request, args.raw)]
            for f in fills]
    _emit(args, header, rows)
    return EXIT_OK


# =============================================================================
# GOLDEN TABLES
# =============================================================================

def _example_portfolio() -> Portfolio:
    from .core import load_portfolio

    data = resources.files("lst") / "data"
    with resources.as_file(data / "example_fund.csv") as p, \
            resources.as_file(data / "example_fund_corr.csv") as c:
        return load_portfolio(p, correlation_path=c)


def golden_tables() -> dict:
    """Recompute every fixture table from the packaged example fund."""
    import numpy as np

    from .buffer import BufferCostParams, BufferMarketParams, optimal_cash_buffer
    from .core import RedemptionPortfolio, RedemptionShock
    from .hqla import HqlaBucket, SpecificRiskParams, ccf_parametric, rcr_hqla
    from .optimizer import CostModel, evaluate_policy
    from .rcr import optimal_pro_rata, pro_rata_portfolio, rcr_report, waterfall_portfolio
    from .reverse import liability_rst
    from .swing import (
        FlowEvent,
        FundState,
        GatePolicy,
        GateRequest,
        SwingConfig,
        SwingMode,
        dynamic_threshold,
        gate_schedule,
        nav_step,
        swing_nav,
    )

    portfolio = _example_portfolio()
    tables: dict = {}

    def rcr_rows(redemption, rate, horizon):
        shock = RedemptionShock.from_rate(portfolio, rate)
        report = rcr_report(portfolio, shock, redemption, horizon=horizon)
        return report, [
            [h, _pct(report.lr[h - 1]), f"{report.amount[h - 1] / 1e6:.3f}",
             _pct(report.rcr[h - 1]), _pct(report.ls[h - 1])]
            for h in range(1, horizon + 1)
        ]

    header = ["h", "lr_pct", "amount_mn", "rcr_pct", "ls_pct"]
    pr_report, rows = rcr_rows(pro_rata_portfolio(portfolio, 0.20), 0.20, 6)
    tables["rcr_prorata"] = (header, rows)

    opt_rows = []
    for tau in range(1, 6):
        phi, q_star = optimal_pro_rata(portfolio, tau)
        opt_rows += [[tau, _pct(phi), *row] for row in rcr_rows(q_star, 0.20, tau)[1]]
    tables["rcr_optimal"] = (["tau", "phi_pct", "h", "lr_pct", "amount_mn", "rcr_pct", "ls_pct"], opt_rows)

    wf_report, rows = rcr_rows(waterfall_portfolio(portfolio), 0.20, 6)
    tables["rcr_waterfall"] = (header, rows)

    schedule = wf_report.schedule
    srows = [[h, *(int(round(v)) for v in day), f"{value / 1e6:.3f}"] for h, (day, value)
             in enumerate(zip(schedule.sold, schedule.amounts(schedule.horizon)), start=1)]
    tables["waterfall_schedule"] = (["h", *portfolio.ids, "cumulative_value_mn"], srows)

    def weight_rows(report, remaining: bool, horizon: int):
        rows = []
        start = 0 if remaining else 1
        for h in range(start, horizon + 1):
            sold = report.schedule.cumulative(h)
            held = portfolio.shares - sold if remaining else sold
            value = held * portfolio.prices
            total = value.sum()
            rows.append([h] + [_pct(v / total) for v in value])
        return rows

    tables["weights_prorata_sold"] = (["h", *portfolio.ids], weight_rows(pr_report, False, 6))
    tables["weights_prorata_remaining"] = (["h", *portfolio.ids], weight_rows(pr_report, True, 6))
    tables["weights_waterfall_sold"] = (["h", *portfolio.ids], weight_rows(wf_report, False, 6))
    tables["weights_waterfall_remaining"] = (["h", *portfolio.ids], weight_rows(wf_report, True, 6))

    alpha = np.array([0.20, 0.30, 0.0, 0.15, 0.0, 0.0, 0.0])
    rrows = []
    for tau in range(1, 6):
        for floor in (0.25, 0.50, 0.75, 1.00):
            res = liability_rst(portfolio, alpha, floor, tau)
            rrows.append([tau, _pct(floor), f"{res.amount / 1e6:.1f}", _pct(res.rate)])
    tables["rst_liability"] = (["tau", "floor_pct", "amount_mn", "rate_pct"], rrows)

    bucket = HqlaBucket("large-cap equities", selling_intensity=0.05,
                        loss_intensity=0.0625, max_drawdown=0.50)
    sf = SpecificRiskParams(tna_threshold=1e9, herfindahl_threshold=0.01,
                            size_coefficient=0.10, concentration_coefficient=0.25, cap=0.80)
    hrows = []
    for herf in (0.01, 0.04):
        for tau in (1, 5, 10, 20, 60):
            for tna_bn in (1, 5, 7, 10):
                ccf = ccf_parametric(bucket, sf, tau, fund_tna=tna_bn * 1e9, fund_herfindahl=herf)
                rcr, _ = rcr_hqla([(1.0, ccf)], 0.40)
                hrows.append([_fmt(herf), tau, tna_bn, f"{rcr:.2f}"])
    tables["hqla_grid"] = (["herfindahl", "tau", "tna_bn", "rcr"], hrows)

    cost_model = CostModel()
    policies = {
        "#1": 0.10 * portfolio.shares,
        "#2": np.array([0, 27000, 22238, 0, 0, 0, 0.0]),
        "#3": np.array([0, 0, 0, 0, 34315, 17500, 1800.0]),
        "#4": np.array([20000, 20000, 10000, 20000, 18044, 0, 0.0]),
        "#5": np.array([29404, 24004, 8016, 20020, 13846, 700, 72.0]),
    }
    mrows = []
    for name, quantities in policies.items():
        ev = evaluate_policy(portfolio, cost_model, RedemptionPortfolio(quantities=quantities), 1)
        mrows.append([name, _bp(ev.tracking_risk), _bp(ev.tc), _bp(ev.tc_spread),
                      _bp(ev.tc_impact), _pct(ev.shortfall)])
    tables["mixing_policies"] = (
        ["portfolio", "tr_bp", "tc_bp", "tc_spread_bp", "tc_impact_bp", "ls_pct"], mrows)

    market = BufferMarketParams(mu_asset=0.0)
    brows = []
    for eta in (0.5, 1.0, 2.0, 3.0):
        params = BufferCostParams(spread=20e-4, cash_cost=1e-4, beta_impact=0.4,
                                  sigma=0.20, x_plus=1.0, eta=eta)
        brows.append([_fmt(eta), _pct(optimal_cash_buffer(market, params))])
    tables["buffer_optimum"] = (["eta", "w_star_pct"], brows)

    state = FundState(nav=100.0, units=10.0)
    full = SwingConfig(mode=SwingMode.FULL)
    dual1 = SwingConfig(mode=SwingMode.DUAL, penalty=1.0)
    dual2 = SwingConfig(mode=SwingMode.DUAL, penalty=2.0)
    sub = FlowEvent(subscribed=5, asset_return=0.05, tc=30)
    red = FlowEvent(redeemed=5, asset_return=0.05, tc=30)
    mixed = FlowEvent(subscribed=10, redeemed=5, asset_return=0.05, tc=30)
    dualr1 = swing_nav(state, mixed, dual1)
    dualr2 = swing_nav(state, mixed, dual2)
    wrows = [
        ["nav_no_flow", _fmt(nav_step(state, FlowEvent(asset_return=0.05)).nav)],
        ["nav_subscription", _fmt(nav_step(state, sub).nav)],
        ["nav_redemption", _fmt(nav_step(state, red).nav)],
        ["swing_subscription", _fmt(swing_nav(state, sub, full).nav_swing)],
        ["swing_redemption", _fmt(swing_nav(state, red, full).nav_swing)],
        ["dual_ask", _fmt(dualr1.nav_ask)],
        ["dual_bid", _fmt(dualr1.nav_bid)],
        ["dual_ask_penalized", _fmt(dualr2.nav_ask)],
        ["dual_bid_penalized", _fmt(dualr2.nav_bid)],
        ["dynamic_threshold_pct", _pct(dynamic_threshold(SwingConfig(mode=SwingMode.DYNAMIC, product=2e-4), 60e-4))],
    ]
    tables["swing_examples"] = (["case", "value"], wrows)

    fills = gate_schedule(
        [GateRequest(day=0, investor="A", rate=0.05), GateRequest(day=1, investor="B", rate=0.02)],
        GatePolicy(daily_cap=0.02),
    )
    grows = [[f.day, f.investor, _pct(f.rate), _pct(f.fraction_of_request)] for f in fills]
    tables["gate_schedule"] = (["day", "investor", "rate_pct", "fraction_of_request_pct"], grows)

    return tables


def _golden_dir():
    return resources.files("lst") / "goldens"


def cmd_goldens(args) -> int:
    if args.write and not args.out_dir:
        raise DomainError("--write needs an --out-dir to put the refreshed tables in")
    tables = golden_tables()
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    for name, (header, rows) in sorted(tables.items()):
        text = _csv_text(header, rows)
        if out_dir:
            (out_dir / f"{name}.csv").write_text(text)
        if args.write:
            continue
        expected_file = _golden_dir() / f"{name}.csv"
        if not expected_file.is_file():
            failures.append((name, "missing expected file"))
            print(f"{name}: MISSING")
            continue
        expected = expected_file.read_text()
        if expected != text:
            failures.append((name, "diff"))
            print(f"{name}: DIFF")
        else:
            print(f"{name}: OK")
    if args.write:
        print(f"wrote {len(tables)} golden tables to {out_dir}")
    return EXIT_INFEASIBLE if failures else EXIT_OK


# =============================================================================
# FLAGS
# =============================================================================

class Flag(NamedTuple):
    """One flag of a subcommand: ``PARSERS[kind]`` turns its text into
    ``args.<dest>`` (see ``_resolve_flags``)."""

    name: str
    kind: str
    default: Optional[str] = None  # text; a switch's is False
    help: Optional[str] = None
    required: bool = False
    choices: Sequence[str] = ()  # of a "choice"
    cap: int = 0  # of a "count"

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


def _scalar(parse, what: str):
    """A parser of ``parse(text)`` whose ValueError names the flag and its text."""
    def run(flag: Flag, text: str):
        try:
            return parse(text)
        except DomainError:
            raise
        except ValueError:
            raise DomainError(f"{flag.name} must be {what}, got {text!r}") from None
    return run


def _whole_number(flag: Flag, text: str) -> int:
    """A whole number from 1 to the flag's cap; int() reads at most 4300 digits."""
    digits = text.lstrip("0")
    if not (text.isascii() and text.isdigit() and len(digits) <= len(str(flag.cap))
            and 1 <= int(digits or "0") <= flag.cap):
        raise DomainError(f"{flag.name} must be a whole number from 1 to {flag.cap}, got {text!r}")
    return int(digits)


def _path(flag: Flag, text: str) -> Optional[str]:
    """A file name the system can take; an empty one is no file."""
    try:
        if b"\0" not in os.fsencode(text):
            return text or None
    except UnicodeEncodeError:  # a lone surrogate, which a JSON string can hold
        pass
    raise DomainError(f"{flag.name} must be a file name with no NUL byte and no lone "
                      f"surrogate, got {text!r}")


#: Flag kind -> parser of the flag's text: ``(flag, text) -> value``. A
#: switch's text is True (given) or False (its default).
PARSERS = {
    "rate": _scalar(parse_rate, "a rate such as 0.2, 20bp or 20%"),
    "number": _scalar(float, "a number"),
    "rates": _scalar(lambda text: list(map(parse_rate, text.split(","))), "a comma list of rates"),
    "numbers": _scalar(lambda text: list(map(float, text.split(","))), "a comma list of numbers"),
    "days": _scalar(parse_days, "a day list such as 5, 1..5 or 1,3,5"),
    "count": _whole_number,
    "path": _path,
    "choice": lambda flag, text: text,
    "switch": lambda flag, given: given,
}

_CONFIG = Flag("--config", "path", help="JSON config file; flags override its keys")
_RAW = Flag("--raw", "switch", False, "full-precision output")
_FUND = [Flag("--portfolio", "path", required=True), Flag("--corr", "path")]
_OUT = Flag("--out", "path")

#: Subcommand -> (its help, its flags after --config in help order).
#: ``cmd_<subcommand>`` runs it.
FLAGS = {
    "rcr": ("redemption coverage ratio table", [
        _RAW, *_FUND,
        Flag("--shock", "rate", "0.20"),
        Flag("--policy", "choice", "prorata", choices=["prorata", "optimal", "waterfall"]),
        Flag("--tau", "count", "5", f"horizon for the optimal policy, 1 to {MAX_DAYS}",
             cap=MAX_DAYS),
        Flag("--horizon", "count", None, f"number of report rows, 1 to {MAX_DAYS}", cap=MAX_DAYS),
        _OUT,
        Flag("--schedule-out", "path"),
    ]),
    "hqla": ("HQLA coverage from bucket weights", [
        Flag("--buckets", "path", None, "bucket JSON file (required)", required=True),
        Flag("--weights", "numbers", None, "comma list, one weight per bucket (required)",
             required=True),
        Flag("--shock", "rate", "0.20"),
        Flag("--tau", "number", "10"),
        Flag("--tna", "number", "0.0", "fund size for the specific-risk factor"),
        Flag("--herfindahl", "number", "0.0"), Flag("--tna-star", "number"),
        Flag("--h-star", "number"),
        Flag("--xi-size", "number", "0.0"), Flag("--xi-conc", "number", "0.0"),
        Flag("--sf-cap", "number", "1.0"),
        Flag("--conservative", "switch", False),
        _OUT,
    ]),
    "rst": ("reverse stress testing scenarios", [
        _RAW, *_FUND,
        Flag("--mode", "choice", "liability", choices=["liability", "asset"]),
        Flag("--alpha", "path", None, "CSV of stressed saleable proportions"),
        Flag("--floor", "rates", "0.25"),
        Flag("--tau", "days", "1..5"),
        Flag("--rate-star", "rate", "0.10"),
        _OUT,
    ]),
    "optimize": ("cost-minimal liquidation under caps", [
        _RAW, *_FUND,
        Flag("--shock", "rate", "0.10"), Flag("--tr-max", "rate", "20bp"),
        Flag("--ls-max", "rate", "0.10"),
        Flag("--h", "count", "1", f"shortfall horizon in days, 1 to {MAX_DAYS}", cap=MAX_DAYS),
        Flag("--impact", "number", "0.4"), Flag("--knee", "rate", "0.05"),
        Flag("--cap", "rate", "0.10"),
        Flag("--regime", "choice", "sqrt_linear", choices=["sqrt", "sqrt_linear"]),
        _OUT,
    ]),
    "buffer": ("optimal cash buffer and cost curves", [
        Flag("--mu-asset", "number", "0.01"), Flag("--mu-cash", "number", "0.0"),
        Flag("--sigma-asset", "number", "0.20"), Flag("--sigma-cash", "number", "0.0"),
        Flag("--rho", "number", "0.0"), Flag("--lambda", "number", "0.0"),
        Flag("--spread", "rate", "20bp"), Flag("--cash-cost", "rate", "1bp"),
        Flag("--impact", "number", "0.4"),
        Flag("--sigma", "number", None, "cost-model volatility; defaults to --sigma-asset"),
        Flag("--xplus", "rate", "1.0"), Flag("--eta", "number", "1.0"),
        Flag("--curve-points", "count", "101",
             f"points on each --out-dir curve, 1 to {MAX_CURVE_POINTS}", cap=MAX_CURVE_POINTS),
        Flag("--out-dir", "path"),
    ]),
    "swing": ("swing pricing for one dealing day", [
        Flag("--nav", "number", "100"), Flag("--units", "number", "10"),
        Flag("--flow", "number", None, "net unit flow (sign carries direction)"),
        Flag("--sub", "number", "0.0", "subscribed units (dual pricing)"),
        Flag("--red", "number", "0.0", "redeemed units (dual pricing)"),
        Flag("--return", "number", "0.0"),
        Flag("--tc", "number", "0.0"),
        Flag("--mode", "choice", "full", choices=("none", "full", "partial", "dual", "dynamic")),
        Flag("--threshold", "rate", "0.0"), Flag("--factor", "rate", "0.0"),
        Flag("--product", "rate", "0.0"), Flag("--gamma", "number", "1.0"),
        Flag("--adl", "choice", choices=["netted", "gross", "pro-rata"]),
    ]),
    "gate": ("FIFO redemption gate schedule", [
        _RAW,
        Flag("--requests", "path", None, "CSV: day,investor,rate (required)", required=True),
        Flag("--cap", "rate", "0.02"),
        _OUT,
    ]),
    "goldens": ("recompute fixture tables and diff them", [
        Flag("--out-dir", "path"),
        Flag("--write", "switch", False, "write tables without diffing (fixture refresh)"),
    ]),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argparse parser of ``FLAGS``. It only collects text: every
    default is None, and ``_resolve_flags`` gives the values.

    Given a ``command``, only that subparser gets its flags. Every subparser
    and its help line still exist, so ``lst --help`` and the top-level usage
    errors read the same, and that command's own help and errors do too."""
    parser = argparse.ArgumentParser(prog="lst", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in FLAGS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=globals()[f"cmd_{name}"])
        if command not in (None, name):
            continue
        for flag in (_CONFIG, *flags):
            if flag.kind == "switch":
                p.add_argument(flag.name, action="store_true", default=None, help=flag.help)
            else:
                p.add_argument(flag.name, dest=flag.dest, choices=flag.choices or None,
                               help=flag.help)
    return parser


def _config_texts(path: str, command: str, flags: Sequence[Flag]) -> dict:
    """The text of each flag the config document at ``path`` gives, by dest.
    A key is a flag's name with dashes or underscores. A value is a JSON
    string or number, read as that text on the command line would be, or
    true or false for a switch; anything else is a ConfigError naming the key."""
    doc = load_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    by_dest = {flag.dest: flag for flag in flags}
    texts = {}
    for key, value in doc.items():
        flag = by_dest.get(key.replace("-", "_"))
        if flag is None:
            raise ConfigError(f"unknown config key {key!r} for lst {command}")
        if flag.kind == "switch" and type(value) is bool:
            texts[flag.dest] = value
        elif flag.kind != "switch" and type(value) in (str, int, float):
            text = value if type(value) is str else repr(value)
            if flag.choices and text not in flag.choices:
                raise ConfigError(f"config key {key!r}: {value!r} is not one of {flag.choices}")
            texts[flag.dest] = text
        else:
            takes = "true or false" if flag.kind == "switch" else "a JSON string or number"
            raise ConfigError(f"config key {key!r} must be {takes}, got {json.dumps(value)}")
    return texts


def _resolve_flags(args: argparse.Namespace) -> None:
    """Give each flag of ``args.command`` its value: its command-line text,
    else its ``--config`` value, else its default text, through its parser."""
    flags = FLAGS[args.command][1]
    config = _path(_CONFIG, args.config or "")
    texts = _config_texts(config, args.command, flags) if config else {}
    for flag in flags:
        text = getattr(args, flag.dest)
        if text is None:
            text = texts.get(flag.dest, flag.default)
        if flag.required and not text:
            noun = "file" if flag.kind == "path" else "value"
            raise DomainError(f"a {flag.name} {noun} is required")
        setattr(args, flag.dest, None if text is None else PARSERS[flag.kind](flag, text))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a first word that is no command (--help, a typo) gets the full parser
    command = argv[0] if argv and argv[0] in FLAGS else None
    args = build_parser(command).parse_args(argv)
    try:
        _resolve_flags(args)
        return args.func(args)
    except DomainError as exc:
        return _error({"error": "validation", "detail": str(exc)}, EXIT_CONFIG)
    except FileNotFoundError as exc:
        return _error({"error": "missing-file", "detail": str(exc)}, EXIT_CONFIG)
    except OSError as exc:  # a directory, no permission, ...
        return _error({"error": "file", "detail": str(exc)}, EXIT_CONFIG)
    except (ConfigError, UnicodeDecodeError) as exc:  # a bad document, a file not UTF-8
        return _error({"error": "config", "detail": str(exc)}, EXIT_CONFIG)
    except Exception as exc:  # a fault of lst, not of the input
        return _error({"error": "internal", "detail": f"{type(exc).__name__}: {exc}"},
                      EXIT_INTERNAL)


def run() -> None:
    """Script entry of ``lst`` and ``python -m lst.cli``: ``main()``, then
    ``os._exit`` with its code, which skips module teardown and the final
    garbage collections (about an eighth of a short run's CPU time).

    The hard exit loses nothing: lst registers no ``atexit`` handler, and
    every file it writes is closed inside ``with`` or ``write_text`` before
    ``main`` returns. stdout and stderr are flushed here; a flush that fails,
    as when the reader closed the pipe, is reported as ``main`` reports a
    write error: one ``"file"`` JSON line and exit 2, with no traceback.
    argparse's ``SystemExit`` (help, usage errors) takes the normal exit.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _error({"error": "file", "detail": str(exc)}, EXIT_CONFIG)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
