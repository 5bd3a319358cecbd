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
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence

from ._checks import DomainError, check_widths, parse_cell, read_rows
from .swing import SwingMode  # the parser's --mode choices

if TYPE_CHECKING:
    import numpy as np

    from .core import Portfolio

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

#: Largest --curve-points of ``lst buffer``: a 1e-4 step on [0, 1].
MAX_CURVE_POINTS = 10_001
#: Largest day count the command line reads: ``illiquid_assets``' default ``max_days``.
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


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """``argv`` parsed again with the keys of the JSON config document as the
    subcommand's defaults: a config value beats a flag's default, loses to a
    flag given on the command line, and must meet the flag's choices."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    sub = parser.subcommands[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, value in cfg.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r} for lst {args.command}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
        defaults[action.dest] = value
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _required(args, flag: str, what: str = "value"):
    """The value of ``flag`` once any ``--config`` is merged; argparse marks
    no flag required, so that a config key can give it."""
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    if value is None or value == "":
        raise DomainError(f"a {flag} {what} is required")
    return value


def _count(args, flag: str, cap: int) -> int:
    """The value of ``flag`` as a whole number from 1 to ``cap``; anything
    else is a DomainError naming the flag."""
    text = str(getattr(args, flag.lstrip("-").replace("-", "_")))
    if not (text.isascii() and text.isdigit() and 1 <= int(text) <= cap):
        raise DomainError(f"{flag} must be a whole number from 1 to {cap}, got {text!r}")
    return int(text)


def _load_portfolio_arg(args) -> Portfolio:
    from .core import load_portfolio

    return load_portfolio(_required(args, "--portfolio", "file"),
                          correlation_path=getattr(args, "corr", None))


# =============================================================================
# SUBCOMMANDS
# =============================================================================

def cmd_rcr(args) -> int:
    from .core import RedemptionShock
    from .rcr import optimal_pro_rata, pro_rata_portfolio, rcr_report, waterfall_portfolio

    tau = _count(args, "--tau", MAX_DAYS)
    horizon = _count(args, "--horizon", MAX_DAYS) if args.horizon else max(tau, 6)
    portfolio = _load_portfolio_arg(args)
    shock_rate = parse_rate(args.shock)
    shock = RedemptionShock.from_rate(portfolio, shock_rate)
    policy = args.policy
    if policy == "prorata":
        redemption = pro_rata_portfolio(portfolio, shock_rate)
    elif policy == "optimal":
        _, redemption = optimal_pro_rata(portfolio, tau)
    elif policy == "waterfall":
        redemption = waterfall_portfolio(portfolio)
    else:
        raise DomainError(f"unknown policy {policy!r}")
    report = rcr_report(portfolio, shock, redemption, horizon=horizon)
    header = ["h", "lr_pct", "amount", "rcr_pct", "ls_pct"]
    rows = [
        [h, _pct(report.lr[h - 1], args.raw), _fmt(report.amount[h - 1]),
         _pct(report.rcr[h - 1], args.raw), _pct(report.ls[h - 1], args.raw)]
        for h in range(1, report.horizon + 1)
    ]
    _emit(args, header, rows)
    if args.schedule_out:
        from .liquidation import build_schedule

        sold = build_schedule(portfolio, redemption).sold  # full unwind, not report-truncated
        cum_value = 0.0
        sched_rows = []
        for h, day in enumerate(sold, start=1):
            cum_value += float(day @ portfolio.prices)
            sched_rows.append([h] + [_fmt(v) for v in day] + [_fmt(cum_value)])
        write_csv(args.schedule_out, ["h", *portfolio.ids, "cumulative_value"], sched_rows)
    return EXIT_OK


def cmd_hqla(args) -> int:
    from .hqla import SpecificRiskParams, ccf_parametric, load_buckets, rcr_hqla

    buckets = load_buckets(_required(args, "--buckets", "file"))
    weights_arg = [float(x) for x in str(_required(args, "--weights")).split(",")]
    if len(weights_arg) != len(buckets):
        raise DomainError("--weights must give one weight per bucket")
    if (args.tna_star is None) != (args.h_star is None):
        raise DomainError("--tna-star and --h-star go together: give both or neither")
    sf = None
    if args.tna_star is not None:
        sf = SpecificRiskParams(
            tna_threshold=float(args.tna_star),
            herfindahl_threshold=float(args.h_star),
            size_coefficient=float(args.xi_size),
            concentration_coefficient=float(args.xi_conc),
            cap=float(args.sf_cap),
        )
    tau = float(args.tau)
    pairs = []
    rows = []
    for weight, bucket in zip(weights_arg, buckets):
        if bucket.ccf_static is not None:
            ccf = bucket.ccf_static
        else:
            ccf = ccf_parametric(
                bucket, sf, tau,
                fund_tna=float(args.tna or 0.0),
                fund_herfindahl=float(args.herfindahl or 0.0),
                conservative=bool(args.conservative),
            )
        pairs.append((weight, ccf))
        rows.append([bucket.name, _fmt(weight), _fmt(ccf)])
    rcr, ls = rcr_hqla(pairs, parse_rate(args.shock))
    rows.append(["rcr", "", _fmt(rcr)])
    rows.append(["ls", "", _fmt(ls)])
    header = ["bucket", "weight", "value"]
    _emit(args, header, rows)
    return EXIT_OK


def _load_alpha(path, ids) -> np.ndarray:
    """Stressed saleable proportions, one per security in ``ids``: one value
    per line, or an id,value CSV.

    The value is the last field of each non-blank row; only the first row may
    be a header. Every value is parsed before the ids are matched, so a
    non-number is reported first. Rows that carry an id (two or more
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
    values = [parse_cell(path, "alpha", line, "value", row[-1]) for line, row in zip(lines[start:], rows)]
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
    from .reverse import AssetRstNoSolution, asset_rst, liability_rst

    portfolio = _load_portfolio_arg(args)
    taus = parse_days(args.tau)
    floors = [parse_rate(x) for x in str(args.floor).split(",")]
    if args.mode == "liability":
        alpha = _load_alpha(_required(args, "--alpha", "file"), portfolio.ids)
        header = ["tau", "floor_pct", "amount", "rate_pct", "feasible"]
        rows = []
        for tau in taus:
            for floor in floors:
                res = liability_rst(portfolio, alpha, floor, tau)
                rows.append([tau, _pct(floor, args.raw), _fmt(res.amount),
                             _pct(res.rate, args.raw), str(res.feasible).lower()])
    else:
        header = ["tau", "floor_pct", "volume_multiplier"]
        rows = []
        for tau in taus:
            for floor in floors:
                res = asset_rst(portfolio, parse_rate(args.rate_star), floor, tau)
                if isinstance(res, AssetRstNoSolution):
                    rows.append([tau, _pct(floor, args.raw), f"no-solution:{res.reason.name}"])
                else:
                    rows.append([tau, _pct(floor, args.raw), _fmt(res)])
    _emit(args, header, rows)
    if args.mode == "asset" and any(str(r[-1]).startswith("no-solution") for r in rows):
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_optimize(args) -> int:
    from .core import RedemptionShock
    from .optimizer import CostModel, InfeasiblePolicy, optimize_policy

    horizon = _count(args, "--h", MAX_DAYS)
    portfolio = _load_portfolio_arg(args)
    shock = RedemptionShock.from_rate(portfolio, parse_rate(args.shock))
    cost_model = CostModel(
        beta_impact=float(args.impact),
        knee=parse_rate(args.knee),
        participation_cap=parse_rate(args.cap),
        regime=args.regime,
    )
    result = optimize_policy(
        portfolio, cost_model, shock,
        tr_max=parse_rate(args.tr_max),
        ls_max=parse_rate(args.ls_max),
        horizon=horizon,
    )
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

    market = BufferMarketParams(
        mu_asset=float(args.mu_asset),
        mu_cash=float(args.mu_cash),
        sigma_asset=float(args.sigma_asset),
        sigma_cash=float(args.sigma_cash),
        rho=float(args.rho),
        te_aversion=float(getattr(args, "lambda")),
    )
    params = BufferCostParams(
        spread=parse_rate(args.spread),
        cash_cost=parse_rate(args.cash_cost),
        beta_impact=float(args.impact),
        sigma=float(args.sigma if args.sigma is not None else args.sigma_asset),
        x_plus=parse_rate(args.xplus),
        eta=float(args.eta),
    )
    curve_points = _count(args, "--curve-points", MAX_CURVE_POINTS)
    # solved before --out-dir is made, so that an error leaves no directory
    w_star = optimal_cash_buffer(market, params)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    print(f"w_star,{_fmt(w_star)}")
    if args.out_dir:
        grid = np.linspace(0.0, 1.0, curve_points)
        write_csv(
            out / "nbc_curve.csv", ["w", "nbc"],
            [[_fmt(w), _fmt(v)] for w, v in zip(grid, net_buffer_cost(market, params, grid))],
        )
        write_csv(
            out / "break_even_curve.csv", ["w", "premium"],
            [[_fmt(w), _fmt(break_even_premium(market, params, float(w)))] for w in grid],
        )
    return EXIT_OK


def cmd_swing(args) -> int:
    from .swing import AdlRule, FlowEvent, FundState, SwingConfig, adl_fees, swing_nav

    state = FundState(nav=float(args.nav), units=float(args.units))
    subscribed = float(args.sub or 0.0)
    redeemed = float(args.red or 0.0)
    if args.flow is not None:
        net = float(args.flow)
        subscribed, redeemed = (net, 0.0) if net >= 0 else (0.0, -net)
    event = FlowEvent(subscribed=subscribed, redeemed=redeemed,
                      asset_return=float(args.asset_return), tc=float(args.tc))
    config = SwingConfig(
        mode=SwingMode(args.mode),
        threshold=parse_rate(args.threshold),
        factor=parse_rate(args.factor),
        product=parse_rate(args.product),
        penalty=float(args.gamma),
    )
    result = swing_nav(state, event, config)
    rows = [["nav_gross", _fmt(result.nav_gross)], ["activated", str(result.activated).lower()]]
    if result.nav_swing is not None:
        rows.append(["nav_swing", _fmt(result.nav_swing)])
    if result.nav_ask is not None:
        rows.append(["nav_ask", _fmt(result.nav_ask)])
        rows.append(["nav_bid", _fmt(result.nav_bid)])
    if args.adl:
        fees = adl_fees(subscribed, redeemed, event.tc, AdlRule(args.adl))
        rows.append(["adl_entry", _fmt(fees.entry) if fees.entry is not None else "undefined"])
        rows.append(["adl_exit", _fmt(fees.exit) if fees.exit is not None else "undefined"])
    sys.stdout.write(_csv_text(["field", "value"], rows))
    return EXIT_OK


_REQUEST_FIELDS = ("day", "investor", "rate")


def _load_requests(path) -> list:
    """Gate requests from a CSV with day, investor and rate columns in any
    order; blank lines are skipped and every row has as many fields as the
    header."""
    from .swing import GateRequest

    rows, lines = read_rows(path, "requests")
    header = rows[0] if rows else []
    missing = [f for f in _REQUEST_FIELDS if f not in header]
    if missing:
        raise DomainError(f"requests file {path}: missing columns {missing}")
    check_widths(path, "requests", rows, lines, "header")
    day, investor, rate = (header.index(f) for f in _REQUEST_FIELDS)
    return [GateRequest(day=parse_cell(path, "requests", line, "day", row[day], int),
                        investor=row[investor],
                        rate=parse_cell(path, "requests", line, "rate", row[rate]))
            for line, row in zip(lines[1:], rows[1:])]


def cmd_gate(args) -> int:
    from .swing import GatePolicy, gate_schedule

    requests = _load_requests(_required(args, "--requests", "file"))
    fills = gate_schedule(requests, GatePolicy(daily_cap=parse_rate(args.cap)))
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
        shock = RedemptionShock.from_rate(portfolio, 0.20)
        report = rcr_report(portfolio, shock, q_star, horizon=tau)
        for h in range(1, tau + 1):
            opt_rows.append([tau, _pct(phi), h, _pct(report.lr[h - 1]),
                             f"{report.amount[h - 1] / 1e6:.3f}",
                             _pct(report.rcr[h - 1]), _pct(report.ls[h - 1])])
    tables["rcr_optimal"] = (["tau", "phi_pct", "h", "lr_pct", "amount_mn", "rcr_pct", "ls_pct"], opt_rows)

    wf_report, rows = rcr_rows(waterfall_portfolio(portfolio), 0.20, 6)
    tables["rcr_waterfall"] = (header, rows)

    cum = 0.0
    srows = []
    for h, day in enumerate(wf_report.schedule.sold, start=1):
        cum += float(day @ portfolio.prices)
        srows.append([h] + [int(round(v)) for v in day] + [f"{cum / 1e6:.3f}"])
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
    tables = golden_tables()
    if args.write and not args.out_dir:
        raise DomainError("--write needs an --out-dir to put the refreshed tables in")
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
        return EXIT_OK
    if failures:
        return EXIT_INFEASIBLE
    return EXIT_OK


# =============================================================================
# PARSER
# =============================================================================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> subparser, for _apply_config

    def add_common(p, raw=False):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        if raw:
            p.add_argument("--raw", action="store_true", help="full-precision output")

    p = sub.add_parser("rcr", help="redemption coverage ratio table")
    add_common(p, raw=True)
    p.add_argument("--portfolio")
    p.add_argument("--corr")
    p.add_argument("--shock", default="0.20")
    p.add_argument("--policy", choices=["prorata", "optimal", "waterfall"], default="prorata")
    p.add_argument("--tau", default="5", help=f"horizon for the optimal policy, 1 to {MAX_DAYS}")
    p.add_argument("--horizon", help=f"number of report rows, 1 to {MAX_DAYS}")
    p.add_argument("--out")
    p.add_argument("--schedule-out", dest="schedule_out")
    p.set_defaults(func=cmd_rcr)

    p = sub.add_parser("hqla", help="HQLA coverage from bucket weights")
    add_common(p)
    p.add_argument("--buckets", help="bucket JSON file (required)")
    p.add_argument("--weights", help="comma list, one weight per bucket (required)")
    p.add_argument("--shock", default="0.20")
    p.add_argument("--tau", default="10")
    p.add_argument("--tna", help="fund size for the specific-risk factor")
    p.add_argument("--herfindahl")
    p.add_argument("--tna-star", dest="tna_star")
    p.add_argument("--h-star", dest="h_star")
    p.add_argument("--xi-size", dest="xi_size", default="0.0")
    p.add_argument("--xi-conc", dest="xi_conc", default="0.0")
    p.add_argument("--sf-cap", dest="sf_cap", default="1.0")
    p.add_argument("--conservative", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_hqla)

    p = sub.add_parser("rst", help="reverse stress testing scenarios")
    add_common(p, raw=True)
    p.add_argument("--portfolio")
    p.add_argument("--corr")
    p.add_argument("--mode", choices=["liability", "asset"], default="liability")
    p.add_argument("--alpha", help="CSV of stressed saleable proportions")
    p.add_argument("--floor", default="0.25")
    p.add_argument("--tau", default="1..5")
    p.add_argument("--rate-star", dest="rate_star", default="0.10")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rst)

    p = sub.add_parser("optimize", help="cost-minimal liquidation under caps")
    add_common(p, raw=True)
    p.add_argument("--portfolio")
    p.add_argument("--corr")
    p.add_argument("--shock", default="0.10")
    p.add_argument("--tr-max", dest="tr_max", default="20bp")
    p.add_argument("--ls-max", dest="ls_max", default="0.10")
    p.add_argument("--h", default="1", help=f"shortfall horizon in days, 1 to {MAX_DAYS}")
    p.add_argument("--impact", default="0.4")
    p.add_argument("--knee", default="0.05")
    p.add_argument("--cap", default="0.10")
    p.add_argument("--regime", choices=["sqrt", "sqrt_linear"], default="sqrt_linear")
    p.add_argument("--out")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("buffer", help="optimal cash buffer and cost curves")
    add_common(p)
    p.add_argument("--mu-asset", dest="mu_asset", default="0.01")
    p.add_argument("--mu-cash", dest="mu_cash", default="0.0")
    p.add_argument("--sigma-asset", dest="sigma_asset", default="0.20")
    p.add_argument("--sigma-cash", dest="sigma_cash", default="0.0")
    p.add_argument("--rho", default="0.0")
    p.add_argument("--lambda", default="0.0")
    p.add_argument("--spread", default="20bp")
    p.add_argument("--cash-cost", dest="cash_cost", default="1bp")
    p.add_argument("--impact", default="0.4")
    p.add_argument("--sigma", help="cost-model volatility; defaults to --sigma-asset")
    p.add_argument("--xplus", default="1.0")
    p.add_argument("--eta", default="1.0")
    p.add_argument("--curve-points", dest="curve_points", default="101",
                   help=f"points on each --out-dir curve, 1 to {MAX_CURVE_POINTS}")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_buffer)

    p = sub.add_parser("swing", help="swing pricing for one dealing day")
    add_common(p)
    p.add_argument("--nav", default="100")
    p.add_argument("--units", default="10")
    p.add_argument("--flow", help="net unit flow (sign carries direction)")
    p.add_argument("--sub", help="subscribed units (dual pricing)")
    p.add_argument("--red", help="redeemed units (dual pricing)")
    p.add_argument("--return", dest="asset_return", default="0.0")
    p.add_argument("--tc", default="0.0")
    p.add_argument("--mode", choices=[m.value for m in SwingMode], default="full")
    p.add_argument("--threshold", default="0.0")
    p.add_argument("--factor", default="0.0")
    p.add_argument("--product", default="0.0")
    p.add_argument("--gamma", default="1.0")
    p.add_argument("--adl", choices=["netted", "gross", "pro-rata"])
    p.set_defaults(func=cmd_swing)

    p = sub.add_parser("gate", help="FIFO redemption gate schedule")
    add_common(p, raw=True)
    p.add_argument("--requests", help="CSV: day,investor,rate (required)")
    p.add_argument("--cap", default="0.02")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("goldens", help="recompute fixture tables and diff them")
    add_common(p)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--write", action="store_true",
                   help="write tables without diffing (fixture refresh)")
    p.set_defaults(func=cmd_goldens)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _apply_config(parser, args, argv)
        return args.func(args)
    except DomainError as exc:
        return _error({"error": "validation", "detail": str(exc)}, EXIT_CONFIG)
    except FileNotFoundError as exc:
        return _error({"error": "missing-file", "detail": str(exc)}, EXIT_CONFIG)
    except OSError as exc:  # a directory, no permission, ...
        return _error({"error": "file", "detail": str(exc)}, EXIT_CONFIG)
    except (KeyError, ValueError) as exc:  # json.JSONDecodeError included
        return _error({"error": "config", "detail": str(exc)}, EXIT_CONFIG)
    except Exception as exc:  # a fault of lst, not of the input
        return _error({"error": "internal", "detail": f"{type(exc).__name__}: {exc}"},
                      EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
