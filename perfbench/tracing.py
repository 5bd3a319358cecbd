"""Per-layer tracing for the benchmark's traced runs, applied from outside lst.

``Tracer.install`` replaces every public function of every imported ``lst``
module with a wrapper and rebinds the wrapper in each ``lst`` namespace that
held the original (``build_schedule`` is bound in liquidation, rcr, reverse,
optimizer and cli). A wrapper records a span: name, start, end, parent span
and task id. Spans stay in memory; self time is the span's duration minus
that of its direct children. Hot scalar functions and Portfolio's column
properties get count-only wrappers. scipy's ``quad`` and SLSQP runs are
counted where lst calls them.

``PER_LAYER`` names every per-layer metric, its unit and direction, and which
end-to-end metric it should move on which workload.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LST_MODULES = ("core", "liquidation", "rcr", "hqla", "reverse", "optimizer",
               "specialfuncs", "buffer", "swing", "cli")

#: Called about a million times per approximation-error scan: count only.
COUNT_ONLY = frozenset({"buffer.tc_asset_sqrt", "buffer.tc_asset_derivative", "buffer.tc_cash"})

COLUMN_PROPERTIES = ("ids", "shares", "prices", "daily_limits", "daily_volumes",
                     "volatilities", "spreads")

CLI_SUBCOMMANDS = ("rcr", "rst", "hqla", "optimize", "buffer", "swing", "gate", "goldens")

_SR, _BS, _CD = "stress-report", "buffer-sizing", "cli-daily"
# buffer-sizing and policy-optimize run by hand only (see run.py); on the
# benchmark's workloads buffer and specialfuncs are reached through
# cli-daily's buffer calls, one of them under a trading limit, and the
# optimizer through its optimize and goldens calls
_PO = "cli-daily p50/tasks_per_s via optimize and goldens; policy-optimize"
_BQ = "cli-daily p90/tasks_per_s via buffer under a limit; buffer-sizing"

#: (metric, unit, better, what it should move). Sums are over the traced
#: pass's fixed task list.
PER_LAYER = [
    ("core.load_portfolio.calls", "count", "lower", f"{_SR} p50/p90, policy-optimize p50"),
    ("core.load_portfolio.self_ms", "ms", "lower", f"{_SR} p50/p90, policy-optimize p50"),
    ("core.column_reads", "count", "lower", f"{_SR} p50/p90, policy-optimize p50"),
    ("liquidation.build_schedule.calls", "count", "lower", f"{_SR} p90/tasks_per_s, policy-optimize p50"),
    ("liquidation.build_schedule.self_ms", "ms", "lower", f"{_SR} p90/tasks_per_s, policy-optimize p50"),
    ("liquidation.schedule_days", "count", "lower", f"{_SR} p90/peak_rss_mb"),
    ("liquidation.schedule_bytes", "bytes", "lower", f"{_SR} peak_rss_mb"),
    ("liquidation.illiquid_assets.self_ms", "ms", "lower", f"{_SR} p90"),
    ("liquidation.daily_liquidation_profile.self_ms", "ms", "lower", f"{_SR} p90"),
    ("liquidation.liquidation_time.self_ms", "ms", "lower", f"{_SR} p90"),
    ("rcr.rcr_report.calls", "count", "lower", f"{_SR} p50/p90"),
    ("rcr.rcr_report.self_ms", "ms", "lower", f"{_SR} p50/p90"),
    ("rcr.time_to_liquidity.self_ms", "ms", "lower", f"{_SR} p50/p90"),
    ("rcr.optimal_pro_rata.self_ms", "ms", "lower", f"{_SR} p50/p90"),
    ("rcr.max_admissible_shock.self_ms", "ms", "lower", f"{_SR} p50/p90"),
    ("reverse.liability_rst.self_ms", "ms", "lower", f"{_SR} p50/p90"),
    ("reverse.asset_rst.calls", "count", "lower", f"{_SR} p50/p90"),
    ("reverse.asset_rst.self_ms", "ms", "lower", f"{_SR} p50/p90"),
    ("reverse.stressed_rcr.calls", "count", "lower", f"{_SR} p50/p90"),
    ("reverse.asset_rst.evals_per_root", "ratio", "lower", f"{_SR} p50/p90"),
    ("hqla.ccf_parametric.calls", "count", "lower", f"{_SR}: no change predicted"),
    ("hqla.ccf_parametric.self_ms", "ms", "lower", f"{_SR}: no change predicted"),
    ("hqla.rcr_hqla.self_ms", "ms", "lower", f"{_SR}: no change predicted"),
    ("optimizer.optimize_policy.calls", "count", "lower", f"{_PO} p50/p90/tasks_per_s"),
    ("optimizer.optimize_policy.self_ms", "ms", "lower", f"{_PO} p50/p90/tasks_per_s"),
    ("optimizer.transaction_cost.calls", "count", "lower", f"{_PO} p50/p90/tasks_per_s"),
    ("optimizer.transaction_cost.self_ms", "ms", "lower", f"{_PO} p50/p90/tasks_per_s"),
    ("optimizer.tracking_risk_equity.calls", "count", "lower", f"{_PO} p50/p90/tasks_per_s"),
    ("optimizer.tracking_risk_equity.self_ms", "ms", "lower", f"{_PO} p50/p90/tasks_per_s"),
    ("optimizer.evaluate_policy.self_ms", "ms", "lower", f"{_PO} p50/p90/tasks_per_s"),
    ("optimizer.slsqp.runs", "count", "lower", f"{_PO} p50/p90/tasks_per_s"),
    ("optimizer.slsqp.nfev", "count", "lower", f"{_PO} p50/p90/tasks_per_s"),
    ("optimizer.slsqp.nit", "count", "lower", f"{_PO} p50/p90/tasks_per_s"),
    ("optimizer.slsqp.success_frac", "ratio", "higher", f"{_PO} p50/p90/tasks_per_s"),
    ("specialfuncs.hyp2f1_family.calls", "count", "lower", f"{_BQ} p50"),
    ("specialfuncs.hyp2f1_family.self_ms", "ms", "lower", f"{_BQ} p50"),
    ("specialfuncs.integral_i_ab.calls", "count", "lower", f"{_BQ} p50"),
    ("specialfuncs.integral_i_ab.self_ms", "ms", "lower", f"{_BQ} p50"),
    ("specialfuncs.integral_i_w.calls", "count", "lower", f"{_BQ} p50"),
    ("specialfuncs.quad.calls", "count", "lower", f"{_BQ} p50"),
    ("buffer.optimal_cash_buffer.self_ms", "ms", "lower", f"{_BQ} p90/tasks_per_s"),
    ("buffer.net_buffer_cost.calls", "count", "lower", f"{_BQ} p90/tasks_per_s"),
    ("buffer.expected_lg_exact.calls", "count", "lower", f"{_BQ} p90/tasks_per_s"),
    ("buffer.expected_lg_exact.self_ms", "ms", "lower", f"{_BQ} p90/tasks_per_s"),
    ("buffer.expected_lg_quadrature.calls", "count", "lower", f"{_BQ} p90/tasks_per_s"),
    ("buffer.expected_lg_quadrature.self_ms", "ms", "lower", f"{_BQ} p90/tasks_per_s"),
    ("buffer.quad.calls", "count", "lower", f"{_BQ} p90/tasks_per_s"),
    ("buffer.tc_asset_sqrt.calls", "count", "lower", f"{_BQ} p90/tasks_per_s"),
    ("buffer.break_even_premium.self_ms", "ms", "lower", f"{_BQ} p90/tasks_per_s"),
    ("buffer.simulate_lg.self_ms", "ms", "lower", f"{_BS} p50"),
    ("buffer.max_approximation_error.self_ms", "ms", "lower", f"{_BS} p90/tasks_per_s"),
    ("swing.gate_schedule.calls", "count", "lower", f"{_CD} p50/tasks_per_s"),
    ("swing.gate_schedule.self_ms", "ms", "lower", f"{_CD} p50/tasks_per_s"),
    ("swing.gate_fills", "count", "lower", f"{_CD} p50/tasks_per_s"),
    ("swing.swing_nav.self_ms", "ms", "lower", f"{_CD} p50/tasks_per_s"),
    *[(f"cli.{sub}.wall_ms", "ms", "lower", f"{_CD} p50/p90") for sub in CLI_SUBCOMMANDS],
    ("cli.main.self_ms", "ms", "lower", f"{_CD} p50"),
    ("import.lst_ms", "ms", "lower", "setup_s on every workload, cli-daily p50"),
    ("import.scipy_ms", "ms", "lower", "setup_s on every workload, cli-daily p50"),
    ("trace.overhead_frac", "ratio", "lower", "traced over untraced time on the same tasks, minus one"),
]


class Tracer:
    """Spans and counters for one process; ``install`` starts recording."""

    def __init__(self) -> None:
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.tasks: list = []
        self.stack: list = []
        self.counts = defaultdict(float)
        self.task_id = -1
        self.enabled = True

    # ------------------------------------------------------------------ wrappers
    def _span(self, name, fn, hook=None):
        names, starts, ends, parents, tasks, stack = (
            self.names, self.starts, self.ends, self.parents, self.tasks, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            tasks.append(self.task_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(out)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self) -> dict:
        counts = self.counts

        def schedule(out):
            counts["liquidation.schedule_days"] += out.horizon
            sold = vars(out).get("sold")  # stored matrix only, never a lazy rebuild
            counts["liquidation.schedule_bytes"] += getattr(sold, "nbytes", 0)

        def asset_rst(out):
            counts["reverse.asset_rst.roots"] += isinstance(out, float)

        def gate(out):
            counts["swing.gate_fills"] += len(out)

        return {"liquidation.build_schedule": schedule, "reverse.asset_rst": asset_rst,
                "swing.gate_schedule": gate}

    # ------------------------------------------------------------------ install
    def install(self) -> None:
        """Wrap every public lst function in every lst namespace, and count scipy calls."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lst" or name.startswith("lst."))]
        hooks = self._hooks()
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            if short not in LST_MODULES:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in COUNT_ONLY:
                    wrapped[id(obj)] = (obj, self._counter(name + ".calls", obj))
                else:
                    wrapped[id(obj)] = (obj, self._span(name, obj, hooks.get(name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
        core = sys.modules.get("lst.core")
        if core is not None:
            for prop in COLUMN_PROPERTIES:
                getter = getattr(core.Portfolio, prop).fget
                setattr(core.Portfolio, prop, property(self._counter("core.column_reads", getter)))
        self._patch_scipy()

    def _patch_scipy(self) -> None:
        """Count quad calls by the lst layer whose span is innermost, and SLSQP outcomes."""
        import scipy.integrate
        import scipy.optimize

        counts, names, stack = self.counts, self.names, self.stack
        quad, minimize = scipy.integrate.quad, scipy.optimize.minimize

        @functools.wraps(quad)
        def counted_quad(*args, **kwargs):
            if self.enabled and stack:
                counts[names[stack[-1]].split(".", 1)[0] + ".quad.calls"] += 1
            return quad(*args, **kwargs)

        @functools.wraps(minimize)
        def counted_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            if self.enabled and str(kwargs.get("method", "")).upper() == "SLSQP":
                counts["optimizer.slsqp.runs"] += 1
                counts["optimizer.slsqp.nfev"] += int(res.nfev)
                counts["optimizer.slsqp.nit"] += int(res.nit)
                counts["optimizer.slsqp.successes"] += bool(res.success)
            return res

        scipy.integrate.quad = counted_quad
        scipy.optimize.minimize = counted_minimize

    # ------------------------------------------------------------------ results
    def raw(self) -> dict:
        """Summable totals: calls and self ms per span name, plus the counters."""
        out = defaultdict(float, self.counts)
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        for i in range(n):
            name = self.names[i]
            out[name + ".calls"] += 1
            out[name + ".self_ms"] += 1e3 * (self.ends[i] - self.starts[i] - child[i])
            if name == "reverse.stressed_rcr":
                p = self.parents[i]
                if p >= 0 and self.names[p] == "reverse.asset_rst":
                    out["reverse.stressed_rcr.in_asset_rst"] += 1
        return dict(out)

    def spans(self) -> dict:
        return dict(names=self.names, start=self.starts, end=self.ends,
                    parent=self.parents, task=self.tasks)


def merge(raws) -> dict:
    total = defaultdict(float)
    for raw in raws:
        for k, v in raw.items():
            total[k] += v
    return dict(total)


def per_layer_metrics(raw: dict, extras: dict) -> dict:
    """Every PER_LAYER metric from merged raw totals plus run-level extras."""
    derived = dict(raw)
    roots = raw.get("reverse.asset_rst.roots", 0.0)
    derived["reverse.asset_rst.evals_per_root"] = (
        raw.get("reverse.stressed_rcr.in_asset_rst", 0.0) / roots if roots else 0.0)
    runs = raw.get("optimizer.slsqp.runs", 0.0)
    derived["optimizer.slsqp.success_frac"] = (
        raw.get("optimizer.slsqp.successes", 0.0) / runs if runs else 0.0)
    derived.update(extras)
    return {name: {"value": float(derived.get(name, 0.0)), "unit": unit}
            for name, unit, _, _ in PER_LAYER}


def write_spans(path, tracers_spans: list) -> None:
    with open(path, "w") as fh:
        json.dump(tracers_spans, fh, separators=(",", ":"))
