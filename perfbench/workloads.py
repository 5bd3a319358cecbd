"""The four benchmark workloads: task blocks, the timed task, and its check.

Each workload object gives:

* ``block(rng)``: the next block of tasks (a fixed mix, seeded values and order);
* ``run(task)``: the timed part, calls into lst only;
* ``check(task, out)``: raises ``oracles.CheckFailed`` when an output is wrong;
  typed outcomes the oracle predicts (``AssetRstNoSolution``,
  ``InfeasiblePolicy``, ``UNREACHABLE``, a non-zero CLI exit code recorded in
  the reference) pass;
* ``corrupt(out)``: a wrong copy of an output, used by the self-check;
* ``warmup()``: one call of each lst function the workload uses, on the
  packaged example inputs.

lst functions are always looked up on the ``lst`` package at call time, so
the traced run's rebinding reaches them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import lst
import gen
import oracles as orc
from oracles import close, require

HERE = Path(__file__).resolve().parent


def packaged(data: Path, name: str) -> str:
    return str(data / name)


def golden_rows(data: Path, name: str) -> list:
    with open(data.parent / "goldens" / f"{name}.csv", newline="") as fh:
        return list(csv.reader(fh))[1:]


# =============================================================================
# stress-report
# =============================================================================

class StressReport:
    """Measurement-side report for one fund: RCR tables, RSTs, profiles, HQLA."""

    round_blocks = gen.STRESS_POOL_BLOCKS  # every fund of the pool once
    trace_blocks = 2

    def __init__(self, manifest: dict):
        self.m = manifest
        self.data = Path(manifest["data"])
        self.funds = manifest["funds"]
        self.arrays = [orc.read_fund(f["path"]) for f in self.funds]
        self.alphas = [np.load(f["alpha"]) for f in self.funds]
        with open(packaged(self.data, "example_buckets.json")) as fh:
            self.bucket_specs = json.load(fh)
        self.cursor = {"small": 0, "large": 0}

    def _next(self, kind):
        pool = self.m[kind]
        i = pool[self.cursor[kind] % len(pool)]
        self.cursor[kind] += 1
        return i

    def block(self, rng):
        ids = [self._next("small") for _ in range(self.m["block_small"])] + [self._next("large")]
        return [dict(fund=ids[k]) for k in rng.permutation(len(ids))]

    def run(self, task, fund=None, alpha=None):
        f = self.funds[task["fund"]] if fund is None else fund
        alpha = self.alphas[task["fund"]] if alpha is None else alpha
        p = lst.load_portfolio(f["path"])
        horizon = lst.MAX_DAYS_DEFAULT
        shock = lst.RedemptionShock.from_rate(p, gen.STRESS_SHOCK)
        out = {}
        out["prorata"] = lst.rcr_report(p, shock, lst.pro_rata_portfolio(p, gen.STRESS_SHOCK), horizon)
        phi, q_star = lst.optimal_pro_rata(p, gen.STRESS_TAU)
        out["phi"] = phi
        # a zero-limit name makes the optimal slice empty: no table to build
        out["optimal"] = lst.rcr_report(p, shock, q_star, horizon) if phi > 0 else None
        out["waterfall"] = lst.rcr_report(p, shock, lst.waterfall_portfolio(p), horizon)
        out["ttl"] = [lst.time_to_liquidity(out["prorata"], x) for x in gen.TTL_THRESHOLDS]
        out["lt"] = [lst.liquidation_time(out["waterfall"].schedule, x) for x in gen.LT_THRESHOLDS]
        out["liability"] = [lst.liability_rst(p, alpha, floor, tau)
                            for tau in range(1, 6) for floor in gen.LIABILITY_FLOORS]
        out["asset"] = [lst.asset_rst(p, gen.ASSET_RATE, floor, tau)
                        for tau in range(1, 6) for floor in gen.ASSET_FLOORS]
        out["illiquid"] = lst.illiquid_assets(p, f["w_star"])
        out["profile"] = lst.daily_liquidation_profile(p)
        out["admissible"] = [(lst.max_admissible_shock(p, tau, "optimal"),
                              lst.max_admissible_shock(p, tau, "waterfall"))
                             for tau in gen.ADMISSIBLE_TAUS]
        buckets = lst.load_buckets(packaged(self.data, "example_buckets.json"))
        sr = lst.SpecificRiskParams(**gen.HQLA_SPECIFIC_RISK)
        fund_tna, herf = lst.tna(p), lst.herfindahl(p)
        pairs = []
        for weight, bucket in zip(f["hqla_weights"], buckets):
            c = bucket.ccf_static if bucket.ccf_static is not None else lst.ccf_parametric(
                bucket, sr, gen.HQLA_TAU, fund_tna=fund_tna, fund_herfindahl=herf)
            pairs.append((weight, c))
        out["hqla_ccf"] = [c for _, c in pairs]
        out["hqla"] = lst.rcr_hqla(pairs, gen.STRESS_SHOCK)
        return out

    def check(self, task, out):
        a, alpha, f = self.arrays[task["fund"]], self.alphas[task["fund"]], self.funds[task["fund"]]
        s, p, cap = a["shares"], a["price"], a["daily_limit"]
        total = float(s @ p)
        amount = total * gen.STRESS_SHOCK
        days = np.arange(1, lst.MAX_DAYS_DEFAULT + 1)

        def report(rep, q, name):
            cum = orc.greedy_cum(q, cap, p, days)
            value = float(q @ p)
            scale = total * 1e-12
            close(rep.amount, cum, f"{name} amounts", atol=scale)
            close(rep.lr, cum / value, f"{name} LR", atol=1e-12)
            close(rep.rcr, cum / amount, f"{name} RCR", atol=1e-12)
            close(rep.ls, gen.STRESS_SHOCK * np.maximum(0.0, 1.0 - cum / amount), f"{name} LS", atol=1e-12)
            return cum

        cum_pr = report(out["prorata"], gen.STRESS_SHOCK * s, "pro-rata")
        phi = float(np.minimum(gen.STRESS_TAU * cap / s, 1.0).min())
        close(out["phi"], phi, "optimal pro-rata phi", atol=1e-15)
        if phi > 0:
            report(out["optimal"], phi * s, "optimal pro-rata")
        else:
            require(out["optimal"] is None, "optimal table built from an empty slice")
        cum_wf = report(out["waterfall"], s, "waterfall")
        for x, got in zip(gen.TTL_THRESHOLDS, out["ttl"]):
            orc.check_first_day(got, cum_pr / amount, x, lst.UNREACHABLE, f"time_to_liquidity({x})")
        sched = out["waterfall"].schedule
        require(sched.horizon <= lst.MAX_DAYS_DEFAULT, "schedule longer than its horizon")
        for x, got in zip(gen.LT_THRESHOLDS, out["lt"]):
            series = cum_wf[:max(sched.horizon, 1)] / total
            orc.check_first_day(got, series, x, lst.UNREACHABLE, f"liquidation_time({x})")
        k = 0
        for tau in range(1, 6):
            for floor in gen.LIABILITY_FLOORS:
                res = out["liability"][k]
                k += 1
                want = float(orc.greedy_cum(alpha * s, cap, p, [tau])[0]) / floor
                close(res.amount, want, f"liability RST tau={tau} floor={floor}", atol=total * 1e-12)
                close(res.rate, want / total, "liability RST rate", atol=1e-12)
                if abs(want / total - 1.0) > orc.BAND:
                    require(res.feasible == (want / total <= 1.0), "liability RST feasibility")
        q = gen.ASSET_RATE * s
        target_scale = gen.ASSET_RATE * total
        k = 0
        for tau in range(1, 6):
            for floor in gen.ASSET_FLOORS:
                res = out["asset"][k]
                k += 1
                top = float(orc.greedy_cum(q, tau * cap, p, [1])[0]) / target_scale
                bottom = float(orc.greedy_cum(q, tau * 1e-6 * cap, p, [1])[0]) / target_scale
                what = f"asset RST tau={tau} floor={floor}"
                if isinstance(res, lst.AssetRstNoSolution):
                    reason = lst.AssetRstFailure
                    if res.reason is reason.ALREADY_BELOW_FLOOR:
                        require(top <= floor * (1 + orc.BAND), what + ": not below floor")
                    else:
                        require(bottom >= floor * (1 - orc.BAND), what + ": floor reachable")
                    continue
                require(top > floor * (1 - orc.BAND) and bottom < floor * (1 + orc.BAND),
                        what + ": root where none exists")
                root = orc.asset_root(q, cap, p, tau, floor * target_scale)
                require(abs(res - root) <= 2e-6, f"{what}: root {res} vs {root}")
        # profiles and illiquid assets, in weight units
        w = s * p / total
        psi = cap * p / total
        liquid = psi > 0
        tau_days = s[liquid] / cap[liquid]
        horizon = int(min(lst.MAX_DAYS_DEFAULT, math.ceil(tau_days.max()))) if tau_days.size else 0
        profile, residual = out["profile"]
        close(residual, w[~liquid].sum(), "profile residual", atol=1e-15)
        cum_w = orc.greedy_cum(w, psi, np.ones_like(w), np.arange(0, horizon + 1))
        close(profile, np.diff(cum_w), "daily liquidation profile", atol=1e-12)
        h_star, unsold = out["illiquid"]

        def daily(h):
            c = orc.greedy_cum(w, psi, np.ones_like(w), [h - 1, h])
            return c[1] - c[0]

        w_star = f["w_star"]
        require(daily(h_star) <= w_star * (1 + orc.BAND) + 1e-15, "illiquid day above threshold")
        require(h_star == 1 or daily(h_star - 1) > w_star * (1 - orc.BAND), "illiquid day not the first")
        close(unsold, 1.0 - orc.greedy_cum(w, psi, np.ones_like(w), [h_star - 1])[0],
              "illiquid fraction", atol=1e-12)
        for tau, (opt, wf) in zip(gen.ADMISSIBLE_TAUS, out["admissible"]):
            close(opt, float(np.minimum(tau * cap / s, 1.0).min()), "max admissible (optimal)", atol=1e-15)
            close(wf, orc.greedy_cum(s, cap, p, [tau])[0] / total, "max admissible (waterfall)", atol=1e-12)
        herf = float(w @ w)
        want = [orc.ccf(b, gen.HQLA_TAU, total, herf, gen.HQLA_SPECIFIC_RISK) for b in self.bucket_specs]
        close(out["hqla_ccf"], want, "HQLA CCFs", atol=1e-15)
        rcr = sum(x * c for x, c in zip(f["hqla_weights"], want)) / gen.STRESS_SHOCK
        close(out["hqla"], (rcr, gen.STRESS_SHOCK * max(0.0, 1.0 - rcr)), "HQLA RCR", atol=1e-12)

    def corrupt(self, out):
        bad = dict(out)
        bad["hqla"] = (out["hqla"][0] * 1.01, out["hqla"][1])
        return bad

    def warmup(self):
        example = packaged(self.data, "example_fund.csv")
        fund = dict(path=example, w_star=1e-3, hqla_weights=[0.6, 0.3, 0.1])
        alpha = np.array([0.20, 0.30, 0.0, 0.15, 0.0, 0.0, 0.0])
        self.run(None, fund=fund, alpha=alpha)


# =============================================================================
# buffer-sizing
# =============================================================================

class BufferSizing:
    """What ``lst buffer --out-dir`` computes, plus the Monte-Carlo cross-check."""

    round_blocks = 1
    trace_blocks = 1

    def __init__(self, manifest: dict):
        self.m = manifest
        self.data = Path(manifest["data"])
        self.golden = {float(eta): w for eta, w in golden_rows(self.data, "buffer_optimum")}
        self.sim_n = 20_000 if manifest["tiny"] else 1_000_000
        self.approx_grid = dict(n_w=5, n_grid=21) if manifest["tiny"] else gen.BUFFER_APPROX_GRID

    def block(self, rng):
        block = gen.buffer_block(rng)
        if self.m["tiny"]:
            for t in block:
                if t["kind"] == "limit":
                    t["cost"] = dict(t["cost"], x_plus=0.9)
        return block

    @staticmethod
    def params(task):
        market = lst.BufferMarketParams(**task["market"])
        cost = lst.BufferCostParams(**task["cost"])
        return market, cost

    def run(self, task):
        market, cost = self.params(task)
        out = {}
        w_star = lst.optimal_cash_buffer(market, cost)
        grid = np.linspace(0.0, 1.0, gen.BUFFER_CURVE_POINTS)
        out["w_star"] = w_star
        out["nbc"] = [lst.net_buffer_cost(market, cost, float(w)) for w in grid]
        out["break_even"] = [lst.break_even_premium(market, cost, float(w)) for w in grid]
        out["nbc_star"] = lst.net_buffer_cost(market, cost, w_star)
        out["sim"] = lst.simulate_lg(cost, w_star, n=self.sim_n)
        out["quad"] = lst.expected_lg_quadrature(cost, w_star)
        out["max_error"] = (lst.max_approximation_error(cost, **self.approx_grid)
                            if not cost.unlimited else None)
        return out

    def check(self, task, out):
        require(0.0 <= out["w_star"] <= 1.0, "optimum outside [0, 1]")
        require(len(out["nbc"]) == gen.BUFFER_CURVE_POINTS and np.all(np.isfinite(out["nbc"])),
                "net-cost curve")
        require(len(out["break_even"]) == gen.BUFFER_CURVE_POINTS
                and np.all(np.isfinite(out["break_even"])), "break-even curve")
        require(out["nbc_star"] <= min(out["nbc"]) + 1e-13, "optimum worse than a curve point")
        if task["kind"] == "golden":
            want = self.golden[float(task["cost"]["eta"])]
            require(f"{100 * out['w_star']:.2f}" == want, f"buffer optimum vs golden {want}")
        mean, se = out["sim"]
        if abs(mean - out["quad"]) > 4 * se:
            # one independent draw may land beyond 4 standard errors by chance
            _, cost = self.params(task)
            mean, se = lst.simulate_lg(cost, out["w_star"], n=self.sim_n, seed=20211002)
            require(abs(mean - out["quad"]) <= 4 * se, "simulate_lg beyond 4 standard errors")
        if out["max_error"] is not None:
            want = orc.max_approximation_error(task["cost"], **self.approx_grid)
            close(out["max_error"], want, "max approximation error", atol=1e-15)

    def corrupt(self, out):
        return dict(out, nbc_star=out["nbc_star"] + 1e-6)

    def warmup(self):
        golden = dict(kind="golden", market=dict(mu_asset=0.0), cost=dict(gen.BUFFER_GOLDEN, eta=1.0))
        self.run(golden)
        _, limited = self.params(dict(market=dict(mu_asset=0.0), cost=dict(gen.BUFFER_GOLDEN, x_plus=0.5)))
        lst.expected_lg_exact(limited, 0.5)
        lst.max_approximation_error(limited, n_w=3, n_grid=11)


# =============================================================================
# policy-optimize
# =============================================================================

MIXING_POLICIES = {
    "#1": None,  # 10% pro-rata slice
    "#2": [0, 27000, 22238, 0, 0, 0, 0.0],
    "#3": [0, 0, 0, 0, 34315, 17500, 1800.0],
    "#4": [20000, 20000, 10000, 20000, 18044, 0, 0.0],
    "#5": [29404, 24004, 8016, 20020, 13846, 700, 72.0],
}


class PolicyOptimize:
    """optimize_policy on the packaged fund or an n=30 one-factor fund, plus the mixing table."""

    round_blocks = 2
    trace_blocks = 2

    def __init__(self, manifest: dict):
        self.m = manifest
        self.data = Path(manifest["data"])
        example = dict(path=packaged(self.data, "example_fund.csv"),
                       corr=packaged(self.data, "example_fund_corr.csv"))
        self.files = [example] + manifest["pool"]
        self.arrays = [orc.read_fund(f["path"]) for f in self.files]
        self.rho = [np.loadtxt(f["corr"], delimiter=",", ndmin=2) for f in self.files]
        self.mixing = golden_rows(self.data, "mixing_policies")

    def block(self, rng):
        tasks = gen.policy_block(rng)
        for t in tasks:
            a = self.arrays[t["fund"]]
            if t["kind"] == "p7-infeasible":
                t["ls_max"] = t["ls_slack"]
            else:
                budget = t["rate"] * float(a["shares"] @ a["price"])
                t["ls_max"] = min(orc.shortfall(a, t["rate"] * a["shares"], t["horizon"], budget)
                                  + t["ls_slack"], 0.99)
        return [tasks[i] for i in rng.permutation(len(tasks))]

    def run(self, task):
        f = self.files[task["fund"]]
        p = lst.load_portfolio(f["path"], correlation_path=f["corr"])
        cm = lst.CostModel()
        result = lst.optimize_policy(p, cm, lst.RedemptionShock.from_rate(p, task["rate"]),
                                     task["tr_max"], task["ls_max"], task["horizon"])
        example = lst.load_portfolio(self.files[0]["path"], correlation_path=self.files[0]["corr"])
        mixing = []
        for q in MIXING_POLICIES.values():
            q = 0.10 * example.shares if q is None else np.array(q)
            mixing.append(lst.evaluate_policy(example, cm, lst.RedemptionPortfolio(quantities=q), 1))
        return dict(result=result, mixing=mixing)

    def check(self, task, out):
        a, rho = self.arrays[task["fund"]], self.rho[task["fund"]]
        total = float(a["shares"] @ a["price"])
        budget = task["rate"] * total
        h = task["horizon"]
        fast = orc.fastest_fill(a, h, budget)
        infeasible = fast is None or orc.shortfall(a, fast, h, budget) > task["ls_max"] + 1e-9
        res = out["result"]
        if infeasible:
            require(isinstance(res, lst.InfeasiblePolicy) and res.binding_constraint in ("shortfall", "budget"),
                    "infeasible policy not reported as such")
        else:
            require(isinstance(res, lst.OptimalPolicy), f"feasible task returned {res!r}")
            q = np.asarray(res.redemption.quantities)
            require(np.all(q >= 0) and np.all(q <= a["shares"] * (1 + 1e-12)), "quantities out of bounds")
            require(abs(float(q @ a["price"]) - budget) <= 1e-6 * budget, "value differs from the shock")
            tr = orc.tracking_risk(a, rho, q)
            require(tr <= task["tr_max"] + 1e-9, "tracking risk above its cap")
            require(orc.shortfall(a, q, h, budget) <= task["ls_max"] + 1e-9, "shortfall above its cap")
            tc = orc.transaction_cost(a, q)
            ev = res.evaluation
            close(ev.tracking_risk, tr, "tracking risk", rtol=1e-7, atol=1e-12)
            close(ev.tc, tc, "transaction cost", rtol=1e-7, atol=1e-12)
            close(ev.shortfall, max(orc.shortfall(a, q, h, float(q @ a["price"])), 0.0),
                  "evaluated shortfall", rtol=1e-7, atol=1e-12)
            pro_rata = task["rate"] * a["shares"]
            require(tc <= orc.transaction_cost(a, pro_rata) * (1 + 1e-9), "costlier than pro-rata")
        for (name, *golden), ev in zip(self.mixing, out["mixing"]):
            got = [f"{1e4 * ev.tracking_risk:.1f}", f"{1e4 * ev.tc:.1f}", f"{1e4 * ev.tc_spread:.1f}",
                   f"{1e4 * ev.tc_impact:.1f}", f"{100 * ev.shortfall:.2f}"]
            require(got == golden, f"mixing policy {name}: {got} vs {golden}")

    def corrupt(self, out):
        return dict(out, mixing=list(reversed(out["mixing"])))

    def warmup(self):
        self.run(dict(fund=0, rate=0.10, tr_max=20e-4, ls_max=0.10, horizon=1))


# =============================================================================
# cli-daily
# =============================================================================

def input_digests(work: Path) -> dict:
    """SHA-256 of the generated CSV inputs the CLI catalogue points at."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(work.iterdir()) if f.suffix == ".csv"}


def hash_outputs(stdout: bytes, out_dir) -> dict:
    files = {}
    if out_dir is not None and Path(out_dir).is_dir():
        for f in sorted(Path(out_dir).iterdir()):
            files[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    return dict(stdout=hashlib.sha256(stdout).hexdigest(), files=files)


class CliDaily:
    """One lst subcommand per task, each in a fresh interpreter, timed spawn to exit."""

    round_blocks = 1
    trace_blocks = 1

    def __init__(self, manifest: dict, root: Path, work: Path):
        self.m = manifest
        self.root, self.work = root, work
        self.catalogue = manifest["catalogue"]
        self.expected = json.loads((HERE / "expected_cli.json").read_text())
        if input_digests(work) != self.expected["inputs"]:
            raise RuntimeError("CLI inputs differ from those the reference was recorded with")
        self.env = gen.program_env(root, os.environ)
        self.traced = False  # the worker's traced pass switches this on
        self.raws = []
        self.counter = 0

    def block(self, rng):
        return [dict(entry=i) for i in gen.cli_cycle(rng, self.catalogue)]

    def run(self, task):
        entry = self.catalogue[task["entry"]]
        self.counter += 1
        out_dir = self.work / f"out_{self.counter}" if entry["out_dir"] else None
        raw_path = self.work / f"raw_{self.counter}.json"
        if self.traced:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(raw_path), "--"]
        else:
            cmd = [sys.executable, "-m", "lst.cli"]
        cmd += entry["argv"] + (["--out-dir", str(out_dir)] if out_dir is not None else [])
        with open(self.work / "cli_stderr.txt", "wb") as err:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env,
                                  cwd=self.root, timeout=120)
        if self.traced and raw_path.exists():
            self.raws.append(json.loads(raw_path.read_text()))
        return dict(code=proc.returncode, **hash_outputs(proc.stdout, out_dir), kind=entry["kind"])

    def check(self, task, out):
        key = self.catalogue[task["entry"]]["key"]
        want = self.expected["outputs"][key]
        require(out["code"] == want["code"], f"{key}: exit code {out['code']} vs {want['code']}")
        require(out["stdout"] == want["stdout"], f"{key}: stdout differs from the reference")
        require(out["files"] == want["files"], f"{key}: output files differ from the reference")

    def corrupt(self, out):
        return dict(out, stdout="0" * 64)

    def warmup(self):
        import contextlib
        import lst.cli

        data = Path(self.m["data"])
        fund, corr = packaged(data, "example_fund.csv"), packaged(data, "example_fund_corr.csv")
        calls = [
            ["rcr", "--portfolio", fund], ["rst", "--portfolio", fund, "--mode", "asset"],
            ["hqla", "--buckets", packaged(data, "example_buckets.json"), "--weights", "0.6,0.3,0.1"],
            ["optimize", "--portfolio", fund, "--corr", corr], ["buffer", "--mu-asset", "0"],
            ["swing", "--flow", "-2", "--tc", "30"], ["gate", "--requests", packaged(data, "example_gates.csv")],
            ["goldens"],
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in calls:
                lst.cli.main(argv)


def make(manifest: dict, root: Path, work: Path):
    name = manifest["workload"]
    if name == "stress-report":
        return StressReport(manifest)
    if name == "buffer-sizing":
        return BufferSizing(manifest)
    if name == "policy-optimize":
        return PolicyOptimize(manifest)
    if name == "cli-daily":
        return CliDaily(manifest, root, work)
    raise ValueError(f"unknown workload {name!r}")
