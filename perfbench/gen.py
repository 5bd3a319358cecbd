"""Seeded input generators for the lst benchmark.

Everything a workload feeds to lst is made here from the run's seed and
written as plain files (portfolio CSVs, correlation CSVs, JSON manifests).
lst itself only ever sees those files and the values in the manifest.

The task mix inside each block is fixed (stratified) and the seed draws the
values and the order, so two seeds give the same mix of fast and slow tasks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.special import ndtri

FUND_HEADER = "id,shares,price,daily_limit,daily_volume,volatility,spread\n"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
BLAS_THREADS = "1"

#: Participation cap of the default cost model; daily limits sit exactly on it.
PARTICIPATION = 0.10

# stress-report: one block is STRESS_BLOCK_SMALL funds of SMALL_N plus one of LARGE_N
SMALL_N, LARGE_N = 1_000, 10_000
STRESS_BLOCK_SMALL = 3
STRESS_POOL_BLOCKS = 3
STUCK_NAMES = 3  # zero-limit names in every other fund
STRESS_UNIVERSE_SEED = 20211005
STRESS_SHOCK = 0.20
STRESS_TAU = 5
LIABILITY_FLOORS = (0.25, 0.50, 0.75, 1.00)
ASSET_FLOORS = (0.15, 0.30)
ASSET_RATE = 0.10
TTL_THRESHOLDS = (0.5, 0.9, 1.0)
LT_THRESHOLDS = (0.5, 1.0)
ADMISSIBLE_TAUS = (1, 5, 20)
HQLA_TAU = 10.0
HQLA_SPECIFIC_RISK = dict(tna_threshold=1e9, herfindahl_threshold=0.01,
                          size_coefficient=0.10, concentration_coefficient=0.25, cap=0.80)

# buffer-sizing: one block is every golden eta, BUFFER_RANDOM_UNLIMITED
# random-eta sets without a limit (values stratified within the block) and
# the BUFFER_LIMITED sets of a fixed pool under a trading limit, in seeded
# order. The golden sets are the cheapest and the limit sets the dearest, so
# p50 falls in the middle of the random no-limit sets and p90 on the cheaper
# limit set. The limit sets come from a fixed seed, like the CLI inputs: one
# costs 1 to 2.5 s, so a run holds only a few, and limit sets drawn per run
# gave p90 an interquartile range of 18% of its median over five seeds.
BUFFER_GOLDEN = dict(spread=20e-4, cash_cost=1e-4, beta_impact=0.4, sigma=0.20, x_plus=1.0)
BUFFER_GOLDEN_ETAS = (0.5, 1.0, 2.0, 3.0)
BUFFER_RANDOM_UNLIMITED = 12
BUFFER_LIMITED = 2
BUFFER_LIMIT_SEED = 20211004
BUFFER_CURVE_POINTS = 101
# Below x_plus = 0.5 one limit task costs 2 to 6 s by quadrature; this range
# keeps it near 2 s so that a 30 s run repeats each several times. The
# approximation-error grid is cut from 201 x 2001 for the same reason.
BUFFER_XPLUS_RANGE = (0.5, 0.95)
BUFFER_ETA_RANGE = (0.5, 3.0)
BUFFER_APPROX_GRID = dict(n_w=41, n_grid=401)

# policy-optimize: one block is POLICY_BLOCK, with horizons fixed by position
# and rates stratified within the block; the n30 slots share one fund and one
# horizon, so the slow mode that p90 falls in is a single cluster
POLICY_BLOCK = ("p7", "p7", "p7", "p7", "p7", "p7-infeasible", "n30", "n30")
POLICY_HORIZONS = (1, 2, 3, 1, 2, 1, 2, 2)
POLICY_N = 30
POLICY_POOL = 1
POLICY_RATE_RANGE = (0.03, 0.20)
POLICY_INFEASIBLE_RATE_RANGE = (0.15, 0.20)
POLICY_UNIVERSE_SEED = 20211003

# cli-daily catalogue seed: the CLI inputs are fixed so their stdout can be
# compared byte for byte with the recorded reference
CLI_CATALOGUE_SEED = 20211001


def program_env(root: Path, base: dict) -> dict:
    """Environment every lst process of the benchmark runs in.

    BLAS threads are pinned: the optimizer's answer changes in the sixth
    digit between one and two BLAS threads, which would break the CLI
    reference.
    """
    env = dict(base, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def _f(x) -> str:
    return repr(float(x))


def write_fund(path: Path, arrays: dict) -> None:
    """Write a portfolio CSV in lst's format with round-trip float text."""
    n = len(arrays["shares"])
    lines = [FUND_HEADER]
    cols = ("shares", "price", "daily_limit", "daily_volume", "volatility", "spread")
    for i in range(n):
        lines.append(f"S{i:05d}," + ",".join(_f(arrays[c][i]) for c in cols) + "\n")
    path.write_text("".join(lines))


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms on (0, 1), one per equal-width stratum, in random order,
    so the spread of values varies little between seeds."""
    return (rng.permutation(n) + rng.uniform(0.01, 0.99, n)) / n


def stratified_lognormal(rng: np.random.Generator, n: int, median: float, sigma: float) -> np.ndarray:
    return median * np.exp(sigma * ndtri(stratified(rng, n)))


def stratified_uniform(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return lo + (hi - lo) * stratified(rng, n)


def synthetic_fund(rng: np.random.Generator, n: int, stuck: int, max_days: float = 600.0) -> dict:
    """A fund with a heavy-tailed days-to-liquidate distribution.

    Days to liquidate are log-normal (median 12, a few percent beyond one
    trading year, capped at ``max_days``); ``stuck`` names get a zero daily
    limit so they can never be sold. Every column is drawn by stratified
    sampling, so funds of one size differ in which name has which value
    far more than in the spread of values, and so in cost to process.
    """
    price = np.round(stratified_lognormal(rng, n, 80.0, 0.6), 2) + 0.01
    volume = np.round(stratified_lognormal(rng, n, 2e5, 1.0)) + 1000.0
    limit = PARTICIPATION * volume
    days = np.clip(stratified_lognormal(rng, n, 12.0, 1.6), 0.2, max_days)
    shares = np.maximum(np.round(limit * days), 1.0)
    if stuck:
        limit[rng.choice(n, stuck, replace=False)] = 0.0
    return dict(
        shares=shares, price=price, daily_limit=limit, daily_volume=volume,
        volatility=np.round(stratified_uniform(rng, n, 0.10, 0.50), 4),
        spread=np.round(stratified_uniform(rng, n, 2e-4, 3e-3), 6),
    )


def one_factor_correlation(rng: np.random.Generator, n: int) -> np.ndarray:
    """rho_ij = b_i b_j off the diagonal, 1 on it (positive definite)."""
    beta = np.round(stratified_uniform(rng, n, 0.3, 0.9), 4)
    rho = np.outer(beta, beta)
    np.fill_diagonal(rho, 1.0)
    return rho


def write_matrix(path: Path, m: np.ndarray) -> None:
    path.write_text("".join(",".join(_f(x) for x in row) + "\n" for row in m))


# =============================================================================
# WORKLOAD MANIFESTS
# =============================================================================

def stress_report(rng: np.random.Generator, work: Path, tiny: bool) -> dict:
    """Fund pool (small and large, half with stuck names) and per-fund scenario values.

    Like a risk team's fund list, the funds come from a fixed seed and the
    run's seed draws the scenario values (liability shares, illiquidity
    threshold, HQLA weights) and the order: a 10^3 fund's report cost varies
    by up to 50% with its positions, and funds drawn per run moved p50 by
    about 10% between seeds, as much as the host's own noise.
    """
    small_n, large_n = (60, 200) if tiny else (SMALL_N, LARGE_N)
    universe = np.random.default_rng(STRESS_UNIVERSE_SEED)
    funds = []
    for b in range(STRESS_POOL_BLOCKS):
        sizes = [small_n] * STRESS_BLOCK_SMALL + [large_n]
        for j, n in enumerate(sizes):
            stuck = STUCK_NAMES if (j + b) % 2 == 0 else 0
            arrays = synthetic_fund(universe, n, stuck)
            path = work / f"fund_{b}_{j}.csv"
            write_fund(path, arrays)
            alpha = np.round(rng.uniform(0.0, 0.3, n), 4)
            np.save(work / f"alpha_{b}_{j}.npy", alpha)
            funds.append(dict(
                path=str(path), alpha=str(work / f"alpha_{b}_{j}.npy"), n=n, large=n == large_n,
                w_star=float(rng.choice([5e-4, 1e-3, 2e-3])),
                hqla_weights=[float(x) for x in np.round(rng.dirichlet([6.0, 3.0, 1.0]), 6)],
            ))
        # weights must sum to one exactly for rcr_hqla
        for f in funds[-len(sizes):]:
            w = f["hqla_weights"]
            w[-1] = 1.0 - w[0] - w[1]
    small = [i for i, f in enumerate(funds) if not f["large"]]
    large = [i for i, f in enumerate(funds) if f["large"]]
    return dict(funds=funds, small=small, large=large, block_small=STRESS_BLOCK_SMALL)


def buffer_limit_pool() -> list:
    """The fixed trading-limit parameter sets, x_plus and eta stratified."""
    rng = np.random.default_rng(BUFFER_LIMIT_SEED)
    limits, etas = stratified(rng, BUFFER_LIMITED), stratified(rng, BUFFER_LIMITED)
    return [dict(kind="limit", market=_buffer_market(rng),
                 cost=_buffer_cost(rng, _scale(limits[k], BUFFER_XPLUS_RANGE),
                                   _scale(etas[k], BUFFER_ETA_RANGE)))
            for k in range(BUFFER_LIMITED)]


def buffer_block(rng: np.random.Generator) -> list:
    """One block of buffer tasks in seeded order (see the layout constants)."""
    block = [dict(kind="golden", market=dict(mu_asset=0.0), cost=dict(BUFFER_GOLDEN, eta=eta))
             for eta in BUFFER_GOLDEN_ETAS]
    etas = stratified(rng, BUFFER_RANDOM_UNLIMITED)
    for k in range(BUFFER_RANDOM_UNLIMITED):
        block.append(dict(kind="unlimited", market=_buffer_market(rng),
                          cost=_buffer_cost(rng, 1.0, _scale(etas[k], BUFFER_ETA_RANGE))))
    block += buffer_limit_pool()
    return [block[i] for i in rng.permutation(len(block))]


def _scale(u: float, bounds: tuple) -> float:
    lo, hi = bounds
    return round(float(lo + (hi - lo) * u), 6)


def _buffer_market(rng) -> dict:
    return dict(mu_asset=round(float(rng.uniform(0.0, 2e-4)), 7),
                te_aversion=round(float(rng.uniform(0.0, 0.05)), 4),
                sigma_asset=round(float(rng.uniform(0.10, 0.30)), 3))


def _buffer_cost(rng, x_plus: float, eta: float) -> dict:
    return dict(spread=round(float(rng.uniform(5e-4, 40e-4)), 6),
                cash_cost=round(float(rng.uniform(0.0, 1e-4)), 6),
                beta_impact=round(float(rng.uniform(0.2, 0.8)), 3),
                sigma=round(float(rng.uniform(0.10, 0.40)), 3),
                x_plus=x_plus, eta=eta)


def policy_optimize(work: Path, tiny: bool) -> dict:
    """The n=30 fund universe: one-factor funds, fully liquid within the schedule horizon.

    Like a risk team's fund list it does not change from day to day, so it
    comes from a fixed seed; the run's seed draws the scenarios. The
    optimizer's cost varies more between funds than between scenarios, and
    a per-seed universe made the run-to-run spread twice the host's own.
    """
    rng = np.random.default_rng(POLICY_UNIVERSE_SEED)
    pool = []
    for k in range(POLICY_POOL):
        n = 10 if tiny else POLICY_N
        arrays = synthetic_fund(rng, n, 0, max_days=100.0)
        # keep every name within the one-year schedule and modestly sized
        arrays["shares"] = np.maximum(np.round(arrays["daily_limit"] * np.clip(
            stratified_lognormal(rng, n, 8.0, 0.7), 0.5, 100.0)), 1.0)
        rho = one_factor_correlation(rng, n)
        path, corr = work / f"pfund_{k}.csv", work / f"pcorr_{k}.csv"
        write_fund(path, arrays)
        write_matrix(corr, rho)
        pool.append(dict(path=str(path), corr=str(corr)))
    return dict(pool=pool)


def policy_block(rng: np.random.Generator) -> list:
    """Scenario values for one block; the workload turns each slack into a shortfall cap.

    Rates, tracking caps and slacks are stratified within the block and
    horizons and funds are fixed by position, because all of them drive the
    optimizer's cost.
    """
    n = len(POLICY_BLOCK)
    rates, tr_caps, slacks = stratified(rng, n), stratified(rng, n), stratified(rng, n)
    tasks = []
    for k, kind in enumerate(POLICY_BLOCK):
        # above the packaged fund's one-day capacity at h=1 no cap can be met
        bounds = POLICY_INFEASIBLE_RATE_RANGE if kind == "p7-infeasible" else POLICY_RATE_RANGE
        tasks.append(dict(kind=kind, rate=_scale(rates[k], bounds), horizon=POLICY_HORIZONS[k],
                          fund=0 if kind.startswith("p7") else 1,
                          tr_max=_scale(tr_caps[k], (5e-4, 40e-4)),
                          ls_slack=_scale(slacks[k], (0.01, 0.10))))
    return tasks


# =============================================================================
# CLI CATALOGUE
# =============================================================================

def cli_catalogue(work: Path, data: Path) -> list:
    """Every CLI invocation cli-daily may run, with its generated input files.

    The inputs come from a fixed seed so that the stdout of each entry can be
    checked against the reference recorded from the seed commit; the run's
    own seed chooses the order and the variants.
    """
    rng = np.random.default_rng(CLI_CATALOGUE_SEED)
    fund, corr = str(data / "example_fund.csv"), str(data / "example_fund_corr.csv")
    buckets = str(data / "example_buckets.json")
    alphas = []
    for k, alpha in enumerate(([0.20, 0.30, 0.0, 0.15, 0.0, 0.0, 0.0],
                               list(np.round(rng.uniform(0.0, 0.4, 7), 3)))):
        p = work / f"alpha_{k}.csv"
        p.write_text("".join(f"A{i + 1},{_f(a)}\n" for i, a in enumerate(alpha)))
        alphas.append(str(p))
    gates = []
    for k in range(2):
        p = work / f"gates_{k}.csv"
        n_req = 400
        gaps = np.where(rng.random(n_req) < 0.1, rng.integers(2_000, 20_000, n_req),
                        rng.integers(0, 3, n_req))
        days = np.cumsum(gaps)
        rates = np.round(rng.uniform(0.001, 0.06, n_req), 4)
        p.write_text("day,investor,rate\n" + "".join(
            f"{int(d)},I{i:03d},{_f(r)}\n" for i, (d, r) in enumerate(zip(days, rates))))
        gates.append(str(p))

    cat = []

    def add(kind, key, argv, out_dir=False):
        cat.append(dict(kind=kind, key=key, argv=argv, out_dir=out_dir))

    for shock in ("0.05", "0.10", "0.20", "0.30"):
        add("rcr", f"rcr-prorata-{shock}", ["rcr", "--portfolio", fund, "--shock", shock,
                                            "--policy", "prorata", "--horizon", "20"])
    for tau in ("1", "3", "5"):
        add("rcr", f"rcr-optimal-{tau}", ["rcr", "--portfolio", fund, "--policy", "optimal", "--tau", tau])
    for shock in ("0.10", "0.20", "0.30"):
        add("rcr", f"rcr-waterfall-{shock}", ["rcr", "--portfolio", fund, "--shock", shock,
                                              "--policy", "waterfall", "--horizon", "30"])
    for k, alpha in enumerate(alphas):
        add("rst", f"rst-liability-{k}", ["rst", "--portfolio", fund, "--mode", "liability",
                                          "--alpha", alpha, "--floor", "0.25,0.5,0.75,1.0",
                                          "--tau", "1..5"])
    for rate in ("0.05", "0.10", "0.20"):
        add("rst", f"rst-asset-{rate}", ["rst", "--portfolio", fund, "--mode", "asset",
                                         "--rate-star", rate, "--floor", "0.5,0.9", "--tau", "1..5"])
    for weights in ("0.6,0.3,0.1", "0.5,0.3,0.2", "0.8,0.1,0.1"):
        for tau in ("5", "20"):
            add("hqla", f"hqla-{weights}-{tau}", [
                "hqla", "--buckets", buckets, "--weights", weights, "--shock", "0.40",
                "--tau", tau, "--tna", "5e9", "--herfindahl", "0.02", "--tna-star", "1e9",
                "--h-star", "0.01", "--xi-size", "0.10", "--xi-conc", "0.25", "--sf-cap", "0.80"])
    for shock, tr, ls, h in (("0.10", "20bp", "0.10", "1"), ("0.05", "10bp", "0.30", "2"),
                             ("0.15", "30bp", "0.40", "3"), ("0.20", "20bp", "0.01", "1")):
        add("optimize", f"optimize-{shock}-{tr}-{ls}-{h}", [
            "optimize", "--portfolio", fund, "--corr", corr, "--shock", shock,
            "--tr-max", tr, "--ls-max", ls, "--h", h])
    for eta in ("0.5", "1", "2", "3"):
        for mu in ("0", "0.0001"):
            add("buffer", f"buffer-{eta}-{mu}", ["buffer", "--mu-asset", mu, "--eta", eta,
                                                 "--sigma-asset", "0.20", "--xplus", "1.0"], out_dir=True)
    # the trading-limit path (quadrature), one fixed call so that a round's
    # dearest task does not depend on the seed
    add("buffer", "bufferlimit-0.9", ["buffer", "--mu-asset", "0", "--eta", "2", "--sigma-asset", "0.20",
                                      "--xplus", "0.9"], out_dir=True)
    for flow, mode in (("-2", "full"), ("3", "full"), ("-1", "partial"), ("-4", "dynamic")):
        add("swing", f"swing-{flow}-{mode}", ["swing", "--flow", flow, "--mode", mode, "--tc", "30",
                                              "--return", "0.05", "--threshold", "0.05",
                                              "--factor", "0.01", "--product", "2e-4",
                                              "--adl", "netted"])
    add("swing", "swing-dual", ["swing", "--sub", "10", "--red", "5", "--mode", "dual",
                                "--tc", "30", "--return", "0.05", "--gamma", "2"])
    for k, g in enumerate(gates):
        for cap in ("0.02", "0.05"):
            add("gate", f"gate-{k}-{cap}", ["gate", "--requests", g, "--cap", cap])
    add("goldens", "goldens", ["goldens"])
    return cat


#: Kinds cli-daily rotates through; rcr appears once per policy. The buffer
#: call under a trading limit, at least twice as dear as any other, appears
#: twice, so that p90 falls between two runs of it and not on the edge
#: between it and a seeded variant of another kind.
CLI_ROTATION = ("rcr-prorata", "rcr-optimal", "rcr-waterfall", "rst-liability", "rst-asset",
                "hqla", "optimize", "buffer", "bufferlimit", "bufferlimit", "swing", "gate",
                "goldens")


def cli_cycle(rng: np.random.Generator, catalogue: list) -> list:
    """One rotation: every kind once, in seeded order, each with a seeded variant."""
    by_kind = {}
    for i, entry in enumerate(catalogue):
        kind = entry["key"].split("-")[0]
        sub = kind + "-" + entry["key"].split("-")[1] if kind in ("rcr", "rst") else kind
        by_kind.setdefault(sub, []).append(i)
    cycle = []
    for k in rng.permutation(len(CLI_ROTATION)):
        options = by_kind[CLI_ROTATION[k]]
        cycle.append(options[int(rng.integers(0, len(options)))])
    return cycle


def make(workload: str, seed: int, work: Path, data: Path, tiny: bool = False) -> dict:
    """Generate a workload's inputs under ``work`` and write its manifest."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    if workload == "stress-report":
        manifest = stress_report(rng, work, tiny)
    elif workload == "buffer-sizing":
        manifest = {}  # buffer tasks are drawn block by block, see buffer_block
    elif workload == "policy-optimize":
        manifest = policy_optimize(work, tiny)
    elif workload == "cli-daily":
        manifest = dict(catalogue=cli_catalogue(work, data))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest.update(workload=workload, seed=seed, tiny=tiny, data=str(data))
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest
