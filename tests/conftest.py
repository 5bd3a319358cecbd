import numpy as np
import pytest

from lst import CostModel, Portfolio, Security

# Seven-asset demo fund used across the suite: holdings, prices and daily
# trading limits, with daily volume = 10x the limit, annualized volatilities
# and bid-ask spreads for the cost and tracking-risk analytics.
FUND_ROWS = [
    #  id   shares   price  limit   volume   vol    spread
    ("A1", 435_100,    89, 20_000, 200_000, 0.20, 0.0005),
    ("A2", 300_100,   123, 20_000, 200_000, 0.18, 0.0003),
    ("A3",  50_400,   488, 10_000, 100_000, 0.15, 0.0005),
    ("A4", 200_500,   102, 20_000, 200_000, 0.15, 0.0008),
    ("A5",  75_500,   167, 20_000, 200_000, 0.22, 0.0012),
    ("A6",  17_500,   319,  2_000,  20_000, 0.30, 0.0015),
    ("A7",   1_800, 1_589,  1_000,  10_000, 0.35, 0.0015),
]

CORRELATION = np.array([
    [1.00, 0.10, 0.40, 0.50, 0.30, 0.30, 0.30],
    [0.10, 1.00, 0.70, 0.40, 0.30, 0.30, 0.30],
    [0.40, 0.70, 1.00, 0.80, 0.50, 0.50, 0.50],
    [0.50, 0.40, 0.80, 1.00, 0.50, 0.50, 0.50],
    [0.30, 0.30, 0.50, 0.50, 1.00, 0.70, 0.70],
    [0.30, 0.30, 0.50, 0.50, 0.70, 1.00, 0.70],
    [0.30, 0.30, 0.50, 0.50, 0.70, 0.70, 1.00],
])

# The five benchmark liquidation portfolios at a 10% redemption and their
# published evaluation: (quantities, TR bp, TC bp, TC spread bp, TC impact bp, LS %).
MIXING_POLICIES = {
    "#1": ([43_510, 30_010, 5_040, 20_050, 7_550, 1_750, 180], 0.0, 22.4, 6.1, 16.2, 23.5),
    "#2": ([0, 27_000, 22_238, 0, 0, 0, 0], 79.6, 20.4, 4.5, 15.9, 48.2),
    "#3": ([0, 0, 0, 0, 34_315, 17_500, 1_800], 201.0, 42.5, 13.8, 28.7, 60.7),
    "#4": ([20_000, 20_000, 10_000, 20_000, 18_044, 0, 0], 35.4, 25.6, 6.6, 19.1, 0.0),
    "#5": ([29_404, 24_004, 8_016, 20_020, 13_846, 700, 72], 21.2, 22.6, 6.4, 16.2, 9.4),
}


def i_ab_quadrature(a: float, b: float, eta: float) -> float:
    """integral_a^b (x - a)^(3/2) x^(eta-1) dx by scipy's adaptive quadrature:
    the independent oracle of the closed form ``lst.integral_i_ab``."""
    from scipy import integrate

    value, _ = integrate.quad(lambda x: (x - a) ** 1.5 * x ** (eta - 1.0), a, b,
                              epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def make_fund(correlation=True, limit_overrides=None) -> Portfolio:
    overrides = limit_overrides or {}
    securities = tuple(
        Security(id=sid, shares=sh, price=px, daily_limit=overrides.get(sid, lim),
                 daily_volume=vol, volatility=sig, spread=spr)
        for sid, sh, px, lim, vol, sig, spr in FUND_ROWS
    )
    return Portfolio(securities=securities, correlation=CORRELATION if correlation else None)


@pytest.fixture(scope="session")
def fund() -> Portfolio:
    return make_fund()


@pytest.fixture(scope="session")
def illiquid_fund() -> Portfolio:
    """Same fund with the seventh asset nearly untradeable (limit 20/day)."""
    return make_fund(limit_overrides={"A7": 20})


@pytest.fixture(scope="session")
def cost_model() -> CostModel:
    return CostModel()  # beta 0.4, knee 5%, cap 10%, sqrt-linear regime


def with_limits(portfolio: Portfolio, limits) -> Portfolio:
    """A copy of ``portfolio`` whose daily limits are ``limits``: a schedule
    sells at its portfolio's own limits, so stressed limits make a new one."""
    return Portfolio.from_columns(portfolio.ids, dict(
        shares=portfolio.shares, price=portfolio.prices, daily_limit=limits,
        daily_volume=portfolio.daily_volumes, volatility=portfolio.volatilities,
        spread=portfolio.spreads))


def random_portfolio(rng: np.random.Generator, n: int = None, with_corr: bool = False) -> Portfolio:
    n = n or int(rng.integers(2, 9))
    securities = tuple(
        Security(
            id=f"S{i}",
            shares=float(rng.integers(1, 500_000)),
            price=float(rng.uniform(1, 2000)),
            daily_limit=float(rng.integers(1, 50_000)),
            daily_volume=float(rng.integers(50_000, 500_000)),
            volatility=float(rng.uniform(0.05, 0.6)),
            spread=float(rng.uniform(1e-4, 3e-3)),
        )
        for i in range(n)
    )
    correlation = None
    if with_corr:
        raw = rng.uniform(-1, 1, size=(n, n))
        cov = raw @ raw.T + n * np.eye(n)
        d = np.sqrt(np.diag(cov))
        correlation = cov / np.outer(d, d)
    return Portfolio(securities=securities, correlation=correlation)


def tied_columns(rng: np.random.Generator, n: int) -> dict:
    """Columns of an n-name fund whose keys shares/cap tie or nearly tie.

    Some names copy another name's (shares, cap) pair; some pairs share a
    cap with shares one ulp apart, the larger share at the lower index, so
    that c * shares / cap rounds equal for many c where shares/cap does
    not and the order by shares/cap puts the pair against index order.
    Some caps are zero and some names are unheld.
    """
    shares = np.round(rng.lognormal(10.0, 1.5, n)) + 1.0
    cap = np.round(rng.lognormal(8.0, 1.0, n)) + 1.0
    cap[rng.random(n) < rng.choice([0.0, 0.05, 0.5])] = 0.0
    shares[rng.random(n) < 0.05] = 0.0
    for _ in range(int(rng.integers(0, n // 3 + 2))):  # repeated pairs
        i, j = rng.integers(0, n, 2)
        shares[j], cap[j] = shares[i], cap[i]
    for _ in range(int(rng.integers(0, n // 3 + 2))):  # one-ulp pairs against index order
        i, j = np.sort(rng.choice(n, 2, replace=False)) if n > 1 else (0, 0)
        if shares[j] > 0:
            cap[i] = cap[j]
            shares[i] = np.nextafter(shares[j], np.inf)
    if not (shares > 0).any():
        shares[0] = 1.0
    return dict(shares=shares, price=np.round(rng.lognormal(4.0, 0.6, n), 2) + 0.01,
                daily_limit=cap, daily_volume=np.zeros(n), volatility=np.zeros(n),
                spread=np.zeros(n))
