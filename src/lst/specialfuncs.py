"""
Closed forms of the power-kernel integrals behind the cash-buffer gains.

I(a, b; eta) = integral_a^b (x - a)^(3/2) x^(eta-1) dx is, for every eta > 0,
a Gauss hypergeometric function of the (1 - eta, 5/2; 7/2) family at the
argument z = (a - b)/a <= 0 (the tail integral sends z to -infinity as its
lower bound goes to 0). ``hyp2f1_family`` sums it with numpy: a Pfaff series
on [-2, 0] and, past z = -2, a split of its Euler integral into a rescaled
value at -2 and a binomial series of ratio at most 1/2, summed in log space
past z = -2^60.

Every function takes floats or arrays; a float goes through the same array
code, and each finite element's value does not depend on the other
elements. The exponent must lie in (0, ETA_MAX], the range the series are
tested on; any other eta is a DomainError.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .core import DomainError

# Below this ratio a / b, I(a, b) equals I(0, b) to double precision (the
# relative gap is at most 4.5 a / b), while a^(eta-1) and z = (a - b)/a can
# overflow
_NEGLIGIBLE_LOWER = 2.0**-60

# Past this |z| the tail series runs in log space (no buffer path gets there)
_HUGE = 2.0**60
_LN2 = np.log(2.0)

# Series terms are generated this many at a time; a series stops after the
# first block whose last term is below a quarter of an ulp of the sum
_BLOCK = 64
_QUARTER_ULP = np.finfo(float).eps / 4.0


# The largest exponent accepted: the range the series are tested on against
# mpmath to 1e-13. From eta = 16, y^eta overflows in the tail series at the
# largest y = (b - a)/a that ``integral_i_ab`` passes, about 2^60.
ETA_MAX = 12.0


def _check_eta(eta: float) -> None:
    """Reject, by name, an exponent outside (0, ETA_MAX], NaN included."""
    if not 0.0 < eta <= ETA_MAX:
        raise DomainError(f"eta must lie in (0, {ETA_MAX:g}], got {eta!r}")


def _sum_series(total, block):
    """total plus the terms block(0), block(_BLOCK), ... ((size, _BLOCK)
    arrays), added one at a time in order.

    Summing stops after a block whose last term is below a quarter of an
    ulp of every finite sum. For eta <= ETA_MAX the terms of both series
    shrink after the first block, so no later term moves a sum, and a sum
    that is no longer finite (it overflowed at a huge |z|) is kept as it
    is: an element's value does not depend on how many blocks the other
    elements need.
    """
    n = 0
    while True:
        terms = block(n)
        last = terms[:, -1]
        terms[:, 0] += total
        total = np.where(np.isfinite(total), np.add.accumulate(terms, axis=1)[:, -1], total)
        n += _BLOCK
        if not (np.abs(last) > _QUARTER_ULP * np.abs(total)).any():
            return total


def _pfaff(eta: float, z):
    """2F1(1 - eta, 5/2; 7/2; z) for z in [-2, 0], as
    (1 - z)^(eta-1) sum_n (1 - eta)_n / (7/2)_n zeta^n with zeta = z/(z - 1) <= 2/3.

    Past its largest term the terms shrink, and an integer eta ends the
    series at n = eta - 1.
    """
    zeta = (z / (z - 1.0))[:, None]
    last = 1.0

    def block(n):
        nonlocal last
        m = np.arange(n + 1, n + 1 + _BLOCK)  # term m is term m - 1 times (m - eta)/(m + 5/2) zeta
        terms = last * np.cumprod((m - eta) / (m + 2.5) * zeta, axis=1)
        last = terms[:, -1:]
        return terms

    return (1.0 - z) ** (eta - 1.0) * _sum_series(np.ones(z.size), block)


@lru_cache(maxsize=256)
def _at_minus_two(eta: float) -> float:
    """2F1(1 - eta, 5/2; 7/2; -2), the head of every z < -2."""
    return float(_pfaff(eta, np.array([-2.0]))[0])


def _exprel(x):
    """(e^x - 1) / x, 1 at x = 0."""
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)


def _split_euler(eta: float, z, log_space: bool = False):
    """2F1(1 - eta, 5/2; 7/2; z) for z < -2 from the Euler integral
    (5/2) integral_0^1 t^(3/2) (1 + y t)^(eta-1) dt, y = -z, split at t = 2/y.

    The head is (2/y)^(5/2) 2F1(.., -2). On the tail y t >= 2, so
    (1 + y t)^(eta-1) expands in binomial terms of ratio at most 1/2, and
    term k integrates to C(eta-1, k) y^(-5/2) (y^s - 2^s)/s with
    s = eta + 3/2 - k. Written as ln(y/2) exprel(-|s| ln(y/2)) max(y, 2)^s,
    the ratio needs no case at s = 0 (the log term) and loses no accuracy
    for large s ln(y/2).

    ``log_space`` (for y > 2^60) folds y^(-5/2) into each term as one
    exponential, y^(s - 5/2) or 2^s y^(-5/2), where y^eta, y^(3/2-j) and
    y^(-5/2) apart would overflow or underflow before they meet. The sums
    run at 2^-3 scale, so a value overflows only past the float range; the
    exponent's rounding costs about |s - 5/2| ln(y) ulps (up to 2e-13).
    """
    y = -z
    log_half = np.log(y / 2.0)[:, None]
    if log_space:
        log_y = np.log(y)[:, None]
    else:
        y_eta = (y**eta)[:, None]
    binomial = 1.0  # C(eta - 1, k - 1) at the start of each block

    def block(k):
        nonlocal binomial
        j = np.arange(k, k + _BLOCK)
        binomials = binomial * np.cumprod(np.where(j > 0, (eta - j) / np.maximum(j, 1), 1.0))
        binomial = binomials[-1]
        s = eta + 1.5 - j
        if log_space:  # y^(s - 5/2) or 2^s y^(-5/2), times 2^-3
            exponent = np.where(s > 0.0, (eta - 1.0 - j) * log_y, s * _LN2 - 2.5 * log_y)
            peak = np.exp(exponent - 3.0 * _LN2)
        else:
            # y^s as y^eta y^(3/2 - j): a rounded s would cost ln(y) ulps
            peak = np.where(s > 0.0, y_eta * y[:, None] ** (1.5 - j), 2.0**s)
        return binomials * log_half * _exprel(-np.abs(s) * log_half) * peak

    if not log_space:
        tail = _sum_series(np.zeros(z.size), block)
        return (2.0**2.5 * _at_minus_two(eta) + 2.5 * tail) * y**-2.5
    with np.errstate(over="ignore"):  # inf: a value past the float range
        tail = _sum_series(np.zeros(z.size), block)
        head = _at_minus_two(eta) * np.exp(2.5 * (_LN2 - log_y[:, 0]) - 3.0 * _LN2)
        return (head + 2.5 * tail) * 8.0


def hyp2f1_family(eta: float, z):
    """2F1(1 - eta, 5/2; 7/2; z) for 0 < eta <= ETA_MAX and z <= 0 (a float or an array)."""
    _check_eta(eta)
    if np.any(z > 1e-12):
        raise DomainError("argument z must be non-positive for this family")
    z = np.minimum(z, 0.0)
    flat = np.reshape(z, -1)
    far, huge = flat < -2.0, flat < -_HUGE
    value = np.empty(flat.shape)
    for part, series in ((~far, _pfaff), (far & ~huge, _split_euler),  # NaN: Pfaff keeps it
                         (huge, partial(_split_euler, log_space=True))):
        if part.any():
            value[part] = series(eta, flat[part])
    return value.reshape(np.shape(z)) if np.ndim(z) else float(value[0])


def _as_array(x):
    """x as a float array of at least one dimension (a float becomes one element)."""
    return np.atleast_1d(np.asarray(x, dtype=float))


def _as_given(value, x):
    """value, computed on ``_as_array(x)``, back in the caller's form: a float for a float x."""
    return value if np.ndim(x) else float(value[0])


def integral_i_w(w, eta: float):
    """integral_w^1 (x - w)^(3/2) x^(eta-1) dx = I(w, 1; eta) for w in [0, 1],
    0 < eta <= ETA_MAX; 0 at w = 1."""
    _check_eta(eta)
    if not np.all((w >= 0.0) & (w <= 1.0)):
        raise DomainError("w must lie in [0, 1]")
    x = _as_array(w)
    value = np.zeros(x.shape)
    inside = x < 1.0
    value[inside] = integral_i_ab(x[inside], 1.0, eta)
    return _as_given(value, w)


def integral_i_ab(a, b, eta: float):
    """integral_a^b (x - a)^(3/2) x^(eta-1) dx for 0 <= a < b, 0 < eta <= ETA_MAX.

    Evaluates the closed form
    0.4 (b - a)^(5/2) a^(eta-1) 2F1(1 - eta, 5/2; 7/2; (a - b)/a), which is
    b^(eta + 3/2) / (eta + 3/2) at a = 0 (and wherever a / b is below 2^-60);
    a and b may be floats or arrays.
    """
    _check_eta(eta)
    if not np.all((a >= 0.0) & (a < b)):
        raise DomainError("bounds must satisfy 0 <= a < b")
    lower, upper = _as_array(a), _as_array(b)
    inner = lower > upper * _NEGLIGIBLE_LOWER
    lower = np.where(inner, lower, upper)  # a positive stand-in where a is negligible
    value = np.where(inner, 0.4 * (upper - lower) ** 2.5 * lower ** (eta - 1.0)
                     * hyp2f1_family(eta, (lower - upper) / lower),
                     upper ** (eta + 1.5) / (eta + 1.5))
    return value if np.ndim(a) or np.ndim(b) else float(value[0])
