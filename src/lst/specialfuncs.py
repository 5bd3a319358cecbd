"""
Closed forms of the power-kernel integrals behind the cash-buffer gains.

I(a, b; eta) = integral_a^b (x - a)^(3/2) x^(eta-1) dx is, for every eta > 0,
a Gauss hypergeometric function of the (1 - eta, 5/2; 7/2) family at the
argument z = (a - b)/a <= 0. Its values come from ``scipy.special.hyp2f1``,
which continues the function past z = -1, where the power series diverges
(the tail integral sends z to -infinity as its lower bound goes to 0).

Every function takes floats or arrays; an array argument costs one
``hyp2f1`` call for all its elements.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError

# scipy's hyp2f1 takes a first parameter this close to a non-positive integer
# for that integer, and then returns +-inf for z < -2 when it is not exactly
# one; rounding it there first moves the value by at most about 1e-12
# relative
_NEAR_INTEGER = 1e-13

# Below this ratio a / b, I(a, b) equals I(0, b) to double precision (the
# relative gap is at most 4.5 a / b), while a^(eta-1) and z = (a - b)/a can
# overflow
_NEGLIGIBLE_LOWER = 2.0**-60


def _check_eta(eta: float) -> None:
    if not eta > 0:
        raise DomainError("eta must be positive")


def hyp2f1_family(eta: float, z):
    """2F1(1 - eta, 5/2; 7/2; z) for eta > 0 and z <= 0 (a float or an array)."""
    _check_eta(eta)
    if np.any(z > 1e-12):
        raise DomainError("argument z must be non-positive for this family")
    from scipy.special import hyp2f1

    first = 1.0 - eta
    if first <= 0.0 and abs(first - round(first)) < _NEAR_INTEGER:
        first = float(round(first))
    value = hyp2f1(first, 2.5, 3.5, np.minimum(z, 0.0))
    return value if np.ndim(value) else float(value)


def integral_i_w(w, eta: float):
    """integral_w^1 (x - w)^(3/2) x^(eta-1) dx = I(w, 1; eta) for w in [0, 1],
    eta > 0; 0 at w = 1."""
    _check_eta(eta)
    if not np.all((w >= 0.0) & (w <= 1.0)):
        raise DomainError("w must lie in [0, 1]")
    if np.ndim(w) == 0:
        return integral_i_ab(w, 1.0, eta) if w < 1.0 else 0.0
    w = np.asarray(w, dtype=float)
    value = np.zeros(w.shape)
    inside = w < 1.0
    value[inside] = integral_i_ab(w[inside], 1.0, eta)
    return value


def _i_ab_quadrature(a: float, b: float, eta: float) -> float:
    from scipy import integrate

    def integrand(x: float) -> float:
        return (x - a) ** 1.5 * x ** (eta - 1.0)

    value, _ = integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def integral_i_ab(a, b, eta: float, method: str = "auto"):
    """integral_a^b (x - a)^(3/2) x^(eta-1) dx for 0 <= a < b, eta > 0.

    ``auto`` evaluates the closed form
    0.4 (b - a)^(5/2) a^(eta-1) 2F1(1 - eta, 5/2; 7/2; (a - b)/a), which is
    b^(eta + 3/2) / (eta + 3/2) at a = 0 (and wherever a / b is below 2^-60);
    a and b may be floats or arrays. ``quadrature`` integrates numerically
    one float pair (the cross-check oracle).
    """
    _check_eta(eta)
    if not np.all((a >= 0.0) & (a < b)):
        raise DomainError("bounds must satisfy 0 <= a < b")
    if method == "quadrature":
        return _i_ab_quadrature(a, b, eta)
    if method != "auto":
        raise DomainError(f"unknown method {method!r}")
    inner = a > b * _NEGLIGIBLE_LOWER
    if np.ndim(inner) == 0:
        return _i_ab_inner(a, b, eta) if inner else _i_ab_origin(b, eta)
    lower = np.where(inner, a, b)  # a positive stand-in where a is negligible
    return np.where(inner, _i_ab_inner(lower, b, eta), _i_ab_origin(b, eta))


def _i_ab_inner(a, b, eta: float):
    return 0.4 * (b - a) ** 2.5 * a ** (eta - 1.0) * hyp2f1_family(eta, (a - b) / a)


def _i_ab_origin(b, eta: float):
    return b ** (eta + 1.5) / (eta + 1.5)
