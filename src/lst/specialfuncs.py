"""
Numerical kernel for the cash-buffer closed forms: the Gauss hypergeometric
function for the (1-eta, 5/2; 7/2) parameter family and the two power-kernel
integrals it represents.

The hypergeometric value is computed from its Euler integral representation
(adaptive quadrature), not the power series: the argument z = (w-1)/w blows
past -1 as w -> 0, where the series diverges but the integral stays valid.
"""

from __future__ import annotations

import math

from .core import DomainError

_QUAD_ABS_TOL = 1e-12


def hyp2f1_family(eta: float, z: float) -> float:
    """2F1(1 - eta, 5/2; 7/2; z) for eta > 0 and z <= 0.

    Uses the Euler integral with b = 5/2, c = b + 1:
    2F1 = (5/2) * integral_0^1 y^(3/2) (1 - z y)^(eta - 1) dy,
    which remains valid for |z| >= 1.
    """
    if eta <= 0:
        raise DomainError("eta must be positive")
    if z > 1e-12:
        raise DomainError("argument z must be non-positive for this family")
    z = min(z, 0.0)
    if z == 0.0:
        return 1.0
    from scipy import integrate

    def integrand(y: float) -> float:
        return y**1.5 * (1.0 - z * y) ** (eta - 1.0)

    value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=_QUAD_ABS_TOL, epsrel=1e-12, limit=200)
    return 2.5 * value


def integral_i_w(w: float, eta: float) -> float:
    """integral_w^1 (x - w)^(3/2) x^(eta-1) dx for w in [0, 1], eta > 0.

    Evaluated through the hypergeometric closed form for interior w; the
    endpoints use the limits 2/(2 eta + 3) at w = 0 and 0 at w = 1.
    """
    if eta <= 0:
        raise DomainError("eta must be positive")
    if not 0.0 <= w <= 1.0:
        raise DomainError("w must lie in [0, 1]")
    if w == 0.0:
        return 2.0 / (2.0 * eta + 3.0)
    if w == 1.0:
        return 0.0
    z = (w - 1.0) / w
    return 0.4 * (1.0 - w) ** 2.5 * w ** (eta - 1.0) * hyp2f1_family(eta, z)


def _i_ab_quadrature(a: float, b: float, eta: float) -> float:
    from scipy import integrate

    def integrand(x: float) -> float:
        return (x - a) ** 1.5 * x ** (eta - 1.0)

    value, _ = integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def _psi_half(a: float, b: float) -> float:
    # Real part of a^2 (a - b)^(-1/2) asin(sqrt(b/a)) on the branch where the
    # inverse sine of an argument > 1 carries a negative imaginary part; that
    # real part reduces to -a^2 asinh(sqrt((b - a)/a)) / sqrt(b - a), which
    # avoids any branch-cut ambiguity.
    if a == 0.0:
        return 0.0
    return -a * a * math.asinh(math.sqrt((b - a) / a)) / math.sqrt(b - a)


def integral_i_ab(a: float, b: float, eta: float, method: str = "auto") -> float:
    """integral_a^b (x - a)^(3/2) x^(eta-1) dx for 0 <= a < b, eta > 0.

    ``auto`` uses the closed forms available for eta in {0.5, 1, 2, 3} and
    adaptive quadrature otherwise; ``quadrature`` forces the numerical route
    (the cross-check oracle).
    """
    if eta <= 0:
        raise DomainError("eta must be positive")
    if not 0.0 <= a < b:
        raise DomainError("bounds must satisfy 0 <= a < b")
    if method == "quadrature":
        return _i_ab_quadrature(a, b, eta)
    if method != "auto":
        raise DomainError(f"unknown method {method!r}")
    d = b - a
    if eta == 1.0:
        return 0.4 * d**2.5
    if eta == 2.0:
        return (2.0 / 35.0) * d**2.5 * (2.0 * a + 5.0 * b)
    if eta == 3.0:
        return (2.0 / 315.0) * d**2.5 * (8.0 * a * a + 20.0 * a * b + 35.0 * b * b)
    if eta == 0.5:
        return 0.25 * math.sqrt(d) * ((2.0 * b - 5.0 * a) * math.sqrt(b) - 3.0 * _psi_half(a, b))
    return _i_ab_quadrature(a, b, eta)
