"""
Closed forms of the power-kernel integrals behind the cash-buffer gains.

I(a, b; eta) = integral_a^b (x - a)^(3/2) x^(eta-1) dx is, for every eta > 0,
a Gauss hypergeometric function of the (1 - eta, 5/2; 7/2) family at the
argument z = (a - b)/a <= 0. Its values come from ``scipy.special.hyp2f1``,
which continues the function past z = -1, where the power series diverges
(the tail integral sends z to -infinity as its lower bound goes to 0).
"""

from __future__ import annotations

from .core import DomainError


def _check_eta(eta: float) -> None:
    if not eta > 0:
        raise DomainError("eta must be positive")


def hyp2f1_family(eta: float, z: float) -> float:
    """2F1(1 - eta, 5/2; 7/2; z) for eta > 0 and z <= 0."""
    _check_eta(eta)
    if z > 1e-12:
        raise DomainError("argument z must be non-positive for this family")
    from scipy.special import hyp2f1

    return float(hyp2f1(1.0 - eta, 2.5, 3.5, min(z, 0.0)))


def integral_i_w(w: float, eta: float) -> float:
    """integral_w^1 (x - w)^(3/2) x^(eta-1) dx = I(w, 1; eta) for w in [0, 1],
    eta > 0; 0 at w = 1."""
    _check_eta(eta)
    if not 0.0 <= w <= 1.0:
        raise DomainError("w must lie in [0, 1]")
    return integral_i_ab(w, 1.0, eta) if w < 1.0 else 0.0


def _i_ab_quadrature(a: float, b: float, eta: float) -> float:
    from scipy import integrate

    def integrand(x: float) -> float:
        return (x - a) ** 1.5 * x ** (eta - 1.0)

    value, _ = integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def integral_i_ab(a: float, b: float, eta: float, method: str = "auto") -> float:
    """integral_a^b (x - a)^(3/2) x^(eta-1) dx for 0 <= a < b, eta > 0.

    ``auto`` evaluates the closed form
    0.4 (b - a)^(5/2) a^(eta-1) 2F1(1 - eta, 5/2; 7/2; (a - b)/a), which is
    b^(eta + 3/2) / (eta + 3/2) at a = 0; ``quadrature`` integrates
    numerically (the cross-check oracle).
    """
    _check_eta(eta)
    if not 0.0 <= a < b:
        raise DomainError("bounds must satisfy 0 <= a < b")
    if method == "quadrature":
        return _i_ab_quadrature(a, b, eta)
    if method != "auto":
        raise DomainError(f"unknown method {method!r}")
    if a == 0.0:
        return b ** (eta + 1.5) / (eta + 1.5)
    return 0.4 * (b - a) ** 2.5 * a ** (eta - 1.0) * hyp2f1_family(eta, (a - b) / a)
