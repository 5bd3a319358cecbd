"""SLSQP over scipy's compiled kernel, without the ``scipy.optimize`` package.

``minimize`` drives ``scipy.optimize._slsqplib.slsqp`` (Kraft's SLSQP) through
the same reverse-communication loop as scipy's ``_minimize_slsqp``, and
estimates gradients with the same forward differences as its
``approx_derivative(method="2-point", abs_step=sqrt(eps))``, so it returns
scipy's iterates bit for bit. Importing ``scipy.optimize`` costs 0.3 to 0.4 s
on a 2-core x86 host (linprog, shgo, ``scipy.linalg``, ``scipy.fft``); loading
the one extension it needs costs a few milliseconds.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

_KERNEL = "scipy.optimize._slsqplib"
#: scipy's ``_epsilon``: the absolute finite-difference step, 2**-26.
_EPS = float(np.sqrt(np.finfo(np.float64).eps))

EXIT_MESSAGES = {
    0: "Optimization terminated successfully",
    2: "More equality constraints than independent variables",
    3: "More than 3*n iterations in LSQ subproblem",
    4: "Inequality constraints incompatible",
    5: "Singular matrix E in LSQ subproblem",
    6: "Singular matrix C in LSQ subproblem",
    7: "Rank-deficient equality constraint subproblem HFTI",
    8: "Positive directional derivative for linesearch",
    9: "Iteration limit reached",
}


@dataclass(frozen=True)
class SlsqpResult:
    """Final iterate, objective value, exit mode and counts of one run."""

    x: np.ndarray
    fun: float
    mode: int
    nit: int
    nfev: int  # objective evaluations, finite differences included

    @property
    def message(self) -> str:
        return EXIT_MESSAGES[self.mode]


def _kernel():
    """scipy's compiled ``slsqp`` routine, loaded without its package."""
    module = sys.modules.get(_KERNEL)
    if module is None:
        scipy = importlib.util.find_spec("scipy")  # locates scipy, imports nothing
        roots = (scipy and scipy.submodule_search_locations) or []
        paths = [os.path.join(root, "optimize", "_slsqplib" + suffix) for root in roots
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.exists(p)), None)
        if path is None:
            raise ImportError(f"the policy optimizer needs scipy>=1.17 ({_KERNEL} not found)")
        spec = importlib.util.spec_from_file_location(_KERNEL, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_KERNEL] = module
    return module.slsqp


def _forward_difference(fun, x0, f0, lb, ub) -> np.ndarray:
    """d fun / dx at x0 by scipy's bounded 2-point scheme with step sqrt(eps)."""
    if np.any((x0 < lb) | (x0 > ub)):
        raise ValueError("`x0` violates bound constraints.")
    sign = (x0 >= 0).astype(float) * 2 - 1
    h = np.where((x0 + _EPS) - x0 == 0, _EPS * sign * np.maximum(1.0, np.abs(x0)), _EPS)
    # one-sided steps that leave the box turn round, or shrink to the far side
    lower, upper = x0 - lb, ub - x0
    violated = (x0 + h < lb) | (x0 + h > ub)
    fitting = np.abs(h) <= np.maximum(lower, upper)
    h[violated & fitting] *= -1
    forward = (upper >= lower) & ~fitting
    h[forward] = upper[forward]
    backward = (upper < lower) & ~fitting
    h[backward] = -lower[backward]
    grad = np.empty(x0.size)
    for i in range(x0.size):
        x1 = x0.copy()
        x1[i] = x0[i] + h[i]
        with np.errstate(over="ignore"):  # inf: a slope past the float range
            grad[i] = (fun(x1) - f0) / ((x0[i] + h[i]) - x0[i])
    return grad


class _Objective:
    """scipy's ``ScalarFunction`` cache: one stored point, its value and gradient."""

    def __init__(self, fun, x0, lb, ub):
        self.fun, self.lb, self.ub = fun, lb, ub
        self.x = x0.copy()
        self.f = self.g = None
        self.nfev = 0

    def _move(self, x) -> None:
        if not np.array_equal(x, self.x):
            self.x = x.copy()
            self.f = self.g = None

    def value(self, x) -> float:
        self._move(x)
        if self.f is None:
            self.f = self.fun(self.x.copy())
            self.nfev += 1
        return self.f

    def grad(self, x) -> np.ndarray:
        f0 = self.value(x)
        if self.g is None:
            self.g = _forward_difference(self.fun, self.x, f0, self.lb, self.ub)
            self.nfev += self.x.size
        return self.g


def minimize(
    fun: Callable[[np.ndarray], float],
    x0: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    eq: Sequence[Callable[[np.ndarray], float]] = (),
    ineq: Sequence[Callable[[np.ndarray], float]] = (),
    maxiter: int = 100,
    ftol: float = 1e-6,
) -> SlsqpResult:
    """Minimize ``fun`` on the box [lb, ub] s.t. ``eq(x) == 0`` and ``ineq(x) >= 0``.

    Every constraint returns a float. Same iterates, exit mode, ``nit`` and
    ``nfev`` as ``scipy.optimize.minimize(fun, x0, method="SLSQP",
    bounds=zip(lb, ub), constraints=..., options={"maxiter": maxiter,
    "ftol": ftol})``; unlike scipy, it refuses bounds that fix every
    variable.
    """
    slsqp = _kernel()
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    fixed = lb == ub
    if fixed.all():
        raise ValueError("every variable is fixed by its bounds")
    if fixed.any():
        # as scipy's minimize does, solve over the free variables only
        free = ~fixed

        def full(z):
            x = np.zeros(lb.size)
            x[fixed] = lb[fixed]
            x[free] = z
            return x

        res = minimize(lambda z: fun(full(z)), x0[free], lb[free], ub[free],
                       [lambda z, c=c: c(full(z)) for c in eq],
                       [lambda z, c=c: c(full(z)) for c in ineq], maxiter, ftol)
        return replace(res, x=full(res.x))
    x = np.clip(x0, lb, ub)
    n, meq = x.size, len(eq)
    cons = (*eq, *ineq)
    m = len(cons)
    xl = np.where(np.isfinite(lb), lb, np.nan)
    xu = np.where(np.isfinite(ub), ub, np.nan)

    def values(x) -> None:
        for row, con in enumerate(cons):
            d[row] = con(x)

    def normals(x) -> None:
        if (x < lb).any() or (x > ub).any():
            x = np.clip(x, lb, ub)
        for row, con in enumerate(cons):
            C[row, :] = _forward_difference(con, x, con(x), lb, ub)

    state = {
        "acc": ftol, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
        "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * ftol, "exact": 0,
        "inconsistent": 0, "reset": 0, "iter": 0, "itermax": int(maxiter), "line": 0,
        "m": m, "meq": meq, "mode": 0, "n": n,
    }
    # workspace sizes of scipy's _minimize_slsqp (SLSQP + LSQ + LSEI + LDP + NNLS)
    size = n * (n + 1) // 2 + 3 * m * n - (m + 5 * n + 7) * meq + 9 * m + 8 * n * n \
        + 35 * n + meq * meq + 28
    if m == meq:
        size += 2 * n * (n + 1)
    buffer = np.zeros(max(size, 1))
    indices = np.zeros(max(m + 2 * n + 2, 1), dtype=np.int32)
    mult = np.zeros(max(1, m + 2 * n + 2))
    C = np.zeros((max(1, m), n), order="F")
    d = np.zeros(max(1, m))

    objective = _Objective(fun, x, lb, ub)
    fx = objective.value(x)
    g = objective.grad(x)
    normals(x)
    values(x)
    while True:
        slsqp(state, fx, g, C, d, x, mult, xl, xu, buffer, indices)
        if state["mode"] == 1:
            fx = objective.value(x)
            values(x)
        if state["mode"] == -1:
            g = objective.grad(x)
            normals(x)
        if abs(state["mode"]) != 1:
            break
    return SlsqpResult(x=x, fun=fx, mode=state["mode"], nit=state["iter"], nfev=objective.nfev)
