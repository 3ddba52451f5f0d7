"""Closed-form benchmark strategies and their saddle-point systems.

Numerical solvers for the constant worst-case benchmarks:

* 1-D robust volatility: pi = (mu - r)/sigma^2 with sigma* the root of
  sigma^4 - sigma_ref sigma^3 - (mu - r)^2 / (2 lam1) = 0 above sigma_ref
  (the scalar vol-penalty system);
* multi-D robust volatility, additive penalty:
  Sigma = pi pi^T / (4 lam1) + Sigma_ref  and  Sigma pi = mu - r;
* multi-D robust volatility, multiplicative penalty:
  Sigma = pi pi^T Sigma_ref^2 / (4 lam1) + Sigma_ref  and  Sigma pi = mu - r;
* fully robust (vol + drift): the additive system plus pi = 2 lam2 (mu_ref - mu).

Every returned solution carries the max-norm residual of its defining
system, recomputed from scratch, as a certificate.  Also here: the Merton
weight, the asymptotic no-trade-region policy for small proportional
costs, and the full-information oracle weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_NEWTON_ITER = 10_000
RESIDUAL_TARGET = 1e-12


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SaddleSolution:
    """Optimal weights and worst-case market of one explicit system."""

    weights: np.ndarray  # (d,)
    cov: np.ndarray  # (d, d) worst-case covariance
    drift: np.ndarray  # (d,) worst-case drift (input drift when fixed)
    residual: float  # max-norm residual of the defining equations
    system: str

    @property
    def d(self) -> int:
        return self.weights.shape[0]


def solve_1d_robust_vol(mu: float, rate: float, sigma_ref: float,
                        lam1: float) -> SaddleSolution:
    """Scalar quartic system; bracketed bisection on [sigma_ref, sigma_ref+10]."""
    if lam1 <= 0 or sigma_ref <= 0:
        raise SolverError("need lam1 > 0 and sigma_ref > 0")
    excess = mu - rate
    rhs = excess ** 2 / (2.0 * lam1)

    def f(sig):
        return sig ** 4 - sigma_ref * sig ** 3 - rhs

    lo, hi = sigma_ref, sigma_ref + 10.0
    if f(hi) < 0:
        raise SolverError("no sign change in the bisection bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    sigma = 0.5 * (lo + hi)
    pi = excess / sigma ** 2
    resid = max(abs(f(sigma)), abs(sigma ** 2 * pi - excess))
    return SaddleSolution(weights=np.array([pi]), cov=np.array([[sigma ** 2]]),
                          drift=np.array([mu]), residual=resid, system="vol-1d")


def _damped_newton(g, jac, pi0: np.ndarray) -> np.ndarray:
    """Newton with Armijo backtracking on ||g||, from a deterministic start."""
    pi = pi0.astype(np.float64).copy()
    gv = g(pi)
    for _ in range(MAX_NEWTON_ITER):
        norm = np.max(np.abs(gv))
        if norm < RESIDUAL_TARGET:
            return pi
        try:
            step = np.linalg.solve(jac(pi), -gv)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Jacobian: {exc}") from exc
        t = 1.0
        ref = np.linalg.norm(gv)
        while t > 1e-12:
            cand = pi + t * step
            gc = g(cand)
            if np.linalg.norm(gc) <= (1.0 - 1e-4 * t) * ref:
                pi, gv = cand, gc
                break
            t *= 0.5
        else:
            raise SolverError("line search stalled before reaching the residual target")
    raise SolverError(f"Newton did not converge in {MAX_NEWTON_ITER} iterations")


def solve_multid_robust_vol(mu, rate: float, cov_ref, lam1: float,
                            penalty: str = "additive") -> SaddleSolution:
    """Robust-volatility system with fixed drift, additive or multiplicative."""
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    cov_ref = np.atleast_2d(np.asarray(cov_ref, dtype=np.float64))
    if lam1 <= 0:
        raise SolverError("need lam1 > 0")
    d = mu.shape[0]
    excess = mu - rate
    eye = np.eye(d)
    if penalty == "additive":
        def sig_of(pi):
            return cov_ref + np.outer(pi, pi) / (4.0 * lam1)

        def g(pi):
            return cov_ref @ pi + (pi @ pi) * pi / (4.0 * lam1) - excess

        def jac(pi):
            return cov_ref + ((pi @ pi) * eye + 2.0 * np.outer(pi, pi)) / (4.0 * lam1)

    elif penalty == "multiplicative":
        a = cov_ref @ cov_ref

        def sig_of(pi):
            return cov_ref + np.outer(pi, pi) @ a / (4.0 * lam1)

        def g(pi):
            return cov_ref @ pi + pi * (pi @ a @ pi) / (4.0 * lam1) - excess

        def jac(pi):
            return cov_ref + ((pi @ a @ pi) * eye
                              + 2.0 * np.outer(pi, a @ pi)) / (4.0 * lam1)

    else:
        raise SolverError(f"unknown penalty {penalty!r}")
    pi0 = np.linalg.solve(cov_ref, excess)
    pi = _damped_newton(g, jac, pi0)
    cov = sig_of(pi)
    resid = max(np.max(np.abs(cov @ pi - excess)), np.max(np.abs(g(pi))))
    return SaddleSolution(weights=pi, cov=cov, drift=mu, residual=resid,
                          system=f"vol-{penalty}")


def solve_fully_robust(mu_ref, rate: float, cov_ref, lam1: float,
                       lam2: float) -> SaddleSolution:
    """Robustify volatility and drift: adds mu = mu_ref - pi/(2 lam2)."""
    mu_ref = np.atleast_1d(np.asarray(mu_ref, dtype=np.float64))
    cov_ref = np.atleast_2d(np.asarray(cov_ref, dtype=np.float64))
    if lam1 <= 0 or lam2 <= 0:
        raise SolverError("need lam1 > 0 and lam2 > 0")
    d = mu_ref.shape[0]
    eye = np.eye(d)
    excess_ref = mu_ref - rate

    def g(pi):
        return (cov_ref @ pi + (pi @ pi) * pi / (4.0 * lam1)
                + pi / (2.0 * lam2) - excess_ref)

    def jac(pi):
        return (cov_ref + ((pi @ pi) * eye + 2.0 * np.outer(pi, pi)) / (4.0 * lam1)
                + eye / (2.0 * lam2))

    pi0 = np.linalg.solve(cov_ref, excess_ref)
    pi = _damped_newton(g, jac, pi0)
    mu_star = mu_ref - pi / (2.0 * lam2)
    cov = cov_ref + np.outer(pi, pi) / (4.0 * lam1)
    resid = max(
        np.max(np.abs(cov @ pi - (mu_star - rate))),
        np.max(np.abs(cov - (cov_ref + np.outer(pi, pi) / (4.0 * lam1)))),
        np.max(np.abs(pi - 2.0 * lam2 * (mu_ref - mu_star))),
    )
    return SaddleSolution(weights=pi, cov=cov, drift=mu_star, residual=resid,
                          system="fully-robust")


def merton_weight(mu_excess: float, sigma: float, p: float) -> float:
    """Frictionless optimum mu_excess / (p sigma^2) for power p."""
    if sigma <= 0 or p <= 0:
        raise SolverError("need sigma > 0 and p > 0")
    return mu_excess / (p * sigma ** 2)


# ----------------------------------------------------------------------
# asymptotic no-trade region under small proportional costs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NoTradeRegion:
    """Interval around the frictionless weight inside which one holds still."""

    center: float  # frictionless weight
    halfwidth: float  # c_prop^(1/3) * width coefficient

    def __post_init__(self):
        if self.halfwidth < 0:
            raise SolverError("half-width must be non-negative")

    @classmethod
    def from_params(cls, mu_excess: float, sigma: float, p: float,
                    c_prop: float) -> "NoTradeRegion":
        pi_ntc = merton_weight(mu_excess, sigma, p)
        dpi = (1.5 / p * (pi_ntc * (1.0 - pi_ntc)) ** 2) ** (1.0 / 3.0)
        return cls(center=pi_ntc, halfwidth=c_prop ** (1.0 / 3.0) * dpi)

    @property
    def lower(self) -> float:
        return self.center - self.halfwidth

    @property
    def upper(self) -> float:
        return self.center + self.halfwidth


def no_trade_step(s, x, h_prev, region: NoTradeRegion):
    """Piecewise rule: hold inside the region, else project to its boundary.

    Vectorized over paths; s, x, h_prev have shape (B,).  Returns the new
    weight and holdings.  Non-positive wealth (post-default bookkeeping)
    goes to cash.
    """
    s = np.asarray(s, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    alive = x > 0
    y = np.zeros_like(x)
    np.divide(h_prev * s, x, out=y, where=alive)
    pi = np.clip(y, region.lower, region.upper)
    h = np.where(pi == y, h_prev, pi * x / s)
    pi = np.where(alive, pi, 0.0)
    h = np.where(alive, h, 0.0)
    return pi, h


class NoTradePolicy:
    """Stateful policy wrapper; carries per-path holdings, d=1 markets only."""

    def __init__(self, region: NoTradeRegion):
        self.region = region

    def reset(self, n_paths: int) -> np.ndarray:
        return np.zeros(n_paths)  # all cash before the first trade

    def weights(self, n, t, s, x, state):
        pi, h = no_trade_step(s[:, 0], x, state, self.region)
        return pi[:, None], h
