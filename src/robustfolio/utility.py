"""Utility functions and market-deviation penalties.

Two penalty families are supported:

* instantaneous penalties on per-step coefficients -- additive
  ||Sigma - Sigma_ref||_F^2, multiplicative ||Sigma Sigma_ref^-1 - I||_F^2,
  and the scalar vol variant (sigma - sigma_ref)^2 used by the
  one-dimensional sanity setting;
* batch path functionals -- squared deviation of the quadratic covariation
  of log-prices from Sigma_ref * T (averaged over paths) and squared
  deviation of the batch-mean relative return from exp(mu_ref * T).

All penalty code runs on plain arrays or on autodiff Tensors, so the same
formulas serve evaluation and the training loop.  On a Tensor of price
paths the path-wise penalty is one graph node with a hand-written adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, _acc, raw
from .market import TimeGrid

NEG_INF = float("-inf")
WEALTH_FLOOR = 1e-6  # training floors terminal wealth here (finite gradients)


@dataclass(frozen=True)
class PowerUtility:
    """Power utility of terminal wealth; p=1 dispatches to ln.

    shifted=True is (x^(1-p) - 1)/(1-p), which is 0 at x=1 and has ln as
    its p -> 1 limit; shifted=False drops the -1 (the convention of the
    small-cost benchmark tables).  Non-positive wealth maps to -inf, never
    an exception, so defaulted paths can be aggregated.
    """

    p: float
    shifted: bool = True

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("risk-aversion power must be non-negative")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.full(x.shape, NEG_INF)
        ok = x > 0
        if self.p == 1.0:
            out[ok] = np.log(x[ok])
        else:
            q = 1.0 - self.p
            if self.shifted:
                # expm1 keeps the p -> 1 limit accurate
                out[ok] = np.expm1(q * np.log(x[ok])) / q
            else:
                out[ok] = np.power(x[ok], q) / q
        return out

    def graph(self, x: Tensor) -> Tensor:
        """Autodiff version; wealth is floored at WEALTH_FLOOR so gradients
        stay finite."""
        xf = x.clip_floor(WEALTH_FLOOR)
        if self.p == 1.0:
            return xf.log()
        q = 1.0 - self.p
        if self.shifted:
            return (xf ** q - 1.0) * (1.0 / q)
        return xf ** q * (1.0 / q)


PENALTY_KINDS = ("additive", "multiplicative", "vol", "pathwise")


@dataclass(frozen=True)
class PenaltySpec:
    """Which penalty functional is active, its scalings and references.

    ``lam1`` scales the volatility-side term, ``lam2`` the drift-side term.
    ``mu_ref``/``cov_ref`` anchor the instantaneous penalties; path-wise
    references Sigma_ref*T and exp(mu_ref*T) are derived per grid.
    ``vol_ref`` is the scalar reference for kind="vol" (d=1 only).
    """

    kind: str
    lam1: float
    lam2: float
    mu_ref: np.ndarray
    cov_ref: np.ndarray
    vol_ref: float | None = None

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.lam1 < 0 or self.lam2 < 0:
            raise ValueError("penalty scalings must be non-negative")
        object.__setattr__(self, "mu_ref", np.atleast_1d(np.asarray(self.mu_ref, float)))
        object.__setattr__(self, "cov_ref", np.atleast_2d(np.asarray(self.cov_ref, float)))
        if self.kind == "vol" and self.vol_ref is None:
            raise ValueError('kind="vol" needs a scalar vol_ref')

    @property
    def d(self) -> int:
        return self.mu_ref.shape[0]

    def qcv_ref(self, grid: TimeGrid) -> np.ndarray:
        """Quadratic covariation of reference log-prices: Sigma_ref * T."""
        return self.cov_ref * grid.horizon

    def arr_ref(self, grid: TimeGrid) -> np.ndarray:
        """Reference average relative return exp(mu_ref * T), per asset."""
        return np.exp(self.mu_ref * grid.horizon)


class PathPenalty(NamedTuple):
    qcv: object  # lam1-scaled quadratic-covariation term
    arr: object  # lam2-scaled relative-return term
    total: object


def _ensure_batched(x, unbatched_ndim: int):
    """Insert a batch axis in front of (N, ...) shaped per-step data."""
    if raw(x).ndim == unbatched_ndim:
        return x.reshape((1,) + raw(x).shape)
    return x


def penalty_instant(spec: PenaltySpec, cov_steps, mu_steps, grid: TimeGrid):
    """Riemann-sum instantaneous penalty, averaged over the batch.

    ``cov_steps`` has shape (N, d, d) or (B, N, d, d); ``mu_steps``
    (N, d) or (B, N, d).  Returns lam1 * sum_n F(Sigma_n) dt_n
    + lam2 * sum_n ||mu_n - mu_ref||^2 dt_n with F additive or
    multiplicative.
    """
    if spec.kind not in ("additive", "multiplicative"):
        raise ValueError(f"penalty_instant expects an instantaneous kind, got {spec.kind!r}")
    cov_steps = _ensure_batched(cov_steps, 3)
    mu_steps = _ensure_batched(mu_steps, 2)
    b, n, d = raw(mu_steps).shape
    dt = grid.dt
    if spec.kind == "additive":
        dev = cov_steps - spec.cov_ref
    else:
        inv = np.linalg.inv(spec.cov_ref)
        prod = (cov_steps.reshape((b, n, d, d, 1))
                * inv[None, None, None, :, :]).sum(axis=3)
        dev = prod - np.eye(d)
    vol_term = ((dev * dev).sum(axis=(2, 3)) * dt).sum(axis=1)
    mu_dev = mu_steps - spec.mu_ref
    mu_term = ((mu_dev * mu_dev).sum(axis=2) * dt).sum(axis=1)
    return (vol_term * spec.lam1 + mu_term * spec.lam2).mean(axis=0)


def penalty_instant_vol(spec: PenaltySpec, vol_steps, grid: TimeGrid):
    """Scalar-vol penalty lam1 * sum_n (sigma_n - sigma_ref)^2 dt_n (d=1)."""
    if spec.kind != "vol":
        raise ValueError("penalty_instant_vol needs kind='vol'")
    vol_steps = _ensure_batched(vol_steps, 1)
    dev = vol_steps - spec.vol_ref
    return (dev * dev * grid.dt).sum(axis=1).mean(axis=0) * spec.lam1


def penalty_pathwise(spec: PenaltySpec, s_paths, grid: TimeGrid) -> PathPenalty:
    """Path-functional penalty of a batch of price paths (B, N+1, d).

    The quadratic-covariation term is per path and averaged over the batch;
    the relative-return term is a single batch-level value, so its gradient
    couples paths within the batch by construction.

    Batch means are taken as a sum times 1/B, as ``Tensor.mean`` takes them,
    so the value is that of the generic-op composition bit for bit.  On a
    Tensor, ``total`` is one graph node with a hand-written adjoint and
    ``qcv``/``arr`` are its terms as plain values.
    """
    s = raw(s_paths)
    b, n1, d = s.shape
    n = n1 - 1
    if b == 0:
        raise ValueError("penalty_pathwise needs a nonempty batch")
    if np.any(s <= 0):
        raise ValueError("path-wise penalties need strictly positive prices")
    ln_s = np.log(s)
    inc = ln_s[:, 1:, :] - ln_s[:, :-1, :]
    qcv = np.sum(inc[:, :, :, None] * inc[:, :, None, :], axis=1)
    qdev = qcv - spec.qcv_ref(grid)
    r1 = np.sum(qdev * qdev, axis=(1, 2)).sum(axis=0) * (1.0 / b) * spec.lam1
    rel = s[:, n, :] / s[:, 0, :]
    adev = rel.sum(axis=0) * (1.0 / b) - spec.arr_ref(grid)
    r2 = np.sum(adev * adev) * spec.lam2
    if not isinstance(s_paths, Tensor):
        return PathPenalty(qcv=r1, arr=r2, total=r1 + r2)
    total = Tensor(r1 + r2, (s_paths,))

    def bk(g, s_paths=s_paths):
        g = float(g)
        # qcv term: d/dqcv of lam1 mean_b |qdev|_F^2, then through the
        # products of log increments and the logs
        g_q = qdev * (2.0 * g * spec.lam1 / b)
        g_q += g_q.transpose(0, 2, 1).copy()  # now symmetric
        g_inc = inc @ g_q
        g_s = np.zeros_like(s)
        g_s[:, 1:, :] += g_inc
        g_s[:, :-1, :] -= g_inc
        g_s /= s
        # arr term: lam2 |mean_b S_N / S_0 - arr_ref|^2
        g_rel = adev * (2.0 * g * spec.lam2 / b)
        g_s[:, n, :] += g_rel / s[:, 0, :]
        g_s[:, 0, :] -= g_rel * rel / s[:, 0, :]
        _acc(s_paths, g_s, True)

    total._bk = bk
    return PathPenalty(qcv=r1, arr=r2, total=total)
