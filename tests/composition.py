"""Reference compositions of generic autodiff ops for the fused training nodes.

These are the episode's arithmetic written with the engine's generic ops,
one node per operation.  The tests hold the fused nodes to them: the same
values bit for bit, and gradients within rounding.
"""

from __future__ import annotations

import numpy as np

from robustfolio.autodiff import Tensor, raw
from robustfolio.market import PRICE_FLOOR
from robustfolio.portfolio import TRADE_TOL


def _as_tensor_sum(t, axis):
    return t.sum(axis=axis) if isinstance(t, Tensor) else np.sum(t, axis=axis)


def step_wealth_composition(x, pi, h_prev, s, ds, rate, dt, costs):
    """``portfolio.step_wealth`` on Tensors: (x_next, holdings, traded, cost).

    On plain arrays every row sum is an ``np.sum``: the form the roll-outs
    used before ``portfolio.sum_columns``."""
    b = raw(x).shape[0]
    xc = x.reshape((b, 1)) if isinstance(x, Tensor) else np.reshape(x, (b, 1))
    h = xc * pi / s
    diff = h - h_prev
    traded = diff.abs() if isinstance(diff, Tensor) else np.abs(diff)
    risky = _as_tensor_sum(h * ds, 1)
    bank = (1.0 - _as_tensor_sum(pi, 1)) * x * (rate * dt)
    if costs.frictionless:
        cost = 0.0
        x_next = x + risky + bank
    else:
        n_trades = (raw(traded) > TRADE_TOL).astype(np.float64)
        per_asset = traded * s * costs.c_prop + n_trades * costs.c_base
        cost = _as_tensor_sum(per_asset, 1) * (1.0 + rate * dt)
        x_next = x + risky + bank - cost
    return x_next, h, traded, cost


def euler_wealth_composition(s, x, pi, h_prev, mu, sigma, dw_n, dt_n, rate, costs):
    """The price and wealth step of ``forward_episode`` as generic ops, with
    wealth of shape (B,): returns (s_next, x_next, h)."""
    b, d = raw(s).shape
    drift = s * mu * dt_n
    diffusion = (s.reshape((b, d, 1)) * sigma * dw_n[:, None, :]).sum(axis=2)
    ds = drift + diffusion
    x_next, h, _, _ = step_wealth_composition(x, pi, h_prev, s, ds, rate, dt_n,
                                              costs)
    return (s + ds).clip_floor(PRICE_FLOOR), x_next, h


def penalty_pathwise_composition(spec, s_paths: Tensor, grid) -> Tensor:
    """Total of ``utility.penalty_pathwise`` on a Tensor, as generic ops."""
    b, n1, d = raw(s_paths).shape
    n = n1 - 1
    ln_s = s_paths.log()
    inc = ln_s[:, 1:, :] - ln_s[:, :-1, :]
    qcv = (inc.reshape((b, n, d, 1)) * inc.reshape((b, n, 1, d))).sum(axis=1)
    qdev = qcv - spec.qcv_ref(grid)
    r1 = (qdev * qdev).sum(axis=(1, 2)).mean(axis=0) * spec.lam1
    rel = s_paths[:, n, :] / s_paths[:, 0, :]
    adev = rel.mean(axis=0) - spec.arr_ref(grid)
    r2 = (adev * adev).sum() * spec.lam2
    return r1 + r2

