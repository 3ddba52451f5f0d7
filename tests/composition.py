"""Reference forms that the optimized code is held to, bit for bit.

The first part is the episode's arithmetic written with the engine's
generic ops, one node per operation: the fused training nodes must give
the same values and gradients within rounding.  The second part is the
path-major Euler, GARCH and roll-out recursions that step-major storage
replaced: one strided (B, d) column per step, every price and ledger
array allocated as (B, ...).
"""

from __future__ import annotations

import numpy as np

from robustfolio.autodiff import Tensor, raw
from robustfolio.market import PRICE_FLOOR, MarketError, PathBatch
from robustfolio.portfolio import TRADE_TOL, WealthLedger, step_wealth


def _as_tensor_sum(t, axis):
    return t.sum(axis=axis) if isinstance(t, Tensor) else np.sum(t, axis=axis)


def step_wealth_composition(x, pi, h_prev, s, ds, rate, dt, costs):
    """``portfolio.step_wealth`` on Tensors: (x_next, holdings, traded, cost).

    On plain arrays every row sum is an ``np.sum``: the form the roll-outs
    used before ``market.sum_columns``."""
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



def simulate_euler_path_major(grid, params, s0, increments) -> PathBatch:
    """``market.simulate_euler`` with (B, N+1, d) prices and the (B, d, d)
    diffusion product summed by ``np.sum``."""
    s0 = np.atleast_1d(np.asarray(s0, dtype=np.float64))
    b, n_steps, d = increments.z.shape
    dw = increments.z * np.sqrt(grid.dt)[None, :, None]
    s = np.empty((b, n_steps + 1, d), dtype=np.float64)
    s[:, 0, :] = s0
    floored = np.zeros(b, dtype=bool)
    for n in range(n_steps):
        mu_n, sig_n = params.at(n)
        mu_n = np.asarray(mu_n, dtype=np.float64)
        sig_n = np.asarray(sig_n, dtype=np.float64)
        if not (np.all(np.isfinite(mu_n)) and np.all(np.isfinite(sig_n))):
            raise MarketError(f"non-finite market parameters at step {n}")
        sn = s[:, n, :]
        drift = sn * mu_n * grid.dt[n]
        diffusion = ((sn[:, :, None] * sig_n) * dw[:, n, None, :]).sum(axis=2)
        nxt = sn + drift + diffusion
        low = nxt <= PRICE_FLOOR
        if low.any():
            floored |= low.any(axis=1)
            nxt = np.maximum(nxt, PRICE_FLOOR)
        s[:, n + 1, :] = nxt
    return PathBatch(grid=grid, s=s, floored=floored)


def garch_paths_path_major(grid, s0, z, mean, omega, alpha, beta, h) -> PathBatch:
    """``garch._garch_paths`` with (B, N+1, d) prices."""
    b, n, d = z.shape
    s = np.empty((b, n + 1, d))
    s[:, 0, :] = np.broadcast_to(np.atleast_1d(np.asarray(s0, float)), (d,))
    for k in range(n):
        eps = np.sqrt(h) * z[:, k, :]
        s[:, k + 1, :] = s[:, k, :] * np.exp(mean + eps)
        h = omega + alpha * eps ** 2 + beta * h
    return PathBatch(grid=grid, s=s, floored=np.zeros(b, dtype=bool))


def roll_out_path_major(policy, paths, x0, rate, costs) -> WealthLedger:
    """``portfolio.roll_out`` with its ledger allocated as (B, N+1) and
    (B, N, d) arrays, written one column per step."""
    grid = paths.grid
    b, d = paths.n_paths, paths.d
    n_steps = grid.n_steps
    x = np.full(b, float(x0))
    h_prev = np.zeros((b, d))
    ledger_x = np.empty((b, n_steps + 1))
    ledger_x[:, 0] = x
    w_rec = np.empty((b, n_steps, d))
    h_rec = np.empty((b, n_steps, d))
    a_rec = np.empty((b, n_steps, d))
    c_rec = np.empty((b, n_steps))
    default_step = np.full(b, -1, dtype=np.int64)
    state = policy.reset(b)
    for n in range(n_steps):
        s_n = paths.s[:, n, :]
        pi, state = policy.weights(n, grid.times[n], s_n, x, state)
        pi = np.asarray(pi, dtype=np.float64)
        ds = paths.s[:, n + 1, :] - s_n
        x, h_prev, traded, cost = step_wealth(x, pi, h_prev, s_n, ds, rate,
                                              grid.dt[n], costs)
        ledger_x[:, n + 1] = x
        w_rec[:, n] = pi
        h_rec[:, n] = h_prev
        a_rec[:, n] = traded
        c_rec[:, n] = cost if np.ndim(cost) else 0.0
        newly = (x <= 0) & (default_step < 0)
        default_step[newly] = n + 1
    return WealthLedger(x=ledger_x, weights=w_rec, holdings=h_rec, traded=a_rec,
                        step_costs=c_rec, defaulted=default_step >= 0,
                        default_step=default_step)
