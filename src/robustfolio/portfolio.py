"""Wealth evolution under a trading policy with transaction costs.

The recursion charges proportional costs on the traded value and a base
cost per executed trade, both accrued at the risk-free rate over the step:

    A_n   = |X_n pi_n / S_n  -  H_{n-1}|               (per asset)
    C_n   = (1 + r dt) * sum_i (A_n^i S_n^i c_prop + c_base 1{A_n^i > 0})
    X_n+1 = X_n + sum_i H_n^i dS^i + (1 - sum_i pi_n^i) X_n r dt - C_n

with holdings H_n = X_n pi_n / S_n.  The first step is measured against an
all-cash start (H_{-1} = 0), so the initial purchase is charged.  Negative
wealth is allowed; the path is flagged as defaulted at the first X <= 0.

`step_wealth` runs on plain arrays.  Training differentiates through it
with `autodiff.euler_wealth_step`, which calls it for its forward pass and
holds the hand-written adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

from .market import PathBatch, sum_columns

TRADE_TOL = 1e-12  # float noise must not trigger base costs


@dataclass(frozen=True)
class CostSpec:
    c_prop: float = 0.0  # fraction of traded value
    c_base: float = 0.0  # currency per executed trade

    def __post_init__(self):
        if self.c_prop < 0 or self.c_base < 0:
            raise ValueError("transaction costs must be non-negative")

    @property
    def frictionless(self) -> bool:
        return self.c_prop == 0.0 and self.c_base == 0.0


def step_wealth(x, pi, h_prev, s, ds, rate: float, dt: float, costs: CostSpec):
    """One step of the friction wealth recursion.

    Args:
        x: wealth at t_n, shape (B,).
        pi: portfolio weights chosen at t_n, shape (B, d).
        h_prev: holdings carried into t_n (0 for the all-cash start), (B, d).
        s: prices at t_n, shape (B, d); ds: price increments to t_{n+1}.
        rate, dt: risk-free rate and step size.

    Returns:
        (x_next, holdings, traded, cost) with shapes ((B,), (B,d), (B,d), (B,)).
    """
    h = x[:, None] * pi / s
    traded = np.abs(h - h_prev)
    risky = sum_columns(h * ds)
    bank = (1.0 - sum_columns(pi)) * x * (rate * dt)
    if costs.frictionless:
        cost = 0.0
        x_next = x + risky + bank
    else:
        n_trades = (traded > TRADE_TOL).astype(np.float64)
        per_asset = traded * s * costs.c_prop + n_trades * costs.c_base
        cost = sum_columns(per_asset) * (1.0 + rate * dt)
        x_next = x + risky + bank - cost
    return x_next, h, traded, cost


class Policy(Protocol):
    """Trading strategy on observable state only (t, prices, wealth)."""

    def reset(self, n_paths: int) -> Any:
        """Initial carried state (None for stateless policies)."""

    def weights(self, n: int, t: float, s: np.ndarray, x: np.ndarray,
                state: Any) -> tuple[np.ndarray, Any]:
        """Portfolio weights at step n; returns (pi (B, d), new state)."""


class CashPolicy:
    "Everything in the bank account."

    def reset(self, n_paths):
        return None

    def weights(self, n, t, s, x, state):
        return np.zeros_like(s), None


class ConstantWeightPolicy:
    "Fixed weight vector, rebalanced every step."

    def __init__(self, weights):
        self.w = np.atleast_1d(np.asarray(weights, dtype=np.float64))

    def reset(self, n_paths):
        return None

    def weights(self, n, t, s, x, state):
        return np.broadcast_to(self.w, s.shape), None


@dataclass
class WealthLedger:
    """Per-path record of one policy roll-out (views of step-major buffers)."""

    x: np.ndarray  # (B, N+1) portfolio values
    weights: np.ndarray  # (B, N, d)
    holdings: np.ndarray  # (B, N, d)
    traded: np.ndarray  # (B, N, d)
    step_costs: np.ndarray  # (B, N)
    defaulted: np.ndarray  # (B,) bool
    default_step: np.ndarray  # (B,) first n with X_{t_n} <= 0, else -1

    @property
    def terminal(self) -> np.ndarray:
        return self.x[:, -1]


def roll_out(policy: Policy, paths: PathBatch, x0: float, rate: float,
             costs: CostSpec) -> WealthLedger:
    """Evolve wealth along simulated paths under a policy.

    The policy sees only (step, time, current prices, current wealth) plus
    whatever state it carries itself.  Simulation continues after a default
    so the full trajectory is available; the flag marks the first hit.
    Storage is step-major: each step reads its prices once from
    ``paths.s.transpose(1, 0, 2)`` (contiguous for Euler and GARCH paths)
    and writes contiguous rows of (N+1, B) and (N, B, d) ledger buffers;
    the returned fields are their transposed views, shaped (B, ...).
    """
    grid = paths.grid
    b, d = paths.n_paths, paths.d
    n_steps = grid.n_steps
    times = grid.times
    s_steps = paths.s.transpose(1, 0, 2)
    x = np.full(b, float(x0))
    h_prev = np.zeros((b, d))
    ledger_x = np.empty((n_steps + 1, b))
    ledger_x[0] = x
    w_rec = np.empty((n_steps, b, d))
    h_rec = np.empty((n_steps, b, d))
    a_rec = np.empty((n_steps, b, d))
    c_rec = np.empty((n_steps, b))
    default_step = np.full(b, -1, dtype=np.int64)
    state = policy.reset(b)
    s_n = s_steps[0]
    for n in range(n_steps):
        pi, state = policy.weights(n, times[n], s_n, x, state)
        pi = np.asarray(pi, dtype=np.float64)
        if not np.all(np.isfinite(pi)):
            bad = int(np.flatnonzero(~np.isfinite(pi).all(axis=1))[0])
            raise ValueError(f"policy produced non-finite weights on path {bad} at step {n}")
        s_next = s_steps[n + 1]
        x, h_prev, traded, cost = step_wealth(x, pi, h_prev, s_n, s_next - s_n,
                                              rate, grid.dt[n], costs)
        ledger_x[n + 1] = x
        w_rec[n] = pi
        h_rec[n] = h_prev
        a_rec[n] = traded
        c_rec[n] = cost
        newly = (x <= 0) & (default_step < 0)
        default_step[newly] = n + 1
        s_n = s_next
    return WealthLedger(x=ledger_x.T, weights=w_rec.transpose(1, 0, 2),
                        holdings=h_rec.transpose(1, 0, 2),
                        traded=a_rec.transpose(1, 0, 2), step_costs=c_rec.T,
                        defaulted=default_step >= 0, default_step=default_step)
