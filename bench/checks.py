"""Correctness checks the benchmark runs on each workload's outputs.

Every check returns ``(name, ok, detail)``.  Anchors are computed here
from the model, not taken from the program: cash wealth compounds at
(1 + r dt) per step; for frictionless log utility with constant weights pi
in a market (mu_n, Sigma_n) the Euler wealth recursion gives

    E[X_N] = x0 prod_n (1 + (r + pi.(mu_n - r)) dt_n)
    E[log X_N] = log x0 + sum_n (r + pi.(mu_n - r) - pi' Sigma_n pi / 2) dt_n
                 + O(dt^2)

and the fully robust saddle point solves Sigma pi = mu - r,
Sigma = pi pi' / (4 lam1) + Sigma_ref, pi = 2 lam2 (mu_ref - mu).
"""

from __future__ import annotations

import csv
import math
import zipfile

import numpy as np

N_SE = 4.0  # "within a few standard errors"


def read_report(path) -> dict[str, dict]:
    """report.csv as {strategy: {column: float}}."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {r["strategy"]: {k: float(v) for k, v in r.items() if k != "strategy"}
            for r in rows}


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# ----------------------------------------------------------------------
# training outputs
# ----------------------------------------------------------------------
def check_metrics_csv(path, epochs: int):
    """One finite metrics.csv row per epoch, in epoch order."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = [[float(v) for v in r.values()] for r in rows]
    except (OSError, ValueError) as exc:
        return "metrics_rows", False, f"unreadable metrics.csv: {exc}"
    epochs_seen = [int(r["epoch"]) for r in rows]
    ok = (epochs_seen == list(range(epochs))
          and all(_finite(*row) for row in values))
    return "metrics_rows", ok, f"{len(rows)} rows for {epochs} epochs"


def check_checkpoint(path, epochs: int):
    """The latest checkpoint loads, is at the last epoch and is finite."""
    from robustfolio.nets import load_checkpoint

    try:
        gen, disc, meta = load_checkpoint(path)
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        return "checkpoint_last_epoch", False, f"cannot load: {exc}"
    nets = [ps for ps in (gen, disc) if ps is not None]
    ok = (meta.get("epoch") == epochs - 1 and gen is not None
          and meta.get("gen_params") == gen.n_params
          and all(np.all(np.isfinite(a)) for ps in nets for a in ps.arrays.values()))
    return "checkpoint_last_epoch", ok, f"epoch {meta.get('epoch')} of {epochs}"


def check_gradient(pairs, rtol: float = 1e-4, atol: float = 1e-8):
    """Reverse-mode and central-difference gradients agree coordinatewise.

    ``pairs`` is a list of (label, reverse_mode, central_differences), the
    differences taken at shrinking steps.  The loss is piecewise smooth, so
    a step that straddles a kink misses the derivative at the point while a
    smaller one does not: a coordinate agrees when any of its differences
    agrees with reverse mode.
    """
    worst, worst_label = 0.0, ""
    for label, ad, fds in pairs:
        err = min(abs(ad - fd) / (atol + rtol * max(abs(ad), abs(fd))) for fd in fds)
        if not math.isfinite(err) or err > worst:
            worst, worst_label = err, label
    ok = bool(pairs) and worst <= 1.0
    return ("gradient_matches_fd", ok,
            f"{len(pairs)} coordinates, worst {worst:.3g} of tolerance at {worst_label}")


# ----------------------------------------------------------------------
# report anchors
# ----------------------------------------------------------------------
def check_exact(name, value: float, target: float, tol: float = 1e-10):
    ok = _finite(value) and abs(value - target) <= tol * max(1.0, abs(target))
    return name, ok, f"{value:.15g} vs {target:.15g}"


def check_within_se(name, value: float, se: float, target: float, k: float = N_SE):
    ok = _finite(value, se, target) and se > 0 and abs(value - target) <= k * se
    gap = abs(value - target) / se if se > 0 else float("inf")
    return name, ok, f"{value:.6g} vs {target:.6g}: {gap:.2f} standard errors"


def check_row_finite(name, row: dict, fields):
    bad = [f for f in fields if not _finite(row.get(f, float("nan")))]
    ok = not bad and row.get("n_defaults", 1) == 0
    return name, ok, f"non-finite {bad}, defaults {row.get('n_defaults')}"


def check_greater(name, a: float, b: float):
    return name, _finite(a, b) and a > b, f"{a:.8g} > {b:.8g}"


def check_saddle(pi, mu, cov, mu_ref, cov_ref, rate: float, lam1: float,
                 lam2: float, tol: float = 1e-9):
    """The explicit weights solve the fully robust saddle equations."""
    pi, mu, mu_ref = (np.asarray(v, float) for v in (pi, mu, mu_ref))
    cov, cov_ref = np.asarray(cov, float), np.asarray(cov_ref, float)
    resid = max(np.max(np.abs(cov @ pi - (mu - rate))),
                np.max(np.abs(cov - (np.outer(pi, pi) / (4.0 * lam1) + cov_ref))),
                np.max(np.abs(pi - 2.0 * lam2 * (mu_ref - mu))))
    return "saddle_equations", bool(resid <= tol), f"max residual {resid:.3g}"


# ----------------------------------------------------------------------
# closed-form values
# ----------------------------------------------------------------------
def power_utility(x, p: float, shifted: bool):
    """(x^(1-p) - 1)/(1-p), without the -1 when not shifted; ln x at p = 1."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full(x.shape, -np.inf)
    ok = x > 0
    if p == 1.0:
        out[ok] = np.log(x[ok])
    else:
        q = 1.0 - p
        out[ok] = (x[ok] ** q - (1.0 if shifted else 0.0)) / q
    return out if out.ndim else float(out)


def cash_wealth(rate: float, dt: np.ndarray, x0: float = 1.0) -> float:
    return x0 * float(np.prod(1.0 + rate * np.asarray(dt)))


def constant_weight_wealth_mean(pi, mu, rate: float, dt, x0: float = 1.0) -> float:
    """Undiscounted E[X_N] of constant weights in a constant market."""
    growth = rate + float(np.dot(pi, np.asarray(mu) - rate))
    return x0 * float(np.prod(1.0 + growth * np.asarray(dt)))


def log_growth(pi, mu_steps, cov_steps, rate: float, dt) -> float:
    """sum_n (r + pi.(mu_n - r) - pi' Sigma_n pi / 2) dt_n.

    ``mu_steps`` is (N, d) and ``cov_steps`` (N, d, d); constants broadcast.
    """
    pi = np.asarray(pi, float)
    dt = np.asarray(dt, float)
    mu_steps = np.broadcast_to(mu_steps, (dt.size, pi.size))
    cov_steps = np.broadcast_to(cov_steps, (dt.size, pi.size, pi.size))
    drift = rate + (mu_steps - rate) @ pi
    var = np.einsum("i,nij,j->n", pi, cov_steps, pi)
    return float(np.sum((drift - 0.5 * var) * dt))
