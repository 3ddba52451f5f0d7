"""GARCH(1,1) fitting, noisy-parameter pools, and simulation.

Multivariate handling follows the two-stage recipe: fit a univariate
Gaussian GARCH(1,1) per coordinate by maximum likelihood, then couple the
coordinates through the correlation matrix of the standardized residuals
(a Gaussian copula at simulation time).  Parameters are per grid step, so
fitting and simulation must share the same step convention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter

from .market import MarketError, PathBatch, TimeGrid, repair_psd

# columns of the standard-error table
SE_MEAN, SE_OMEGA, SE_ALPHA, SE_BETA = 0, 1, 2, 3

_STATIONARITY_CAP = 1.0 - 1e-6


class GarchFitError(RuntimeError):
    """Likelihood optimization failed; carries the optimizer diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class GarchModel:
    """Per-coordinate GARCH(1,1) parameters plus residual correlation.

    ``std_err`` has one row per coordinate with columns
    (mean, omega, alpha, beta); entries may be NaN when the observed
    information was not invertible.
    """

    omega: np.ndarray  # (d,)
    alpha: np.ndarray  # (d,)
    beta: np.ndarray  # (d,)
    mean: np.ndarray  # (d,)
    resid_corr: np.ndarray  # (d, d)
    std_err: np.ndarray  # (d, 4)
    clamped: bool = False

    def __post_init__(self):
        for name in ("omega", "alpha", "beta", "mean"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), float)))
        object.__setattr__(self, "resid_corr", np.atleast_2d(np.asarray(self.resid_corr, float)))
        object.__setattr__(self, "std_err", np.atleast_2d(np.asarray(self.std_err, float)))
        if np.any(self.omega <= 0):
            raise MarketError("omega must be positive")
        if np.any(self.alpha < 0) or np.any(self.beta < 0):
            raise MarketError("alpha and beta must be non-negative")
        if np.any(self.alpha + self.beta >= 1.0):
            raise MarketError("stationarity requires alpha + beta < 1")
        c = self.resid_corr
        if not np.allclose(c, c.T) or not np.allclose(np.diag(c), 1.0):
            raise MarketError("residual correlation must be symmetric with unit diagonal")
        if np.linalg.eigvalsh(0.5 * (c + c.T)).min() < -1e-10:
            raise MarketError("residual correlation must be PSD")

    @property
    def d(self) -> int:
        return self.omega.shape[0]

    @property
    def uncond_var(self) -> np.ndarray:
        return self.omega / (1.0 - self.alpha - self.beta)


def _filter_variance(x: np.ndarray, m: float, omega: float, alpha: float,
                     beta: float) -> np.ndarray:
    """Conditional variances h_t for t=0..T-1 with h_0 = sample variance."""
    e2 = (x - m) ** 2
    h0 = max(float(np.var(x)), 1e-12)
    if len(x) == 1:
        return np.array([h0])
    drive = omega + alpha * e2[:-1]
    tail, _ = lfilter([1.0], [1.0, -beta], drive, zi=np.array([beta * h0]))
    return np.concatenate([[h0], tail])


def _neg_loglik(x: np.ndarray, m: float, omega: float, alpha: float,
                beta: float) -> float:
    h = _filter_variance(x, m, omega, alpha, beta)
    if np.any(h <= 0) or not np.all(np.isfinite(h)):
        return np.inf
    e2 = (x - m) ** 2
    return 0.5 * float(np.sum(np.log(2.0 * np.pi) + np.log(h) + e2 / h))


def _fit_univariate(x: np.ndarray):
    """MLE of (mean, omega, alpha, beta) for one coordinate.

    Optimizes in a box-constrained parametrization (mean, log omega,
    persistence s = alpha+beta, mix a = alpha/s) so stationarity is a plain
    bound; standard errors come from the observed information in the
    original parametrization.
    """
    var = max(float(np.var(x)), 1e-12)

    def unpack(p):
        m, w, s, a = p
        omega = np.exp(w)
        return m, omega, s * a, s * (1.0 - a)

    def obj(p):
        return _neg_loglik(x, *unpack(p))

    p0 = np.array([float(np.mean(x)), np.log(var * 0.1), 0.9, 0.1 / 0.9])
    bounds = [(None, None), (np.log(1e-16), np.log(max(var * 100.0, 1e-10))),
              (0.0, _STATIONARITY_CAP), (0.0, 1.0)]
    res = minimize(obj, p0, method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": 500})
    if not np.isfinite(res.fun):
        raise GarchFitError("GARCH likelihood optimization diverged", diagnostics=res)
    if not res.success and res.status != 1:  # status 1 = iteration cap
        raise GarchFitError(f"GARCH likelihood optimization failed: {res.message}",
                            diagnostics=res)
    m, omega, alpha, beta = unpack(res.x)
    clamped = False
    if alpha + beta >= _STATIONARITY_CAP:
        scale = _STATIONARITY_CAP / (alpha + beta)
        alpha, beta = alpha * scale, beta * scale
        clamped = True

    # when alpha = 0 the persistence is unidentified (any beta with
    # omega = (1-beta) var fits identically); prefer plain white noise
    # unless the GARCH terms buy more than their AIC penalty
    m_flat = float(np.mean(x))
    flat = (m_flat, max(float(np.var(x)), 1e-12), 0.0, 0.0)
    if _neg_loglik(x, *flat) - _neg_loglik(x, m, omega, alpha, beta) <= 2.0:
        m, omega, alpha, beta = flat

    # observed information: numerical Hessian of the negative log-likelihood
    theta = np.array([m, omega, alpha, beta])
    steps = np.maximum(np.abs(theta) * 1e-4, 1e-7)

    def nll(t):
        return _neg_loglik(x, *t)

    hess = np.empty((4, 4))
    f0 = nll(theta)
    for i in range(4):
        for j in range(i, 4):
            ei = np.zeros(4)
            ej = np.zeros(4)
            ei[i] = steps[i]
            ej[j] = steps[j]
            if i == j:
                val = (nll(theta + ei) - 2.0 * f0 + nll(theta - ei)) / steps[i] ** 2
            else:
                val = (nll(theta + ei + ej) - nll(theta + ei - ej)
                       - nll(theta - ei + ej) + nll(theta - ei - ej)) / (4.0 * steps[i] * steps[j])
            hess[i, j] = hess[j, i] = val
    se = np.full(4, np.nan)
    try:
        cov = np.linalg.inv(hess)
        diag = np.diag(cov)
        se = np.where(diag > 0, np.sqrt(np.abs(diag)), np.nan)
    except np.linalg.LinAlgError:
        pass

    h = _filter_variance(x, m, omega, alpha, beta)
    std_resid = (x - m) / np.sqrt(h)
    return (m, omega, alpha, beta), se, std_resid, clamped


def fit_garch(returns: np.ndarray) -> GarchModel:
    """Fit a GARCH(1,1) per coordinate of a (T, d) log-return series."""
    x = np.atleast_2d(np.asarray(returns, dtype=np.float64))
    if x.ndim != 2:
        raise MarketError("returns must be a (T, d) array")
    if x.shape[0] < x.shape[1]:
        x = x.T  # tolerate (d, T) input
    t_obs, d = x.shape
    if t_obs < 100:
        raise MarketError("need at least 100 observations per coordinate")
    params = np.empty((d, 4))
    ses = np.empty((d, 4))
    resids = np.empty((t_obs, d))
    clamped = False
    for k in range(d):
        (m, omega, alpha, beta), se, z, cl = _fit_univariate(x[:, k])
        params[k] = (m, omega, alpha, beta)
        ses[k] = se
        resids[:, k] = z
        clamped |= cl
    corr = np.corrcoef(resids, rowvar=False) if d > 1 else np.ones((1, 1))
    corr = np.atleast_2d(corr)
    np.fill_diagonal(corr, 1.0)
    return GarchModel(omega=params[:, 1], alpha=params[:, 2], beta=params[:, 3],
                      mean=params[:, 0], resid_corr=corr, std_err=ses, clamped=clamped)


def _valid_coord(omega, alpha, beta) -> str | None:
    if omega <= 0:
        return "omega"
    if alpha < 0:
        return "alpha"
    if beta < 0:
        return "beta"
    if alpha + beta > _STATIONARITY_CAP:
        return "alpha+beta"
    return None


def make_noisy_garch_pool(model: GarchModel, se_factor: float, corr_std: float,
                          n_pool: int, seed: int,
                          max_retries: int = 100) -> list[GarchModel]:
    """Perturb fitted parameters and correlations into a scenario pool.

    Each parameter is jittered with std = se_factor times its standard
    error; correlation entries with std corr_std (then symmetrized and
    PSD-projected).  Invalid parameter draws are re-sampled per coordinate,
    up to ``max_retries`` times.
    """
    if se_factor < 0 or corr_std < 0:
        raise MarketError("noise factors must be non-negative")
    se = np.nan_to_num(model.std_err, nan=0.0)
    d = model.d
    pool = []
    for j in range(n_pool):
        rng = np.random.default_rng([seed, j])
        mean = model.mean.copy()
        omega = model.omega.copy()
        alpha = model.alpha.copy()
        beta = model.beta.copy()
        for k in range(d):
            for attempt in range(max_retries + 1):
                draw = rng.standard_normal(4)
                m = model.mean[k] + se_factor * se[k, SE_MEAN] * draw[0]
                o = model.omega[k] + se_factor * se[k, SE_OMEGA] * draw[1]
                a = model.alpha[k] + se_factor * se[k, SE_ALPHA] * draw[2]
                b = model.beta[k] + se_factor * se[k, SE_BETA] * draw[3]
                bad = _valid_coord(o, a, b)
                if bad is None:
                    mean[k], omega[k], alpha[k], beta[k] = m, o, a, b
                    break
            else:
                raise MarketError(
                    f"could not draw a valid GARCH scenario: parameter {bad!r} "
                    f"of coordinate {k} kept leaving its domain")
        corr = model.resid_corr.copy()
        if corr_std > 0 and d > 1:
            noise = rng.standard_normal((d, d))
            low = np.tril(noise, -1)
            corr = corr + corr_std * (low + low.T)
            corr = repair_psd(corr)
            scale = np.sqrt(np.diag(corr))
            corr = corr / np.outer(scale, scale)
            np.fill_diagonal(corr, 1.0)
        pool.append(replace(model, mean=mean, omega=omega, alpha=alpha, beta=beta,
                            resid_corr=corr))
    return pool


def _correlated_normals(rng, corr: np.ndarray, shape) -> np.ndarray:
    chol = np.linalg.cholesky(repair_psd(corr))
    z = rng.standard_normal(shape)
    return z @ chol.T


def _garch_paths(grid: TimeGrid, s0, z: np.ndarray, mean, omega, alpha, beta,
                 h: np.ndarray) -> PathBatch:
    """Run the GARCH(1,1) recursion on correlated normals z of shape (B, N, d).

    The per-step parameters are (d,) or (B, d) and broadcast against each
    step's (B, d) slice; h is the (B, d) starting variance.  Prices are
    stored step-major, as in ``simulate_euler``.
    """
    b, n, d = z.shape
    s = np.empty((n + 1, b, d))
    s[0] = np.broadcast_to(np.atleast_1d(np.asarray(s0, float)), (d,))
    for k in range(n):
        eps = np.sqrt(h) * z[:, k, :]
        np.multiply(s[k], np.exp(mean + eps), out=s[k + 1])
        h = omega + alpha * eps ** 2 + beta * h
    return PathBatch(grid=grid, s=s.transpose(1, 0, 2), floored=np.zeros(b, dtype=bool))


def simulate_garch(model: GarchModel, grid: TimeGrid, s0, n_paths: int,
                   seed: int) -> PathBatch:
    """Price paths S[n+1] = S[n] * exp(r_n) with GARCH log-returns r_n.

    Parameters are per grid step (no annualization); the cross-coordinate
    coupling is a Gaussian copula via the residual correlation matrix.
    """
    rng = np.random.default_rng(seed)
    z = _correlated_normals(rng, model.resid_corr, (n_paths, grid.n_steps, model.d))
    return _garch_paths(grid, s0, z, model.mean, model.omega, model.alpha,
                        model.beta, np.tile(model.uncond_var, (n_paths, 1)))


def simulate_garch_pool_single_paths(models: list[GarchModel], grid: TimeGrid,
                                     s0, seed: int) -> PathBatch:
    """One path per pool model, vectorized across the pool."""
    rng = np.random.default_rng(seed)
    chols = np.stack([np.linalg.cholesky(repair_psd(m.resid_corr)) for m in models])
    z = rng.standard_normal((len(models), grid.n_steps, models[0].d))
    z = np.einsum("jik,jnk->jni", chols, z)
    params = [np.stack([getattr(m, name) for m in models])
              for name in ("mean", "omega", "alpha", "beta", "uncond_var")]
    return _garch_paths(grid, s0, z, *params)
