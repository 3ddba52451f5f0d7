"""Asset-price simulation for every market model used in the experiments.

Covers the constant-parameter reference market, per-step noisy-parameter
scenario pools around it, Student-t log-return markets, and the shared
Euler path recursion.  GARCH markets live in :mod:`robustfolio.garch`.

Conventions
-----------
* Drift ``mu`` is per year, volatility ``sigma`` per square-root year.
* The Euler step uses the multiplicative (row-wise Hadamard) form

      S[n+1] = S[n] + (S[n] * mu_n) dt + (S[n,:,None] * sigma_n) @ dW

  so ``mu_n``/``sigma_n`` are *relative* parameters: row i of ``sigma_n``
  is scaled by asset i's price.
* Noise increments are stored as standard normals and scaled by sqrt(dt)
  only when consumed, so one dataset serves any compatible grid.
* Storage is step-major: the Euler recursion scales the increments into an
  (N, B, d) buffer and writes prices into an (N+1, B, d) one, so each step
  reads and writes contiguous (B, d) blocks.  ``PathBatch.s`` is a
  transposed view of that buffer with the path-major shape (B, N+1, d).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write

PRICE_FLOOR = 1e-8
SUM_COLUMNS_MAX = 8  # np.sum adds fewer columns than this one by one

_MAGIC = b"RGPN1"


class MarketError(ValueError):
    pass


# ----------------------------------------------------------------------
# grid / reference market
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TimeGrid:
    """Discretization of [0, T] into n_steps intervals."""

    horizon: float
    n_steps: int
    dt: np.ndarray = field(default=None)  # (n_steps,) step sizes, in years

    def __post_init__(self):
        if self.dt is None:
            object.__setattr__(
                self, "dt", np.full(self.n_steps, self.horizon / self.n_steps)
            )
        dt = np.asarray(self.dt, dtype=np.float64)
        object.__setattr__(self, "dt", dt)
        if dt.shape != (self.n_steps,):
            raise MarketError("dt must have one entry per step")
        if np.any(dt <= 0):
            raise MarketError("all step sizes must be positive")
        if not np.isclose(dt.sum(), self.horizon, rtol=1e-10, atol=1e-12):
            raise MarketError("step sizes must sum to the horizon")

    @classmethod
    def uniform(cls, horizon: float, n_steps: int) -> "TimeGrid":
        return cls(horizon=horizon, n_steps=n_steps)

    @property
    def times(self) -> np.ndarray:
        """Grid points t_0=0 .. t_N=T, shape (n_steps+1,)."""
        return np.concatenate([[0.0], np.cumsum(self.dt)])


@dataclass(frozen=True)
class ReferenceMarket:
    """Constant-parameter market anchoring penalties and evaluation pools.

    ``vol`` is a matrix square root of the covariance ``cov = vol @ vol.T``
    (a Cholesky factor when built from a covariance).
    """

    drift: np.ndarray  # (d,) per year
    vol: np.ndarray  # (d, d) per sqrt-year
    rate: float
    s0: np.ndarray  # (d,)

    def __post_init__(self):
        drift = np.atleast_1d(np.asarray(self.drift, dtype=np.float64))
        vol = np.atleast_2d(np.asarray(self.vol, dtype=np.float64))
        s0 = np.atleast_1d(np.asarray(self.s0, dtype=np.float64))
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "vol", vol)
        object.__setattr__(self, "s0", s0)
        d = drift.shape[0]
        if vol.shape != (d, d) or s0.shape != (d,):
            raise MarketError("inconsistent market dimensions")
        if np.any(s0 <= 0):
            raise MarketError("initial prices must be positive")
        if not np.all(np.isfinite(vol)) or not np.all(np.isfinite(drift)):
            raise MarketError("non-finite market parameters")

    @property
    def d(self) -> int:
        return self.drift.shape[0]

    @property
    def cov(self) -> np.ndarray:
        return self.vol @ self.vol.T

    def params(self) -> "ConstantParams":
        return ConstantParams(mu=self.drift, sigma=self.vol)


# ----------------------------------------------------------------------
# row sums of the Euler, wealth and training steps
# ----------------------------------------------------------------------
def sum_columns(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=-1)`` with the same bits, made cheap on short axes.

    Below ``SUM_COLUMNS_MAX`` columns numpy adds them left to right onto
    +0.0; this does the same with one vectorized add per column, which
    costs far less than a reduction call on a length-2 axis.  Longer axes
    go to ``np.sum``, which sums them pairwise.
    """
    d = a.shape[-1]
    if d >= SUM_COLUMNS_MAX:
        return np.sum(a, axis=-1)
    out = a[..., 0] + 0.0  # +0.0 turns a lone -0.0 into 0.0, as np.sum does
    for k in range(1, d):
        out += a[..., k]
    return out


def euler_diffusion(sigma: np.ndarray, dw: np.ndarray, s=None) -> np.ndarray:
    """The Euler step's diffusion ``sum_j (s_i sigma_ij) dw_j``, shape (B, d).

    ``sigma`` is (d, d) or (B, d, d), ``dw`` and ``s`` are (B, d); without
    ``s`` the price factor is left out.  The bits are those of
    ``np.sum((s[:, :, None] * sigma) * dw[:, None, :], axis=2)``, formed
    without the (B, d, d) product: below ``SUM_COLUMNS_MAX`` assets column j
    is ``(s * sigma[..., :, j]) * dw[:, j]``, added left to right onto +0.0
    as in ``sum_columns``; longer rows keep np.sum's pairwise form.
    """
    d = dw.shape[-1]
    if d >= SUM_COLUMNS_MAX:
        a = sigma if s is None else s[:, :, None] * sigma
        return np.sum(a * dw[:, None, :], axis=-1)

    def column(j):
        c = sigma[..., :, j] if s is None else s * sigma[..., :, j]
        return c * dw[:, j, None]

    out = column(0) + 0.0  # +0.0 turns a lone -0.0 into 0.0, as np.sum does
    for j in range(1, d):
        out += column(j)
    return out


# ----------------------------------------------------------------------
# driving noise
# ----------------------------------------------------------------------
def substream(seed: int, k: int) -> int:
    """Seed of the k-th independent substream derived from ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def brownian_steps(z: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Standard normals z of shape (B, N, d) scaled by sqrt(dt) into one
    step-major (N, B, d) buffer: dw[n] is a contiguous (B, d) block."""
    b, n_steps, d = z.shape
    dw = np.empty((n_steps, b, d))
    np.multiply(z.transpose(1, 0, 2), np.sqrt(dt)[:, None, None], out=dw)
    return dw


@dataclass
class NoiseIncrements:
    """Pre-generated standard-normal increments, shape (paths, steps, d).

    Streams are counter-based per (seed, path index): path i is drawn from
    a Philox generator keyed (seed, i), so generating paths in chunks or in
    parallel yields bit-identical numbers to a single serial pass.
    """

    z: np.ndarray
    seed: int

    @property
    def n_paths(self) -> int:
        return self.z.shape[0]

    @property
    def n_steps(self) -> int:
        return self.z.shape[1]

    @property
    def d(self) -> int:
        return self.z.shape[2]

    @classmethod
    def generate(cls, seed: int, n_paths: int, n_steps: int, d: int,
                 first_path: int = 0) -> "NoiseIncrements":
        if not 0 <= seed < 2**63:  # the file header stores it as int64
            raise MarketError("seed must be in [0, 2**63)")
        z = np.empty((n_paths, n_steps, d), dtype=np.float64)
        # One Philox re-keyed per path: the state below is that of a fresh
        # Philox(key=[seed, path]), without its constructor's entropy draw.
        key = [seed, first_path]
        bits = np.random.Philox(key=key)
        gen = np.random.Generator(bits)
        fresh = {"bit_generator": "Philox",
                 "state": {"counter": [0, 0, 0, 0], "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for i in range(n_paths):
            key[1] = first_path + i
            bits.state = fresh
            gen.standard_normal(out=z[i])
        return cls(z=z, seed=seed)

    def brownian(self, grid: TimeGrid) -> np.ndarray:
        """sqrt(dt)-scaled increments dW, shape (paths, steps, d): a
        transposed view of ``brownian_steps``' step-major buffer."""
        if grid.n_steps != self.n_steps:
            raise MarketError("grid/increment step mismatch")
        return brownian_steps(self.z, grid.dt).transpose(1, 0, 2)

    def subset(self, idx) -> "NoiseIncrements":
        return NoiseIncrements(z=self.z[idx], seed=self.seed)

    # -- binary persistence: magic, then d, N, B, seed as little-endian
    #    int64, then float64 payload in (path, step, asset) order; written
    #    beside the target and moved into place.
    def save(self, path) -> None:
        with atomic_write(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<4q", self.d, self.n_steps, self.n_paths, self.seed))
            fh.write(np.ascontiguousarray(self.z).tobytes())

    @classmethod
    def load(cls, path) -> "NoiseIncrements":
        with open(path, "rb") as fh:
            magic = fh.read(5)
            if magic != _MAGIC:
                raise MarketError(f"not an increment file (magic {magic!r})")
            header = fh.read(32)
            if len(header) != 32:
                raise MarketError(f"{path}: truncated header ({len(header)} of 32 bytes)")
            d, n, b, seed = struct.unpack("<4q", header)
            expected = 8 * d * n * b
            actual = os.fstat(fh.fileno()).st_size - len(_MAGIC) - 32
            if min(d, n, b) < 0 or actual != expected:
                raise MarketError(f"{path}: header (d={d}, N={n}, B={b}) needs a "
                                  f"{expected}-byte payload, file holds {actual} bytes")
            z = np.fromfile(fh, dtype="<f8", count=b * n * d).reshape(b, n, d)
        return cls(z=z, seed=seed)


# ----------------------------------------------------------------------
# per-step parameter providers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConstantParams:
    mu: np.ndarray  # (d,)
    sigma: np.ndarray  # (d, d)

    def at(self, n: int):
        return self.mu, self.sigma


@dataclass(frozen=True)
class PathParams:
    """Deterministic per-step parameters, optionally different per path.

    ``mu_path`` has shape (N, d) or (B, N, d); ``sigma_path`` has shape
    (N, d, d) or (B, N, d, d).
    """

    mu_path: np.ndarray
    sigma_path: np.ndarray

    def at(self, n: int):
        return self.mu_path[..., n, :], self.sigma_path[..., n, :, :]

    @property
    def cov_path(self) -> np.ndarray:
        """Per-step covariance sigma @ sigma.T, shaped like ``sigma_path``."""
        return np.einsum("...ij,...kj->...ik", self.sigma_path, self.sigma_path)


@dataclass
class PathBatch:
    """Simulated asset paths on a grid, plus bookkeeping.

    ``s`` has shape (paths, n_steps+1, d) and starts at the initial price;
    the Euler and GARCH recursions return it as a transposed view of their
    step-major (n_steps+1, paths, d) buffer.  ``floored`` flags paths where
    the price floor was hit.
    """

    grid: TimeGrid
    s: np.ndarray
    floored: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.s.shape[0]

    @property
    def d(self) -> int:
        return self.s.shape[2]

    @property
    def terminal(self) -> np.ndarray:
        return self.s[:, -1, :]


def simulate_euler(grid: TimeGrid, params, s0, increments: NoiseIncrements) -> PathBatch:
    """Euler path recursion in the multiplicative convention.

    ``params`` provides relative per-step coefficients via
    ``params.at(n) -> (mu_n, sigma_n)`` with shapes broadcastable to
    (B, d) and (B, d, d).  If a step would push a price to zero or below
    it is clamped at PRICE_FLOOR and the path flagged.  Prices are filled
    step by step into an (N+1, B, d) buffer; ``s`` is its transposed view.
    """
    s0 = np.atleast_1d(np.asarray(s0, dtype=np.float64))
    d = s0.shape[0]
    if increments.d != d:
        raise MarketError("increment dimension does not match market")
    b, n_steps = increments.n_paths, increments.n_steps
    if n_steps != grid.n_steps:
        raise MarketError("increment steps do not match grid")
    dw = brownian_steps(increments.z, grid.dt)
    s = np.empty((n_steps + 1, b, d), dtype=np.float64)
    s[0] = s0
    floored = np.zeros(b, dtype=bool)
    for n in range(n_steps):
        mu_n, sig_n = params.at(n)
        mu_n = np.asarray(mu_n, dtype=np.float64)
        sig_n = np.asarray(sig_n, dtype=np.float64)
        if not (np.all(np.isfinite(mu_n)) and np.all(np.isfinite(sig_n))):
            raise MarketError(f"non-finite market parameters at step {n}")
        sn, nxt = s[n], s[n + 1]
        np.add(sn, sn * mu_n * grid.dt[n], out=nxt)
        nxt += euler_diffusion(sig_n, dw[n], sn)
        low = nxt <= PRICE_FLOOR
        if low.any():
            floored |= low.any(axis=1)
            np.maximum(nxt, PRICE_FLOOR, out=nxt)
    return PathBatch(grid=grid, s=s.transpose(1, 0, 2), floored=floored)


# ----------------------------------------------------------------------
# noisy-parameter scenario pools
# ----------------------------------------------------------------------
NOISE_KINDS = ("constant", "non_constant", "cumulative")


def make_noisy_pool(ref: ReferenceMarket, kind: str, vol_scale: float,
                    drift_scale: float, n_pool: int, grid: TimeGrid,
                    seed: int) -> list[PathParams]:
    """Sample an n_pool-sized scenario pool around the reference market.

    Gaussian noise is applied entrywise to the vol matrix and the drift
    vector, so the implied covariance sigma @ sigma.T is PSD by
    construction.  Each scenario is a PathParams of shapes (N, d) and
    (N, d, d).

    ``kind`` is one of constant (one draw held fixed), non_constant (fresh
    draw each step) or cumulative (a Brownian parameter path started at the
    reference whose final step has the configured standard deviation).
    """
    if kind not in NOISE_KINDS:
        raise MarketError(f"unknown noise kind {kind!r}")
    if vol_scale < 0 or drift_scale < 0:
        raise MarketError("noise scales must be non-negative")
    if n_pool < 1:
        raise MarketError("n_pool must be at least 1")
    d, n = ref.d, grid.n_steps
    out = []
    for j in range(n_pool):
        rng = np.random.default_rng([seed, j])
        if kind == "constant":
            gs = rng.standard_normal((d, d))
            gm = rng.standard_normal(d)
            sig = np.tile(ref.vol + vol_scale * gs, (n, 1, 1))
            mu = np.tile(ref.drift + drift_scale * gm, (n, 1))
        elif kind == "non_constant":
            gs = rng.standard_normal((n, d, d))
            gm = rng.standard_normal((n, d))
            sig = ref.vol + vol_scale * gs
            mu = ref.drift + drift_scale * gm
        else:  # cumulative: start exactly at the reference, last step at scale
            sig = np.tile(ref.vol, (n, 1, 1)).astype(float)
            mu = np.tile(ref.drift, (n, 1)).astype(float)
            if n > 1:
                step = 1.0 / np.sqrt(n - 1)
                ws = np.cumsum(rng.standard_normal((n - 1, d, d)) * step, axis=0)
                wm = np.cumsum(rng.standard_normal((n - 1, d)) * step, axis=0)
                sig[1:] += vol_scale * ws
                mu[1:] += drift_scale * wm
        out.append(PathParams(mu_path=mu, sigma_path=sig))
    return out


def stack_scenarios(scenarios: list[PathParams]) -> PathParams:
    """Stack a pool into per-path parameters (one path per scenario)."""
    mu = np.stack([sc.mu_path for sc in scenarios])
    sig = np.stack([sc.sigma_path for sc in scenarios])
    return PathParams(mu_path=mu, sigma_path=sig)


def repair_psd(mat: np.ndarray, floor: float = 1e-10) -> np.ndarray:
    """Project a symmetric-ish matrix to the PSD cone by eigenvalue clipping."""
    sym = 0.5 * (mat + mat.T)
    w, v = np.linalg.eigh(sym)
    if w.min() >= floor:
        return sym
    w = np.maximum(w, floor)
    return (v * w) @ v.T


# ----------------------------------------------------------------------
# Student-t log-return market
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StudentTMarket:
    """One-dimensional market with i.i.d. Student-t log-returns.

    ``scale`` follows the scale (not standard-deviation) convention: the
    per-step log-return is mu*dt + scale*sqrt(dt)*T_nu, whose variance is
    scale^2 * dt * nu/(nu-2).  Location and scale are annualized.
    """

    nu: float
    mu: float
    scale: float
    rate: float

    def __post_init__(self):
        if self.nu <= 2:
            raise MarketError("degrees of freedom must exceed 2 (finite variance)")
        if self.scale < 0:
            raise MarketError("scale must be non-negative")


def simulate_student_t(market: StudentTMarket, grid: TimeGrid, s0: float,
                       n_paths: int, seed: int) -> PathBatch:
    """Exponential of cumulated Student-t log-returns (always positive)."""
    rng = np.random.default_rng(seed)
    n = grid.n_steps
    if market.scale == 0.0:
        lr = np.tile(market.mu * grid.dt, (n_paths, 1))
    else:
        t_draws = rng.standard_t(market.nu, size=(n_paths, n))
        lr = market.mu * grid.dt + market.scale * np.sqrt(grid.dt) * t_draws
    log_s = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(lr, axis=1)], axis=1)
    s = float(s0) * np.exp(log_s)[:, :, None]
    return PathBatch(grid=grid, s=s, floored=np.zeros(n_paths, dtype=bool))
