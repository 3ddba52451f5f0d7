"""Named experiment presets and config resolution.

Each preset is a flat JSON-able dict of primitives pinned to the studied
market settings: the one-asset robust-vol sanity market, the two- and
five-asset reference covariances (symmetric, asymmetric, correlated
positively/negatively), symmetric/asymmetric reference drifts, the
realistic friction setting with path-wise penalties, the small-cost
benchmark regimes, and the heavy-tailed evaluation markets.

``ExperimentConfig`` couples a preset with overrides, a seed and a scale
factor; ``resolve`` materializes it into market/grid/training objects and
a content hash that stamps every artifact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .closed_form import (SaddleSolution, solve_1d_robust_vol,
                          solve_fully_robust, solve_multid_robust_vol)
from .market import ReferenceMarket, StudentTMarket, TimeGrid, substream
from .portfolio import CostSpec
from .training import TrainConfig, ValidationSpec
from .utility import PenaltySpec, PowerUtility

_VOLS = {
    "s": [[0.25, 0.0], [0.0, 0.25]],
    "as": [[0.15, 0.0], [0.0, 0.35]],
    "ps": [[0.25, 0.0], [0.225, 0.10897247]],
    "pas": [[0.15, 0.0], [0.315, 0.15256146]],
    "nas": [[0.15, 0.0], [-0.315, 0.15256146]],
    "5s": (0.25 * np.eye(5)).tolist(),
}

_DRIFTS = {
    "sd": [0.035, 0.035],
    "ad": [0.035, 0.055],
}

_BASE = {
    "rate": 0.015,
    "s0": 1.0,
    "x0": 1.0,
    "t_horizon": 1.0,
    "n_steps": 65,
    "utility_p": 1.0,
    "utility_shifted": True,
    "c_prop": 0.0,
    "c_base": 0.0,
    "mode": "vol_robust",
    "penalty_kind": "additive",
    "lam1": 1.0,
    "lam2": 1.0,
    "epochs": 150,
    "batch_size": 1000,
    "lr": 5e-4,
    "lr_decay": 0.2,
    "lr_every": 100,
    "gen_steps": 1,
    "disc_steps": 1,
    "arch": "ffnn",
    "width": 64,
    "depth": 1,
    "n_paths": 200_000,
    "train_frac": 0.8,
    "val_kind": "explicit",
    "b_val": 4000,
    "val_noise_kind": "cumulative",
    "val_vol_scale": 0.15,
    "val_drift_scale": 0.02,
    "eval_n_pool": 1000,
    "eval_b_test": 40_000,
    "eval_b_ref": 40_000,
    "eval_noise_kind": "cumulative",
    "eval_vol_scale": 0.075,
    "eval_drift_scale": 0.01,
    "alpha": 0.05,
    "student_t_nu": None,
    "no_train": False,
    "garch_pools": False,
    "garch_fit_steps": 20_000,
    "garch_se_factor_val": 1.0,
    "garch_corr_std_val": 0.01,
    "garch_se_factor_eval": 0.75,
    "garch_corr_std_eval": 0.0075,
}


def _preset_table() -> dict[str, dict]:
    presets: dict[str, dict] = {}
    presets["vol1d"] = _BASE | {
        "drift": [0.035], "vol": [[0.25]], "x0": 5.0,
        "penalty_kind": "vol", "lam1": 10.0,
    }
    for name, vol in _VOLS.items():
        d = len(vol)
        presets[name] = _BASE | {"drift": [0.035] * d, "vol": vol}
        if d == 2:
            for dname, drift in _DRIFTS.items():
                presets[f"{name}-{dname}"] = _BASE | {
                    "drift": drift, "vol": vol, "mode": "fully_robust",
                }
    presets["realistic"] = presets["as-ad"] | {
        "c_prop": 0.01,
        "penalty_kind": "pathwise",
        "utility_p": 0.5,
        "val_kind": "noisy_pool",
        "b_val": 40_000,
    }
    presets["realistic-garch"] = presets["realistic"] | {
        "garch_pools": True,
        "val_kind": "garch_pool",
        "b_val": 500,
        "eval_b_test": 5000,
    }
    for tag, (mu_s, rate) in {"small": (0.04, 0.015), "large": (0.07, 0.03)}.items():
        presets[f"ntc-{tag}"] = _BASE | {
            "drift": [mu_s + rate], "vol": [[0.35]], "rate": rate,
            "utility_p": 0.5, "utility_shifted": False,
            "c_prop": 0.01, "mode": "non_robust", "penalty_kind": None,
            "val_kind": "reference", "b_val": 40_000, "eval_b_ref": 100_000,
        }
    for nu in (20.0, 3.5):
        presets[f"student-t-{nu:g}"] = presets["ntc-large"] | {
            "student_t_nu": nu, "no_train": True,
        }
    return presets


PRESETS = _preset_table()


@dataclass
class ExperimentConfig:
    """A preset plus overrides; serializes round-trip to JSON."""

    preset: str
    overrides: dict = field(default_factory=dict)
    seed: int = 0
    scale: float = 1.0

    def to_json(self) -> str:
        return json.dumps({"preset": self.preset, "overrides": self.overrides,
                           "seed": self.seed, "scale": self.scale},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        return cls(preset=doc["preset"], overrides=doc.get("overrides", {}),
                   seed=doc.get("seed", 0), scale=doc.get("scale", 1.0))

    def raw(self) -> dict:
        if self.preset not in PRESETS:
            raise KeyError(f"unknown preset {self.preset!r}; "
                           f"choose one of {sorted(PRESETS)}")
        table = dict(PRESETS[self.preset])
        unknown = set(self.overrides) - set(table)
        if unknown:
            raise KeyError(f"unknown override keys {sorted(unknown)}")
        table.update(self.overrides)
        return table


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


@dataclass
class RunSpec:
    """Fully materialized experiment: objects plus the content hash."""

    name: str
    config_hash: str
    seed: int
    market: ReferenceMarket
    grid: TimeGrid
    x0: float
    utility: PowerUtility
    costs: CostSpec
    train_config: TrainConfig
    n_paths: int
    n_train: int
    eval_n_pool: int
    eval_b_test: int
    eval_b_ref: int
    eval_noise_kind: str
    eval_vol_scale: float
    eval_drift_scale: float
    alpha: float
    student_t: StudentTMarket | None
    no_train: bool
    raw: dict
    garch_model: object | None = None  # scenario-pool anchor when configured


def config_hash(cfg: ExperimentConfig) -> str:
    doc = {"resolved": cfg.raw(), "seed": cfg.seed, "scale": cfg.scale}
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def fit_reference_garch(market: ReferenceMarket, grid: TimeGrid, n_steps: int,
                        seed: int):
    """Fit the GARCH scenario-pool anchor to synthetic reference returns.

    Simulates one long reference-market path on the grid's step size and
    fits per-coordinate GARCH(1,1) to its log-returns; deterministic given
    the seed.
    """
    from .garch import fit_garch
    from .market import NoiseIncrements, simulate_euler

    chunk = TimeGrid(horizon=n_steps * float(grid.dt[0]), n_steps=n_steps)
    inc = NoiseIncrements.generate(seed, 1, n_steps, market.d)
    batch = simulate_euler(chunk, market.params(), market.s0, inc)
    log_returns = np.diff(np.log(batch.s[0]), axis=0)
    return fit_garch(log_returns)


def benchmark_solution(raw: dict) -> SaddleSolution | None:
    """The explicit saddle point matching a config, when one exists."""
    drift = np.asarray(raw["drift"], dtype=np.float64)
    vol = np.asarray(raw["vol"], dtype=np.float64)
    cov = vol @ vol.T
    kind = raw["penalty_kind"]
    if kind == "vol" and len(drift) == 1:
        return solve_1d_robust_vol(float(drift[0]), raw["rate"], float(vol[0, 0]),
                                   raw["lam1"])
    if raw["mode"] == "vol_robust" and kind in ("additive", "multiplicative"):
        return solve_multid_robust_vol(drift, raw["rate"], cov, raw["lam1"], kind)
    if raw["mode"] == "fully_robust" and kind == "additive":
        return solve_fully_robust(drift, raw["rate"], cov, raw["lam1"], raw["lam2"])
    return None


def resolve(cfg: ExperimentConfig) -> RunSpec:
    raw = cfg.raw()
    drift = np.asarray(raw["drift"], dtype=np.float64)
    vol = np.asarray(raw["vol"], dtype=np.float64)
    d = drift.shape[0]
    market = ReferenceMarket(drift=drift, vol=vol, rate=raw["rate"],
                             s0=np.full(d, float(raw["s0"])))
    grid = TimeGrid.uniform(raw["t_horizon"], raw["n_steps"])
    utility = PowerUtility(p=raw["utility_p"], shifted=raw["utility_shifted"])
    costs = CostSpec(c_prop=raw["c_prop"], c_base=raw["c_base"])
    penalty = None
    if raw["penalty_kind"] is not None and raw["mode"] != "non_robust":
        penalty = PenaltySpec(kind=raw["penalty_kind"], lam1=raw["lam1"],
                              lam2=raw["lam2"], mu_ref=drift, cov_ref=vol @ vol.T,
                              vol_ref=float(vol[0, 0]) if raw["penalty_kind"] == "vol" else None)

    garch_model = None
    if raw["garch_pools"]:
        fit_steps = _scaled(raw["garch_fit_steps"], cfg.scale, 500)
        garch_model = fit_reference_garch(market, grid, fit_steps,
                                          substream(cfg.seed, 41))

    val_kind = raw["val_kind"]
    explicit_drift = explicit_cov = None
    if val_kind == "explicit":
        sol = benchmark_solution(raw)
        if sol is None:
            val_kind = "reference"
        else:
            explicit_drift, explicit_cov = sol.drift, sol.cov
    validation = ValidationSpec(
        kind=val_kind,
        b_val=_scaled(raw["b_val"], cfg.scale, 100),
        noise_kind=raw["val_noise_kind"],
        vol_scale=raw["val_vol_scale"],
        drift_scale=raw["val_drift_scale"],
        explicit_drift=explicit_drift,
        explicit_cov=explicit_cov,
        garch_model=garch_model,
        garch_se_factor=raw["garch_se_factor_val"],
        garch_corr_std=raw["garch_corr_std_val"],
    )
    n_paths = _scaled(raw["n_paths"], cfg.scale, 4 * raw["batch_size"])
    n_train = int(n_paths * raw["train_frac"])
    train_config = TrainConfig(
        market=market, grid=grid, x0=raw["x0"], utility=utility, costs=costs,
        penalty=penalty, mode=raw["mode"], epochs=raw["epochs"],
        batch_size=raw["batch_size"], lr=raw["lr"], lr_decay=raw["lr_decay"],
        lr_every=raw["lr_every"], gen_steps=raw["gen_steps"],
        disc_steps=raw["disc_steps"], arch=raw["arch"], width=raw["width"],
        depth=raw["depth"], validation=validation, seed=cfg.seed,
    )
    student_t = None
    if raw["student_t_nu"] is not None:
        student_t = StudentTMarket(nu=raw["student_t_nu"], mu=float(drift[0]),
                                   scale=float(vol[0, 0]), rate=raw["rate"])
    return RunSpec(
        name=cfg.preset,
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        market=market,
        grid=grid,
        x0=raw["x0"],
        utility=utility,
        costs=costs,
        train_config=train_config,
        n_paths=n_paths,
        n_train=n_train,
        eval_n_pool=_scaled(raw["eval_n_pool"], cfg.scale, 2),
        eval_b_test=_scaled(raw["eval_b_test"], cfg.scale, 200),
        eval_b_ref=_scaled(raw["eval_b_ref"], cfg.scale, 200),
        eval_noise_kind=raw["eval_noise_kind"],
        eval_vol_scale=raw["eval_vol_scale"],
        eval_drift_scale=raw["eval_drift_scale"],
        alpha=raw["alpha"],
        student_t=student_t,
        no_train=raw["no_train"],
        raw=raw,
        garch_model=garch_model,
    )
