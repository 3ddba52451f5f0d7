"""Adversarial training of the trading policy against a market network.

One iteration draws a batch of pre-generated noise increments, unrolls
policy and market jointly over the grid (assets evolve under the market
net's coefficients, wealth under the policy with transaction costs),
forms

    gen loss  = -(mean utility of terminal wealth) - penalty
    disc loss = -gen loss

and updates exactly one of the two networks, alternating by a configurable
step ratio.  Only the network being updated enters the episode as Tensors;
the other runs on its plain arrays, so gradients flow through its inputs
(prices and wealth) but its weight gradients are never formed.  Robustness
modes degrade gracefully: ``non_robust`` freezes the market at the
reference coefficients (the lambda = infinity case), ``vol_robust``
additionally pins the drift at its reference value.

Once per epoch a validation metric is computed and the best generator so
far is snapshotted; training state is checkpointed for resumption.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .atomic import atomic_write
from .autodiff import Tensor, euler_wealth_step, raw, stack
from .evaluation import expected_utility_on
from .market import (ConstantParams, ReferenceMarket, TimeGrid, brownian_steps,
                     make_noisy_pool, simulate_euler, stack_scenarios, substream)
from .nets import (NeuralPolicy, ParamSet, adam_step, build_net, load_checkpoint,
                   lr_schedule, market_coefficients, market_head_bias, market_spec,
                   policy_spec, save_checkpoint, state_input)
from .portfolio import CostSpec
from .utility import (PenaltySpec, PowerUtility, penalty_instant,
                      penalty_instant_vol, penalty_pathwise)

MODES = ("non_robust", "vol_robust", "fully_robust")
VALIDATION_KINDS = ("none", "reference", "explicit", "noisy_pool", "garch_pool")


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class ValidationSpec:
    """How the per-epoch early-stopping metric is computed.

    ``noisy_pool`` draws b_val perturbed markets and prices the policy with
    a single path per scenario (a one-sample Monte Carlo whose average
    converges to the pool-averaged expected utility); ``reference`` and
    ``explicit`` price against a fixed constant market.
    """

    kind: str = "none"
    b_val: int = 1000
    noise_kind: str = "cumulative"
    vol_scale: float = 0.15
    drift_scale: float = 0.02
    explicit_drift: np.ndarray | None = None
    explicit_cov: np.ndarray | None = None
    garch_model: object | None = None  # fitted GarchModel for kind="garch_pool"
    garch_se_factor: float = 1.0
    garch_corr_std: float = 0.01

    def __post_init__(self):
        if self.kind not in VALIDATION_KINDS:
            raise ValueError(f"unknown validation kind {self.kind!r}")
        if self.kind == "garch_pool" and self.garch_model is None:
            raise ValueError('kind="garch_pool" needs a fitted model')


@dataclass(frozen=True)
class TrainConfig:
    market: ReferenceMarket
    grid: TimeGrid
    x0: float
    utility: PowerUtility
    costs: CostSpec
    penalty: PenaltySpec | None
    mode: str = "fully_robust"
    epochs: int = 150
    batch_size: int = 1000
    lr: float = 5e-4
    lr_decay: float = 0.2
    lr_every: int = 100
    gen_steps: int = 1
    disc_steps: int = 1
    arch: str = "ffnn"
    width: int = 64
    depth: int = 1
    validation: ValidationSpec = field(default_factory=ValidationSpec)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown robustness mode {self.mode!r}")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.mode != "non_robust" and self.penalty is None:
            raise ValueError("robust modes need a penalty specification")

    def gen_spec(self):
        n = self.grid.n_steps if self.arch == "time_grid" else None
        return policy_spec(self.market.d, self.arch, self.width, self.depth, n)

    def disc_spec(self):
        n = self.grid.n_steps if self.arch == "time_grid" else None
        return market_spec(self.market.d, self.arch, self.width, self.depth, n)


@dataclass
class EpochRecord:
    epoch: int
    gen_loss: float  # the market's loss is its negative
    val_metric: float
    lr: float


@dataclass
class BestSnapshot:
    arrays: dict[str, np.ndarray]
    metric: float
    epoch: int


@dataclass
class TrainState:
    gen: ParamSet
    disc: ParamSet
    epoch: int
    best: BestSnapshot | None
    history: list[EpochRecord]

    def policy(self, cfg: TrainConfig, use_best: bool = True) -> NeuralPolicy:
        arrays = self.gen.arrays
        if use_best and self.best is not None:
            arrays = self.best.arrays
        return NeuralPolicy(cfg.gen_spec(), arrays, cfg.grid.horizon)


@dataclass
class EpisodeResult:
    x_terminal: Tensor
    penalty: Tensor | None
    gen_loss: Tensor
    s_paths: Tensor  # (B, N+1, d)


def forward_episode(z_batch: np.ndarray, gen_params, disc_params,
                    cfg: TrainConfig) -> EpisodeResult:
    """Unroll one episode on a batch of standard-normal increments.

    ``gen_params``/``disc_params`` are dicts of Tensors or of plain arrays;
    only Tensor parameters get gradients.  Asset paths never depend on the
    policy; wealth depends on both networks through the friction recursion.
    """
    grid, mkt = cfg.grid, cfg.market
    b, n_steps, d = z_batch.shape
    dt = grid.dt
    times = grid.times
    dw = brownian_steps(z_batch, dt)  # step-major: dw[n] is one (B, d) block
    gen_net = build_net(cfg.gen_spec())
    disc_net = build_net(cfg.disc_spec())

    s = Tensor(np.broadcast_to(mkt.s0, (b, d)).copy())
    # wealth as a (B, 1) column, so that it enters the net input as it is
    x = Tensor(np.full((b, 1), float(cfg.x0)))
    h_prev = np.zeros((b, d))
    gen_hidden = disc_hidden = None
    s_rows = [s]
    mu_rows: list = []
    sig_rows: list = []
    for n in range(n_steps):
        inp = state_input(times[n] / grid.horizon, s, x)  # one node for both nets
        pi, gen_hidden = gen_net.apply(gen_params, n, inp, gen_hidden)
        if cfg.mode == "non_robust":
            mu_n, sig_n = mkt.drift, mkt.vol
        else:
            out, disc_hidden = disc_net.apply(disc_params, n, inp, disc_hidden)
            mu_raw, sig_n = market_coefficients(out, d)
            mu_n = mkt.drift if cfg.mode == "vol_robust" else mu_raw
        s, x, h_prev = euler_wealth_step(s, x, pi, h_prev, mu_n, sig_n, dw[n],
                                         dt[n], mkt.rate, cfg.costs)
        s_rows.append(s)
        mu_rows.append(mu_n)
        sig_rows.append(sig_n)

    s_stack = stack(s_rows, axis=1)
    penalty = None
    if cfg.mode != "non_robust" and cfg.penalty is not None:
        spec = cfg.penalty
        if spec.kind == "pathwise":
            penalty = penalty_pathwise(spec, s_stack, grid).total
        elif spec.kind == "vol":
            vol_stack = stack(sig_rows, axis=1).reshape((b, n_steps))
            penalty = penalty_instant_vol(spec, vol_stack, grid)
        else:
            sig_stack = stack(sig_rows, axis=1)
            cov = (sig_stack.reshape((b, n_steps, d, 1, d))
                   * sig_stack.reshape((b, n_steps, 1, d, d))).sum(axis=4)
            if cfg.mode == "vol_robust":
                mu_stack = np.broadcast_to(mkt.drift, (1, n_steps, d))
            else:
                mu_stack = stack(mu_rows, axis=1)
            penalty = penalty_instant(spec, cov, mu_stack, grid)

    x = x.reshape((b,))
    u_vals = cfg.utility.graph(x)
    gen_loss = -u_vals.mean()
    if penalty is not None:
        gen_loss = gen_loss - penalty
    return EpisodeResult(x_terminal=x, penalty=penalty, gen_loss=gen_loss,
                         s_paths=s_stack)


def early_stopping_metric(policy, paths, utility: PowerUtility, x0: float,
                          rate: float, costs: CostSpec) -> float:
    """Average utility of the policy over pre-simulated scenario paths."""
    return expected_utility_on(policy, paths, x0, rate, costs, utility).value


def validation_paths(cfg: TrainConfig, z_val):
    """Pre-simulate the fixed paths used by the per-epoch metric.

    Scenario draws are independent of the path increments, so the batch is
    built once: the policy never influences asset paths.
    """
    spec = cfg.validation
    if spec.kind == "none":
        return None
    if spec.kind == "garch_pool":
        from .garch import make_noisy_garch_pool, simulate_garch_pool_single_paths

        models = make_noisy_garch_pool(spec.garch_model, spec.garch_se_factor,
                                       spec.garch_corr_std, spec.b_val,
                                       seed=substream(cfg.seed, 2))
        return simulate_garch_pool_single_paths(models, cfg.grid, cfg.market.s0,
                                                seed=substream(cfg.seed, 3))
    if z_val is None:
        raise ValueError("validation requires a validation split")
    b_val = min(spec.b_val, z_val.n_paths)
    inc = z_val.subset(slice(0, b_val))
    if spec.kind == "reference":
        params = cfg.market.params()
    elif spec.kind == "explicit":
        vol = np.linalg.cholesky(np.atleast_2d(spec.explicit_cov))
        params = ConstantParams(mu=np.atleast_1d(spec.explicit_drift), sigma=vol)
    else:
        pool = make_noisy_pool(cfg.market, spec.noise_kind, spec.vol_scale,
                               spec.drift_scale, b_val, cfg.grid,
                               seed=substream(cfg.seed, 2))
        params = stack_scenarios(pool)
    return simulate_euler(cfg.grid, params, cfg.market.s0, inc)


def _grads_for(params: ParamSet, tensors: dict[str, Tensor],
               negate: bool = False) -> dict[str, np.ndarray]:
    out = {}
    for name in params.names:
        g = tensors[name].grad
        if g is None:
            g = np.zeros_like(params.arrays[name])
        out[name] = -g if negate else g
    return out


def init_networks(cfg: TrainConfig) -> tuple[ParamSet, ParamSet]:
    """Generator from uniform init; market head starts at the reference."""
    rng = np.random.default_rng([cfg.seed, 0])
    gen = build_net(cfg.gen_spec()).init(rng)
    disc = build_net(cfg.disc_spec()).init(
        rng, head_bias=market_head_bias(cfg.market.drift, cfg.market.vol))
    return gen, disc


def train(cfg: TrainConfig, z_train, z_val=None, out_dir=None,
          resume: bool = False) -> TrainState:
    """Run the alternating optimization; returns the final state.

    ``z_train``/``z_val`` are NoiseIncrements from disjoint splits.  With
    an output directory, per-epoch metrics are appended to metrics.csv and
    latest/best checkpoints are written; ``resume`` continues a previous
    run from its latest checkpoint, including RNG state, and raises a
    ValueError if that checkpoint was written for other network specs or
    another seed, or if its Adam step counts disagree with its epoch.
    """
    gen, disc = init_networks(cfg)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    history: list[EpochRecord] = []
    best: BestSnapshot | None = None
    start_epoch = 0
    batches_per_epoch = max(1, z_train.n_paths // cfg.batch_size)
    roles = ["gen"] * cfg.gen_steps + ["disc"] * cfg.disc_steps
    if cfg.mode == "non_robust":
        roles = ["gen"]

    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        latest = os.path.join(out_dir, "checkpoint_latest.npz")
        if resume and os.path.exists(latest):
            gen, disc, meta = load_checkpoint(latest)
            if not meta:  # a crash before the first sidecar was in place
                raise ValueError(f"cannot resume: {latest}.json is missing, so the "
                                 "checkpoint names no epoch; --force restarts the run")
            _check_resumable(meta, cfg)
            start_epoch = meta["epoch"] + 1
            _check_adam_steps(latest, meta["epoch"], start_epoch * batches_per_epoch,
                              roles, gen, disc)
            shuffle_rng.bit_generator.state = meta["rng_shuffle"]
            # rows written before the disc_loss column was dropped still load
            history = [EpochRecord(r["epoch"], r["gen_loss"], r["val_metric"], r["lr"])
                       for r in meta["history"]]
            if meta.get("best_epoch") is not None:
                bg, _, _ = load_checkpoint(os.path.join(out_dir, "checkpoint_best.npz"))
                best = BestSnapshot(arrays=bg.arrays, metric=meta["best_metric"],
                                    epoch=meta["best_epoch"])

    # a finished run (a resume past its last epoch) simulates nothing
    val_batch = validation_paths(cfg, z_val) if start_epoch < cfg.epochs else None
    iteration = start_epoch * batches_per_epoch

    for epoch in range(start_epoch, cfg.epochs):
        lr = lr_schedule(epoch, cfg.lr, cfg.lr_decay, cfg.lr_every)
        perm = shuffle_rng.permutation(z_train.n_paths)
        gen_losses = []
        for k in range(batches_per_epoch):
            idx = perm[k * cfg.batch_size:(k + 1) * cfg.batch_size]
            z_batch = z_train.z[idx]
            role = roles[iteration % len(roles)]
            trained = gen if role == "gen" else disc
            tensors = {name: Tensor(arr) for name, arr in trained.arrays.items()}
            if role == "gen":
                episode = forward_episode(z_batch, tensors, disc.arrays, cfg)
            else:
                episode = forward_episode(z_batch, gen.arrays, tensors, cfg)
            loss = float(raw(episode.gen_loss))
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, iteration {iteration}")
            episode.gen_loss.backward()
            # the market maximizes the generator's loss
            adam_step(trained, _grads_for(trained, tensors, negate=role == "disc"), lr)
            gen_losses.append(loss)
            iteration += 1

        mean_loss = float(np.mean(gen_losses))
        if val_batch is not None:
            policy = NeuralPolicy(cfg.gen_spec(), gen.arrays, cfg.grid.horizon)
            metric = early_stopping_metric(policy, val_batch, cfg.utility,
                                           cfg.x0, cfg.market.rate, cfg.costs)
            if best is None or metric > best.metric:
                best = BestSnapshot(
                    arrays={k: v.copy() for k, v in gen.arrays.items()},
                    metric=metric, epoch=epoch)
        else:
            metric = float("nan")
        history.append(EpochRecord(epoch=epoch, gen_loss=mean_loss,
                                   val_metric=metric, lr=lr))
        if out_dir is not None:
            _write_artifacts(out_dir, cfg, gen, disc, best, history, shuffle_rng)

    return TrainState(gen=gen, disc=disc, epoch=cfg.epochs - 1, best=best,
                      history=history)


def _check_resumable(meta: dict, cfg: TrainConfig) -> None:
    """Refuse a checkpoint written for other networks or another seed."""
    expected = {"gen_spec": asdict(cfg.gen_spec()),
                "disc_spec": asdict(cfg.disc_spec()), "seed": cfg.seed}
    for key, want in expected.items():
        if meta.get(key) != want:
            raise ValueError(f"cannot resume: checkpoint {key} {meta.get(key)!r} "
                             f"does not match the configuration's {want!r}")


def _check_adam_steps(path, epoch: int, iterations: int, roles, gen, disc) -> None:
    """Refuse a checkpoint whose Adam step counts are not those its epoch
    implies: a crash between the npz and the sidecar write leaves a later
    epoch's parameters beside an earlier epoch's sidecar."""
    full, rest = divmod(iterations, len(roles))
    for tag, ps in (("gen", gen), ("disc", disc)):
        want = full * roles.count(tag) + roles[:rest].count(tag)
        if ps.step != want:
            raise ValueError(f"cannot resume: {path} holds {ps.step} {tag} Adam "
                             f"steps, but its epoch {epoch} implies {want}")


def _write_artifacts(out_dir, cfg, gen, disc, best, history, shuffle_rng):
    """metrics.csv, the best and then the latest checkpoint, each moved into
    place whole.  The latest sidecar goes last: until it names the new
    epoch, a resume repeats that epoch and rewrites the same files, unless
    the latest npz was already replaced, which the resume refuses."""
    import os

    rows = [vars(r) for r in history]
    meta = {
        "epoch": history[-1].epoch,
        "seed": cfg.seed,
        "gen_spec": asdict(cfg.gen_spec()),
        "disc_spec": asdict(cfg.disc_spec()),
        "gen_params": gen.n_params,
        "disc_params": disc.n_params,
        "rng_shuffle": shuffle_rng.bit_generator.state,
        "history": rows,
        "best_epoch": best.epoch if best else None,
        "best_metric": best.metric if best else None,
    }
    with atomic_write(os.path.join(out_dir, "metrics.csv")) as fh:
        fh.write("epoch,gen_loss,val_metric,lr\n")
        for r in history:
            fh.write(f"{r.epoch},{r.gen_loss:.17g},{r.val_metric:.17g},{r.lr:.17g}\n")
    if best is not None:
        save_checkpoint(os.path.join(out_dir, "checkpoint_best.npz"),
                        ParamSet(arrays=best.arrays), None,
                        {"epoch": best.epoch, "metric": best.metric,
                         "seed": cfg.seed})
    save_checkpoint(os.path.join(out_dir, "checkpoint_latest.npz"), gen, disc, meta)
