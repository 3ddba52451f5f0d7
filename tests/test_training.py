import numpy as np
import pytest

from robustfolio import nets, training
from robustfolio.autodiff import Tensor, raw
from robustfolio.market import (NoiseIncrements, ReferenceMarket, TimeGrid,
                                make_noisy_pool, simulate_euler, stack_scenarios)
from robustfolio.nets import NeuralPolicy, adam_step, load_checkpoint, lr_schedule
from robustfolio.portfolio import CashPolicy, CostSpec, roll_out
from robustfolio.training import (TrainConfig, TrainingDiverged, ValidationSpec,
                                  early_stopping_metric, forward_episode,
                                  init_networks, train, validation_paths)
from robustfolio.utility import PenaltySpec, PowerUtility


def _market_1d():
    return ReferenceMarket(drift=[0.035], vol=[[0.25]], rate=0.015, s0=[1.0])


def _config(mode="vol_robust", epochs=2, width=8, batch_size=50, arch="ffnn",
            costs=None, val_kind="none", penalty_kind="vol", seed=0, **kw):
    mkt = _market_1d()
    grid = TimeGrid.uniform(1.0, 8)
    penalty = None
    if mode != "non_robust":
        penalty = PenaltySpec(kind=penalty_kind, lam1=10.0, lam2=1.0,
                              mu_ref=mkt.drift, cov_ref=mkt.cov,
                              vol_ref=0.25 if penalty_kind == "vol" else None)
    validation = ValidationSpec(kind=val_kind, b_val=40, vol_scale=0.1,
                                drift_scale=0.01)
    return TrainConfig(market=mkt, grid=grid, x0=1.0, utility=PowerUtility(1.0),
                       costs=costs or CostSpec(), penalty=penalty, mode=mode,
                       epochs=epochs, batch_size=batch_size, lr=1e-3,
                       width=width, arch=arch, validation=validation, seed=seed,
                       **kw)


def _data(cfg, n_train=200, n_val=60, seed=9):
    d = cfg.market.d
    z = NoiseIncrements.generate(seed, n_train + n_val, cfg.grid.n_steps, d)
    return z.subset(slice(0, n_train)), z.subset(slice(n_train, None))


class TestForwardEpisode:
    def test_constant_head_makes_robust_episode_match_reference(self):
        # fresh market net emits exactly the reference coefficients, so the
        # asset paths must equal the frozen-market unroll bit for bit
        cfg_rob = _config(mode="fully_robust", penalty_kind="additive")
        cfg_non = _config(mode="non_robust")
        gen, disc = init_networks(cfg_rob)
        z = np.random.default_rng(1).normal(size=(20, 8, 1))
        ep_rob = forward_episode(z, {k: Tensor(v) for k, v in gen.arrays.items()},
                                 {k: Tensor(v) for k, v in disc.arrays.items()},
                                 cfg_rob)
        ep_non = forward_episode(z, {k: Tensor(v) for k, v in gen.arrays.items()},
                                 {k: Tensor(v) for k, v in disc.arrays.items()},
                                 cfg_non)
        assert np.array_equal(raw(ep_rob.s_paths), raw(ep_non.s_paths))
        assert np.array_equal(raw(ep_rob.x_terminal), raw(ep_non.x_terminal))

    def test_cash_like_policy_compounds_at_rate(self):
        cfg = _config(mode="non_robust")
        gen, disc = init_networks(cfg)
        for k in ("out.W", "out.b"):  # zero output head = all-cash policy
            gen.arrays[k][...] = 0.0
        z = np.random.default_rng(2).normal(size=(10, 8, 1))
        ep = forward_episode(z, {k: Tensor(v) for k, v in gen.arrays.items()},
                             {k: Tensor(v) for k, v in disc.arrays.items()}, cfg)
        expected = (1 + 0.015 / 8) ** 8
        assert np.allclose(raw(ep.x_terminal), expected, rtol=1e-13)

    def test_micro_instance_matches_hand_unroll(self):
        # 2 paths, 2 steps, one asset: replicate the episode arithmetic by
        # hand and compare the generator loss
        mkt = _market_1d()
        grid = TimeGrid.uniform(1.0, 2)
        pen = PenaltySpec(kind="vol", lam1=10.0, lam2=0.0, mu_ref=mkt.drift,
                          cov_ref=mkt.cov, vol_ref=0.25)
        cfg = TrainConfig(market=mkt, grid=grid, x0=5.0,
                          utility=PowerUtility(1.0), costs=CostSpec(),
                          penalty=pen, mode="vol_robust", width=4, seed=5)
        gen, disc = init_networks(cfg)
        z = np.array([[[0.5], [-0.3]], [[-1.0], [0.2]]])
        ep = forward_episode(z, {k: Tensor(v) for k, v in gen.arrays.items()},
                             {k: Tensor(v) for k, v in disc.arrays.items()}, cfg)

        def ffnn(arrays, inp):
            h = np.tanh(inp @ arrays["h0.W"] + arrays["h0.b"])
            return h @ arrays["out.W"] + arrays["out.b"]

        dt = 0.5
        s = np.ones((2, 1))
        x = np.full(2, 5.0)
        h_prev = np.zeros((2, 1))
        sig_steps = []
        for n in range(2):
            t_norm = grid.times[n] / 1.0
            inp = np.concatenate([np.full((2, 1), t_norm), s, x[:, None]], axis=1)
            pi = ffnn(gen.arrays, inp)
            out = ffnn(disc.arrays, inp)
            sig = out[:, 1:2]
            dw = z[:, n] * np.sqrt(dt)
            ds = s * 0.035 * dt + s * sig * dw
            h = x[:, None] * pi / s
            x = x + (h * ds).sum(axis=1) + (1 - pi.sum(axis=1)) * x * (0.015 * dt)
            s = np.maximum(s + ds, 1e-8)
            h_prev = h
            sig_steps.append(sig)
        sig_steps = np.concatenate(sig_steps, axis=1)
        penalty = (10.0 * ((sig_steps - 0.25) ** 2 * dt).sum(axis=1)).mean()
        loss = -np.log(np.maximum(x, 1e-6)).mean() - penalty
        assert raw(ep.gen_loss) == pytest.approx(loss, rel=1e-12)

    def test_pathwise_penalty_plumbs_through(self):
        cfg = _config(mode="fully_robust", penalty_kind="pathwise")
        gen, disc = init_networks(cfg)
        z = np.random.default_rng(3).normal(size=(16, 8, 1))
        ep = forward_episode(z, {k: Tensor(v) for k, v in gen.arrays.items()},
                             {k: Tensor(v) for k, v in disc.arrays.items()}, cfg)
        assert ep.penalty is not None
        assert raw(ep.penalty) >= 0.0


class TestTrainLoop:
    def test_zero_sum_bookkeeping(self):
        # the market ascends the loss the generator descends: market-only
        # steps from the initial nets raise the generator's loss
        cfg = _config(mode="fully_robust", penalty_kind="additive", epochs=1,
                      gen_steps=0)
        z_train, z_val = _data(cfg)
        gen0, disc0 = init_networks(cfg)
        state = train(cfg, z_train, z_val)
        assert state.gen.step == 0 and state.disc.step == 200 // 50

        def loss(disc):
            return float(raw(forward_episode(z_train.z, gen0.arrays, disc.arrays,
                                             cfg).gen_loss))

        assert loss(state.disc) > loss(disc0)

    def test_non_robust_never_touches_discriminator(self):
        cfg = _config(mode="non_robust", epochs=3)
        gen0, disc0 = init_networks(cfg)
        state = train(cfg, *_data(cfg))
        for k in disc0.names:
            assert np.array_equal(state.disc.arrays[k], disc0.arrays[k])
            assert np.array_equal(state.disc.m[k], np.zeros_like(disc0.arrays[k]))
        changed = any(not np.array_equal(state.gen.arrays[k], gen0.arrays[k])
                      for k in gen0.names)
        assert changed

    def test_vol_robust_drift_head_pinned_at_reference(self):
        cfg = _config(mode="vol_robust", epochs=3)
        state = train(cfg, *_data(cfg))
        from robustfolio.nets import build_net, market_coefficients, state_input
        net = build_net(cfg.disc_spec())
        rng = np.random.default_rng(0)
        inp = state_input(0.4, rng.uniform(0.5, 2, (7, 1)), rng.uniform(0.5, 2, 7))
        mu, _ = market_coefficients(net.apply(state.disc.arrays, 0, inp, None)[0], 1)
        assert np.array_equal(mu, np.full((7, 1), 0.035))

    def test_seed_determinism_bit_exact(self):
        cfg = _config(mode="fully_robust", penalty_kind="additive", epochs=2,
                      val_kind="noisy_pool")
        s1 = train(cfg, *_data(cfg))
        s2 = train(cfg, *_data(cfg))
        for k in s1.gen.names:
            assert s1.gen.arrays[k].tobytes() == s2.gen.arrays[k].tobytes()
        for k in s1.disc.names:
            assert s1.disc.arrays[k].tobytes() == s2.disc.arrays[k].tobytes()
        assert [r.val_metric for r in s1.history] == [r.val_metric for r in s2.history]

    def test_snapshot_attains_best_metric_and_replays(self):
        cfg = _config(mode="vol_robust", epochs=4, val_kind="noisy_pool")
        z_train, z_val = _data(cfg)
        state = train(cfg, z_train, z_val)
        metrics = [r.val_metric for r in state.history]
        assert state.best is not None
        assert state.best.metric == max(metrics)
        # replay: the stored snapshot reproduces its metric on the same paths
        val_batch = validation_paths(cfg, z_val)
        policy = NeuralPolicy(cfg.gen_spec(), state.best.arrays, 1.0)
        replay = early_stopping_metric(policy, val_batch, cfg.utility, cfg.x0,
                                       cfg.market.rate, cfg.costs)
        assert replay == pytest.approx(state.best.metric, rel=1e-12)

    def test_divergence_detector(self):
        cfg = _config(mode="non_robust", epochs=1)
        z_train, z_val = _data(cfg)
        z_train.z[0, 0, 0] = np.nan
        with pytest.raises(TrainingDiverged):
            train(cfg, z_train, z_val)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        import dataclasses
        import json

        cfg6 = _config(mode="vol_robust", epochs=6, val_kind="reference")
        z_train, z_val = _data(cfg6)
        full = train(cfg6, z_train, z_val, out_dir=str(tmp_path / "full"))
        cfg3 = dataclasses.replace(cfg6, epochs=3)
        train(cfg3, z_train, z_val, out_dir=str(tmp_path / "resumed"))
        # history rows of earlier versions carry disc_loss; they still resume
        sidecar = tmp_path / "resumed" / "checkpoint_latest.npz.json"
        meta = json.loads(sidecar.read_text())
        for row in meta["history"]:
            row["disc_loss"] = -row["gen_loss"]
        sidecar.write_text(json.dumps(meta))
        resumed = train(cfg6, z_train, z_val, out_dir=str(tmp_path / "resumed"),
                        resume=True)
        for got, ref in ((resumed.gen, full.gen), (resumed.disc, full.disc)):
            assert got.step == ref.step
            for k in ref.names:
                for attr in ("arrays", "m", "v"):
                    assert np.array_equal(getattr(got, attr)[k], getattr(ref, attr)[k])
        assert [r.val_metric for r in full.history] == \
               [r.val_metric for r in resumed.history]

    @pytest.mark.parametrize("crash_epoch", [0, 1])
    def test_resume_refuses_a_torn_checkpoint(self, tmp_path, monkeypatch,
                                              crash_epoch):
        import json

        cfg = _config(mode="vol_robust", epochs=2)
        data = _data(cfg)
        real_dump = json.dump

        def dump_or_crash(doc, fh, **kwargs):
            if doc.get("epoch") == crash_epoch and "history" in doc:  # the latest
                raise OSError("disk full")
            real_dump(doc, fh, **kwargs)

        monkeypatch.setattr(json, "dump", dump_or_crash)
        with pytest.raises(OSError, match="disk full"):
            train(cfg, *data, out_dir=str(tmp_path))
        monkeypatch.undo()
        message = {
            # epoch 0's parameters without any sidecar
            0: r"checkpoint_latest\.npz\.json is missing, .*--force restarts the run",
            # epoch 1's parameters sit beside epoch 0's sidecar: 4 generator
            # steps, where epoch 0's 4 alternating iterations imply 2
            1: r"checkpoint_latest\.npz holds 4 gen Adam steps, but its epoch 0 "
               r"implies 2",
        }[crash_epoch]
        with pytest.raises(ValueError, match=message):
            train(cfg, *data, out_dir=str(tmp_path), resume=True)

    def test_resume_refuses_a_mismatched_checkpoint(self, tmp_path):
        import dataclasses
        import json

        cfg = _config(mode="vol_robust", epochs=1)
        data = _data(cfg)
        train(cfg, *data, out_dir=str(tmp_path))
        for changed, field in ((dataclasses.replace(cfg, width=4), "gen_spec"),
                               (dataclasses.replace(cfg, seed=1), "seed")):
            with pytest.raises(ValueError, match=field):
                train(changed, *data, out_dir=str(tmp_path), resume=True)
        sidecar = tmp_path / "checkpoint_latest.npz.json"
        meta = json.loads(sidecar.read_text())
        meta["disc_spec"]["out_dim"] += 1
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="disc_spec"):
            train(cfg, *data, out_dir=str(tmp_path), resume=True)

    def test_crash_while_checkpointing_keeps_the_previous_one(self, tmp_path,
                                                              monkeypatch):
        cfg = _config(mode="vol_robust", epochs=2, val_kind="reference")
        z_train, z_val = _data(cfg)
        full = train(cfg, z_train, z_val, out_dir=str(tmp_path / "full"))
        run = tmp_path / "crashed"
        latest = run / "checkpoint_latest.npz"
        real_savez = np.savez
        before = {}

        def savez_then_crash(fh, **payload):
            if "disc~step" in payload and latest.exists():  # epoch 1's latest
                before["ck"] = load_checkpoint(latest)
                fh.write(b"PK\x03\x04 partial")
                raise OSError("disk full")
            real_savez(fh, **payload)

        monkeypatch.setattr(np, "savez", savez_then_crash)
        with pytest.raises(OSError, match="disk full"):
            train(cfg, z_train, z_val, out_dir=str(run))
        monkeypatch.setattr(np, "savez", real_savez)
        gen, disc, meta = load_checkpoint(latest)
        gen0, disc0, meta0 = before["ck"]
        assert meta == meta0 and meta["epoch"] == 0
        for got, ref in ((gen, gen0), (disc, disc0)):
            for k in ref.names:
                assert got.arrays[k].tobytes() == ref.arrays[k].tobytes()
        assert not list(run.glob("*.tmp"))
        # the sidecar still names epoch 0, so a resume repeats epoch 1
        resumed = train(cfg, z_train, z_val, out_dir=str(run), resume=True)
        for k in full.gen.names:
            assert resumed.gen.arrays[k].tobytes() == full.gen.arrays[k].tobytes()
        for name in ("metrics.csv", "checkpoint_latest.npz",
                     "checkpoint_latest.npz.json", "checkpoint_best.npz"):
            assert (run / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_metrics_csv_written(self, tmp_path):
        cfg = _config(mode="non_robust", epochs=2)
        train(cfg, *_data(cfg), out_dir=str(tmp_path))
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,gen_loss,val_metric,lr"
        assert len(lines) == 3

    def test_alternation_ratio_counts_updates(self):
        # 5 disc steps per gen step: generator Adam counter grows 6x slower
        cfg = _config(mode="vol_robust", epochs=2, gen_steps=1, disc_steps=5)
        state = train(cfg, *_data(cfg))
        total = state.gen.step + state.disc.step
        assert total == 2 * (200 // 50)
        assert state.disc.step > state.gen.step

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _config(mode="sideways")
        with pytest.raises(ValueError):
            TrainConfig(market=_market_1d(), grid=TimeGrid.uniform(1.0, 4),
                        x0=1.0, utility=PowerUtility(1.0), costs=CostSpec(),
                        penalty=None, mode="vol_robust")

    @pytest.mark.parametrize("arch", ["ffnn", "rnn", "time_grid"])
    def test_every_architecture_trains_and_checkpoints(self, arch, tmp_path):
        cfg = _config(mode="fully_robust", penalty_kind="additive", epochs=2,
                      arch=arch, width=4, costs=CostSpec(c_prop=0.01),
                      val_kind="reference")
        state = train(cfg, *_data(cfg), out_dir=str(tmp_path))
        assert all(np.isfinite(r.gen_loss) for r in state.history)
        from robustfolio.nets import load_checkpoint
        gen, disc, meta = load_checkpoint(tmp_path / "checkpoint_latest.npz")
        assert meta["gen_spec"]["arch"] == arch
        assert gen.n_params == meta["gen_params"]
        for k in state.gen.names:
            assert np.array_equal(gen.arrays[k], state.gen.arrays[k])


def _unfused_dense(x, W, b, act=True):
    y = x @ W + b
    if not act:
        return y
    return y.tanh() if isinstance(y, Tensor) else np.tanh(y)


def _reference_epoch(cfg, z_train):
    """One epoch as a plain loop: both nets enter every episode as Tensors,
    layers are separate matmul/add/tanh nodes, and the full backward runs."""
    gen, disc = init_networks(cfg)
    perm = np.random.default_rng([cfg.seed, 1]).permutation(z_train.n_paths)
    roles = ["gen"] * cfg.gen_steps + ["disc"] * cfg.disc_steps
    if cfg.mode == "non_robust":
        roles = ["gen"]
    lr = lr_schedule(0, cfg.lr, cfg.lr_decay, cfg.lr_every)
    for k in range(z_train.n_paths // cfg.batch_size):
        idx = perm[k * cfg.batch_size:(k + 1) * cfg.batch_size]
        tensors = {"gen": {n: Tensor(a) for n, a in gen.arrays.items()},
                   "disc": {n: Tensor(a) for n, a in disc.arrays.items()}}
        forward_episode(z_train.z[idx], tensors["gen"], tensors["disc"],
                        cfg).gen_loss.backward()
        role = roles[k % len(roles)]
        params = gen if role == "gen" else disc
        sign = 1.0 if role == "gen" else -1.0
        grads = {}
        for n in params.names:
            g = tensors[role][n].grad
            grads[n] = np.zeros_like(params.arrays[n]) if g is None else sign * g
        adam_step(params, grads, lr)
    return gen, disc


class TestTrainingStep:
    @pytest.mark.parametrize("arch", ["ffnn", "rnn", "time_grid"])
    @pytest.mark.parametrize("mode,penalty_kind", [("non_robust", "vol"),
                                                   ("vol_robust", "vol"),
                                                   ("fully_robust", "additive")])
    def test_epoch_matches_full_backward_reference(self, arch, mode,
                                                   penalty_kind, monkeypatch):
        cfg = _config(mode=mode, penalty_kind=penalty_kind, epochs=1, arch=arch,
                      width=6, costs=CostSpec(c_prop=0.01))
        z_train, z_val = _data(cfg)
        state = train(cfg, z_train, z_val)
        monkeypatch.setattr(nets, "dense", _unfused_dense)
        gen, disc = _reference_epoch(cfg, z_train)
        for got, ref in ((state.gen, gen), (state.disc, disc)):
            assert got.step == ref.step
            for n in ref.names:
                for table in ("arrays", "m", "v"):
                    assert getattr(got, table)[n].tobytes() == \
                        getattr(ref, table)[n].tobytes(), (table, n)
        assert state.gen.step > 0
        assert (state.disc.step > 0) == (mode != "non_robust")

    @pytest.mark.parametrize("mode", ["non_robust", "fully_robust"])
    def test_only_the_updated_net_enters_as_tensors(self, mode, monkeypatch):
        seen = []

        def spy(z_batch, gen_params, disc_params, cfg):
            seen.append(tuple({type(v).__name__ for v in p.values()}
                              for p in (gen_params, disc_params)))
            return forward_episode(z_batch, gen_params, disc_params, cfg)

        monkeypatch.setattr(training, "forward_episode", spy)
        cfg = _config(mode=mode, penalty_kind="additive", epochs=1)
        state = train(cfg, *_data(cfg))
        gen_step = ({"Tensor"}, {"ndarray"})
        disc_step = ({"ndarray"}, {"Tensor"})
        if mode == "non_robust":
            expected = [gen_step] * 4
        else:
            expected = [gen_step, disc_step] * 2
        assert seen == expected
        assert state.gen.step + state.disc.step == 4


@pytest.mark.slow
def test_non_robust_training_recovers_merton_weight():
    # frozen-market training on the one-asset sanity market converges to the
    # frictionless optimum (mu - r) / sigma^2 = 0.32.  At desk scale (20K
    # paths) the batch-averaged weight recovers the target to a few percent
    # while per-path state wiggle keeps the pathwise deviation an order of
    # magnitude above the full-scale figure, hence the looser bound on it.
    from robustfolio.closed_form import merton_weight
    from robustfolio.market import simulate_euler

    mkt = _market_1d()
    grid = TimeGrid.uniform(1.0, 65)
    cfg = TrainConfig(market=mkt, grid=grid, x0=5.0, utility=PowerUtility(1.0),
                      costs=CostSpec(), penalty=None, mode="non_robust",
                      epochs=150, batch_size=1000, lr=5e-4, width=16,
                      validation=ValidationSpec(kind="none"), seed=7)
    inc = NoiseIncrements.generate(111, 20_000, 65, 1)
    z_train, z_test = inc.subset(slice(0, 16_000)), inc.subset(slice(16_000, None))
    state = train(cfg, z_train, z_test)
    paths = simulate_euler(grid, mkt.params(), mkt.s0, z_test)
    ledger = roll_out(state.policy(cfg), paths, 5.0, mkt.rate, CostSpec())
    target = merton_weight(0.02, 0.25, 1.0)
    assert abs(ledger.weights.mean() - target) / target < 0.05  # measured 1.1%
    assert np.abs(ledger.weights - target).mean() / target < 0.2


class TestEarlyStoppingMetric:
    def test_zero_noise_cash_policy_is_exact(self):
        cfg = _config(val_kind="noisy_pool")
        mkt = cfg.market
        pool = make_noisy_pool(mkt, "cumulative", 0.0, 0.0, 30, cfg.grid, seed=3)
        inc = NoiseIncrements.generate(4, 30, cfg.grid.n_steps, 1)
        batch = simulate_euler(cfg.grid, stack_scenarios(pool), mkt.s0, inc)
        val = early_stopping_metric(CashPolicy(), batch, PowerUtility(1.0), 1.0,
                                    mkt.rate, CostSpec())
        assert val == pytest.approx(np.log((1 + 0.015 / 8) ** 8), rel=1e-12)

    def test_default_in_validation_returns_neg_inf(self):
        cfg = _config()
        mkt = cfg.market
        inc = NoiseIncrements.generate(5, 10, cfg.grid.n_steps, 1)
        batch = simulate_euler(cfg.grid, mkt.params(), mkt.s0, inc)
        from robustfolio.portfolio import ConstantWeightPolicy
        batch.s[0, 4:, 0] = 1e-8  # crash one path
        val = early_stopping_metric(ConstantWeightPolicy(5.0), batch,
                                    PowerUtility(1.0), 1.0, mkt.rate, CostSpec())
        assert np.isneginf(val)

    def test_garch_pool_validation_route(self):
        from robustfolio.garch import GarchModel

        model = GarchModel(omega=[3e-4], alpha=[0.05], beta=[0.8], mean=[5e-4],
                           resid_corr=[[1.0]],
                           std_err=[[1e-4, 3e-5, 0.01, 0.02]])
        cfg = _config(mode="vol_robust", epochs=2)
        cfg = __import__("dataclasses").replace(
            cfg, validation=ValidationSpec(kind="garch_pool", b_val=30,
                                           garch_model=model,
                                           garch_se_factor=1.0,
                                           garch_corr_std=0.01))
        batch = validation_paths(cfg, None)  # no increment split needed
        assert batch.s.shape == (30, 9, 1)
        state = train(cfg, *_data(cfg))
        assert state.best is not None
        with pytest.raises(ValueError, match="fitted model"):
            ValidationSpec(kind="garch_pool")

    def test_one_sample_estimator_agrees_across_seeds(self):
        # scenario draws and path noise are independent, so two independent
        # estimates of the pool-averaged utility must agree statistically
        mkt = _market_1d()
        grid = TimeGrid.uniform(1.0, 8)
        from robustfolio.portfolio import ConstantWeightPolicy
        policy = ConstantWeightPolicy(0.4)
        vals = []
        for seed in (11, 12):
            pool = make_noisy_pool(mkt, "cumulative", 0.1, 0.01, 4000, grid,
                                   seed=seed)
            inc = NoiseIncrements.generate(seed + 50, 4000, 8, 1)
            batch = simulate_euler(grid, stack_scenarios(pool), mkt.s0, inc)
            ledger = roll_out(policy, batch, 1.0, mkt.rate, CostSpec())
            u = PowerUtility(1.0)(ledger.terminal)
            vals.append((u.mean(), u.std(ddof=1) / np.sqrt(len(u))))
        (m1, se1), (m2, se2) = vals
        assert abs(m1 - m2) < 3 * np.hypot(se1, se2)
