import numpy as np
import pytest

from robustfolio.autodiff import Tensor, raw
from robustfolio.nets import (NetSpec, ParamSet, adam_step, build_net,
                              forward_market, forward_policy, load_checkpoint,
                              lr_schedule, market_head_bias, market_spec,
                              policy_spec, save_checkpoint, spec_from_dict,
                              spec_to_dict, unpack_market_output)


def _init(spec, seed=0, **kw):
    return build_net(spec).init(np.random.default_rng(seed), **kw)


class TestSpecs:
    def test_policy_and_market_dimensions(self):
        ps = policy_spec(3)
        assert (ps.in_dim, ps.out_dim) == (5, 3)
        ms = market_spec(3)
        assert (ms.in_dim, ms.out_dim) == (5, 3 + 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetSpec(in_dim=3, out_dim=1, arch="transformer")
        with pytest.raises(ValueError):
            NetSpec(in_dim=3, out_dim=1, arch="time_grid")
        with pytest.raises(ValueError):
            NetSpec(in_dim=3, out_dim=1, arch="rnn", depth=2)

    def test_spec_dict_round_trip(self):
        spec = NetSpec(in_dim=4, out_dim=2, arch="time_grid", width=8, n_steps=5)
        assert spec_from_dict(spec_to_dict(spec)) == spec


class TestForward:
    def test_zero_head_outputs_zero_weights(self):
        spec = policy_spec(2, width=8)
        params = _init(spec, zero_head=True)
        net = build_net(spec)
        s = np.random.default_rng(1).uniform(0.5, 2.0, size=(6, 2))
        pi, _ = forward_policy(net, params.arrays, 0, 0.3, s, np.ones(6), None)
        assert np.array_equal(pi, np.zeros((6, 2)))

    def test_ffnn_is_markov(self):
        spec = policy_spec(1, width=4)
        params = _init(spec, seed=2)
        net = build_net(spec)
        s = np.array([[1.1]])
        x = np.array([0.9])
        out1, h1 = forward_policy(net, params.arrays, 0, 0.5, s, x, None)
        # feed a fake "history" through the hidden slot; ffnn must ignore it
        out2, _ = forward_policy(net, params.arrays, 7, 0.5, s, x, h1)
        assert np.array_equal(out1, out2)

    def test_rnn_accumulates_history(self):
        # one recurrent unit wired to pass the price through and carry state:
        # h' = tanh(s + h), so equal current inputs with different pasts differ
        spec = NetSpec(in_dim=3, out_dim=1, arch="rnn", width=1)
        arrays = {
            "rnn.Wx": np.array([[0.0], [1.0], [0.0]]),
            "rnn.Wh": np.array([[1.0]]),
            "rnn.b": np.zeros(1),
            "out.W": np.array([[1.0]]),
            "out.b": np.zeros(1),
        }
        net = build_net(spec)
        s_hist_a, s_hist_b = [0.2, 0.8], [0.7, 0.8]
        outs = []
        for hist in (s_hist_a, s_hist_b):
            hidden = None
            for n, sv in enumerate(hist):
                out, hidden = forward_policy(net, arrays, n, 0.0,
                                             np.array([[sv]]), np.ones(1), hidden)
            outs.append(out[0, 0])
        assert outs[0] != outs[1]

    def test_market_head_bias_emits_reference_exactly(self):
        mu = np.array([0.035, 0.055])
        vol = np.array([[0.15, 0.0], [0.0, 0.35]])
        spec = market_spec(2, width=16)
        params = _init(spec, seed=3, head_bias=market_head_bias(mu, vol))
        net = build_net(spec)
        rng = np.random.default_rng(4)
        s = rng.uniform(0.5, 2.0, size=(5, 2))
        mu_out, sig_out, _ = forward_market(net, params.arrays, 0, 0.7, s,
                                            rng.uniform(0.5, 2, 5), None)
        assert np.array_equal(mu_out, np.tile(mu, (5, 1)))
        assert np.array_equal(sig_out, np.tile(vol, (5, 1, 1)))

    def test_market_output_layout_round_trips(self):
        mu = np.array([0.1, 0.2])
        vol = np.array([[1.0, 2.0], [3.0, 4.0]])
        flat = market_head_bias(mu, vol)
        mu2, vol2 = unpack_market_output(flat, 2)
        assert np.array_equal(mu, mu2)
        assert np.array_equal(vol, vol2)

    def test_forward_perturbation_changes_output(self):
        spec = market_spec(1, width=8)
        params = _init(spec, seed=5)
        net = build_net(spec)
        a, _, _ = forward_market(net, params.arrays, 0, 0.1, np.array([[1.0]]),
                                 np.ones(1), None)
        b, _, _ = forward_market(net, params.arrays, 0, 0.1, np.array([[1.3]]),
                                 np.ones(1), None)
        assert not np.array_equal(a, b)

    def test_time_grid_uses_per_step_parameters(self):
        spec = NetSpec(in_dim=3, out_dim=1, arch="time_grid", width=4, n_steps=3)
        params = _init(spec, seed=6)
        net = build_net(spec)
        s = np.array([[1.0]])
        outs = {n: forward_policy(net, params.arrays, n, 0.0, s, np.ones(1),
                                  None)[0][0, 0] for n in range(3)}
        assert len(set(outs.values())) == 3

    def test_time_grid_gradients_touch_only_the_used_step(self):
        spec = NetSpec(in_dim=3, out_dim=1, arch="time_grid", width=4, n_steps=3)
        params = _init(spec, seed=7)
        net = build_net(spec)
        tensors = {k: Tensor(v) for k, v in params.arrays.items()}
        out, _ = forward_policy(net, tensors, 1, 0.0, Tensor(np.ones((2, 1))),
                                Tensor(np.ones(2)), None)
        out.sum().backward()
        for name, t in tensors.items():
            if name.startswith("s1."):
                assert t.grad is not None
            else:
                assert t.grad is None

    def test_tensor_and_numpy_forward_agree(self):
        for arch in ("ffnn", "rnn", "time_grid"):
            spec = NetSpec(in_dim=3, out_dim=2, arch=arch, width=6,
                           n_steps=4 if arch == "time_grid" else None)
            params = _init(spec, seed=8)
            net = build_net(spec)
            s = np.random.default_rng(9).uniform(0.5, 2, size=(3, 1))
            out_np, _ = forward_policy(net, params.arrays, 0, 0.2, s,
                                       np.ones(3), None)
            tensors = {k: Tensor(v) for k, v in params.arrays.items()}
            out_t, _ = forward_policy(net, tensors, 0, 0.2, Tensor(s),
                                      Tensor(np.ones(3)), None)
            assert np.array_equal(out_np, raw(out_t))


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = ParamSet(arrays={"w": np.array([1.0, -2.0])})
        before = params.arrays["w"].copy()
        adam_step(params, {"w": np.zeros(2)}, lr=0.1)
        assert np.array_equal(params.arrays["w"], before)
        assert params.step == 1

    def test_first_step_closed_form(self):
        g = np.array([0.3, -2.0])
        params = ParamSet(arrays={"w": np.zeros(2)})
        adam_step(params, {"w": g}, lr=0.01, eps=1e-8)
        expected = -0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(params.arrays["w"], expected, rtol=1e-12)

    def test_constant_gradient_approaches_sign_step(self):
        g = np.array([0.37])
        params = ParamSet(arrays={"w": np.zeros(1)})
        prev = 0.0
        for _ in range(2000):
            prev = params.arrays["w"][0]
            adam_step(params, {"w": g}, lr=1e-3)
        last_step = params.arrays["w"][0] - prev
        assert last_step == pytest.approx(-1e-3, rel=1e-6)

    def test_shape_mismatch_rejected(self):
        params = ParamSet(arrays={"w": np.zeros(2)})
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(3)}, lr=0.1)

    def test_deterministic(self):
        def run():
            params = ParamSet(arrays={"w": np.ones(3)})
            for k in range(10):
                adam_step(params, {"w": np.full(3, 0.1 * (k + 1))}, lr=1e-2)
            return params.arrays["w"]

        assert np.array_equal(run(), run())


class TestLrSchedule:
    def test_paper_configuration(self):
        assert lr_schedule(0) == 5e-4
        assert lr_schedule(99) == 5e-4
        assert lr_schedule(100) == pytest.approx(1e-4)
        assert lr_schedule(200) == pytest.approx(2e-5)

    def test_custom(self):
        assert lr_schedule(10, base_lr=1.0, decay=0.5, every=5) == 0.25


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        spec = policy_spec(2, width=4)
        gen = _init(spec, seed=10)
        disc = _init(market_spec(2, width=4), seed=11)
        adam_step(gen, {k: np.ones_like(v) for k, v in gen.arrays.items()},
                  lr=1e-3)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, gen, disc, {"epoch": 3, "seed": 10})
        gen2, disc2, meta = load_checkpoint(path)
        assert meta["epoch"] == 3
        assert gen2.step == 1
        for k in gen.names:
            assert np.array_equal(gen.arrays[k], gen2.arrays[k])
            assert np.array_equal(gen.m[k], gen2.m[k])
            assert np.array_equal(gen.v[k], gen2.v[k])
        assert disc2 is not None and disc2.names == disc.names

    def test_missing_disc_ok(self, tmp_path):
        gen = _init(policy_spec(1, width=4), seed=12)
        path = tmp_path / "gen_only.npz"
        save_checkpoint(path, gen, None, {})
        gen2, disc2, _ = load_checkpoint(path)
        assert disc2 is None
        assert gen2.names == gen.names


    @pytest.mark.parametrize("target", ["npz", "sidecar"])
    def test_failed_write_leaves_previous_file_in_place(self, target, tmp_path,
                                                        monkeypatch):
        import json

        gen = _init(policy_spec(1, width=4), seed=12)
        path = tmp_path / "ck.npz"
        sidecar = tmp_path / "ck.npz.json"
        save_checkpoint(path, gen, None, {"epoch": 0})
        before = {"npz": path.read_bytes(), "sidecar": sidecar.read_bytes()}
        newer = gen.copy()
        for arr in newer.arrays.values():
            arr += 1.0

        def write_then_crash(obj, fh, **kw):
            fh.write(b"partial" if "b" in fh.mode else "partial")
            raise OSError("disk full")

        if target == "npz":
            monkeypatch.setattr(np, "savez",
                                lambda fh, **kw: write_then_crash(None, fh))
        else:
            monkeypatch.setattr(json, "dump", write_then_crash)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, newer, None, {"epoch": 1})
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.npz", "ck.npz.json"]
        # the sidecar is replaced after the npz: it never runs ahead of it
        assert sidecar.read_bytes() == before["sidecar"]
        if target == "npz":
            assert path.read_bytes() == before["npz"]
            loaded, _, meta = load_checkpoint(path)
            assert meta == {"epoch": 0}
            for k in gen.names:
                assert np.array_equal(loaded.arrays[k], gen.arrays[k])


def test_init_is_seed_deterministic():
    a = _init(policy_spec(2, width=8), seed=33)
    b = _init(policy_spec(2, width=8), seed=33)
    for k in a.names:
        assert np.array_equal(a.arrays[k], b.arrays[k])


def test_paramset_flat_and_copy():
    ps = _init(policy_spec(1, width=4), seed=1)
    flat = ps.flat()
    assert flat.size == ps.n_params
    cp = ps.copy()
    cp.arrays[cp.names[0]][...] = 99.0
    assert not np.array_equal(ps.arrays[ps.names[0]], cp.arrays[cp.names[0]])
