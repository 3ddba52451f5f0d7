"""The fused training nodes against the generic-op composition they replace.

``euler_wealth_step`` and the Tensor form of ``penalty_pathwise`` must give
the composition's values bit for bit and its gradients to rounding, and
agree with central differences; ``sum_columns`` must give ``np.sum``'s bits.
A central-difference oracle then covers every branch of ``forward_episode``.
"""

import numpy as np
import pytest

from composition import (euler_wealth_composition, penalty_pathwise_composition,
                         step_wealth_composition)
from robustfolio import portfolio
from robustfolio.autodiff import Tensor, concat, euler_wealth_step, numeric_grad, raw
from robustfolio.closed_form import NoTradePolicy, NoTradeRegion
from robustfolio.market import (PRICE_FLOOR, NoiseIncrements, ReferenceMarket,
                                TimeGrid, simulate_euler)
from robustfolio.nets import NeuralPolicy
from robustfolio.portfolio import (CashPolicy, ConstantWeightPolicy, CostSpec,
                                   roll_out, sum_columns)
from robustfolio.training import TrainConfig, forward_episode, init_networks
from robustfolio.utility import PenaltySpec, PowerUtility, penalty_pathwise

FD_STEPS = (1e-5, 1e-6, 1e-7)


def _rel_err(got, ref):
    """Largest deviation relative to the reference array's largest entry."""
    return float(np.max(np.abs(got - ref)) / max(float(np.max(np.abs(ref))), 1e-300))


def _assert_matches_fd(loss, arrays, grads, rtol, atol):
    """Central differences at shrinking steps (the benchmark oracle's rule):
    a coordinate agrees when the difference at any step agrees, since a
    step can straddle a kink of |.| that a smaller one misses."""
    fds = [numeric_grad(loss, arrays, h=h) for h in FD_STEPS]
    for name, ad in grads.items():
        err = np.min([np.abs(ad - fd[name]) / (atol + rtol * np.maximum(np.abs(ad),
                                                                       np.abs(fd[name])))
                      for fd in fds], axis=0)
        assert np.max(err) <= 1.0, (name, float(np.max(err)))


# ----------------------------------------------------------------------
# sum_columns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("d", range(1, 13))
@pytest.mark.parametrize("lead", [(1,), (7,), (1000,), (40, 3)])
def test_sum_columns_has_np_sum_bits(d, lead):
    rng = np.random.default_rng(d)
    a = rng.normal(size=lead + (d,)) * 10.0 ** rng.integers(-8, 8, size=lead + (d,))
    u = rng.random(a.shape)
    a[u < 0.15] = -0.0
    a[(u > 0.15) & (u < 0.2)] = 0.0
    a[(u > 0.2) & (u < 0.22)] = np.inf
    a[(u > 0.22) & (u < 0.24)] = -np.inf
    a[(u > 0.24) & (u < 0.26)] = np.nan
    with np.errstate(invalid="ignore"):
        assert sum_columns(a).tobytes() == np.sum(a, axis=-1).tobytes()
        zeros = np.full(lead + (d,), -0.0)  # np.sum of -0.0 columns is +0.0
        assert sum_columns(zeros).tobytes() == np.sum(zeros, axis=-1).tobytes()


def test_roll_out_ledgers_unchanged_by_sum_columns(monkeypatch):
    """Every ledger array of four policies is byte-identical to the one the
    np.sum form of the wealth step gives."""
    mkt = ReferenceMarket(drift=[0.035, 0.055], vol=[[0.15, 0.0], [0.1, 0.3]],
                          rate=0.015, s0=[1.0, 1.0])
    grid = TimeGrid.uniform(1.0, 12)
    paths = simulate_euler(grid, mkt.params(), mkt.s0,
                           NoiseIncrements.generate(4, 300, 12, 2))
    paths_1d = simulate_euler(grid, ReferenceMarket([0.05], [[0.3]], 0.015,
                                                    [1.0]).params(),
                              [1.0], NoiseIncrements.generate(5, 300, 12, 1))
    cfg = TrainConfig(market=mkt, grid=grid, x0=1.0, utility=PowerUtility(0.5),
                      costs=CostSpec(c_prop=0.01), penalty=None, mode="non_robust",
                      width=5)
    nn = NeuralPolicy(cfg.gen_spec(), init_networks(cfg)[0].arrays, grid.horizon)
    cases = [(CashPolicy(), paths, CostSpec()),
             (ConstantWeightPolicy([0.4, 0.7]), paths, CostSpec(c_prop=0.01,
                                                                 c_base=0.001)),
             (NoTradePolicy(NoTradeRegion(0.45, 0.15)), paths_1d,
              CostSpec(c_prop=0.01)),
             (nn, paths, CostSpec(c_prop=0.005, c_base=0.0005))]
    fields = ("x", "weights", "holdings", "traded", "step_costs", "defaulted",
              "default_step")
    for policy, batch, costs in cases:
        new = roll_out(policy, batch, 1.0, 0.015, costs)
        with monkeypatch.context() as m:
            m.setattr(portfolio, "step_wealth", step_wealth_composition)
            old = roll_out(policy, batch, 1.0, 0.015, costs)
        for name in fields:
            assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), \
                (type(policy).__name__, name)


# ----------------------------------------------------------------------
# concat
# ----------------------------------------------------------------------
def test_concat_gives_array_parts_no_gradient():
    rng = np.random.default_rng(8)
    a_arr, b_arr = rng.normal(size=(4, 2)), rng.normal(size=(4, 1))
    const = rng.normal(size=(4, 3))
    weight = rng.normal(size=(4, 6))

    def grads(wrap_const):
        a, b = Tensor(a_arr), Tensor(b_arr)
        c = Tensor(const) if wrap_const else const
        z = concat([c, a, b], axis=1)
        (z * weight).sum().backward()
        return z, a.grad, b.grad

    z, ga, gb = grads(False)
    _, ref_a, ref_b = grads(True)  # the constant wrapped as a leaf, as before
    assert all(isinstance(p, Tensor) for p in z._parents) and len(z._parents) == 2
    assert ga.tobytes() == ref_a.tobytes() and gb.tobytes() == ref_b.tobytes()


# ----------------------------------------------------------------------
# euler_wealth_step
# ----------------------------------------------------------------------
COSTS = {"frictionless": CostSpec(), "proportional": CostSpec(c_prop=0.01),
         "prop_and_base": CostSpec(c_prop=0.01, c_base=0.002)}


def _step_inputs(d, seed, case):
    rng = np.random.default_rng(seed)
    b = 6
    arrays = {"s": rng.uniform(0.7, 1.3, size=(b, d)),
              "x": rng.uniform(0.6, 1.4, size=b),
              "pi": rng.normal(0.3, 0.3, size=(b, d)),
              "h_prev": rng.normal(0.3, 0.2, size=(b, d)),
              "mu": rng.normal(0.04, 0.05, size=(b, d)),
              "sigma": rng.normal(0.0, 0.2, size=(b, d, d)) + 0.25 * np.eye(d)}
    dw = rng.normal(0.0, 0.1, size=(b, d))
    if case == "zero_trade":  # rows 0 and 2 hold exactly what they carried in
        h = arrays["x"][:, None] * arrays["pi"] / arrays["s"]
        arrays["h_prev"][[0, 2]] = h[[0, 2]]
        arrays["h_prev"][1, 0] = h[1, 0]
    if case == "floor":  # a crash through the price floor on two entries
        arrays["sigma"] += 4.0 * np.eye(d)
        arrays["s"][1] = 0.05
        dw[1] = -1.0
        arrays["s"][3, 0] = 0.08
        dw[3, 0] = -1.5
    return arrays, dw


COEFFS = {"tensors": ("mu", "sigma"), "const_mu": ("sigma",), "const_both": ()}


def _run_step(step, arrays, dw, costs, coeffs, x_col=False):
    d = arrays["s"].shape[1]
    weights = np.random.default_rng(99).normal(size=(3, arrays["s"].shape[0], d))
    ts = {k: Tensor(v) for k, v in arrays.items() if k not in ("mu", "sigma")}
    for k in ("mu", "sigma"):
        if k in coeffs:
            ts[k] = Tensor(arrays[k])
    mu = ts.get("mu", arrays["mu"][0])  # a constant is one (d,) vector
    sigma = ts.get("sigma", arrays["sigma"][0])
    x = ts["x"].reshape((-1, 1)) if x_col else ts["x"]
    s1, x1, h = step(ts["s"], x, ts["pi"], ts["h_prev"], mu, sigma, dw, 1.0 / 12,
                     0.015, costs)
    x1 = x1.reshape((arrays["s"].shape[0],)) if x_col else x1
    loss = ((s1 * weights[0]).sum() + (x1 * weights[1][:, 0]).sum()
            + (h * weights[2]).sum())
    loss.backward()
    return (raw(s1), raw(x1), raw(h)), {k: t.grad if t.grad is not None
                                        else np.zeros(t.shape) for k, t in ts.items()}, \
        float(raw(loss))


def _step_loss(arrays, dw, costs, coeffs):
    def f(arrs):
        return _run_step(euler_wealth_step, {**arrays, **arrs}, dw, costs, coeffs)[2]
    return f


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("cost_name", list(COSTS))
@pytest.mark.parametrize("coeffs", list(COEFFS))
@pytest.mark.parametrize("case", ["plain", "zero_trade", "floor"])
def test_step_node_matches_composition(d, cost_name, coeffs, case):
    arrays, dw = _step_inputs(d, 10 * d + len(case), case)
    costs = COSTS[cost_name]
    out, grads, _ = _run_step(euler_wealth_step, arrays, dw, costs, COEFFS[coeffs],
                              x_col=(d == 2))
    ref_out, ref_grads, _ = _run_step(euler_wealth_composition, arrays, dw, costs,
                                      COEFFS[coeffs])
    for got, ref in zip(out, ref_out):
        assert got.tobytes() == ref.tobytes()
    if case == "floor":
        assert np.any(out[0] == PRICE_FLOOR)
    assert set(grads) == set(ref_grads)
    for name in grads:
        assert _rel_err(grads[name], ref_grads[name]) <= 1e-12, name
    if case == "zero_trade" and costs.c_base > 0:
        return  # the base cost jumps at a zero trade: no derivative to difference
    used = {k: v for k, v in arrays.items()
            if k not in ("mu", "sigma") or k in COEFFS[coeffs]}
    _assert_matches_fd(_step_loss(arrays, dw, costs, COEFFS[coeffs]), used,
                       {k: grads[k] for k in used}, rtol=1e-6, atol=1e-9)


def test_step_node_is_three_nodes_and_plain_without_tensors():
    arrays, dw = _step_inputs(2, 1, "plain")
    costs = COSTS["proportional"]
    plain = euler_wealth_step(arrays["s"], arrays["x"], arrays["pi"],
                              arrays["h_prev"], arrays["mu"], arrays["sigma"], dw,
                              0.1, 0.015, costs)
    assert all(isinstance(o, np.ndarray) for o in plain)
    s1, x1, h = euler_wealth_step(Tensor(arrays["s"]), Tensor(arrays["x"]),
                                  Tensor(arrays["pi"]), arrays["h_prev"],
                                  arrays["mu"], arrays["sigma"], dw, 0.1, 0.015, costs)
    assert s1._parents == (h,) and x1._parents == (h,)
    assert len(h._parents) == 3
    for got, ref in zip((s1, x1, h), plain):
        assert raw(got).tobytes() == ref.tobytes()


# ----------------------------------------------------------------------
# penalty_pathwise
# ----------------------------------------------------------------------
@pytest.mark.parametrize("d", [1, 2, 5])
def test_pathwise_penalty_node_matches_composition(d):
    rng = np.random.default_rng(20 + d)
    grid = TimeGrid.uniform(1.0, 6)
    cov = 0.04 * np.eye(d) + 0.01
    spec = PenaltySpec(kind="pathwise", lam1=1.5, lam2=2.5,
                       mu_ref=np.full(d, 0.03), cov_ref=cov)
    s = np.exp(np.cumsum(rng.normal(0, 0.1, size=(5, 7, d)), axis=1))
    s[2, 4:] *= 0.5  # one path halves
    weight = rng.normal(size=s.shape)

    def run(penalty, extra=1e-3):
        t = Tensor(s)
        total = penalty(t)
        (total + (t * weight).sum() * extra).backward()
        return raw(total), t.grad

    def node(t):
        return penalty_pathwise(spec, t, grid).total

    value, grad = run(node)
    ref_value, ref_grad = run(lambda t: penalty_pathwise_composition(spec, t, grid))
    assert value.tobytes() == ref_value.tobytes()
    assert _rel_err(grad, ref_grad) <= 1e-12
    pen = penalty_pathwise(spec, Tensor(s), grid)
    assert pen.qcv + pen.arr == raw(pen.total)
    _assert_matches_fd(lambda a: float(raw(node(Tensor(a["s"])))), {"s": s.copy()},
                       {"s": run(node, extra=0.0)[1]}, rtol=1e-6, atol=1e-9)


# ----------------------------------------------------------------------
# forward_episode: central differences on every training branch
# ----------------------------------------------------------------------
EPISODES = [
    # mode, penalty, arch, d, c_prop, c_base
    ("non_robust", None, "ffnn", 1, 0.01, 0.0),
    ("non_robust", None, "time_grid", 2, 0.0, 0.002),
    ("vol_robust", "vol", "rnn", 1, 0.0, 0.002),
    ("vol_robust", "additive", "time_grid", 2, 0.01, 0.002),
    ("vol_robust", "pathwise", "ffnn", 2, 0.01, 0.0),
    ("fully_robust", "pathwise", "rnn", 2, 0.01, 0.002),
    ("fully_robust", "multiplicative", "ffnn", 2, 0.01, 0.0),
    ("fully_robust", "additive", "rnn", 1, 0.0, 0.0),
    ("fully_robust", "vol", "time_grid", 1, 0.01, 0.002),
]


@pytest.mark.parametrize("mode,penalty,arch,d,c_prop,c_base", EPISODES)
def test_episode_gradient_oracle(mode, penalty, arch, d, c_prop, c_base):
    vol = [[0.25]] if d == 1 else [[0.2, 0.0], [0.1, 0.3]]
    mkt = ReferenceMarket(drift=[0.04] * d, vol=vol, rate=0.015, s0=[1.0] * d)
    pen = None
    if penalty is not None:
        pen = PenaltySpec(kind=penalty, lam1=1.0, lam2=1.0, mu_ref=mkt.drift,
                          cov_ref=mkt.cov, vol_ref=0.25 if penalty == "vol" else None)
    cfg = TrainConfig(market=mkt, grid=TimeGrid.uniform(1.0, 3), x0=1.0,
                      utility=PowerUtility(0.5), costs=CostSpec(c_prop, c_base),
                      penalty=pen, mode=mode, arch=arch, width=3, seed=7)
    gen, disc = init_networks(cfg)
    rng = np.random.default_rng(31)
    merged = {}
    for tag, ps in (("G", gen), ("D", disc)):
        for k, v in ps.arrays.items():
            merged[f"{tag}.{k}"] = v + 0.1 * rng.normal(size=v.shape)
    z = rng.normal(size=(3, 3, d))

    def split(arrs, wrap):
        return [{k[2:]: wrap(v) for k, v in arrs.items() if k[0] == tag}
                for tag in ("G", "D")]

    tensors = split(merged, Tensor)
    forward_episode(z, *tensors, cfg).gen_loss.backward()
    grads = {f"{tag}.{k}": (t.grad if t.grad is not None else np.zeros(t.shape))
             for tag, ts in zip("GD", tensors) for k, t in ts.items()}
    if mode == "non_robust":
        assert all(not np.any(g) for k, g in grads.items() if k[0] == "D")
    _assert_matches_fd(lambda a: float(raw(forward_episode(z, *split(a, np.asarray),
                                                           cfg).gen_loss)),
                       merged, grads, rtol=1e-4, atol=1e-8)
