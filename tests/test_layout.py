"""Step-major storage against the path-major recursions it replaced.

``simulate_euler``, the GARCH recursion and ``roll_out`` keep their per-step
arrays as (N, B, ...) buffers and hand out transposed views.  Every price,
flag and ledger array must keep the path-major shape and bytes of the
reference forms in ``composition``.
"""

import numpy as np
import pytest

from composition import (garch_paths_path_major, roll_out_path_major,
                         simulate_euler_path_major)
from robustfolio import garch
from robustfolio.closed_form import NoTradePolicy, NoTradeRegion
from robustfolio.market import (PRICE_FLOOR, NoiseIncrements, ReferenceMarket,
                                StudentTMarket, TimeGrid, brownian_steps,
                                euler_diffusion, make_noisy_pool, simulate_euler,
                                simulate_student_t, stack_scenarios)
from robustfolio.nets import NeuralPolicy
from robustfolio.portfolio import (CashPolicy, ConstantWeightPolicy, CostSpec,
                                   roll_out)
from robustfolio.training import TrainConfig, init_networks
from robustfolio.utility import PowerUtility

LEDGER_FIELDS = ("x", "weights", "holdings", "traded", "step_costs", "defaulted",
                 "default_step")


def _market(d, vol_scale=0.2, seed=0):
    rng = np.random.default_rng(seed + d)
    vol = np.tril(rng.normal(size=(d, d))) * vol_scale + np.eye(d) * 0.1
    return ReferenceMarket(drift=rng.normal(size=d) * 0.05, vol=vol, rate=0.015,
                           s0=rng.uniform(0.5, 2.0, size=d))


def _params(kind, mkt, grid, b, seed=3):
    if kind == "constant":
        return mkt.params()
    return stack_scenarios(make_noisy_pool(mkt, "non_constant", 0.3, 0.05, b, grid,
                                           seed=seed))


def _assert_same_batch(got, ref):
    assert got.s.shape == ref.s.shape
    assert got.s.tobytes() == ref.s.tobytes()
    assert got.floored.tobytes() == ref.floored.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
@pytest.mark.parametrize("kind", ["constant", "per_path"])
def test_euler_prices_match_path_major_reference(d, kind):
    grid = TimeGrid.uniform(1.0, 13)
    mkt = _market(d)
    inc = NoiseIncrements.generate(d, 150, grid.n_steps, d)
    params = _params(kind, mkt, grid, inc.n_paths)
    got = simulate_euler(grid, params, mkt.s0, inc)
    _assert_same_batch(got, simulate_euler_path_major(grid, params, mkt.s0, inc))
    assert got.terminal.tobytes() == got.s[:, -1, :].copy().tobytes()


@pytest.mark.parametrize("d", [1, 2, 9])
@pytest.mark.parametrize("kind", ["constant", "per_path"])
def test_paths_that_hit_the_price_floor_match_reference(d, kind):
    grid = TimeGrid.uniform(1.0, 6)
    mkt = _market(d, vol_scale=3.0 / d)
    inc = NoiseIncrements.generate(10 + d, 200, grid.n_steps, d)
    params = _params(kind, mkt, grid, inc.n_paths)
    got = simulate_euler(grid, params, mkt.s0, inc)
    assert got.floored.any() and not got.floored.all()
    assert (got.s == PRICE_FLOOR).any()
    _assert_same_batch(got, simulate_euler_path_major(grid, params, mkt.s0, inc))


def test_garch_paths_match_path_major_reference(monkeypatch):
    model = garch.GarchModel(omega=[1e-5, 2e-5], alpha=[0.05, 0.08],
                             beta=[0.9, 0.85], mean=[1e-4, 2e-4],
                             resid_corr=[[1.0, 0.3], [0.3, 1.0]],
                             std_err=np.full((2, 4), 1e-3))
    grid = TimeGrid.uniform(1.0, 17)
    pool = garch.make_noisy_garch_pool(model, 1.0, 0.01, 120, seed=5)

    def both():
        return (garch.simulate_garch_pool_single_paths(pool, grid, [1.0, 2.0], seed=6),
                garch.simulate_garch(model, grid, [1.0, 2.0], 90, seed=7))

    got = both()
    monkeypatch.setattr(garch, "_garch_paths", garch_paths_path_major)
    for new, ref in zip(got, both()):
        _assert_same_batch(new, ref)


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("per_path", [False, True])
def test_euler_diffusion_has_the_np_sum_bits(d, per_path):
    rng = np.random.default_rng(d)
    b = 64
    sigma = rng.normal(size=(b, d, d) if per_path else (d, d))
    sigma[np.abs(sigma) < 0.2] = -0.0
    dw, s = rng.normal(size=(b, d)), rng.uniform(0.5, 2.0, size=(b, d))
    with_s = np.sum((s[:, :, None] * sigma) * dw[:, None, :], axis=2)
    without = np.sum(sigma * dw[:, None, :], axis=2)
    assert euler_diffusion(sigma, dw, s).tobytes() == with_s.tobytes()
    assert euler_diffusion(sigma, dw).tobytes() == without.tobytes()


def test_brownian_steps_is_the_scaled_noise_step_major():
    inc = NoiseIncrements.generate(2, 30, 9, 3)
    grid = TimeGrid(horizon=1.0, n_steps=9, dt=np.linspace(1.0, 2.0, 9) / 13.5)
    dw = brownian_steps(inc.z, grid.dt)
    assert dw.shape == (9, 30, 3) and dw.flags.c_contiguous
    ref = inc.z * np.sqrt(grid.dt)[None, :, None]
    assert dw.transpose(1, 0, 2).tobytes() == ref.tobytes()
    assert inc.brownian(grid).shape == ref.shape
    assert inc.brownian(grid).tobytes() == ref.tobytes()


def _roll_out_cases():
    grid = TimeGrid.uniform(1.0, 12)
    mkt = _market(2, vol_scale=0.4)
    inc = NoiseIncrements.generate(4, 300, grid.n_steps, 2)
    paths = simulate_euler(grid, _params("per_path", mkt, grid, 300), mkt.s0, inc)
    mkt_1d = ReferenceMarket([0.05], [[0.3]], 0.015, [1.0])
    paths_1d = simulate_euler(grid, mkt_1d.params(), mkt_1d.s0,
                              NoiseIncrements.generate(5, 300, grid.n_steps, 1))
    # a path-major batch: roll_out reads its columns through the same view
    student = simulate_student_t(StudentTMarket(nu=3.5, mu=0.05, scale=0.3,
                                                rate=0.015), grid, 1.0, 300, seed=8)
    cfg = TrainConfig(market=mkt, grid=grid, x0=1.0, utility=PowerUtility(0.5),
                      costs=CostSpec(c_prop=0.01), penalty=None, mode="non_robust",
                      width=5)
    nn = NeuralPolicy(cfg.gen_spec(), init_networks(cfg)[0].arrays, grid.horizon)
    return {
        "cash": (CashPolicy(), paths, CostSpec()),
        "constant": (ConstantWeightPolicy([0.4, 0.7]), paths,
                     CostSpec(c_prop=0.01, c_base=0.001)),
        "leveraged": (ConstantWeightPolicy([6.0, -5.0]), paths, CostSpec(c_prop=0.01)),
        "no_trade": (NoTradePolicy(NoTradeRegion(0.45, 0.15)), paths_1d,
                     CostSpec(c_prop=0.01)),
        "no_trade_path_major": (NoTradePolicy(NoTradeRegion(0.45, 0.15)), student,
                                CostSpec(c_prop=0.01, c_base=0.001)),
        "nn": (nn, paths, CostSpec(c_prop=0.005, c_base=0.0005)),
    }


ROLL_OUT_CASES = _roll_out_cases()


@pytest.mark.parametrize("case", sorted(ROLL_OUT_CASES))
def test_roll_out_ledger_matches_path_major_reference(case):
    policy, paths, costs = ROLL_OUT_CASES[case]
    got = roll_out(policy, paths, 1.0, 0.015, costs)
    ref = roll_out_path_major(policy, paths, 1.0, 0.015, costs)
    for name in LEDGER_FIELDS:
        new, old = getattr(got, name), getattr(ref, name)
        assert new.shape == old.shape, name
        assert new.nbytes == old.nbytes, name
        assert new.tobytes() == old.tobytes(), name
    assert got.terminal.tobytes() == ref.terminal.tobytes()
    if case == "leveraged":
        assert got.defaulted.any()
