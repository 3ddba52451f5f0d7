import numpy as np
import pytest

from composition import step_wealth_composition
from robustfolio.autodiff import Tensor, raw
from robustfolio.closed_form import merton_weight
from robustfolio.market import (NoiseIncrements, ReferenceMarket, TimeGrid,
                                simulate_euler)
from robustfolio.portfolio import (CashPolicy, ConstantWeightPolicy, CostSpec,
                                   roll_out, step_wealth)
from robustfolio.utility import PowerUtility

RATE = 0.015
DT = 1.0 / 65


@pytest.fixture(scope="module")
def grid():
    return TimeGrid.uniform(1.0, 65)


@pytest.fixture(scope="module")
def market(grid):
    return ReferenceMarket(drift=[0.035], vol=[[0.25]], rate=RATE, s0=[1.0])


@pytest.fixture(scope="module")
def paths(grid, market):
    inc = NoiseIncrements.generate(21, 100_000, 65, 1)
    return simulate_euler(grid, market.params(), market.s0, inc)


class TestStepWealth:
    def test_pure_bank_account(self):
        x = np.array([1.0, 2.0])
        pi = np.zeros((2, 1))
        s = np.ones((2, 1))
        x2, h, a, c = step_wealth(x, pi, np.zeros((2, 1)), s, 0.1 * s, RATE, DT,
                                  CostSpec())
        assert np.allclose(x2, x * (1 + RATE * DT), rtol=1e-15)
        assert np.array_equal(h, np.zeros((2, 1)))

    def test_cost_of_initial_half_position(self):
        # jump 0 -> 0.5 at unit price: trade 0.5 shares, cost accrued at r
        x = np.array([1.0])
        pi = np.array([[0.5]])
        s = np.ones((1, 1))
        costs = CostSpec(c_prop=0.01)
        x2, h, a, c = step_wealth(x, pi, np.zeros((1, 1)), s, np.zeros((1, 1)),
                                  RATE, DT, costs)
        assert a[0, 0] == pytest.approx(0.5)
        assert c[0] == pytest.approx((1 + RATE * DT) * 0.5 * 0.01, rel=1e-14)
        assert c[0] == pytest.approx(0.0050012, abs=1e-7)

    def test_no_rebalance_means_no_cost(self):
        # holdings carried over exactly: traded amount 0, no proportional cost
        x = np.array([1.3])
        s = np.array([[1.7]])
        pi = np.array([[0.4]])
        h_prev = x[:, None] * pi / s
        x2, h, a, c = step_wealth(x, pi, h_prev, s, 0.05 * s, RATE, DT,
                                  CostSpec(c_prop=0.02))
        assert np.array_equal(a, np.zeros((1, 1)))
        assert np.allclose(c, 0.0)

    def test_base_cost_counts_executed_trades_only(self):
        x = np.array([1.0])
        pi = np.array([[0.3, 0.0]])
        s = np.ones((1, 2))
        costs = CostSpec(c_base=2.0)
        x2, h, a, c = step_wealth(x, pi, np.zeros((1, 2)), s, np.zeros((1, 2)),
                                  0.0, DT, costs)
        assert c[0] == pytest.approx(2.0)  # one executed trade, not two

    def test_float_noise_does_not_trigger_base_cost(self):
        x = np.array([1.0])
        pi = np.array([[0.3]])
        s = np.ones((1, 1))
        h_prev = x[:, None] * pi / s + 1e-15
        *_, c = step_wealth(x, pi, h_prev, s, np.zeros((1, 1)), 0.0, DT,
                            CostSpec(c_base=5.0))
        assert c[0] == 0.0

    def test_tensor_and_numpy_agree(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.5, 2.0, size=4)
        pi = rng.normal(0.3, 0.2, size=(4, 2))
        h_prev = rng.normal(0.1, 0.05, size=(4, 2))
        s = rng.uniform(0.8, 1.3, size=(4, 2))
        ds = rng.normal(0, 0.02, size=(4, 2))
        costs = CostSpec(c_prop=0.01, c_base=0.001)
        out_np = step_wealth(x, pi, h_prev, s, ds, RATE, DT, costs)
        # the generic-op reference of the training step, on Tensors
        out_t = step_wealth_composition(Tensor(x), Tensor(pi), Tensor(h_prev),
                                        Tensor(s), Tensor(ds), RATE, DT, costs)
        for a, b in zip(out_np, out_t):
            assert np.allclose(a, raw(b), rtol=1e-14)


class TestRollOut:
    def test_cash_policy_compounds_exactly(self, paths):
        ledger = roll_out(CashPolicy(), paths, 1.0, RATE, CostSpec())
        expected = (1 + RATE * DT) ** 65
        assert np.allclose(ledger.terminal, expected, rtol=1e-13)
        assert not ledger.defaulted.any()

    def test_cash_utility_anchor_value(self, paths):
        ledger = roll_out(CashPolicy(), paths, 1.0, RATE, CostSpec(c_prop=0.01))
        val = PowerUtility(0.5, shifted=False)(ledger.terminal).mean()
        assert val == pytest.approx(2.0151, abs=5e-5)

    def test_constant_weight_log_wealth_matches_quadrature(self, grid, market, paths):
        # oracle: E ln X_T = N * E ln(1 + m dt + pi sigma sqrt(dt) Z) via
        # Gauss-Hermite quadrature, independent of the simulation path
        pi = merton_weight(0.02, 0.25, 1.0)
        ledger = roll_out(ConstantWeightPolicy(pi), paths, 1.0, RATE, CostSpec())
        nodes, weights = np.polynomial.hermite_e.hermegauss(201)
        m = RATE + pi * 0.02
        b = pi * 0.25 * np.sqrt(DT)
        step_mean = np.sum(weights * np.log(1 + m * DT + b * nodes)) / np.sqrt(2 * np.pi)
        target = 65 * step_mean
        logs = np.log(ledger.terminal)
        se = logs.std(ddof=1) / np.sqrt(len(logs))
        assert abs(logs.mean() - target) < 3 * se

    def test_zero_cost_equivalence_is_exact(self, grid, market):
        # the friction recursion with zero costs must equal the
        # frictionless update bit for bit, for every path
        inc = NoiseIncrements.generate(4, 200, 65, 1)
        batch = simulate_euler(grid, market.params(), market.s0, inc)
        pol = ConstantWeightPolicy(0.7)
        ledger = roll_out(pol, batch, 1.0, RATE, CostSpec())
        x = np.full(200, 1.0)
        pi = np.full((200, 1), 0.7)
        for n in range(65):
            s = batch.s[:, n, :]
            ds = batch.s[:, n + 1, :] - s
            h = x[:, None] * pi / s
            x = x + (h * ds).sum(axis=1) + (1.0 - pi.sum(axis=1)) * x * (RATE * DT)
        assert np.array_equal(ledger.terminal, x)

    def test_cost_monotonicity(self, grid, market):
        inc = NoiseIncrements.generate(5, 500, 65, 1)
        batch = simulate_euler(grid, market.params(), market.s0, inc)
        pol = ConstantWeightPolicy(0.7)
        terminals = [roll_out(pol, batch, 1.0, RATE, CostSpec(c_prop=c)).terminal
                     for c in (0.0, 0.001, 0.01, 0.05)]
        for lo, hi in zip(terminals, terminals[1:]):
            assert (hi <= lo + 1e-15).all()

    def test_scale_equivariance(self, grid, market):
        inc = NoiseIncrements.generate(6, 100, 65, 1)
        batch = simulate_euler(grid, market.params(), market.s0, inc)
        pol = ConstantWeightPolicy(0.4)
        a = roll_out(pol, batch, 1.0, RATE, CostSpec(c_prop=0.01))
        b = roll_out(pol, batch, 2.0, RATE, CostSpec(c_prop=0.01))
        assert np.allclose(b.x, 2.0 * a.x, rtol=1e-13)

    def test_holdings_identity(self, grid, market):
        inc = NoiseIncrements.generate(7, 50, 65, 1)
        batch = simulate_euler(grid, market.params(), market.s0, inc)
        ledger = roll_out(ConstantWeightPolicy(0.6), batch, 1.0, RATE,
                          CostSpec(c_prop=0.005))
        for n in range(65):
            lhs = ledger.holdings[:, n, 0] * batch.s[:, n, 0]
            rhs = ledger.weights[:, n, 0] * ledger.x[:, n]
            assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_default_is_flagged_and_simulation_continues(self, grid):
        # a heavily levered position through a crash turns wealth negative
        s = np.ones((1, 66, 1))
        s[0, 1:, 0] = 0.05
        from robustfolio.market import PathBatch
        batch = PathBatch(grid=grid, s=s, floored=np.zeros(1, dtype=bool))
        ledger = roll_out(ConstantWeightPolicy(3.0), batch, 1.0, RATE, CostSpec())
        assert ledger.defaulted[0]
        assert ledger.default_step[0] == 1
        assert np.isfinite(ledger.x).all()

    def test_non_finite_policy_aborts_with_path_id(self, grid, market):
        inc = NoiseIncrements.generate(8, 3, 65, 1)
        batch = simulate_euler(grid, market.params(), market.s0, inc)

        class Broken:
            def reset(self, n):
                return None

            def weights(self, n, t, s, x, state):
                out = np.zeros_like(s)
                out[1] = np.nan
                return out, None

        with pytest.raises(ValueError, match="path 1"):
            roll_out(Broken(), batch, 1.0, RATE, CostSpec())

    def test_ledger_records_every_step(self, grid, market):
        inc = NoiseIncrements.generate(9, 2, 65, 1)
        batch = simulate_euler(grid, market.params(), market.s0, inc)
        ledger = roll_out(ConstantWeightPolicy(0.5), batch, 1.0, RATE,
                          CostSpec(c_prop=0.01))
        assert ledger.x.shape == (2, 66) and ledger.x[0, 0] == 1.0
        for arr in (ledger.weights, ledger.holdings, ledger.traded):
            assert arr.shape == (2, 65, 1)
        assert np.all(ledger.weights == 0.5)
        # rebalancing to constant weights trades, and pays, on every step
        assert ledger.step_costs.shape == (2, 65) and ledger.step_costs.min() > 0


def test_negative_costs_rejected():
    with pytest.raises(ValueError):
        CostSpec(c_prop=-0.01)
