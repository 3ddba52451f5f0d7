import numpy as np
import pytest

from robustfolio.closed_form import (NoTradePolicy, NoTradeRegion,
                                     solve_fully_robust)
from robustfolio.evaluation import (EvalReport, UtilityEstimate, discount,
                                    evaluate_policies, expected_utility_on,
                                    histogram_report,
                                    pooled_min_utilities, pooled_min_utility,
                                    relative_error, simulate_scenario,
                                    value_at_risk, write_reports_csv)
from robustfolio.garch import GarchModel
from robustfolio.market import (NoiseIncrements, ReferenceMarket,
                                StudentTMarket, TimeGrid, make_noisy_pool,
                                simulate_euler)
from robustfolio.portfolio import (CashPolicy, ConstantWeightPolicy, CostSpec,
                                   roll_out)
from robustfolio.utility import PowerUtility


@pytest.fixture(scope="module")
def grid():
    return TimeGrid.uniform(1.0, 65)


@pytest.fixture(scope="module")
def market(grid):
    return ReferenceMarket(drift=[0.055], vol=[[0.35]], rate=0.015, s0=[1.0])


class TestExpectedUtility:
    def test_cash_anchor_values(self, grid, market):
        # bank-account anchors are deterministic: no Monte Carlo error at all
        cases = [
            (PowerUtility(0.5, shifted=False), 0.015, 2.0151),
            (PowerUtility(0.5, shifted=False), 0.03, 2.0302),
            (PowerUtility(0.5), 0.015, 0.01506),
            (PowerUtility(1.0), 0.015, 0.01500),
            (PowerUtility(2.0), 0.015, 0.01488),
        ]
        for utility, rate, expected in cases:
            mkt = ReferenceMarket(drift=[0.055], vol=[[0.35]], rate=rate, s0=[1.0])
            paths = simulate_scenario(mkt, grid, mkt.s0, 200, seed=1)
            est = expected_utility_on(CashPolicy(), paths, 1.0, rate,
                                      CostSpec(c_prop=0.01), utility)
            assert est.value == pytest.approx(expected, abs=5e-5)
            assert est.std_error == pytest.approx(0.0, abs=1e-15)

    def test_std_error_scales_inverse_sqrt(self, grid, market):
        pol = ConstantWeightPolicy(0.6)
        small, big = (expected_utility_on(
            pol, simulate_scenario(market, grid, market.s0, b, seed=2), 1.0,
            0.015, CostSpec(), PowerUtility(1.0)) for b in (2000, 8000))
        assert small.std_error / big.std_error == pytest.approx(2.0, rel=0.15)

    def test_default_reports_neg_inf(self, grid):
        m = StudentTMarket(nu=3.5, mu=0.10, scale=0.35, rate=0.03)
        paths = simulate_scenario(m, grid, [1.0], 40_000, seed=0)
        est = expected_utility_on(ConstantWeightPolicy(1.2), paths, 1.0, 0.03,
                                  CostSpec(), PowerUtility(0.5, shifted=False))
        assert np.isneginf(est.value)
        assert est.n_defaults > 0


class TestPooledMin:
    def test_identical_scenarios_collapse_to_single_estimate(self, grid, market):
        pool = [market, market, market]
        res = pooled_min_utility(ConstantWeightPolicy(0.5), pool, grid,
                                 market.s0, 1.0, 0.015, CostSpec(),
                                 PowerUtility(1.0), 500, seed=3)
        vals = [e.value for e in res.estimates]
        # same scenario but independent substreams: all close, min is min
        assert res.m_u == min(vals)
        assert res.m_u <= max(vals)

    def test_cash_policy_is_pool_invariant(self, grid, market):
        pool = make_noisy_pool(market, "cumulative", 0.2, 0.05, 8, grid, seed=4)
        res = pooled_min_utility(CashPolicy(), pool, grid, market.s0, 1.0,
                                 0.015, CostSpec(), PowerUtility(1.0), 100,
                                 seed=5)
        vals = np.array([e.value for e in res.estimates])
        assert np.allclose(vals, vals[0], rtol=1e-14)
        assert res.m_u == pytest.approx(np.log((1 + 0.015 / 65) ** 65))

    def test_enlarging_pool_never_raises_minimum(self, grid, market):
        pool = make_noisy_pool(market, "cumulative", 0.15, 0.02, 10, grid, seed=6)
        pol = ConstantWeightPolicy(0.8)
        res_small = pooled_min_utility(pol, pool[:4], grid, market.s0, 1.0,
                                       0.015, CostSpec(), PowerUtility(1.0),
                                       300, seed=7)
        res_full = pooled_min_utility(pol, pool, grid, market.s0, 1.0, 0.015,
                                      CostSpec(), PowerUtility(1.0), 300, seed=7)
        assert res_full.m_u <= res_small.m_u
        assert res_full.estimates[:4] == res_small.estimates

    def test_argmin_is_reported(self, grid, market):
        pool = make_noisy_pool(market, "cumulative", 0.15, 0.02, 5, grid, seed=8)
        res = pooled_min_utility(ConstantWeightPolicy(0.8), pool, grid,
                                 market.s0, 1.0, 0.015, CostSpec(),
                                 PowerUtility(1.0), 200, seed=9)
        vals = [e.value for e in res.estimates]
        assert vals[res.argmin] == res.m_u

    def test_one_pass_equals_separate_calls(self, grid, market):
        pool = make_noisy_pool(market, "cumulative", 0.15, 0.02, 4, grid, seed=10)
        region = NoTradeRegion.from_params(0.04, 0.35, 1.0, 0.01)
        policies = {"cash": CashPolicy(), "constant": ConstantWeightPolicy(0.6),
                    "no-trade": NoTradePolicy(region)}
        args = (pool, grid, market.s0, 1.0, 0.015, CostSpec(c_prop=0.01),
                PowerUtility(1.0), 300)
        together = pooled_min_utilities(policies, *args, seed=11)
        assert list(together) == list(policies)
        for name, policy in policies.items():
            assert together[name] == pooled_min_utility(policy, *args, seed=11)

    def test_empty_pool_rejected(self, grid, market):
        with pytest.raises(ValueError):
            pooled_min_utility(CashPolicy(), [], grid, market.s0, 1.0, 0.015,
                               CostSpec(), PowerUtility(1.0), 10, seed=0)


class TestRelativeError:
    def test_self_comparison_is_exactly_zero(self, grid, market):
        pol = ConstantWeightPolicy(0.4)
        res = relative_error(pol, np.array([0.4]), market.drift, market.cov,
                             grid, market.s0, 1.0, 0.015, CostSpec(c_prop=0.01),
                             PowerUtility(1.0), 500, seed=10)
        assert res.err_rel == 0.0

    def test_sign_convention_negative_means_policy_wins(self, grid, market):
        # cash strongly beats a constant weight paying 1% costs each step in
        # a market whose drift equals the rate
        flat = ReferenceMarket(drift=[0.015], vol=[[0.35]], rate=0.015, s0=[1.0])
        res = relative_error(CashPolicy(), np.array([0.8]), flat.drift, flat.cov,
                             grid, flat.s0, 1.0, 0.015, CostSpec(c_prop=0.01),
                             PowerUtility(1.0), 2000, seed=11)
        assert res.err_rel < 0.0

    def test_tiny_benchmark_value_switches_to_absolute(self, grid):
        # r = 0 and log-utility: cash scores exactly 0
        flat = ReferenceMarket(drift=[0.0], vol=[[0.2]], rate=0.0, s0=[1.0])
        res = relative_error(ConstantWeightPolicy(0.3), CashPolicy(), flat.drift,
                             flat.cov, grid, flat.s0, 1.0, 0.0, CostSpec(),
                             PowerUtility(1.0), 500, seed=12)
        assert res.absolute

    def test_accepts_saddle_solution(self, grid):
        sol = solve_fully_robust([0.035, 0.055], 0.015,
                                 np.diag([0.0225, 0.1225]), 1.0, 1.0)
        res = relative_error(ConstantWeightPolicy(sol.weights), sol, sol.drift,
                             sol.cov, grid, [1.0, 1.0], 1.0, 0.015, CostSpec(),
                             PowerUtility(1.0), 300, seed=13)
        assert res.err_rel == 0.0


class TestVaR:
    def test_cash_var_is_approximately_zero(self, grid, market):
        inc = NoiseIncrements.generate(14, 500, 65, 1)
        paths = simulate_euler(grid, market.params(), market.s0, inc)
        from robustfolio.portfolio import roll_out
        ledger = roll_out(CashPolicy(), paths, 1.0, 0.015, CostSpec())
        var = value_at_risk(ledger.terminal, 0.05, 0.015, 1.0, 1.0)
        assert abs(var) < 1e-3  # discrete vs continuous compounding residue

    def test_constant_continuously_compounded_sample_is_zero(self):
        samples = np.full(100, np.exp(0.015))
        assert value_at_risk(samples, 0.05, 0.015, 1.0, 1.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_translation_consistency(self):
        rng = np.random.default_rng(15)
        samples = rng.lognormal(0.0, 0.2, size=2000)
        base = value_at_risk(samples, 0.05, 0.0, 1.0, 1.0)
        shifted = value_at_risk(samples + 0.3, 0.05, 0.0, 1.0, 1.0)
        assert shifted == pytest.approx(base - 0.3, rel=1e-12)

    def test_lower_quantile_convention(self):
        samples = np.arange(1, 101, dtype=float)
        # 5% lower quantile of 1..100 is the 5th order statistic
        assert value_at_risk(samples, 0.05, 0.0, 1.0, 0.0) == -5.0


class TestHistogram:
    def test_symmetric_sample_has_small_skew(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=40_000)
        rep = histogram_report(x, bins=30)
        assert abs(rep.skewness) < 3 * np.sqrt(6.0 / len(x))
        assert rep.counts.sum() == len(x)

    def test_constant_sample_single_bin(self):
        rep = histogram_report(np.full(50, 2.5), bins=10)
        assert rep.std == 0.0
        assert rep.skewness == 0.0
        assert (rep.counts > 0).sum() == 1

    def test_csv_export(self, tmp_path):
        rep = histogram_report(np.arange(10.0), bins=5)
        out = tmp_path / "h.csv"
        rep.export_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram_report(np.array([]))


class TestScenarioDispatch:
    def test_all_types_simulate(self, grid, market):
        pool = make_noisy_pool(market, "constant", 0.05, 0.0, 1, grid, seed=17)
        garch = GarchModel(omega=[1e-4], alpha=[0.05], beta=[0.9], mean=[0.0],
                           resid_corr=[[1.0]], std_err=[[np.nan] * 4])
        tdist = StudentTMarket(nu=5.0, mu=0.05, scale=0.2, rate=0.0)
        for scenario in (market, pool[0], market.params(), garch, tdist):
            batch = simulate_scenario(scenario, grid, [1.0], 7, seed=18)
            assert batch.s.shape == (7, 66, 1)

    def test_unknown_type_rejected(self, grid):
        with pytest.raises(TypeError):
            simulate_scenario(object(), grid, [1.0], 3, seed=0)

    def test_crn_same_seed_same_paths(self, grid, market):
        a = simulate_scenario(market, grid, [1.0], 20, seed=19)
        b = simulate_scenario(market, grid, [1.0], 20, seed=19)
        assert np.array_equal(a.s, b.s)


class TestReports:
    def test_evaluate_policies_and_csv(self, tmp_path, grid, market):
        pool = make_noisy_pool(market, "cumulative", 0.075, 0.01, 3, grid, seed=20)
        (rep,), _ = evaluate_policies({"ntc": ConstantWeightPolicy(0.653)}, market,
                                      grid, market.s0, 1.0, market.rate,
                                      CostSpec(c_prop=0.01),
                                      PowerUtility(0.5, shifted=False), 2000,
                                      seed=21, alpha=0.05, pool=pool,
                                      pool_b_test=500, pool_seed=21)
        assert np.isfinite(rep.e_u) and np.isfinite(rep.m_u)
        assert rep.m_u <= rep.e_u + 0.05
        assert rep.n_pool == 3
        path = tmp_path / "reports.csv"
        write_reports_csv([rep], path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("strategy,")
        assert lines[1].startswith("ntc,")

    def test_one_roll_out_carries_every_statistic(self, grid, market):
        policies = {"merton": ConstantWeightPolicy(0.4), "cash": CashPolicy(),
                    "lever": ConstantWeightPolicy(50.0)}
        util = PowerUtility(0.5, shifted=False)
        reports, hists = evaluate_policies(policies, market, grid, market.s0, 1.0,
                                           market.rate, CostSpec(), util, 400,
                                           seed=22, alpha=0.05)
        assert [r.strategy for r in reports] == ["cash", "lever", "merton"]
        paths = simulate_scenario(market, grid, market.s0, 400, seed=22)
        for rep in reports:
            est = expected_utility_on(policies[rep.strategy], paths, 1.0,
                                      market.rate, CostSpec(), util)
            assert (rep.e_u, rep.n_defaults, rep.b_test) == (est.value,
                                                            est.n_defaults, 400)
            assert rep.n_pool == 0 and np.isnan(rep.m_u)
        cash, lever, merton = reports
        terminal = roll_out(policies["merton"], paths, 1.0, market.rate,
                            CostSpec()).terminal
        assert merton.var_alpha == value_at_risk(terminal, 0.05, market.rate,
                                                 grid.horizon, 1.0)
        assert merton.wealth_mean == hists["merton"].mean
        # a defaulting policy: -inf utility, NaN risk and wealth statistics
        assert lever.n_defaults > 0 and lever.e_u == -np.inf
        for value in (lever.e_u_stderr, lever.var_alpha, lever.wealth_mean,
                      lever.wealth_std, lever.wealth_skew):
            assert np.isnan(value)
        assert set(hists) == {"cash", "merton"}

    def test_report_json(self, tmp_path):
        rep = EvalReport(strategy="cash", e_u=1.0)
        rep.to_json(tmp_path / "r.json", extra={"config_hash": "abc"})
        import json

        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["strategy"] == "cash"
        assert doc["config_hash"] == "abc"

    def test_estimate_is_frozen(self):
        est = UtilityEstimate(1.0, 0.1, 0, 10)
        with pytest.raises(AttributeError):
            est.value = 2.0


def test_discount_helper():
    out = discount(np.array([np.e]), 1.0, 1.0)
    assert out[0] == pytest.approx(1.0, rel=1e-12)
