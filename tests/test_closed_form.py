import numpy as np
import pytest
from scipy.optimize import brentq

from robustfolio.closed_form import (NoTradePolicy, NoTradeRegion, SolverError,
                                     merton_weight, no_trade_step,
                                     solve_1d_robust_vol, solve_fully_robust,
                                     solve_multid_robust_vol)

VOLS = {
    "s": np.array([[0.25, 0.0], [0.0, 0.25]]),
    "as": np.array([[0.15, 0.0], [0.0, 0.35]]),
    "ps": np.array([[0.25, 0.0], [0.225, 0.10897247]]),
    "pas": np.array([[0.15, 0.0], [0.315, 0.15256146]]),
    "nas": np.array([[0.15, 0.0], [-0.315, 0.15256146]]),
    "5s": 0.25 * np.eye(5),
}


class TestRobustVol1d:
    def test_drift_equals_rate_collapses_to_reference(self):
        sol = solve_1d_robust_vol(0.015, 0.015, 0.25, 10.0)
        assert sol.weights[0] == pytest.approx(0.0, abs=1e-14)
        assert np.sqrt(sol.cov[0, 0]) == pytest.approx(0.25, abs=1e-12)

    def test_matches_independent_bisection(self):
        mu, r, sig, lam = 0.035, 0.015, 0.25, 10.0
        sol = solve_1d_robust_vol(mu, r, sig, lam)
        rhs = (mu - r) ** 2 / (2 * lam)
        root = brentq(lambda s: s ** 4 - sig * s ** 3 - rhs, sig, sig + 1.0,
                      xtol=1e-15)
        assert np.sqrt(sol.cov[0, 0]) == pytest.approx(root, abs=1e-12)
        assert np.sqrt(sol.cov[0, 0]) == pytest.approx(0.2513, abs=1e-4)
        assert sol.weights[0] == pytest.approx(0.317, abs=1e-3)
        assert sol.residual < 1e-12

    def test_penalty_dominated_limit(self):
        sol = solve_1d_robust_vol(0.035, 0.015, 0.25, 1e8)
        assert np.sqrt(sol.cov[0, 0]) == pytest.approx(0.25, abs=1e-4)
        assert sol.weights[0] == pytest.approx(0.02 / 0.0625, abs=1e-3)

    def test_no_sign_change_raises(self):
        with pytest.raises(SolverError, match="sign change"):
            solve_1d_robust_vol(20.0, 0.0, 0.1, 1e-9)

    def test_parameter_validation(self):
        with pytest.raises(SolverError):
            solve_1d_robust_vol(0.035, 0.015, 0.25, 0.0)


class TestRobustVolMultiD:
    def test_drift_equals_rate(self):
        cov = VOLS["as"] @ VOLS["as"].T
        sol = solve_multid_robust_vol([0.015, 0.015], 0.015, cov, 1.0)
        assert np.allclose(sol.weights, 0.0, atol=1e-12)
        assert np.allclose(sol.cov, cov, atol=1e-12)

    def test_symmetric_setting_reduces_to_scalar_equation(self):
        # by symmetry pi = (q, q) with cov_ref q + |pi|^2 q / 4 = excess,
        # i.e. 0.0625 q + q^3 / 2 = 0.02
        sol = solve_multid_robust_vol([0.035, 0.035], 0.015, 0.0625 * np.eye(2), 1.0)
        q = brentq(lambda v: 0.0625 * v + 0.5 * v ** 3 - 0.02, 0.0, 2.0, xtol=1e-15)
        assert sol.weights[0] == pytest.approx(sol.weights[1], rel=1e-12)
        assert sol.weights[0] == pytest.approx(q, abs=1e-10)
        assert sol.residual < 1e-10

    def test_d1_additive_specialization_matches_bisection(self):
        # the one-asset additive system: sigma^2 = ref + pi^2/(4 lam),
        # pi = excess / sigma^2  =>  v^3/(4 lam) ... solved for v = sigma^2
        mu, r, ref, lam = 0.035, 0.015, 0.0625, 2.0
        excess = mu - r

        def f(v):
            return v ** 2 * (v - ref) - excess ** 2 / (4 * lam)

        v = brentq(f, ref, ref + 10, xtol=1e-16)
        sol = solve_multid_robust_vol([mu], r, [[ref]], lam)
        assert sol.cov[0, 0] == pytest.approx(v, abs=1e-8)
        assert sol.weights[0] == pytest.approx(excess / v, abs=1e-8)

    def test_merton_limit(self):
        cov = 0.0625 * np.eye(2)
        sol = solve_multid_robust_vol([0.035, 0.035], 0.015, cov, 1e9)
        merton = np.linalg.solve(cov, np.array([0.02, 0.02]))
        assert np.allclose(sol.weights, merton, atol=1e-4)

    @pytest.mark.parametrize("name", sorted(VOLS))
    @pytest.mark.parametrize("penalty", ["additive", "multiplicative"])
    def test_residual_certificates(self, name, penalty):
        vol = VOLS[name]
        d = vol.shape[0]
        sol = solve_multid_robust_vol(np.full(d, 0.035), 0.015, vol @ vol.T,
                                      1.0, penalty)
        assert sol.residual < 1e-10
        # independent recomputation of the defining equations
        excess = np.full(d, 0.035) - 0.015
        assert np.max(np.abs(sol.cov @ sol.weights - excess)) < 1e-10
        if penalty == "additive":
            recon = vol @ vol.T + np.outer(sol.weights, sol.weights) / 4.0
        else:
            ref = vol @ vol.T
            recon = ref + np.outer(sol.weights, sol.weights) @ ref @ ref / 4.0
        assert np.max(np.abs(sol.cov - recon)) < 1e-12

    def test_unknown_penalty(self):
        with pytest.raises(SolverError):
            solve_multid_robust_vol([0.03], 0.015, [[0.04]], 1.0, "huh")


class TestFullyRobust:
    def test_reference_drift_at_rate(self):
        cov = VOLS["s"] @ VOLS["s"].T
        sol = solve_fully_robust([0.015, 0.015], 0.015, cov, 1.0, 1.0)
        assert np.allclose(sol.weights, 0.0, atol=1e-12)
        assert np.allclose(sol.drift, 0.015, atol=1e-12)
        assert np.allclose(sol.cov, cov, atol=1e-12)

    def test_large_lam2_recovers_vol_only_solution(self):
        cov = VOLS["as"] @ VOLS["as"].T
        full = solve_fully_robust([0.035, 0.055], 0.015, cov, 1.0, 1e9)
        vol_only = solve_multid_robust_vol([0.035, 0.055], 0.015, cov, 1.0)
        assert np.allclose(full.weights, vol_only.weights, atol=1e-4)
        assert np.allclose(full.drift, [0.035, 0.055], atol=1e-6)

    def test_as_ad_certificate(self):
        cov = VOLS["as"] @ VOLS["as"].T
        mu_ref = np.array([0.035, 0.055])
        sol = solve_fully_robust(mu_ref, 0.015, cov, 1.0, 1.0)
        assert sol.residual < 1e-10
        # re-check the three equations from scratch
        pi, mu, sigma = sol.weights, sol.drift, sol.cov
        assert np.max(np.abs(sigma @ pi - (mu - 0.015))) < 1e-10
        assert np.max(np.abs(sigma - (cov + np.outer(pi, pi) / 4))) < 1e-12
        assert np.max(np.abs(pi - 2.0 * (mu_ref - mu))) < 1e-10
        assert np.linalg.eigvalsh(sigma).min() > 0


class TestMertonAndOracle:
    def test_merton_examples(self):
        assert merton_weight(0.04, 0.35, 0.5) == pytest.approx(0.6531, abs=1e-4)
        assert merton_weight(0.07, 0.35, 0.5) == pytest.approx(1.1429, abs=1e-4)
        assert merton_weight(0.0, 0.35, 0.5) == 0.0

    def test_merton_validation(self):
        with pytest.raises(SolverError):
            merton_weight(0.04, 0.0, 0.5)


class TestNoTradeRegion:
    def test_halfwidth_formula(self):
        region = NoTradeRegion.from_params(0.04, 0.35, 0.5, 0.01)
        pi_ntc = 0.04 / (0.5 * 0.35 ** 2)
        dpi = (3.0 / (2 * 0.5) * (pi_ntc * (1 - pi_ntc)) ** 2) ** (1 / 3)
        assert region.center == pytest.approx(pi_ntc, rel=1e-12)
        assert region.halfwidth == pytest.approx(0.01 ** (1 / 3) * dpi, rel=1e-12)
        assert region.halfwidth == pytest.approx(0.1155, abs=2e-4)

    def test_halfwidth_grows_like_cost_cuberoot(self):
        widths = [NoTradeRegion.from_params(0.04, 0.35, 0.5, c).halfwidth
                  for c in (1e-4, 1e-3, 1e-2)]
        assert widths[0] < widths[1] < widths[2]
        assert widths[2] / widths[1] == pytest.approx(10 ** (1 / 3), rel=1e-12)

    def test_interior_point_keeps_holdings(self):
        region = NoTradeRegion(center=0.65, halfwidth=0.1)
        s = np.array([1.2])
        x = np.array([1.5])
        h = 0.65 * x / s  # weight exactly at the center
        pi, h_new = no_trade_step(s, x, h, region)
        assert pi[0] == pytest.approx(0.65)
        assert h_new[0] == h[0]

    def test_projection_to_upper_boundary(self):
        region = NoTradeRegion(center=0.65, halfwidth=0.1)
        s = np.array([1.0])
        x = np.array([1.0])
        h = np.array([0.65 + 0.2])  # weight two half-widths above center
        pi, h_new = no_trade_step(s, x, h, region)
        assert pi[0] == pytest.approx(0.75)
        assert h_new[0] == pytest.approx(0.75)

    def test_idempotent(self):
        region = NoTradeRegion.from_params(0.04, 0.35, 0.5, 0.01)
        rng = np.random.default_rng(0)
        s = rng.uniform(0.5, 2.0, size=20)
        x = rng.uniform(0.5, 2.0, size=20)
        h = rng.uniform(-0.5, 2.0, size=20)
        pi1, h1 = no_trade_step(s, x, h, region)
        pi2, h2 = no_trade_step(s, x, h1, region)
        assert np.allclose(pi1, pi2)
        assert np.array_equal(h1, h2)

    def test_policy_starts_all_cash_and_buys_to_lower_boundary(self):
        region = NoTradeRegion.from_params(0.04, 0.35, 0.5, 0.01)
        policy = NoTradePolicy(region)
        state = policy.reset(3)
        assert np.array_equal(state, np.zeros(3))
        pi, state = policy.weights(0, 0.0, np.ones((3, 1)), np.ones(3), state)
        assert np.allclose(pi[:, 0], region.lower)

    def test_defaulted_paths_go_to_cash(self):
        region = NoTradeRegion(center=0.65, halfwidth=0.1)
        pi, h = no_trade_step(np.array([1.0]), np.array([-0.2]), np.array([1.0]),
                              region)
        assert pi[0] == 0.0 and h[0] == 0.0
