import numpy as np
import pytest

from robustfolio.autodiff import Tensor, raw
from robustfolio.market import TimeGrid
from robustfolio.utility import (PenaltySpec, PowerUtility, penalty_instant,
                                 penalty_instant_vol, penalty_pathwise)


class TestPowerUtility:
    def test_shifted_is_zero_at_one(self):
        for p in (0.0, 0.5, 1.0, 2.0, 3.3):
            assert PowerUtility(p)(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)

    def test_unshifted_cash_anchor(self):
        # anchor: 2 e^{0.0075}, rounded 2.0151
        u = PowerUtility(0.5, shifted=False)
        val = u(np.array([np.exp(0.015)]))[0]
        assert val == pytest.approx(2.0151, abs=5e-5)
        assert val == pytest.approx(2 * np.exp(0.0075), rel=1e-12)

    def test_log_limit_continuity(self):
        for p in (1.0 - 1e-6, 1.0 + 1e-6):
            val = PowerUtility(p)(np.array([2.0]))[0]
            assert abs(val - np.log(2.0)) < 1e-5

    def test_p_one_is_exact_log(self):
        x = np.array([0.5, 1.0, 3.0])
        assert np.array_equal(PowerUtility(1.0)(x), np.log(x))

    def test_nonpositive_is_neg_inf_not_exception(self):
        u = PowerUtility(2.0)
        out = u(np.array([-1.0, 0.0, 1.0]))
        assert np.isneginf(out[0]) and np.isneginf(out[1])
        assert np.isfinite(out[2])

    def test_risk_neutral(self):
        u = PowerUtility(0.0)
        assert u(np.array([3.0]))[0] == pytest.approx(2.0)

    def test_increasing_and_concave(self):
        xs = np.linspace(0.05, 10.0, 400)
        for p in (0.3, 1.0, 2.0):
            vals = PowerUtility(p)(xs)
            d1 = np.diff(vals)
            d2 = np.diff(vals, 2)
            assert (d1 > 0).all()
            assert (d2 < 0).all()

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PowerUtility(-0.5)

    def test_graph_matches_numpy_above_floor(self):
        x = np.array([0.3, 1.0, 4.0])
        for p, shifted in ((0.5, True), (1.0, True), (2.0, False), (0.5, False)):
            u = PowerUtility(p, shifted=shifted)
            t = Tensor(x)
            assert np.allclose(raw(u.graph(t)), u(x), rtol=1e-12)

    def test_graph_gradient_finite_below_floor(self):
        t = Tensor(np.array([-0.5]))
        out = PowerUtility(1.0).graph(t)
        out.sum().backward()
        assert np.isfinite(raw(out)).all()
        assert np.array_equal(t.grad, [0.0])


@pytest.fixture
def grid():
    return TimeGrid.uniform(1.0, 65)


def _spec(kind, lam1=1.0, lam2=1.0, d=1, vol=0.25, drift=0.035):
    cov = np.eye(d) * vol ** 2
    return PenaltySpec(kind=kind, lam1=lam1, lam2=lam2,
                       mu_ref=np.full(d, drift), cov_ref=cov,
                       vol_ref=vol if kind == "vol" else None)


class TestInstantPenalty:
    def test_zero_at_reference_additive_and_multiplicative(self, grid):
        for kind in ("additive", "multiplicative"):
            spec = _spec(kind, d=2)
            cov = np.tile(spec.cov_ref, (65, 1, 1))
            mu = np.tile(spec.mu_ref, (65, 1))
            assert penalty_instant(spec, cov, mu, grid) == pytest.approx(0.0, abs=1e-18)

    def test_constant_deviation_integrates_exactly(self, grid):
        spec = _spec("additive", lam1=3.0, lam2=0.0)
        delta = 0.01
        cov = np.tile(spec.cov_ref + delta, (65, 1, 1))
        mu = np.tile(spec.mu_ref, (65, 1))
        # constant integrand: lam1 * delta^2 * T
        assert penalty_instant(spec, cov, mu, grid) == pytest.approx(
            3.0 * delta ** 2, rel=1e-12)

    def test_multiplicative_at_twice_reference(self, grid):
        for d in (1, 2, 3):
            spec = _spec("multiplicative", lam1=2.0, lam2=0.0, d=d)
            cov = np.tile(2.0 * spec.cov_ref, (65, 1, 1))
            mu = np.tile(spec.mu_ref, (65, 1))
            # Sigma Sigma_ref^-1 = 2I so the integrand is ||I||_F^2 = d
            assert penalty_instant(spec, cov, mu, grid) == pytest.approx(
                2.0 * d, rel=1e-12)

    def test_drift_term(self, grid):
        spec = _spec("additive", lam1=0.0, lam2=5.0, d=2)
        cov = np.tile(spec.cov_ref, (65, 1, 1))
        mu = np.tile(spec.mu_ref + np.array([0.01, -0.02]), (65, 1))
        assert penalty_instant(spec, cov, mu, grid) == pytest.approx(
            5.0 * (0.01 ** 2 + 0.02 ** 2), rel=1e-12)

    def test_linear_in_scalings(self, grid):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(65, 2, 2))
        cov = np.einsum("nij,nkj->nik", a, a)
        mu = rng.normal(size=(65, 2)) * 0.05
        base = penalty_instant(_spec("additive", 1.0, 1.0, d=2), cov, mu, grid)
        big = penalty_instant(_spec("additive", 7.0, 7.0, d=2), cov, mu, grid)
        assert big == pytest.approx(7.0 * base, rel=1e-12)

    def test_batched_input_averages(self, grid):
        spec = _spec("additive", lam1=1.0, lam2=0.0)
        cov = np.stack([np.tile(spec.cov_ref, (65, 1, 1)),
                        np.tile(spec.cov_ref + 0.01, (65, 1, 1))])
        mu = np.tile(spec.mu_ref, (2, 65, 1))
        val = penalty_instant(spec, cov, mu, grid)
        assert val == pytest.approx(0.5 * 0.01 ** 2, rel=1e-12)

    def test_vol_kind(self, grid):
        spec = _spec("vol", lam1=10.0, lam2=0.0)
        vols = np.full((3, 65), 0.25 + 0.02)
        assert penalty_instant_vol(spec, vols, grid) == pytest.approx(
            10.0 * 0.02 ** 2, rel=1e-12)

    def test_kind_mismatch_raises(self, grid):
        with pytest.raises(ValueError):
            penalty_instant(_spec("vol"), np.zeros((65, 1, 1)),
                            np.zeros((65, 1)), grid)
        with pytest.raises(ValueError):
            penalty_instant_vol(_spec("additive"), np.zeros((65,)), grid)


class TestPathwisePenalty:
    def test_flat_path_zero_references_zero(self, grid):
        spec = PenaltySpec(kind="pathwise", lam1=1.0, lam2=1.0,
                           mu_ref=np.zeros(1), cov_ref=np.zeros((1, 1)))
        s = np.ones((4, 66, 1))
        pen = penalty_pathwise(spec, s, grid)
        assert pen.qcv == pytest.approx(0.0, abs=1e-18)
        assert pen.arr == pytest.approx(0.0, abs=1e-18)

    def test_exact_reference_return_kills_arr_term(self, grid):
        spec = _spec("pathwise")
        s = np.ones((1, 66, 1))
        s[0, :, 0] = np.exp(np.linspace(0.0, 0.035, 66))  # S_T/S_0 = e^{mu T}
        pen = penalty_pathwise(spec, s, grid)
        assert pen.arr == pytest.approx(0.0, abs=1e-18)

    def test_exact_reference_qcv_kills_qcv_term(self, grid):
        spec = _spec("pathwise")
        # constant |log increment| sqrt(cov T / N) makes QCV = cov * T exactly
        step = np.sqrt(0.25 ** 2 / 65)
        logs = np.cumsum(np.concatenate([[0.0], np.full(65, step)]))
        s = np.exp(logs)[None, :, None]
        pen = penalty_pathwise(spec, s, grid)
        assert pen.qcv == pytest.approx(0.0, abs=1e-16)

    def test_arr_term_is_batch_level(self, grid):
        # two paths whose relative returns average to the reference
        spec = _spec("pathwise", lam1=0.0, lam2=4.0)
        ref = np.exp(0.035)
        s = np.ones((2, 66, 1))
        s[0, -1, 0] = ref + 0.3
        s[1, -1, 0] = ref - 0.3
        pen = penalty_pathwise(spec, s, grid)
        assert pen.arr == pytest.approx(0.0, abs=1e-16)

    def test_permutation_invariance(self, grid):
        rng = np.random.default_rng(1)
        spec = _spec("pathwise", lam1=2.0, lam2=3.0)
        s = np.exp(np.cumsum(rng.normal(0, 0.03, size=(8, 66, 1)), axis=1))
        s[:, 0] = 1.0
        base = penalty_pathwise(spec, s, grid)
        perm = penalty_pathwise(spec, s[rng.permutation(8)], grid)
        assert perm.total == pytest.approx(base.total, rel=1e-12)

    def test_qcv_estimator_bias_shrinks_with_steps(self):
        # reference-market paths: penalty/lam1 falls as the grid refines
        from robustfolio.market import (NoiseIncrements, ReferenceMarket,
                                        simulate_euler)
        mkt = ReferenceMarket(drift=[0.035], vol=[[0.25]], rate=0.015, s0=[1.0])
        spec = PenaltySpec(kind="pathwise", lam1=1.0, lam2=0.0,
                           mu_ref=mkt.drift, cov_ref=mkt.cov)
        vals = []
        for n in (65, 260, 1040):
            g = TimeGrid.uniform(1.0, n)
            inc = NoiseIncrements.generate(5, 20_000, n, 1)
            batch = simulate_euler(g, mkt.params(), mkt.s0, inc)
            vals.append(penalty_pathwise(spec, batch.s, g).qcv)
        assert vals[0] > vals[1] > vals[2]

    def test_errors(self, grid):
        spec = _spec("pathwise")
        with pytest.raises(ValueError, match="nonempty"):
            penalty_pathwise(spec, np.ones((0, 66, 1)), grid)
        bad = np.ones((2, 66, 1))
        bad[0, 3, 0] = -1.0
        with pytest.raises(ValueError, match="positive"):
            penalty_pathwise(spec, bad, grid)

    def test_tensor_and_numpy_agree(self, grid):
        rng = np.random.default_rng(2)
        spec = _spec("pathwise", lam1=1.5, lam2=2.5)
        s = np.exp(np.cumsum(rng.normal(0, 0.02, size=(6, 66, 1)), axis=1))
        pen_np = penalty_pathwise(spec, s, grid)
        pen_t = penalty_pathwise(spec, Tensor(s), grid)
        assert raw(pen_t.total) == pytest.approx(pen_np.total, rel=1e-14)


def test_spec_reference_values(grid):
    spec = _spec("pathwise", d=2)
    assert np.allclose(spec.qcv_ref(grid), spec.cov_ref * 1.0)
    assert np.allclose(spec.arr_ref(grid), np.exp(spec.mu_ref))


def test_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec(kind="nope", lam1=1, lam2=1, mu_ref=[0.0], cov_ref=[[1.0]])
    with pytest.raises(ValueError):
        PenaltySpec(kind="additive", lam1=-1, lam2=1, mu_ref=[0.0], cov_ref=[[1.0]])
    with pytest.raises(ValueError):
        PenaltySpec(kind="vol", lam1=1, lam2=1, mu_ref=[0.0], cov_ref=[[1.0]])
