"""Property-based checks of the structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from composition import step_wealth_composition
from robustfolio.autodiff import Tensor, raw
from robustfolio.closed_form import (NoTradeRegion, no_trade_step,
                                     solve_fully_robust,
                                     solve_multid_robust_vol)
from robustfolio.evaluation import value_at_risk
from robustfolio.market import TimeGrid
from robustfolio.portfolio import CostSpec, step_wealth
from robustfolio.utility import PenaltySpec, PowerUtility, penalty_pathwise

finite = dict(allow_nan=False, allow_infinity=False)


def _wealth_state(draw, d):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = draw(st.integers(1, 6))
    x = rng.uniform(0.2, 3.0, size=b)
    pi = rng.normal(0.2, 0.6, size=(b, d))
    h_prev = rng.normal(0.1, 0.3, size=(b, d))
    s = rng.uniform(0.3, 3.0, size=(b, d))
    ds = rng.normal(0.0, 0.05, size=(b, d))
    return x, pi, h_prev, s, ds


@st.composite
def wealth_states(draw):
    d = draw(st.integers(1, 3))
    return _wealth_state(draw, d)


@given(wealth_states())
@settings(max_examples=60, deadline=None)
def test_zero_cost_recursion_equals_frictionless(state):
    x, pi, h_prev, s, ds = state
    frictionless = step_wealth(x, pi, h_prev, s, ds, 0.015, 1 / 65, CostSpec())
    with_zero = step_wealth(x, pi, h_prev, s, ds, 0.015, 1 / 65,
                            CostSpec(c_prop=0.0, c_base=0.0))
    assert np.array_equal(frictionless[0], with_zero[0])


@given(wealth_states(), st.floats(0.0, 0.02), st.floats(0.0, 0.05))
@settings(max_examples=60, deadline=None)
def test_costs_never_increase_wealth(state, c_lo, dc):
    x, pi, h_prev, s, ds = state
    lo = step_wealth(x, pi, h_prev, s, ds, 0.015, 1 / 65, CostSpec(c_prop=c_lo))[0]
    hi = step_wealth(x, pi, h_prev, s, ds, 0.015, 1 / 65,
                     CostSpec(c_prop=c_lo + dc))[0]
    assert (hi <= lo + 1e-12).all()


@given(wealth_states())
@settings(max_examples=60, deadline=None)
def test_wealth_scale_equivariance(state):
    x, pi, h_prev, s, ds = state
    costs = CostSpec(c_prop=0.01)  # no base cost: positive homogeneity
    base = step_wealth(x, pi, h_prev, s, ds, 0.015, 1 / 65, costs)
    doubled = step_wealth(2 * x, pi, 2 * h_prev, s, ds, 0.015, 1 / 65, costs)
    assert np.allclose(doubled[0], 2 * base[0], rtol=1e-12)


@given(wealth_states())
@settings(max_examples=60, deadline=None)
def test_holdings_identity(state):
    x, pi, h_prev, s, ds = state
    _, h, _, _ = step_wealth(x, pi, h_prev, s, ds, 0.015, 1 / 65, CostSpec())
    assert np.allclose(h * s, pi * x[:, None], rtol=1e-12)


@given(wealth_states())
@settings(max_examples=40, deadline=None)
def test_step_wealth_tensor_matches_numpy(state):
    x, pi, h_prev, s, ds = state
    costs = CostSpec(c_prop=0.004, c_base=0.002)
    out_np = step_wealth(x, pi, h_prev, s, ds, 0.015, 1 / 65, costs)
    out_t = step_wealth_composition(Tensor(x), Tensor(pi), Tensor(h_prev),
                                    Tensor(s), Tensor(ds), 0.015, 1 / 65, costs)
    for a, b in zip(out_np, out_t):
        assert np.allclose(a, raw(b), rtol=1e-13)


@given(st.floats(0.05, 3.0), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_utility_monotone_and_concave(p, seed):
    u = PowerUtility(p)
    xs = np.sort(np.random.default_rng(seed).uniform(0.01, 10.0, size=50))
    vals = u(xs)
    assert (np.diff(vals) > 0).all()
    mid = u((xs[:-1] + xs[1:]) / 2)
    assert (mid >= (vals[:-1] + vals[1:]) / 2 - 1e-12).all()


@given(st.integers(0, 10 ** 6), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
@settings(max_examples=40, deadline=None)
def test_pathwise_penalty_nonnegative_and_linear_in_scales(seed, lam1, lam2):
    rng = np.random.default_rng(seed)
    grid = TimeGrid.uniform(1.0, 12)
    s = np.exp(np.cumsum(rng.normal(0, 0.05, size=(5, 13, 2)), axis=1))
    spec1 = PenaltySpec(kind="pathwise", lam1=lam1, lam2=lam2,
                        mu_ref=np.array([0.03, 0.05]), cov_ref=0.04 * np.eye(2))
    spec2 = PenaltySpec(kind="pathwise", lam1=2 * lam1, lam2=2 * lam2,
                        mu_ref=np.array([0.03, 0.05]), cov_ref=0.04 * np.eye(2))
    p1 = penalty_pathwise(spec1, s, grid)
    p2 = penalty_pathwise(spec2, s, grid)
    assert p1.qcv >= 0 and p1.arr >= 0
    assert p2.total == pytest.approx(2 * p1.total, rel=1e-12)


@given(arrays(np.float64, (40,), elements=st.floats(0.01, 5.0, **finite)),
       st.floats(0.01, 1.0))
@settings(max_examples=50, deadline=None)
def test_var_translation(samples, shift):
    base = value_at_risk(samples, 0.05, 0.0, 1.0, 1.0)
    moved = value_at_risk(samples + shift, 0.05, 0.0, 1.0, 1.0)
    assert moved == pytest.approx(base - shift, abs=1e-12)


@given(st.integers(0, 10 ** 6), st.floats(0.001, 0.02), st.floats(0.0, 0.03))
@settings(max_examples=30, deadline=None)
def test_no_trade_idempotent_and_width_monotone(seed, c_lo, dc):
    rng = np.random.default_rng(seed)
    lo = NoTradeRegion.from_params(0.04, 0.35, 0.5, c_lo)
    hi = NoTradeRegion.from_params(0.04, 0.35, 0.5, c_lo + dc)
    assert hi.halfwidth >= lo.halfwidth
    s = rng.uniform(0.5, 2.0, size=8)
    x = rng.uniform(0.5, 2.0, size=8)
    h = rng.uniform(-0.5, 2.0, size=8)
    pi1, h1 = no_trade_step(s, x, h, lo)
    pi2, h2 = no_trade_step(s, x, h1, lo)
    assert np.allclose(pi1, pi2, atol=1e-14)
    assert np.array_equal(h1, h2)


@st.composite
def markets(draw):
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 0.2, size=(d, d))
    cov = a @ a.T + 0.01 * np.eye(d)
    mu = rng.uniform(0.0, 0.1, size=d)
    lam1 = draw(st.floats(0.05, 50.0))
    lam2 = draw(st.floats(0.05, 50.0))
    return mu, cov, lam1, lam2


@given(markets())
@settings(max_examples=30, deadline=None)
def test_saddle_solutions_certify_their_systems(mkt):
    mu, cov, lam1, lam2 = mkt
    for penalty in ("additive", "multiplicative"):
        sol = solve_multid_robust_vol(mu, 0.015, cov, lam1, penalty)
        assert sol.residual < 1e-10
    full = solve_fully_robust(mu, 0.015, cov, lam1, lam2)
    assert full.residual < 1e-10
    sym = 0.5 * (full.cov + full.cov.T)
    assert np.linalg.eigvalsh(sym).min() > -1e-12
