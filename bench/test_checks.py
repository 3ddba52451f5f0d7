"""Each correctness check passes on sound outputs and fails on perturbed ones.

Run from the repository root:  python3 -m pytest bench/test_checks.py -q

The sound outputs are written with the program's own writers
(``write_reports_csv``, ``save_checkpoint``, ``NoiseIncrements.save``) and
carry the closed-form anchor values, so the workloads' check wiring is
exercised without running a workload.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks as ck  # noqa: E402
import run  # noqa: E402
from robustfolio.evaluation import EvalReport, write_reports_csv  # noqa: E402
from robustfolio.market import NoiseIncrements  # noqa: E402
from robustfolio.nets import ParamSet, save_checkpoint  # noqa: E402
from robustfolio.presets import benchmark_solution  # noqa: E402
from robustfolio.training import init_networks  # noqa: E402


def _failed(results) -> set[str]:
    return {name for name, ok, _ in results if not ok}


def _report(path, rows: dict[str, dict]) -> None:
    reports = []
    for name, fields in rows.items():
        rep = EvalReport(strategy=name, b_test=2000)
        for key, value in fields.items():
            setattr(rep, key, value)
        reports.append(rep)
    write_reports_csv(reports, path)


FINITE_ROW = {"e_u": 0.01, "e_u_stderr": 0.003, "m_u": 0.0, "m_u_stderr": 0.004,
              "err_rel": 0.3, "var_alpha": 0.2, "wealth_mean": 1.0,
              "wealth_std": 0.1, "wealth_skew": 0.2}


# ----------------------------------------------------------------------
# train-realistic
# ----------------------------------------------------------------------
@pytest.fixture
def realistic(tmp_path):
    wl = run.TrainRealistic(seed=3, work=str(tmp_path))
    wl.resolve()
    rd = wl.run_dir
    os.makedirs(rd)
    spec = wl.spec
    gen, disc = init_networks(spec.train_config)
    meta = {"epoch": wl.epochs - 1, "gen_params": gen.n_params,
            "disc_params": disc.n_params}
    save_checkpoint(os.path.join(rd, "checkpoint_latest.npz"), gen, disc, meta)
    NoiseIncrements.generate(3, 16, spec.grid.n_steps, spec.market.d).save(
        os.path.join(rd, "increments.bin"))
    with open(os.path.join(rd, "metrics.csv"), "w") as fh:
        fh.write("epoch,gen_loss,disc_loss,val_metric,lr\n")
        for e in range(wl.epochs):
            fh.write(f"{e},-0.01,0.01,-0.03,0.0005\n")
    cash = ck.power_utility(ck.cash_wealth(spec.market.rate, spec.grid.dt),
                            spec.utility.p, spec.utility.shifted)
    rows = {"cash": {"e_u": cash, "e_u_stderr": 0.0}, "nn": dict(FINITE_ROW)}
    _report(os.path.join(rd, "report.csv"), rows)
    return wl, rows


def test_realistic_checks_pass_on_sound_outputs(realistic):
    wl, _ = realistic
    assert _failed(wl.checks()) == set()


def test_metrics_rows_fail_on_nan_or_missing_epoch(realistic):
    wl, _ = realistic
    path = os.path.join(wl.run_dir, "metrics.csv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])
    assert not ck.check_metrics_csv(path, wl.epochs)[1]
    with open(path, "w") as fh:
        fh.writelines(lines[:-1] + [lines[-1].replace("-0.03", "nan")])
    assert _failed(wl.checks()) == {"metrics_rows"}


def test_checkpoint_fails_on_wrong_epoch_nan_or_truncation(realistic):
    wl, _ = realistic
    path = os.path.join(wl.run_dir, "checkpoint_latest.npz")
    gen, disc = init_networks(wl.spec.train_config)
    meta = {"epoch": wl.epochs - 2, "gen_params": gen.n_params}
    save_checkpoint(path, gen, disc, meta)
    assert _failed(wl.checks()) == {"checkpoint_last_epoch"}

    meta["epoch"] = wl.epochs - 1
    gen.arrays["out.b"][0] = np.nan
    save_checkpoint(path, gen, disc, meta)
    assert not ck.check_checkpoint(path, wl.epochs)[1]

    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    assert not ck.check_checkpoint(path, wl.epochs)[1]


def test_gradient_check_fails_on_perturbed_reverse_mode(realistic):
    wl, _ = realistic
    pairs = run.gradient_pairs(wl.spec, wl.run_dir, wl.seed)
    assert ck.check_gradient(pairs)[1]
    for i in (0, len(pairs) - 1):  # one coordinate of each net
        label, ad, fds = pairs[i]
        bad = list(pairs)
        bad[i] = (label, ad * 1.01 + 1e-6, fds)
        assert not ck.check_gradient(bad)[1]


def test_gradient_check_takes_the_step_that_misses_the_kink():
    # a kink lies within the largest step, not within the smallest
    ad, fds = 0.02410223, [0.02409869, 0.02410021, 0.02410223]
    assert ck.check_gradient([("x", ad, fds)])[1]
    assert not ck.check_gradient([("x", ad, fds[:1])])[1]


@pytest.mark.parametrize("strategy,field,value,check", [
    ("cash", "e_u", "+1e-8", "cash_anchor"),
    ("nn", "e_u", "nan", "nn_row_finite"),
    ("nn", "n_defaults", 3, "nn_row_finite"),
])
def test_realistic_report_perturbations_fail(realistic, strategy, field, value, check):
    wl, rows = realistic
    _perturb(rows, strategy, field, value)
    _report(os.path.join(wl.run_dir, "report.csv"), rows)
    assert _failed(wl.checks()) == {check}


def _perturb(rows, strategy, field, value):
    if value == "nan":
        rows[strategy][field] = float("nan")
    elif isinstance(value, str):
        rows[strategy][field] += float(value)
    else:
        rows[strategy][field] = value


# ----------------------------------------------------------------------
# evaluate-pool
# ----------------------------------------------------------------------
@pytest.fixture
def pool(tmp_path):
    wl = run.EvaluatePool(seed=5, work=str(tmp_path))
    wl.resolve()
    os.makedirs(wl.run_dir)
    spec = wl.spec
    r, dt, T = spec.market.rate, spec.grid.dt, spec.grid.horizon
    pi = benchmark_solution(spec.raw).weights
    mu, cov = spec.market.drift, spec.market.cov
    from robustfolio.market import make_noisy_pool

    scenarios = make_noisy_pool(spec.market, spec.eval_noise_kind,
                                spec.eval_vol_scale, spec.eval_drift_scale,
                                spec.eval_n_pool, spec.grid, seed=spec.seed + 7)
    least = min(ck.log_growth(pi, sc.mu_path, sc.cov_path, r, dt) for sc in scenarios)
    cash = math.log(ck.cash_wealth(r, dt))
    rows = {
        "cash": {"e_u": cash, "e_u_stderr": 0.0, "m_u": cash, "m_u_stderr": 0.0},
        "explicit": {"e_u": ck.log_growth(pi, mu, cov, r, dt), "e_u_stderr": 0.005,
                     "m_u": least, "m_u_stderr": 0.005, "wealth_std": 0.2,
                     "wealth_mean": ck.constant_weight_wealth_mean(pi, mu, r, dt)
                     * math.exp(-r * T)},
        "nn": dict(FINITE_ROW),
    }
    _report(os.path.join(wl.run_dir, "report.csv"), rows)
    return wl, rows


def test_pool_checks_pass_on_sound_outputs(pool):
    wl, _ = pool
    assert _failed(wl.checks()) == set()


@pytest.mark.parametrize("strategy,field,value,check", [
    ("cash", "e_u", "+1e-8", "cash_e_u"),
    ("cash", "m_u", "-1e-8", "cash_m_u"),
    ("explicit", "wealth_mean", "+0.0225", "explicit_wealth_mean"),  # 5 SE
    ("explicit", "e_u", "-0.025", "explicit_e_u"),
    ("explicit", "m_u", "-0.025", "explicit_m_u"),
    ("explicit", "m_u_stderr", 0.0, "explicit_m_u"),
    ("nn", "m_u", "nan", "nn_row_finite"),
    ("nn", "err_rel", "nan", "nn_row_finite"),
    ("nn", "n_defaults", 1, "nn_row_finite"),
])
def test_pool_report_perturbations_fail(pool, strategy, field, value, check):
    wl, rows = pool
    _perturb(rows, strategy, field, value)
    _report(os.path.join(wl.run_dir, "report.csv"), rows)
    assert _failed(wl.checks()) == {check}


def test_saddle_check_fails_on_perturbed_weights(pool):
    wl, _ = pool
    raw = wl.spec.raw
    sol = benchmark_solution(raw)
    args = (sol.drift, sol.cov, wl.spec.market.drift, wl.spec.market.cov,
            raw["rate"], raw["lam1"], raw["lam2"])
    assert ck.check_saddle(sol.weights, *args)[1]
    assert not ck.check_saddle(sol.weights * (1 + 1e-6), *args)[1]


# ----------------------------------------------------------------------
# run-ntc
# ----------------------------------------------------------------------
def _constant_policy_checkpoint(path, spec, weight: float) -> None:
    gen, _ = init_networks(spec.train_config)
    arrays = {k: np.zeros_like(v) for k, v in gen.arrays.items()}
    arrays["out.b"][:] = weight
    save_checkpoint(path, ParamSet(arrays=arrays), None, {"epoch": 0})


@pytest.fixture
def ntc(tmp_path):
    wl = run.RunNtc(seed=2, work=str(tmp_path))
    wl.resolve()
    os.makedirs(wl.run_dir)
    spec = wl.spec
    # a constant Merton-weight "trained" policy beats the random initial net
    _constant_policy_checkpoint(os.path.join(wl.run_dir, "checkpoint_best.npz"),
                                spec, 0.65)
    cash = ck.power_utility(ck.cash_wealth(spec.market.rate, spec.grid.dt),
                            spec.utility.p, spec.utility.shifted)
    rows = {"cash": {"e_u": cash}, "merton": {"e_u": 2.020},
            "no-trade": {"e_u": 2.025}, "nn": dict(FINITE_ROW)}
    _report(os.path.join(wl.run_dir, "report.csv"), rows)
    return wl, rows


def test_ntc_checks_pass_on_sound_outputs(ntc):
    wl, _ = ntc
    assert _failed(wl.checks()) == set()


@pytest.mark.parametrize("strategy,field,value,check", [
    ("cash", "e_u", "-1e-8", "cash_anchor"),
    ("no-trade", "e_u", "-0.01", "no_trade_beats_merton"),
])
def test_ntc_report_perturbations_fail(ntc, strategy, field, value, check):
    wl, rows = ntc
    _perturb(rows, strategy, field, value)
    _report(os.path.join(wl.run_dir, "report.csv"), rows)
    assert _failed(wl.checks()) == {check}


def test_ntc_check_fails_when_training_made_the_policy_worse(ntc):
    wl, _ = ntc
    _constant_policy_checkpoint(os.path.join(wl.run_dir, "checkpoint_best.npz"),
                                wl.spec, -2.0)
    assert _failed(wl.checks()) == {"nn_beats_initial_weights"}
