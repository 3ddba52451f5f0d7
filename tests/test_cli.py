import builtins
import json
import os

import numpy as np
import pytest

from robustfolio import cli, evaluation
from robustfolio.cli import main
from robustfolio.evaluation import EvalReport
from robustfolio.market import MarketError, NoiseIncrements
from robustfolio.portfolio import ConstantWeightPolicy
from robustfolio.presets import (PRESETS, ExperimentConfig, benchmark_solution,
                                 config_hash, resolve)


def _run_dirs(root):
    return sorted(p for p in os.listdir(root) if os.path.isdir(os.path.join(root, p)))


class TestPresets:
    def test_expected_presets_exist(self):
        for name in ("vol1d", "s", "as", "ps", "pas", "nas", "5s", "as-ad",
                     "s-sd", "realistic", "ntc-small", "ntc-large",
                     "student-t-20", "student-t-3.5"):
            assert name in PRESETS

    def test_json_round_trip(self):
        cfg = ExperimentConfig(preset="as-ad", overrides={"epochs": 3},
                               seed=5, scale=0.1)
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)

    def test_hash_changes_with_overrides_and_seed(self):
        base = ExperimentConfig(preset="s")
        assert config_hash(base) != config_hash(ExperimentConfig(preset="s", seed=1))
        assert config_hash(base) != config_hash(
            ExperimentConfig(preset="s", overrides={"lam1": 2.0}))

    def test_unknown_preset_and_override_rejected(self):
        with pytest.raises(KeyError):
            resolve(ExperimentConfig(preset="nope"))
        with pytest.raises(KeyError):
            resolve(ExperimentConfig(preset="s", overrides={"typo_key": 1}))

    def test_vol1d_resolution_matches_sanity_setting(self):
        spec = resolve(ExperimentConfig(preset="vol1d"))
        assert spec.x0 == 5.0
        assert spec.train_config.penalty.kind == "vol"
        assert spec.train_config.penalty.lam1 == 10.0
        assert spec.train_config.lr == 5e-4
        assert spec.train_config.epochs == 150
        assert spec.train_config.batch_size == 1000
        assert spec.train_config.validation.kind == "explicit"
        assert spec.grid.n_steps == 65

    def test_realistic_resolution(self):
        spec = resolve(ExperimentConfig(preset="realistic"))
        assert spec.costs.c_prop == 0.01
        assert spec.train_config.penalty.kind == "pathwise"
        assert spec.utility.p == 0.5 and spec.utility.shifted
        assert spec.train_config.validation.kind == "noisy_pool"
        assert spec.train_config.validation.vol_scale == 0.15
        assert spec.train_config.validation.drift_scale == 0.02
        assert spec.eval_vol_scale == 0.075
        assert spec.eval_drift_scale == 0.01
        assert spec.eval_n_pool == 1000 and spec.eval_b_test == 40_000
        assert spec.raw["n_paths"] == 200_000 and spec.raw["train_frac"] == 0.8

    def test_garch_route_resolution(self):
        cfg = ExperimentConfig(preset="realistic-garch", seed=4, scale=0.01,
                               overrides={"garch_fit_steps": 2000})
        spec = resolve(cfg)
        assert spec.garch_model is not None
        assert spec.train_config.validation.kind == "garch_pool"
        assert spec.train_config.validation.garch_se_factor == 1.0
        assert spec.train_config.validation.garch_corr_std == 0.01
        assert spec.raw["garch_se_factor_eval"] == 0.75
        assert spec.raw["garch_corr_std_eval"] == 0.0075
        # fitted on iid reference returns: variances match sigma^2 dt
        expected = np.diag(spec.market.cov) / 65.0
        assert np.allclose(spec.garch_model.uncond_var, expected, rtol=0.2)

    def test_student_t_presets_are_evaluation_only(self):
        spec = resolve(ExperimentConfig(preset="student-t-3.5"))
        assert spec.no_train
        assert spec.student_t.nu == 3.5
        assert spec.student_t.scale == 0.35

    def test_scale_shrinks_sizes(self):
        spec = resolve(ExperimentConfig(preset="realistic", scale=0.01))
        assert spec.n_paths == 4000  # floor: 4x batch size
        assert spec.eval_n_pool == 10
        assert spec.eval_b_test == 400

    def test_benchmark_solution_dispatch(self):
        assert benchmark_solution(PRESETS["vol1d"]).system == "vol-1d"
        assert benchmark_solution(PRESETS["s"]).system == "vol-additive"
        assert benchmark_solution(PRESETS["as-ad"]).system == "fully-robust"
        assert benchmark_solution(PRESETS["realistic"]) is None


class TestSolveExplicit:
    def test_csv_output(self, capsys):
        assert main(["solve-explicit", "--preset", "as-ad"]) == 0
        out = capsys.readouterr().out
        assert "fully-robust,pi_1," in out
        assert "residual" in out

    def test_json_output(self, capsys):
        assert main(["solve-explicit", "--preset", "s", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["system"] == "vol-additive"
        assert doc["residual"] < 1e-10

    def test_no_system_for_pathwise(self, capsys):
        assert main(["solve-explicit", "--preset", "realistic"]) == 1


class TestGenData:
    def test_writes_and_reuses(self, tmp_path, capsys):
        args = ["gen-data", "--preset", "vol1d", "--scale", "0.002",
                "--override", "batch_size=100", "--out", str(tmp_path)]
        assert main(args) == 0
        (run_dir,) = _run_dirs(tmp_path)
        inc_path = tmp_path / run_dir / "increments.bin"
        first = inc_path.read_bytes()
        inc = NoiseIncrements.load(inc_path)
        assert inc.n_paths == 400  # 4x batch floor
        assert main(args) == 0  # idempotent
        assert inc_path.read_bytes() == first
        cfg_doc = json.loads((tmp_path / run_dir / "config.json").read_text())
        assert cfg_doc["config_hash"] in run_dir

    def test_truncated_file_is_regenerated(self, tmp_path, capsys):
        args = ["gen-data", "--preset", "vol1d", "--scale", "0.002",
                "--override", "batch_size=100", "--out", str(tmp_path)]
        assert main(args) == 0
        (run_dir,) = _run_dirs(tmp_path)
        inc_path = tmp_path / run_dir / "increments.bin"
        good = inc_path.read_bytes()
        inc_path.write_bytes(good[:-100])
        with pytest.raises(MarketError, match="increments.bin"):
            NoiseIncrements.load(inc_path)
        assert main(args) == 0
        assert inc_path.read_bytes() == good

    def test_file_of_another_seed_or_dimension_is_regenerated(self, tmp_path, capsys):
        args = ["gen-data", "--preset", "vol1d", "--scale", "0.002",
                "--override", "batch_size=100", "--seed", "4", "--out", str(tmp_path)]
        assert main(args) == 0
        (run_dir,) = _run_dirs(tmp_path)
        inc_path = tmp_path / run_dir / "increments.bin"
        good = inc_path.read_bytes()
        inc = NoiseIncrements.load(inc_path)
        for seed, d in ((5, inc.d), (4, 2)):  # same B and N, other header
            NoiseIncrements.generate(seed, inc.n_paths, inc.n_steps, d).save(inc_path)
            assert main(args) == 0
            assert inc_path.read_bytes() == good


def test_evaluate_simulates_each_scenario_once(tmp_path, monkeypatch, capsys):
    calls = []
    simulate = evaluation.simulate_scenario

    def counting(*args, **kwargs):
        calls.append(args[0])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(evaluation, "simulate_scenario", counting)
    out = tmp_path / "e"
    assert main(["evaluate", "--preset", "ntc-small", "--scale", "0.002",
                 "--override", "eval_b_ref=200", "--override", "eval_b_test=100",
                 "--override", "eval_n_pool=3", "--out", str(out)]) == 0
    (run_dir,) = _run_dirs(out)
    rows = (out / run_dir / "report.csv").read_text().splitlines()
    header = rows[0].split(",")
    reports = [dict(zip(header, r.split(","))) for r in rows[1:]]
    assert {r["strategy"] for r in reports} == {"cash", "merton", "no-trade"}
    (n_pool,) = {int(r["n_pool"]) for r in reports}
    assert n_pool >= 2
    assert len(calls) == n_pool + 1  # the pool, plus the reference paths


def _read_table(path):
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    return {r.split(",")[0]: dict(zip(header, r.split(","))) for r in rows[1:]}


def test_compare_ref_simulates_each_scenario_once(tmp_path, monkeypatch, capsys):
    calls = []
    simulate = evaluation.simulate_scenario

    def counting(*args, **kwargs):
        calls.append(args[0])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(evaluation, "simulate_scenario", counting)
    out = tmp_path / "c"
    assert main(["compare-ref", "--preset", "ntc-small", "--scale", "0.002",
                 "--override", "eval_n_pool=3", "--out", str(out)]) == 0
    (run_dir,) = _run_dirs(out)
    reports = _read_table(out / run_dir / "compare.csv")
    assert set(reports) == {"cash", "merton", "no-trade"}
    (n_pool,) = {int(r["n_pool"]) for r in reports.values()}
    assert n_pool >= 2
    assert len(calls) == n_pool + 1  # the pool, plus the reference paths


def test_defaulting_strategy_rows(tmp_path, monkeypatch, capsys):
    benchmarks = cli._benchmark_policies

    def with_lever(spec):
        return benchmarks(spec) | {"lever": ConstantWeightPolicy(50.0)}

    monkeypatch.setattr(cli, "_benchmark_policies", with_lever)
    args = ["--preset", "ntc-small", "--scale", "0.002", "--override",
            "eval_b_ref=200", "--override", "eval_b_test=100", "--override",
            "eval_n_pool=2", "--out", str(tmp_path)]
    assert main(["evaluate", *args]) == 0
    assert main(["compare-ref", *args]) == 0
    (run_dir,) = _run_dirs(tmp_path)
    for table in ("report.csv", "compare.csv"):
        rows = _read_table(tmp_path / run_dir / table)
        lever = rows["lever"]
        assert int(lever["n_defaults"]) > 0
        assert float(lever["e_u"]) == -np.inf and float(lever["m_u"]) == -np.inf
        for key in ("e_u_stderr", "var_alpha", "wealth_mean", "wealth_std",
                    "wealth_skew"):
            assert np.isnan(float(lever[key])), (table, key)
        assert int(rows["merton"]["n_defaults"]) == 0
        assert np.isfinite(float(rows["merton"]["wealth_mean"]))
    assert not (tmp_path / run_dir / "histogram_lever.csv").exists()
    assert (tmp_path / run_dir / "histogram_merton.csv").exists()


def test_report_table_survives_a_crash(tmp_path, monkeypatch, capsys):
    written = []
    csv_row = EvalReport.csv_row

    def failing(self):
        written.append(self.strategy)
        if len(written) == 2:
            raise OSError("disk full")
        return csv_row(self)

    monkeypatch.setattr(EvalReport, "csv_row", failing)
    args = ["run", "--preset", "student-t-20", "--scale", "0.002", "--override",
            "eval_b_ref=200", "--override", "eval_b_test=100", "--override",
            "eval_n_pool=2", "--out", str(tmp_path)]
    with pytest.raises(OSError, match="disk full"):
        main(args)
    (run_dir,) = _run_dirs(tmp_path)
    assert not [name for name in os.listdir(tmp_path / run_dir)
                if name.startswith("report.csv")]
    monkeypatch.undo()
    assert main(args) == 0
    assert set(_read_table(tmp_path / run_dir / "report.csv")) == {
        "cash", "merton", "no-trade"}


def _fail_writing(monkeypatch, name):
    """Make a write to ``name`` (or to its temporary) put down half its bytes
    and then raise, as a full disk would."""
    real_open = builtins.open

    class HalfThenFail:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("disk full")

    def patched(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(str(file)) in (name, f"{name}.tmp"):
            return HalfThenFail(fh)
        return fh

    monkeypatch.setattr(builtins, "open", patched)


SMALL_T = ["--preset", "student-t-20", "--scale", "0.002", "--override",
           "eval_b_ref=200", "--override", "eval_b_test=100", "--override",
           "eval_n_pool=2", "--override", "batch_size=100"]
CRASH_ARGV = {  # run-directory file -> the command that writes it
    "config.json": ["evaluate", *SMALL_T],
    "report_cash.json": ["evaluate", *SMALL_T],
    "histogram_cash.csv": ["evaluate", *SMALL_T],
    "increments.bin": ["gen-data", *SMALL_T],
    "surface.csv": ["grid-search", *SMALL_T, "--override", "epochs=1",
                    "--override", "width=4", "--lam1", "1", "--lam2", "1"],
}


@pytest.mark.parametrize("name", sorted(CRASH_ARGV))
def test_run_file_survives_a_crash(tmp_path, monkeypatch, capsys, name):
    argv = [*CRASH_ARGV[name], "--out", str(tmp_path)]
    assert main(argv) == 0
    (path,) = tmp_path.glob(f"*/{name}")
    if name == "increments.bin":
        path.write_bytes(path.read_bytes()[:-8])  # unreadable: gen-data rewrites it
    before = path.read_bytes()
    _fail_writing(monkeypatch, name)
    with pytest.raises(OSError, match="disk full"):
        main(argv)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*/*.tmp"))


@pytest.mark.slow
class TestEndToEnd:
    ARGS = ["--preset", "vol1d", "--scale", "0.01", "--seed", "3",
            "--override", "epochs=2", "--override", "batch_size=250",
            "--override", "width=8", "--override", "b_val=200",
            "--override", "eval_b_test=300", "--override", "eval_n_pool=3",
            "--override", "eval_b_ref=300"]

    def test_run_twice_is_byte_identical(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", *self.ARGS, "--out", out_a]) == 0
        assert main(["run", *self.ARGS, "--out", out_b]) == 0
        (dir_a,) = _run_dirs(out_a)
        (dir_b,) = _run_dirs(out_b)
        assert dir_a == dir_b  # same config hash
        for name in ("metrics.csv", "report.csv", "config.json"):
            a = (tmp_path / "a" / dir_a / name).read_bytes()
            b = (tmp_path / "b" / dir_b / name).read_bytes()
            assert a == b, name

    def test_run_resumes_completed_stages(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        assert main(["run", *self.ARGS, "--out", out]) == 0
        (run_dir,) = _run_dirs(out)
        stamp = os.path.getmtime(os.path.join(out, run_dir, "checkpoint_latest.npz"))
        assert main(["run", *self.ARGS, "--out", out]) == 0
        assert os.path.getmtime(os.path.join(out, run_dir,
                                             "checkpoint_latest.npz")) == stamp

    def test_reports_include_benchmarks_and_nn(self, tmp_path):
        out = str(tmp_path / "d")
        main(["run", *self.ARGS, "--out", out])
        (run_dir,) = _run_dirs(out)
        rows = (tmp_path / "d" / run_dir / "report.csv").read_text().splitlines()
        strategies = {r.split(",")[0] for r in rows[1:]}
        assert {"cash", "explicit", "merton", "nn"} <= strategies
        rep = json.loads((tmp_path / "d" / run_dir / "report_nn.json").read_text())
        assert "config_hash" in rep
        assert np.isfinite(rep["err_rel"])


@pytest.mark.slow
class TestGridSearch:
    def test_one_by_one_grid_equals_single_run(self, tmp_path, capsys):
        out = str(tmp_path / "g")
        args = ["grid-search", "--preset", "as-ad", "--scale", "0.01",
                "--override", "epochs=2", "--override", "batch_size=250",
                "--override", "width=8", "--override", "b_val=100",
                "--override", "eval_b_test=200", "--override", "eval_n_pool=2",
                "--override", "val_kind=\"noisy_pool\"",
                "--lam1", "1.0", "--lam2", "1.0", "--out", out]
        assert main(args) == 0
        (root,) = [d for d in _run_dirs(out) if "as-ad" in d and
                   os.path.exists(os.path.join(out, d, "surface.csv"))]
        surface = (tmp_path / "g" / root / "surface.csv").read_text().splitlines()
        assert surface[0] == "lam1,lam2,status,m_u,cell"
        row = surface[1].split(",")
        assert row[2] == "ok"
        m_u = float(row[3])
        assert np.isfinite(m_u)
        # a 1x1 grid's argmax is trivially on the boundary and flagged
        assert any(line.startswith("# argmax") and "boundary=True" in line
                   for line in surface)
        # rerun reuses the trained cell and reproduces the surface exactly
        assert main(args) == 0
        surface2 = (tmp_path / "g" / root / "surface.csv").read_text().splitlines()
        assert surface2 == surface

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cells_stay_isolated(self, tmp_path, capsys, jobs):
        # an invalid penalty scale fails its cell; the other cell completes

        def surface(name, jobs):
            out = str(tmp_path / name)
            args = ["grid-search", "--preset", "as-ad", "--scale", "0.01",
                    "--override", "epochs=1", "--override", "batch_size=250",
                    "--override", "width=8", "--override", "b_val=100",
                    "--override", "eval_b_test=100", "--override", "eval_n_pool=2",
                    "--lam1=-1.0,1.0", "--lam2", "1.0", "--out", out,
                    "--jobs", str(jobs)]
            assert main(args) == 0
            (root,) = [d for d in _run_dirs(out)
                       if os.path.exists(os.path.join(out, d, "surface.csv"))]
            return (tmp_path / name / root / "surface.csv").read_text()

        text = surface("f", jobs)
        rows = [line.split(",") for line in text.splitlines()
                if not line.startswith(("lam1", "#"))]
        status = {float(r[0]): r[2] for r in rows}
        assert status[-1.0] == "failed"
        assert status[1.0] == "ok"
        if jobs > 1:  # the worker processes write the serial loop's table
            assert text == surface("serial", 1)


@pytest.mark.slow
def test_short_horizon_learns_to_stay_in_cash(tmp_path):
    # expected profit over T=0.1 (about 0.4%) is below the 1% trading cost,
    # so the trained policy should hold almost nothing in the risky asset
    from robustfolio.market import simulate_euler
    from robustfolio.portfolio import roll_out
    from robustfolio.training import train

    cfg = ExperimentConfig(
        preset="ntc-small",
        overrides={"t_horizon": 0.1, "epochs": 15, "batch_size": 500,
                   "width": 16, "lr": 3e-3, "b_val": 500},
        seed=2, scale=0.03)
    spec = resolve(cfg)
    assert spec.grid.horizon == 0.1 and spec.grid.n_steps == 65
    inc = NoiseIncrements.generate(spec.seed, spec.n_paths, 65, 1)
    z_train = inc.subset(slice(0, spec.n_train))
    z_val = inc.subset(slice(spec.n_train, None))
    state = train(spec.train_config, z_train, z_val)
    policy = state.policy(spec.train_config)
    paths = simulate_euler(spec.grid, spec.market.params(), spec.market.s0, z_val)
    ledger = roll_out(policy, paths, spec.x0, spec.market.rate, spec.costs)
    assert np.abs(ledger.weights).mean() < 0.05


def test_compare_ref_smoke(tmp_path, capsys):
    args = ["compare-ref", "--preset", "student-t-20", "--scale", "0.002",
            "--override", "eval_b_ref=500", "--override", "eval_b_test=100",
            "--override", "eval_n_pool=2", "--out", str(tmp_path)]
    assert main(args) == 0
    (run_dir,) = _run_dirs(tmp_path)
    rows = (tmp_path / run_dir / "compare.csv").read_text().splitlines()
    strategies = {r.split(",")[0] for r in rows[1:]}
    assert {"cash", "merton", "no-trade"} <= strategies
