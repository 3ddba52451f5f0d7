"""Command-line entry point for reproducible experiment runs.

Subcommands: gen-data, train, evaluate, grid-search, solve-explicit,
compare-ref, and run (the full pipeline with stage-level resume).  Every
run writes into ``<out>/<preset>-<hash>/`` where the hash digests the
resolved configuration and seed, so re-running a config reproduces its
artifacts byte for byte.  The output root comes from ``--out`` or the
ROBUSTFOLIO_OUT environment variable.
"""

from __future__ import annotations

import argparse
import json
import os

from .atomic import atomic_write
from .closed_form import NoTradePolicy, NoTradeRegion, merton_weight
from .evaluation import (evaluate_policies, pooled_min_utility, relative_error,
                         write_reports_csv)
from .market import MarketError, NoiseIncrements, make_noisy_pool
from .nets import NeuralPolicy, load_checkpoint
from .portfolio import CashPolicy, ConstantWeightPolicy
from .presets import PRESETS, ExperimentConfig, RunSpec, benchmark_solution, resolve
from .training import train


def _experiment_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_json(fh.read())
    else:
        cfg = ExperimentConfig(preset=args.preset)
    if getattr(args, "preset", None):
        cfg.preset = args.preset
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "scale", None) is not None:
        cfg.scale = args.scale
    for item in getattr(args, "override", None) or []:
        key, _, value = item.partition("=")
        cfg.overrides[key] = json.loads(value)
    return cfg


def _run_dir(args, spec: RunSpec) -> str:
    root = getattr(args, "out", None) or os.environ.get("ROBUSTFOLIO_OUT", "runs")
    path = os.path.join(root, f"{spec.name}-{spec.config_hash}")
    os.makedirs(path, exist_ok=True)
    return path


def _write_config(cfg: ExperimentConfig, spec: RunSpec, run_dir: str) -> None:
    doc = {"config": json.loads(cfg.to_json()), "config_hash": spec.config_hash,
           "seed": spec.seed, "resolved": spec.raw}
    with atomic_write(os.path.join(run_dir, "config.json")) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _ensure_data(spec: RunSpec, run_dir: str) -> NoiseIncrements:
    """Load the run's increments, regenerating a missing or corrupt file, or
    one whose header (B, N, d, seed) is not this run's."""
    path = os.path.join(run_dir, "increments.bin")
    if os.path.exists(path):
        try:
            inc = NoiseIncrements.load(path)
            if ((inc.n_paths, inc.n_steps, inc.d, inc.seed)
                    == (spec.n_paths, spec.grid.n_steps, spec.market.d, spec.seed)):
                return inc
        except MarketError:
            pass  # unreadable: regenerate below
    inc = NoiseIncrements.generate(spec.seed, spec.n_paths, spec.grid.n_steps,
                                   spec.market.d)
    inc.save(path)
    return inc


def _split(spec: RunSpec, inc: NoiseIncrements):
    train_part = inc.subset(slice(0, spec.n_train))
    rest = inc.subset(slice(spec.n_train, None))
    return train_part, rest


def cmd_gen_data(args) -> int:
    cfg = _experiment_config(args)
    spec = resolve(cfg)
    run_dir = _run_dir(args, spec)
    _write_config(cfg, spec, run_dir)
    _ensure_data(spec, run_dir)
    print(f"wrote {spec.n_paths} paths to {run_dir}/increments.bin "
          f"[config {spec.config_hash}]")
    return 0


def _training_complete(run_dir: str, epochs: int) -> bool:
    meta_path = os.path.join(run_dir, "checkpoint_latest.npz.json")
    if not os.path.exists(meta_path):
        return False
    with open(meta_path) as fh:
        meta = json.load(fh)
    return meta.get("epoch", -1) >= epochs - 1


def cmd_train(args) -> int:
    cfg = _experiment_config(args)
    spec = resolve(cfg)
    if spec.no_train:
        print(f"preset {spec.name} is evaluation-only; nothing to train")
        return 0
    run_dir = _run_dir(args, spec)
    _write_config(cfg, spec, run_dir)
    inc = _ensure_data(spec, run_dir)
    z_train, z_val = _split(spec, inc)
    if _training_complete(run_dir, spec.train_config.epochs) and not args.force:
        print(f"training already complete in {run_dir}")
        return 0
    state = train(spec.train_config, z_train, z_val, out_dir=run_dir,
                  resume=not args.force)
    best = state.best.metric if state.best else float("nan")
    print(f"trained {spec.name} for {spec.train_config.epochs} epochs "
          f"[config {spec.config_hash}] best val metric {best:.6g}")
    return 0


def _trained_policy(spec: RunSpec, run_dir: str) -> NeuralPolicy | None:
    for name in ("checkpoint_best.npz", "checkpoint_latest.npz"):
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            gen, _, _ = load_checkpoint(path)
            return NeuralPolicy(spec.train_config.gen_spec(), gen.arrays,
                                spec.grid.horizon)
    return None


def _benchmark_policies(spec: RunSpec) -> dict:
    policies = {"cash": CashPolicy()}
    if spec.market.d == 1:
        mu_excess = float(spec.market.drift[0]) - spec.market.rate
        sigma = float(spec.market.vol[0, 0])
        p = spec.utility.p if spec.utility.p > 0 else 1.0
        policies["merton"] = ConstantWeightPolicy(merton_weight(mu_excess, sigma, p))
        if spec.costs.c_prop > 0:
            region = NoTradeRegion.from_params(mu_excess, sigma, p, spec.costs.c_prop)
            policies["no-trade"] = NoTradePolicy(region)
    sol = benchmark_solution(spec.raw)
    if sol is not None:
        policies["explicit"] = ConstantWeightPolicy(sol.weights)
    return policies


def _eval_pool(spec: RunSpec):
    if spec.garch_model is not None:
        from .garch import make_noisy_garch_pool

        return make_noisy_garch_pool(spec.garch_model,
                                     spec.raw["garch_se_factor_eval"],
                                     spec.raw["garch_corr_std_eval"],
                                     spec.eval_n_pool, seed=spec.seed + 7)
    return make_noisy_pool(spec.market, spec.eval_noise_kind, spec.eval_vol_scale,
                           spec.eval_drift_scale, spec.eval_n_pool, spec.grid,
                           seed=spec.seed + 7)


def _evaluate(spec: RunSpec, run_dir: str, pool_seed: int,
              skip_pool: bool = False, bins: int = 50):
    """Score the benchmark strategies and the trained policy, if any, on the
    reference paths (seed + 11) and on the evaluation pool (``pool_seed``)."""
    policies = _benchmark_policies(spec)
    nn = _trained_policy(spec, run_dir)
    if nn is not None:
        policies["nn"] = nn
    scenario = spec.student_t if spec.student_t is not None else spec.market
    reports, histograms = evaluate_policies(
        policies, scenario, spec.grid, spec.market.s0, spec.x0,
        spec.market.rate, spec.costs, spec.utility, spec.eval_b_ref,
        spec.seed + 11, spec.alpha, pool=None if skip_pool else _eval_pool(spec),
        pool_b_test=spec.eval_b_test, pool_seed=pool_seed, bins=bins)
    return policies, reports, histograms


def cmd_evaluate(args) -> int:
    cfg = _experiment_config(args)
    spec = resolve(cfg)
    run_dir = _run_dir(args, spec)
    _write_config(cfg, spec, run_dir)
    policies, reports, histograms = _evaluate(spec, run_dir, spec.seed + 13,
                                              args.skip_pool, args.bins)
    sol = benchmark_solution(spec.raw)
    for rep in reports:
        name = rep.strategy
        if sol is not None and name == "nn":
            err = relative_error(policies[name], sol, sol.drift, sol.cov, spec.grid,
                                 spec.market.s0, spec.x0, spec.market.rate,
                                 spec.costs, spec.utility, spec.eval_b_test,
                                 seed=spec.seed + 17)
            rep.err_rel = err.err_rel
            rep.err_rel_benchmark = sol.system
        if name in histograms:
            histograms[name].export_csv(os.path.join(run_dir, f"histogram_{name}.csv"))
        rep.to_json(os.path.join(run_dir, f"report_{name}.json"),
                    extra={"config_hash": spec.config_hash, "seed": spec.seed})
    write_reports_csv(reports, os.path.join(run_dir, "report.csv"))
    for rep in reports:
        print(rep.csv_row())
    return 0


def cmd_solve_explicit(args) -> int:
    cfg = _experiment_config(args)
    spec = resolve(cfg)
    sol = benchmark_solution(spec.raw)
    if sol is None:
        print("no explicit system matches this configuration")
        return 1
    if args.json:
        doc = {"system": sol.system, "weights": sol.weights.tolist(),
               "drift": sol.drift.tolist(), "cov": sol.cov.tolist(),
               "residual": sol.residual, "config_hash": spec.config_hash}
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print("system,component,value")
        for i, w in enumerate(sol.weights):
            print(f"{sol.system},pi_{i + 1},{w:.12g}")
        for i, m in enumerate(sol.drift):
            print(f"{sol.system},mu_{i + 1},{m:.12g}")
        for i in range(sol.d):
            for j in range(sol.d):
                print(f"{sol.system},Sigma_{i + 1}{j + 1},{sol.cov[i, j]:.12g}")
        print(f"{sol.system},residual,{sol.residual:.3e}")
    return 0


def cmd_compare_ref(args) -> int:
    cfg = _experiment_config(args)
    spec = resolve(cfg)
    run_dir = _run_dir(args, spec)
    _write_config(cfg, spec, run_dir)
    _, reports, _ = _evaluate(spec, run_dir, spec.seed + 11)
    write_reports_csv(reports, os.path.join(run_dir, "compare.csv"))
    for rep in reports:
        print(rep.csv_row())
    return 0


def _safe_grid_cell(cfg: ExperimentConfig, out_root: str | None, pool,
                    lam1: float, lam2: float) -> tuple:
    """Train and score one grid cell; returns its surface row.  A failing
    cell is recorded, not raised, so the others complete.  Module-level so
    workers can pickle it."""
    try:
        sub = ExperimentConfig(preset=cfg.preset,
                               overrides=cfg.overrides | {"lam1": lam1, "lam2": lam2},
                               seed=cfg.seed, scale=cfg.scale)
        spec = resolve(sub)
        cell_dir = _run_dir(argparse.Namespace(out=out_root), spec)
        _write_config(sub, spec, cell_dir)
        inc = _ensure_data(spec, cell_dir)
        z_train, z_val = _split(spec, inc)
        state = train(spec.train_config, z_train, z_val, out_dir=cell_dir,
                      resume=True)
        policy = state.policy(spec.train_config)
        res = pooled_min_utility(policy, pool, spec.grid, spec.market.s0,
                                 spec.x0, spec.market.rate, spec.costs,
                                 spec.utility, spec.eval_b_test,
                                 seed=spec.seed + 13)
        return lam1, lam2, "ok", res.m_u, spec.config_hash
    except Exception as exc:
        return lam1, lam2, "failed", float("nan"), str(exc)


def cmd_grid_search(args) -> int:
    cfg = _experiment_config(args)
    lam1s = [float(v) for v in args.lam1.split(",")]
    lam2s = [float(v) for v in args.lam2.split(",")]
    base_spec = resolve(cfg)
    root_dir = _run_dir(args, base_spec)
    _write_config(cfg, base_spec, root_dir)
    pool = _eval_pool(base_spec)
    cells = [(cfg, args.out, pool, l1, l2) for l1 in lam1s for l2 in lam2s]
    columns = list(zip(*cells))
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool_exec:
            rows = list(pool_exec.map(_safe_grid_cell, *columns))
    else:
        rows = list(map(_safe_grid_cell, *columns))

    ok_rows = [r for r in rows if r[2] == "ok"]
    best = max(ok_rows, key=lambda r: r[3]) if ok_rows else None
    boundary = False
    if best is not None:
        boundary = (best[0] in (min(lam1s), max(lam1s)) or
                    best[1] in (min(lam2s), max(lam2s)))
    with atomic_write(os.path.join(root_dir, "surface.csv")) as fh:
        fh.write("lam1,lam2,status,m_u,cell\n")
        for l1, l2, status, m_u, tag in rows:
            fh.write(f"{l1:.17g},{l2:.17g},{status},{m_u:.17g},{tag}\n")
        if best is not None:
            fh.write(f"# argmax,{best[0]:.17g},{best[1]:.17g},"
                     f"boundary={boundary}\n")
    if boundary:
        print("warning: best cell lies on the grid boundary; "
              "a larger grid may improve the maximum")
    for row in rows:
        print(row)
    return 0


def cmd_run(args) -> int:
    cfg = _experiment_config(args)
    spec = resolve(cfg)
    run_dir = _run_dir(args, spec)
    _write_config(cfg, spec, run_dir)
    inc = _ensure_data(spec, run_dir)
    if not spec.no_train and not _training_complete(run_dir, spec.train_config.epochs):
        z_train, z_val = _split(spec, inc)
        train(spec.train_config, z_train, z_val, out_dir=run_dir, resume=True)
    report_path = os.path.join(run_dir, "report.csv")
    if not os.path.exists(report_path):
        cmd_evaluate(args)
    print(f"run complete: {run_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustfolio",
        description="adversarially trained and closed-form robust trading strategies")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_preset=True):
        p.add_argument("--preset", choices=sorted(PRESETS),
                       required=needs_preset, help="named experiment preset")
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--scale", type=float, default=None,
                       help="dataset/pool scale factor for desk-size runs")
        p.add_argument("--override", action="append", metavar="KEY=JSON",
                       help="override a resolved config key")
        p.add_argument("--out", default=None,
                       help="output root (default $ROBUSTFOLIO_OUT or ./runs)")

    p = sub.add_parser("gen-data", help="generate and persist noise increments")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a policy/market pair")
    common(p)
    p.add_argument("--force", action="store_true", help="retrain from scratch")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate strategies and write reports")
    common(p)
    p.add_argument("--skip-pool", action="store_true")
    p.add_argument("--bins", type=int, default=50)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid-search", help="train/evaluate a penalty-scale grid")
    common(p)
    p.add_argument("--lam1", required=True, help="comma-separated values")
    p.add_argument("--lam2", required=True, help="comma-separated values")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("solve-explicit", help="print the explicit saddle point")
    common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve_explicit)

    p = sub.add_parser("compare-ref", help="benchmark table on the reference market")
    common(p)
    p.set_defaults(func=cmd_compare_ref)

    p = sub.add_parser("run", help="gen-data + train + evaluate, with resume")
    common(p)
    p.add_argument("--skip-pool", action="store_true")
    p.add_argument("--bins", type=int, default=50)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
