"""Benchmark of robustfolio's training step, pooled evaluation and pipeline.

Run from the repository root:

    python3 bench/run.py --workload train-realistic --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):

* ``train-realistic``: ``robustfolio train --preset realistic`` at desk
  scale for a fixed number of epochs, then a pool-free ``evaluate`` of the
  trained policy; the increments are written during set-up.
* ``evaluate-pool``: ``robustfolio evaluate --preset as-ad`` at desk scale
  with cash, the explicit saddle point and an NN checkpoint; a one-epoch
  ``robustfolio train`` in a child process makes the checkpoint first in
  each round, so it adds neither to the evaluation time nor to this
  process's peak memory.
* ``run-ntc``: ``robustfolio run --preset ntc-small`` at desk scale for a
  fixed number of epochs, from an empty output root.

Each run does set-up once, then repeats whole rounds of its workload while
the next round still fits in ``--seconds`` (at least one), and reports the
median round.  ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones.  The program's outputs of
the last round are checked at the end; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

_T_START = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SCALE = 0.05  # desk scale: 10,000 dataset paths, 2,000 paths per scenario
# Pools of 10 scenarios instead of the desk-scale 50 keep one round short, so
# that a run holds several; the --scale factor also multiplies this value.
POOL_OVERRIDE = 200


def _process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    # the module-level clock misses only interpreter start-up
    floor = time.perf_counter() - _T_START
    return age if floor <= age < floor + 60.0 else floor


def _limit_blas_threads() -> dict:
    """Cap BLAS/OpenMP threads at the usable CPUs (default 1); before numpy."""
    nproc = len(os.sched_getaffinity(0))
    settings = {}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, "1"))
        except ValueError:
            n = 1
        n = min(max(n, 1), nproc)
        os.environ[var] = str(n)
        settings[var] = n
    return settings


def _environment(blas: dict) -> dict:
    import platform

    import numpy as np

    try:
        blas_name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        sha = subprocess.run(["git", f"--git-dir={os.path.join(ROOT, '.git')}",
                              "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": blas,
            "blas": blas_name, "numpy": np.__version__,
            "python": platform.python_version(), "git_sha": sha}


def run_cli(argv: list[str], log_path: str) -> None:
    """One ``robustfolio`` command in this process, its output to the log."""
    from robustfolio import cli

    with open(log_path, "a") as log, contextlib.redirect_stdout(log):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"robustfolio {' '.join(argv)} exited with {rc}")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    preset: str
    epochs: int
    reports: int  # strategy reports written per round

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.out = os.path.join(work, "runs")
        self.log = os.path.join(work, "program.log")
        self.child_train_s: list[float] = []  # training stages run in a child

    @property
    def ops_per_round(self) -> int:
        return self.epochs + self.reports

    def overrides(self) -> dict:
        return {"epochs": self.epochs}

    def args(self) -> list[str]:
        out = ["--preset", self.preset, "--scale", str(SCALE), "--seed",
               str(self.seed), "--out", self.out]
        for key, value in self.overrides().items():
            out += ["--override", f"{key}={json.dumps(value)}"]
        return out

    def resolve(self):
        from robustfolio.presets import ExperimentConfig, resolve

        self.spec = resolve(ExperimentConfig(
            preset=self.preset, overrides=self.overrides(), seed=self.seed,
            scale=SCALE))

    @property
    def run_dir(self) -> str:
        return os.path.join(self.out, f"{self.spec.name}-{self.spec.config_hash}")

    def setup(self) -> None:
        self.resolve()

    def before_round(self, k: int) -> None:
        pass

    def round(self) -> None:
        raise NotImplementedError

    def checks(self) -> list:
        raise NotImplementedError


class TrainRealistic(Workload):
    """The headline game: fully robust, two assets, 1% costs, path-wise
    penalties, noisy-pool validation every epoch."""

    preset = "realistic"
    epochs = 2
    reports = 2  # cash and nn

    def setup(self):
        self.resolve()
        run_cli(["gen-data", *self.args()], self.log)

    def round(self):
        run_cli(["train", *self.args(), "--force"], self.log)
        run_cli(["evaluate", *self.args(), "--skip-pool"], self.log)

    def checks(self):
        import checks as ck

        spec, rd = self.spec, self.run_dir
        rep = ck.read_report(os.path.join(rd, "report.csv"))
        cash = ck.power_utility(ck.cash_wealth(spec.market.rate, spec.grid.dt),
                                spec.utility.p, spec.utility.shifted)
        return [
            ck.check_metrics_csv(os.path.join(rd, "metrics.csv"), self.epochs),
            ck.check_checkpoint(os.path.join(rd, "checkpoint_latest.npz"), self.epochs),
            ck.check_gradient(gradient_pairs(spec, rd, self.seed)),
            ck.check_exact("cash_anchor", rep["cash"]["e_u"], cash),
            ck.check_row_finite("nn_row_finite", rep["nn"],
                                ("e_u", "e_u_stderr", "var_alpha", "wealth_mean",
                                 "wealth_std", "wealth_skew")),
        ]


class EvaluatePool(Workload):
    """Pooled worst-case evaluation and relative error of three strategies
    under frictionless log utility, which has closed-form anchors."""

    preset = "as-ad"
    epochs = 1
    reports = 3  # cash, explicit and nn

    def overrides(self):
        return {"epochs": self.epochs, "eval_n_pool": POOL_OVERRIDE}

    def setup(self):
        self.resolve()
        run_cli(["gen-data", *self.args()], self.log)

    def round(self):
        # The NN checkpoint comes from a one-epoch `robustfolio train` run in
        # a child process, so that its autodiff graph stays out of this
        # process's peak memory and out of the evaluation.
        result = os.path.join(self.work, "child_train.json")
        with open(self.log, "a") as log:
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--child-train", result, "--", "train", *self.args(),
                            "--force"],
                           check=True, timeout=170, stdout=log,
                           stderr=subprocess.STDOUT)
        with open(result) as fh:
            self.child_train_s.append(json.load(fh)["train_s"])
        run_cli(["evaluate", *self.args()], self.log)

    def checks(self):
        import numpy as np

        import checks as ck
        from robustfolio import cli
        from robustfolio.market import make_noisy_pool

        spec, rd = self.spec, self.run_dir
        rep = ck.read_report(os.path.join(rd, "report.csv"))
        r, dt, T = spec.market.rate, spec.grid.dt, spec.grid.horizon
        raw = spec.raw
        cash = float(np.log(ck.cash_wealth(r, dt)))
        sol_path = os.path.join(self.work, "explicit.json")
        with open(sol_path, "w") as fh, contextlib.redirect_stdout(fh):
            cli.main(["solve-explicit", *self.args(), "--json"])
        with open(sol_path) as fh:
            sol = json.load(fh)
        pi = np.array(sol["weights"])
        mu_ref, cov_ref = spec.market.drift, spec.market.cov
        ex = rep["explicit"]
        mean_exact = ck.constant_weight_wealth_mean(pi, mu_ref, r, dt) * np.exp(-r * T)
        pool = make_noisy_pool(spec.market, spec.eval_noise_kind, spec.eval_vol_scale,
                               spec.eval_drift_scale, spec.eval_n_pool, spec.grid,
                               seed=spec.seed + 7)
        least = min(ck.log_growth(pi, sc.mu_path,
                                  np.einsum("nij,nkj->nik", sc.sigma_path,
                                            sc.sigma_path), r, dt)
                    for sc in pool)
        return [
            ck.check_exact("cash_e_u", rep["cash"]["e_u"], cash),
            ck.check_exact("cash_m_u", rep["cash"]["m_u"], cash),
            ck.check_saddle(pi, sol["drift"], sol["cov"], mu_ref, cov_ref, r,
                            raw["lam1"], raw["lam2"]),
            ck.check_within_se("explicit_wealth_mean", ex["wealth_mean"],
                               ex["wealth_std"] / np.sqrt(ex["b_test"]), mean_exact),
            ck.check_within_se("explicit_e_u", ex["e_u"], ex["e_u_stderr"],
                               ck.log_growth(pi, mu_ref, cov_ref, r, dt)),
            ck.check_within_se("explicit_m_u", ex["m_u"], ex["m_u_stderr"], least),
            ck.check_row_finite("nn_row_finite", rep["nn"],
                                ("e_u", "e_u_stderr", "m_u", "m_u_stderr", "err_rel",
                                 "var_alpha", "wealth_mean", "wealth_std",
                                 "wealth_skew")),
        ]


class RunNtc(Workload):
    """One asset, generator only, costs and a stateful no-trade policy; the
    run directory is written and read back."""

    preset = "ntc-small"
    epochs = 2
    reports = 4  # cash, merton, no-trade and nn

    def overrides(self):
        return {"epochs": self.epochs, "eval_n_pool": POOL_OVERRIDE}

    def before_round(self, k):
        if os.path.isdir(self.out):
            shutil.rmtree(self.out)
        self.out = os.path.join(self.work, f"runs-{k}")

    def round(self):
        run_cli(["run", *self.args()], self.log)

    def checks(self):
        import numpy as np

        import checks as ck
        from robustfolio.evaluation import simulate_scenario
        from robustfolio.nets import NeuralPolicy, load_checkpoint
        from robustfolio.portfolio import roll_out
        from robustfolio.training import init_networks

        spec, rd = self.spec, self.run_dir
        rep = ck.read_report(os.path.join(rd, "report.csv"))
        p, shifted = spec.utility.p, spec.utility.shifted
        cash = ck.power_utility(ck.cash_wealth(spec.market.rate, spec.grid.dt),
                                p, shifted)
        # trained policy (the checkpoint evaluate picks) against its own
        # seeded initial weights, on the report's reference paths
        best = os.path.join(rd, "checkpoint_best.npz")
        if not os.path.exists(best):
            best = os.path.join(rd, "checkpoint_latest.npz")
        trained = load_checkpoint(best)[0].arrays
        initial = init_networks(spec.train_config)[0].arrays
        paths = simulate_scenario(spec.market, spec.grid, spec.market.s0,
                                  spec.eval_b_ref, spec.seed + 11)
        gen_spec = spec.train_config.gen_spec()
        values = []
        for arrays in (trained, initial):
            ledger = roll_out(NeuralPolicy(gen_spec, arrays, spec.grid.horizon),
                              paths, spec.x0, spec.market.rate, spec.costs)
            values.append(float(np.mean(ck.power_utility(ledger.terminal, p,
                                                         shifted))))
        return [
            ck.check_exact("cash_anchor", rep["cash"]["e_u"], cash),
            ck.check_greater("no_trade_beats_merton", rep["no-trade"]["e_u"],
                             rep["merton"]["e_u"]),
            ck.check_greater("nn_beats_initial_weights", *values),
        ]


WORKLOADS = {"train-realistic": TrainRealistic, "evaluate-pool": EvaluatePool,
             "run-ntc": RunNtc}


def gradient_pairs(spec, run_dir: str, seed: int, n_paths: int = 16,
                   per_net: int = 6, h: float = 1e-5) -> list:
    """Reverse-mode against central differences of the generator loss.

    Evaluated at the last checkpoint on the first training paths, for
    ``per_net`` sampled coordinates of each network.  The loss has a kink
    wherever a traded amount crosses zero (|.| in the costs, on every step
    of every path), and a step can straddle one, so each coordinate gets
    central differences at steps h, h / 10 and h / 100.
    """
    import numpy as np

    from robustfolio.autodiff import Tensor, raw
    from robustfolio.market import NoiseIncrements
    from robustfolio.nets import load_checkpoint
    from robustfolio.training import forward_episode

    cfg = spec.train_config
    gen, disc, _ = load_checkpoint(os.path.join(run_dir, "checkpoint_latest.npz"))
    z = NoiseIncrements.load(os.path.join(run_dir, "increments.bin")).z[:n_paths]
    tensors = {"gen": {k: Tensor(v) for k, v in gen.arrays.items()},
               "disc": {k: Tensor(v) for k, v in disc.arrays.items()}}
    forward_episode(z, tensors["gen"], tensors["disc"], cfg).gen_loss.backward()

    def loss() -> float:
        return float(raw(forward_episode(z, gen.arrays, disc.arrays, cfg).gen_loss))

    rng = np.random.default_rng([seed, 2])
    pairs = []
    for tag, params in (("gen", gen), ("disc", disc)):
        for _ in range(per_net):
            name = params.names[int(rng.integers(len(params.names)))]
            flat = params.arrays[name].reshape(-1)
            i = int(rng.integers(flat.size))
            grad = tensors[tag][name].grad
            ad = float(grad.reshape(-1)[i]) if grad is not None else 0.0
            keep = flat[i]
            central = []
            for step in (h, h / 10, h / 100):
                flat[i] = keep + step
                up = loss()
                flat[i] = keep - step
                down = loss()
                flat[i] = keep
                central.append((up - down) / (2.0 * step))
            pairs.append((f"{tag}:{name}[{i}]", ad, central))
    return pairs


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def measure(workload: Workload, seconds: float, trace: bool):
    """Whole rounds while the next one fits in ``seconds``; at least one
    of each kind (untraced, and traced when tracing)."""
    from tracing import LAYER_HOOKS, STAGE_HOOKS, Tracer

    tracers = {"untraced": Tracer(STAGE_HOOKS)}
    if trace:
        tracers["traced"] = Tracer(LAYER_HOOKS)
    kinds = list(tracers)
    rounds = {kind: [] for kind in kinds}  # (wall seconds, spans)
    start = time.perf_counter()
    k = 0
    while True:
        kind = kinds[k % len(kinds)]
        tracer = tracers[kind]
        workload.before_round(k)
        tracer.install()
        try:
            t0 = time.perf_counter()
            workload.round()
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        rounds[kind].append((wall, tracer.take()))
        k += 1
        nxt = kinds[k % len(kinds)]
        if rounds[nxt]:
            elapsed = time.perf_counter() - start
            if elapsed + rounds[nxt][-1][0] > seconds:
                break
    return rounds, tracers


def end_to_end(workload: Workload, rounds, setup_s: float) -> dict:
    import resource

    from tracing import stage_times

    walls = [w for w, _ in rounds["untraced"]]
    stages = [stage_times(spans) for _, spans in rounds["untraced"]]
    metrics = {
        "setup_s": setup_s,
        "train_s": statistics.median(s["train_s"] for s in stages),
        "evaluate_s": statistics.median(s["evaluate_s"] for s in stages),
        "run_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if workload.child_train_s:
        metrics["train_s"] = statistics.median(workload.child_train_s)
    return metrics


def per_layer(rounds, setup_spans, tracer) -> dict:
    from tracing import combine, count_python_calls, segment_metrics

    py_calls = 0
    if tracer.sample is not None:
        from robustfolio.autodiff import Tensor
        from robustfolio.training import forward_episode

        z, gen, disc, cfg = tracer.sample
        gen_t = {k: Tensor(v) for k, v in gen.items()}
        disc_t = {k: Tensor(v) for k, v in disc.items()}
        py_calls = count_python_calls(
            lambda: forward_episode(z, gen_t, disc_t, cfg).gen_loss.backward())
    untraced = statistics.median(w for w, _ in rounds["untraced"])
    traced = statistics.median(w for w, _ in rounds["traced"])
    setup, _ = segment_metrics(setup_spans)
    return combine(setup, [segment_metrics(spans) for _, spans in rounds["traced"]],
                   py_calls, 100.0 * (traced - untraced) / untraced)


def _declared_metrics(key: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def child_train(result_path: str, argv: list[str]) -> int:
    """Run one ``robustfolio`` training command; record its train stage."""
    from tracing import STAGE_HOOKS, Tracer, stage_times

    tracer = Tracer(STAGE_HOOKS)
    tracer.install()
    try:
        run_cli(argv, os.devnull)
    finally:
        tracer.uninstall()
    with open(result_path, "w") as fh:
        json.dump(stage_times(tracer.take()), fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-train", metavar="RESULT_JSON",
                        help=argparse.SUPPRESS)
    parser.add_argument("cli_args", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "robustfolio", "__init__.py")):
        print(f"bench: robustfolio sources not found under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still stops its child process and waits for it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    blas = _limit_blas_threads()
    sys.path.insert(0, SRC)
    if args.child_train:
        return child_train(args.child_train, args.cli_args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import numpy  # noqa: F401  (part of the measured set-up)

    import robustfolio.cli  # noqa: F401
    from tracing import LAYER_HOOKS, Tracer, spans_to_json

    work = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-"
                                  f"trace{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[args.workload](args.seed, work)
    setup_tracer = Tracer(LAYER_HOOKS if args.trace else [])
    setup_tracer.install()
    try:
        workload.setup()
    finally:
        setup_tracer.uninstall()
    setup_spans = setup_tracer.take()
    setup_s = _process_age()

    rounds, tracers = measure(workload, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(rounds, setup_spans, tracers["traced"])
        units = _declared_metrics("per_layer")
    else:
        metrics = end_to_end(workload, rounds, setup_s)
        units = _declared_metrics("end_to_end")
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")

    results = [(name, bool(ok), detail) for name, ok, detail in workload.checks()]
    env = _environment(blas)
    n_rounds = sum(len(v) for v in rounds.values())
    doc = {
        "correct": all(ok for _, ok, _ in results),
        "attempted": n_rounds * workload.ops_per_round + len(results),
        "failed": sum(1 for _, ok, _ in results if not ok),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "rounds": {kind: [w for w, _ in v] for kind, v in rounds.items()},
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
              "result": doc}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        segments = {"setup": setup_spans}
        segments.update({f"{kind}-{i}": spans for kind, v in rounds.items()
                         for i, (_, spans) in enumerate(v)})
        with open(os.path.join(work, "trace.json"), "w") as fh:
            json.dump({"env": env, "metrics": metrics,
                       "segments": spans_to_json(segments, _T_START)}, fh)
    for entry in os.listdir(work):
        path = os.path.join(work, entry)
        if os.path.isdir(path):
            shutil.rmtree(path)

    print("# env " + json.dumps(env, sort_keys=True))
    for name, ok, detail in results:
        print(f"# check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
