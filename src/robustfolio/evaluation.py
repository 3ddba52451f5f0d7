"""Monte Carlo evaluation of trading strategies.

Expected utility against a fixed or pooled market, the pooled minimum
(worst case across scenarios), relative error against an explicit
benchmark under common random numbers, discounted value at risk,
terminal-wealth histogram statistics, and the per-strategy reports that
combine them.

Default convention: a path whose wealth turns non-positive cannot be
priced by the power utilities, so any default makes the Monte Carlo
estimate -inf (reported with its default count) rather than raising.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .atomic import atomic_write
from .closed_form import SaddleSolution
from .garch import GarchModel, simulate_garch
from .market import (ConstantParams, NoiseIncrements, PathBatch, PathParams,
                     ReferenceMarket, StudentTMarket, TimeGrid, simulate_euler,
                     simulate_student_t, substream)
from .portfolio import ConstantWeightPolicy, CostSpec, Policy, roll_out
from .utility import PowerUtility


def simulate_scenario(scenario, grid: TimeGrid, s0, n_paths: int,
                      seed: int) -> PathBatch:
    """Simulate any supported market scenario type on the grid."""
    if isinstance(scenario, (ReferenceMarket, PathParams, ConstantParams)):
        params = scenario.params() if isinstance(scenario, ReferenceMarket) else scenario
        d = params.at(0)[0].shape[-1]
        inc = NoiseIncrements.generate(seed, n_paths, grid.n_steps, d)
        return simulate_euler(grid, params, s0, inc)
    if isinstance(scenario, GarchModel):
        return simulate_garch(scenario, grid, s0, n_paths, seed)
    if isinstance(scenario, StudentTMarket):
        return simulate_student_t(scenario, grid, float(np.atleast_1d(s0)[0]),
                                  n_paths, seed)
    raise TypeError(f"cannot simulate scenario of type {type(scenario).__name__}")


@dataclass(frozen=True)
class UtilityEstimate:
    value: float
    std_error: float
    n_defaults: int
    n_paths: int


def utility_estimate(u: np.ndarray) -> UtilityEstimate:
    """Monte Carlo mean of per-path utilities u, -inf on any default."""
    n_def = int(np.count_nonzero(np.isneginf(u)))
    if n_def:
        return UtilityEstimate(float("-inf"), float("nan"), n_def, len(u))
    se = float(np.std(u, ddof=1) / np.sqrt(len(u))) if len(u) > 1 else float("nan")
    return UtilityEstimate(float(np.mean(u)), se, 0, len(u))


def expected_utility_on(policy: Policy, paths: PathBatch, x0: float, rate: float,
                        costs: CostSpec, utility: PowerUtility) -> UtilityEstimate:
    """Expected utility on pre-simulated paths (common-random-number core)."""
    ledger = roll_out(policy, paths, x0, rate, costs)
    return utility_estimate(utility(ledger.terminal))


@dataclass(frozen=True)
class PoolResult:
    m_u: float
    argmin: int
    estimates: tuple[UtilityEstimate, ...]

    @property
    def n_pool(self) -> int:
        return len(self.estimates)


def pooled_min_utilities(policies: dict[str, Policy], pool, grid: TimeGrid, s0,
                         x0: float, rate: float, costs: CostSpec,
                         utility: PowerUtility, b_test: int,
                         seed: int) -> dict[str, PoolResult]:
    """Worst-case expected utility across a scenario pool, for each policy.

    Scenario j is simulated once, on the deterministic substream (seed, j),
    and every policy is rolled out on those same paths; a policy's result
    does not depend on which other policies are scored with it.
    """
    if len(pool) < 1:
        raise ValueError("pool must contain at least one scenario")
    estimates = {name: [] for name in policies}
    for j, scenario in enumerate(pool):
        paths = simulate_scenario(scenario, grid, s0, b_test, substream(seed, j))
        for name, policy in policies.items():
            estimates[name].append(expected_utility_on(policy, paths, x0, rate,
                                                       costs, utility))
    results = {}
    for name, ests in estimates.items():
        values = np.array([e.value for e in ests])
        argmin = int(np.argmin(values))
        results[name] = PoolResult(m_u=float(values[argmin]), argmin=argmin,
                                   estimates=tuple(ests))
    return results


def pooled_min_utility(policy: Policy, pool, grid: TimeGrid, s0, x0: float,
                       rate: float, costs: CostSpec, utility: PowerUtility,
                       b_test: int, seed: int) -> PoolResult:
    """Worst-case expected utility of one policy across a scenario pool."""
    return pooled_min_utilities({"policy": policy}, pool, grid, s0, x0, rate,
                                costs, utility, b_test, seed)["policy"]


@dataclass(frozen=True)
class RelativeError:
    err_rel: float
    benchmark: UtilityEstimate
    policy: UtilityEstimate
    absolute: bool = False  # true when |E(benchmark)| was too small to divide


def relative_error(policy: Policy, benchmark, drift, cov, grid: TimeGrid, s0,
                   x0: float, rate: float, costs: CostSpec,
                   utility: PowerUtility, b_test: int, seed: int) -> RelativeError:
    """Signed relative utility gap against an explicit benchmark.

    Both strategies are priced on the same paths of the market (cov, drift),
    so a policy evaluated against itself scores exactly zero.  Negative
    values mean the policy beats the benchmark.
    """
    if isinstance(benchmark, SaddleSolution):
        benchmark = ConstantWeightPolicy(benchmark.weights)
    elif isinstance(benchmark, np.ndarray) or np.isscalar(benchmark):
        benchmark = ConstantWeightPolicy(benchmark)
    params = ConstantParams(mu=np.atleast_1d(np.asarray(drift, float)),
                            sigma=np.linalg.cholesky(np.atleast_2d(np.asarray(cov, float))))
    paths = simulate_scenario(params, grid, s0, b_test, seed)
    e_bench = expected_utility_on(benchmark, paths, x0, rate, costs, utility)
    e_pol = expected_utility_on(policy, paths, x0, rate, costs, utility)
    gap = e_bench.value - e_pol.value
    if gap == 0.0:  # common random numbers cancel exactly for equal policies
        return RelativeError(0.0, e_bench, e_pol)
    if abs(e_bench.value) < 1e-12:
        return RelativeError(gap, e_bench, e_pol, absolute=True)
    return RelativeError(gap / abs(e_bench.value), e_bench, e_pol)


def discount(terminal_wealth, rate: float, horizon: float) -> np.ndarray:
    return np.asarray(terminal_wealth, dtype=np.float64) * np.exp(-rate * horizon)


def value_at_risk(terminal_wealth, alpha: float, rate: float, horizon: float,
                  x0: float) -> float:
    """Discounted VaR: x0 minus the empirical lower alpha-quantile."""
    disc = discount(terminal_wealth, rate, horizon)
    return float(x0) - float(np.quantile(disc, alpha, method="lower"))


def _skewness(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    m = x.mean()
    s2 = np.mean((x - m) ** 2)
    # treat samples constant up to float rounding as skewless
    if np.sqrt(s2) <= 1e-12 * max(1.0, abs(m)):
        return 0.0
    return float(np.mean((x - m) ** 3) / s2 ** 1.5)


@dataclass(frozen=True)
class HistogramReport:
    mean: float
    std: float
    skewness: float
    bin_edges: np.ndarray
    counts: np.ndarray

    def export_csv(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write("bin_left,bin_right,count\n")
            for left, right, c in zip(self.bin_edges[:-1], self.bin_edges[1:],
                                      self.counts):
                fh.write(f"{left:.17g},{right:.17g},{int(c)}\n")


def histogram_report(discounted_samples, bins: int = 50) -> HistogramReport:
    """Summary statistics and bin counts of discounted terminal wealth."""
    x = np.asarray(discounted_samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("histogram needs at least one sample")
    counts, edges = np.histogram(x, bins=bins)
    return HistogramReport(mean=float(x.mean()), std=float(x.std()),
                           skewness=_skewness(x), bin_edges=edges, counts=counts)


@dataclass
class EvalReport:
    """Everything reported for one strategy, with Monte Carlo errors."""

    strategy: str
    e_u: float = float("nan")
    e_u_stderr: float = float("nan")
    m_u: float = float("nan")
    m_u_stderr: float = float("nan")
    m_u_argmin: int = -1
    err_rel: float = float("nan")
    err_rel_benchmark: str = ""
    var_alpha: float = float("nan")
    alpha: float = 0.05
    wealth_mean: float = float("nan")
    wealth_std: float = float("nan")
    wealth_skew: float = float("nan")
    n_defaults: int = 0
    n_pool: int = 0
    b_test: int = 0

    def to_json(self, path, extra: dict | None = None) -> None:
        doc = asdict(self)
        if extra:
            doc.update(extra)
        with atomic_write(path) as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)

    @staticmethod
    def csv_header() -> str:
        return ("strategy,e_u,e_u_stderr,m_u,m_u_stderr,m_u_argmin,err_rel,"
                "var_alpha,wealth_mean,wealth_std,wealth_skew,n_defaults,"
                "n_pool,b_test")

    def csv_row(self) -> str:
        return (f"{self.strategy},{self.e_u:.17g},{self.e_u_stderr:.17g},"
                f"{self.m_u:.17g},{self.m_u_stderr:.17g},{self.m_u_argmin},"
                f"{self.err_rel:.17g},"
                f"{self.var_alpha:.17g},{self.wealth_mean:.17g},"
                f"{self.wealth_std:.17g},{self.wealth_skew:.17g},"
                f"{self.n_defaults},{self.n_pool},{self.b_test}")


def write_reports_csv(reports: list[EvalReport], path) -> None:
    """Write the table next to ``path`` and move it into place, so that a
    crash part-way leaves no truncated table behind."""
    with atomic_write(path) as fh:
        fh.write(EvalReport.csv_header() + "\n")
        for rep in reports:
            fh.write(rep.csv_row() + "\n")


def evaluate_policies(policies: dict[str, Policy], scenario, grid: TimeGrid, s0,
                      x0: float, rate: float, costs: CostSpec,
                      utility: PowerUtility, b_ref: int, seed: int, alpha: float,
                      pool=None, pool_b_test: int | None = None,
                      pool_seed: int | None = None, bins: int = 50,
                      ) -> tuple[list[EvalReport], dict[str, HistogramReport]]:
    """Report every policy on one batch of reference paths, plus a pool.

    ``b_ref`` paths of ``scenario`` are simulated once from ``seed`` and each
    policy is rolled out once on them; E[u], its standard error, the default
    count, VaR and the wealth statistics all come from that roll-out.  A
    policy with a defaulted path reports e_u = -inf with NaN VaR and wealth
    statistics, and gets no histogram.  The worst case over ``pool``, if
    given, comes from one ``pooled_min_utilities`` pass of ``pool_b_test``
    paths per scenario on the substreams of ``pool_seed``.  Reports are
    sorted by strategy name; histograms are keyed by it.
    """
    pooled = {}
    if pool is not None:
        pooled = pooled_min_utilities(policies, pool, grid, s0, x0, rate, costs,
                                      utility, pool_b_test, pool_seed)
    paths = simulate_scenario(scenario, grid, s0, b_ref, seed)
    reports, histograms = [], {}
    for name, policy in sorted(policies.items()):
        terminal = roll_out(policy, paths, x0, rate, costs).terminal
        est = utility_estimate(utility(terminal))
        rep = EvalReport(strategy=name, e_u=est.value, e_u_stderr=est.std_error,
                         alpha=alpha, n_defaults=est.n_defaults, b_test=b_ref)
        if not est.n_defaults:
            hist = histograms[name] = histogram_report(
                discount(terminal, rate, grid.horizon), bins)
            rep.var_alpha = value_at_risk(terminal, alpha, rate, grid.horizon, x0)
            rep.wealth_mean, rep.wealth_std, rep.wealth_skew = (
                hist.mean, hist.std, hist.skewness)
        if name in pooled:
            res = pooled[name]
            rep.m_u, rep.m_u_argmin, rep.n_pool = res.m_u, res.argmin, res.n_pool
            rep.m_u_stderr = res.estimates[res.argmin].std_error
        reports.append(rep)
    return reports, histograms
