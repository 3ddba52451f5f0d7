"""Monte Carlo evaluation of trading strategies.

Expected utility against a fixed or pooled market, the pooled minimum
(worst case across scenarios), relative error against an explicit
benchmark under common random numbers, discounted value at risk, and
terminal-wealth histogram statistics.

Default convention: a path whose wealth turns non-positive cannot be
priced by the power utilities, so any default makes the Monte Carlo
estimate -inf (reported with its default count) rather than raising.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .closed_form import SaddleSolution
from .garch import GarchModel, simulate_garch
from .market import (ConstantParams, NoiseIncrements, NoisyMarketScenario,
                     PathBatch, ReferenceMarket, StudentTMarket, TimeGrid,
                     simulate_euler, simulate_student_t, substream)
from .portfolio import ConstantWeightPolicy, CostSpec, Policy, roll_out
from .utility import PowerUtility


def simulate_scenario(scenario, grid: TimeGrid, s0, n_paths: int,
                      seed: int) -> PathBatch:
    """Simulate any supported market scenario type on the grid."""
    if isinstance(scenario, ReferenceMarket):
        inc = NoiseIncrements.generate(seed, n_paths, grid.n_steps, scenario.d)
        return simulate_euler(grid, scenario.params(), s0, inc)
    if isinstance(scenario, NoisyMarketScenario):
        d = scenario.mu_path.shape[1]
        inc = NoiseIncrements.generate(seed, n_paths, grid.n_steps, d)
        return simulate_euler(grid, scenario.params(), s0, inc)
    if isinstance(scenario, ConstantParams):
        d = scenario.mu.shape[0]
        inc = NoiseIncrements.generate(seed, n_paths, grid.n_steps, d)
        return simulate_euler(grid, scenario, s0, inc)
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


def expected_utility_on(policy: Policy, paths: PathBatch, x0: float, rate: float,
                        costs: CostSpec, utility: PowerUtility) -> UtilityEstimate:
    """Expected utility on pre-simulated paths (common-random-number core)."""
    ledger = roll_out(policy, paths, x0, rate, costs)
    u = utility(ledger.terminal)
    n_def = int(np.count_nonzero(np.isneginf(u)))
    if n_def:
        return UtilityEstimate(float("-inf"), float("nan"), n_def, paths.n_paths)
    se = float(np.std(u, ddof=1) / np.sqrt(len(u))) if len(u) > 1 else float("nan")
    return UtilityEstimate(float(np.mean(u)), se, 0, paths.n_paths)


def expected_utility(policy: Policy, scenario, grid: TimeGrid, s0, x0: float,
                     rate: float, costs: CostSpec, utility: PowerUtility,
                     b_test: int, seed: int) -> UtilityEstimate:
    """Monte Carlo expected utility of terminal wealth under one scenario."""
    paths = simulate_scenario(scenario, grid, s0, b_test, seed)
    return expected_utility_on(policy, paths, x0, rate, costs, utility)


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
    d = params.mu.shape[0]
    inc = NoiseIncrements.generate(seed, b_test, grid.n_steps, d)
    paths = simulate_euler(grid, params, s0, inc)
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
        with open(path, "w") as fh:
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
        with open(path, "w") as fh:
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
    with open(path, "w") as fh:
        fh.write(EvalReport.csv_header() + "\n")
        for rep in reports:
            fh.write(rep.csv_row() + "\n")


def reference_report(policy: Policy, name: str, market: ReferenceMarket,
                     grid: TimeGrid, x0: float, costs: CostSpec,
                     utility: PowerUtility, b_test: int, seed: int,
                     alpha: float = 0.05, pool=None,
                     pool_b_test: int | None = None, scenario=None) -> EvalReport:
    """Evaluate one strategy on the reference market (plus optional pool).

    ``scenario`` overrides the path-generating market (e.g. a Student-t
    market priced with the reference rate and initial wealth).
    """
    paths = simulate_scenario(market if scenario is None else scenario,
                              grid, market.s0, b_test, seed)
    ledger = roll_out(policy, paths, x0, market.rate, costs)
    est = expected_utility_on(policy, paths, x0, market.rate, costs, utility)
    alive = ledger.terminal[~np.isneginf(utility(ledger.terminal))]
    disc = discount(ledger.terminal, market.rate, grid.horizon)
    rep = EvalReport(strategy=name, e_u=est.value, e_u_stderr=est.std_error,
                     alpha=alpha, n_defaults=est.n_defaults, b_test=b_test)
    if est.n_defaults == 0:
        rep.var_alpha = value_at_risk(ledger.terminal, alpha, market.rate,
                                      grid.horizon, x0)
        rep.wealth_mean = float(disc.mean())
        rep.wealth_std = float(disc.std())
        rep.wealth_skew = _skewness(disc)
    elif alive.size:
        rep.wealth_mean = float(np.mean(discount(alive, market.rate, grid.horizon)))
    if pool is not None:
        res = pooled_min_utility(policy, pool, grid, market.s0, x0, market.rate,
                                 costs, utility, pool_b_test or b_test, seed)
        rep.m_u = res.m_u
        rep.m_u_stderr = res.estimates[res.argmin].std_error
        rep.m_u_argmin = res.argmin
        rep.n_pool = res.n_pool
    return rep
