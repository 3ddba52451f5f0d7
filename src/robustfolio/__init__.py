"""Robust trading strategies via adversarial training and explicit saddle points."""

from .closed_form import (NoTradePolicy, NoTradeRegion, SaddleSolution,
                          merton_weight, no_trade_step, solve_1d_robust_vol,
                          solve_fully_robust, solve_multid_robust_vol)
from .evaluation import (EvalReport, expected_utility_on, histogram_report,
                         pooled_min_utility, relative_error, simulate_scenario,
                         value_at_risk)
from .garch import GarchModel, fit_garch, make_noisy_garch_pool, simulate_garch
from .market import (NoiseIncrements, PathBatch, PathParams, ReferenceMarket,
                     StudentTMarket, TimeGrid, make_noisy_pool, simulate_euler,
                     simulate_student_t)
from .nets import NetSpec, NeuralPolicy, ParamSet, adam_step, build_net, lr_schedule
from .portfolio import (CashPolicy, ConstantWeightPolicy, CostSpec, WealthLedger,
                        roll_out, step_wealth)
from .presets import PRESETS, ExperimentConfig, resolve
from .training import (TrainConfig, TrainState, ValidationSpec, forward_episode,
                       train)
from .utility import (PenaltySpec, PowerUtility, penalty_instant,
                      penalty_instant_vol, penalty_pathwise)

__version__ = "0.1.0"
