"""Span tracer for the benchmark.

The tracer wraps public functions of robustfolio's modules from outside
the package: every module attribute (or class attribute) bound to a hooked
function is replaced by a wrapper that records a span -- name, start, end
and parent -- plus counts taken at the same boundary.  Spans are kept in
memory, grouped into segments (set-up and one segment per round), and
written out once, as one JSON file, when the benchmark ends.

A layer's self time is its span's duration minus the time covered by the
child spans it contains, so the per-layer ``_s`` figures add up to the
stage's wall time without double counting.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child", "counts")

    def __init__(self, sid, name, parent, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0
        self.counts = {}

    @property
    def self_time(self) -> float:
        return (self.end - self.start) - self.child

    def as_dict(self, t0: float) -> dict:
        doc = {"id": self.id, "name": self.name, "parent": self.parent,
               "start": self.start - t0, "end": self.end - t0}
        if self.counts:
            doc["counts"] = self.counts
        return doc


# ----------------------------------------------------------------------
# counts taken at span boundaries: f(args, kwargs, result) -> dict
# ----------------------------------------------------------------------
def _count_generate(args, kwargs, result):
    return {"paths": result.n_paths}


def _count_file(args, kwargs, result):
    """Size of the increments file read or written (method arg ``path``)."""
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _count_simulate(args, kwargs, result):
    """Path-steps, plus ``paths``: the identity of the paths (noise and
    market parameters), so that repeated simulations can be told apart."""
    params = args[1] if len(args) > 1 else kwargs["params"]
    inc = args[3] if len(args) > 3 else kwargs["increments"]
    z = inc.z
    parts = [inc.seed, z.shape, float(z[0, 0, 0]), float(z[-1, -1, -1])]
    for value in vars(params).values():
        parts.append(hash(value.tobytes()) if hasattr(value, "tobytes") else value)
    b, n1, _ = result.s.shape
    return {"path_steps": b * (n1 - 1), "paths": hash(tuple(parts))}


def _count_roll_out(args, kwargs, result):
    b, n1 = result.x.shape
    arrays = (result.x, result.weights, result.holdings, result.traded,
              result.step_costs, result.defaulted, result.default_step)
    return {"path_steps": b * (n1 - 1),
            "ledger_bytes": sum(a.nbytes for a in arrays)}


def _count_adam(args, kwargs, result):
    grads = args[1] if len(args) > 1 else kwargs["grads"]
    return {"grads_applied": sum(g.size for g in grads.values())}


def _count_checkpoint(args, kwargs, result):
    path = str(args[0] if args else kwargs["path"])
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".json")}


def _count_pool(args, kwargs, result):
    return {"estimates": result.n_pool}


def _count_relative_error(args, kwargs, result):
    return {"estimates": 2}  # benchmark and policy on the same paths


# (module, attribute or Class.attribute, span name, count function)
LAYER_HOOKS = [
    ("market", "NoiseIncrements.generate", "market.generate", _count_generate),
    ("market", "NoiseIncrements.load", "market.load", _count_file),
    ("market", "NoiseIncrements.save", "market.save", _count_file),
    ("market", "simulate_euler", "market.simulate", _count_simulate),
    ("market", "make_noisy_pool", "market.pool", None),
    ("market", "stack_scenarios", "market.pool", None),
    ("portfolio", "roll_out", "portfolio.roll_out", _count_roll_out),
    ("utility", "penalty_pathwise", "utility.penalty", None),
    ("utility", "penalty_instant", "utility.penalty", None),
    ("utility", "penalty_instant_vol", "utility.penalty", None),
    ("autodiff", "Tensor.backward", "autodiff.backward", "backward"),
    ("nets", "adam_step", "nets.adam", _count_adam),
    ("nets", "NeuralPolicy.weights", "nets.policy_forward", None),
    ("nets", "save_checkpoint", "nets.checkpoint", _count_checkpoint),
    ("nets", "load_checkpoint", "nets.checkpoint", None),
    ("training", "train", "training.train", None),
    ("training", "forward_episode", "training.forward", "forward"),
    ("training", "validation_paths", "training.validation", None),
    ("training", "early_stopping_metric", "training.validation", None),
    ("evaluation", "pooled_min_utility", "evaluation.pool", _count_pool),
    ("evaluation", "relative_error", "evaluation.relative_error",
     _count_relative_error),
    ("cli", "_ensure_data", "cli.data", None),
    ("cli", "cmd_gen_data", "cli.gen_data", None),
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_evaluate", "cli.evaluate", None),
    ("cli", "cmd_run", "cli.run", None),
]

# The two stage boundaries the end-to-end times need; cheap enough to stay
# installed in untraced runs.
STAGE_HOOKS = [
    ("training", "train", "training.train", None),
    ("cli", "cmd_evaluate", "cli.evaluate", None),
]


class Tracer:
    """Installs span wrappers on robustfolio functions and collects spans."""

    def __init__(self, hooks):
        self.hooks = hooks
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._patches = []
        self._last_params = ()  # parameter tensors of the last forward pass
        self.sample = None  # inputs of the first traced training iteration

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for module_name, target, span_name, count in self.hooks:
            mod = importlib.import_module(f"robustfolio.{module_name}")
            count_fn = self._special(count)
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrap(span_name, orig.__func__, count_fn))
                else:
                    new = self._wrap(span_name, orig, count_fn)
                self._patch(cls, attr, new)
                continue
            orig = getattr(mod, target)
            new = self._wrap(span_name, orig, count_fn)
            for name, other in list(sys.modules.items()):
                if other is None or not name.startswith("robustfolio"):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        self._patch(other, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _special(self, count):
        if count == "forward":
            return self._count_forward
        if count == "backward":
            return self._count_backward
        return count

    # -- spans ----------------------------------------------------------
    def _wrap(self, span_name, fn, count):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(tracer._next_id, span_name,
                        parent.id if parent is not None else None, perf_counter())
            tracer._next_id += 1
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                tracer.spans.append(span)
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        return wrapper

    def _count_forward(self, args, kwargs, result):
        z_batch, gen_params, disc_params, cfg = args[:4]
        self._last_params = (gen_params, disc_params)
        if self.sample is None:
            from robustfolio.autodiff import raw

            self.sample = (z_batch.copy(),
                           {k: raw(v).copy() for k, v in gen_params.items()},
                           {k: raw(v).copy() for k, v in disc_params.items()}, cfg)
        return {}

    def _count_backward(self, args, kwargs, result):
        computed = 0
        for params in self._last_params:
            for t in params.values():
                if getattr(t, "grad", None) is not None:
                    computed += t.grad.size
        return {"grads_computed": computed}

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new segment."""
        spans, self.spans = self.spans, []
        return spans


def spans_to_json(segments: dict[str, list[Span]], t0: float) -> dict:
    return {name: [s.as_dict(t0) for s in spans] for name, spans in segments.items()}


def stage_times(spans: list[Span]) -> dict[str, float]:
    """Wall time of the training and evaluation stages among the spans."""
    out = {"train_s": 0.0, "evaluate_s": 0.0}
    for s in spans:
        if s.name == "training.train":
            out["train_s"] += s.end - s.start
        elif s.name == "cli.evaluate":
            out["evaluate_s"] += s.end - s.start
    return out


# ----------------------------------------------------------------------
# per-layer metrics from one segment's spans
# ----------------------------------------------------------------------
SELF_TIME = {
    "market.generate_s": ("market.generate",),
    "market.simulate_s": ("market.simulate",),
    "market.pool_s": ("market.pool",),
    "market.io_s": ("market.load", "market.save"),
    "portfolio.roll_out_s": ("portfolio.roll_out",),
    "utility.penalty_s": ("utility.penalty",),
    "autodiff.backward_s": ("autodiff.backward",),
    "nets.adam_s": ("nets.adam",),
    "nets.policy_forward_s": ("nets.policy_forward",),
    "nets.checkpoint_s": ("nets.checkpoint",),
    "training.forward_s": ("training.forward",),
    "training.validation_s": ("training.validation",),
    "training.loop_s": ("training.train",),
    "evaluation.pool_s": ("evaluation.pool",),
    "evaluation.relative_error_s": ("evaluation.relative_error",),
    "cli.data_s": ("cli.data", "cli.gen_data"),
    "cli.train_s": ("cli.train",),
    "cli.evaluate_s": ("cli.evaluate",),
    "cli.run_s": ("cli.run",),
}

COUNTS = {
    "market.generate_paths": ("market.generate", "paths"),
    "market.simulate_path_steps": ("market.simulate", "path_steps"),
    "market.increments_read_bytes": ("market.load", "bytes"),
    "market.increments_written_bytes": ("market.save", "bytes"),
    "portfolio.roll_out_path_steps": ("portfolio.roll_out", "path_steps"),
    "portfolio.ledger_bytes": ("portfolio.roll_out", "ledger_bytes"),
    "nets.checkpoint_bytes": ("nets.checkpoint", "bytes"),
}

# Figures that add over set-up and a round; the ratios below do not.
ADDITIVE = list(SELF_TIME) + list(COUNTS) + ["training.iterations",
                                              "evaluation.estimates"]


def segment_metrics(spans: list[Span]) -> dict:
    """Additive per-layer figures plus the raw material for the ratios."""
    by_id = {s.id: s for s in spans}
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(s.self_time for s in spans if s.name in names)
    for metric, (name, key) in COUNTS.items():
        out[metric] = sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def under(span, name):
        while span.parent is not None:
            span = by_id.get(span.parent)
            if span is None:
                return False
            if span.name == name:
                return True
        return False

    # iterations: forward, backward and Adam of one training step
    ordered = sorted(spans, key=lambda s: s.start)
    iter_ms, applied, computed, start = [], 0, 0, None
    for s in ordered:
        if not under(s, "training.train"):
            continue
        if s.name == "training.forward":
            start = s.start
        elif s.name == "autodiff.backward":
            computed += s.counts.get("grads_computed", 0)
        elif s.name == "nets.adam" and start is not None:
            applied += s.counts.get("grads_applied", 0)
            iter_ms.append(1e3 * (s.end - start))
            start = None
    out["training.iterations"] = len(iter_ms)

    estimates = sum(s.counts.get("estimates", 0) for s in spans)
    # reference estimates that cmd_evaluate computes inline, one per strategy
    estimates += sum(1 for s in spans if s.name == "portfolio.roll_out"
                     and s.parent is not None
                     and by_id[s.parent].name == "cli.evaluate")
    out["evaluation.estimates"] = estimates

    sims = [s for s in spans if s.name == "market.simulate" and under(s, "cli.evaluate")]
    distinct = {s.counts["paths"]: s.counts["path_steps"] for s in sims}
    raw_ratios = {
        "iter_ms": iter_ms,
        "grads_applied": applied,
        "grads_computed": computed,
        "eval_path_steps": sum(s.counts["path_steps"] for s in sims),
        "eval_unique_path_steps": sum(distinct.values()),
    }
    return out, raw_ratios


def combine(setup: dict, rounds: list[tuple[dict, dict]], py_calls: int,
            overhead_pct: float) -> dict:
    """Per-layer metrics of one run: set-up plus the median traced round."""
    metrics = {}
    for name in ADDITIVE:
        per_round = [r[0][name] for r in rounds]
        metrics[name] = setup[name] + statistics.median(per_round)
    iter_ms = [v for _, raw in rounds for v in raw["iter_ms"]]
    metrics["training.iter_ms"] = statistics.median(iter_ms) if iter_ms else 0.0
    computed = sum(raw["grads_computed"] for _, raw in rounds)
    applied = sum(raw["grads_applied"] for _, raw in rounds)
    metrics["training.grad_useful_share"] = applied / computed if computed else 0.0
    metrics["training.py_calls_per_iter"] = py_calls
    ev = [raw for _, raw in rounds if raw["eval_unique_path_steps"]]
    metrics["evaluation.sims_per_unique_path"] = (
        statistics.median(r["eval_path_steps"] / r["eval_unique_path_steps"]
                          for r in ev) if ev else 0.0)
    metrics["trace.overhead_pct"] = overhead_pct
    return metrics


def count_python_calls(fn) -> int:
    """Python and builtin function calls made while ``fn()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls
