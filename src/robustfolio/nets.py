"""Policy and market networks, Adam, and checkpointing.

Three architectures: a feed-forward net shared across time steps, a
single-layer recurrent net with a carried hidden state, and a time-grid
net with independent parameters per step.  ``FeedForward`` serves both
the shared and the time-grid case; each of its layers is one ``dense``
graph node.  Hidden activations are tanh, outputs are linear.  The same
forward code runs on Tensors (training) and on plain arrays (evaluation,
and the frozen network of a training step).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write
from .autodiff import Tensor, concat, dense, raw, split_columns

ARCHS = ("ffnn", "rnn", "time_grid")
CHECKPOINT_VERSION = 1
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NetSpec:
    """Architecture, shapes and role of one network."""

    in_dim: int
    out_dim: int
    arch: str = "ffnn"
    width: int = 64
    depth: int = 1  # hidden layers (rnn is always a single recurrent cell)
    n_steps: int | None = None  # required for time_grid

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.arch == "time_grid" and not self.n_steps:
            raise ValueError("time_grid nets need n_steps")
        if self.arch == "rnn" and self.depth != 1:
            raise ValueError("the recurrent net has a single recurrent layer")


@dataclass
class ParamSet:
    """Named parameter arrays with Adam moments and a step counter."""

    arrays: dict[str, np.ndarray]
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    def __post_init__(self):
        for name, arr in self.arrays.items():
            self.m.setdefault(name, np.zeros_like(arr))
            self.v.setdefault(name, np.zeros_like(arr))

    @property
    def names(self) -> list[str]:
        return sorted(self.arrays)

    @property
    def n_params(self) -> int:
        return sum(a.size for a in self.arrays.values())


def _uniform_init(rng, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _layer_sizes(spec: NetSpec) -> list[tuple[int, int]]:
    dims = [spec.in_dim] + [spec.width] * spec.depth + [spec.out_dim]
    return list(zip(dims[:-1], dims[1:]))


@dataclass(frozen=True)
class FeedForward:
    """Feed-forward layers: one parameter set shared by every step (ffnn),
    or an independent set per step, named with the prefix ``s{n}.``
    (time_grid)."""

    spec: NetSpec

    def _prefix(self, n: int) -> str:
        return f"s{n}." if self.spec.arch == "time_grid" else ""

    def init(self, rng, head_bias=None) -> ParamSet:
        arrays = {}
        sizes = _layer_sizes(self.spec)
        last = len(sizes) - 1
        for n in range(self.spec.n_steps if self.spec.arch == "time_grid" else 1):
            pre = self._prefix(n)
            for i, (fin, fout) in enumerate(sizes):
                name = f"{pre}out" if i == last else f"{pre}h{i}"
                arrays[f"{name}.W"] = _uniform_init(rng, fin, (fin, fout))
                arrays[f"{name}.b"] = _uniform_init(rng, fin, (fout,))
            _apply_head_init(arrays, f"{pre}out", head_bias)
        return ParamSet(arrays=arrays)

    def apply(self, params, n, inp, hidden):
        pre = self._prefix(n)
        h = inp
        for i in range(self.spec.depth):
            h = dense(h, params[f"{pre}h{i}.W"], params[f"{pre}h{i}.b"])
        return dense(h, params[f"{pre}out.W"], params[f"{pre}out.b"],
                     act=False), hidden


@dataclass(frozen=True)
class Recurrent:
    spec: NetSpec

    def init(self, rng, head_bias=None) -> ParamSet:
        spec = self.spec
        arrays = {
            "rnn.Wx": _uniform_init(rng, spec.in_dim, (spec.in_dim, spec.width)),
            "rnn.Wh": _uniform_init(rng, spec.width, (spec.width, spec.width)),
            "rnn.b": _uniform_init(rng, spec.in_dim, (spec.width,)),
            "out.W": _uniform_init(rng, spec.width, (spec.width, spec.out_dim)),
            "out.b": _uniform_init(rng, spec.width, (spec.out_dim,)),
        }
        _apply_head_init(arrays, "out", head_bias)
        return ParamSet(arrays=arrays)

    def apply(self, params, n, inp, hidden):
        if hidden is None:
            hidden = np.zeros((raw(inp).shape[0], self.spec.width))
        # generic ops: the sum order (inp Wx + hidden Wh) + b is not dense's
        pre = inp @ params["rnn.Wx"] + hidden @ params["rnn.Wh"] + params["rnn.b"]
        h = pre.tanh() if isinstance(pre, Tensor) else np.tanh(pre)
        return dense(h, params["out.W"], params["out.b"], act=False), h


def _apply_head_init(arrays, prefix, head_bias):
    if head_bias is not None:
        arrays[f"{prefix}.W"] = np.zeros_like(arrays[f"{prefix}.W"])
        arrays[f"{prefix}.b"] = np.asarray(head_bias, dtype=np.float64).copy()


def build_net(spec: NetSpec) -> FeedForward | Recurrent:
    return Recurrent(spec) if spec.arch == "rnn" else FeedForward(spec)


def policy_spec(d: int, arch: str = "ffnn", width: int = 64, depth: int = 1,
                n_steps: int | None = None) -> NetSpec:
    """Inputs (t/T, S, X) -> d unconstrained weights (shorting allowed)."""
    return NetSpec(in_dim=d + 2, out_dim=d, arch=arch, width=width, depth=depth,
                   n_steps=n_steps)


def market_spec(d: int, arch: str = "ffnn", width: int = 64, depth: int = 1,
                n_steps: int | None = None) -> NetSpec:
    """Inputs (t/T, S, X) -> d drift entries plus d*d vol entries."""
    return NetSpec(in_dim=d + 2, out_dim=d + d * d, arch=arch, width=width,
                   depth=depth, n_steps=n_steps)


def market_head_bias(mu, vol) -> np.ndarray:
    """Output-head bias that makes a fresh market net emit (mu, vol) exactly."""
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    vol = np.atleast_2d(np.asarray(vol, dtype=np.float64))
    return np.concatenate([mu, vol.ravel()])


def state_input(t_norm: float, s, x):
    """Network input (t/T, S, X) as one (B, d+2) block; ``x`` is (B,) or a
    (B, 1) column."""
    b = raw(s).shape[0]
    t_col = np.full((b, 1), float(t_norm))
    if raw(x).ndim == 1:
        x = x.reshape((b, 1))
    return concat([t_col, s, x], axis=1)


def market_coefficients(out, d: int):
    """(mu (B, d), sigma (B, d, d)) from the market net's output: the drift
    in the first d columns, the volatility row-major after it."""
    return split_columns(out, [(d,), (d, d)])


# ----------------------------------------------------------------------
# optimization
# ----------------------------------------------------------------------
def adam_step(params: ParamSet, grads: dict[str, np.ndarray], lr: float) -> ParamSet:
    """Standard Adam with bias correction; updates in place."""
    b1, b2 = ADAM_BETAS
    params.step += 1
    t = params.step
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, g in grads.items():
        arr = params.arrays[name]
        if g.shape != arr.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m = params.m[name]
        v = params.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        arr -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params


def lr_schedule(epoch: int, base_lr: float = 5e-4, decay: float = 0.2,
                every: int = 100) -> float:
    """Step decay: base_lr * decay ** floor(epoch / every)."""
    return base_lr * decay ** (epoch // every)


# ----------------------------------------------------------------------
# checkpoints: npz payload (versioned) plus JSON metadata, each written to
# a temporary file and moved into place
# ----------------------------------------------------------------------
def save_checkpoint(path, gen: ParamSet, disc: ParamSet | None, meta: dict) -> None:
    payload = {"__version__": np.array(CHECKPOINT_VERSION)}

    def put(tag, ps):
        payload[f"{tag}~step"] = np.array(ps.step)
        for k in ps.names:
            payload[f"{tag}~p~{k}"] = ps.arrays[k]
            payload[f"{tag}~m~{k}"] = ps.m[k]
            payload[f"{tag}~v~{k}"] = ps.v[k]

    put("gen", gen)
    if disc is not None:
        put("disc", disc)
    # through a handle, so numpy does not append ".npz" to the temporary name;
    # the sidecar goes second, so it never names an epoch whose parameters
    # are not in place yet
    with atomic_write(path, "wb") as fh:
        np.savez(fh, **payload)
    with atomic_write(str(path) + ".json") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def load_checkpoint(path) -> tuple[ParamSet, ParamSet | None, dict]:
    data = np.load(path)
    if int(data["__version__"]) != CHECKPOINT_VERSION:
        raise ValueError("unsupported checkpoint version")

    def get(tag):
        names = sorted(k.split("~", 2)[2] for k in data.files
                       if k.startswith(f"{tag}~p~"))
        if not names:
            return None
        return ParamSet(arrays={k: data[f"{tag}~p~{k}"].copy() for k in names},
                        m={k: data[f"{tag}~m~{k}"].copy() for k in names},
                        v={k: data[f"{tag}~v~{k}"].copy() for k in names},
                        step=int(data[f"{tag}~step"]))

    try:
        with open(str(path) + ".json") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        meta = {}
    return get("gen"), get("disc"), meta


class NeuralPolicy:
    """Numpy-mode policy wrapper around a trained generator."""

    def __init__(self, spec: NetSpec, arrays: dict[str, np.ndarray], horizon: float):
        self.net = build_net(spec)
        self.arrays = arrays
        self.horizon = float(horizon)

    def reset(self, n_paths: int):
        return None  # rnn hidden state starts at zeros inside apply()

    def weights(self, n, t, s, x, state):
        return self.net.apply(self.arrays, n, state_input(t / self.horizon, s, x),
                              state)
