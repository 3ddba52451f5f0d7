"""Policy and market networks, Adam, and checkpointing.

Three architectures: a feed-forward net shared across time steps, a
single-layer recurrent net with a carried hidden state, and a time-grid
net with independent parameters per step.  Hidden activations are tanh,
outputs are linear.  The forward pass is written against the autodiff
dispatch helpers, so the same code runs on Tensors (training) and on
plain arrays (evaluation, and the frozen network of a training step).
Feed-forward and time-grid layers are single ``dense`` graph nodes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .atomic import atomic_write
from .autodiff import Tensor, as_col, concat, dense, raw, reshape

ARCHS = ("ffnn", "rnn", "time_grid")
CHECKPOINT_VERSION = 1


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

    def copy(self) -> "ParamSet":
        return ParamSet(arrays={k: v.copy() for k, v in self.arrays.items()},
                        m={k: v.copy() for k, v in self.m.items()},
                        v={k: v.copy() for k, v in self.v.items()},
                        step=self.step)

    def flat(self) -> np.ndarray:
        return np.concatenate([self.arrays[k].ravel() for k in self.names])


def _uniform_init(rng, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _layer_sizes(spec: NetSpec) -> list[tuple[int, int]]:
    dims = [spec.in_dim] + [spec.width] * spec.depth + [spec.out_dim]
    return list(zip(dims[:-1], dims[1:]))


class _Net:
    def __init__(self, spec: NetSpec):
        self.spec = spec

    def init(self, rng, head_bias=None, zero_head: bool = False) -> ParamSet:
        raise NotImplementedError

    def apply(self, params, n, inp, hidden):
        raise NotImplementedError


class FeedForward(_Net):
    def init(self, rng, head_bias=None, zero_head=False) -> ParamSet:
        arrays = {}
        sizes = _layer_sizes(self.spec)
        last = len(sizes) - 1
        for i, (fin, fout) in enumerate(sizes):
            name = "out" if i == last else f"h{i}"
            arrays[f"{name}.W"] = _uniform_init(rng, fin, (fin, fout))
            arrays[f"{name}.b"] = _uniform_init(rng, fin, (fout,))
        _apply_head_init(arrays, "out", head_bias, zero_head)
        return ParamSet(arrays=arrays)

    def apply(self, params, n, inp, hidden):
        h = inp
        for i in range(self.spec.depth):
            h = dense(h, params[f"h{i}.W"], params[f"h{i}.b"])
        return dense(h, params["out.W"], params["out.b"], act=False), hidden


class Recurrent(_Net):
    def init(self, rng, head_bias=None, zero_head=False) -> ParamSet:
        spec = self.spec
        arrays = {
            "rnn.Wx": _uniform_init(rng, spec.in_dim, (spec.in_dim, spec.width)),
            "rnn.Wh": _uniform_init(rng, spec.width, (spec.width, spec.width)),
            "rnn.b": _uniform_init(rng, spec.in_dim, (spec.width,)),
            "out.W": _uniform_init(rng, spec.width, (spec.width, spec.out_dim)),
            "out.b": _uniform_init(rng, spec.width, (spec.out_dim,)),
        }
        _apply_head_init(arrays, "out", head_bias, zero_head)
        return ParamSet(arrays=arrays)

    def apply(self, params, n, inp, hidden):
        if hidden is None:
            hidden = np.zeros((raw(inp).shape[0], self.spec.width))
        # generic ops: the sum order (inp Wx + hidden Wh) + b is not dense's
        pre = inp @ params["rnn.Wx"] + hidden @ params["rnn.Wh"] + params["rnn.b"]
        h = pre.tanh() if isinstance(pre, Tensor) else np.tanh(pre)
        return dense(h, params["out.W"], params["out.b"], act=False), h


class TimeGridNet(_Net):
    "Independent feed-forward parameters for every time step."

    def init(self, rng, head_bias=None, zero_head=False) -> ParamSet:
        arrays = {}
        sizes = _layer_sizes(self.spec)
        last = len(sizes) - 1
        for n in range(self.spec.n_steps):
            for i, (fin, fout) in enumerate(sizes):
                name = "out" if i == last else f"h{i}"
                arrays[f"s{n}.{name}.W"] = _uniform_init(rng, fin, (fin, fout))
                arrays[f"s{n}.{name}.b"] = _uniform_init(rng, fin, (fout,))
            _apply_head_init(arrays, f"s{n}.out", head_bias, zero_head)
        return ParamSet(arrays=arrays)

    def apply(self, params, n, inp, hidden):
        h = inp
        for i in range(self.spec.depth):
            h = dense(h, params[f"s{n}.h{i}.W"], params[f"s{n}.h{i}.b"])
        return dense(h, params[f"s{n}.out.W"], params[f"s{n}.out.b"],
                     act=False), hidden


def _apply_head_init(arrays, prefix, head_bias, zero_head):
    if zero_head or head_bias is not None:
        arrays[f"{prefix}.W"] = np.zeros_like(arrays[f"{prefix}.W"])
        arrays[f"{prefix}.b"] = np.zeros_like(arrays[f"{prefix}.b"])
    if head_bias is not None:
        arrays[f"{prefix}.b"] = np.asarray(head_bias, dtype=np.float64).copy()


def build_net(spec: NetSpec) -> _Net:
    return {"ffnn": FeedForward, "rnn": Recurrent, "time_grid": TimeGridNet}[spec.arch](spec)


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


def _state_input(t_norm: float, s, x):
    b = raw(s).shape[0]
    t_col = np.full((b, 1), float(t_norm))
    return concat([t_col, s, as_col(x)], axis=1)


def forward_policy(net: _Net, params, n: int, t_norm: float, s, x, hidden):
    """Portfolio weights from observable state; returns (pi (B, d), hidden')."""
    out, hidden = net.apply(params, n, _state_input(t_norm, s, x), hidden)
    return out, hidden


def forward_market(net: _Net, params, n: int, t_norm: float, s, x, hidden):
    """Relative market coefficients from observable state.

    Returns (mu (B, d), sigma (B, d, d), hidden'); the price scaling
    (Hadamard with S) happens in the simulation step, not here.
    """
    out, hidden = net.apply(params, n, _state_input(t_norm, s, x), hidden)
    d = (raw(s)).shape[1]
    b = raw(out).shape[0]
    mu = out[:, :d]
    sigma = reshape(out[:, d:], (b, d, d))
    return mu, sigma, hidden


def unpack_market_output(flat: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a (d + d*d) output row into drift and vol blocks."""
    flat = np.asarray(flat, dtype=np.float64)
    return flat[:d], flat[d:].reshape(d, d)


# ----------------------------------------------------------------------
# optimization
# ----------------------------------------------------------------------
def adam_step(params: ParamSet, grads: dict[str, np.ndarray], lr: float,
              betas: tuple[float, float] = (0.9, 0.999),
              eps: float = 1e-8) -> ParamSet:
    """Standard Adam with bias correction; updates in place."""
    b1, b2 = betas
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
        arr -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
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
        pi, state = forward_policy(self.net, self.arrays, n, t / self.horizon,
                                   s, x, state)
        return pi, state


def spec_to_dict(spec: NetSpec) -> dict:
    return asdict(spec)


def spec_from_dict(d: dict) -> NetSpec:
    return NetSpec(**d)
