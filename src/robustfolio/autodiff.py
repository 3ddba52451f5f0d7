"""Reverse-mode automatic differentiation on numpy arrays.

Just enough primitives to push exact gradients through an unrolled trading
episode: affine maps, tanh, log/exp/pow, broadcasted Hadamard products,
reductions, slicing and concatenation, and ``dense``, a whole network layer
as one graph node.  Absolute value uses the subgradient 0 at 0;
indicator-style quantities must be computed from ``raw`` values and enter
the graph as constants.

Memory: a backward closure hands a gradient it computed for one parent
alone to ``_acc`` as owned, so the parent keeps that buffer instead of a
copy; views and aliases are copied.  ``Tensor.backward`` releases each
interior node's gradient once its closure has consumed it, so after the
sweep only leaves hold gradients.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    squeezed = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeezed:
        grad = grad.sum(axis=squeezed, keepdims=True)
    return grad


def _acc(t: "Tensor", grad: np.ndarray, owned: bool = False) -> None:
    """Add ``grad`` into ``t.grad``.  ``owned`` marks a buffer computed for
    this call alone, which the first accumulation keeps; anything else may
    alias a child's gradient or be a broadcast view, and is copied."""
    if t.grad is None:
        t.grad = grad if owned else np.array(grad)
    else:
        t.grad += grad


def _basic_index(idx) -> bool:
    """True when ``idx`` selects a view (no integer-array or mask parts)."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, (slice, int, np.integer))
               for p in parts)


class Tensor:
    """A float64 numpy array plus gradient slot, recording the op graph."""

    __slots__ = ("data", "grad", "_parents", "_bk")

    # keep numpy from consuming `ndarray op Tensor`; Python then falls back
    # to the reflected Tensor operator
    __array_ufunc__ = None

    def __init__(self, data, parents=(), bk=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._bk = bk

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # ------------------------------------------------------------------
    # graph traversal
    # ------------------------------------------------------------------
    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar loss")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._bk is not None and node.grad is not None:
                node._bk(node.grad)
                node.grad = None  # consumed; leaves (no closure) keep theirs

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data + other.data, (self, other))

            def bk(g, a=self, b=other):
                _acc(a, _unbroadcast(g, a.data.shape))
                _acc(b, _unbroadcast(g, b.data.shape))

        else:
            out = Tensor(self.data + np.asarray(other, dtype=np.float64), (self,))

            def bk(g, a=self):
                _acc(a, _unbroadcast(g, a.data.shape))

        out._bk = bk
        return out

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data * other.data, (self, other))

            def bk(g, a=self, b=other):
                _acc(a, _unbroadcast(g * b.data, a.data.shape), True)
                _acc(b, _unbroadcast(g * a.data, b.data.shape), True)

        else:
            const = np.asarray(other, dtype=np.float64)
            out = Tensor(self.data * const, (self,))

            def bk(g, a=self, c=const):
                _acc(a, _unbroadcast(g * c, a.data.shape), True)

        out._bk = bk
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return self + (-other)
        return self + (-np.asarray(other, dtype=np.float64))

    def __rsub__(self, other):
        return (-self) + np.asarray(other, dtype=np.float64)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data / other.data, (self, other))

            def bk(g, a=self, b=other):
                _acc(a, _unbroadcast(g / b.data, a.data.shape), True)
                _acc(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
                     True)

        else:
            const = np.asarray(other, dtype=np.float64)
            out = Tensor(self.data / const, (self,))

            def bk(g, a=self, c=const):
                _acc(a, _unbroadcast(g / c, a.data.shape), True)

        out._bk = bk
        return out

    def __rtruediv__(self, other):
        const = np.asarray(other, dtype=np.float64)
        out = Tensor(const / self.data, (self,))

        def bk(g, a=self, c=const):
            _acc(a, _unbroadcast(-g * c / (a.data * a.data), a.data.shape), True)

        out._bk = bk
        return out

    def __pow__(self, p):
        p = float(p)
        out = Tensor(self.data ** p, (self,))

        def bk(g, a=self):
            _acc(a, g * p * a.data ** (p - 1.0), True)

        out._bk = bk
        return out

    def __matmul__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data @ other.data, (self, other))

            def bk(g, a=self, b=other):
                _acc(a, g @ b.data.T, True)
                _acc(b, a.data.T @ g, True)

        else:
            const = np.asarray(other, dtype=np.float64)
            out = Tensor(self.data @ const, (self,))

            def bk(g, a=self, c=const):
                _acc(a, g @ c.T, True)

        out._bk = bk
        return out

    def __rmatmul__(self, other):
        const = np.asarray(other, dtype=np.float64)
        out = Tensor(const @ self.data, (self,))

        def bk(g, b=self, c=const):
            _acc(b, c.T @ g, True)

        out._bk = bk
        return out

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def log(self):
        out = Tensor(np.log(self.data), (self,))

        def bk(g, a=self):
            _acc(a, g / a.data, True)

        out._bk = bk
        return out

    def exp(self):
        e = np.exp(self.data)
        out = Tensor(e, (self,))

        def bk(g, a=self, e=e):
            _acc(a, g * e, True)

        out._bk = bk
        return out

    def tanh(self):
        th = np.tanh(self.data)
        out = Tensor(th, (self,))

        def bk(g, a=self, th=th):
            _acc(a, g * (1.0 - th * th), True)

        out._bk = bk
        return out

    def abs(self):
        # subgradient 0 at the kink
        out = Tensor(np.abs(self.data), (self,))

        def bk(g, a=self):
            _acc(a, g * np.sign(a.data), True)

        out._bk = bk
        return out

    def clip_floor(self, floor: float):
        """max(x, floor); gradient is zero where the floor binds."""
        mask = self.data > floor
        out = Tensor(np.maximum(self.data, floor), (self,))

        def bk(g, a=self, mask=mask):
            _acc(a, g * mask, True)

        out._bk = bk
        return out

    # ------------------------------------------------------------------
    # shape ops and reductions
    # ------------------------------------------------------------------
    def reshape(self, shape):
        orig = self.data.shape
        out = Tensor(self.data.reshape(shape), (self,))

        def bk(g, a=self, orig=orig):
            _acc(a, g.reshape(orig))

        out._bk = bk
        return out

    def __getitem__(self, idx):
        out = Tensor(self.data[idx], (self,))

        def bk(g, a=self, idx=idx, basic=_basic_index(idx)):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            if basic:
                a.grad[idx] += g
            else:  # repeated integer indices must each add their share
                np.add.at(a.grad, idx, g)

        out._bk = bk
        return out

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        shape = self.data.shape

        def bk(g, a=self, axis=axis, keepdims=keepdims, shape=shape):
            gg = g
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(x % len(shape) for x in axes):
                    gg = np.expand_dims(gg, ax)
            _acc(a, np.broadcast_to(gg, shape))

        out._bk = bk
        return out

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def concat(parts, axis=0):
    """Concatenate Tensors/arrays; returns a Tensor iff any part is one."""
    if not any(isinstance(p, Tensor) for p in parts):
        return np.concatenate(parts, axis=axis)
    tens = [p if isinstance(p, Tensor) else Tensor(p) for p in parts]
    out = Tensor(np.concatenate([t.data for t in tens], axis=axis), tuple(tens))
    sizes = [t.data.shape[axis] for t in tens]

    def bk(g, tens=tens, sizes=sizes, axis=axis):
        off = 0
        for t, n in zip(tens, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(off, off + n)
            _acc(t, g[tuple(sl)])
            off += n

    out._bk = bk
    return out


def dense(x, W, b, act: bool = True):
    """One network layer, ``tanh(x @ W + b)`` (``x @ W + b`` without
    ``act``), as a single graph node.

    The forward pass computes ``x @ W``, adds ``b`` and applies tanh in place,
    the same operations in the same order as the three generic ops, so values
    and gradients match them bit for bit.  Any operand may be a plain array:
    only Tensor operands enter the graph and get gradients, so a frozen
    network's weights cost no ``x.T @ g`` products.  Returns an array when
    no operand is a Tensor.
    """
    z = raw(x) @ raw(W)
    z += raw(b)
    if act:
        np.tanh(z, out=z)
    parents = tuple(p for p in (x, W, b) if isinstance(p, Tensor))
    if not parents:
        return z
    out = Tensor(z, parents)

    def bk(g, x=x, W=W, b=b, h=z):
        if act:
            d = h * h  # tanh' = 1 - h^2, formed in one buffer
            np.subtract(1.0, d, out=d)
            d *= g
        else:
            d = g
        if isinstance(b, Tensor):
            _acc(b, d.sum(axis=0), True)
        if isinstance(x, Tensor):
            _acc(x, d @ raw(W).T, True)
        if isinstance(W, Tensor):
            _acc(W, raw(x).T @ d, True)

    out._bk = bk
    return out


# ----------------------------------------------------------------------
# type-dispatching helpers so forward code runs on Tensors or plain arrays
# ----------------------------------------------------------------------
def raw(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def log(x):
    return x.log() if isinstance(x, Tensor) else np.log(x)


def exp(x):
    return x.exp() if isinstance(x, Tensor) else np.exp(x)


def absolute(x):
    return x.abs() if isinstance(x, Tensor) else np.abs(x)


def clip_floor(x, floor: float):
    return x.clip_floor(floor) if isinstance(x, Tensor) else np.maximum(x, floor)


def reshape(x, shape):
    return x.reshape(shape) if isinstance(x, Tensor) else np.reshape(x, shape)


def tsum(x, axis=None, keepdims=False):
    if isinstance(x, Tensor):
        return x.sum(axis=axis, keepdims=keepdims)
    return np.sum(x, axis=axis, keepdims=keepdims)


def tmean(x, axis=None, keepdims=False):
    if isinstance(x, Tensor):
        return x.mean(axis=axis, keepdims=keepdims)
    return np.mean(x, axis=axis, keepdims=keepdims)


def as_col(x):
    """View a length-B vector as a (B, 1) column."""
    n = raw(x).shape[0]
    return reshape(x, (n, 1))


def numeric_grad(f, arrays: dict[str, np.ndarray], h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar function of named arrays."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            fp = f(arrays)
            flat[i] = keep - h
            fm = f(arrays)
            flat[i] = keep
            gflat[i] = (fp - fm) / (2.0 * h)
        grads[name] = g
    return grads
