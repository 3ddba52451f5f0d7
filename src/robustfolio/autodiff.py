"""Reverse-mode automatic differentiation on numpy arrays.

Just enough primitives to push exact gradients through an unrolled trading
episode: affine maps, tanh, log/exp/pow, broadcasted Hadamard products,
reductions, slicing, concatenation and stacking, and three fused nodes with
hand-written adjoints: ``dense`` (a whole network layer), ``split_columns``
(the blocks of a network output) and ``euler_wealth_step`` (one Euler step
of the prices and of the friction wealth recursion).  Absolute value uses
the subgradient 0 at 0; indicator-style quantities must be computed from
``raw`` values and enter the graph as constants.

Memory: a backward closure hands a gradient it computed for one parent
alone to ``_acc`` as owned, so the parent keeps that buffer instead of a
copy; views and aliases are copied.  ``Tensor.backward`` releases each
interior node's gradient once its closure has consumed it, so after the
sweep only leaves hold gradients.
"""

from __future__ import annotations

import numpy as np

from .market import PRICE_FLOOR
from .portfolio import step_wealth, sum_columns


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
    """Concatenate Tensors/arrays; returns a Tensor iff any part is one.

    Plain-array parts are constants: they are not wrapped as leaves and get
    no gradient.
    """
    datas = [raw(p) for p in parts]
    data = np.concatenate(datas, axis=axis)
    tens = []
    off = 0
    for p, a in zip(parts, datas):
        n = a.shape[axis]
        if isinstance(p, Tensor):
            tens.append((p, off, n))
        off += n
    if not tens:
        return data
    out = Tensor(data, tuple(t for t, _, _ in tens))

    def bk(g, tens=tens, axis=axis):
        sl = [slice(None)] * g.ndim
        for t, off, n in tens:
            sl[axis] = slice(off, off + n)
            _acc(t, g[tuple(sl)])

    out._bk = bk
    return out


def stack(parts, axis=1):
    """``np.stack`` of Tensors/arrays as one node; a Tensor iff any part is
    one.  Used to collect per-step rows (prices, coefficients) into paths."""
    data = np.stack([raw(p) for p in parts], axis=axis)
    tens = [(k, p) for k, p in enumerate(parts) if isinstance(p, Tensor)]
    if not tens:
        return data
    out = Tensor(data, tuple(p for _, p in tens))

    def bk(g, tens=tens, axis=axis):
        sl = [slice(None)] * g.ndim
        for k, t in tens:
            sl[axis] = k
            _acc(t, g[tuple(sl)])

    out._bk = bk
    return out


def split_columns(x, shapes):
    """Split the columns of a (B, k) Tensor or array into consecutive blocks
    of the given trailing shapes, e.g. ``[(d,), (d, d)]`` for the market
    net's drift and volatility.  Each block is a view; for a Tensor it is one
    node, whose gradient goes into its columns of ``x``'s gradient."""
    data = raw(x)
    b = data.shape[0]
    blocks = []
    off = 0
    for shape in shapes:
        size = int(np.prod(shape))
        view = data[:, off:off + size].reshape((b, *shape))
        if isinstance(x, Tensor):
            view = Tensor(view, (x,))

            def bk(g, a=x, cols=slice(off, off + size), size=size):
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                a.grad[:, cols] += g.reshape(-1, size)

            view._bk = bk
        blocks.append(view)
        off += size
    return blocks


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


def euler_wealth_step(s, x, pi, h_prev, mu, sigma, dw_n, dt_n, rate, costs):
    """One Euler step of the prices and one step of the friction wealth
    recursion, with a hand-written adjoint.

    Shapes: ``s``, ``pi``, ``h_prev`` and ``dw_n`` (B, d); wealth ``x`` (B,)
    or (B, 1); ``mu`` (B, d) or (d,); ``sigma`` (B, d, d) or (d, d).  The
    forward pass is the generic composition's arithmetic in its order:

        ds     = s * mu * dt_n + sum_j (s[:, :, None] * sigma * dw_n[:, None, :])
        x', h  = portfolio.step_wealth(x, pi, h_prev, s, ds, rate, dt_n, costs)
        s'     = max(s + ds, PRICE_FLOOR)

    Returns ``(s_next, x_next, h)``, with ``x_next`` in ``x``'s shape.  If
    any input is a Tensor, the holdings ``h`` are the core node: its
    parents are the Tensor inputs, and its closure forms the adjoints of all
    of them.  ``s_next`` and ``x_next`` are thin nodes on top of it whose
    closures only hand their gradients to the core, so the engine's reverse
    topological order runs the core after both: a step is three nodes.  At
    the non-smooth points it behaves like the composition: the base-cost
    indicator is a constant, |.| has subgradient 0 at 0, and the gradient
    is zero where the price floor binds.
    """
    sv, xv, piv, hpv = raw(s), raw(x), raw(pi), raw(h_prev)
    muv, sigv = raw(mu), raw(sigma)
    x_flat = xv.reshape(-1)
    drift = sv * muv * dt_n
    sdw = sv[:, :, None] * sigv * dw_n[:, None, :]
    ds = drift + sum_columns(sdw)
    x_next, h, traded, _ = step_wealth(x_flat, piv, hpv, sv, ds, rate, dt_n, costs)
    s_raw = sv + ds
    s_next = np.maximum(s_raw, PRICE_FLOOR)
    x_next = x_next.reshape(xv.shape)
    parents = tuple(p for p in (s, x, pi, h_prev, mu, sigma) if isinstance(p, Tensor))
    if not parents:
        return s_next, x_next, h
    core = Tensor(h, parents)
    out_grads = {}  # gradients of s_next and x_next, handed over by their nodes

    def thin(data, key):
        node = Tensor(data, (core,))

        def bk(g):
            out_grads[key] = g
            if core.grad is None:  # the holdings are not used downstream
                core.grad = np.zeros_like(h)

        node._bk = bk
        return node

    def bk(g_h):
        # g_h is the core's own buffer: the adjoint of h accumulates into it
        g_sn = out_grads.pop("s", None)
        g_xn = out_grads.pop("x", None)
        # s' = max(s + ds, floor)
        if g_sn is None:
            g_s = np.zeros_like(sv)
        else:
            g_s = g_sn * (s_raw > PRICE_FLOOR)
        g_ds = g_s.copy()
        g_x = None
        if g_xn is not None:  # x' = x + h.ds + (1 - sum pi) x r dt - cost
            g_x = g_xn.reshape(-1)
            g_col = g_x[:, None]
            g_h += g_col * ds
            g_ds += g_col * h
            g_bank = g_x * (rate * dt_n)
            g_x = g_x + g_bank * (1.0 - sum_columns(piv))
            if not costs.frictionless:
                # cost = (1 + r dt) sum_i (|h - h_prev| s c_prop + c_base 1{...})
                g_abs = g_col * (-(1.0 + rate * dt_n) * costs.c_prop)
                g_s += g_abs * traded
                g_abs = g_abs * sv
                g_abs *= np.sign(h - hpv)
                g_h += g_abs
                if isinstance(h_prev, Tensor):
                    _acc(h_prev, np.negative(g_abs), True)
        # h = x pi / s
        g_xpi = g_h / sv
        g_h *= h
        g_h /= sv
        g_s -= g_h
        g_pi = g_xpi * x_flat[:, None]
        if g_x is None:
            g_x = np.zeros_like(x_flat)
        else:
            g_pi -= (g_bank * x_flat)[:, None]
        g_x += sum_columns(g_xpi * piv)
        # ds = s mu dt + sum_j s sigma dw
        g_sdt = g_ds * dt_n
        g_s += g_sdt * muv
        g_s += g_ds * sum_columns(sigv * dw_n[:, None, :])
        if isinstance(mu, Tensor):
            _acc(mu, _unbroadcast(g_sdt * sv, muv.shape), True)
        if isinstance(sigma, Tensor):
            g_sig = g_ds[:, :, None] * dw_n[:, None, :]
            g_sig *= sv[:, :, None]
            _acc(sigma, _unbroadcast(g_sig, sigv.shape), True)
        if isinstance(s, Tensor):
            _acc(s, g_s, True)
        if isinstance(x, Tensor):
            _acc(x, g_x.reshape(xv.shape), True)
        if isinstance(pi, Tensor):
            _acc(pi, g_pi, True)

    core._bk = bk
    return thin(s_next, "s"), thin(x_next, "x"), core


# ----------------------------------------------------------------------
# forward code runs on Tensors or plain arrays: the two share ``reshape``,
# ``sum`` and ``mean``, and ``raw`` reads the values of either
# ----------------------------------------------------------------------
def raw(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


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
