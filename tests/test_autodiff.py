import numpy as np
import pytest

from robustfolio.autodiff import (Tensor, as_col, concat, dense, numeric_grad,
                                  raw, tmean, tsum)


def _check_grads(f, arrays, built, rel_tol=1e-6):
    """Backprop vs central differences on every entry of every array."""
    loss = built(arrays)
    loss["loss"].backward()
    ng = numeric_grad(lambda a: float(raw(built(a)["loss"])), arrays)
    for name, tensor in loss.items():
        if name == "loss":
            continue
        fd = ng[name]
        bp = tensor.grad if tensor.grad is not None else np.zeros_like(fd)
        scale = np.maximum(np.maximum(np.abs(fd), np.abs(bp)), 1e-6)
        assert np.max(np.abs(bp - fd) / scale) < rel_tol, name


def test_square_at_three():
    th = Tensor(3.0)
    (th * th).backward()
    assert th.grad == 6.0


def test_backward_requires_scalar():
    t = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        t.backward()


def test_arithmetic_and_broadcasting():
    rng = np.random.default_rng(0)
    arrays = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(3,)),
              "c": rng.normal(size=(4, 1))}

    def built(arrs):
        a, b, c = Tensor(arrs["a"]), Tensor(arrs["b"]), Tensor(arrs["c"])
        y = (a * b - c) / (2.0 + b * b)
        z = 1.0 - y + y * 3.0
        loss = (z * z).mean()
        return {"loss": loss, "a": a, "b": b, "c": c}

    _check_grads(lambda a: None or built(a), arrays, built)


def test_matmul_against_finite_differences():
    rng = np.random.default_rng(1)
    arrays = {"w": rng.normal(size=(3, 5)), "v": rng.normal(size=(5, 2))}
    x = rng.normal(size=(7, 3))

    def built(arrs):
        w, v = Tensor(arrs["w"]), Tensor(arrs["v"])
        loss = ((x @ w) @ v).sum()
        return {"loss": loss, "w": w, "v": v}

    _check_grads(built, arrays, built)


def test_nonlinearities():
    rng = np.random.default_rng(2)
    arrays = {"a": rng.uniform(0.5, 2.0, size=(6, 2))}

    def built(arrs):
        a = Tensor(arrs["a"])
        loss = (a.log() + a.exp() * 0.01 + a.tanh() + a ** 1.7).sum()
        return {"loss": loss, "a": a}

    _check_grads(built, arrays, built)


def test_abs_subgradient_zero_at_kink():
    t = Tensor(np.array([0.0, -2.0, 3.0]))
    t.abs().sum().backward()
    assert np.array_equal(t.grad, [0.0, -1.0, 1.0])


def test_clip_floor_blocks_gradient_below():
    t = Tensor(np.array([0.5, 2.0]))
    (t.clip_floor(1.0) * 3.0).sum().backward()
    assert np.array_equal(t.grad, [0.0, 3.0])
    assert np.array_equal(raw(t.clip_floor(1.0)), [1.0, 2.0])


def test_getitem_and_reshape():
    rng = np.random.default_rng(3)
    arrays = {"a": rng.normal(size=(4, 6))}

    def built(arrs):
        a = Tensor(arrs["a"])
        part = a[:, 1:4].reshape((2, 6))
        loss = (part * part).sum() + a[0, 0] * 2.0
        return {"loss": loss, "a": a}

    _check_grads(built, arrays, built)


def test_getitem_repeated_indices_accumulate():
    a = Tensor(np.array([1.0, 2.0, 3.0]))
    a[[0, 0, 2]].sum().backward()
    assert np.array_equal(a.grad, [2.0, 0.0, 1.0])

    b = Tensor(np.arange(6.0).reshape(3, 2))
    rows = np.array([2, 0, 2, 2])
    (b[rows, 1] * np.array([1.0, 2.0, 3.0, 4.0])).sum().backward()
    assert np.array_equal(b.grad, [[0.0, 2.0], [0.0, 0.0], [0.0, 8.0]])


def test_getitem_basic_slices_and_masks():
    c = Tensor(np.arange(4.0))
    (c[1:3].sum() + c[np.array([True, False, False, True])].sum() * 2.0
     + c[..., 3] * 5.0).backward()
    assert np.array_equal(c.grad, [2.0, 1.0, 1.0, 7.0])


def test_concat_splits_gradient():
    rng = np.random.default_rng(4)
    arrays = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(3, 4))}

    def built(arrs):
        a, b = Tensor(arrs["a"]), Tensor(arrs["b"])
        z = concat([a, b, np.ones((3, 1))], axis=1)
        loss = (z * z).sum(axis=0).sum()
        return {"loss": loss, "a": a, "b": b}

    _check_grads(built, arrays, built)


def test_concat_of_plain_arrays_stays_numpy():
    out = concat([np.ones((2, 1)), np.zeros((2, 2))], axis=1)
    assert isinstance(out, np.ndarray)
    assert out.shape == (2, 3)


def test_reductions_with_axes():
    rng = np.random.default_rng(5)
    arrays = {"a": rng.normal(size=(3, 4, 2))}

    def built(arrs):
        a = Tensor(arrs["a"])
        loss = (a.sum(axis=(1, 2)) ** 2).mean() + a.mean(axis=0).sum() \
            + tsum(a * a, axis=2, keepdims=True).mean()
        return {"loss": loss, "a": a}

    _check_grads(built, arrays, built)


def test_reused_node_accumulates():
    x = Tensor(np.array([2.0]))
    y = x * x + x * 3.0  # x appears three times
    y.sum().backward()
    assert np.allclose(x.grad, 2 * 2.0 + 3.0)


def test_numpy_does_not_capture_tensor_ops():
    # ndarray op Tensor must fall back to the Tensor reflected operator
    t = Tensor(np.ones((2, 2)))
    out = np.full((2, 2), 3.0) * t
    assert isinstance(out, Tensor)
    out2 = np.full((2, 2), 1.0) - t
    assert isinstance(out2, Tensor)
    assert np.array_equal(raw(out2), np.zeros((2, 2)))


def test_dispatch_helpers_on_arrays():
    x = np.array([1.0, 2.0, 3.0])
    assert tmean(x) == 2.0
    assert tsum(x) == 6.0
    assert as_col(x).shape == (3, 1)


def _unfused(x, W, b, act):
    y = x @ W + b
    if not act:
        return y
    return y.tanh() if isinstance(y, Tensor) else np.tanh(y)


@pytest.mark.parametrize("act", [True, False])
@pytest.mark.parametrize("tensor_mask", [(1, 1, 1), (1, 0, 0), (0, 1, 1),
                                         (1, 1, 0), (0, 0, 1), (0, 0, 0)])
def test_dense_matches_unfused_composition_bit_for_bit(act, tensor_mask):
    rng = np.random.default_rng(6)
    arrays = [rng.normal(size=(9, 5)), rng.normal(size=(5, 4)) * 0.7,
              rng.normal(size=(4,))]
    weight = rng.normal(size=(9, 4))

    def run(layer):
        ops = [Tensor(a) if m else a for a, m in zip(arrays, tensor_mask)]
        out = layer(*ops, act)
        if isinstance(out, Tensor):
            (out * weight).sum().backward()
        return out, [op.grad for op in ops if isinstance(op, Tensor)]

    out, grads = run(dense)
    ref_out, ref_grads = run(_unfused)
    assert isinstance(out, Tensor) == (sum(tensor_mask) > 0)
    value, ref_value = raw(out), raw(ref_out)
    assert value.tobytes() == ref_value.tobytes()
    assert len(grads) == len(ref_grads) == sum(tensor_mask)
    for g, ref in zip(grads, ref_grads):
        assert g.tobytes() == ref.tobytes()


def test_dense_against_finite_differences():
    rng = np.random.default_rng(7)
    arrays = {"x": rng.normal(size=(6, 3)), "w": rng.normal(size=(3, 4)),
              "b": rng.normal(size=(4,)), "v": rng.normal(size=(4, 2))}

    def built(arrs):
        x, w, b, v = (Tensor(arrs[k]) for k in ("x", "w", "b", "v"))
        out = dense(dense(x, w, b), v, np.ones(2), act=False)
        return {"loss": (out * out).sum(), "x": x, "w": w, "b": b, "v": v}

    _check_grads(built, arrays, built)


def test_backward_releases_interior_gradients():
    x = Tensor(np.array([[0.5, -1.0], [2.0, 0.3]]))
    w = Tensor(np.array([[1.0, 0.2], [-0.4, 0.7]]))
    h = dense(x, w, np.zeros(2))
    y = h * h + h[:, :1] * 3.0
    loss = y.sum()
    loss.backward()
    for leaf in (x, w):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape
    for node in (h, y, loss):
        assert node.grad is None
