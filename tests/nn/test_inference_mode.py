"""Property tests for ``no_grad`` inference over every autodiff op.

Under ``no_grad`` an op's output is a bare leaf: same float32 values as
in grad mode, no parents and no backward closure.  Grad mode is
unchanged: backward-only state (inverse permutations, reduction counts,
max masks, signs, clip masks) is now computed inside the backward
closures, and the ``REFERENCE_GRADS`` below are the eager formulas it
replaced, which the gradients must still match bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, no_grad
from repro.nn import functional as F

SHAPE = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


def _positive(a):
    return np.abs(a) + np.float32(0.5)


def _broadcast_partner(draw, shape):
    """A shape that broadcasts against ``shape`` (trailing dims, some 1s)."""
    keep = draw(st.integers(1, len(shape)))
    return tuple(d if draw(st.booleans()) else 1 for d in shape[-keep:])


def _axis_args(draw, ndim):
    axis = draw(st.one_of(
        st.none(), st.integers(-ndim, ndim - 1),
        st.lists(st.integers(0, ndim - 1), min_size=1, max_size=ndim,
                 unique=True).map(tuple)))
    return {"axis": axis, "keepdims": draw(st.booleans())}


# Each case draws input shapes and parameters and returns
# (input arrays, op on Tensors, params for the reference gradient).
def case_binary(draw, rng, op):
    shape = draw(SHAPE)
    a = rng.normal(size=shape).astype(np.float32)
    b = rng.normal(size=_broadcast_partner(draw, shape)).astype(np.float32)
    if draw(st.booleans()):
        a, b = b, a
    if op == "truediv":
        b = _positive(b)
    fn = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
          "mul": lambda x, y: x * y, "truediv": lambda x, y: x / y}[op]
    return [a, b], fn, {}


def case_scalar(draw, rng, op):
    a = rng.normal(size=draw(SHAPE)).astype(np.float32)
    c = draw(st.floats(-3.0, 3.0, allow_nan=False, width=32))
    fn = {"radd": lambda x: c + x, "rsub": lambda x: c - x,
          "rmul": lambda x: c * x,
          "rtruediv": lambda x: 1.5 / (x * x + 1.0)}[op]
    return [a], fn, {}


def case_matmul(draw, rng, _):
    batch = draw(st.lists(st.integers(1, 3), max_size=1).map(tuple))
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    a = rng.normal(size=batch + (m, k)).astype(np.float32)
    b = rng.normal(size=(k, n)).astype(np.float32)
    return [a, b], lambda x, y: x @ y, {}


def case_unary(draw, rng, op):
    a = rng.normal(size=draw(SHAPE)).astype(np.float32)
    if op in ("log", "sqrt", "pow"):
        a = _positive(a)
    exponent = draw(st.sampled_from([2.0, 0.5, 3.0]))
    fn = {"neg": lambda x: -x, "exp": Tensor.exp, "log": Tensor.log,
          "sqrt": Tensor.sqrt, "tanh": Tensor.tanh,
          "sigmoid": Tensor.sigmoid, "relu": Tensor.relu,
          "abs": Tensor.abs, "pow": lambda x: x ** exponent,
          "gelu": F.gelu}[op]
    return [a], fn, {}


def case_reshape(draw, rng, _):
    shape = draw(SHAPE)
    a = rng.normal(size=shape).astype(np.float32)
    target = draw(st.sampled_from([(-1,), (shape[0], -1), (-1, 1)]))
    return [a], lambda x: x.reshape(*target), {}


def case_transpose(draw, rng, _):
    shape = draw(SHAPE)
    a = rng.normal(size=shape).astype(np.float32)
    axes = tuple(draw(st.permutations(range(len(shape)))))
    return [a], lambda x: x.transpose(*axes), {"axes": axes}


def case_swapaxes(draw, rng, _):
    shape = draw(SHAPE)
    a = rng.normal(size=shape).astype(np.float32)
    i, j = (draw(st.integers(0, len(shape) - 1)) for _ in range(2))
    return [a], lambda x: x.swapaxes(i, j), {}


def case_getitem(draw, rng, _):
    shape = draw(SHAPE)
    a = rng.normal(size=shape).astype(np.float32)
    # repeated integer indices exercise the scatter-add backward
    index = np.asarray(draw(st.lists(st.integers(0, shape[0] - 1),
                                     min_size=1, max_size=5)))
    return [a], lambda x: x[index], {"index": index}


def case_reduce(draw, rng, op):
    shape = draw(SHAPE)
    a = rng.normal(size=shape).astype(np.float32)
    if op == "max" and draw(st.booleans()):
        a = np.round(a)  # ties: the gradient splits across the maxima
    kw = _axis_args(draw, len(shape))
    return [a], lambda x: getattr(x, op)(**kw), kw


def case_clip(draw, rng, _):
    a = rng.normal(size=draw(SHAPE)).astype(np.float32)
    lo = draw(st.floats(-1.0, 0.0, width=32))
    hi = draw(st.floats(0.0, 1.0, width=32))
    return [a], lambda x: x.clip_values(lo, hi), {"lo": lo, "hi": hi}


def case_softmax(draw, rng, op):
    a = rng.normal(size=draw(SHAPE)).astype(np.float32)
    fn = F.softmax if op == "softmax" else F.log_softmax
    return [a], fn, {}


def case_masked_fill(draw, rng, _):
    a = rng.normal(size=draw(SHAPE)).astype(np.float32)
    mask = rng.random(size=a.shape) < 0.3
    value = draw(st.sampled_from([0.0, -1e9, float("-inf")]))
    return [a], lambda x: F.masked_fill(x, mask, value), {}


def case_cat(draw, rng, _):
    shape = draw(SHAPE)
    axis = draw(st.integers(0, len(shape) - 1))
    arrays = []
    for _ in range(draw(st.integers(1, 3))):
        part = list(shape)
        part[axis] = draw(st.integers(1, 3))
        arrays.append(rng.normal(size=part).astype(np.float32))
    return arrays, lambda *xs: F.cat(xs, axis=axis), {"axis": axis}


def case_conv2d(draw, rng, _):
    batch, cin, cout = (draw(st.integers(1, 2)) for _ in range(3))
    k = draw(st.integers(1, 3))
    pad = draw(st.integers(0, 1))
    stride = draw(st.integers(1, 2))
    hw = draw(st.integers(max(1, k - 2 * pad), 5))
    x = rng.normal(size=(batch, cin, hw, hw)).astype(np.float32)
    w = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
    b = rng.normal(size=(cout,)).astype(np.float32)
    return [x, w, b], lambda *t: F.conv2d(*t, stride=stride,
                                          padding=pad), {}


def case_pool(draw, rng, op):
    k = draw(st.integers(1, 2))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 2)),
             k * draw(st.integers(1, 3)), k * draw(st.integers(1, 3)))
    a = rng.normal(size=shape).astype(np.float32)
    pool = F.max_pool2d if op == "max_pool2d" else F.avg_pool2d
    return [a], lambda x: pool(x, k), {}


def case_fake_quantize(draw, rng, _):
    a = rng.normal(size=draw(SHAPE)).astype(np.float32) * 4
    mask = (np.abs(a) < 6).astype(np.float32) if draw(st.booleans()) \
        else None
    return [a], lambda x: F.fake_quantize(x, np.round, mask), {}


def case_dropout(draw, rng, _):
    a = rng.normal(size=draw(SHAPE)).astype(np.float32)
    seed = draw(st.integers(0, 2**16))
    return [a], lambda x: F.dropout(x, 0.3, True,
                                    np.random.default_rng(seed)), {}


def case_cross_entropy(draw, rng, _):
    rows, vocab = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    logits = rng.normal(size=(rows, vocab)).astype(np.float32)
    targets = rng.integers(0, vocab, size=rows)
    smoothing = draw(st.sampled_from([0.0, 0.1]))
    return [logits], lambda x: F.cross_entropy(
        x, targets, ignore_index=0, label_smoothing=smoothing), {}


CASES = {
    **{op: case_binary for op in ("add", "sub", "mul", "truediv")},
    **{op: case_scalar for op in ("radd", "rsub", "rmul", "rtruediv")},
    "matmul": case_matmul,
    **{op: case_unary for op in ("neg", "exp", "log", "sqrt", "tanh",
                                 "sigmoid", "relu", "abs", "pow", "gelu")},
    "reshape": case_reshape, "transpose": case_transpose,
    "swapaxes": case_swapaxes, "getitem": case_getitem,
    **{op: case_reduce for op in ("sum", "mean", "max")},
    "clip_values": case_clip,
    **{op: case_softmax for op in ("softmax", "log_softmax")},
    "masked_fill": case_masked_fill, "cat": case_cat,
    "conv2d": case_conv2d,
    **{op: case_pool for op in ("max_pool2d", "avg_pool2d")},
    "fake_quantize": case_fake_quantize, "dropout": case_dropout,
    "cross_entropy": case_cross_entropy,
}


def _expand(g, axis, keepdims):
    return g if axis is None or keepdims else np.expand_dims(g, axis)


def _ref_mean(a, g, axis, keepdims):
    count = a.size if axis is None else np.prod(
        [a.shape[i] for i in (axis if isinstance(axis, tuple) else (axis,))])
    return np.broadcast_to(_expand(g, axis, keepdims), a.shape) / count


def _ref_max(a, g, axis, keepdims):
    out = a.max(axis=axis, keepdims=keepdims)
    expanded = out if (keepdims or axis is None) \
        else np.expand_dims(out, axis)
    mask = a == expanded
    return mask * (_expand(g, axis, keepdims)
                   / mask.sum(axis=axis, keepdims=True))


def _ref_getitem(a, g, index):
    full = np.zeros(a.shape, dtype=np.float32)
    np.add.at(full, index, g)
    return full


def _ref_cat(arrays, g, axis):
    offsets = np.cumsum([0] + [a.shape[axis] for a in arrays])
    return [np.take(g, range(lo, hi), axis=axis)
            for lo, hi in zip(offsets[:-1], offsets[1:])]


#: The eager (pre-deferral) gradient formulas of the ops whose
#: backward-only state moved into the closure: ``(arrays, upstream
#: grad, params) -> one gradient per input``.
REFERENCE_GRADS = {
    "transpose": lambda xs, g, p: [g.transpose(tuple(np.argsort(p["axes"])))],
    "mean": lambda xs, g, p: [_ref_mean(xs[0], g, **p)],
    "max": lambda xs, g, p: [_ref_max(xs[0], g, **p)],
    "abs": lambda xs, g, p: [g * np.sign(xs[0])],
    "clip_values": lambda xs, g, p: [
        g * ((xs[0] >= p["lo"]) & (xs[0] <= p["hi"]))],
    "sum": lambda xs, g, p: [np.broadcast_to(
        _expand(g, p["axis"], p["keepdims"]), xs[0].shape)],
    "reshape": lambda xs, g, p: [g.reshape(xs[0].shape)],
    "getitem": lambda xs, g, p: [_ref_getitem(xs[0], g, p["index"])],
    "cat": lambda xs, g, p: _ref_cat(xs, g, p["axis"]),
}


def _forward(fn, arrays):
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    return inputs, fn(*inputs)


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(sorted(CASES)), seed=st.integers(0, 2**16),
       data=st.data())
def test_no_grad_matches_grad_mode(op, seed, data):
    rng = np.random.default_rng(seed)
    arrays, fn, params = CASES[op](data.draw, rng, op)

    with no_grad():
        _, inferred = _forward(fn, arrays)
    inputs, traced = _forward(fn, arrays)

    assert inferred.data.dtype == np.float32
    assert np.array_equal(inferred.data, traced.data)
    assert inferred._parents == () and inferred._backward is None
    assert traced._parents != () and traced._backward is not None

    upstream = rng.normal(size=traced.shape).astype(np.float32)
    traced.backward(upstream)
    grads = [t.grad for t in inputs]
    assert all(g is not None and g.dtype == np.float32 for g in grads)

    # an inference forward between graph building and backward leaves
    # the graph's gradients as they were
    again_inputs, again = _forward(fn, arrays)
    with no_grad():
        fn(*[Tensor(a) for a in arrays])
    again.backward(upstream)
    for g, t in zip(grads, again_inputs):
        assert np.array_equal(g, t.grad)

    if op in REFERENCE_GRADS:
        expected = REFERENCE_GRADS[op](arrays, upstream, params)
        for g, e in zip(grads, expected):
            assert np.array_equal(g, np.asarray(e, dtype=np.float32))
