"""A vectorized reverse-mode autodiff tensor over NumPy.

This is the training substrate standing in for PyTorch (DESIGN.md §2):
enough autograd to train and quantization-aware-retrain the paper's three
model families (Transformer, attention seq2seq LSTM, residual CNN) on a
CPU.  Every op computes its forward value with plain NumPy and hands it,
with its parents and a ``backward`` closure, to one op-output
constructor (``_op``), which serves two modes:

* **Grad mode** (the default) records a dynamic graph.  An output whose
  inputs are in a graph (they require grad or have parents) keeps its
  parents and its closure, which routes the output gradient to the
  parents; ``backward()`` sorts the graph topologically and accumulates.
* **Inference mode** (``no_grad``, per thread) records nothing.  The
  output is a bare leaf: float32 data, no parents, no closure kept.
  State that only backward needs (inverse permutations, reduction
  counts, max and clip masks, signs) is computed inside the closures, so
  inference never pays for it.  The forward NumPy calls are the same in
  both modes, so outputs are bit-identical.

Only operations the models need are implemented, each with full
broadcasting support.  Everything is float32 by default (float64 is
reserved for the number-format code, which is exactness-sensitive).
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

__all__ = ["Tensor", "deterministic_matmul", "is_deterministic_matmul",
           "is_grad_enabled", "no_grad"]

from ..hardware.profiler import record_matmul as _record_matmul
from . import sanitize as _sanitize


class _ThreadState(threading.local):
    """Per-thread autodiff mode flags.

    The flags are thread-local so concurrent inference workers (the
    ``repro.serve`` engine runs decodes on worker threads) cannot race
    on each other's ``no_grad`` / ``deterministic_matmul`` scopes: with
    a process-global flag, worker A exiting ``no_grad`` would re-enable
    graph construction while worker B is mid-decode, making B's cached
    attention raise.  Every thread starts grad-enabled with the BLAS
    matmul kernel, matching the previous single-threaded defaults.
    """

    def __init__(self) -> None:
        self.grad_enabled = True
        self.det_matmul = False


_STATE = _ThreadState()


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        self._prev = _STATE.grad_enabled
        _STATE.grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _STATE.grad_enabled = self._prev


def is_grad_enabled() -> bool:
    return _STATE.grad_enabled


class deterministic_matmul:
    """Context manager routing forward matmuls through a shape-stable kernel.

    BLAS gemm does not guarantee that row ``i`` of ``(M, K) @ (K, N)`` is
    bit-identical across different ``M`` (the micro-kernel and the gemv
    special case accumulate in different orders).  That makes "recompute
    the whole prefix" and "incremental with a KV cache" decoding agree
    only approximately.  Inside this context, ``Tensor.__matmul__`` uses
    an einsum kernel whose per-row reduction order depends only on the
    contracted axis, so the two decode strategies become bit-identical
    re-associations of the same float ops (docs/inference.md).  Slower
    than BLAS — meant for equivalence tests, not production decoding.
    """

    def __enter__(self) -> "deterministic_matmul":
        self._prev = _STATE.det_matmul
        _STATE.det_matmul = True
        return self

    def __exit__(self, *exc) -> None:
        _STATE.det_matmul = self._prev


def is_deterministic_matmul() -> bool:
    return _STATE.det_matmul


def _det_matmul_data(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shape-stable matmul: per-row accumulation order fixed by the
    contracted axis alone (no M/N-dependent blocking)."""
    if a.ndim == 1 and b.ndim == 1:
        return np.einsum("i,i->", a, b)
    return np.einsum("...ij,...jk->...ik", a, b)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


TensorLike = Union["Tensor", np.ndarray, float, int]


class Tensor:
    """An autodiff-capable ndarray wrapper."""

    # _san_layer is only assigned while the numeric sanitizer is active
    # (repro.nn.sanitize); it records the module that created this tensor
    # so backward-pass findings can name the offending layer.
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_san_layer")
    __array_priority__ = 100  # make ndarray defer to our __radd__ etc.

    def __init__(self, data, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    # ------------------------------------------------------------ plumbing
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, do not mutate during training)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    # ------------------------------------------------------------ autograd
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float32)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (default seed: ones)."""
        if grad is None:
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                if _sanitize._ACTIVE:
                    _sanitize.on_grad(node)
                node._backward(node.grad)
        if _sanitize._ACTIVE:
            for node in topo:  # leaves: parameters and inputs
                if node._backward is None and node.grad is not None:
                    _sanitize.on_grad(node)

    # ---------------------------------------------------------- arithmetic
    @staticmethod
    def _wrap(x: TensorLike) -> "Tensor":
        return x if isinstance(x, Tensor) else _leaf(x)

    def __add__(self, other: TensorLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return _op(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return _op(-self.data, (self,), backward)

    def __sub__(self, other: TensorLike) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return _op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape))
            other._accumulate(_unbroadcast(
                -grad * self.data / (other.data * other.data), other.shape))

        return _op(out_data, (self, other), backward)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return self._wrap(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return _op(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._wrap(other)
        if (self.data.ndim == 1) != (other.data.ndim == 1):
            raise NotImplementedError(
                "matmul operands must both be >=2-D (or both 1-D dot)")
        _record_matmul(self.data.shape, other.data.shape)
        if _STATE.det_matmul:
            out_data = _det_matmul_data(self.data, other.data)
        else:
            out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1:  # 1-D dot product
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            ga = grad @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ grad
            self._accumulate(_unbroadcast(ga, a.shape))
            other._accumulate(_unbroadcast(gb, b.shape))

        return _op(out_data, (self, other), backward)

    # ----------------------------------------------------------- unary ops
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return _op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return _op(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return _op(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data * out_data))

        return _op(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return _op(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return _op(self.data * mask, (self,), backward)

    def abs(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return _op(np.abs(self.data), (self,), backward)

    # ------------------------------------------------------------ reshapes
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return _op(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(tuple(np.argsort(axes))))

        return _op(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.swapaxes(a, b))

        return _op(self.data.swapaxes(a, b), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            full = np.zeros(self.data.shape, dtype=np.float32)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return _op(self.data[index], (self,), backward)

    # ----------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return _op(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                   backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            in_shape = self.data.shape
            count = self.data.size if axis is None else np.prod(
                [in_shape[a]
                 for a in (axis if isinstance(axis, tuple) else (axis,))])
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, in_shape) / count)

        return _op(self.data.mean(axis=axis, keepdims=keepdims), (self,),
                   backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = out_data if (keepdims or axis is None) \
                else np.expand_dims(out_data, axis)
            mask = (self.data == expanded)
            counts = mask.sum(axis=axis, keepdims=True)
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(mask * (g / counts))

        return _op(out_data, (self,), backward)

    # ------------------------------------------------------------- helpers
    def clip_values(self, lo: float, hi: float) -> "Tensor":
        """Clamp with pass-through gradient only inside the range."""
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * ((self.data >= lo) & (self.data <= hi)))

        return _op(np.clip(self.data, lo, hi), (self,), backward)


# ----------------------------------------------------- op-output construction
_F32 = np.dtype(np.float32)
_new_tensor = object.__new__


def _leaf(data) -> Tensor:
    """A graph-free tensor over ``data`` cast to float32.

    Builds the slots directly instead of going through ``Tensor.__init__``:
    op outputs and wrapped scalars are never ``Tensor``s themselves and
    never require grad, and a float32 ndarray is kept as is.
    """
    out = _new_tensor(Tensor)
    out.data = data if type(data) is np.ndarray and data.dtype is _F32 \
        else np.asarray(data, dtype=np.float32)
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


def _op(data, parents: Tuple[Tensor, ...],
        backward: Callable[[np.ndarray], None]) -> Tensor:
    """The op-output constructor every ``Tensor`` and functional op uses.

    The output joins the graph only when grad is enabled on this thread
    and some parent is in a graph.  Otherwise it is a bare leaf and
    ``backward`` is dropped here, taking whatever backward-only state its
    closure would have computed with it.  An active sanitizer still sees
    ``backward``: it names the op after the closure's qualname.
    """
    out = _leaf(data)
    if _STATE.grad_enabled and any(p.requires_grad or p._parents
                                   for p in parents):
        out._parents = parents
        out._backward = backward
    if _sanitize._ACTIVE:
        _sanitize.on_op(out, out.data, parents, backward)
    return out
