"""Primitive differentiable operations on :class:`~repro.tensor.tensor.Tensor`.

Every function here builds a result tensor via ``Tensor._make`` and supplies a
backward closure returning one gradient per parent.  Broadcasting reduction is
handled centrally by the autograd engine, so closures may return gradients in
the broadcast shape.

Each op computes its result with one forward kernel and records that kernel
on the tape as ``params["forward"]``: a :func:`functools.partial` bound to the
op's parent tensors (and to whatever arrays its backward closure reads) that
reads their data at call time and writes into ``out=`` when given (a fresh
array otherwise).  The eager op calls it once; the compiled train step
(:mod:`repro.core.train_plan`) calls the same kernel with ``out=`` the node's
buffer on every replay, so the two run the same float operations.  The pure
views ``transpose`` and the complex pair's ``pick`` record none: the plan never
recomputes a view.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor.tensor import Tensor, ensure_tensor

Axis = Union[None, int, Tuple[int, ...]]


def _into(out: Optional[np.ndarray], value: np.ndarray) -> np.ndarray:
    """``value`` itself, or copied into ``out`` when a buffer is given."""
    if out is None:
        return value
    np.copyto(out, value)
    return out


def _ufunc(ufunc, *parents: Tensor, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward kernel of an elementwise op: ``ufunc`` over the parents' data."""
    return ufunc(*(parent.data for parent in parents), out=out)


def _record(op: str, forward, parents: Tuple[Tensor, ...], backward, **params) -> Tensor:
    """Record a node whose eager result is one call of its forward kernel."""
    return Tensor._make(forward(), parents, backward, op, {"forward": forward, **params})


# --------------------------------------------------------------------------- #
# binary arithmetic
# --------------------------------------------------------------------------- #
def add(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)

    def backward(grad):
        return grad, grad

    return _record("add", partial(_ufunc, np.add, a, b), (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)

    def backward(grad):
        return grad, -grad

    return _record("sub", partial(_ufunc, np.subtract, a, b), (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)

    def backward(grad):
        return grad * b.data, grad * a.data

    return _record("mul", partial(_ufunc, np.multiply, a, b), (a, b), backward)


def div(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)

    def backward(grad):
        grad_a = grad / b.data
        grad_b = -grad * a.data / (b.data ** 2)
        return grad_a, grad_b

    return _record("div", partial(_ufunc, np.divide, a, b), (a, b), backward)


def neg(a) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad):
        return (-grad,)

    return _record("neg", partial(_ufunc, np.negative, a), (a,), backward)


def _power_forward(a: Tensor, exponent: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    # ``**``, not np.power: ndarray.__pow__ takes fast paths (square, sqrt,
    # reciprocal) for some exponents
    return _into(out, a.data ** exponent)


def power(a, exponent: float) -> Tensor:
    """Elementwise power with a constant (non-differentiated) exponent."""
    a = ensure_tensor(a)

    def backward(grad):
        return (grad * exponent * a.data ** (exponent - 1),)

    return _record("power", partial(_power_forward, a, exponent), (a,), backward)


def maximum(a, b) -> Tensor:
    """Elementwise maximum; gradient is routed to the larger operand (ties split evenly)."""
    a, b = ensure_tensor(a), ensure_tensor(b)

    def backward(grad):
        a_larger = a.data > b.data
        b_larger = b.data > a.data
        ties = ~(a_larger | b_larger)
        grad_a = grad * (a_larger + 0.5 * ties)
        grad_b = grad * (b_larger + 0.5 * ties)
        return grad_a, grad_b

    return _record("maximum", partial(_ufunc, np.maximum, a, b), (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product following numpy ``@`` semantics (supports batched operands)."""
    a, b = ensure_tensor(a), ensure_tensor(b)

    def backward(grad):
        a_data, b_data = a.data, b.data
        if a_data.ndim == 1 and b_data.ndim == 1:
            # inner product
            grad_a = grad * b_data
            grad_b = grad * a_data
        elif a_data.ndim == 1:
            # (k,) @ (..., k, n) -> (..., n)
            grad_a = (grad[..., None, :] @ np.swapaxes(b_data, -1, -2))[..., 0, :]
            grad_a = grad_a.reshape(-1, a_data.shape[0]).sum(axis=0)
            grad_b = a_data[:, None] * grad[..., None, :]
        elif b_data.ndim == 1:
            # (..., m, k) @ (k,) -> (..., m)
            grad_a = grad[..., :, None] * b_data[None, :]
            grad_b = (np.swapaxes(a_data, -1, -2) @ grad[..., :, None])[..., 0]
            grad_b = grad_b.reshape(-1, b_data.shape[0]).sum(axis=0)
        else:
            grad_a = grad @ np.swapaxes(b_data, -1, -2)
            grad_b = np.swapaxes(a_data, -1, -2) @ grad
        return grad_a, grad_b

    return _record("matmul", partial(_ufunc, np.matmul, a, b), (a, b), backward)


# --------------------------------------------------------------------------- #
# unary elementwise
# --------------------------------------------------------------------------- #
def exp(a) -> Tensor:
    a = ensure_tensor(a)
    forward = partial(_ufunc, np.exp, a)
    # the closure reads the node's buffer, which a replay refreshes; a ufunc
    # returns a 0-d result as a scalar, so keep it as the array the node wraps
    out_data = np.asarray(forward())

    def backward(grad):
        return (grad * out_data,)

    return Tensor._make(out_data, (a,), backward, "exp", {"forward": forward})


def log(a) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad):
        return (grad / a.data,)

    return _record("log", partial(_ufunc, np.log, a), (a,), backward)


def sqrt(a) -> Tensor:
    a = ensure_tensor(a)
    forward = partial(_ufunc, np.sqrt, a)
    out_data = np.asarray(forward())  # the node's buffer, as in exp

    def backward(grad):
        return (grad * 0.5 / out_data,)

    return Tensor._make(out_data, (a,), backward, "sqrt", {"forward": forward})


def abs(a) -> Tensor:  # noqa: A001 - mirrors numpy naming
    a = ensure_tensor(a)

    def backward(grad):
        return (grad * np.sign(a.data),)

    return _record("abs", partial(_ufunc, np.abs, a), (a,), backward)


def tanh(a) -> Tensor:
    a = ensure_tensor(a)
    forward = partial(_ufunc, np.tanh, a)
    out_data = np.asarray(forward())  # the node's buffer, as in exp

    def backward(grad):
        return (grad * (1.0 - out_data ** 2),)

    return Tensor._make(out_data, (a,), backward, "tanh", {"forward": forward})


def _sigmoid_forward(a: Tensor, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``1 / (1 + exp(-a))``: negative, exp, add, divide (all in ``out`` when given)."""
    value = np.negative(a.data, out=out)
    value = np.exp(value, out=out)
    value = np.add(value, 1.0, out=out)
    return np.divide(1.0, value, out=out)


def sigmoid(a) -> Tensor:
    a = ensure_tensor(a)
    forward = partial(_sigmoid_forward, a)
    out_data = np.asarray(forward())  # the node's buffer, as in exp

    def backward(grad):
        return (grad * out_data * (1.0 - out_data),)

    return Tensor._make(out_data, (a,), backward, "sigmoid", {"forward": forward})


def _relu_forward(a: Tensor, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.maximum(a.data, 0.0, out=out)


def relu(a) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad):
        return (grad * (a.data > 0),)

    return _record("relu", partial(_relu_forward, a), (a,), backward)


def _leaky_relu_forward(a: Tensor, negative_slope: float,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    return _into(out, np.where(a.data > 0, a.data, negative_slope * a.data))


def leaky_relu(a, negative_slope: float = 0.01) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad):
        return (grad * np.where(a.data > 0, 1.0, negative_slope),)

    return _record("leaky_relu", partial(_leaky_relu_forward, a, negative_slope), (a,),
                   backward)


def _clip_forward(a: Tensor, low: Optional[float], high: Optional[float],
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.clip(a.data, low, high, out=out)


def clip(a, low: Optional[float], high: Optional[float]) -> Tensor:
    """Clamp values to ``[low, high]``; gradient is zero outside the interval."""
    a = ensure_tensor(a)

    def backward(grad):
        mask = np.ones_like(a.data)
        if low is not None:
            mask = mask * (a.data >= low)
        if high is not None:
            mask = mask * (a.data <= high)
        return (grad * mask,)

    return _record("clip", partial(_clip_forward, a, low, high), (a,), backward)


def sin(a) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad):
        return (grad * np.cos(a.data),)

    return _record("sin", partial(_ufunc, np.sin, a), (a,), backward)


def cos(a) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad):
        return (-grad * np.sin(a.data),)

    return _record("cos", partial(_ufunc, np.cos, a), (a,), backward)


# --------------------------------------------------------------------------- #
# reductions
# --------------------------------------------------------------------------- #
def _expand_reduced(grad: np.ndarray, original_shape: Tuple[int, ...], axis: Axis,
                    keepdims: bool) -> np.ndarray:
    """Broadcast a reduced gradient back to ``original_shape``."""
    if axis is None:
        return np.broadcast_to(grad, original_shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(ax % len(original_shape) for ax in axes)
        for ax in sorted(axes):
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, original_shape)


def _reduction(fn, a: Tensor, axis: Axis, keepdims: bool,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward kernel of a reduction: ``fn`` (``np.sum``, ``np.max``, ...) over ``a``."""
    return fn(a.data, axis=axis, keepdims=keepdims, out=out)


def _reduced_count(a: Tensor, axis: Axis):
    """How many elements of ``a`` each output element of a reduction averages."""
    if axis is None:
        return a.data.size
    return np.prod([a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])


def sum(a, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = ensure_tensor(a)

    def backward(grad):
        return (_expand_reduced(grad, a.data.shape, axis, keepdims),)

    return _record("sum", partial(_reduction, np.sum, a, axis, keepdims), (a,), backward)


def mean(a, axis: Axis = None, keepdims: bool = False) -> Tensor:
    a = ensure_tensor(a)
    count = _reduced_count(a, axis)

    def backward(grad):
        return (_expand_reduced(grad, a.data.shape, axis, keepdims) / count,)

    return _record("mean", partial(_reduction, np.mean, a, axis, keepdims), (a,), backward)


def _var_forward(a: Tensor, axis: Axis, keepdims: bool, cache: dict,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward kernel of :func:`var`; refreshes the kept-dims mean in ``cache``."""
    mean_data = cache["mean"] = np.mean(a.data, axis=axis, keepdims=True,
                                        out=cache.get("mean"))
    return np.mean((a.data - mean_data) ** 2, axis=axis, keepdims=keepdims, out=out)


def var(a, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Biased (population) variance, matching ``numpy.var`` defaults."""
    a = ensure_tensor(a)
    count = _reduced_count(a, axis)
    cache: dict = {}

    def backward(grad):
        grad_full = _expand_reduced(grad, a.data.shape, axis, keepdims)
        return (grad_full * 2.0 * (a.data - cache["mean"]) / count,)

    return _record("var", partial(_var_forward, a, axis, keepdims, cache), (a,), backward)


def _minmax(a, axis: Axis, keepdims: bool, fn, kind: str) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad):
        out_keep = fn(a.data, axis=axis, keepdims=True)
        mask = (a.data == out_keep).astype(a.data.dtype)
        # Split the gradient evenly among ties so that the total is conserved.
        mask = mask / mask.sum(axis=axis, keepdims=True)
        grad_full = _expand_reduced(grad, a.data.shape, axis, keepdims)
        return (grad_full * mask,)

    return _record(kind, partial(_reduction, fn, a, axis, keepdims), (a,), backward)


def max(a, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return _minmax(a, axis, keepdims, np.max, "max")


def min(a, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return _minmax(a, axis, keepdims, np.min, "min")


def _logsumexp_forward(a: Tensor, axis: Axis, keepdims: bool, cache: dict,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward kernel of :func:`logsumexp`; refreshes ``exps``/``sum_exps`` in ``cache``."""
    shifted_max = a.data.max(axis=axis, keepdims=True)
    exps = cache.get("exps")
    exps = cache["exps"] = np.exp(np.subtract(a.data, shifted_max, out=exps), out=exps)
    sum_exps = cache["sum_exps"] = np.sum(exps, axis=axis, keepdims=True,
                                          out=cache.get("sum_exps"))
    out_keep = np.log(sum_exps) + shifted_max
    if not keepdims:
        out_keep = np.squeeze(out_keep,
                              axis=axis if axis is not None else tuple(range(a.data.ndim)))
    return _into(out, out_keep)


def logsumexp(a, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Numerically stable ``log(sum(exp(a)))`` with exact softmax gradient."""
    a = ensure_tensor(a)
    cache: dict = {}

    def backward(grad):
        softmax = cache["exps"] / cache["sum_exps"]
        grad_full = _expand_reduced(grad, a.data.shape, axis, keepdims)
        return (grad_full * softmax,)

    return _record("logsumexp", partial(_logsumexp_forward, a, axis, keepdims, cache), (a,),
                   backward)


# --------------------------------------------------------------------------- #
# shape manipulation
# --------------------------------------------------------------------------- #
def _reshape_forward(a: Tensor, shape: Sequence[int],
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    return _into(out, a.data.reshape(shape))


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad):
        return (grad.reshape(a.data.shape),)

    return _record("reshape", partial(_reshape_forward, a, shape), (a,), backward)


def transpose(a, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    a = ensure_tensor(a)
    out_data = a.data.transpose(axes)

    def backward(grad):
        if axes is None:
            return (grad.transpose(),)
        inverse = np.argsort(axes)
        return (grad.transpose(inverse),)

    # always a view: the plan never recomputes it, so no forward kernel
    return Tensor._make(out_data, (a,), backward, "transpose")


def _getitem_forward(a: Tensor, index, out: Optional[np.ndarray] = None) -> np.ndarray:
    return _into(out, a.data[index])


def getitem(a, index) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad):
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        return (full,)

    return _record("getitem", partial(_getitem_forward, a, index), (a,), backward,
                   index=index)


def _concatenate_forward(tensors: Sequence[Tensor], axis: int,
                         out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.concatenate([t.data for t in tensors], axis=axis, out=out)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        slices = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(int(start), int(stop))
            slices.append(grad[tuple(index)])
        return tuple(slices)

    return _record("concatenate", partial(_concatenate_forward, tensors, axis),
                   tuple(tensors), backward)


def _stack_forward(tensors: Sequence[Tensor], axis: int,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.stack([t.data for t in tensors], axis=axis, out=out)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]

    def backward(grad):
        parts = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    return _record("stack", partial(_stack_forward, tensors, axis), tuple(tensors), backward)


def _normalize_pad_width(pad_width, ndim: int) -> np.ndarray:
    """Expand ``pad_width`` into an ``(ndim, 2)`` integer array (numpy semantics)."""
    width = np.asarray(pad_width, dtype=int)
    if width.ndim == 0:
        width = np.tile(width.reshape(1, 1), (ndim, 2))
    elif width.ndim == 1 and width.shape == (2,):
        width = np.tile(width.reshape(1, 2), (ndim, 1))
    elif width.shape != (ndim, 2):
        raise ValueError(f"pad_width {pad_width!r} is not valid for a {ndim}-d tensor")
    return width


def _pad_forward(a: Tensor, padded_shape: Tuple[int, ...], interior: Tuple[slice, ...],
                 constant_value: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward kernel of :func:`pad`.

    A fresh output is filled with the constant first; a given ``out`` keeps
    the border it already holds, so only the interior is written.
    """
    if out is None:
        out = np.full(padded_shape, constant_value, dtype=a.data.dtype)
    out[interior] = a.data
    return out


def pad(a, pad_width, constant_value: float = 0.0) -> Tensor:
    """Constant padding following ``numpy.pad`` ``pad_width`` conventions."""
    a = ensure_tensor(a)
    width = _normalize_pad_width(pad_width, a.data.ndim)
    padded_shape = tuple(int(before) + dim + int(after)
                         for (before, after), dim in zip(width, a.data.shape))
    interior = tuple(slice(int(before), int(before) + dim)
                     for (before, _after), dim in zip(width, a.data.shape))

    def backward(grad):
        return (grad[interior],)

    return _record("pad", partial(_pad_forward, a, padded_shape, interior, constant_value),
                   (a,), backward)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Select elements from ``a`` where ``condition`` is true, else from ``b``."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad):
        return grad * condition, grad * (~condition)

    return Tensor._make(out_data, (a, b), backward)
