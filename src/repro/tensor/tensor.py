"""A small reverse-mode automatic differentiation engine.

The :class:`Tensor` class wraps a ``numpy.ndarray`` and records the operations
applied to it in a dynamic computation graph.  Calling :meth:`Tensor.backward`
on a scalar result propagates gradients to every tensor that participated in
its computation and has ``requires_grad=True``.

Design notes
------------
* Only float arrays participate in differentiation.  Integer tensors (e.g.
  class labels) can be wrapped but never receive gradients.
* Broadcasting follows numpy semantics; gradients of broadcast operands are
  reduced back to the operand shape (see :func:`_unbroadcast`).
* The graph is built eagerly.  ``no_grad`` disables graph construction, which
  is used for evaluation loops and photonic deployment.
* Complex-valued networks are expressed with *pairs* of real tensors (see
  :mod:`repro.nn.complex`), mirroring the split complex-to-real conversion of
  OplixNet's Eq. (2), so the engine itself only needs real arithmetic.
* Backward closures return a tuple of parent gradients (numpy arrays or
  ``None``), aligned with the ``parents`` sequence passed to
  :meth:`Tensor._make`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

Arrayable = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Example
    -------
    >>> with no_grad():
    ...     y = model(x)   # no autograd bookkeeping
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


# --------------------------------------------------------------------------- #
# tape tracing (consumed by repro.core.train_plan)
# --------------------------------------------------------------------------- #
class TapeEntry:
    """One node recorded while a :func:`trace_tape` context is active.

    ``op`` names the primitive that created the node.  ``params["forward"]``
    is the kernel the op ran to compute ``tensor.data``; a replay calls it
    again with ``out=tensor.data`` to recompute the node in place.  Any other
    params are what a plan-side builder reads (an index, layer geometry,
    cache dicts shared with the backward closure).  ``parents``/``backward``
    are stored here explicitly because nodes with ``requires_grad=False`` do
    not keep them on the tensor.
    """

    __slots__ = ("tensor", "op", "params", "parents", "backward")

    def __init__(self, tensor: "Tensor", op: Optional[str], params: Optional[dict],
                 parents: Tuple["Tensor", ...], backward: Optional["BackwardFn"]):
        self.tensor = tensor
        self.op = op
        self.params = params
        self.parents = parents
        self.backward = backward


class TapeTrace:
    """Creation-ordered record of every autograd node built under the trace.

    ``inputs`` maps a caller-chosen key to ``(leaf tensor, meta)`` for leaves
    whose data changes every step (the image batch, the loss targets);
    ``volatile`` collects reasons why the traced step cannot be replayed
    (data-dependent constants such as dropout masks).
    """

    def __init__(self):
        self.entries: List[TapeEntry] = []
        self.inputs: Dict[str, Tuple["Tensor", dict]] = {}
        self.volatile: List[str] = []


_ACTIVE_TRACE: Optional[TapeTrace] = None


@contextlib.contextmanager
def trace_tape():
    """Record every node created inside the context into a :class:`TapeTrace`."""
    global _ACTIVE_TRACE
    previous = _ACTIVE_TRACE
    trace = TapeTrace()
    _ACTIVE_TRACE = trace
    try:
        yield trace
    finally:
        _ACTIVE_TRACE = previous


def mark_trace_input(tensor: "Tensor", key: str, meta: Optional[dict] = None) -> None:
    """Register a leaf whose data must be refreshed before each plan replay.

    ``meta["late"]`` marks a leaf that only the loss reads (a peer's
    distribution in mutual learning): a compiled step takes it after its
    forward pass (:meth:`repro.core.train_plan.TrainStepPlan.finish`).
    """
    if _ACTIVE_TRACE is not None:
        _ACTIVE_TRACE.inputs[key] = (tensor, dict(meta or {}))


def mark_trace_volatile(reason: str) -> None:
    """Declare the step being traced unreplayable (forces the eager fallback)."""
    if _ACTIVE_TRACE is not None:
        _ACTIVE_TRACE.volatile.append(reason)


def _as_array(value: Arrayable, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        value = value.data
    array = np.asarray(value)
    if dtype is not None:
        array = array.astype(dtype, copy=False)
    elif array.dtype == np.float16:
        array = array.astype(np.float32)
    return array


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    Numpy broadcasting may have expanded an operand along leading axes or along
    axes of size one; the gradient contribution of the expanded positions must
    be summed back onto the original operand.
    """
    grad = np.asarray(grad)
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


BackwardFn = Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]]


class Tensor:
    """An n-dimensional array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    name:
        Optional human readable name (useful when debugging graphs).
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "name")
    __array_priority__ = 200.0  # numpy defers mixed binary ops to Tensor

    def __init__(self, data: Arrayable, requires_grad: bool = False, name: Optional[str] = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[BackwardFn] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
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
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=16)}{grad_flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a python scalar."""
        if self.data.size != 1:
            raise ValueError("item() only works on single-element tensors")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a tensor with a copied data buffer, detached from the graph."""
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(data: np.ndarray,
              parents: Sequence["Tensor"],
              backward: BackwardFn,
              op: Optional[str] = None,
              params: Optional[dict] = None) -> "Tensor":
        """Create a result tensor and register its backward closure.

        ``backward`` receives the upstream gradient and must return one
        gradient (or ``None``) per entry of ``parents``.  ``op`` names the
        primitive and ``params`` holds its replay metadata, above all
        ``params["forward"]``: the kernel that computed ``data``, which the
        compiled train step reruns into the node's buffer.  Both are recorded
        only while a :func:`trace_tape` context is active.
        """
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        if _ACTIVE_TRACE is not None:
            _ACTIVE_TRACE.entries.append(
                TapeEntry(out, op, params, tuple(parents), backward))
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into :attr:`grad`.

        ``owned`` asserts that ``grad`` is a freshly allocated array with no
        other live reference, letting the first accumulation bind it directly
        instead of copying.  Subsequent accumulations run in place
        (``self.grad`` is private by construction, the same invariant
        ``Optimizer.clip_grad_norm`` already relies on).
        """
        reduced = _unbroadcast(grad, self.data.shape)
        if reduced is not grad:
            owned = True  # _unbroadcast allocated a fresh reduction
        if self.grad is None:
            if owned and reduced.dtype == self.data.dtype:
                self.grad = reduced
            else:
                self.grad = np.array(reduced, dtype=self.data.dtype, copy=True)
        elif reduced.dtype == self.grad.dtype:
            np.add(self.grad, reduced, out=self.grad)
        else:
            self.grad = self.grad + reduced

    def backward(self, grad: Optional[Union[np.ndarray, "Tensor", float]] = None) -> None:
        """Back-propagate gradients from this tensor through the graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.  For
            scalar tensors it defaults to 1.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
            seed_owned = True
        else:
            if isinstance(grad, Tensor):
                grad = grad.data
            source = grad
            grad = np.asarray(grad, dtype=self.data.dtype)
            seed_owned = grad is not source
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()
            seed_owned = True

        topo = self._topological_order()
        pending = {id(self): grad}
        # ids of gradient arrays allocated by this loop and referenced only by
        # ``pending`` -- the only arrays safe to accumulate into in place
        # (closures may return aliased arrays, e.g. ``add`` hands the upstream
        # gradient to both parents)
        owned_ids = {id(grad)} if seed_owned else set()
        for node in reversed(topo):
            node_grad = pending.pop(id(node), None)
            if node_grad is None:
                continue
            node_owned = id(node_grad) in owned_ids
            if node_owned:
                owned_ids.discard(id(node_grad))
            if node._backward is None or not node._parents:
                node._accumulate(node_grad, owned=node_owned)
                continue
            parent_grads = node._backward(node_grad)
            if len(parent_grads) != len(node._parents):
                raise RuntimeError(
                    f"backward closure returned {len(parent_grads)} gradients "
                    f"for {len(node._parents)} parents"
                )
            for parent, parent_grad in zip(node._parents, parent_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                reduced = _unbroadcast(parent_grad, parent.data.shape)
                existing = pending.get(id(parent))
                if existing is None:
                    pending[id(parent)] = reduced
                    if reduced is not parent_grad:
                        owned_ids.add(id(reduced))  # fresh reduction, unaliased
                elif id(existing) in owned_ids and existing.dtype == reduced.dtype:
                    np.add(existing, reduced, out=existing)
                else:
                    merged = existing + reduced
                    pending[id(parent)] = merged
                    owned_ids.discard(id(existing))
                    owned_ids.add(id(merged))

    def _topological_order(self) -> List["Tensor"]:
        """Iterative depth-first topological sort of the reachable subgraph."""
        topo: List[Tensor] = []
        visited = {id(self)}
        stack: List[Tuple[Tensor, int]] = [(self, 0)]
        while stack:
            node, child_index = stack.pop()
            if child_index < len(node._parents):
                stack.append((node, child_index + 1))
                parent = node._parents[child_index]
                if id(parent) not in visited and parent.requires_grad:
                    visited.add(id(parent))
                    stack.append((parent, 0))
            else:
                topo.append(node)
        return topo

    # ------------------------------------------------------------------ #
    # elementary arithmetic (implemented in repro.tensor.ops)
    # ------------------------------------------------------------------ #
    def __add__(self, other: Arrayable) -> "Tensor":
        from repro.tensor import ops

        return ops.add(self, other)

    def __radd__(self, other: Arrayable) -> "Tensor":
        from repro.tensor import ops

        return ops.add(other, self)

    def __sub__(self, other: Arrayable) -> "Tensor":
        from repro.tensor import ops

        return ops.sub(self, other)

    def __rsub__(self, other: Arrayable) -> "Tensor":
        from repro.tensor import ops

        return ops.sub(other, self)

    def __mul__(self, other: Arrayable) -> "Tensor":
        from repro.tensor import ops

        return ops.mul(self, other)

    def __rmul__(self, other: Arrayable) -> "Tensor":
        from repro.tensor import ops

        return ops.mul(other, self)

    def __truediv__(self, other: Arrayable) -> "Tensor":
        from repro.tensor import ops

        return ops.div(self, other)

    def __rtruediv__(self, other: Arrayable) -> "Tensor":
        from repro.tensor import ops

        return ops.div(other, self)

    def __neg__(self) -> "Tensor":
        from repro.tensor import ops

        return ops.neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from repro.tensor import ops

        return ops.power(self, exponent)

    def __matmul__(self, other: Arrayable) -> "Tensor":
        from repro.tensor import ops

        return ops.matmul(self, other)

    def __rmatmul__(self, other: Arrayable) -> "Tensor":
        from repro.tensor import ops

        return ops.matmul(other, self)

    def __getitem__(self, index) -> "Tensor":
        from repro.tensor import ops

        return ops.getitem(self, index)

    # comparisons return plain boolean arrays (no gradient flows through them)
    def __gt__(self, other: Arrayable):
        return self.data > _as_array(other)

    def __ge__(self, other: Arrayable):
        return self.data >= _as_array(other)

    def __lt__(self, other: Arrayable):
        return self.data < _as_array(other)

    def __le__(self, other: Arrayable):
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------ #
    # shape manipulation and reductions (delegated to ops)
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        from repro.tensor import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        """Flatten dimensions from ``start_dim`` onwards into one axis."""
        lead = self.shape[:start_dim]
        return self.reshape(*lead, -1)

    def transpose(self, *axes) -> "Tensor":
        from repro.tensor import ops

        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return ops.transpose(self, axes if axes else None)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.var(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.max(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.min(self, axis=axis, keepdims=keepdims)

    def exp(self) -> "Tensor":
        from repro.tensor import ops

        return ops.exp(self)

    def log(self) -> "Tensor":
        from repro.tensor import ops

        return ops.log(self)

    def sqrt(self) -> "Tensor":
        from repro.tensor import ops

        return ops.sqrt(self)

    def abs(self) -> "Tensor":
        from repro.tensor import ops

        return ops.abs(self)

    def tanh(self) -> "Tensor":
        from repro.tensor import ops

        return ops.tanh(self)

    def sigmoid(self) -> "Tensor":
        from repro.tensor import ops

        return ops.sigmoid(self)

    def relu(self) -> "Tensor":
        from repro.tensor import ops

        return ops.relu(self)

    def clip(self, low: Optional[float] = None, high: Optional[float] = None) -> "Tensor":
        from repro.tensor import ops

        return ops.clip(self, low, high)

    def argmax(self, axis=None) -> np.ndarray:
        """Indices of maxima (no gradient)."""
        return self.data.argmax(axis=axis)


def ensure_tensor(value: Arrayable) -> Tensor:
    """Wrap ``value`` in a :class:`Tensor` if it is not one already."""
    return value if isinstance(value, Tensor) else Tensor(value)
