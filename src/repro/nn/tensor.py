"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the ``repro.nn`` framework, a minimal
PyTorch substitute used to train the foundation models in this
reproduction.  A :class:`Tensor` wraps a ``numpy.ndarray`` and records
the operations applied to it in a dynamic computation graph; calling
:meth:`Tensor.backward` walks that graph in reverse topological order
and accumulates gradients into every tensor created with
``requires_grad=True``.

Design notes
------------
* Gradients are plain ``numpy.ndarray`` objects stored on ``.grad`` —
  there is no higher-order differentiation.
* Broadcasting follows numpy semantics; :func:`_unbroadcast` reduces an
  upstream gradient back to the shape of the operand it belongs to.
* Graph recording can be suspended with the :func:`no_grad` context
  manager, which training loops use for evaluation passes.
* Every node-creating op computes its output with one forward kernel
  (:func:`_forward`); compiled replay (:mod:`repro.nn.graph`) calls
  the same kernel, so the two cannot drift apart.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Iterable, Sequence

import numpy as np

from . import profiler as _profiler
from .dtype import get_default_dtype

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "OpInfo",
    "OP_REGISTRY",
    "registered_op",
]

class _GradMode(threading.local):
    """Per-thread grad mode: a serving thread's ``no_grad`` block must not
    switch recording off (or, on an interleaved exit, leave it off) for
    a thread that is training."""

    enabled = True


_GRAD_MODE = _GradMode()

class _Capture(threading.local):
    """Per-thread capture hook: the tracer :mod:`repro.nn.graph` installs
    while *this* thread captures.  ``None`` keeps every op on the fast
    path, and another thread's ops are never recorded into the trace."""

    tracer = None


_CAPTURE = _Capture()


def _set_tracer(tracer):
    """Install ``tracer`` as this thread's capture hook; returns the previous one."""
    previous = _CAPTURE.tracer
    _CAPTURE.tracer = tracer
    return previous


def _unwrap(value):
    if isinstance(value, Tensor):
        return value.data
    if isinstance(value, list):
        return [_unwrap(item) for item in value]  # concatenate / stack operands
    return value


def _forward(kernel, *args, **kwargs):
    """Compute an op's output with its forward kernel.

    A kernel is ``kernel(*arrays, ..., out=None)``: the eager op calls it
    here with ``out=None``, and compiled replay calls the very same
    function with an arena view, so the two agree bit for bit by
    construction.  Tensor arguments reach the kernel as their ``.data``.
    A kernel returns its output array, or ``(output, *saved)`` when the
    op's backward reuses forward intermediates (only valid for
    ``out=None``).  While this thread captures, the call is recorded as
    one trace step.
    """
    result = kernel(*[_unwrap(a) for a in args], **kwargs)
    if isinstance(result, np.generic):
        result = np.asarray(result)  # full reductions: 0-d, as Tensor() stores them
    tracer = _CAPTURE.tracer
    if tracer is not None:
        tracer._record(kernel, args, kwargs, result[0] if isinstance(result, tuple) else result)
    return result


# ----------------------------------------------------------------------
# Op registry
# ----------------------------------------------------------------------
class OpInfo:
    """Metadata for one registered tensor operation.

    The registry exists for *verification*, not dispatch: the
    property-based harness (:mod:`repro.testing.gradcheck`) enumerates
    it and requires a passing finite-difference gradient check for
    every differentiable op, so a new op cannot ship silently
    unchecked.
    """

    __slots__ = ("name", "qualname", "module", "differentiable")

    def __init__(self, name: str, qualname: str, module: str, differentiable: bool) -> None:
        self.name = name
        self.qualname = qualname
        self.module = module
        self.differentiable = differentiable

    def __repr__(self) -> str:
        flag = "" if self.differentiable else ", differentiable=False"
        return f"OpInfo({self.name!r}, {self.module}.{self.qualname}{flag})"


#: name -> :class:`OpInfo` for every op that creates autodiff graph
#: nodes.  Populated by :func:`registered_op` at import time (here and
#: in :mod:`repro.nn.functional`).
OP_REGISTRY: dict[str, OpInfo] = {}


def registered_op(name: str, differentiable: bool = True):
    """Decorator registering a graph-node-creating op under ``name``.

    Every function or method that calls :meth:`Tensor._make` must be
    decorated (the harness cross-checks the source to enforce this);
    ``differentiable=False`` marks ops recorded for completeness that
    do not propagate gradients.  Registration is bookkeeping only: the
    function is returned unchanged.  Graph capture does not see ops, it
    sees the forward-kernel calls they make (:func:`_forward`), so a
    composite (``sub``, ``mean``, ``cross_entropy``, ...) is captured as
    the primitive steps it runs.
    """

    def decorate(fn):
        if name in OP_REGISTRY:
            raise ValueError(f"op {name!r} registered twice")
        OP_REGISTRY[name] = OpInfo(
            name=name,
            qualname=fn.__qualname__,
            module=fn.__module__,
            differentiable=differentiable,
        )
        return fn

    return decorate


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Operations executed inside the block produce tensors detached from
    the autograd graph, which keeps evaluation passes cheap.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether this thread currently records operations for autograd."""
    return _GRAD_MODE.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were expanded from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ----------------------------------------------------------------------
# Forward kernels without a numpy function of their own (see _forward);
# the rest of this module's ops pass numpy's ufuncs and reductions.
# ----------------------------------------------------------------------
def _pow(a, exponent, *, out=None):
    # ``**`` takes numpy's square / sqrt / reciprocal fast paths for 2,
    # 0.5 and -1; it has no ``out=`` form, so ``out`` is unused.
    return a**exponent


def _reshape(a, shape, *, out=None):
    return a.reshape(shape)


def _transpose(a, axes, *, out=None):
    return a.transpose(axes)


def _swapaxes(a, axis1, axis2, *, out=None):
    return np.swapaxes(a, axis1, axis2)


def _astype(a, dtype, *, out=None):
    return a.astype(dtype)


def _getitem(a, index, *, out=None):
    return a[index]


class Tensor:
    """A numpy-backed array node in a reverse-mode autodiff graph.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array (lists, scalars,
        existing arrays).  Floating numpy arrays keep their dtype;
        everything else (lists, python scalars, integer and boolean
        arrays) materialises in the global default dtype
        (:func:`repro.nn.get_default_dtype`, float32 unless opted
        out) — unless an explicit ``dtype`` is given.
    requires_grad:
        When true, :meth:`backward` accumulates a gradient into
        ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_freed", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: str | None = None,
        dtype=None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if dtype is not None:
            array = np.asarray(data, dtype=dtype)
        elif isinstance(data, (np.ndarray, np.generic)):
            # Existing arrays AND numpy scalars keep floating precision
            # (detach(), state loading, full reductions like ``sum()``
            # whose ndarray.sum(axis=None) returns an np.floating);
            # only non-float kinds are promoted.  Without the
            # np.generic case a float64 tensor's ``.sum()`` would
            # silently downcast to the float32 default.
            array = np.asarray(data)
            if array.dtype.kind in "iub":
                array = array.astype(get_default_dtype())
        else:
            array = np.asarray(data)
            if array.dtype.kind in "iubf":
                array = array.astype(get_default_dtype(), copy=False)
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._freed = False
        self.name = name
        tracer = _CAPTURE.tracer
        if tracer is not None:
            # Leaves born mid-capture are constants of the trace (their
            # data is baked by value); pre-existing tensors are recorded
            # by reference instead.  See repro.nn.graph.Tracer.
            tracer._note_leaf(self)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
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
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the single scalar value of a 1-element tensor."""
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a tensor with exactly one element, "
                f"got shape {self.data.shape} ({self.data.size} elements)"
            )
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        """Deep-copy the data into a fresh leaf tensor."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        """Drop any accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a graph node whose gradient flows to ``parents``.

        ``data`` must be what the op's forward kernel returned through
        :func:`_forward`, untouched: that call is what replay re-runs.
        A node made any other way refuses graph capture by the op's name.
        """
        profiler = _profiler._ACTIVE
        if profiler is not None:
            profiler.record_make(backward.__code__, data.nbytes)
        requires = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        tracer = _CAPTURE.tracer
        if tracer is not None:
            tracer._bind(out, backward)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (used by op backward passes)."""
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad), self.data.shape)
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None, retain_graph: bool = False) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ones, which for a scalar
            loss is the conventional seed.
        retain_graph:
            Keep the backward closures and graph edges alive after the
            pass so ``backward`` can run again (gradients accumulate as
            in torch).  By default the graph is freed in place and a
            second call raises instead of silently yielding wrong
            gradients.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if self._freed:
            raise RuntimeError(
                "backward() through a graph that has already been freed; "
                "intermediate closures are released after the first backward() "
                "call — pass retain_graph=True to backpropagate more than once"
            )
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._freed:
                raise RuntimeError(
                    "backward() reached a subgraph that has already been freed "
                    "by an earlier backward() call — pass retain_graph=True to "
                    "that call to backpropagate through shared nodes again"
                )
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        if self._backward is None:
            # Leaf root: accumulate, matching per-op leaf semantics.
            self._accumulate(grad)
        else:
            # Non-leaf root: each pass seeds fresh.  A retained grad
            # from an earlier retain_graph pass must not compound into
            # this pass's seed (torch likewise does not retain non-leaf
            # grads at all).
            self.grad = grad.astype(self.data.dtype, copy=True)
        profiler = _profiler._ACTIVE
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                if profiler is not None:
                    start = time.perf_counter()
                    node._backward(node.grad)
                    profiler.record_backward(
                        node._backward.__code__, time.perf_counter() - start
                    )
                else:
                    node._backward(node.grad)
                # Free intermediate gradients and graph edges eagerly;
                # leaves (no backward fn) keep their gradients.
                if not retain_graph:
                    node._backward = None
                    node._parents = ()
                    node._freed = True
                node.grad = None if node is not self else node.grad
        if profiler is not None:
            # Non-graph work follows a backward pass (optimizer step,
            # batch assembly); do not charge it to the next op.
            profiler.mark()

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------
    def _operand(self, other) -> "Tensor":
        """Coerce a binary-op operand to a Tensor.

        Python/numpy scalars are *weak*: they adopt this tensor's
        dtype, so ``x * 2.0`` or ``x + 1e-8`` never upcasts a float32
        graph to the ambient default dtype.  Everything else follows
        the normal creation policy.
        """
        if isinstance(other, Tensor):
            return other
        if np.isscalar(other):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(other)

    @registered_op("add")
    def __add__(self, other) -> "Tensor":
        other = self._operand(other)
        out_data = _forward(np.add, self, other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    @registered_op("neg")
    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(_forward(np.negative, self), (self,), backward)

    @registered_op("sub")
    def __sub__(self, other) -> "Tensor":
        return self + (-self._operand(other))

    def __rsub__(self, other) -> "Tensor":
        return self._operand(other) + (-self)

    @registered_op("mul")
    def __mul__(self, other) -> "Tensor":
        other = self._operand(other)
        out_data = _forward(np.multiply, self, other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    @registered_op("truediv")
    def __truediv__(self, other) -> "Tensor":
        other = self._operand(other)
        out_data = _forward(np.divide, self, other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data**2))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._operand(other) / self

    @registered_op("pow")
    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = _forward(_pow, self, exponent)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    @registered_op("matmul")
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = _forward(np.matmul, self, other)

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            a2 = a.reshape(1, -1) if a.ndim == 1 else a
            b2 = b.reshape(-1, 1) if b.ndim == 1 else b
            g = grad
            if a.ndim == 1:
                g = np.expand_dims(g, -2)
            if b.ndim == 1:
                g = np.expand_dims(g, -1)
            grad_a = g @ np.swapaxes(b2, -1, -2)
            grad_b = np.swapaxes(a2, -1, -2) @ g
            if a.ndim == 1:
                grad_a = grad_a.reshape(a.shape)
            if b.ndim == 1:
                grad_b = grad_b.reshape(b.shape)
            # _accumulate unbroadcasts; reducing here as well would do
            # the same axis-sums twice on every broadcasted matmul.
            self._accumulate(grad_a)
            other._accumulate(grad_b)

        return Tensor._make(out_data, (self, other), backward)

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other) @ self

    # Comparison operators return plain boolean arrays (no gradient).
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    @registered_op("reshape")
    def reshape(self, *shape) -> "Tensor":
        """View the data under a new shape (differentiable)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = _forward(_reshape, self, shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    @registered_op("transpose")
    def transpose(self, *axes) -> "Tensor":
        """Permute axes (default: reverse them); differentiable."""
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        out_data = _forward(_transpose, self, axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @registered_op("astype")
    def astype(self, dtype) -> "Tensor":
        """Cast to ``dtype`` (differentiable; grads cast back).

        Returns ``self`` unchanged when the dtype already matches, so
        boundary casts are free in the common single-dtype case.
        """
        dtype = np.dtype(dtype)
        if self.data.dtype == dtype:
            return self
        out_data = _forward(_astype, self, dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)

        return Tensor._make(out_data, (self,), backward)

    @registered_op("swapaxes")
    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Swap two axes; differentiable."""
        out_data = _forward(_swapaxes, self, axis1, axis2)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.swapaxes(grad, axis1, axis2))

        return Tensor._make(out_data, (self,), backward)

    @registered_op("getitem")
    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data.astype(np.int64)
        out_data = _forward(_getitem, self, index)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    @registered_op("sum")
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes by default); differentiable."""
        out_data = _forward(np.sum, self, axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, shape))

        return Tensor._make(out_data, (self,), backward)

    @registered_op("mean")
    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``; differentiable."""
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / count

    @registered_op("var")
    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance over ``axis``; differentiable."""
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    @registered_op("max")
    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; gradient splits evenly across ties."""
        out_data = _forward(np.max, self, axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out, axis)
            mask = (self.data == out).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * g)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise math
    # ------------------------------------------------------------------
    @registered_op("exp")
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = _forward(np.exp, self)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    @registered_op("log")
    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out_data = _forward(np.log, self)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    @registered_op("sqrt")
    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        out_data = _forward(np.sqrt, self)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    @registered_op("tanh")
    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = _forward(np.tanh, self)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    @registered_op("abs")
    def abs(self) -> "Tensor":
        """Elementwise absolute value (sign subgradient)."""
        out_data = _forward(np.abs, self)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    @registered_op("clip")
    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp to [low, high]; gradient passes only inside the range."""
        out_data = _forward(np.clip, self, low, high)

        def backward(grad: np.ndarray) -> None:
            inside = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)
            self._accumulate(grad * inside)

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


@registered_op("concatenate")
def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = _forward(np.concatenate, tensors, axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tensors, backward)


@registered_op("stack")
def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = _forward(np.stack, tensors, axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tensors, backward)


def _where(condition, a, b, *, out=None):
    return np.where(condition, a, b)


@registered_op("where")
def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select ``a`` where ``condition`` else ``b``."""
    a, b = as_tensor(a), as_tensor(b)
    condition = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    out_data = _forward(_where, condition, a, b)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * condition)
        b._accumulate(grad * ~condition if condition.dtype == bool else grad * (1 - condition))

    return Tensor._make(out_data, (a, b), backward)
