"""Dense rank-1/2 tensors with tape-based reverse-mode differentiation.

All arithmetic is float64. A tensor only wraps its array and checks nothing:
data from outside is checked where it enters, a file by its loader and an
example's features by `Model.encode`. Operations run eagerly on numpy
arrays; when a Tape is active they are also recorded so that Tape.backward
can replay the chain rule in reverse execution order. With no tape active
the same functions work as plain forward math. The fused kernels that record
on a tape live in `encoders` and `model`; the only primitive here is the
embedding lookup `take_rows`, beside the plain-array `logistic` and the
finite-difference checker. A `ColumnView` is a tensor whose data is columns
of another tensor's array; the GRU cells' named weights are such views, and
the tape records their owners. Every tensor has an `owner` (a plain tensor
is its own) and a `part` of any array shaped like it. A tape keys its
gradient sinks by owner only, and every gradient of a tensor, recorded or
read, is its part of its owner's sink.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import fields
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError, ValidationError

__all__ = [
    "Tensor",
    "ColumnView",
    "Module",
    "Tape",
    "untaped",
    "logistic",
    "take_rows",
    "DEFAULT_EPS",
    "grad_checks",
]


class Tensor:
    """A dense real array of rank 1 or 2.

    `data` is a float64 ndarray, unchecked. A tensor carries no tape state:
    a tape refers to the tensors it recorded, never the other way round.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        # rank-2 only
        return self.data.shape[1]

    @property
    def owner(self) -> "Tensor":
        """The tensor whose array holds this one's data: itself."""
        return self

    def part(self, array: np.ndarray) -> np.ndarray:
        """Its part of `array`, shaped like its owner's data: all of it."""
        return array

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class ColumnView(Tensor):
    """Columns `lo:hi` of a rank-2 owner tensor, as a tensor of its own.

    `data` reads the owner's array on every use, so a write through either
    is seen by the other and rebinding the owner's `data` (as `Adam` does)
    moves the view with it; a view's own `data` cannot be rebound. `owner`
    is the owner tensor and `part` takes the view's columns of an array
    shaped like the owner's, such as its gradient.
    """

    __slots__ = ("owner", "columns")

    def __init__(self, owner: Tensor, lo: int, hi: int):
        self.owner = owner
        self.columns = slice(lo, hi)

    @property
    def data(self) -> np.ndarray:
        return self.owner.data[:, self.columns]

    def part(self, array: np.ndarray) -> np.ndarray:
        return array[:, self.columns]


class Module:
    """Base of a dataclass that holds trainable parameters.

    `parameters()` walks the dataclass fields in order: a Tensor field is
    named by its field name, a Module field contributes its own parameters
    under `<field>.`, and any other field is skipped.
    """

    def parameters(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                out[f.name] = value
            elif isinstance(value, Module):
                out.update((f"{f.name}.{k}", v) for k, v in value.parameters().items())
        return out


class _RowSparse:
    """A gradient that is zero outside some rows: `rows[i]` belongs to row
    `indices[i]` of an array of `shape`, and repeated indices add up.

    After TensorFlow's `IndexedSlices`: an embedding lookup's gradient costs
    the rows it touched, not the whole vocabulary.
    """

    __slots__ = ("shape", "indices", "rows")

    def __init__(self, shape, indices, rows):
        self.shape = shape
        self.indices = indices
        self.rows = rows

    def add_to(self, acc: np.ndarray) -> np.ndarray:
        np.add.at(acc, self.indices, self.rows)
        return acc

    def dense(self) -> np.ndarray:
        return self.add_to(np.zeros(self.shape))


_ACTIVE = threading.local()


def _active_tape():
    stack = getattr(_ACTIVE, "stack", None)
    return stack[-1] if stack else None


def _tape_stack() -> list:
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = _ACTIVE.stack = []
    return stack


@contextmanager
def untaped():
    """Run primitives as plain forward math even while a Tape is active.

    Nothing computed inside is recorded, so no gradient flows through it.
    """
    stack = _tape_stack()
    stack.append(None)
    try:
        yield
    finally:
        stack.pop()


class Tape:
    """Append-only list of executed primitives, in execution order.

    Each record is `(output, parents, backward_fn)`. Execution order is a
    topological order by construction, so the backward pass is a single
    reverse sweep. The records refer to tensors, and tensors to nothing on
    the tape, so any number of tapes, nested or on other threads, may share
    a tensor, and a finished tape is freed as soon as it is dropped.

    Gradients go only into sinks, by one rule: `sinks` maps owner tensors
    to arrays of their shape, and a leaf's gradient lands in its `part` of
    its `owner`'s sink. backward() adds it there (it never zeroes a sink),
    row by row for an embedding lookup; `watch` gives the owner a zero sink
    if it has none, and `wrt` reads the part. The records list a GRU cell's
    owner arrays, not its named views, so training adds whole owners.
    """

    def __init__(self, sinks: dict | None = None):
        self.records: list = []
        self.sinks = dict(sinks) if sinks else {}
        if any(t.owner is not t for t in self.sinks):
            raise ValidationError("a view's gradient lands in its owner's sink; "
                                  "key the sink by the owner")

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.stack.pop()
        return False

    def __len__(self) -> int:
        return len(self.records)

    def watch(self, tensor: Tensor) -> None:
        """Give the leaf `tensor`'s owner a zero sink, unless it has one."""
        # a sink ends the backward sweep at its tensor, so an output of this
        # tape would pass no gradient on to its own parents
        owner = tensor.owner
        if any(out is owner for out, _, _ in self.records):
            raise ValidationError("only a leaf can be watched, not an output of this tape")
        if owner not in self.sinks:
            self.sinks[owner] = np.zeros_like(owner.data)

    def wrt(self, tensor: Tensor) -> np.ndarray:
        """The sink that holds `tensor`'s gradient: its part of its owner's."""
        sink = self.sinks.get(tensor.owner)
        if sink is None:
            raise ValidationError("tensor has no sink on this tape; watch it first")
        return tensor.part(sink)

    def backward(self, loss: Tensor) -> "Tape":
        """Reverse-accumulate gradients of a scalar `loss` into the sinks.

        Returns the tape, so `tape.backward(loss).wrt(x)` reads x's gradient.
        """
        # interior gradients by the id of each record's output; the records
        # keep the outputs alive, so no id is reused while this runs
        grads = {id(out): None for out, _, _ in self.records}
        if id(loss) not in grads:
            raise ValidationError("loss is not recorded on this tape")
        if loss.data.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        grads[id(loss)] = np.ones_like(loss.data)
        sinks = self.sinks
        for out, parents, backward_fn in reversed(self.records):
            g = grads.pop(id(out))
            if g is None:
                continue
            for parent, contribution in zip(parents, backward_fn(g)):
                if contribution is None:
                    continue
                sink = sinks.get(parent)
                if sink is None:
                    key = id(parent)
                    if key in grads:
                        if type(contribution) is _RowSparse:
                            contribution = contribution.dense()
                        # backward functions may return shared arrays and
                        # views, so the first contribution is stored as is
                        # and later ones are summed out of place, never into it
                        if grads[key] is None:
                            grads[key] = contribution
                        else:
                            grads[key] = grads[key] + contribution
                        continue
                    sink = sinks.get(parent.owner)
                    if sink is None:
                        continue  # a leaf without a sink
                    sink = parent.part(sink)
                if type(contribution) is _RowSparse:
                    contribution.add_to(sink)
                else:
                    np.add(sink, contribution, out=sink)
        return self


def _emit(value: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """Wrap `value` as a tensor and, under an active tape, record it.

    `backward_fn(g)` maps the output gradient to one gradient (or None) per
    parent, in order. Every primitive, fused ones included, goes through here.
    """
    out = Tensor(value)
    tape = _active_tape()
    if tape is not None:
        tape.records.append((out, parents, backward_fn))
    return out


# ---------------------------------------------------------------------------
# Forward primitives


def logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Plain-array logistic function as 0.5 * tanh(0.5 * x) + 0.5, in four
    ufunc calls, written into `out` when it is given (`out` may be `x`).

    tanh saturates instead of overflowing, so nothing overflows and the
    result lies in [0, 1]: exactly 0 below about -38, exactly 1 above about
    37, and within 2.2e-16 (one ulp of 1) of 1/(1 + exp(-x)) everywhere.
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    np.multiply(out, 0.5, out=out)
    return np.add(out, 0.5, out=out)


def take_rows(m: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of `m` by index (repeats allowed); the gradient is
    row-sparse and scatter-adds."""
    if m.ndim != 2:
        raise ShapeError(f"take_rows needs rank 2, got shape {m.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValidationError("take_rows needs a non-empty index list")
    if min(indices) < 0 or max(indices) >= m.shape[0]:
        raise ValidationError(
            f"row index out of range for {m.shape[0]} rows: {indices}"
        )
    shape = m.shape
    return _emit(m.data[idx], (m,), lambda g: (_RowSparse(shape, idx, g),))


# ---------------------------------------------------------------------------
# Gradient checking

# the finite-difference step of a gradient check unless a run asks for another
DEFAULT_EPS = 1e-5


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = DEFAULT_EPS) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must be scalar-valued and is re-evaluated at coordinate-wise +/- eps
    perturbations of `x`, in C order, each written into `x.data` by index
    and restored, so a strided view (a column block, say) is perturbed where
    it lives. The error at each coordinate is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    return grad_checks(lambda: f(x), [x], eps)[0]


def grad_checks(f: Callable[[], Tensor], xs: Sequence[Tensor], eps: float = DEFAULT_EPS) -> list:
    """`grad_check` of the scalar `f()` with respect to each leaf in `xs`.

    One reverse pass that watches every leaf gives all the analytic
    gradients, so the checks of one function share its tape; each leaf's
    gradient is the one a pass watching it alone gives.
    """
    if not (1e-6 <= eps <= 1e-3):
        raise ValidationError(f"eps must lie in [1e-6, 1e-3], got {eps}")
    with Tape() as tape:
        for x in xs:
            tape.watch(x)
        y = f()
        if y.data.size != 1:
            raise ShapeError(f"grad_check needs a scalar-valued f, got shape {y.shape}")
        tape.backward(y)
    return [_max_error(f, x, tape.wrt(x), eps) for x in xs]


def _max_error(f: Callable[[], Tensor], x: Tensor, analytic: np.ndarray, eps: float) -> float:
    # indexing writes through any strides; a reshape of a strided array
    # would perturb a copy
    data = x.data
    numeric = np.zeros(data.shape)
    for i in np.ndindex(data.shape):
        orig = data[i]
        data[i] = orig + eps
        hi = f().item()
        data[i] = orig - eps
        lo = f().item()
        data[i] = orig
        numeric[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())
