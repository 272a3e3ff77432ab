"""Per-step recurrence composed from tape primitives: the reference that the
fused `gru_sequence` and teacher-forced decoder are tested against. Every
step records about twenty small tape ops; nothing here is used by the
package itself.

The primitives `concat_rows`, `add`, `sigmoid`, `tanh` and `one_minus`
exist only for the references, so they live here rather than in
`mmqa.tensor`; `tests/test_tensor.py` checks them.
"""

import numpy as np

from mmqa.errors import ShapeError, ValidationError
from mmqa.tensor import (
    Tensor,
    _emit,
    add_row,
    concat_cols,
    cross_entropy,
    logistic,
    matmul,
    mul,
    take_rows,
)
from mmqa.text import SOS


def concat_rows(*tensors):
    """Stack matrices vertically; all must share the column count."""
    if len(tensors) < 1:
        raise ValidationError("concat_rows needs at least one tensor")
    cols = tensors[0].shape[1] if tensors[0].ndim == 2 else None
    for t in tensors:
        if t.ndim != 2 or t.shape[1] != cols:
            raise ShapeError(
                f"concat_rows column mismatch: {[tuple(t.shape) for t in tensors]}"
            )
    offsets = np.cumsum([0] + [t.shape[0] for t in tensors])

    def back(g):
        return tuple(g[offsets[i]:offsets[i + 1], :] for i in range(len(tensors)))

    return _emit(np.concatenate([t.data for t in tensors], axis=0), tensors, back)


def add(a, b):
    """Elementwise sum of two equally shaped tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def sigmoid(x):
    """Logistic function, computed stably on both tails."""
    y = logistic(x.data)
    return _emit(y, (x,), lambda g: (g * y * (1.0 - y),))


def tanh(x):
    """Hyperbolic tangent elementwise."""
    y = np.tanh(x.data)
    return _emit(y, (x,), lambda g: (g * (1.0 - y * y),))


def one_minus(x):
    """1 - x elementwise."""
    return _emit(1.0 - x.data, (x,), lambda g: (-g,))


def gru_step(cell, x, h_prev):
    z = sigmoid(add(add(matmul(x, cell.wz), matmul(h_prev, cell.uz)), cell.bz))
    r = sigmoid(add(add(matmul(x, cell.wr), matmul(h_prev, cell.ur)), cell.br))
    cand = tanh(add(add(matmul(x, cell.wh), matmul(mul(r, h_prev), cell.uh)), cell.bh))
    return add(mul(one_minus(z), h_prev), mul(z, cand))


def _zeros(cell):
    return Tensor(np.zeros((1, cell.hidden_width)), check=False)


def gru_sequence(cell, seq, h0):
    """n*h states from the 1*h state `h0`, row t after input row t, like the
    fused primitive."""
    h, out = h0, []
    for t in range(seq.rows):
        h = gru_step(cell, take_rows(seq, [t]), h)
        out.append(h)
    return concat_rows(*out)


def teacher_forced_loss(decoder, embedding, context, question, gold):
    """Step-by-step teacher-forced decode; `gold` already ends in EOS."""
    h1 = question
    if decoder.hidden_width > question.cols:
        pad = Tensor(np.zeros((1, decoder.hidden_width - question.cols)), check=False)
        h1 = concat_cols(question, pad)
    h2 = _zeros(decoder.l2)
    rows = []
    for token in [SOS] + list(gold[:-1]):
        x = concat_cols(context, embedding.row(token))
        h1 = gru_step(decoder.l1, x, h1)
        h2 = gru_step(decoder.l2, h1, h2)
        rows.append(add_row(matmul(h2, decoder.proj.w), decoder.proj.b))
    return cross_entropy(concat_rows(*rows), gold)
