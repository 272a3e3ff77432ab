"""Both attentions composed from per-operation tape records: the reference
that the fused `self_attend` and `guided_attend` are tested against. One
self-attention records nine operations and one guided attention ten;
nothing here is used by the package itself.

The primitives `relu`, `transpose`, `softmax_rows`, `mean_rows` and
`max_pool_rows` exist only for this reference, so they live here rather
than in `mmqa.tensor`; `tests/test_tensor.py` tests and grad-checks them.
"""

import numpy as np

from mmqa.errors import ShapeError, ValidationError
from mmqa.tensor import _emit
from oracle_recurrence import add_row, concat_cols, matmul, mul


def relu(x):
    """max(x, 0) elementwise; gradient is zero on the non-positive side."""
    xd = x.data
    return _emit(np.maximum(xd, 0.0), (x,), lambda g: (g * (xd > 0.0),))


def transpose(x):
    """Matrix transpose, as a contiguous copy."""
    if x.ndim != 2:
        raise ShapeError(f"transpose needs rank 2, got shape {x.shape}")
    return _emit(x.data.T.copy(), (x,), lambda g: (g.T,))


def softmax_rows(m):
    """Row-wise softmax with max subtraction for stability."""
    if m.ndim != 2:
        raise ShapeError(f"softmax_rows needs rank 2, got shape {m.shape}")
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def back(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return ((g - dot) * y,)

    return _emit(y, (m,), back)


def mean_rows(m):
    """Columnwise arithmetic mean, returned as a 1*n matrix."""
    if m.ndim != 2:
        raise ShapeError(f"mean_rows needs rank 2, got shape {m.shape}")
    n_rows = m.shape[0]
    return _emit(m.data.mean(axis=0, keepdims=True), (m,),
                 lambda g: (np.repeat(g, n_rows, axis=0) / n_rows,))


def max_pool_rows(m):
    """Columnwise maximum as a 1*n matrix; the gradient flows only to the
    first maximal row of each column."""
    if m.ndim != 2:
        raise ShapeError(f"max_pool_rows needs rank 2, got shape {m.shape}")
    argmax = m.data.argmax(axis=0)  # first occurrence on ties
    shape = m.shape

    def back(g):
        acc = np.zeros(shape)
        acc[argmax, np.arange(shape[1])] = g[0]
        return (acc,)

    return _emit(m.data.max(axis=0, keepdims=True), (m,), back)


def self_attend(params, seq):
    """Masked mean of a sequence: two-layer ReLU mask, then mean, then ReLU."""
    a1 = relu(add_row(matmul(seq, params.conv1_w), params.conv1_b))
    mask = relu(add_row(matmul(a1, params.conv2_w), params.conv2_b))  # n x D
    return relu(mean_rows(mul(seq, mask)))


def guided_attend(params, seq, question, pooling="max"):
    """softmax_rows(seq W_guide question^T) weights the sequence for each
    question position; ReLU([scores^T seq ; question] W_out) is pooled."""
    if pooling not in ("max", "average"):
        raise ValidationError(f"unknown pooling {pooling!r}")
    scores = softmax_rows(matmul(matmul(seq, params.w_guide), transpose(question)))
    context = matmul(transpose(scores), seq)  # n_q x D
    joined = relu(matmul(concat_cols(context, question), params.w_out))
    return max_pool_rows(joined) if pooling == "max" else mean_rows(joined)
