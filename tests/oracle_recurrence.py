"""The recurrences and the decoder composed from small tape records: the
references that `rnn_stack`, `decoder_loss` and `decode_step` are tested
against. Nothing here is used by the package itself.

`gru_sequence` is a fused GRU record (input terms of all steps by one GEMM
over the gates' input weights side by side, the recurrence on plain arrays
with the package's `logistic` and update h' = h + z * (cand - h),
hand-written BPTT) that the package's kernels are held to bitwise;
`step_sequence` composes the same recurrence from about twenty tape records
per step, with `reference_logistic` and h' = (1 - z) * h + z * cand, and is
its independent reference. `forced_loss` and
`decode_step` are the decoder's former chains of records. The primitives
`ones`, `matmul`, `add_row`, `concat_cols`, `concat_rows`, `add`, `mul`,
`sum_all`, `sigmoid`, `tanh`, `one_minus` and `cross_entropy` exist only
for these references and for the tests' losses, so they live here rather
than in `mmqa.tensor`; `tests/test_tensor.py` checks them.
"""

import numpy as np

from mmqa.errors import ShapeError, ValidationError
from mmqa.tensor import Tensor, _emit, logistic, take_rows
from mmqa.text import SOS


def ones(*shape):
    return Tensor(np.ones(shape))


def matmul(a, b):
    """Matrix product of an m*k and a k*n tensor."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    return _emit(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def add_row(m, r):
    """Add a 1*n row vector to every row of an m*n matrix."""
    if m.ndim != 2 or r.ndim != 2 or r.shape[0] != 1 or r.shape[1] != m.shape[1]:
        raise ShapeError(f"add_row shape mismatch: {m.shape} vs {r.shape}")
    return _emit(m.data + r.data, (m, r), lambda g: (g, g.sum(axis=0, keepdims=True)))


def concat_cols(*tensors):
    """Stack matrices along the feature axis; all must share the row count."""
    if len(tensors) < 2:
        raise ValidationError("concat_cols needs at least two tensors")
    rows = tensors[0].shape[0]
    for t in tensors:
        if t.ndim != 2 or t.shape[0] != rows:
            raise ShapeError(
                f"concat_cols row mismatch: {[tuple(t.shape) for t in tensors]}"
            )
    offsets = np.cumsum([0] + [t.shape[1] for t in tensors])

    def back(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(tensors)))

    return _emit(np.concatenate([t.data for t in tensors], axis=1), tensors, back)


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


def mul(a, b):
    """Elementwise product of two equally shaped tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _emit(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def sum_all(x):
    """Sum of every element, as a scalar (shape (1,)) tensor."""
    shape = x.shape
    return _emit(np.array([x.data.sum()]), (x,), lambda g: (np.full(shape, g.reshape(-1)[0]),))


def reference_logistic(x):
    """The logistic function 1/(1 + exp(-x)), stable on both tails.

    With e = exp(-|x|) this is 1/(1+e) for x >= 0 and e/(1+e) below, so
    no branch ever exponentiates a large positive number.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x):
    """Logistic function, computed stably on both tails."""
    y = reference_logistic(x.data)
    return _emit(y, (x,), lambda g: (g * y * (1.0 - y),))


def tanh(x):
    """Hyperbolic tangent elementwise."""
    y = np.tanh(x.data)
    return _emit(y, (x,), lambda g: (g * (1.0 - y * y),))


def one_minus(x):
    """1 - x elementwise."""
    return _emit(1.0 - x.data, (x,), lambda g: (-g,))


def cross_entropy(logits, targets):
    """Mean negative log-softmax of the target ids over T rows of logits."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy needs rank-2 logits, got {logits.shape}")
    t_count, vocab = logits.shape
    idx = np.asarray(targets, dtype=np.intp)
    if idx.ndim != 1 or idx.size != t_count:
        raise ValidationError(
            f"cross_entropy needs one target per logit row: {t_count} rows, {idx.size} targets"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise ValidationError(f"target id out of range for vocab {vocab}: {targets}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    probs = np.exp(log_probs)

    def back(g):
        grad = probs.copy()
        grad[np.arange(t_count), idx] -= 1.0
        return (grad * (g.reshape(-1)[0] / t_count),)

    return _emit(np.array([-log_probs[np.arange(t_count), idx].mean()]), (logits,), back)


def gru_sequence(cell, seq, h0):
    """A fused GRU record over an n*in sequence from the 1*h state `h0`;
    returns the n*h states, row t after input row t.

    The input terms of all steps take one GEMM with W_z | W_r | W_h, the
    recurrence runs on plain arrays and the backward is hand-written BPTT,
    whose input and weight gradients are one GEMM each.
    """
    if seq.ndim != 2 or seq.rows < 1 or seq.cols != cell.input_width:
        raise ShapeError(f"sequence {seq.shape} does not match cell input width "
                         f"{cell.input_width}")
    if h0.shape != (1, cell.hidden_width):
        raise ShapeError(
            f"initial state {h0.shape} does not match hidden width {cell.hidden_width}"
        )
    n, h = seq.rows, cell.hidden_width
    x = seq.data
    w, b, u_zr = cell.w.data, cell.b.data[0], cell.u.data
    u_h = cell.uh.data
    xw = x @ w + b
    xw_zr, xw_h = xw[:, :2 * h], xw[:, 2 * h:]
    gates = np.empty((n, 2 * h))  # z | r
    cand = np.empty((n, h))
    out = np.empty((n, h))
    state = initial = h0.data[0]
    for t in range(n):
        zr = gates[t] = logistic(xw_zr[t] + state @ u_zr)
        z = zr[:h]
        c = cand[t] = np.tanh(xw_h[t] + (zr[h:] * state) @ u_h)
        state = out[t] = state + z * (c - state)

    def back(g):
        prev = np.concatenate([initial[None, :], out[:-1]])
        z, r = gates[:, :h], gates[:, h:]
        keep = 1.0 - z
        to_cand = z * (1.0 - cand * cand)
        to_z = (cand - prev) * z * keep
        to_r = prev * r * (1.0 - r)
        da = np.empty((n, 3 * h))  # pre-activation gradients, z | r | cand
        dh = np.zeros(h)
        for t in range(n - 1, -1, -1):
            dh = dh + g[t]
            np.multiply(dh, to_z[t], out=da[t, :h])
            dac = np.multiply(dh, to_cand[t], out=da[t, 2 * h:])
            drh = dac @ u_h.T
            np.multiply(drh, to_r[t], out=da[t, h:2 * h])
            dh = dh * keep[t] + drh * r[t] + da[t, :2 * h] @ u_zr.T
        dw = x.T @ da
        db = da.sum(axis=0, keepdims=True)
        du_zr = prev.T @ da[:, :2 * h]
        du_h = (r * prev).T @ da[:, 2 * h:]
        return (da @ w.T, dw[:, :h], dw[:, h:2 * h], dw[:, 2 * h:],
                du_zr[:, :h], du_zr[:, h:], du_h,
                db[:, :h], db[:, h:2 * h], db[:, 2 * h:], dh[None, :])

    # the nine named weights, not the cell's owners, so a watched view's
    # gradient comes from a record that lists the view itself
    named = (cell.wz, cell.wr, cell.wh, cell.uz, cell.ur, cell.uh, cell.bz, cell.br, cell.bh)
    return _emit(out, (seq, *named, h0), back)


def gru_step(cell, x, h_prev):
    z = sigmoid(add(add(matmul(x, cell.wz), matmul(h_prev, cell.uz)), cell.bz))
    r = sigmoid(add(add(matmul(x, cell.wr), matmul(h_prev, cell.ur)), cell.br))
    cand = tanh(add(add(matmul(x, cell.wh), matmul(mul(r, h_prev), cell.uh)), cell.bh))
    return add(mul(one_minus(z), h_prev), mul(z, cand))


def step_sequence(cell, seq, h0):
    """`gru_sequence` as one chain of `gru_step` records per row."""
    h, out = h0, []
    for t in range(seq.rows):
        h = gru_step(cell, take_rows(seq, [t]), h)
        out.append(h)
    return concat_rows(*out)


def forced_loss(decoder, embedding, context, question, inputs, gold):
    """The decoder loss as the chain of records it replaced: the context
    copied to every step beside the step's embedding, two `gru_sequence`
    records, the projection and the cross-entropy."""
    steps = len(inputs)
    x = concat_cols(matmul(ones(steps, 1), context), take_rows(embedding.matrix, inputs))
    h1 = gru_sequence(decoder.l1, x, question)
    h2 = gru_sequence(decoder.l2, h1, Tensor(np.zeros((1, decoder.hidden_width))))
    return cross_entropy(add_row(matmul(h2, decoder.proj.w), decoder.proj.b), gold)


def decode_step(decoder, h1, h2, context, w_prev):
    """One decoding step as a chain of one-row records; returns the logits
    and both layers' 1*h states."""
    h1 = gru_sequence(decoder.l1, concat_cols(context, w_prev), h1)
    h2 = gru_sequence(decoder.l2, h1, h2)
    return add_row(matmul(h2, decoder.proj.w), decoder.proj.b), h1, h2


def teacher_forced_loss(decoder, embedding, context, question, gold):
    """Step-by-step teacher-forced decode; `gold` already ends in EOS."""
    h1 = question
    h2 = Tensor(np.zeros((1, decoder.hidden_width)))
    rows = []
    for token in [SOS] + list(gold[:-1]):
        x = concat_cols(context, embedding.row(token))
        h1 = gru_step(decoder.l1, x, h1)
        h2 = gru_step(decoder.l2, h1, h2)
        rows.append(add_row(matmul(h2, decoder.proj.w), decoder.proj.b))
    return cross_entropy(concat_rows(*rows), gold)
