"""Per-step recurrence composed from tape primitives: the reference that the
fused `gru_sequence`, `lstm_sequence` and teacher-forced decoder are tested
against. Every step records about twenty small tape ops; nothing here is
used by the package itself.
"""

import numpy as np

from mmqa.tensor import (
    Tensor,
    add,
    add_row,
    concat_cols,
    concat_rows,
    cross_entropy,
    matmul,
    mul,
    one_minus,
    sigmoid,
    take_rows,
    tanh,
)
from mmqa.text import SOS


def gru_step(cell, x, h_prev):
    z = sigmoid(add(add(matmul(x, cell.w_z), matmul(h_prev, cell.u_z)), cell.b_z))
    r = sigmoid(add(add(matmul(x, cell.w_r), matmul(h_prev, cell.u_r)), cell.b_r))
    cand = tanh(add(add(matmul(x, cell.w_h), matmul(mul(r, h_prev), cell.u_h)), cell.b_h))
    return add(mul(one_minus(z), h_prev), mul(z, cand))


def lstm_step(cell, x, h_prev, c_prev):
    i = sigmoid(add(add(matmul(x, cell.w_i), matmul(h_prev, cell.u_i)), cell.b_i))
    f = sigmoid(add(add(matmul(x, cell.w_f), matmul(h_prev, cell.u_f)), cell.b_f))
    o = sigmoid(add(add(matmul(x, cell.w_o), matmul(h_prev, cell.u_o)), cell.b_o))
    g = tanh(add(add(matmul(x, cell.w_c), matmul(h_prev, cell.u_c)), cell.b_c))
    c = add(mul(f, c_prev), mul(i, g))
    return mul(o, tanh(c)), c


def _zeros(cell):
    return Tensor(np.zeros((1, cell.hidden_width)), check=False)


def gru_sequence(cell, seq, h0=None, reverse=False):
    """n*h states, row t after input row t, like the fused primitive."""
    order = range(seq.rows - 1, -1, -1) if reverse else range(seq.rows)
    h = _zeros(cell) if h0 is None else h0
    out = {}
    for t in order:
        h = out[t] = gru_step(cell, take_rows(seq, [t]), h)
    return concat_rows(*[out[t] for t in range(seq.rows)])


def lstm_sequence(cell, seq, reverse=False):
    order = range(seq.rows - 1, -1, -1) if reverse else range(seq.rows)
    h = c = _zeros(cell)
    out = {}
    for t in order:
        h, c = lstm_step(cell, take_rows(seq, [t]), h, c)
        out[t] = h
    return concat_rows(*[out[t] for t in range(seq.rows)])


def teacher_forced_loss(decoder, embedding, context, question, gold):
    """Step-by-step teacher-forced decode; `gold` already ends in EOS."""
    h1 = question
    if decoder.hidden_width > question.cols:
        pad = Tensor(np.zeros((1, decoder.hidden_width - question.cols)), check=False)
        h1 = concat_cols(question, pad)
    h2 = _zeros(decoder.layer2)
    rows = []
    for token in [SOS] + list(gold[:-1]):
        x = concat_cols(context, embedding.row(token))
        h1 = gru_step(decoder.layer1, x, h1)
        h2 = gru_step(decoder.layer2, h1, h2)
        rows.append(add_row(matmul(h2, decoder.proj_w), decoder.proj_b))
    return cross_entropy(concat_rows(*rows), gold)
