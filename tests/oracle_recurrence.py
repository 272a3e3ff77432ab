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
    z = sigmoid(add(add(matmul(x, cell.wz), matmul(h_prev, cell.uz)), cell.bz))
    r = sigmoid(add(add(matmul(x, cell.wr), matmul(h_prev, cell.ur)), cell.br))
    cand = tanh(add(add(matmul(x, cell.wh), matmul(mul(r, h_prev), cell.uh)), cell.bh))
    return add(mul(one_minus(z), h_prev), mul(z, cand))


def lstm_step(cell, x, h_prev, c_prev):
    i = sigmoid(add(add(matmul(x, cell.wi), matmul(h_prev, cell.ui)), cell.bi))
    f = sigmoid(add(add(matmul(x, cell.wf), matmul(h_prev, cell.uf)), cell.bf))
    o = sigmoid(add(add(matmul(x, cell.wo), matmul(h_prev, cell.uo)), cell.bo))
    g = tanh(add(add(matmul(x, cell.wc), matmul(h_prev, cell.uc)), cell.bc))
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
    h2 = _zeros(decoder.l2)
    rows = []
    for token in [SOS] + list(gold[:-1]):
        x = concat_cols(context, embedding.row(token))
        h1 = gru_step(decoder.l1, x, h1)
        h2 = gru_step(decoder.l2, h1, h2)
        rows.append(add_row(matmul(h2, decoder.proj.w), decoder.proj.b))
    return cross_entropy(concat_rows(*rows), gold)
