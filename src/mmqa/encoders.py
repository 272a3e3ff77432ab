"""Recurrent sequence encoders and the two attention mechanisms.

Every modality (question, summary, dialog history, flow, rgb, audio) runs a
bidirectional recurrent layer and is reduced to a single 1*D vector: the
question by a two-layer position-wise self-attention mask, everything else
by question-guided bilinear attention followed by pooling over positions.

The recurrence is fused: `gru_sequence` and `lstm_sequence` compute the
input projections of a whole sequence with one GEMM per gate, run the time
steps on plain numpy arrays, and record a single tape node whose backward is
hand-written backpropagation through time (the precomputed-input scheme of
Appleyard, Kocisky and Blunsom, 2016). `gru_step`, the decoder's step, is
the one-row case of `gru_sequence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError, ValidationError
from .tensor import (
    Module,
    Tensor,
    _emit,
    add_row,
    concat_cols,
    logistic,
    matmul,
    max_pool_rows,
    mean_rows,
    mul,
    relu,
    softmax_rows,
    transpose,
)

__all__ = [
    "GruCell",
    "LstmCell",
    "RecurrentLayer",
    "AttentionParams",
    "SelfAttentionParams",
    "gru_sequence",
    "lstm_sequence",
    "gru_step",
    "rnn_forward",
    "self_attend",
    "guided_attend",
]


def _uniform(rng: np.random.Generator, fan_in: int, shape) -> Tensor:
    # uniform [-k, k] with k = 1/sqrt(fan_in)
    k = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-k, k, size=shape), check=False)


@dataclass
class GruCell(Module):
    """Update/reset/candidate gate weights for one GRU direction."""

    wz: Tensor
    wr: Tensor
    wh: Tensor
    uz: Tensor
    ur: Tensor
    uh: Tensor
    bz: Tensor
    br: Tensor
    bh: Tensor

    @property
    def input_width(self) -> int:
        return self.wz.rows

    @property
    def hidden_width(self) -> int:
        return self.wz.cols

    @classmethod
    def create(cls, rng, input_width: int, hidden_width: int):
        w = lambda: _uniform(rng, input_width, (input_width, hidden_width))
        u = lambda: _uniform(rng, hidden_width, (hidden_width, hidden_width))
        b = lambda: Tensor(np.zeros((1, hidden_width)), check=False)
        return cls(w(), w(), w(), u(), u(), u(), b(), b(), b())


@dataclass
class LstmCell(Module):
    """Four-gate LSTM weights; forget bias starts at 1.0."""

    wi: Tensor
    wf: Tensor
    wo: Tensor
    wc: Tensor
    ui: Tensor
    uf: Tensor
    uo: Tensor
    uc: Tensor
    bi: Tensor
    bf: Tensor
    bo: Tensor
    bc: Tensor

    @property
    def input_width(self) -> int:
        return self.wi.rows

    @property
    def hidden_width(self) -> int:
        return self.wi.cols

    @classmethod
    def create(cls, rng, input_width: int, hidden_width: int):
        w = lambda: _uniform(rng, input_width, (input_width, hidden_width))
        u = lambda: _uniform(rng, hidden_width, (hidden_width, hidden_width))
        b = lambda v: Tensor(np.full((1, hidden_width), float(v)), check=False)
        return cls(
            w(), w(), w(), w(),
            u(), u(), u(), u(),
            b(0.0), b(1.0), b(0.0), b(0.0),
        )


@dataclass
class RecurrentLayer(Module):
    """A GRU or LSTM cell run in both directions over a sequence."""

    kind: str  # "gru" | "lstm"
    fwd: Module
    bwd: Module

    @property
    def output_width(self) -> int:
        return 2 * self.fwd.hidden_width

    @classmethod
    def create(cls, rng, kind: str, input_width: int, hidden_width: int):
        cell = {"gru": GruCell, "lstm": LstmCell}.get(kind)
        if cell is None:
            raise ValidationError(f"unknown cell kind {kind!r}; expected 'gru' or 'lstm'")
        return cls(kind, cell.create(rng, input_width, hidden_width),
                   cell.create(rng, input_width, hidden_width))


@dataclass
class AttentionParams(Module):
    """Weights of question-guided attention: bilinear guide plus output map."""

    w_guide: Tensor  # D x D
    w_out: Tensor    # 2D x D

    @classmethod
    def create(cls, rng, width: int):
        return cls(
            _uniform(rng, width, (width, width)),
            _uniform(rng, 2 * width, (2 * width, width)),
        )


@dataclass
class SelfAttentionParams(Module):
    """Two position-wise affine maps (1x1 convolutions over the feature axis)."""

    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor

    @classmethod
    def create(cls, rng, width: int):
        zero_row = lambda: Tensor(np.zeros((1, width)), check=False)
        return cls(
            _uniform(rng, width, (width, width)), zero_row(),
            _uniform(rng, width, (width, width)), zero_row(),
        )


def _check_sequence(cell, seq: Tensor, *states: Optional[Tensor]) -> None:
    if seq.ndim != 2 or seq.rows < 1:
        raise ShapeError(f"recurrent input must be a non-empty n*in matrix, got {seq.shape}")
    if seq.cols != cell.input_width:
        raise ShapeError(
            f"sequence width {seq.cols} does not match cell input width {cell.input_width}"
        )
    for state in states:
        if state is not None and state.shape != (1, cell.hidden_width):
            raise ShapeError(
                f"initial state {state.shape} does not match hidden width {cell.hidden_width}"
            )


def _initial(state: Optional[Tensor], hidden: int) -> np.ndarray:
    return np.zeros(hidden) if state is None else state.data[0]


# The input weights stay separate per gate: one GEMM each, so that a step of
# the decoder's wide first layer never copies its weights into one matrix.
def _input_terms(x: np.ndarray, ws) -> np.ndarray:
    """n*(gates*h) input terms, gate by gate."""
    return np.concatenate([x @ w for w in ws], axis=1)


def _input_grads(x: np.ndarray, ws, da: np.ndarray):
    """Gradients of the input terms' input and of each gate's weight."""
    h = ws[0].shape[1]
    parts = [da[:, k * h:(k + 1) * h] for k in range(len(ws))]
    dx = parts[0] @ ws[0].T
    for part, w in zip(parts[1:], ws[1:]):
        dx = dx + part @ w.T
    return dx, [x.T @ part for part in parts]


def gru_sequence(cell: GruCell, seq: Tensor, h0: Optional[Tensor] = None,
                 reverse: bool = False) -> Tensor:
    """Run a GRU over an n*in sequence; returns the n*h states as one tape node.

    Row t is the state after consuming input row t; with `reverse` the rows
    are consumed last to first. `h0` is the 1*h initial state (zero when
    omitted) and receives a gradient like every weight. Per step:
        z = sigmoid(x Wz + h Uz + bz),  r = sigmoid(x Wr + h Ur + br)
        cand = tanh(x Wh + (r * h) Uh + bh),  h' = (1 - z) * h + z * cand
    The input terms of all steps take one GEMM per gate, the recurrence runs
    on plain arrays and the backward is hand-written BPTT.
    """
    _check_sequence(cell, seq, h0)
    n, h = seq.rows, cell.hidden_width
    x = seq.data[::-1] if reverse else seq.data
    ws = (cell.wz.data, cell.wr.data, cell.wh.data)
    b = np.concatenate([cell.bz.data, cell.br.data, cell.bh.data], axis=1)[0]
    u_zr = np.concatenate([cell.uz.data, cell.ur.data], axis=1)
    u_h = cell.uh.data
    xw = _input_terms(x, ws) + b  # n x 3h: update, reset and candidate input terms
    xw_zr, xw_h = xw[:, :2 * h], xw[:, 2 * h:]
    gates = np.empty((n, 2 * h))  # z | r
    cand = np.empty((n, h))
    out = np.empty((n, h))
    state = initial = _initial(h0, h)
    for t in range(n):
        zr = gates[t] = logistic(xw_zr[t] + state @ u_zr)
        z = zr[:h]
        c = cand[t] = np.tanh(xw_h[t] + (zr[h:] * state) @ u_h)
        state = out[t] = (1.0 - z) * state + z * c
    prev = np.concatenate([initial[None, :], out[:-1]])
    rh = gates[:, h:] * prev

    def back(g):
        if reverse:
            g = g[::-1]
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
        dx, dws = _input_grads(x, ws, da)
        db = da.sum(axis=0, keepdims=True)
        du_zr = prev.T @ da[:, :2 * h]
        du_h = rh.T @ da[:, 2 * h:]
        grads = (
            dx[::-1] if reverse else dx, *dws,
            du_zr[:, :h], du_zr[:, h:], du_h,
            db[:, :h], db[:, h:2 * h], db[:, 2 * h:],
        )
        return grads if h0 is None else grads + (dh[None, :],)

    parents = (seq, cell.wz, cell.wr, cell.wh, cell.uz, cell.ur, cell.uh,
               cell.bz, cell.br, cell.bh)
    return _emit(out[::-1].copy() if reverse else out,
                 parents if h0 is None else parents + (h0,), back)


def lstm_sequence(cell: LstmCell, seq: Tensor, reverse: bool = False) -> Tensor:
    """Run an LSTM over an n*in sequence from zero states as one tape node.

    Returns the n*h hidden states; rows and `reverse` are as in
    `gru_sequence`. Per step:
        i, f, o = sigmoid(x W + h U + b) per gate,  g = tanh(x Wc + h Uc + bc)
        c' = f * c + i * g,  h' = o * tanh(c')
    """
    _check_sequence(cell, seq)
    n, h = seq.rows, cell.hidden_width
    x = seq.data[::-1] if reverse else seq.data
    ws = (cell.wi.data, cell.wf.data, cell.wo.data, cell.wc.data)
    u = np.concatenate([cell.ui.data, cell.uf.data, cell.uo.data, cell.uc.data], axis=1)
    b = np.concatenate([cell.bi.data, cell.bf.data, cell.bo.data, cell.bc.data], axis=1)[0]
    xw = _input_terms(x, ws) + b  # n x 4h: input, forget, output and candidate terms
    prev_h = np.empty((n, h))
    prev_c = np.empty((n, h))
    acts = np.empty((n, 4 * h))  # i | f | o | g
    tanh_c = np.empty((n, h))
    out = np.empty((n, h))
    state, memory = np.zeros(h), np.zeros(h)
    for t in range(n):
        prev_h[t], prev_c[t] = state, memory
        a = xw[t] + state @ u
        ifo = acts[t, :3 * h] = logistic(a[:3 * h])
        g = acts[t, 3 * h:] = np.tanh(a[3 * h:])
        memory = ifo[h:2 * h] * memory + ifo[:h] * g
        tc = tanh_c[t] = np.tanh(memory)
        state = out[t] = ifo[2 * h:] * tc

    def back(grad):
        if reverse:
            grad = grad[::-1]
        i, f, o, g = (acts[:, k * h:(k + 1) * h] for k in range(4))
        to_c = o * (1.0 - tanh_c * tanh_c)
        to_i = g * i * (1.0 - i)
        to_f = prev_c * f * (1.0 - f)
        to_o = tanh_c * o * (1.0 - o)
        to_g = i * (1.0 - g * g)
        da = np.empty((n, 4 * h))
        dh, dc = np.zeros(h), np.zeros(h)
        for t in range(n - 1, -1, -1):
            dh = dh + grad[t]
            dc = dc + dh * to_c[t]
            np.multiply(dc, to_i[t], out=da[t, :h])
            np.multiply(dc, to_f[t], out=da[t, h:2 * h])
            np.multiply(dh, to_o[t], out=da[t, 2 * h:3 * h])
            np.multiply(dc, to_g[t], out=da[t, 3 * h:])
            dh = da[t] @ u.T
            dc = dc * f[t]
        dx, dws = _input_grads(x, ws, da)
        du = prev_h.T @ da
        db = da.sum(axis=0, keepdims=True)
        blocks = lambda m: tuple(m[:, k * h:(k + 1) * h] for k in range(4))
        return (dx[::-1] if reverse else dx, *dws) + blocks(du) + blocks(db)

    parents = (seq, cell.wi, cell.wf, cell.wo, cell.wc,
               cell.ui, cell.uf, cell.uo, cell.uc,
               cell.bi, cell.bf, cell.bo, cell.bc)
    return _emit(out[::-1].copy() if reverse else out, parents, back)


def gru_step(cell: GruCell, x: Tensor, h_prev: Tensor) -> Tensor:
    """One GRU update on a 1*in input and 1*h previous state."""
    return gru_sequence(cell, x, h_prev)


def rnn_forward(layer: RecurrentLayer, seq: Tensor) -> Tensor:
    """Run the layer over an n*in sequence; returns n*2h.

    Row t concatenates the forward state after step t with the backward
    state produced at t (the backward pass consumes the reversed input).
    Initial states are zero. Each direction is one fused tape node.
    """
    run = gru_sequence if layer.kind == "gru" else lstm_sequence
    return concat_cols(run(layer.fwd, seq), run(layer.bwd, seq, reverse=True))


def self_attend(params: SelfAttentionParams, seq: Tensor) -> Tensor:
    """Masked mean of a sequence: two-layer ReLU mask, then mean, then ReLU."""
    a1 = relu(add_row(matmul(seq, params.conv1_w), params.conv1_b))
    mask = relu(add_row(matmul(a1, params.conv2_w), params.conv2_b))  # n x D
    return relu(mean_rows(mul(seq, mask)))


def _pool_rows(m: Tensor, pooling: str) -> Tensor:
    if pooling == "max":
        return max_pool_rows(m)
    if pooling == "average":
        return mean_rows(m)
    raise ValidationError(f"unknown pooling {pooling!r}; expected 'max' or 'average'")


def guided_attend(params: AttentionParams, seq: Tensor, question: Tensor,
                  pooling: str = "max") -> Tensor:
    """Question-guided attention over `seq`, pooled to 1*D.

    scores = softmax_rows(seq W_guide question^T), an n_s*n_q matrix; the
    output pools ReLU([scores^T seq ; question] W_out) over positions.
    """
    if seq.cols != question.cols:
        raise ShapeError(
            f"attention width mismatch: sequence {seq.shape} vs question {question.shape}"
        )
    if seq.rows < 1 or question.rows < 1:
        raise ShapeError("attention inputs must be non-empty")
    scores = softmax_rows(matmul(matmul(seq, params.w_guide), transpose(question)))
    context = matmul(transpose(scores), seq)  # n_q x D
    return _pool_rows(relu(matmul(concat_cols(context, question), params.w_out)), pooling)
