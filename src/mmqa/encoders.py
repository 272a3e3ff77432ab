"""Recurrent sequence encoders and the two attention mechanisms.

Every modality (question, summary, dialog history, flow, rgb, audio) runs a
bidirectional GRU layer and is reduced to a single 1*D vector: the
question by a two-layer position-wise self-attention mask, everything else
by question-guided bilinear attention followed by pooling over positions.

The decoder's GRU runs on plain arrays: `gru_step` is one update from
given input terms, and `gru_run` runs it over the input terms of a whole
sequence, computed beforehand (the precomputed-input scheme of Appleyard,
Kocisky and Blunsom, 2016), and returns the hand-written backpropagation
through time that the decoder's one loss record calls. The GRU step is
written once: `gru_step`, `gru_run` and `rnn_stack` all call one in-place
update, `_update`, on 1-D or stacked operands; it updates the state as
h' = h + z * (cand - h) with the four-call `tensor.logistic`. Both
backward passes call one BPTT step, `_back_step`, the same way. The input
terms of a run, and in the backward its input and weight gradients, take
one GEMM each with the cell's owner `w`, W_z | W_r | W_h side by side;
every caller reads a cell's owner arrays in place. The backwards return
every weight gradient, and `rnn_stack` each run's input gradient, as an
unformed product of two factors (`tensor._Product`), which the tape forms
only where it lands: training forms a mini-batch's weight gradients
together at Adam's step, and no feature run's input gradient is formed.

A `GruCell` is its four owner tensors, which its one constructor takes:
W_z | W_r | W_h (in*3h), the three biases (1*3h), U_z | U_r (h*2h) and
U_h. The named tensors `wz` ... `bh` (U_h aside) are `ColumnView`s of the
owners, as the named weights of cuDNN's and PyTorch's RNNs are views of one
flat buffer (`RNNBase.flatten_parameters`). So no call joins anything, and
`Adam` lays the owners out in its one parameter vector whole. The tape
records list a cell's four owners, `w`, `b`, `u` and `uh`, and their
backwards return the joined gradients they compute, so each lands in one
contiguous block of the training gradient; a named view's gradient is read
as its columns of its owner's (`Tape.wrt`).

The encoders' recurrences are also stacked: `rnn_stack` runs both
directions of many (layer, sequence) items in one step loop over a stacked
state and BPTT loop, records one tape node, and returns one packed matrix
that holds the items' rows one after another, as the data of PyTorch's
`PackedSequence` does. This is the dynamic batching of TensorFlow Fold
(Looks, Herreshoff, Hutchins and Norvig, 2017) and DyNet's on-the-fly
operation batching (Neubig, Goldberg and Dyer, 2017) applied to one
example's graph. `Model.encode` calls it in two waves: the question, the
summary, every history sentence and every present modality first, then the
history stream, which reads the sentence vectors of wave 1. `rnn_forward`
is the one-item call.

The attentions are batched the same way: `guided_stack` attends row spans
of one matrix, each with its own weights, in one tape record, so one call
on wave 1's packed output reduces the summary, every sentence and every
modality; `guided_attend` is the one-span call. `self_attend` is one record
too. Each backward applies the chain rule of its products, ReLUs, softmax
and pooling one operation at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .tensor import ColumnView, Module, Tensor, _emit, _Product, logistic

__all__ = [
    "GruCell",
    "RecurrentLayer",
    "AttentionParams",
    "SelfAttentionParams",
    "gru_step",
    "gru_run",
    "rnn_forward",
    "rnn_stack",
    "self_attend",
    "guided_stack",
    "guided_attend",
]


def _draw(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    # uniform [-k, k] with k = 1/sqrt(fan_in)
    k = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-k, k, size=shape)


def _uniform(rng: np.random.Generator, fan_in: int, shape) -> Tensor:
    return Tensor(_draw(rng, fan_in, shape))


@dataclass
class GruCell(Module):
    """Update/reset/candidate gate weights for one GRU direction.

    The cell is its four owner tensors: W_z | W_r | W_h (`w`, in*3h), the
    biases b_z | b_r | b_h (`b`, 1*3h), U_z | U_r (`u`, h*2h) and U_h
    (`uh`). The named weights `wz` ... `bh` other than `uh` are
    `ColumnView`s of the owners, so an update of a named tensor in place is
    an update of its owner, and `parameters()` lists the nine names. The
    tape records that use the cell list its four owners (`owners()`),
    never the named views.
    """

    w: Tensor
    b: Tensor
    u: Tensor
    uh: Tensor

    _NAMES = ("wz", "wr", "wh", "uz", "ur", "uh", "bz", "br", "bh")

    def __post_init__(self):
        h, view = self.uh.rows, ColumnView
        w, b, u = self.w, self.b, self.u
        self.wz, self.wr, self.wh = view(w, 0, h), view(w, h, 2 * h), view(w, 2 * h, 3 * h)
        self.bz, self.br, self.bh = view(b, 0, h), view(b, h, 2 * h), view(b, 2 * h, 3 * h)
        self.uz, self.ur = view(u, 0, h), view(u, h, 2 * h)

    def parameters(self) -> dict:
        return {name: getattr(self, name) for name in self._NAMES}

    @property
    def input_width(self) -> int:
        return self.w.rows

    @property
    def hidden_width(self) -> int:
        return self.uh.rows

    def owners(self) -> tuple:
        """The four tensors that hold the cell, the parents a tape record
        lists for it, in this order: `w`, `b`, `u` and `uh`."""
        return self.w, self.b, self.u, self.uh

    @classmethod
    def create(cls, rng, input_width: int, hidden_width: int):
        # one draw of several matrices gives the values of as many draws in
        # a row, so W_z, W_r, W_h come in one draw and U_z, U_r in another,
        # each then joined side by side
        h = hidden_width
        w = _draw(rng, input_width, (3, input_width, h))
        u_zr = _draw(rng, h, (2, h, h))
        side_by_side = lambda a: Tensor(a.transpose(1, 0, 2).reshape(a.shape[1], -1))
        return cls(side_by_side(w), Tensor(np.zeros((1, 3 * h))),
                   side_by_side(u_zr), _uniform(rng, h, (h, h)))


@dataclass
class RecurrentLayer(Module):
    """A GRU run in both directions over a sequence.

    `widths` is (input width, hidden width), recorded when the layer is
    built, if both directions share it, and None otherwise; `rnn_stack`
    compares each item against it before any closer check.
    """

    fwd: GruCell
    bwd: GruCell

    def __post_init__(self):
        shapes = {(cell.input_width, cell.hidden_width) for cell in (self.fwd, self.bwd)}
        self.widths = shapes.pop() if len(shapes) == 1 else None

    @property
    def output_width(self) -> int:
        return 2 * self.fwd.hidden_width

    @classmethod
    def create(cls, rng, input_width: int, hidden_width: int):
        return cls(GruCell.create(rng, input_width, hidden_width),
                   GruCell.create(rng, input_width, hidden_width))


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
        zero_row = lambda: Tensor(np.zeros((1, width)))
        return cls(
            _uniform(rng, width, (width, width)), zero_row(),
            _uniform(rng, width, (width, width)), zero_row(),
        )


def _update(s, xw_zr, xw_h, u_zr, u_h, zr, rs, c, new) -> None:
    """One GRU update from the state `s`, each stage written in place: the
    gates z | r into `zr`, r * s into `rs`, the candidate into `c` and the
    new state into `new`, which may be `c`:
        z = sigmoid(xw_z + s U_z),  r = sigmoid(xw_r + s U_r)
        c = tanh(xw_h + (r * s) U_h),  new = s + z * (c - s)
    The operands are 1-D, or K runs stacked as K*1*width rows with K*h*2h
    and K*h*h weights."""
    h = s.shape[-1]
    np.matmul(s, u_zr, out=zr)
    zr += xw_zr
    logistic(zr, out=zr)
    np.multiply(zr[..., h:], s, out=rs)
    np.matmul(rs, u_h, out=c)
    c += xw_h
    np.tanh(c, out=c)
    np.subtract(c, s, out=new)
    new *= zr[..., :h]
    new += s


def _back_factors(gates, cand, prev):
    """The per-step factors of `_back_step` from a run's z | r gates, its
    candidates and the states before each step: (1 - z, z * (1 - cand^2),
    (cand - prev) * z * (1 - z), prev * r * (1 - r), r)."""
    h = cand.shape[-1]
    z, r = gates[..., :h], gates[..., h:]
    keep = 1.0 - z
    return keep, z * (1.0 - cand * cand), (cand - prev) * z * keep, prev * r * (1.0 - r), r


def _back_step(d, da, keep, to_cand, to_z, to_r, r, u_zr_t, u_h_t) -> np.ndarray:
    """One step of backpropagation through time: writes the gates'
    pre-activation gradients (z | r | cand) for the state gradient `d` into
    `da` and returns the previous state's gradient. The factors are one
    step's rows of `_back_factors`; `u_zr_t` and `u_h_t` are U_z | U_r and
    U_h transposed. The operands are 1-D, or K-row with K stacked weights."""
    h = d.shape[-1]
    np.multiply(d, to_z, out=da[..., :h])
    dac = np.multiply(d, to_cand, out=da[..., 2 * h:])
    drh = np.matmul(dac[..., None, :], u_h_t)[..., 0, :]
    np.multiply(drh, to_r, out=da[..., h:2 * h])
    return d * keep + drh * r + np.matmul(da[..., None, :2 * h], u_zr_t)[..., 0, :]


def gru_step(xw: np.ndarray, h: np.ndarray, u_zr: np.ndarray, u_h: np.ndarray) -> np.ndarray:
    """One GRU update on plain arrays; returns the new 1-D state.

    `xw` holds the input terms of the update, reset and candidate gates with
    their biases (3h), `h` the previous state (h), `u_zr` is U_z | U_r
    (h*2h) and `u_h` is U_h (`_update` gives the formulas). The stages are
    written into one array the step allocates.
    """
    n = h.shape[0]
    buf = np.empty(4 * n)  # z | r, r * h, then the candidate, which becomes the new state
    new = buf[3 * n:]
    _update(h, xw[:2 * n], xw[2 * n:], u_zr, u_h, buf[:2 * n], buf[2 * n:3 * n], new, new)
    return new


def gru_run(xw: np.ndarray, h0: np.ndarray, u_zr: np.ndarray, u_h: np.ndarray):
    """`gru_step` over the T rows of input terms `xw` (T*3h) from the state
    `h0`, keeping what backpropagation through time needs.

    Returns the T*h states (row t after input row t) and `back`, which maps
    their gradient to the pre-activation gradients of the gates (T*3h, update
    | reset | candidate, which are also the gradients of `xw`), the gradient
    of `h0` and those of U_z | U_r and U_h, the last two as unformed
    products (`tensor._Product`).
    """
    steps, h = xw.shape[0], h0.shape[0]
    gates = np.empty((steps, 2 * h))  # z | r
    cand = np.empty((steps, h))
    rh = np.empty((steps, h))  # r * the previous state
    states = np.empty((steps + 1, h))  # h0, then the state after each step
    states[0] = h0
    xw_zr, xw_h = xw[:, :2 * h], xw[:, 2 * h:]
    for t in range(steps):
        _update(states[t], xw_zr[t], xw_h[t], u_zr, u_h, gates[t], rh[t], cand[t], states[t + 1])

    def back(g):
        prev = states[:-1]
        keep, to_cand, to_z, to_r, r = _back_factors(gates, cand, prev)
        u_zr_t, u_h_t = u_zr.T, u_h.T
        da = np.empty((steps, 3 * h))
        dh = np.zeros(h)
        for t in range(steps - 1, -1, -1):
            dh = _back_step(dh + g[t], da[t], keep[t], to_cand[t], to_z[t], to_r[t], r[t],
                            u_zr_t, u_h_t)
        return da, dh, _Product(prev, da[:, :2 * h]), _Product(rh, da[:, 2 * h:])

    return states[1:], back


def _check_item(layer: RecurrentLayer, seq: Tensor, hidden: int) -> None:
    if seq.ndim != 2 or seq.rows < 1:
        raise ShapeError(f"recurrent input must be a non-empty n*in matrix, got {seq.shape}")
    for cell in (layer.fwd, layer.bwd):
        if seq.cols != cell.input_width:
            raise ShapeError(
                f"sequence width {seq.cols} does not match cell input width {cell.input_width}"
            )
        if cell.hidden_width != hidden:
            raise ShapeError(
                f"stacked layers must share one hidden width: {cell.hidden_width} vs {hidden}"
            )


def rnn_stack(items) -> Tensor:
    """Run each `(RecurrentLayer, seq)` item over its n_i*in_i sequence in
    both directions; returns the packed (sum n_i)*2h states as one tape node.

    The output holds the items' rows one after another, as the data of
    PyTorch's `PackedSequence` does: item i's rows are what
    `rnn_forward(layer_i, seq_i)` returns, forward states on the left and
    backward states on the right. `Model.encode` calls it in two waves:
    the question, summary, history sentences and modalities, then the
    history stream over wave 1's sentence vectors.

    Each item is checked by one comparison of its sequence's trailing shape
    and the stack's hidden width against the widths its layer recorded when
    it was built; only a mismatch runs the checks that name the fault.

    The K = 2 * len(items) runs (one per item and direction) share one step
    loop over a K*h state, longest run first, so the runs still going at
    step t are the first rows of the state and a run stops at its length.
    Each run's U weights are stacked into K*h*2h and K*h*h arrays and
    applied through `np.matmul`, one vector-matrix product per run: each
    step is one `_update` of the live runs' rows, written in place into
    per-run buffers, and each BPTT step one `_back_step` of the same rows.
    Each run keeps its own three GEMMs, each over
    its cell's W = W_z | W_r | W_h side by side: x W for the input terms,
    then da W^T for the input gradient and x^T da for the weight gradients.
    The BLAS behind numpy can round a row of a product differently when the
    product has more rows, and this way every number equals that of one
    fused GRU record over the run's rows in step order from a zero state
    (the reference `gru_sequence` of the tests), bitwise. Each run's input
    and its cell's four owners (`GruCell.owners`) are parents once per run,
    last item and direction first, so the tape adds them into a shared
    cell's sinks in the order that one record per direction did; each
    owner's gradient is one joined array (x^T da, the column sums of da,
    and the U_z | U_r and U_h products), which the tape adds into the
    owner's sink whole. The input gradient and the three products are
    returned unformed (`tensor._Product`): da W^T over the run's rows in
    reverse for a backward run, so a run over a leaf without a sink, such
    as a feature matrix, costs no GEMM. This is the dynamic batching
    of same-typed operations in one graph (Looks et al., 2017; Neubig,
    Goldberg and Dyer, 2017) on top of Appleyard et al.'s precomputed inputs.
    """
    if not items:
        raise ValidationError("rnn_stack needs at least one (layer, sequence) item")
    h = items[0][0].fwd.hidden_width
    runs = []  # (cell, input in step order, packed rows, packed columns, reverse)
    start = 0
    for layer, seq in items:
        x = seq.data
        if (*x.shape[1:], h) != layer.widths or not x.shape[0]:
            _check_item(layer, seq, h)
        rows = slice(start, start + x.shape[0])
        runs.append((layer.fwd, x, rows, slice(0, h), False))
        runs.append((layer.bwd, x[::-1], rows, slice(h, 2 * h), True))
        start += x.shape[0]
    k_runs = len(runs)
    lengths = [x.shape[0] for _, x, _, _, _ in runs]
    order = sorted(range(k_runs), key=lengths.__getitem__, reverse=True)
    slot = [0] * k_runs  # a run's row in the K*h state
    for s, k in enumerate(order):
        slot[k] = s
    steps = lengths[order[0]]
    live = []  # runs still going at step t: the first s + 1 slots until slot s ends
    for s in range(k_runs - 1, -1, -1):
        live += [s + 1] * (lengths[order[s]] - len(live))

    cells = [runs[k][0] for k in order]
    # the step loop's buffers keep a unit axis, so each step's batched
    # vector-matrix products write straight into them
    xw = np.zeros((steps, k_runs, 1, 3 * h))
    for k, (cell, x, _, _, _) in enumerate(runs):
        np.matmul(x, cell.w.data, out=xw[:lengths[k], slot[k], 0])
    # the biases also land on the steps after a run has ended, which are never read
    xw += np.array([c.b.data for c in cells])
    u_zr = np.array([c.u.data for c in cells])
    u_h = np.array([c.uh.data for c in cells])

    gates = np.zeros((steps, k_runs, 1, 2 * h))  # z | r
    cand = np.zeros((steps, k_runs, 1, h))
    rh = np.zeros((steps, k_runs, 1, h))  # r * the previous state
    states = np.zeros((steps + 1, k_runs, 1, h))  # zero, then the state after each step
    xw_zr, xw_h = xw[..., :2 * h], xw[..., 2 * h:]
    for t, b in enumerate(live):
        _update(states[t, :b], xw_zr[t, :b], xw_h[t, :b], u_zr[:b], u_h[:b],
                gates[t, :b], rh[t, :b], cand[t, :b], states[t + 1, :b])
    gates, cand, rh = gates[:, :, 0], cand[:, :, 0], rh[:, :, 0]
    prev, out = states[:-1, :, 0], states[1:, :, 0]
    packed = np.empty((start, 2 * h))
    for k, (_, _, rows, cols, reverse) in enumerate(runs):
        run_states = out[:lengths[k], slot[k]]
        packed[rows, cols] = run_states[::-1] if reverse else run_states

    def back(g):
        dout = np.zeros((steps, k_runs, h))
        for k, (_, _, rows, cols, reverse) in enumerate(runs):
            g_k = g[rows, cols]
            dout[:lengths[k], slot[k]] = g_k[::-1] if reverse else g_k
        keep, to_cand, to_z, to_r, r = _back_factors(gates, cand, prev)
        u_zr_t, u_h_t = u_zr.transpose(0, 2, 1), u_h.transpose(0, 2, 1)
        da = np.zeros((steps, k_runs, 3 * h))  # pre-activation gradients, z | r | cand
        dh = np.zeros((k_runs, h))
        for t in range(steps - 1, -1, -1):
            b = live[t]
            dh[:b] = _back_step(dh[:b] + dout[t, :b], da[t, :b], keep[t, :b], to_cand[t, :b],
                                to_z[t, :b], to_r[t, :b], r[t, :b], u_zr_t[:b], u_h_t[:b])
        grads = []
        for k in range(k_runs - 1, -1, -1):
            cell, x, _, _, reverse = runs[k]
            n, s = lengths[k], slot[k]
            da_k = da[:n, s]
            dx = _Product(da_k.T, cell.w.data.T, slice(None, None, -1) if reverse else None)
            grads += (dx, _Product(x, da_k), da_k.sum(axis=0, keepdims=True),
                      _Product(prev[:n, s], da_k[:, :2 * h]), _Product(rh[:n, s], da_k[:, 2 * h:]))
        return grads

    parents = []
    for layer, seq in reversed(items):
        parents += (seq, *layer.bwd.owners(), seq, *layer.fwd.owners())
    return _emit(packed, tuple(parents), back)


def rnn_forward(layer: RecurrentLayer, seq: Tensor) -> Tensor:
    """Run the layer over an n*in sequence; returns n*2h.

    Row t concatenates the forward state after step t with the backward
    state produced at t (the backward pass consumes the reversed input).
    Initial states are zero. This is the one-item `rnn_stack`.
    """
    return rnn_stack([(layer, seq)])


def self_attend(params: SelfAttentionParams, seq: Tensor) -> Tensor:
    """Masked mean of an n*D sequence as one tape record: ReLU(mean_rows(seq *
    mask)) with mask = ReLU(ReLU(seq C1 + c1) C2 + c2). `seq` is a parent
    twice, mask path first, so the tape sums its gradient as a chain of
    per-operation records would."""
    if seq.ndim != 2 or seq.cols != params.conv1_w.rows:
        raise ShapeError(f"self-attention input {seq.shape} does not match "
                         f"width {params.conv1_w.rows}")
    x, w1, w2 = seq.data, params.conv1_w.data, params.conv2_w.data
    pre1 = x @ w1 + params.conv1_b.data
    hidden = np.maximum(pre1, 0.0)
    pre2 = hidden @ w2 + params.conv2_b.data
    mask = np.maximum(pre2, 0.0)  # n x D
    mean = (x * mask).mean(axis=0, keepdims=True)

    def back(g):
        d_prod = np.repeat(g * (mean > 0.0), x.shape[0], axis=0) / x.shape[0]
        d_pre2 = d_prod * x * (pre2 > 0.0)
        d_pre1 = d_pre2 @ w2.T * (pre1 > 0.0)
        return (d_prod * mask, d_pre2.sum(axis=0, keepdims=True), _Product(hidden, d_pre2),
                d_pre1.sum(axis=0, keepdims=True), _Product(x, d_pre1), d_pre1 @ w1.T)

    return _emit(np.maximum(mean, 0.0), (seq, params.conv2_b, params.conv2_w,
                                         params.conv1_b, params.conv1_w, seq), back)


def guided_stack(spans, seq: Tensor, question: Tensor, pooling: str = "max") -> Tensor:
    """Question-guided attention over row spans of `seq`, one pooled 1*D row
    per span, as one tape record.

    Each span is `(AttentionParams, start, stop)`: its own weights (spans may
    share them) over rows start..stop-1 of `seq`; every span attends the
    same `question`. Output row i, and every gradient, is what
    `guided_attend(params_i, rows_i, question, pooling)` gives for span i,
    bitwise. `Model.encode` attends the summary, every history sentence and
    every present modality in one call on `rnn_stack`'s packed output.

    The softmax normalizes each sequence row over question positions, so it
    runs once over all spans' score rows one after another; ReLU and pooling
    run once over an S*n_q*D stack, since every span has the n_q question
    positions. Nothing is ragged there, so nothing is padded or masked. The
    products whose shapes depend on a span's length run per span on its own
    rows (numpy's BLAS rounds a row differently when a product of one row
    becomes a vector routine), and the products with W_out per run of
    consecutive spans that share weights. Each span's weights are parents
    once per span and `question` twice per span, last span first, so the
    tape sums them in the order of one record per span.
    """
    if pooling not in ("max", "average"):
        raise ValidationError(f"unknown pooling {pooling!r}; expected 'max' or 'average'")
    x, q = seq.data, question.data
    if x.ndim != 2 or q.ndim != 2 or x.shape[1] != q.shape[1]:
        raise ShapeError(f"attention width mismatch: sequence {x.shape} vs question {q.shape}")
    if not spans:
        raise ValidationError("guided_stack needs at least one (params, start, stop) span")
    n_spans, (n_q, d) = len(spans), q.shape
    q_t = q.T.copy()
    rows, at, guided = [], [], []  # per span: its rows of seq, of the scores, guided rows
    for params, start, stop in spans:
        if not 0 <= start < stop <= x.shape[0]:
            raise ShapeError(f"span {start}:{stop} is not a non-empty range of "
                             f"the {x.shape[0]} sequence rows")
        end = at[-1].stop if at else 0
        at.append(slice(end, end + stop - start))
        rows.append(x[start:stop])
        guided.append(rows[-1] @ params.w_guide.data)
    # (params, spans) of each run of consecutive spans that share weights
    cuts = [s for s in range(1, n_spans) if spans[s][0] is not spans[s - 1][0]]
    runs = [(spans[a][0], slice(a, b)) for a, b in zip([0, *cuts], [*cuts, n_spans])]
    scores = np.concatenate([g @ q_t for g in guided])
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)
    weights_t = weights.T.copy()
    joined = np.empty((n_spans, n_q, 2 * d))  # context | question
    joined[:, :, d:] = q
    for s, (cols, r) in enumerate(zip(at, rows)):
        np.matmul(weights_t[:, cols], r, out=joined[s, :, :d])
    pre = np.empty((n_spans, n_q, d))
    for params, run in runs:
        np.matmul(joined[run], params.w_out.data, out=pre[run])
    act = np.maximum(pre, 0.0)

    def back(g):
        if pooling == "max":
            d_act = np.zeros(act.shape)
            d_act[np.arange(n_spans)[:, None], act.argmax(axis=1), np.arange(d)] = g
        else:
            d_act = np.repeat(g[:, None, :], n_q, axis=1) / n_q
        d_pre = d_act * (pre > 0.0)
        d_joined = np.empty((n_spans, n_q, 2 * d))
        for params, run in runs:
            np.matmul(d_pre[run], params.w_out.data.T, out=d_joined[run])
        d_context = d_joined[:, :, :d]
        d_weights_t = np.empty(weights_t.shape)
        for s, (cols, r) in enumerate(zip(at, rows)):
            np.matmul(d_context[s], r.T, out=d_weights_t[:, cols])
        d_weights = d_weights_t.T
        d_scores = (d_weights - (d_weights * weights).sum(axis=1, keepdims=True)) * weights
        d_seq_context, d_seq_guided = np.zeros(x.shape), np.zeros(x.shape)
        weight_grads, question_grads = [], []
        for s in range(n_spans - 1, -1, -1):
            params, start, stop = spans[s]
            d_sc = d_scores[at[s]]
            d_guided = d_sc @ q_t.T
            # the transpose of a contiguous copy, as one span's record multiplies
            span_weights_t = weights[at[s]].T.copy()
            d_seq_context[start:stop] += span_weights_t.T @ d_context[s]
            d_seq_guided[start:stop] += d_guided @ params.w_guide.data.T
            weight_grads += (_Product(joined[s], d_pre[s]), _Product(rows[s], d_guided))
            question_grads += (d_joined[s, :, d:], (guided[s].T @ d_sc).T)
        return (*weight_grads, *question_grads, d_seq_context, d_seq_guided)

    parents = tuple(p for params, _, _ in reversed(spans) for p in (params.w_out, params.w_guide))
    pool = act.max if pooling == "max" else act.mean
    return _emit(pool(axis=1), (*parents, *(question,) * (2 * n_spans), seq, seq), back)


def guided_attend(params: AttentionParams, seq: Tensor, question: Tensor,
                  pooling: str = "max") -> Tensor:
    """Question-guided attention over `seq`, pooled to 1*D as one tape record.

    scores = softmax_rows(seq W_guide question^T), an n_s*n_q matrix; the
    output pools ReLU([scores^T seq ; question] W_out) over positions by the
    columnwise maximum (the gradient goes to the first maximal row) or mean.
    This is the one-span `guided_stack`: its backward keeps the contiguous
    transposes and column views of a chain of per-operation records, and
    `question` and `seq` are parents twice each, one contribution per
    product path, in the order of that chain's reverse sweep.
    """
    return guided_stack([(params, 0, seq.rows)], seq, question, pooling)
