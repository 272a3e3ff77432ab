"""Early fusion, the two-layer GRU answer decoder, and the assembled model.

The five modality vectors (flow, rgb, audio, summary, history) are written
side by side into a single context by one `fuse` record, which reads each
vector as a row of the attention output that holds it; the context is
re-fed to the decoder at every step, and the question vector only
initializes the decoder's first hidden layer.

The context is the same at every step, so layer 1's input weights split
into context rows and embedding rows, and the context's input term is
computed once per sequence. `decoder_loss` takes a whole teacher-forced or
scheduled-sampling loss as one tape record with a hand-written backward;
`decode_step` decodes greedily on plain arrays and records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Optional

import numpy as np

from .augment import DialogExample
from .config import DEFAULT_GENERATE_LEN, DEFAULT_SS_PROBABILITY, FEATURES, LOSS_MODES, ModelConfig
from .encoders import (
    AttentionParams,
    GruCell,
    RecurrentLayer,
    SelfAttentionParams,
    gru_run,
    gru_step,
    guided_attend,
    guided_stack,
    rnn_forward,
    rnn_stack,
    self_attend,
)
from .errors import ShapeError, ValidationError
from .tensor import Module, Tensor, _emit, _RowSparse, take_rows, untaped
from .text import (
    EOS,
    PAD,
    SOS,
    EmbeddingTable,
    Vocabulary,
    embed_sentence,
    resolve_token,
)

__all__ = [
    "Decoder",
    "Model",
    "fuse",
    "init_decoder",
    "decode_step",
    "decoder_loss",
]


def fuse(flow, rgb, audio, summary, history) -> Tensor:
    """Write the five modality vectors side by side, fixed order, into 1*5D
    as one record.

    Each slot is a `(tensor, row)` pair that names one row of a matrix, or
    None for the zero vector of an absent modality or an empty history. The
    gradient of a slot lands on its row of its tensor.
    """
    slots = (flow, rgb, audio, summary, history)
    present = [(k, *slot) for k, slot in enumerate(slots) if slot is not None]
    if not present:
        raise ValidationError("fusion needs at least one present slot")
    widths = {t.cols for _, t, _ in present}
    if len(widths) != 1:
        raise ShapeError(f"fusion inputs must share one width, got {sorted(widths)}")
    d = widths.pop()
    for _, t, row in present:
        if not 0 <= row < t.rows:
            raise ShapeError(f"fusion row {row} is out of range for shape {t.shape}")
    out = np.zeros((1, len(slots) * d))
    for k, t, row in present:
        out[0, k * d:(k + 1) * d] = t.data[row]
    parents = tuple({id(t): t for _, t, _ in present}.values())

    def back(g):
        grads = {id(t): np.zeros(t.shape) for t in parents}
        for k, t, row in present:
            grads[id(t)][row] += g[0, k * d:(k + 1) * d]
        return tuple(grads.values())

    return _emit(out, parents, back)


@dataclass
class Affine(Module):
    """A linear map plus a bias row."""

    w: Tensor
    b: Tensor


@dataclass
class Decoder(Module):
    """Two stacked unidirectional GRU layers plus a vocabulary projection."""

    l1: GruCell     # input width 5D + d_w
    l2: GruCell     # input width h_dec
    proj: Affine    # h_dec x |V| weight, 1 x |V| bias

    @property
    def hidden_width(self) -> int:
        return self.l1.hidden_width

    @classmethod
    def create(cls, rng, context_width: int, embed_width: int, hidden_width: int,
               vocab_size: int):
        k = 1.0 / np.sqrt(hidden_width)
        return cls(
            l1=GruCell.create(rng, context_width + embed_width, hidden_width),
            l2=GruCell.create(rng, hidden_width, hidden_width),
            proj=Affine(
                w=Tensor(rng.uniform(-k, k, size=(hidden_width, vocab_size)), check=False),
                b=Tensor(np.zeros((1, vocab_size)), check=False),
            ),
        )


@dataclass
class DecoderState:
    """Both decoder layers' states as 1-D arrays, plus layer 1's context
    term (`_context_term`) and the decoder and context it belongs to; the
    first step computes it."""

    h1: np.ndarray
    h2: np.ndarray
    decoder: Optional[Decoder] = None
    context: Optional[Tensor] = None
    xw1: Optional[np.ndarray] = None


def init_decoder(decoder: Decoder, question: Tensor) -> DecoderState:
    """Start layer 1 at the question vector (zero-padded); layer 2 at zero."""
    return DecoderState(h1=_first_state(decoder, question), h2=np.zeros(decoder.hidden_width))


def _first_state(decoder: Decoder, question: Tensor) -> np.ndarray:
    h = decoder.hidden_width
    d = question.cols
    if h < d:
        raise ValidationError(
            f"decoder hidden width {h} cannot hold the question vector of width {d}"
        )
    h1 = np.zeros(h)
    h1[:d] = question.data[0]
    return h1


def _context_term(decoder: Decoder, context: Tensor, embed_width: int) -> np.ndarray:
    """Layer 1's input term of the context plus its biases, 3h: the context
    rows of its input weights are those left by the embedding's."""
    width = decoder.l1.input_width - embed_width
    if context.shape != (1, width):
        raise ShapeError(f"decoder context {context.shape} does not match (1, {width}), "
                         f"its input width {decoder.l1.input_width} less the "
                         f"embedding width {embed_width}")
    w1, b1, _ = decoder.l1.joined()
    return context.data[0] @ w1[:width] + b1


def decode_step(decoder: Decoder, state: DecoderState, context: Tensor,
                w_prev: Tensor):
    """One decoding step on plain arrays; the context rides along in every
    step's input. Returns the 1*|V| logits and the next state.

    Layer 1's context term is computed once per (decoder, context) pair and
    kept in the state, so a step multiplies only the embedding by layer 1's
    input weights, the rows past the context's.
    """
    l1, l2, cw = decoder.l1, decoder.l2, context.shape[-1]
    embed_width = l1.input_width - cw
    if w_prev.shape != (1, embed_width):
        raise ShapeError(f"previous token vector {w_prev.shape} does not match (1, {embed_width}), "
                         f"the decoder's input width {l1.input_width} less the "
                         f"context width {cw}")
    xw1 = state.xw1
    if state.decoder is not decoder or state.context is not context:
        xw1 = _context_term(decoder, context, embed_width)
    w1, _, u_zr1 = l1.joined()
    w2, b2, u_zr2 = l2.joined()
    h1 = gru_step(w_prev.data[0] @ w1[cw:] + xw1, state.h1, u_zr1, l1.uh.data)
    h2 = gru_step(h1 @ w2 + b2, state.h2, u_zr2, l2.uh.data)
    logits = h2 @ decoder.proj.w.data + decoder.proj.b.data
    return Tensor(logits, check=False), DecoderState(h1, h2, decoder, context, xw1)


def _greedy_pick(logits: Tensor) -> int:
    # PAD and SOS are never produced; first maximum wins ties (lowest id)
    row = logits.data[0].copy()
    row[PAD] = -np.inf
    row[SOS] = -np.inf
    return int(np.argmax(row))


def generate(decoder: Decoder, embedding: EmbeddingTable, context: Tensor,
             question: Tensor, max_len: int) -> list[int]:
    """Greedy decoding from SOS; stops at EOS (excluded) or `max_len` tokens."""
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")
    state = init_decoder(decoder, question)
    token = SOS
    out: list[int] = []
    for _ in range(max_len):
        logits, state = decode_step(decoder, state, context, _row(embedding, token))
        token = _greedy_pick(logits)
        if token == EOS:
            break
        out.append(token)
    return out


def _row(embedding: EmbeddingTable, token: int) -> Tensor:
    """A token's embedding as a 1*d_w tensor that no tape records."""
    return Tensor(embedding.matrix.data[token:token + 1], check=False)


def _normalize_gold(gold) -> list[int]:
    if not gold:
        raise ValidationError("gold token sequence must be non-empty")
    gold = [int(t) for t in gold]
    if gold[-1] != EOS:
        gold = gold + [EOS]
    return gold


def decoder_loss(decoder: Decoder, embedding: EmbeddingTable, context: Tensor,
                 question: Tensor, inputs, gold) -> Tensor:
    """Mean cross-entropy of `gold` when step t is fed token `inputs[t]`, as
    one tape record.

    Layer 1 starts at the zero-padded question and layer 2 at zero. Layer
    1's input weights split into context rows and embedding rows, so the
    context, the same at every step, takes one 1*3h product per sequence,
    and the embeddings one T-row GEMM (Appleyard et al.'s precomputed
    inputs). Both layers run with `gru_run`, and the vocabulary projection
    is one T*h by h*|V| product. The hand-written backward feeds the softmax
    cross-entropy gradient straight into the projection's, runs each
    layer's BPTT, and takes the gradients of the context and of the context
    rows from the column sums of layer 1's gate gradients. The embedding
    gradient is row-sparse.
    """
    l1, l2, proj = decoder.l1, decoder.l2, decoder.proj
    table = embedding.matrix
    h0 = _first_state(decoder, question)
    xw1 = _context_term(decoder, context, table.cols)
    steps, vocab = len(inputs), proj.w.cols
    if steps < 1 or len(gold) != steps:
        raise ValidationError(f"decoder_loss needs one gold token per input: "
                              f"{steps} inputs, {len(gold)} gold tokens")
    if min(inputs) < 0 or max(inputs) >= table.rows:
        raise ValidationError(f"input id out of range for {table.rows} embedding rows: {inputs}")
    if min(gold) < 0 or max(gold) >= vocab:
        raise ValidationError(f"target id out of range for vocab {vocab}: {gold}")
    idx, targets, rows = np.asarray(inputs, dtype=np.intp), np.asarray(gold), np.arange(steps)
    c, emb, cw = context.data[0], table.data[idx], context.cols
    w1, _, u_zr1 = l1.joined()
    w2, b2, u_zr2 = l2.joined()
    h1, back1 = gru_run(emb @ w1[cw:] + xw1, h0, u_zr1, l1.uh.data)
    h2, back2 = gru_run(h1 @ w2 + b2, np.zeros(h0.shape[0]), u_zr2, l2.uh.data)
    logits = h2 @ proj.w.data + proj.b.data
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = -(shifted[rows, targets] - np.log(total)[:, 0]).sum() / steps

    def back(g):
        d_logits = e / total
        d_logits[rows, targets] -= 1.0
        d_logits *= g[0] / steps
        da2, _, du_zr2, du_h2 = back2(d_logits @ proj.w.data.T)
        da1, dh0, du_zr1, du_h1 = back1(da2 @ w2.T)
        col = da1.sum(axis=0)
        dw1 = np.empty((cw + emb.shape[1], col.shape[0]))
        np.outer(c, col, out=dw1[:cw])
        np.matmul(emb.T, da1, out=dw1[cw:])
        return (_RowSparse(table.shape, idx, da1 @ w1[cw:].T), (col @ w1[:cw].T)[None, :],
                dh0[None, :question.cols], dw1, col[None, :], du_zr1, du_h1,
                h1.T @ da2, da2.sum(axis=0, keepdims=True), du_zr2, du_h2,
                h2.T @ d_logits, d_logits.sum(axis=0, keepdims=True))

    return _emit(np.array([loss]), (table, context, question, *l1.owners(), *l2.owners(),
                                    proj.w, proj.b), back)


def teacher_forced_loss(decoder: Decoder, embedding: EmbeddingTable,
                        context: Tensor, question: Tensor, gold) -> Tensor:
    """Mean cross-entropy with every step fed the previous gold token."""
    gold = _normalize_gold(gold)
    return decoder_loss(decoder, embedding, context, question, [SOS] + gold[:-1], gold)


def scheduled_sample_loss(decoder: Decoder, embedding: EmbeddingTable,
                          context: Tensor, question: Tensor, gold,
                          p_model: float, rng: np.random.Generator) -> Tensor:
    """Cross-entropy where each step past the first may feed the model's own
    previous greedy pick instead of the gold token, with probability p_model.

    The picks come from a step-by-step decode on plain arrays (they are
    argmaxes, so no gradient flows through them, and nothing is recorded);
    the loss is then the teacher-forced loss over the chosen inputs.
    p_model=0 consumes the same random draws but always picks gold, so it is
    bit-identical to the teacher-forced loss; p_model=1 runs free.
    """
    if not (0.0 <= p_model <= 1.0):
        raise ValidationError(f"p_model must lie in [0, 1], got {p_model}")
    gold = _normalize_gold(gold)
    inputs = [SOS]
    state = init_decoder(decoder, question)
    for t in range(1, len(gold)):
        logits, state = decode_step(decoder, state, context, _row(embedding, inputs[-1]))
        use_model = rng.random() < p_model
        inputs.append(_greedy_pick(logits) if use_model else gold[t - 1])
    return decoder_loss(decoder, embedding, context, question, inputs, gold)


@dataclass
class Model:
    """All encoders, the embedding table, and the decoder, wired together.

    `streams` holds the question-guided encoders, a bidirectional recurrent
    layer and its attention per stream: "summary" (which also encodes each
    history sentence), "history", then each enabled modality of FEATURES.
    """

    vocab: Vocabulary
    embedding: EmbeddingTable
    question_rnn: RecurrentLayer
    question_attn: SelfAttentionParams
    streams: dict  # name -> (RecurrentLayer, AttentionParams)
    decoder: Decoder
    cfg: ModelConfig

    @property
    def width(self) -> int:
        """Common 1*D output width of every modality encoder."""
        return self.question_rnn.output_width

    @classmethod
    def create(cls, rng: np.random.Generator, vocab: Vocabulary, **arch) -> "Model":
        """Build a freshly initialized model from `ModelConfig` fields given
        by keyword (omitted ones take their defaults); creation order is
        fixed so a given (seed, architecture) pair always yields the same
        parameters.

        `decoder_hidden=0` matches the decoder to the encoder output width,
        and `cfg` holds the resolved width. A feature width of 0 disables
        that modality: no parameters are created and its fused slot is
        pinned to the zero vector.
        """
        cfg = ModelConfig(**arch)
        cfg.validate()
        d = 2 * cfg.hidden_width
        cfg = replace(cfg, decoder_hidden=cfg.decoder_hidden or d)
        make_rnn = lambda width: RecurrentLayer.create(rng, width, cfg.hidden_width)
        stream = lambda width: (make_rnn(width), AttentionParams.create(rng, d))
        try:
            model = cls(
                vocab=vocab,
                embedding=EmbeddingTable.create(len(vocab), cfg.embed_width, rng),
                question_rnn=make_rnn(cfg.embed_width),
                question_attn=SelfAttentionParams.create(rng, d),
                streams={"summary": stream(cfg.embed_width), "history": stream(d)},
                decoder=Decoder.create(rng, 5 * d, cfg.embed_width, cfg.decoder_hidden,
                                       len(vocab)),
                cfg=cfg,
            )
            # drawn after the decoder: the other parameters' initial values
            # do not depend on which modalities are enabled
            for modality, width in cfg.feature_widths.items():
                if width > 0:
                    model.streams[modality] = stream(width)
        except (MemoryError, ValueError) as exc:  # numpy refuses the array sizes
            raise ValidationError(f"cannot allocate the model of {cfg}: {exc}") from None
        return model

    def parameters(self) -> dict:
        """Flat name -> Tensor map over every trainable parameter."""
        groups = [("embedding", self.embedding), ("question_rnn", self.question_rnn),
                  ("question_attn", self.question_attn)]
        for name, (rnn, attn) in self.streams.items():
            groups += [(f"{name}_rnn", rnn), (f"{name}_attn", attn)]
        groups.append(("decoder", self.decoder))
        return {f"{prefix}.{name}": tensor for prefix, group in groups
                for name, tensor in group.parameters().items()}

    def encode(self, example: DialogExample):
        """Encode one example; returns (context 1*5D, question vector 1*D).

        The recurrences run in two waves of `rnn_stack`. Wave 1 holds the
        question, the summary, every history sentence (through the summary
        stream's layer) and every present modality. One `guided_stack`
        attends every wave-1 item but the question on the packed output, one
        row per item. Wave 2 is the history stream over the sentence rows of
        those vectors, attended on its own; `fuse` reads each slot's row.

        An empty history and a disabled or absent modality encode as the
        zero vector and touch no parameters of their stream, so those
        receive no gradient from such an example; a history-free example
        runs no wave 2.
        """
        embed = lambda tokens: embed_sentence(self.vocab, self.embedding, tokens)
        summary_rnn, summary_attn = self.streams["summary"]
        # looked up question, summary, then sentences: the embedding's sink adds
        # their gradients in the reverse order, which fixes its rounding
        question, summary = embed(example.question), embed(example.summary)
        sentences = [embed(tokens) for pair in example.history for tokens in pair]
        present = [m for m in FEATURES
                   if m in self.streams and getattr(example, m) is not None]
        items = [(self.question_rnn, question), (summary_rnn, summary),
                 *((summary_rnn, seq) for seq in sentences),
                 *((self.streams[m][0], Tensor(getattr(example, m))) for m in present)]
        packed = rnn_stack(items)
        q_tilde = take_rows(packed, range(question.rows))
        q_vec = self_attend(self.question_attn, q_tilde)
        attns = [summary_attn] * (1 + len(sentences)) + [self.streams[m][1] for m in present]
        ends = list(accumulate(seq.rows for _, seq in items))
        spans = list(zip(attns, ends, ends[1:]))
        vectors = guided_stack(spans, packed, q_tilde, self.cfg.pooling)
        history = None
        if sentences:
            history_rnn, history_attn = self.streams["history"]
            states = rnn_forward(history_rnn, take_rows(vectors, range(1, 1 + len(sentences))))
            history = (guided_attend(history_attn, states, q_tilde, self.cfg.pooling), 0)
        rows = {m: (vectors, 1 + len(sentences) + k) for k, m in enumerate(present)}
        return fuse(*(rows.get(m) for m in FEATURES), (vectors, 0), history), q_vec

    def answer_ids(self, example: DialogExample) -> list[int]:
        return [resolve_token(self.vocab, t) for t in example.answer]

    def loss(self, example: DialogExample, mode: str = "tf",
             p_model: float = DEFAULT_SS_PROBABILITY,
             rng: Optional[np.random.Generator] = None) -> Tensor:
        """Scalar training loss for one example under one of the LOSS_MODES:
        teacher forcing, scheduled sampling with `p_model`, or free running."""
        if mode not in LOSS_MODES:
            raise ValidationError(f"unknown loss mode {mode!r}; expected one of {LOSS_MODES}")
        if mode != "tf" and rng is None:
            raise ValidationError(f"loss mode {mode!r} requires a random generator")
        context, q_vec = self.encode(example)
        gold = self.answer_ids(example)
        if mode == "tf":
            return teacher_forced_loss(self.decoder, self.embedding, context, q_vec, gold)
        return scheduled_sample_loss(self.decoder, self.embedding, context, q_vec, gold,
                                     p_model if mode == "ss" else 1.0, rng)

    def generate(self, example: DialogExample, max_len: int = DEFAULT_GENERATE_LEN) -> list[str]:
        """Greedy answer tokens (as strings) for one example."""
        with untaped():
            context, q_vec = self.encode(example)
            ids = generate(self.decoder, self.embedding, context, q_vec, max_len)
        return [self.vocab.token(i) for i in ids]
