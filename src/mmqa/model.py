"""Early fusion, the two-layer GRU answer decoder, and the assembled model.

The five modality vectors (flow, rgb, audio, summary, history) concatenate
into a single context that is re-fed to the decoder at every step; the
question vector only initializes the decoder's first hidden layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .augment import DialogExample
from .config import ModelConfig
from .encoders import (
    AttentionParams,
    GruCell,
    RecurrentLayer,
    SelfAttentionParams,
    encode_features,
    encode_history,
    gru_sequence,
    gru_step,
    guided_attend,
    rnn_forward,
    self_attend,
)
from .errors import ShapeError, ValidationError
from .tensor import (
    Tensor,
    add_row,
    concat_cols,
    cross_entropy,
    matmul,
    ones,
    take_rows,
    untaped,
)
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
    "DecoderState",
    "Model",
    "fuse",
    "init_decoder",
    "decode_step",
    "generate",
    "teacher_forced_loss",
    "scheduled_sample_loss",
]


def fuse(flow: Tensor, rgb: Tensor, audio: Tensor, summary: Tensor,
         history: Tensor) -> Tensor:
    """Concatenate the five modality vectors, fixed order, into 1*5D."""
    widths = {t.cols for t in (flow, rgb, audio, summary, history)}
    if len(widths) != 1:
        raise ShapeError(f"fusion inputs must share one width, got {sorted(widths)}")
    return concat_cols(flow, rgb, audio, summary, history)


@dataclass
class Decoder:
    """Two stacked unidirectional GRU layers plus a vocabulary projection."""

    layer1: GruCell  # input width 5D + d_w
    layer2: GruCell  # input width h_dec
    proj_w: Tensor   # h_dec x |V|
    proj_b: Tensor   # 1 x |V|

    @property
    def hidden_width(self) -> int:
        return self.layer1.hidden_width

    @property
    def vocab_size(self) -> int:
        return self.proj_w.cols

    @classmethod
    def create(cls, rng, context_width: int, embed_width: int, hidden_width: int,
               vocab_size: int):
        k = 1.0 / np.sqrt(hidden_width)
        return cls(
            layer1=GruCell.create(rng, context_width + embed_width, hidden_width),
            layer2=GruCell.create(rng, hidden_width, hidden_width),
            proj_w=Tensor(rng.uniform(-k, k, size=(hidden_width, vocab_size)), check=False),
            proj_b=Tensor(np.zeros((1, vocab_size)), check=False),
        )

    def parameters(self) -> dict:
        out = {f"l1.{k}": v for k, v in self.layer1.parameters().items()}
        out.update({f"l2.{k}": v for k, v in self.layer2.parameters().items()})
        out["proj.w"] = self.proj_w
        out["proj.b"] = self.proj_b
        return out


@dataclass
class DecoderState:
    h1: Tensor
    h2: Tensor


def init_decoder(decoder: Decoder, question: Tensor) -> DecoderState:
    """Start layer 1 at the question vector (zero-padded); layer 2 at zero."""
    h = decoder.hidden_width
    d = question.cols
    if h < d:
        raise ValidationError(
            f"decoder hidden width {h} cannot hold the question vector of width {d}"
        )
    h1 = question if h == d else concat_cols(
        question, Tensor(np.zeros((1, h - d)), check=False)
    )
    return DecoderState(h1=h1, h2=Tensor(np.zeros((1, h)), check=False))


def decode_step(decoder: Decoder, state: DecoderState, context: Tensor,
                w_prev: Tensor):
    """One decoding step; the context rides along in every step's input."""
    x = concat_cols(context, w_prev)
    h1 = gru_step(decoder.layer1, x, state.h1)
    h2 = gru_step(decoder.layer2, h1, state.h2)
    logits = add_row(matmul(h2, decoder.proj_w), decoder.proj_b)
    return logits, DecoderState(h1=h1, h2=h2)


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
    w_prev = embedding.row(SOS)
    out: list[int] = []
    for _ in range(max_len):
        logits, state = decode_step(decoder, state, context, w_prev)
        token = _greedy_pick(logits)
        if token == EOS:
            break
        out.append(token)
        w_prev = embedding.row(token)
    return out


def _normalize_gold(gold) -> list[int]:
    if not gold:
        raise ValidationError("gold token sequence must be non-empty")
    gold = [int(t) for t in gold]
    if gold[-1] != EOS:
        gold = gold + [EOS]
    return gold


def _forced_loss(decoder: Decoder, embedding: EmbeddingTable, context: Tensor,
                 question: Tensor, inputs: list[int], gold: list[int]) -> Tensor:
    """Mean cross-entropy of `gold` when step t is fed token `inputs[t]`.

    All inputs are known up front, so each decoder layer runs as one fused
    sequence and the vocabulary projection is a single T*h by h*|V| product.
    """
    state = init_decoder(decoder, question)
    steps = len(inputs)
    x = concat_cols(matmul(ones(steps, 1), context), take_rows(embedding.matrix, inputs))
    h1 = gru_sequence(decoder.layer1, x, state.h1)
    h2 = gru_sequence(decoder.layer2, h1, state.h2)
    logits = add_row(matmul(h2, decoder.proj_w), decoder.proj_b)
    return cross_entropy(logits, gold)


def teacher_forced_loss(decoder: Decoder, embedding: EmbeddingTable,
                        context: Tensor, question: Tensor, gold) -> Tensor:
    """Mean cross-entropy with every step fed the previous gold token."""
    gold = _normalize_gold(gold)
    return _forced_loss(decoder, embedding, context, question, [SOS] + gold[:-1], gold)


def scheduled_sample_loss(decoder: Decoder, embedding: EmbeddingTable,
                          context: Tensor, question: Tensor, gold,
                          p_model: float, rng: np.random.Generator) -> Tensor:
    """Cross-entropy where each step past the first may feed the model's own
    previous greedy pick instead of the gold token, with probability p_model.

    The picks come from an untaped step-by-step decode (they are argmaxes,
    so no gradient flows through them); the loss is then the teacher-forced
    loss over the chosen inputs. p_model=0 consumes the same random draws
    but always picks gold, so it is bit-identical to the teacher-forced
    loss; p_model=1 runs free.
    """
    if not (0.0 <= p_model <= 1.0):
        raise ValidationError(f"p_model must lie in [0, 1], got {p_model}")
    gold = _normalize_gold(gold)
    inputs = [SOS]
    with untaped():
        state = init_decoder(decoder, question)
        for t in range(1, len(gold)):
            logits, state = decode_step(decoder, state, context, embedding.row(inputs[-1]))
            use_model = rng.random() < p_model
            inputs.append(_greedy_pick(logits) if use_model else gold[t - 1])
    return _forced_loss(decoder, embedding, context, question, inputs, gold)


@dataclass
class Model:
    """All encoders, the embedding table, and the decoder, wired together."""

    vocab: Vocabulary
    embedding: EmbeddingTable
    question_rnn: RecurrentLayer
    question_attn: SelfAttentionParams
    summary_rnn: RecurrentLayer
    summary_attn: AttentionParams
    history_rnn: RecurrentLayer
    history_attn: AttentionParams
    decoder: Decoder
    cfg: ModelConfig
    flow_rnn: Optional[RecurrentLayer] = None
    flow_attn: Optional[AttentionParams] = None
    rgb_rnn: Optional[RecurrentLayer] = None
    rgb_attn: Optional[AttentionParams] = None
    audio_rnn: Optional[RecurrentLayer] = None
    audio_attn: Optional[AttentionParams] = None

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
        make_rnn = lambda width: RecurrentLayer.create(rng, cfg.cell, width, cfg.hidden_width)
        model = cls(
            vocab=vocab,
            embedding=EmbeddingTable.create(len(vocab), cfg.embed_width, rng),
            question_rnn=make_rnn(cfg.embed_width),
            question_attn=SelfAttentionParams.create(rng, d),
            summary_rnn=make_rnn(cfg.embed_width),
            summary_attn=AttentionParams.create(rng, d),
            history_rnn=make_rnn(d),
            history_attn=AttentionParams.create(rng, d),
            decoder=Decoder.create(rng, 5 * d, cfg.embed_width, cfg.decoder_hidden,
                                   len(vocab)),
            cfg=cfg,
        )
        if cfg.flow_width > 0:
            model.flow_rnn = make_rnn(cfg.flow_width)
            model.flow_attn = AttentionParams.create(rng, d)
        if cfg.rgb_width > 0:
            model.rgb_rnn = make_rnn(cfg.rgb_width)
            model.rgb_attn = AttentionParams.create(rng, d)
        if cfg.audio_width > 0:
            model.audio_rnn = make_rnn(cfg.audio_width)
            model.audio_attn = AttentionParams.create(rng, d)
        return model

    def parameters(self) -> dict:
        """Flat name -> Tensor map over every trainable parameter."""
        out = {"embedding.matrix": self.embedding.matrix}
        groups = [
            ("question_rnn", self.question_rnn),
            ("question_attn", self.question_attn),
            ("summary_rnn", self.summary_rnn),
            ("summary_attn", self.summary_attn),
            ("history_rnn", self.history_rnn),
            ("history_attn", self.history_attn),
            ("flow_rnn", self.flow_rnn),
            ("flow_attn", self.flow_attn),
            ("rgb_rnn", self.rgb_rnn),
            ("rgb_attn", self.rgb_attn),
            ("audio_rnn", self.audio_rnn),
            ("audio_attn", self.audio_attn),
            ("decoder", self.decoder),
        ]
        for prefix, group in groups:
            if group is None:
                continue
            for name, tensor in group.parameters().items():
                out[f"{prefix}.{name}"] = tensor
        return out

    def _sentence_vector(self, tokens, q_tilde: Tensor) -> Tensor:
        """1*D vector for one history sentence, via the summary encoder."""
        embeds = embed_sentence(self.vocab, self.embedding, tokens)
        return guided_attend(self.summary_attn, rnn_forward(self.summary_rnn, embeds),
                             q_tilde, self.cfg.pooling)

    def _feature_vector(self, rnn, attn, frames, q_tilde: Tensor) -> Tensor:
        if rnn is None or frames is None:
            return Tensor(np.zeros((1, self.width)), check=False)
        return encode_features(rnn, attn, Tensor(np.asarray(frames, dtype=np.float64)),
                               q_tilde, self.cfg.pooling)

    def encode(self, example: DialogExample):
        """Encode one example; returns (context 1*5D, question vector 1*D)."""
        q_embeds = embed_sentence(self.vocab, self.embedding, example.question)
        q_tilde = rnn_forward(self.question_rnn, q_embeds)
        q_vec = self_attend(self.question_attn, q_tilde)

        s_embeds = embed_sentence(self.vocab, self.embedding, example.summary)
        summary = guided_attend(self.summary_attn,
                                rnn_forward(self.summary_rnn, s_embeds),
                                q_tilde, self.cfg.pooling)

        sentences = []
        for hq, ha in example.history:
            sentences.append(self._sentence_vector(hq, q_tilde))
            sentences.append(self._sentence_vector(ha, q_tilde))
        history = encode_history(self.history_rnn, self.history_attn, sentences,
                                 q_tilde, self.cfg.pooling)

        flow = self._feature_vector(self.flow_rnn, self.flow_attn, example.flow, q_tilde)
        rgb = self._feature_vector(self.rgb_rnn, self.rgb_attn, example.rgb, q_tilde)
        audio = self._feature_vector(self.audio_rnn, self.audio_attn, example.audio,
                                     q_tilde)
        return fuse(flow, rgb, audio, summary, history), q_vec

    def answer_ids(self, example: DialogExample) -> list[int]:
        return [resolve_token(self.vocab, t) for t in example.answer]

    def loss(self, example: DialogExample, mode: str = "tf",
             p_model: float = 0.2, rng: Optional[np.random.Generator] = None) -> Tensor:
        """Scalar training loss for one example under the given loss mode."""
        context, q_vec = self.encode(example)
        gold = self.answer_ids(example)
        if mode == "tf":
            return teacher_forced_loss(self.decoder, self.embedding, context, q_vec, gold)
        if mode == "ss":
            if rng is None:
                raise ValidationError("scheduled sampling requires a random generator")
            return scheduled_sample_loss(self.decoder, self.embedding, context, q_vec,
                                         gold, p_model, rng)
        if mode == "free":
            if rng is None:
                raise ValidationError("free-running loss requires a random generator")
            return scheduled_sample_loss(self.decoder, self.embedding, context, q_vec,
                                         gold, 1.0, rng)
        raise ValidationError(f"unknown loss mode {mode!r}; expected 'tf', 'ss' or 'free'")

    def generate(self, example: DialogExample, max_len: int = 20) -> list[str]:
        """Greedy answer tokens (as strings) for one example."""
        context, q_vec = self.encode(example)
        ids = generate(self.decoder, self.embedding, context, q_vec, max_len)
        return [self.vocab.token(i) for i in ids]
