"""Finite-difference verification of every primitive and the full model.

Each check compares reverse-mode gradients against central differences and
reports the max relative error. A primitive whose output is not a scalar is
checked through `_weighted`, the sum of its output times fixed random
weights: one vector-Jacobian product of the kernel. The composed check
differentiates one teacher-forced loss through all five encoders, the
fusion, and the decoder, parameter tensor by parameter tensor.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .augment import DialogExample
from .encoders import (
    AttentionParams,
    RecurrentLayer,
    SelfAttentionParams,
    guided_attend,
    guided_stack,
    rnn_stack,
    self_attend,
)
from .model import Decoder, Model, decoder_loss, fuse
from .tensor import DEFAULT_EPS, Tensor, _emit, grad_checks, take_rows
from .text import EmbeddingTable, build_vocabulary

__all__ = ["primitive_checks", "composed_checks", "TOLERANCE"]

TOLERANCE = 1e-4


def _smooth(rng, *shape) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0, size=shape))


def _weighted(out: Tensor, weights: np.ndarray) -> Tensor:
    """The scalar sum of `out` times the plain array `weights`, as one
    record: the checked function of every non-scalar primitive."""
    return _emit(np.array([(out.data * weights).sum()]), (out,), lambda g: (g[0] * weights,))


def _primitive_cases() -> list:
    """(name, scalar function of no arguments, input) for every
    differentiable primitive."""
    rng = np.random.default_rng(7)
    a = _smooth(rng, 3, 4)
    weights = rng.normal(0.0, 1.0, size=(3, 4))

    cases = [
        ("weighted", lambda: _weighted(a, weights), a),
        ("take_rows", lambda: _weighted(take_rows(a, [0, 2, 2, 1]), weights[[1, 0, 2, 2]]), a),
    ]
    # each group draws from a generator of its own, so that a change to one
    # group's draws moves no other group's values
    for seed, group in enumerate((_decoder_cases, _stack_cases, _attention_cases,
                                  _stacked_attention_cases)):
        cases += group(np.random.default_rng([7, seed]))
    return cases


def primitive_checks(eps: float = DEFAULT_EPS) -> list:
    """(name, max relative error) for every differentiable primitive; the
    consecutive cases of one loss share its reverse pass."""
    out = []
    for loss, cases in groupby(_primitive_cases(), key=lambda case: case[1]):
        names, _, inputs = zip(*cases)
        out += zip(names, grad_checks(loss, inputs, eps))
    return out


def _decoder_cases(rng) -> list:
    """The decoder loss on a toy decoder (context width 1, embedding width 1,
    hidden width 2, vocabulary 2), whose question is as wide as its hidden
    layer: one case per input and weight over three steps that feed one
    token twice, and a one-step case for the question, which enters through
    the initial state."""
    decoder = Decoder.create(rng, 1, 1, 2, 2)
    embedding = EmbeddingTable.create(2, 1, rng)
    for p in (embedding.matrix, *decoder.parameters().values()):
        p.data[...] = rng.normal(0.0, 0.5, size=p.shape)
    context, question = _smooth(rng, 1, 1), _smooth(rng, 1, 2)
    inputs = {"context": context, "question": question, "embedding": embedding.matrix,
              **decoder.parameters()}
    loss = lambda: decoder_loss(decoder, embedding, context, question, [1, 0, 0], [0, 1, 1])
    cases = [(f"decoder_loss/{name}", loss, x) for name, x in inputs.items()]
    one_step = lambda: decoder_loss(decoder, embedding, context, question, [1], [0])
    return cases + [("decoder_loss/t1/question", one_step, question)]


def _stack_cases(rng) -> list:
    """Stacked recurrences over ragged lengths (1, 3 and 4 rows): two items
    share one layer and the third has another input width. One case per
    input and per weight of both directions of the shared layer."""
    shared = RecurrentLayer.create(rng, 3, 2)
    for p in shared.parameters().values():
        p.data[...] = rng.normal(0.0, 0.5, size=p.shape)
    seqs = {"seq1": _smooth(rng, 1, 3), "seq3": _smooth(rng, 3, 3), "seq4": _smooth(rng, 4, 2)}
    items = [(shared, seqs["seq1"]), (shared, seqs["seq3"]),
             (RecurrentLayer.create(rng, 2, 2), seqs["seq4"])]
    weights = rng.normal(0.0, 1.0, size=(8, 4))
    loss = lambda: _weighted(rnn_stack(items), weights)
    return [(f"rnn_stack/{name}", loss, x)
            for name, x in {**seqs, **shared.parameters()}.items()]


def _attention_cases(rng) -> list:
    """Both fused attentions over a 4-row sequence and a 2-row question: one
    case per input and weight, guided attention under both poolings. The
    weights are drawn from N(0, 0.5^2), as with the recurrences, so that the
    ReLUs are not all dead and each case's gradient is non-zero."""
    draw = lambda *shape: Tensor(rng.normal(0.0, 0.5, size=shape))
    seq, question = _smooth(rng, 4, 3), _smooth(rng, 2, 3)
    self_params = SelfAttentionParams(draw(3, 3), draw(1, 3), draw(3, 3), draw(1, 3))
    guide_params = AttentionParams(draw(3, 3), draw(6, 3))
    weights = rng.normal(0.0, 1.0, size=(1, 3))
    loss = lambda: _weighted(self_attend(self_params, seq), weights)
    cases = [(f"self_attend/{name}", loss, x)
             for name, x in {"seq": seq, **self_params.parameters()}.items()]
    for pooling in ("max", "average"):
        loss = lambda pooling=pooling: _weighted(
            guided_attend(guide_params, seq, question, pooling), weights)
        cases += [(f"guided_attend/{pooling}/{name}", loss, x)
                  for name, x in {"seq": seq, "question": question,
                                  **guide_params.parameters()}.items()]
    return cases


def _stacked_attention_cases(rng) -> list:
    """Guided attention over ragged spans of one 6-row sequence (row 1, rows
    2-3 and rows 4-5; row 0 is in no span), where the first two spans share
    weights, under both poolings; then the fusion of rows of two matrices
    with two zero slots. One case per input and weight."""
    draw = lambda *shape: Tensor(rng.normal(0.0, 0.5, size=shape))
    seq, question = _smooth(rng, 6, 2), _smooth(rng, 2, 2)
    shared, other = AttentionParams(draw(2, 2), draw(4, 2)), AttentionParams(draw(2, 2), draw(4, 2))
    spans = [(shared, 1, 2), (shared, 2, 4), (other, 4, 6)]
    weights = rng.normal(0.0, 1.0, size=(3, 2))
    inputs = {"seq": seq, "question": question,
              **{f"shared.{k}": v for k, v in shared.parameters().items()},
              **{f"other.{k}": v for k, v in other.parameters().items()}}
    cases = []
    for pooling in ("max", "average"):
        loss = lambda pooling=pooling: _weighted(
            guided_stack(spans, seq, question, pooling), weights)
        cases += [(f"guided_stack/{pooling}/{name}", loss, x) for name, x in inputs.items()]
    rows, row = _smooth(rng, 3, 2), _smooth(rng, 1, 2)
    slot_weights = rng.normal(0.0, 1.0, size=(1, 10))
    loss = lambda: _weighted(fuse((rows, 2), None, (rows, 0), (row, 0), None), slot_weights)
    cases += [("fuse/rows", loss, rows), ("fuse/row", loss, row)]
    return cases


def _toy_setup():
    """A tiny full-modality model and one example exercising every module."""
    sentences = [
        ["what", "is", "shown"],
        ["a", "cat", "plays"],
        ["does", "it", "move"],
        ["yes", "it", "does"],
        ["someone", "films", "a", "cat"],
    ]
    vocab = build_vocabulary(sentences)
    rng = np.random.default_rng(13)
    model = Model.create(
        rng, vocab,
        embed_width=8,
        hidden_width=4,  # encoder outputs D = 8
        pooling="max",
        flow_width=3,
        rgb_width=3,
        audio_width=2,
    )
    example = DialogExample(
        video_id="toy",
        question=["does", "it", "move"],
        answer=["yes", "it", "does"],
        history=[(["what", "is", "shown"], ["a", "cat", "plays"])],
        summary=["someone", "films", "a", "cat"],
        flow=rng.normal(0.0, 1.0, size=(2, 3)),
        rgb=rng.normal(0.0, 1.0, size=(2, 3)),
        audio=rng.normal(0.0, 1.0, size=(3, 2)),
    )
    return model, example


def composed_checks(eps: float = DEFAULT_EPS) -> list:
    """(parameter name, max relative error) of one end-to-end loss, in
    `Model.parameters()` order; one reverse pass gives every analytic
    gradient."""
    model, example = _toy_setup()
    params = model.parameters()
    errors = grad_checks(lambda: model.loss(example, mode="tf"), list(params.values()), eps)
    return list(zip(params, errors))
