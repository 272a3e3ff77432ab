"""Fusion, decoder initialization, greedy generation, and the loss modes."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracle_recurrence as oracle
from conftest import (
    FEATURE_WIDTHS,
    attach_random_features,
    corpus_vocab,
    overfit_dialogs,
    overfit_model,
)
from mmqa import gradcheck
from mmqa.augment import expand_per_turn
from mmqa.config import Config, TrainingConfig
from mmqa.encoders import GruCell
from mmqa.errors import ShapeError, ValidationError
from mmqa.model import (
    Affine,
    Decoder,
    Model,
    decode_step,
    decoder_loss,
    fuse,
    generate,
    init_decoder,
)
from mmqa.formats import checkpoint_from_model, model_from_checkpoint, save_checkpoint
from mmqa.tensor import ColumnView, Tape, Tensor, grad_check
from mmqa.text import EOS, PAD, SOS, UNK, EmbeddingTable, build_vocabulary, tokenize
from mmqa.training import train
from oracle_recurrence import mul, sum_all


def T(data):
    return Tensor(np.asarray(data, dtype=np.float64))


def zero_cell(width, hidden):
    z = lambda shape: Tensor(np.zeros(shape))
    return GruCell(z((width, 3 * hidden)), z((1, 3 * hidden)), z((hidden, 2 * hidden)),
                   z((hidden, hidden)))


def biased_decoder(bias, context_width=2, embed_width=2, hidden=2):
    """Decoder whose logits are exactly `bias` at every step."""
    vocab_size = len(bias)
    return Decoder(
        l1=zero_cell(context_width + embed_width, hidden),
        l2=zero_cell(hidden, hidden),
        proj=Affine(w=Tensor(np.zeros((hidden, vocab_size))),
                    b=T([list(map(float, bias))])),
    )


def random_decoder(seed=7, context_width=4, embed_width=3, hidden=4, vocab_size=9):
    rng = np.random.default_rng(seed)
    decoder = Decoder.create(rng, context_width, embed_width, hidden, vocab_size)
    embedding = EmbeddingTable.create(vocab_size, embed_width, rng)
    context = T(rng.normal(size=(1, context_width)))
    question = T(rng.normal(size=(1, hidden)))
    return decoder, embedding, context, question


class TestFuse:
    def test_fixed_order_concatenation(self):
        # slots flow | rgb | audio | summary | history, each a row of a matrix
        rows, history = T([[1.0, 1], [2.0, 2], [3.0, 3], [4.0, 4]]), T([[5.0, 5]])
        out = fuse((rows, 1), (rows, 2), (rows, 3), (rows, 0), (history, 0))
        np.testing.assert_array_equal(out.data, [[2, 2, 3, 3, 4, 4, 1, 1, 5, 5]])

    def test_zero_slots_and_gradient_rows(self):
        # an absent modality and an empty history take zero slots and no
        # gradient; each present slot's gradient lands on its own row
        rows = T([[1.0, 2], [3.0, 4], [5.0, 6]])
        with Tape() as tape:
            tape.watch(rows)
            out = fuse((rows, 2), None, None, (rows, 0), None)
            tape.backward(sum_all(mul(out, T([np.arange(1.0, 11.0)]))))
        np.testing.assert_array_equal(out.data, [[5, 6, 0, 0, 0, 0, 1, 2, 0, 0]])
        np.testing.assert_array_equal(tape.wrt(rows), [[7, 8], [0, 0], [1, 2]])
        assert len(tape.records[0][1]) == 1  # one parent per distinct matrix

    def test_width_mismatch_rejected(self):
        rows = T([[1.0, 1], [2.0, 2]])
        with pytest.raises(ShapeError):
            fuse((rows, 0), (T([[2.0]]), 0), None, (rows, 1), None)
        with pytest.raises(ShapeError):
            fuse((rows, 2), None, None, (rows, 0), None)
        with pytest.raises(ValidationError):
            fuse(None, None, None, None, None)

    def test_a_gru_weight_row_fuses_like_its_data(self):
        # a cell's named weights are column views of its joined arrays, and
        # `cols` is their width like any tensor's
        model, _ = gradcheck._toy_setup()
        for name, t in model.parameters().items():
            assert (t.rows, t.cols) == t.data.shape, name
        cell = model.decoder.l1
        out = fuse((cell.wz, 0), None, None, None, None)
        d = cell.hidden_width
        np.testing.assert_array_equal(out.data[0, :d], cell.wz.data[0])
        assert not out.data[0, d:].any()


class TestInitDecoder:
    def test_matching_width_uses_question_directly(self):
        decoder, _, _, _ = random_decoder(hidden=4)
        q = T([[1.0, 2.0, 3.0, 4.0]])
        state = init_decoder(decoder, q)
        np.testing.assert_array_equal(state.h1, q.data[0])
        np.testing.assert_array_equal(state.h2, np.zeros(4))


class TestDecodeStep:
    def test_zero_projection_leaves_only_bias(self):
        decoder = biased_decoder([0.0, 1.0, 2.0, 3.0, 4.0])
        state = init_decoder(decoder, T([[0.5, -0.5]]))
        logits, _ = decode_step(decoder, state, T([[1.0, 1.0]]), T([[2.0, 2.0]]))
        np.testing.assert_array_equal(logits.data, [[0, 1, 2, 3, 4]])

    def test_step_is_pure_and_returns_fresh_state(self):
        decoder, embedding, context, question = random_decoder()
        state = init_decoder(decoder, question)
        h1_before = state.h1.copy()
        first, next_state = decode_step(decoder, state, context, embedding.row(SOS))
        again, _ = decode_step(decoder, state, context, embedding.row(SOS))
        np.testing.assert_array_equal(first.data, again.data)
        np.testing.assert_array_equal(state.h1, h1_before)
        assert next_state is not state
        assert not np.array_equal(next_state.h1, state.h1)

    def test_state_advances_across_steps(self):
        decoder, embedding, context, question = random_decoder()
        state = init_decoder(decoder, question)
        logits1, state = decode_step(decoder, state, context, embedding.row(SOS))
        logits2, _ = decode_step(decoder, state, context, embedding.row(4))
        assert logits1.shape == (1, decoder.proj.w.cols)
        assert not np.array_equal(logits1.data, logits2.data)

    def test_context_term_is_computed_once_per_context(self):
        decoder, embedding, context, question = random_decoder()
        _, first = decode_step(decoder, init_decoder(decoder, question), context,
                               embedding.row(SOS))
        _, second = decode_step(decoder, first, context, embedding.row(4))
        assert first.xw1 is not None and second.xw1 is first.xw1


class TestGenerate:
    def embedding(self, vocab_size=8, width=2, seed=0):
        return EmbeddingTable.create(vocab_size, width, np.random.default_rng(seed))

    def test_immediate_eos_gives_empty_answer(self):
        decoder = biased_decoder([0, 0, 5, 0, 0, 0, 0, 0])
        out = generate(decoder, self.embedding(), T([[0.0, 0.0]]), T([[0.0, 0.0]]), 10)
        assert out == []

    def test_pad_and_sos_never_produced(self):
        decoder = biased_decoder([9, 8, -1, 0, 7, 0, 0, 0])
        out = generate(decoder, self.embedding(), T([[0.0, 0.0]]), T([[0.0, 0.0]]), 4)
        assert out == [4, 4, 4, 4]

    def test_tie_breaks_to_lowest_id(self):
        decoder = biased_decoder([0, 0, -1, 0, 6, 6, 0, 0])
        out = generate(decoder, self.embedding(), T([[0.0, 0.0]]), T([[0.0, 0.0]]), 3)
        assert out == [4, 4, 4]

    def test_max_len_validation(self):
        decoder = biased_decoder([0, 0, 1, 0])
        with pytest.raises(ValidationError):
            generate(decoder, self.embedding(4), T([[0.0, 0.0]]), T([[0.0, 0.0]]), 0)

    def test_matches_manual_greedy_loop(self):
        decoder, embedding, context, question = random_decoder(seed=31)
        for max_len in (1, 3, 8):
            state = init_decoder(decoder, question)
            w_prev = embedding.row(SOS)
            expected = []
            for _ in range(max_len):
                logits, state = decode_step(decoder, state, context, w_prev)
                row = logits.data[0].copy()
                row[PAD] = row[SOS] = -np.inf
                pick = int(np.argmax(row))
                if pick == EOS:
                    break
                expected.append(pick)
                w_prev = embedding.row(pick)
            assert generate(decoder, embedding, context, question, max_len) == expected


class TestTeacherForcedLoss:
    def test_missing_eos_is_appended(self):
        # `Model.loss` takes the answer's ids and EOS as gold, fed from SOS
        model, example = gradcheck._toy_setup()
        context, question = model.encode(example)
        gold = model.answer_ids(example) + [EOS]
        want = decoder_loss(model.decoder, model.embedding, context, question,
                            [SOS] + gold[:-1], gold)
        assert model.loss(example).item() == want.item()

    def test_rigged_model_reaches_near_zero(self):
        bias = [0.0] * 8
        bias[EOS] = 50.0
        decoder = biased_decoder(bias)
        loss = decoder_loss(decoder, self_embedding(), T([[0.0, 0.0]]), T([[0.0, 0.0]]),
                            [SOS], [EOS])
        assert loss.item() < 1e-6

    def test_empty_gold_rejected(self):
        decoder, embedding, context, question = random_decoder()
        with pytest.raises(ValidationError):
            decoder_loss(decoder, embedding, context, question, [], [])

    def test_loss_is_positive_scalar(self):
        decoder, embedding, context, question = random_decoder()
        loss = decoder_loss(decoder, embedding, context, question, [SOS, 4, 6, 5],
                            [4, 6, 5, EOS])
        assert loss.shape == (1,)
        assert loss.item() > 0.0

    @pytest.mark.parametrize("hidden", [4, 6])
    def test_matches_per_step_decode(self, hidden):
        decoder, embedding, context, _ = random_decoder(seed=21, hidden=hidden)
        rng = np.random.default_rng(22)
        for p in decoder.parameters().values():
            p.data[...] = rng.normal(0.0, 0.5, size=p.shape)
        question = T(rng.normal(size=(1, hidden)))
        gold = [4, 6, 5, 5, 7, EOS]
        inputs = [embedding.matrix, context, question, *decoder.parameters().values()]

        def run(loss_fn):
            with Tape() as tape:
                for x in inputs:
                    tape.watch(x)
                loss = loss_fn(decoder, embedding, context, question, gold)
                grads = tape.backward(loss)
            return loss.item(), [grads.wrt(x) for x in inputs]

        forced = lambda d, e, c, q, gold: decoder_loss(d, e, c, q, [SOS] + gold[:-1], gold)
        loss, grads = run(forced)
        want, want_grads = run(oracle.teacher_forced_loss)
        assert abs(loss - want) <= 1e-12
        for got, expected in zip(grads, want_grads):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


def random_setup(seed, context_width, embed_width, hidden, vocab_size):
    """A decoder with N(0, 0.5^2) weights and biases, its embedding, a
    context and a question as wide as its hidden layer."""
    rng = np.random.default_rng(seed)
    decoder = Decoder.create(rng, context_width, embed_width, hidden, vocab_size)
    embedding = EmbeddingTable.create(vocab_size, embed_width, rng)
    for p in (embedding.matrix, *decoder.parameters().values()):
        p.data[...] = rng.normal(0.0, 0.5, size=p.shape)
    return (decoder, embedding, T(rng.normal(size=(1, context_width))),
            T(rng.normal(size=(1, hidden))))


shapes = dict(seed=st.integers(0, 2**32 - 1), context_width=st.integers(1, 5),
              embed_width=st.integers(1, 4), hidden=st.integers(1, 4),
              vocab_size=st.integers(3, 7))


class TestDecoderLoss:
    """The one-record decoder loss and the plain-array step against the
    chains of records they replaced, in `oracle_recurrence`."""

    @settings(max_examples=40, deadline=None)
    @given(steps=st.integers(1, 6), data=st.data(), **shapes)
    def test_matches_the_chain_it_replaced(self, steps, data, seed, context_width,
                                           embed_width, hidden, vocab_size):
        decoder, embedding, context, question = random_setup(
            seed, context_width, embed_width, hidden, vocab_size)
        tokens = st.lists(st.integers(0, vocab_size - 1), min_size=steps, max_size=steps)
        inputs, gold = data.draw(tokens), data.draw(tokens)
        event(f"an input token repeats: {len(set(inputs)) < steps}")
        leaves = [embedding.matrix, context, question, *decoder.parameters().values()]

        def run(loss_fn):
            with Tape() as tape:
                for x in leaves:
                    tape.watch(x)
                loss = loss_fn(decoder, embedding, context, question, inputs, gold)
                tape.backward(loss)
            return loss.item(), [tape.wrt(x) for x in leaves], len(tape)

        loss, grads, records = run(decoder_loss)
        want, want_grads, _ = run(oracle.forced_loss)
        assert records == 1
        assert abs(loss - want) <= 1e-12
        for got, expected in zip(grads, want_grads):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(steps=st.integers(1, 4), data=st.data(), **shapes)
    def test_decode_step_matches_the_one_row_chain(self, steps, data, seed, context_width,
                                                   embed_width, hidden, vocab_size):
        decoder, embedding, context, question = random_setup(
            seed, context_width, embed_width, hidden, vocab_size)
        state = init_decoder(decoder, question)
        h1 = question
        h2 = Tensor(np.zeros((1, decoder.hidden_width)))
        for token in data.draw(st.lists(st.integers(0, vocab_size - 1),
                                        min_size=steps, max_size=steps)):
            logits, state = decode_step(decoder, state, context, embedding.row(token))
            want, h1, h2 = oracle.decode_step(decoder, h1, h2, context, embedding.row(token))
            np.testing.assert_allclose(logits.data, want.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.h1, h1.data[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.h2, h2.data[0], rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(steps=st.integers(1, 14), vocab_size=st.integers(3, 2999),
           scale=st.sampled_from([1e-3, 1.0, 30.0]), seed=st.integers(0, 2**32 - 1))
    def test_loss_keeps_the_bits_of_the_full_log_softmax(self, steps, vocab_size, scale, seed):
        # the loss reads log(total) only at the T targets; the former
        # expression subtracted it from all T x |V| entries first
        def former(logits, targets):
            shifted = logits - logits.max(axis=1, keepdims=True)
            total = np.exp(shifted).sum(axis=1, keepdims=True)
            rows = np.arange(len(targets))
            return -(shifted - np.log(total))[rows, targets].sum() / len(targets)

        rng = np.random.default_rng(seed)
        bias = rng.normal(scale=scale, size=vocab_size)
        targets = rng.integers(0, vocab_size, size=steps)
        decoder = biased_decoder(bias)
        embedding = EmbeddingTable.create(vocab_size, 2, rng)
        got = decoder_loss(decoder, embedding, T([[0.5, -0.5]]), T([[0.25, 0.75]]),
                           [SOS] * steps, list(targets)).item()
        assert got == former(np.tile(bias, (steps, 1)), targets)
        # and on rows that differ, the rewritten expression itself
        logits = rng.normal(scale=scale, size=(steps, vocab_size))
        shifted = logits - logits.max(axis=1, keepdims=True)
        total = np.exp(shifted).sum(axis=1, keepdims=True)
        rewritten = -(shifted[np.arange(steps), targets]
                      - np.log(total)[:, 0]).sum() / steps
        assert rewritten == former(logits, targets)

    def test_step_terms_follow_the_context(self):
        # a state made with one context recomputes the shared terms for another
        decoder, embedding, context, question = random_decoder(seed=41)
        _, state = decode_step(decoder, init_decoder(decoder, question), context,
                               embedding.row(SOS))
        other = T(context.data + 1.0)
        got, _ = decode_step(decoder, state, other, embedding.row(4))
        fresh = replace(state, context=None)
        want, _ = decode_step(decoder, fresh, other, embedding.row(4))
        np.testing.assert_array_equal(got.data, want.data)
        same, _ = decode_step(decoder, state, context, embedding.row(4))
        assert not np.array_equal(same.data, got.data)

    def test_input_validation(self):
        decoder, embedding, context, question = random_decoder()
        with pytest.raises(ValidationError):
            decoder_loss(decoder, embedding, context, question, [1, 4], [4])
        with pytest.raises(ValidationError):
            decoder_loss(decoder, embedding, context, question, [9], [4])
        with pytest.raises(ValidationError):
            decoder_loss(decoder, embedding, context, question, [1], [9])
        with pytest.raises(ShapeError):
            decoder_loss(decoder, embedding, T([[1.0, 2.0]]), question, [1], [4])
        with pytest.raises(ShapeError):
            decode_step(decoder, init_decoder(decoder, question), context, T([[1.0, 2.0]]))

    def test_malformed_previous_token_vector_is_named(self):
        # the context is (1, 4) and the embedding width 3: a rank-1 vector
        # and a one-too-wide one are both blamed on the token vector
        decoder, embedding, context, question = random_decoder()
        state = init_decoder(decoder, question)
        for w_prev in (T([1.0, 2.0, 3.0]), T([[1.0, 2.0, 3.0, 4.0]])):
            with pytest.raises(ShapeError, match=r"previous token vector .* \(1, 3\), the "
                                                 r"decoder's input width 7 less the context"):
                decode_step(decoder, state, context, w_prev)


def self_embedding():
    return EmbeddingTable.create(8, 2, np.random.default_rng(0))


def toy_loss(mode):
    """`Model.loss` of the `gradcheck` toy example under one mode: the loss
    and the gradient of every named parameter."""
    model, example = gradcheck._toy_setup()
    params = model.parameters()
    with Tape() as tape:
        for p in params.values():
            tape.watch(p)
        loss = model.loss(example, mode=mode)
        tape.backward(loss)
    return loss.item(), {name: tape.wrt(p) for name, p in params.items()}


class TestLossModes:
    """The modes of `Model.loss` on the `gradcheck` toy example."""

    def test_free_running_differs_from_teacher_forcing(self):
        free, tf = toy_loss("free"), toy_loss("tf")
        assert free[0] != tf[0]  # the picks are not the gold tokens
        assert all(np.isfinite(g).all() for g in free[1].values())


class TestModelAssembly:
    def test_text_only_parameter_names(self, text_model):
        names = set(text_model.parameters())
        assert len(names) == 83
        assert "embedding.matrix" in names
        assert "question_rnn.fwd.wz" in names
        assert "question_attn.conv2_b" in names
        assert "summary_attn.w_guide" in names
        assert "history_rnn.bwd.uh" in names
        assert "decoder.l1.wz" in names
        assert "decoder.proj.w" in names
        assert not any(n.startswith(("flow_", "rgb_", "audio_")) for n in names)

    def test_multimodal_parameter_names(self):
        vocab = corpus_vocab(overfit_dialogs())
        model = Model.create(np.random.default_rng(1), vocab,
                             embed_width=8, hidden_width=4,
                             flow_width=FEATURE_WIDTHS["flow"],
                             rgb_width=FEATURE_WIDTHS["rgb"],
                             audio_width=FEATURE_WIDTHS["audio"])
        names = set(model.parameters())
        assert len(names) == 143
        assert "flow_rnn.fwd.wh" in names and "audio_attn.w_out" in names

    def test_toy_parameters_keep_their_order_and_initial_values(self):
        # Checkpoints, gradient-check names and Adam's iteration order follow
        # this order, and every initial value follows the order of the random
        # draws in `Model.create`; the digest was recorded before the
        # encoders became one table, and must never move.
        gru = ["wz", "wr", "wh", "uz", "ur", "uh", "bz", "br", "bh"]
        rnn = lambda prefix: [f"{prefix}.{d}.{k}" for d in ("fwd", "bwd") for k in gru]
        expected = ["embedding.matrix", *rnn("question_rnn")]
        expected += [f"question_attn.{k}" for k in ("conv1_w", "conv1_b", "conv2_w", "conv2_b")]
        for stream in ("summary", "history", "flow", "rgb", "audio"):
            expected += [*rnn(f"{stream}_rnn"), f"{stream}_attn.w_guide", f"{stream}_attn.w_out"]
        expected += [f"decoder.l{n}.{k}" for n in (1, 2) for k in gru]
        expected += ["decoder.proj.w", "decoder.proj.b"]
        model, _ = gradcheck._toy_setup()
        params = model.parameters()
        assert list(params) == expected and len(expected) == 143
        digest = hashlib.sha256()
        for name, tensor in params.items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "89b0f936c258e62d994f0c7ee092114172ffa64afe776cfdf5963cb95afd6655"
        )

    def test_same_seed_same_parameters(self):
        vocab = corpus_vocab(overfit_dialogs())
        build = lambda: Model.create(np.random.default_rng(5), vocab,
                                     embed_width=8, hidden_width=4)
        a, b = build(), build()
        for name, tensor in a.parameters().items():
            assert np.array_equal(tensor.data, b.parameters()[name].data), name

    def test_encode_shapes_and_zero_slots(self, text_model, toy_examples):
        context, q_vec = text_model.encode(toy_examples[0])
        d = text_model.width
        assert d == 8
        assert context.shape == (1, 5 * d)
        assert q_vec.shape == (1, d)
        # disabled flow/rgb/audio slots are pinned to zero
        np.testing.assert_array_equal(context.data[:, :3 * d], np.zeros((1, 3 * d)))
        assert np.any(context.data[:, 3 * d:] != 0.0)

    def test_feature_locality_in_fused_context(self, toy_examples):
        vocab = corpus_vocab(overfit_dialogs())
        model = Model.create(np.random.default_rng(2), vocab,
                             embed_width=8, hidden_width=4,
                             flow_width=FEATURE_WIDTHS["flow"],
                             rgb_width=FEATURE_WIDTHS["rgb"],
                             audio_width=FEATURE_WIDTHS["audio"])
        example = toy_examples[0]
        attach_random_features([example], seed=50)
        before, _ = model.encode(example)
        example.flow = example.flow + 1.0
        after, _ = model.encode(example)
        d = model.width
        assert not np.array_equal(before.data[:, :d], after.data[:, :d])
        np.testing.assert_array_equal(before.data[:, d:], after.data[:, d:])

    def test_loss_mode_dispatch(self, text_model, toy_examples):
        example = toy_examples[0]
        tf = text_model.loss(example, mode="tf")
        assert tf.shape == (1,) and tf.item() > 0.0
        assert text_model.loss(example, mode="tf").item() == tf.item()
        assert np.isfinite(text_model.loss(example, mode="free").item())
        for mode in ("ss", "argmax"):
            with pytest.raises(ValidationError, match="unknown loss mode"):
                text_model.loss(example, mode=mode)

    def test_generate_emits_vocabulary_words(self, text_model, toy_examples):
        tokens = text_model.generate(toy_examples[0], max_len=6)
        assert len(tokens) <= 6
        for t in tokens:
            assert t in text_model.vocab
            assert t not in ("<pad>", "<sos>", "<eos>")

    @pytest.mark.parametrize("arch, fault", [
        ({"embed_width": 0}, "embed_width"),
        ({"hidden_width": 0}, "hidden_width"),
        ({"pooling": "sum"}, "pooling"),
        ({"audio_width": -2}, "audio_width"),
    ], ids=["arch0-embed_width", "arch2-hidden_width", "arch3-pooling", "arch4-audio_width"])
    def test_create_validates_the_architecture(self, arch, fault):
        vocab = corpus_vocab(overfit_dialogs())
        with pytest.raises(ValidationError, match=fault):
            Model.create(np.random.default_rng(3), vocab, **arch)

    @pytest.mark.parametrize("flow, error, match", [
        (np.array([[0.0, np.nan, 0.0], [0.0, 0.0, 0.0]]), ValidationError, "'toy': flow"),
        (np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]]), ValidationError, "'toy': flow"),
        (np.zeros(3), ShapeError, r"non-empty n\*in matrix"),
        (np.zeros((0, 3)), ShapeError, r"non-empty n\*in matrix"),
        (np.zeros((2, 3, 1)), ShapeError, r"non-empty n\*in matrix"),
    ], ids=["nan", "inf", "rank-1", "empty", "rank-3"])
    def test_encode_checks_the_features_it_is_given(self, flow, error, match):
        # features handed in through the API, not read from a file, are
        # checked where they enter: a non-finite one is named
        model, example = gradcheck._toy_setup()
        with pytest.raises(error, match=match):
            model.encode(replace(example, flow=flow))

    def test_toy_loss_records_few_tape_nodes(self):
        # A guard that does not depend on host speed: with the stacked
        # recurrences, one stacked attention, one fusion and one decoder
        # record the loss records 13 operations here; a per-step recurrence
        # recorded over 1,000.
        model, example = gradcheck._toy_setup()
        with Tape() as tape:
            model.loss(example)
        assert len(tape) <= 13

    def test_pick_pass_records_nothing(self):
        # free running picks its inputs on plain arrays, so it records what
        # teacher forcing records
        model, example = gradcheck._toy_setup()
        counts = {}
        for mode in ("tf", "free"):
            with Tape() as tape:
                model.loss(example, mode=mode)
            counts[mode] = len(tape)
        assert counts["free"] == counts["tf"]

    def test_records_list_the_cells_owners_not_their_views(self):
        # a record that listed a GRU cell's named views would still train
        # right, but every gradient would go into strided column adds
        model, example = gradcheck._toy_setup()
        owners = {id(p.owner) for p in model.parameters().values() if p.owner is not p}
        for mode in ("tf", "free"):
            with Tape() as tape:
                model.loss(example, mode=mode)
            parents = [p for _, listed, _ in tape.records for p in listed]
            assert not any(isinstance(p, ColumnView) for p in parents), mode
            assert owners <= {id(p) for p in parents}, mode

    def test_generate_records_nothing(self):
        model, example = gradcheck._toy_setup()
        with Tape() as tape:
            tokens = model.generate(example, max_len=4)
        assert len(tape) == 0
        assert tokens == model.generate(example, max_len=4)

    def test_each_history_sentence_adds_one_encode_record(self):
        # a sentence costs its embedding lookup and nothing more: it joins the
        # stacked recurrence, the stacked attention and the history rows
        model, example = gradcheck._toy_setup()
        pair = example.history[0]
        counts = []
        for turns in (1, 2, 3):
            example.history = [pair] * turns
            with Tape() as tape:
                model.encode(example)
            counts.append(len(tape))
        assert counts[1] - counts[0] == counts[2] - counts[1] == 2

    def test_every_recorded_primitive_is_grad_checked(self):
        # a record's primitive is the function whose local `back` it holds
        # (`decoder_loss.<locals>.back`); each needs a `primitive_checks` case
        model, example = gradcheck._toy_setup()
        recorded = set()
        for mode in ("tf", "free"):
            with Tape() as tape:
                model.loss(example, mode=mode)
            recorded |= {fn.__qualname__.split(".")[0] for _, _, fn in tape.records}
        checked = {name.split("/")[0] for name, _ in gradcheck.primitive_checks()}
        assert recorded - checked == set()

    def test_every_gradient_check_sees_a_nonzero_gradient(self):
        # a check whose analytic gradient is all zero, as with every ReLU
        # dead, reads error 0.0 and shows nothing
        largest = {}
        for name, f, x in gradcheck._primitive_cases():
            with Tape() as tape:
                tape.watch(x)
                largest[f"primitive/{name}"] = np.abs(tape.backward(f()).wrt(x)).max()
        model, example = gradcheck._toy_setup()
        params = model.parameters()
        with Tape() as tape:
            for p in params.values():
                tape.watch(p)
            tape.backward(model.loss(example, mode="tf"))
        largest.update((f"model/{name}", np.abs(tape.wrt(p)).max()) for name, p in params.items())
        assert [name for name, value in largest.items() if value == 0.0] == []

    def test_composed_checks_give_each_parameters_own_check(self, monkeypatch):
        # the shared reverse pass gives each parameter the error that a check
        # watching it alone gives, in parameter order
        names = ["embedding.matrix", "history_rnn.bwd.uz", "decoder.proj.b"]
        toy_setup = gradcheck._toy_setup

        def toy_subset():
            model, example = toy_setup()
            params = model.parameters()
            model.parameters = lambda: {name: params[name] for name in names}
            return model, example

        monkeypatch.setattr(gradcheck, "_toy_setup", toy_subset)
        model, example = toy_subset()
        loss = lambda _x: model.loss(example, mode="tf")
        want = [(name, grad_check(loss, p)) for name, p in model.parameters().items()]
        assert gradcheck.composed_checks() == want

    def test_answer_ids_resolve_in_vocabulary_words(self, text_model, toy_examples):
        ids = text_model.answer_ids(toy_examples[0])
        answer = toy_examples[0].answer
        assert ids == [text_model.vocab.id(t) for t in answer]

    def test_answer_ids_hold_no_control_id_but_unk(self, toy_examples):
        # words that spell control tokens are data: gold never holds PAD or
        # SOS, which greedy decoding cannot produce, nor an EOS mid-answer
        answer = tokenize("yes <sos> it is <eos> <pad> <unk>")
        vocab = build_vocabulary([answer])
        model = Model.create(np.random.default_rng(0), vocab, embed_width=8, hidden_width=4)
        ids = model.answer_ids(replace(toy_examples[0], answer=answer))
        assert not {PAD, SOS, EOS} & set(ids)
        assert ids == [vocab.id("yes"), UNK, vocab.id("it"), vocab.id("is"), UNK, UNK, UNK]


class TestEncodeWaves:
    """Wave 1 stacks every recurrence but the history stream's; wave 2 runs
    the history stream only when there is a history."""

    @staticmethod
    def record_groups(example):
        """The parameter groups (name prefixes) among each tape record's
        parents, for the records of one training loss."""
        model = overfit_model(corpus_vocab(overfit_dialogs()))
        attach_random_features([example], seed=5)
        names = {}
        for n, p in model.parameters().items():
            # a record lists a GRU cell's owners, which share its views' prefix
            names[id(p.owner if isinstance(p, ColumnView) else p)] = n
        with Tape() as tape:
            model.loss(example)
        return [sorted({names[id(p)].split(".")[0] for p in parents if id(p) in names})
                for _, parents, _ in tape.records]

    @staticmethod
    def recurrences(groups):
        return [g for g in groups if any(name.endswith("_rnn") for name in g)]

    def test_history_free_example_runs_no_second_wave(self):
        example = expand_per_turn(overfit_dialogs()[0])[0]
        assert example.history == []
        groups = self.record_groups(example)
        assert not any(name.startswith("history_") for g in groups for name in g)
        assert self.recurrences(groups) == [
            ["audio_rnn", "flow_rnn", "question_rnn", "rgb_rnn", "summary_rnn"]]

    def test_example_with_history_runs_second_wave(self):
        example = expand_per_turn(overfit_dialogs()[0])[1]
        assert len(example.history) == 1
        assert self.recurrences(self.record_groups(example)) == [
            ["audio_rnn", "flow_rnn", "question_rnn", "rgb_rnn", "summary_rnn"],
            ["history_rnn"]]


def gru_cells(model):
    """Every GruCell of a model: both directions of each encoder layer, then
    the decoder's two layers."""
    layers = [model.question_rnn, *(rnn for rnn, _ in model.streams.values())]
    return ([cell for layer in layers for cell in (layer.fwd, layer.bwd)]
            + [model.decoder.l1, model.decoder.l2])


class TestCellsAtRest:
    """Each cell's owner arrays are the storage of its named tensors: no
    call joins them, so no stale copy can be read."""

    @staticmethod
    def assert_at_rest(model):
        for cell in gru_cells(model):
            w, b, u = cell.w.data, cell.b.data, cell.u.data
            h = cell.hidden_width
            blocks = [(cell.wz, w, 0), (cell.wr, w, 1), (cell.wh, w, 2), (cell.bz, b, 0),
                      (cell.br, b, 1), (cell.bh, b, 2), (cell.uz, u, 0), (cell.ur, u, 1)]
            for named, joined, k in blocks:
                # the same memory, shape and strides: a view, not a copy
                block = joined[:, k * h:(k + 1) * h]
                assert named.data.__array_interface__ == block.__array_interface__

    def test_after_create(self):
        model, _ = gradcheck._toy_setup()
        self.assert_at_rest(model)

    def test_after_loading_a_checkpoint(self, tmp_path):
        model, _ = gradcheck._toy_setup()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, checkpoint_from_model(model), Config().hash())
        model.vocab.save(path + ".vocab")
        rebuilt, _ = model_from_checkpoint(path)
        self.assert_at_rest(rebuilt)
        for name, p in rebuilt.parameters().items():
            assert np.array_equal(p.data, model.parameters()[name].data), name

    def test_after_training(self, toy_examples):
        model = Model.create(np.random.default_rng(2), corpus_vocab(overfit_dialogs()),
                             embed_width=8, hidden_width=4)
        train(model, toy_examples[:4], toy_examples[4:5],
              TrainingConfig(max_epochs=1, batch_size=4, seed=0, max_generate_len=4))
        self.assert_at_rest(model)

    def test_writes_through_named_tensors_reach_the_next_loss(self):
        model, example = gradcheck._toy_setup()
        loss = model.loss(example).item()
        for cell in gru_cells(model):
            for named in (cell.wz, cell.wr, cell.wh, cell.uz, cell.ur,
                          cell.bz, cell.br, cell.bh):
                named.data[0, -1] += 0.25
                changed = model.loss(example).item()
                assert changed != loss
                loss = changed
