"""Adam updates, token F1, the training loop, and corpus evaluation."""

import multiprocessing
import os
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from conftest import (attach_random_features, corpus_vocab, dying_generate, overfit_dialogs,
                      overfit_model)
from mmqa import gradcheck, model as model_module, tensor, training
from mmqa.augment import DialogExample, expand_basic, expand_per_turn
from mmqa.config import FEATURES, TrainingConfig
from mmqa.encoders import GruCell
from mmqa.errors import NumericalError, ShapeError, ValidationError
from mmqa.metrics import bleu, cider, rouge_l_corpus
from mmqa.model import Model
from mmqa.tensor import ColumnView, Tape, Tensor
from mmqa.text import PAD, SOS, build_vocabulary, resolve_token
from mmqa.training import Adam, NonFiniteGradient, evaluate, greedy_answers, token_f1, train
from test_metrics import per_metric_table


def quick_config(**overrides):
    base = dict(max_epochs=2, batch_size=4, patience=3, seed=0,
                max_generate_len=8)
    base.update(overrides)
    return TrainingConfig(**base)


def fresh_model(seed=7):
    vocab = corpus_vocab(overfit_dialogs())
    return Model.create(np.random.default_rng(seed), vocab,
                        embed_width=8, hidden_width=4)


def flat_parameters(model):
    """Every named parameter's values, in one new vector."""
    return np.concatenate([p.data.ravel() for p in model.parameters().values()])


def bits(array):
    """The bit patterns of a float array, in which -0.0 differs from 0.0."""
    return np.ascontiguousarray(array).view(np.uint64)


def live_mask(adam):
    """Which elements of `adam.theta` lie in rows the optimizer treats as live."""
    live = np.zeros(adam.theta.size, dtype=bool)
    for part in adam.live_parts(np.arange(adam.theta.size)):
        live[part] = True
    return live


class EveryRowLive(Adam):
    """Adam with every row live from the start: each step is one pass over
    the whole parameter vector, as a dense optimizer's."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.grad.fill(1.0)
        self.mark_live()
        self.zero_grad()


def sparse_fit(count):
    """A model whose training reaches few of its rows, and `count` examples:
    a vocabulary of over 1,000 words, of which the examples use a few dozen,
    and feature streams, but examples with no features and no history."""
    dialogs = overfit_dialogs()[:count]
    words = [d.summary for d in dialogs] + [s for d in dialogs for t in d.turns for s in t]
    vocab = build_vocabulary(words + [[f"filler{i:04d}" for i in range(1000)]])
    examples = [expand_per_turn(d)[0] for d in dialogs]
    assert all(ex.history == [] and ex.flow is None for ex in examples)
    return overfit_model(vocab, seed=3), examples


def sparse_fit_config(**overrides):
    base = dict(learning_rate=3e-2, batch_size=1, max_epochs=40, patience=40,
                max_generate_len=8, seed=1)
    base.update(overrides)
    return TrainingConfig(**base)


def unfamiliar_example(i=0):
    """Validation example whose answer shares no word with the vocabulary."""
    return DialogExample(video_id=f"val#{i}", question=["who", "is", "there"],
                         answer=[f"qqqzzz{i}"], history=[],
                         summary=["walking", "around"])


def two_branch_epochs(val_f1s, train_f1s, max_epochs, patience, stop_at_train_f1,
                      same_set):
    """The end-of-epoch decisions of a run whose epoch e scores `val_f1s[e - 1]`
    on validation and `train_f1s[e - 1]` on the training set, made by the
    older rule's two branches: an epoch that improves validation F1 becomes
    the best, and then an epoch that reaches the target becomes it again.
    Returns (best_f1, best_epoch, epochs_run, epochs_to_target, the log
    without its losses)."""
    best_f1, best_epoch, stale, epochs_to_target, log = -1.0, 0, 0, None, []
    for epoch in range(1, max_epochs + 1):
        val_f1 = val_f1s[epoch - 1]
        entry = {"epoch": epoch, "val_f1": val_f1}
        log.append(entry)
        if val_f1 > best_f1:
            best_f1, best_epoch, stale = val_f1, epoch, 0
        else:
            stale += 1
        if stop_at_train_f1 is not None:
            entry["train_f1"] = train_f1 = val_f1 if same_set else train_f1s[epoch - 1]
            if train_f1 >= stop_at_train_f1:
                epochs_to_target = epoch
                best_f1, best_epoch = val_f1, epoch
                break
        if stale >= patience:
            break
    return best_f1, best_epoch, epoch, epochs_to_target, log


class TestAdam:
    def params(self, values):
        return {name: Tensor(np.asarray(v, dtype=np.float64)) for name, v in values.items()}

    def test_zero_gradient_is_bitwise_noop(self):
        params = self.params({"w": [[0.123456789, -2.5]]})
        snapshot = params["w"].data.copy()
        adam = Adam(params, learning_rate=0.5)
        for _ in range(3):
            adam.step(1.0)
        assert np.array_equal(params["w"].data, snapshot)

    def test_first_step_approximates_signed_learning_rate(self):
        params = self.params({"w": [[1.0, 1.0, 1.0]]})
        adam = Adam(params, learning_rate=0.01)
        adam.grad[...] = [3.0, -0.5, 2e-7]
        adam.step(1.0)
        moved = params["w"].data - 1.0
        np.testing.assert_allclose(moved[0, :2], [-0.01, 0.01], rtol=1e-6)
        assert abs(moved[0, 2]) < 0.01  # epsilon damps near-zero gradients

    def test_quadratic_descent_converges(self):
        params = self.params({"w": [2.0]})
        adam = Adam(params, learning_rate=0.1)
        for _ in range(200):
            adam.grad[...] = params["w"].data  # gradient of w^2/2
            adam.step(1.0)
        assert abs(params["w"].data[0]) < 0.05

    def test_step_counter_advances(self):
        params = self.params({"w": [1.0]})
        adam = Adam(params, learning_rate=1e-3)
        assert adam.t == 0
        adam.grad[...] = 1.0
        adam.step(1.0)
        adam.step(1.0)
        assert adam.t == 2

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", ["live", "not yet live"])
    def test_a_non_finite_gradient_updates_nothing(self, value, row):
        # two steps reach every row of "w" and only the first row of "b";
        # then "b" gets a non-finite entry in a live row or in one that
        # turns live in the same step, and "w" an ordinary gradient
        params = self.params({"w": [[0.5, -1.5], [2.0, 0.25]], "b": np.ones((4, 2))})
        adam = Adam(params, learning_rate=0.1)
        grads = adam.views(adam.grad)
        for _ in range(2):
            grads["w"][...] = [[1.0, -2.0], [0.5, 3.0]]
            grads["b"][0] = [0.5, -0.5]
            adam.step(0.5)
        grads["b"][0 if row == "live" else 3, 1] = value
        before = {vector: getattr(adam, vector).copy() for vector in ("theta", "m", "v", "grad")}
        with pytest.raises(NumericalError, match="^gradient of b is not finite$"):
            adam.step(0.5)
        assert adam.t == 2
        for vector, kept in before.items():
            assert_array_equal(bits(getattr(adam, vector)), bits(kept), err_msg=vector)

    def test_flat_step_is_bitwise_the_per_name_formula(self):
        # "big" spans several of step's chunks; "still" never gets a gradient
        rng = np.random.default_rng(3)
        shapes = {"big": (300, 70), "row": (1, 5), "still": (4, 3), "vec": (7,)}
        initial = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params = self.params(initial)
        adam = Adam(params, learning_rate=0.01)
        ref = {name: value.copy() for name, value in initial.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for t in range(1, 4):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                     for name, shape in shapes.items()}
            grads["still"][...] = 0.0
            adam.grad[...] = np.concatenate([g.reshape(-1) for g in grads.values()])
            adam.step(1.0)
            for name, g in grads.items():
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
                m_hat = m[name] / (1.0 - 0.9 ** t)
                v_hat = v[name] / (1.0 - 0.999 ** t)
                ref[name] -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            moments = adam.views(adam.m), adam.views(adam.v)
            for name in shapes:
                assert np.array_equal(params[name].data, ref[name]), (t, name)
                assert np.array_equal(moments[0][name], m[name]), (t, name)
                assert np.array_equal(moments[1][name], v[name]), (t, name)
        assert np.array_equal(params["still"].data, initial["still"])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
           chunk=st.sampled_from([1, 3, 8, Adam.CHUNK]),
           cell_widths=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)),
                           min_size=1, max_size=3),
           vector_size=st.integers(1, 5), steps=st.integers(1, 6),
           scale=st.sampled_from([1.0, 0.25, 1 / 3]))
    def test_live_row_step_is_bitwise_the_per_name_formula(
            self, data, seed, chunk, cell_widths, shapes, vector_size, steps, scale):
        # each step gives each row a zero gradient, a -0.0 one or values
        # (some of them exact zeros or -0.0), so rows turn live late and
        # gradients return to zero; the reference scales and updates every
        # element. A small CHUNK splits the spans and the gathered rows into
        # passes
        rng = np.random.default_rng(seed)
        with mock.patch.object(Adam, "CHUNK", chunk):
            cell = GruCell.create(rng, *cell_widths)
            params = {f"cell.{name}": p for name, p in cell.parameters().items()}
            params.update((f"m{i}", Tensor(rng.normal(size=shape)))
                          for i, shape in enumerate(shapes))
            params["vec"] = Tensor(rng.normal(size=vector_size))
            for owner in {p.owner for p in params.values()}:
                owner.data[rng.random(owner.shape) < 0.2] = -0.0
            ref = {name: p.data.copy() for name, p in params.items()}
            adam = Adam(params, learning_rate=0.01)
        initial = adam.theta.copy()
        m = {name: np.zeros(value.shape) for name, value in ref.items()}
        v = {name: np.zeros(value.shape) for name, value in ref.items()}
        reached = np.zeros(adam.theta.size, dtype=bool)  # rows ever given a nonzero
        rows_of = lambda block: block.reshape(len(block) if block.ndim == 2 else 1, -1)
        for t in range(1, steps + 1):
            grad = np.zeros(adam.theta.size)
            blocks, flags = adam.owner_blocks(grad), adam.owner_blocks(reached)
            for owner, block in blocks.items():
                rows = rows_of(block)
                kinds = data.draw(st.lists(st.sampled_from(["zero", "zero", "-0.0", "values"]),
                                           min_size=len(rows), max_size=len(rows)))
                for row, kind in zip(rows, kinds):
                    if kind == "-0.0":
                        row[...] = -0.0
                    elif kind == "values":
                        row[...] = rng.normal(size=row.size) * 10.0 ** rng.integers(-6, 3)
                        row[rng.random(row.size) < 0.3] = rng.choice([0.0, -0.0])
                rows_of(flags[owner])[...] |= (rows != 0).any(axis=1, keepdims=True)
            adam.grad[...] = grad
            with mock.patch.object(Adam, "CHUNK", chunk):
                adam.step(scale)
            for name, g in adam.views(grad * scale).items():
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
                m_hat = m[name] / (1.0 - 0.9 ** t)
                v_hat = v[name] / (1.0 - 0.999 ** t)
                ref[name] -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            moments = adam.views(adam.m), adam.views(adam.v)
            for name, p in params.items():
                assert_array_equal(bits(p.data), bits(ref[name]), err_msg=f"{t} {name}")
                assert_array_equal(bits(moments[0][name]), bits(m[name]), err_msg=f"{t} {name}")
                assert_array_equal(bits(moments[1][name]), bits(v[name]), err_msg=f"{t} {name}")
        assert not (reached & ~live_mask(adam)).any()
        never = ~reached
        assert_array_equal(bits(adam.theta[never]), bits(initial[never]))
        assert not bits(adam.m[never]).any() and not bits(adam.v[never]).any()

    def test_queued_products_are_formed_at_the_step(self):
        # three products of all of "w"'s rows and one of rows 1:3, which
        # the step forms as one product each; "b" gets an eager gradient
        rng = np.random.default_rng(8)
        params = self.params({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=(1, 3))})
        adam = Adam(params, learning_rate=0.1)
        whole = [tensor._Product(rng.normal(size=(n, 4)), rng.normal(size=(n, 3)))
                 for n in (2, 1, 5)]
        rows = tensor._Product(rng.normal(size=(3, 2)), rng.normal(size=(3, 3)), slice(1, 3))
        for product in (*whole, rows):
            adam.queue.append((params["w"], product))
        adam.grad[-3:] = [0.5, -1.0, 2.0]
        assert not adam.views(adam.grad)["w"].any()
        want = sum(p.form() for p in whole)
        want[1:3] += rows.form()
        adam.step(1.0)
        assert not adam.queue
        got = adam.views(adam.grad)["w"]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert_array_equal(adam.views(adam.grad)["b"], [[0.5, -1.0, 2.0]])

    def test_zero_grad_drops_the_queue(self):
        params = self.params({"w": np.ones((2, 2))})
        adam = Adam(params, learning_rate=0.1)
        adam.queue.append((params["w"], tensor._Product(np.ones((1, 2)), np.ones((1, 2)))))
        adam.zero_grad()
        assert not adam.queue
        adam.step(1.0)
        assert_array_equal(params["w"].data, np.ones((2, 2)))

    def test_a_non_finite_queued_product_updates_nothing(self):
        params = self.params({"w": [[0.5, -1.5], [2.0, 0.25]], "b": np.ones((1, 2))})
        adam = Adam(params, learning_rate=0.1)
        adam.grad[...] = 1.0
        adam.step(0.5)
        adam.zero_grad()
        adam.grad[-2:] = 1.0
        adam.queue.append((params["w"],
                           tensor._Product(np.array([[1.0, np.nan]]), np.ones((1, 2)))))
        before = {vector: getattr(adam, vector).copy() for vector in ("theta", "m", "v")}
        with pytest.raises(NonFiniteGradient, match="^gradient of w is not finite$"):
            adam.step(0.5)
        assert adam.t == 1 and not adam.queue
        for vector, kept in before.items():
            assert_array_equal(bits(getattr(adam, vector)), bits(kept), err_msg=vector)

    def test_each_view_is_its_part_of_its_owners_block(self):
        model, _ = gradcheck._toy_setup()
        params = model.parameters()
        adam = Adam(params, learning_rate=1e-3)
        views = [(name, p) for name, p in params.items() if isinstance(p, ColumnView)]
        assert views
        for vector in (adam.theta, adam.m, adam.v, adam.grad):
            blocks, named = adam.owner_blocks(vector), adam.views(vector)
            for name, p in views:
                assert np.shares_memory(named[name], blocks[p.owner]), name
                assert named[name].shape == p.shape, name


class TestGradientBuffer:
    def test_sinks_receive_the_tape_gradients(self):
        # history, all five modalities and a repeated token ("cat", "it")
        model, example = gradcheck._toy_setup()
        params = model.parameters()
        assert len(params) == 143
        with Tape() as tape:
            for p in params.values():
                tape.watch(p)
            grads = tape.backward(model.loss(example))
        expected = {name: grads.wrt(p) for name, p in params.items()}
        # the records list a GRU cell's owners, so its sinks are keyed by
        # owner, and a named view's gradient is its columns of its owner's
        owner = lambda p: p.owner if isinstance(p, ColumnView) else p
        sinks = {owner(p): np.zeros_like(owner(p).data) for p in params.values()}
        with pytest.raises(ValidationError, match="owner"):
            Tape({model.decoder.l1.wz: np.zeros(model.decoder.l1.wz.shape)})
        with Tape(sinks) as tape:
            grads = tape.backward(model.loss(example))
        assert grads.wrt(model.embedding.matrix) is sinks[model.embedding.matrix]
        for name, p in params.items():
            assert np.shares_memory(grads.wrt(p), sinks[owner(p)]), name
            assert np.abs(grads.wrt(p) - expected[name]).max() <= 1e-12, name
        tokens = [t for pair in example.history for s in pair for t in s]
        tokens += example.question + example.answer + example.summary
        used = {SOS} | {resolve_token(model.vocab, t) for t in tokens}
        unused = sorted(set(range(len(model.vocab))) - used)
        assert unused
        assert not sinks[model.embedding.matrix][unused].any()

    def test_training_keeps_parameters_in_one_vector_without_watching(
            self, toy_examples, monkeypatch):
        def no_watch(tape, tensor):
            raise AssertionError("train watched a tensor")

        monkeypatch.setattr(Tape, "watch", no_watch)
        model = fresh_model()
        train(model, toy_examples[:4], toy_examples[4:5], quick_config(max_epochs=1))
        arrays = [p.data for p in model.parameters().values()]
        vector = arrays[0].base
        assert vector is not None and vector.ndim == 1
        assert vector.size == sum(a.size for a in arrays)
        assert all(a.base is vector for a in arrays)


    def test_training_sinks_are_contiguous_blocks_of_one_vector(
            self, toy_examples, monkeypatch):
        seen = []

        class RecordingTape(Tape):
            def __init__(self, sinks=None, queue=None):
                seen.append(sinks)
                super().__init__(sinks, queue)

        monkeypatch.setattr(training, "Tape", RecordingTape)
        train(fresh_model(), toy_examples[:4], toy_examples[4:5], quick_config(max_epochs=1))
        assert len(seen) == 4 and all(sinks is seen[0] for sinks in seen)
        sinks = list(seen[0].values())
        vector = sinks[0].base
        assert vector is not None and vector.ndim == 1
        start = vector.__array_interface__["data"][0]
        covered = np.zeros(vector.size, dtype=int)
        for sink in sinks:
            assert sink.flags.c_contiguous and sink.base is vector
            offset = (sink.__array_interface__["data"][0] - start) // vector.itemsize
            covered[offset:offset + sink.size] += 1
        assert (covered == 1).all()


BATCH_FEATURE_WIDTHS = {"flow": 3, "rgb": 2, "audio": 2}


@st.composite
def product_batches(draw):
    """(seed, examples): 1-4 examples of the template dialogs with 0-2
    history turns, each modality present or absent."""
    dialogs = overfit_dialogs()
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    examples = []
    for i in range(draw(st.integers(1, 4))):
        dialog = dialogs[draw(st.integers(0, len(dialogs) - 1))]
        turns = draw(st.integers(0, 2))
        features = {m: rng.normal(size=(draw(st.integers(1, 4)), width))
                    for m, width in BATCH_FEATURE_WIDTHS.items() if draw(st.booleans())}
        question, answer = dialog.turns[draw(st.integers(0, 1))]
        examples.append(DialogExample(
            video_id=f"ex{i}", question=question, answer=answer,
            history=[dialog.turns[k % 2] for k in range(turns)], summary=dialog.summary,
            **features))
    return draw(st.integers(0, 100)), examples


class TestBatchProducts:
    """The weight gradients a batch's backward passes queue, formed by
    `Adam.step` in one product per owner and row range."""

    @settings(max_examples=40, deadline=None)
    @given(batch=product_batches())
    # one history-free example: every owner gets one product, formed as alone
    @example(batch=(0, [DialogExample(video_id="ex0", question=["who", "is", "there"],
                                      answer=["a", "dog"], history=[],
                                      summary=["a", "dog", "runs"], flow=np.ones((2, 3)))]))
    def test_the_step_forms_the_sum_of_the_examples_gradients(self, batch):
        seed, examples = batch
        model = Model.create(np.random.default_rng(seed), corpus_vocab(overfit_dialogs()),
                             embed_width=6, hidden_width=3,
                             **{f"{m}_width": w for m, w in BATCH_FEATURE_WIDTHS.items()})
        params = model.parameters()
        want = {name: np.zeros(p.shape) for name, p in params.items()}
        for ex in examples:
            with Tape() as tape:
                for p in params.values():
                    tape.watch(p)
                tape.backward(model.loss(ex))
            for name, p in params.items():
                want[name] += tape.wrt(p)
        adam = Adam(params, learning_rate=1e-3)
        adam.zero_grad()
        for ex in examples:
            with Tape(adam.sinks, adam.queue) as tape:
                tape.backward(model.loss(ex))
        # the owners given more than one product for one row range
        counts = Counter((id(owner), repr(product.rows)) for owner, product in adam.queue)
        shared = {owner for (owner, _), count in counts.items() if count > 1}
        if len(examples) == 1 and not examples[0].history:
            assert not shared
        adam.step(1.0)
        assert not adam.queue
        for name, got in adam.views(adam.grad).items():
            if len(examples) == 1 and id(params[name].owner) not in shared:
                assert_array_equal(bits(got), bits(want[name]), err_msg=name)
            else:
                assert np.abs(got - want[name]).max() <= 1e-12 * np.abs(want[name]).max(), name

    def test_the_queue_is_empty_after_every_step_and_zero_grad(self, toy_examples,
                                                                monkeypatch):
        steps = []

        class Checked(Adam):
            def zero_grad(self):
                super().zero_grad()
                assert not self.queue

            def step(self, scale):
                assert self.queue
                try:
                    super().step(scale)
                finally:
                    assert not self.queue
                steps.append(self.t)

        monkeypatch.setattr(training, "Adam", Checked)
        train(fresh_model(), toy_examples[:6], toy_examples[6:], quick_config(max_epochs=2))
        assert steps == [1, 2, 3, 4]

    def test_a_training_step_forms_no_feature_run_input_gradient(self, monkeypatch):
        # the flow, rgb and audio runs read leaves without a sink; the
        # question's runs read an embedding lookup, whose input gradient
        # is formed
        formed, form = [], tensor._Product.form
        monkeypatch.setattr(tensor._Product, "form", lambda p: formed.append(p.b) or form(p))
        dialogs = overfit_dialogs()
        examples = [expand_basic(d)[0] for d in dialogs[:2]]
        attach_random_features(examples, 5)
        model = overfit_model(corpus_vocab(dialogs))
        train(model, examples, examples, quick_config(max_epochs=1, batch_size=2))
        reads = lambda layer: [any(np.may_share_memory(b, cell.w.data) for b in formed)
                               for cell in (layer.fwd, layer.bwd)]
        assert reads(model.question_rnn) == [True, True]
        for modality in FEATURES:
            assert reads(model.streams[modality][0]) == [False, False], modality

    def test_a_non_finite_queued_product_names_its_example(self, monkeypatch):
        # the fourth loss, of the second example of the second batch, queues
        # a product with a NaN for the vocabulary projection
        model, examples = sparse_fit(4)
        calls, made = [], []
        original_loss, original_decoder_loss = Model.loss, model_module.decoder_loss

        class Kept(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        def loss(self, example, *args, **kwargs):
            calls.append(example.video_id)
            return original_loss(self, example, *args, **kwargs)

        def decoder_loss(decoder, *args):
            out = original_decoder_loss(decoder, *args)
            if len(calls) < 4 or calls[-1] != calls[3]:
                return out
            a, b = np.full((1, decoder.proj.w.rows), np.nan), np.ones((1, decoder.proj.w.cols))
            return tensor._emit(out.data, (out, decoder.proj.w),
                                lambda g: (g, tensor._Product(a, b)))

        monkeypatch.setattr(training, "Adam", Kept)
        monkeypatch.setattr(Model, "loss", loss)
        monkeypatch.setattr(model_module, "decoder_loss", decoder_loss)
        with pytest.raises(NumericalError) as raised:
            train(model, examples, examples, sparse_fit_config(batch_size=2))
        assert str(raised.value) == (
            f"gradient of decoder.proj.w is not finite at epoch 1 "
            f"(example {calls[3]!r}; batch {calls[2:4]})")
        assert made[0].t == 1 and not made[0].queue


class TestTokenF1:
    def test_exact_match(self):
        assert token_f1(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert token_f1(["a"], ["b"]) == 0.0

    def test_empty_sides(self):
        assert token_f1([], ["a"]) == 0.0
        assert token_f1(["a"], []) == 0.0

    def test_half_overlap(self):
        assert token_f1(["a", "b"], ["a", "c"]) == 0.5

    def test_multiset_clipping(self):
        assert token_f1(["a", "a"], ["a"]) == pytest.approx(2.0 / 3.0)

    def test_order_independent(self):
        assert token_f1(["x", "y", "z"], ["z", "y", "x"]) == 1.0


class TestTrain:
    def test_rejects_empty_splits(self, toy_examples):
        model = fresh_model()
        with pytest.raises(ValidationError):
            train(model, [], toy_examples[:1], quick_config())
        with pytest.raises(ValidationError):
            train(model, toy_examples[:1], [], quick_config())

    def test_patience_stops_on_flat_validation(self, toy_examples):
        # the validation answer is unreachable, so F1 stays 0 and the run
        # stops right after `patience` stale epochs
        model = fresh_model()
        result = train(model, toy_examples[:4], [unfamiliar_example()],
                       quick_config(max_epochs=10, patience=1, learning_rate=1e-5))
        assert result.epochs_run == 2
        assert result.best_epoch == 1
        assert result.best_f1 == 0.0
        assert [e["epoch"] for e in result.log] == [1, 2]

    def test_same_seed_is_bitwise_reproducible(self, toy_examples):
        outcomes = []
        for _ in range(2):
            model = fresh_model(seed=7)
            result = train(model, toy_examples[:4], toy_examples[4:6],
                           quick_config(batch_size=2, loss_mode="free"))
            outcomes.append((model.parameters(), result))
        (params_a, res_a), (params_b, res_b) = outcomes
        for name in params_a:
            assert np.array_equal(params_a[name].data, params_b[name].data), name
        assert res_a.log == res_b.log

    def test_model_holds_best_parameters_on_return(self, toy_examples, monkeypatch):
        # the validation answer is unreachable, so epoch 1 stays the best
        # while epochs 2 and 3 move the parameters on
        seen, original = [], training.greedy_answers
        monkeypatch.setattr(training, "greedy_answers",
                            lambda model, examples, max_len: seen.append(flat_parameters(model))
                            or original(model, examples, max_len))
        model = fresh_model()
        result = train(model, toy_examples[:4], [unfamiliar_example()],
                       quick_config(max_epochs=3, patience=5))
        assert result.best_epoch == 1 and len(seen) == 3
        assert not np.array_equal(seen[2], seen[0])
        assert np.array_equal(flat_parameters(model), seen[0])
        assert result.optimizer.t == result.epochs_run  # one 4-example batch per epoch

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_context(self, toy_examples):
        model = fresh_model()
        model.decoder.proj.b.data[...] = np.inf
        with pytest.raises(NumericalError, match="diverged"):
            train(model, toy_examples[:2], toy_examples[2:3],
                  quick_config(max_epochs=1, batch_size=2))

    def test_train_f1_target_short_circuits(self, toy_examples):
        model = fresh_model()
        result = train(model, toy_examples[:2], toy_examples[2:3],
                       quick_config(max_epochs=5, batch_size=2),
                       stop_at_train_f1=0.0)
        assert result.epochs_to_target == 1
        assert result.epochs_run == 1
        assert "train_f1" in result.log[0]

    def test_one_greedy_pass_scores_a_set_that_is_both_splits(self, toy_examples,
                                                               monkeypatch):
        passes, original = [], training.greedy_answers
        monkeypatch.setattr(training, "greedy_answers",
                            lambda model, examples, max_len: passes.append(len(examples))
                            or original(model, examples, max_len))
        runs = []
        for val_set in (None, list(toy_examples[:4])):
            passes.clear()
            model = fresh_model()
            examples = toy_examples[:4]
            result = train(model, examples, examples if val_set is None else val_set,
                           quick_config(max_epochs=4, batch_size=2, learning_rate=0.05),
                           stop_at_train_f1=0.4)
            runs.append((result, model.parameters(), list(passes)))
        (one, params_one, passes_one), (two, params_two, passes_two) = runs
        assert one.epochs_to_target == one.epochs_run == 3
        assert passes_one == [4] * 3
        assert passes_two == [4] * 6
        assert one.log == two.log and "train_f1" in one.log[0]
        for name in params_one:
            assert np.array_equal(params_one[name].data, params_two[name].data), name

    def test_best_parameters_are_snapshot_in_one_array(self, toy_examples, monkeypatch):
        # epoch 1 improves and epoch 3 both improves and reaches the target:
        # one copy each, into the same snapshot, which the model holds on
        # return
        copies = []
        copyto = np.copyto
        monkeypatch.setattr(np, "copyto",
                            lambda dst, src: copies.append(dst) or copyto(dst, src))
        model = fresh_model()
        result = train(model, toy_examples[:4], toy_examples[:4],
                       quick_config(max_epochs=4, batch_size=2, learning_rate=0.05),
                       stop_at_train_f1=0.4)
        assert [e["val_f1"] > 0.4 for e in result.log] == [False, False, True]
        assert len(copies) == 2 and copies[1] is copies[0]
        assert np.array_equal(result.optimizer.theta, copies[0])

    def test_a_sparse_fit_is_bitwise_the_fit_with_every_row_live(self, monkeypatch):
        # criterion 6 holds too: the history stream stays bitwise frozen
        runs = []
        for optimizer in (Adam, EveryRowLive):
            monkeypatch.setattr(training, "Adam", optimizer)
            model, examples = sparse_fit(2)
            before = {name: p.data.copy() for name, p in model.parameters().items()}
            result = train(model, examples, examples, sparse_fit_config(),
                           stop_at_train_f1=0.75)
            runs.append((model, before, result))
        (model, before, sparse), (_, _, dense) = runs
        assert len(model.vocab) >= 1000 and sparse.epochs_to_target is not None
        assert (sparse.best_f1, sparse.best_epoch, sparse.epochs_run, sparse.epochs_to_target,
                sparse.log) == (dense.best_f1, dense.best_epoch, dense.epochs_run,
                                dense.epochs_to_target, dense.log)
        for vector in ("theta", "m", "v"):
            assert_array_equal(bits(getattr(sparse.optimizer, vector)),
                               bits(getattr(dense.optimizer, vector)), err_msg=vector)
        adam = sparse.optimizer
        embedding = adam.owner_blocks(live_mask(adam))[model.embedding.matrix]
        assert embedding.any(axis=1).sum() < len(embedding) // 10
        history = [name for name in before if name.startswith("history_")]
        assert len(history) == 20
        moments = adam.views(adam.m), adam.views(adam.v)
        for name in history:
            assert_array_equal(bits(model.parameters()[name].data), bits(before[name]))
            assert not bits(moments[0][name]).any() and not bits(moments[1][name]).any()

    def test_a_batch_reads_the_rows_not_yet_live_once(self, monkeypatch):
        # `Adam.mark_live` is what reads the rows not live yet; a sparse fit
        # leaves most embedding rows unreached, so every batch has some
        reads, original = [], Adam.mark_live

        def mark_live(adam, *args):
            reads.append((adam.t, bool((~live_mask(adam)).any())))
            return original(adam, *args)

        monkeypatch.setattr(Adam, "mark_live", mark_live)
        model, examples = sparse_fit(4)
        train(model, examples, examples, sparse_fit_config(batch_size=2, max_epochs=2))
        assert reads == [(t, True) for t in range(4)]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_gradient_of_a_never_live_row_names_its_example(
            self, monkeypatch, value):
        # the fourth loss, of the second example of the second batch, gives
        # the <pad> row of the embedding, which no example reaches, a
        # non-finite gradient while the embedding has few rows live
        model, examples = sparse_fit(4)
        matrix, calls, made = model.embedding.matrix, [], []
        original_loss, original_decoder_loss = Model.loss, model_module.decoder_loss

        class Kept(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        def loss(self, example, *args, **kwargs):
            calls.append(example.video_id)
            return original_loss(self, example, *args, **kwargs)

        def decoder_loss(decoder, *args):
            out = original_decoder_loss(decoder, *args)
            if len(calls) < 4 or calls[-1] != calls[3]:
                return out
            bad = np.zeros(matrix.shape)
            bad[PAD, -1] = value
            return tensor._emit(out.data, (out, matrix), lambda g: (g, bad))

        monkeypatch.setattr(training, "Adam", Kept)
        monkeypatch.setattr(Model, "loss", loss)
        monkeypatch.setattr(model_module, "decoder_loss", decoder_loss)
        with pytest.raises(NumericalError) as raised:
            train(model, examples, examples, sparse_fit_config(batch_size=2))
        assert str(raised.value) == (
            f"gradient of embedding.matrix is not finite at epoch 1 "
            f"(example {calls[3]!r}; batch {calls[2:4]})")
        assert made[0].t == 1
        rows = made[0].owner_blocks(live_mask(made[0]))[matrix]
        assert rows[PAD].all() and rows.any(axis=1).sum() < len(rows) // 10

    @settings(max_examples=100, deadline=None)
    @given(max_epochs=st.integers(1, 6), patience=st.integers(1, 3),
           stop_at_train_f1=st.sampled_from([None, 0.3, 0.7]), same_set=st.booleans(),
           val_f1s=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=6, max_size=6),
           train_f1s=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=6, max_size=6))
    # the target epoch scores below the best on validation, and becomes the best
    @example(max_epochs=3, patience=2, stop_at_train_f1=0.3, same_set=False,
             val_f1s=[0.5, 0.0, 0.0, 0.0, 0.0, 0.0], train_f1s=[0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    # an improving epoch that also reaches the target
    @example(max_epochs=4, patience=1, stop_at_train_f1=0.7, same_set=True,
             val_f1s=[0.25, 0.5, 1.0, 0.0, 0.0, 0.0], train_f1s=[0.0] * 6)
    def test_epoch_rule_matches_the_two_branch_rule(self, max_epochs, patience,
                                                    stop_at_train_f1, same_set,
                                                    val_f1s, train_f1s):
        # each epoch's F1 scores are scripted; the parameters each epoch
        # ends with are recorded as its validation set is scored
        train_set = [expand_basic(d)[0] for d in overfit_dialogs()[:2]]
        val_set = train_set if same_set else list(train_set)
        model, seen = fresh_model(), []

        def scripted_f1(answers, examples):
            if examples is val_set:
                seen.append(flat_parameters(model))
                return val_f1s[len(seen) - 1]
            assert examples is train_set
            return train_f1s[len(seen) - 1]

        with mock.patch.object(training, "_mean_token_f1", scripted_f1):
            result = train(model, train_set, val_set,
                           quick_config(max_epochs=max_epochs, patience=patience,
                                        batch_size=2, max_generate_len=1),
                           stop_at_train_f1=stop_at_train_f1)
        best_f1, best_epoch, epochs_run, epochs_to_target, log = two_branch_epochs(
            val_f1s, train_f1s, max_epochs, patience, stop_at_train_f1, same_set)
        assert (result.best_f1, result.best_epoch, result.epochs_run,
                result.epochs_to_target) == (best_f1, best_epoch, epochs_run, epochs_to_target)
        assert [{k: v for k, v in e.items() if k != "loss"} for e in result.log] == log
        assert all(np.isfinite(e["loss"]) for e in result.log)
        assert len(seen) == epochs_run
        assert np.array_equal(flat_parameters(model), seen[best_epoch - 1])


class _FixedAnswers:
    """Stands in for a model: answers from a lookup table."""

    def __init__(self, table):
        self.table = table

    def generate(self, example, max_len):
        return list(self.table[example.video_id])[:max_len]


class TestEvaluate:
    def examples(self):
        answers = [["red", "ball", "rolls", "fast"], ["dog", "barks", "at", "night"]]
        return [
            DialogExample(video_id=f"v{i}", question=["what"], answer=list(a),
                          history=[], summary=["s"])
            for i, a in enumerate(answers)
        ]

    def test_perfect_stub_maxes_every_metric(self):
        examples = self.examples()
        stub = _FixedAnswers({ex.video_id: ex.answer for ex in examples})
        scores, candidates = evaluate(stub, examples, max_len=10)
        assert candidates == [ex.answer for ex in examples]
        for key in ("bleu1", "bleu2", "bleu3", "bleu4", "rouge_l", "token_f1"):
            assert scores[key] == pytest.approx(1.0), key
        assert scores["cider"] == pytest.approx(10.0, abs=1e-9)

    def test_empty_generations_score_zero(self):
        examples = self.examples()
        stub = _FixedAnswers({ex.video_id: [] for ex in examples})
        scores, candidates = evaluate(stub, examples)
        assert candidates == [[], []]
        for key, value in scores.items():
            assert value == 0.0, key

    def test_max_len_truncates_candidates(self):
        examples = self.examples()
        stub = _FixedAnswers({ex.video_id: ex.answer for ex in examples})
        _, candidates = evaluate(stub, examples, max_len=2)
        assert candidates == [ex.answer[:2] for ex in examples]

    def test_score_table_matches_offline_metrics(self):
        examples = self.examples()
        stub = _FixedAnswers({
            examples[0].video_id: ["red", "ball", "bounces", "fast"],
            examples[1].video_id: ["dog", "sleeps"],
        })
        scores, candidates = evaluate(stub, examples)
        references = [[ex.answer] for ex in examples]
        for k in (1, 2, 3, 4):
            assert scores[f"bleu{k}"] == bleu(candidates, references, k)
        assert scores["rouge_l"] == rouge_l_corpus(candidates, references)
        assert scores["cider"] == cider(candidates, references)
        assert list(scores) == ["bleu1", "bleu2", "bleu3", "bleu4",
                                "rouge_l", "cider", "token_f1"]

    def test_rejects_empty_example_list(self):
        with pytest.raises(ValidationError):
            evaluate(_FixedAnswers({}), [])

    def test_real_model_end_to_end(self, text_model, toy_examples):
        # the table is the per-metric functions' scores plus token F1
        scores, candidates = evaluate(text_model, toy_examples, max_len=6)
        assert len(candidates) == len(toy_examples)
        want = per_metric_table(candidates, [[ex.answer] for ex in toy_examples])
        want["token_f1"] = sum(token_f1(c, ex.answer)
                               for c, ex in zip(candidates, toy_examples)) / len(toy_examples)
        assert list(scores) == list(want)
        assert scores == want
        assert scores["bleu2"] > 0.0 and scores["cider"] > 0.0
        for value in scores.values():
            assert np.isfinite(value) and value >= 0.0


def sharded_setup():
    """A multimodal model and eleven examples with zero or one history
    turns, where every third example lacks its audio features."""
    dialogs = overfit_dialogs()
    examples = [ex for d in dialogs for ex in expand_per_turn(d)][:11]
    attach_random_features(examples, seed=5)
    for example in examples[::3]:
        example.audio = None
    return overfit_model(corpus_vocab(dialogs)), examples


class TestGreedyAnswers:
    """Answers split over forked workers against one process's."""

    @pytest.mark.parametrize("processes", [2, 3])
    def test_any_process_count_gives_the_same_answers(self, monkeypatch, cores, forks,
                                                      processes):
        model, examples = sharded_setup()
        assert {len(ex.history) for ex in examples} == {0, 1}
        monkeypatch.setattr(training, "MIN_SHARD", 2)
        want = [model.generate(ex, 8) for ex in examples]
        cores(1)
        assert greedy_answers(model, examples, 8) == want
        assert forks[0] == 0
        cores(processes)
        assert greedy_answers(model, examples, 8) == want
        assert forks[0] == processes - 1
        assert multiprocessing.active_children() == []

    def test_evaluate_scores_the_same_on_one_core_and_two(self, monkeypatch, cores, forks):
        model, examples = sharded_setup()
        monkeypatch.setattr(training, "MIN_SHARD", 2)
        runs = []
        for n in (1, 2):
            cores(n)
            runs.append(evaluate(model, examples, max_len=8))
        assert forks[0] == 1
        assert runs[0] == runs[1]
        assert multiprocessing.active_children() == []

    def test_a_set_smaller_than_two_shards_starts_no_process(self, cores, forks):
        examples = [DialogExample(video_id=f"v{i}", question=["q"], answer=[f"a{i}"],
                                  history=[], summary=["s"])
                    for i in range(2 * training.MIN_SHARD)]
        stub = _FixedAnswers({ex.video_id: ex.answer for ex in examples})
        cores(2)
        assert greedy_answers(stub, examples[:-1], 4) == [ex.answer for ex in examples[:-1]]
        assert forks[0] == 0
        assert greedy_answers(stub, examples, 4) == [ex.answer for ex in examples]
        assert forks[0] == 1
        assert multiprocessing.active_children() == []

    def test_max_len_is_checked_before_any_worker_starts(self, monkeypatch, cores, forks):
        model, examples = sharded_setup()
        monkeypatch.setattr(training, "MIN_SHARD", 2)
        cores(2)
        with pytest.raises(ValidationError, match="max_len must be >= 1, got 0"):
            greedy_answers(model, examples, 0)
        assert forks[0] == 0

    def test_a_worker_exception_is_raised_in_the_caller(self, monkeypatch, cores, forks):
        model, examples = sharded_setup()
        monkeypatch.setattr(training, "MIN_SHARD", 2)
        target, original = examples[8].video_id, Model.generate

        def generate(self, example, max_len):
            if example.video_id == target:
                raise ShapeError(f"rigged fault in {example.video_id}")
            return original(self, example, max_len)

        monkeypatch.setattr(Model, "generate", generate)
        cores(2)
        with pytest.raises(ShapeError) as caught:
            greedy_answers(model, examples, 8)
        assert type(caught.value) is ShapeError
        assert str(caught.value) == f"rigged fault in {target}"
        assert forks[0] == 1
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_is_named_by_its_shard(self, monkeypatch, cores, forks):
        model, examples = sharded_setup()
        monkeypatch.setattr(training, "MIN_SHARD", 2)
        monkeypatch.setattr(Model, "generate", dying_generate(examples[8].video_id))
        cores(2)
        with pytest.raises(ChildProcessError,
                           match=r"shard 1 \(examples 5 to 10\) exited with code 9"):
            greedy_answers(model, examples, 8)
        assert forks[0] == 1
        assert multiprocessing.active_children() == []

    def test_workers_are_stopped_when_the_caller_fails(self, monkeypatch, cores, forks):
        model, examples = sharded_setup()
        monkeypatch.setattr(training, "MIN_SHARD", 2)
        target, original = examples[1].video_id, Model.generate

        def generate(self, example, max_len):
            if example.video_id == target:
                raise NumericalError("rigged fault in the first shard")
            return original(self, example, max_len)

        monkeypatch.setattr(Model, "generate", generate)
        cores(3)
        with pytest.raises(NumericalError, match="rigged fault in the first shard"):
            greedy_answers(model, examples, 8)
        assert forks[0] == 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("refused", [{1}, {2}, {1, 2}])
    def test_a_refused_fork_is_answered_by_the_caller(self, monkeypatch, cores, refused):
        # 11 examples over 3 cores: shards [0, 3), [3, 7) and [7, 11); the
        # starts of the workers for the shards in `refused` raise OSError
        model, examples = sharded_setup()
        monkeypatch.setattr(training, "MIN_SHARD", 2)
        want = [model.generate(ex, 8) for ex in examples]
        parent, starts = os.getpid(), []
        start, generate = multiprocessing.context.ForkProcess.start, Model.generate

        def start_or_refuse(self):
            starts.append(len(starts) + 1)
            if starts[-1] in refused:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            start(self)

        answered_here = []

        def recording_generate(self, example, max_len):
            if os.getpid() == parent:
                answered_here.append(example.video_id)
            return generate(self, example, max_len)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_or_refuse)
        monkeypatch.setattr(Model, "generate", recording_generate)
        cores(3)
        assert greedy_answers(model, examples, 8) == want
        assert starts == [1, 2]
        bounds = {0: (0, 3), 1: (3, 7), 2: (7, 11)}
        assert answered_here == [ex.video_id for k in sorted({0} | refused)
                                 for ex in examples[slice(*bounds[k])]]
        assert multiprocessing.active_children() == []


class TestUsableCores:
    """The affinity mask, capped by a cgroup CPU quota."""

    @pytest.mark.parametrize("files, want", [
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "50000 100000\n"}, 1),
        ({"cpu.max": "800000 100000\n"}, 4),
        ({"cpu.max": "max 100000\n"}, 4),
        ({"quota": "250000\n", "period": "100000\n"}, 3),
        ({"quota": "-1\n", "period": "100000\n"}, 4),
        ({"cpu.max": "garbled\n", "quota": "100000\n", "period": "100000\n"}, 1),
        ({"cpu.max": "100000 0\n"}, 4),
        ({}, 4),
    ])
    def test_a_quota_caps_the_affinity_mask(self, tmp_path, monkeypatch, cores, files, want):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        cores(4)
        monkeypatch.setattr(training, "CPU_QUOTA_FILES", (
            (str(tmp_path / "cpu.max"),),
            (str(tmp_path / "quota"), str(tmp_path / "period"))))
        assert training._usable_cores() == want
