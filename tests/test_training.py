"""Adam updates, token F1, the training loop, and corpus evaluation."""

import multiprocessing
import os

import numpy as np
import pytest

from conftest import (attach_random_features, corpus_vocab, dying_generate, overfit_dialogs,
                      overfit_model)
from mmqa import gradcheck, training
from mmqa.augment import DialogExample, expand_per_turn
from mmqa.config import TrainingConfig
from mmqa.errors import NumericalError, ShapeError, ValidationError
from mmqa.metrics import bleu, cider, rouge_l_corpus
from mmqa.model import Model
from mmqa.tensor import ColumnView, Tape, Tensor
from mmqa.text import SOS, resolve_token
from mmqa.training import Adam, evaluate, greedy_answers, token_f1, train


def quick_config(**overrides):
    base = dict(max_epochs=2, batch_size=4, patience=3, seed=0,
                max_generate_len=8)
    base.update(overrides)
    return TrainingConfig(**base)


def fresh_model(seed=7):
    vocab = corpus_vocab(overfit_dialogs())
    return Model.create(np.random.default_rng(seed), vocab,
                        embed_width=8, hidden_width=4)


def unfamiliar_example(i=0):
    """Validation example whose answer shares no word with the vocabulary."""
    return DialogExample(video_id=f"val#{i}", question=["who", "is", "there"],
                         answer=[f"qqqzzz{i}"], history=[],
                         summary=["walking", "around"])


class TestAdam:
    def params(self, values):
        return {name: Tensor(np.asarray(v, dtype=np.float64)) for name, v in values.items()}

    def test_zero_gradient_is_bitwise_noop(self):
        params = self.params({"w": [[0.123456789, -2.5]]})
        snapshot = params["w"].data.copy()
        adam = Adam(params, learning_rate=0.5)
        for _ in range(3):
            adam.step(np.zeros(2))
        assert np.array_equal(params["w"].data, snapshot)

    def test_first_step_approximates_signed_learning_rate(self):
        params = self.params({"w": [[1.0, 1.0, 1.0]]})
        adam = Adam(params, learning_rate=0.01)
        adam.step(np.array([3.0, -0.5, 2e-7]))
        moved = params["w"].data - 1.0
        np.testing.assert_allclose(moved[0, :2], [-0.01, 0.01], rtol=1e-6)
        assert abs(moved[0, 2]) < 0.01  # epsilon damps near-zero gradients

    def test_quadratic_descent_converges(self):
        params = self.params({"w": [2.0]})
        adam = Adam(params, learning_rate=0.1)
        for _ in range(200):
            adam.step(params["w"].data.copy())  # gradient of w^2/2
        assert abs(params["w"].data[0]) < 0.05

    def test_step_counter_advances(self):
        params = self.params({"w": [1.0]})
        adam = Adam(params)
        assert adam.t == 0
        adam.step(np.array([1.0]))
        adam.step(np.array([1.0]))
        assert adam.t == 2

    def test_shape_mismatch_rejected(self):
        adam = Adam(self.params({"w": [1.0, 2.0]}))
        with pytest.raises(ShapeError):
            adam.step(np.array([[1.0, 2.0]]))
        with pytest.raises(ShapeError):
            adam.step(np.array([1.0]))
        assert adam.t == 0

    def test_flat_step_is_bitwise_the_per_name_formula(self):
        # "big" spans several of step's chunks; "still" never gets a gradient
        rng = np.random.default_rng(3)
        shapes = {"big": (300, 70), "row": (1, 5), "still": (4, 3), "vec": (7,)}
        initial = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params = self.params(initial)
        adam = Adam(params, learning_rate=0.01, beta1=0.8, beta2=0.99, epsilon=1e-7)
        ref = {name: value.copy() for name, value in initial.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for t in range(1, 4):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                     for name, shape in shapes.items()}
            grads["still"][...] = 0.0
            adam.step(np.concatenate([g.reshape(-1) for g in grads.values()]))
            for name, g in grads.items():
                m[name] = 0.8 * m[name] + (1.0 - 0.8) * g
                v[name] = 0.99 * v[name] + (1.0 - 0.99) * (g * g)
                m_hat = m[name] / (1.0 - 0.8 ** t)
                v_hat = v[name] / (1.0 - 0.99 ** t)
                ref[name] -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-7)
            moments = adam.views(adam.m), adam.views(adam.v)
            for name in shapes:
                assert np.array_equal(params[name].data, ref[name]), (t, name)
                assert np.array_equal(moments[0][name], m[name]), (t, name)
                assert np.array_equal(moments[1][name], v[name]), (t, name)
        assert np.array_equal(params["still"].data, initial["still"])
        with pytest.raises(ShapeError):
            adam.step(np.zeros(adam.theta.size + 1))

    def test_each_view_is_its_part_of_its_owners_block(self):
        model, _ = gradcheck._toy_setup()
        params = model.parameters()
        adam = Adam(params)
        views = [(name, p) for name, p in params.items() if isinstance(p, ColumnView)]
        assert views
        for vector in (adam.theta, adam.m, adam.v, np.zeros_like(adam.theta)):
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
            def __init__(self, sinks=None):
                seen.append(sinks)
                super().__init__(sinks)

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
                           quick_config(batch_size=2, loss_mode="ss",
                                        ss_probability=0.3))
            outcomes.append((model.parameters(), result))
        (params_a, res_a), (params_b, res_b) = outcomes
        for name in params_a:
            assert np.array_equal(params_a[name].data, params_b[name].data), name
        assert res_a.log == res_b.log

    def test_model_holds_best_parameters_on_return(self, toy_examples):
        model = fresh_model()
        result = train(model, toy_examples[:4], [unfamiliar_example()],
                       quick_config(max_epochs=3, patience=5))
        live = model.parameters()
        for name, snapshot in result.params.items():
            assert np.array_equal(live[name].data, snapshot), name
        assert result.optimizer.t == result.epochs_run  # one 4-example batch per epoch

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_context(self, toy_examples):
        model = fresh_model()
        model.decoder.proj.b.data[...] = np.inf
        with pytest.raises(NumericalError, match="diverged"):
            train(model, toy_examples[:2], toy_examples[2:3],
                  quick_config(max_epochs=1, batch_size=2))

    def test_frozen_embeddings_never_move(self, toy_examples):
        vocab = corpus_vocab(overfit_dialogs())
        model = Model.create(np.random.default_rng(7), vocab,
                             embed_width=8, hidden_width=4,
                             freeze_embeddings=True)
        before = model.embedding.matrix.data.copy()
        proj_before = model.decoder.proj.w.data.copy()
        train(model, toy_examples[:4], toy_examples[4:5],
              quick_config(max_epochs=1, patience=5))
        assert np.array_equal(model.embedding.matrix.data, before)
        assert not np.array_equal(model.decoder.proj.w.data, proj_before)

    def test_train_f1_target_short_circuits(self, toy_examples):
        model = fresh_model()
        result = train(model, toy_examples[:2], toy_examples[2:3],
                       quick_config(max_epochs=5, batch_size=2),
                       stop_at_train_f1=0.0)
        assert result.epochs_to_target == 1
        assert result.epochs_run == 1
        assert "train_f1" in result.log[0]

    def test_scheduled_sampling_diverges_from_teacher_forcing(self, toy_examples):
        runs = {}
        for mode in ("tf", "ss"):
            model = fresh_model(seed=7)
            train(model, toy_examples[:4], toy_examples[4:5],
                  quick_config(batch_size=2, loss_mode=mode, ss_probability=0.9))
            runs[mode] = model.decoder.proj.w.data.copy()
        assert not np.array_equal(runs["tf"], runs["ss"])


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
        scores, candidates = evaluate(text_model, toy_examples, max_len=6)
        assert len(candidates) == len(toy_examples)
        assert set(scores) == {"bleu1", "bleu2", "bleu3", "bleu4",
                               "rouge_l", "cider", "token_f1"}
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
