"""Tests of the benchmark itself: every output check passes on the program's
real output and fails on a deliberately wrong one, the generator is
deterministic, and tracing restores what it rebinds."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from bench import checks, inputs, oracles, tracing
from mmqa import model as model_module
from mmqa.augment import Dialog, DialogExample, expand_shuffle
from mmqa.encoders import gru_step
from mmqa.metrics import bleu, cider, rouge_l_corpus
from mmqa.model import Model
from mmqa.text import Vocabulary, resolve_token
from mmqa.training import token_f1

WORDS = ["cat", "dog", "runs", "blue", "tree", "the", "walks", "red"]


def tiny_model_and_example():
    vocab = Vocabulary(sorted(set(WORDS) | {"green", "sky"}))
    model = Model.create(np.random.default_rng(4), vocab, embed_width=6, hidden_width=3)
    example = DialogExample(video_id="v", question=["the", "cat", "runs"],
                            answer=["blue", "tree"], history=[(["dog"], ["red"])],
                            summary=["the", "dog", "walks"])
    return model, example


def program_scores(candidates, golds):
    references = [[g] for g in golds]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = {f"bleu{k}": bleu(candidates, references, k) for k in (1, 2, 3, 4)}
        table["rouge_l"] = rouge_l_corpus(candidates, references)
        table["cider"] = cider(candidates, references)
    table["token_f1"] = sum(token_f1(c, g) for c, g in zip(candidates, golds)) / len(golds)
    return table


def test_score_check_catches_a_perturbed_score():
    rng = np.random.default_rng(0)
    sentence = lambda: [WORDS[i] for i in rng.integers(0, len(WORDS), rng.integers(3, 8))]
    candidates = [sentence() for _ in range(6)]
    golds = [sentence() for _ in range(6)]
    table = program_scores(candidates, golds)
    assert table["bleu1"] > 0.0 and table["cider"] > 0.0
    assert checks.score_table_errors(table, candidates, golds) == []
    for name in table:
        wrong = dict(table, **{name: table[name] + 1e-7})
        errors = checks.score_table_errors(wrong, candidates, golds)
        assert len(errors) == 1 and errors[0].startswith(name)


def test_score_table_reader_round_trips(tmp_path):
    from mmqa.formats import save_scores

    table = {"bleu1": 0.25, "cider": 1.0 / 3.0}
    save_scores(str(tmp_path / "s.tsv"), table)
    assert checks.read_score_table(str(tmp_path / "s.tsv")) == table


def test_oov_check_catches_a_wrong_id():
    vocab = Vocabulary(["kitchen", "kitten", "garden", "gardens", "street"])
    misspellings = ["kitchn", "gardne", "stret", "zzzzz", "kitchen"]
    resolved = {w: resolve_token(vocab, w) for w in misspellings}
    assert resolved["zzzzz"] == oracles.UNK
    assert checks.oov_errors(vocab.tokens(), resolved) == []
    wrong = dict(resolved, kitchn=vocab.id("kitten"))
    assert len(checks.oov_errors(vocab.tokens(), wrong)) == 1


def test_dice_matcher_breaks_ties_toward_the_lower_id():
    # 'abcd' and 'abce' both share {<ab, abc} with 'abc'; the lower id wins
    matcher = oracles.DiceMatcher(["<pad>", "<sos>", "<eos>", "<unk>", "abce", "abcd"])
    assert matcher.resolve("abc") == 4


def test_greedy_check_catches_a_token_that_is_not_the_argmax():
    model, example = tiny_model_and_example()
    max_len = 4
    ids = [model.vocab.id(t) for t in model.generate(example, max_len)]
    rows = checks.greedy_logits(model, example, ids, max_len)
    assert checks.greedy_errors(rows, ids, max_len) == []
    wrong = [next(i for i in range(4, len(model.vocab)) if i not in ids[:1])] + ids[1:]
    rows = checks.greedy_logits(model, example, wrong, max_len)
    assert checks.greedy_errors(rows, wrong, max_len)


def test_greedy_check_catches_a_constructed_non_argmax():
    rows = [np.array([9.0, 9.0, 0.0, 0.0, 1.0, 2.0]), np.array([0.0, 0.0, 3.0, 0.0, 1.0, 2.0])]
    assert checks.greedy_errors(rows, [5], max_len=3) == []
    assert checks.greedy_errors(rows, [4], max_len=3)
    assert checks.greedy_errors(rows[:1], [5], max_len=1) == []
    assert any("EOS" in e for e in checks.greedy_errors(rows, [5, oracles.EOS], max_len=3))


def test_gradient_check_catches_a_wrong_coordinate():
    model, example = tiny_model_and_example()
    row = model.vocab.id("cat")
    column = model.vocab.id("blue")
    coordinates = [("embedding.matrix", (row, 0)), ("decoder.proj.w", (1, column))]
    analytic, numeric, grads = checks.gradient_coordinates(model, example, coordinates)
    assert checks.gradient_errors(analytic, numeric) == []
    assert any(abs(v) > 1e-6 for v in analytic.values())
    wrong = dict(analytic)
    wrong[coordinates[0]] += 1e-3
    assert len(checks.gradient_errors(wrong, numeric)) == 1

    used = {model.vocab.id(t) for t in
            example.question + example.answer + example.summary + ["dog", "red"]}
    unused = max(set(range(4, len(model.vocab))) - used)
    gradient = grads["embedding.matrix"]
    assert checks.zero_row_errors(gradient, unused) == []
    assert checks.zero_row_errors(gradient, row)


def test_training_loss_check():
    assert checks.training_loss_errors([3.0, 2.0, 2.5, 1.0], examples=2, epochs=2) == []
    assert checks.training_loss_errors([3.0, 2.0, 2.5, 3.0], examples=2, epochs=2)
    assert checks.training_loss_errors([3.0, float("nan"), 1.0, 1.0], examples=2, epochs=2)
    assert checks.training_loss_errors([3.0, 2.0, 1.0], examples=2, epochs=2)


def test_gradcheck_check():
    assert checks.gradcheck_errors({"a": 1e-9}, forwards=8, coordinates=4, tolerance=1e-4) == []
    assert checks.gradcheck_errors({"a": 2e-4}, forwards=8, coordinates=4, tolerance=1e-4)
    assert checks.gradcheck_errors({"a": 1e-9}, forwards=7, coordinates=4, tolerance=1e-4)


def test_shuffle_expansion_formula_matches_the_program():
    turns = [1, 2, 3, 4, 6]
    dialogs = [Dialog(video_id=f"d{n}", summary=["s"],
                      turns=[([f"q{k}"], [f"a{k}"]) for k in range(n)]) for n in turns]
    for factor in (1, 2, 3, 30):
        produced = sum(len(expand_shuffle(d, factor, seed=1)) for d in dialogs)
        assert produced == oracles.shuffle_expansion_size(turns, factor)


def directory_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_train_generator_writes_identical_bytes_for_a_seed(tmp_path):
    a = inputs.make_train_inputs(3, str(tmp_path / "a"))
    inputs.make_train_inputs(3, str(tmp_path / "b"))
    inputs.make_train_inputs(4, str(tmp_path / "c"))
    first, second = directory_bytes(tmp_path / "a"), directory_bytes(tmp_path / "b")
    config = "run.yaml"
    assert first.pop(config).replace(b"/a/", b"/b/") == second.pop(config)
    assert first == second
    assert directory_bytes(tmp_path / "c")["train.json"] != first["train.json"]
    assert len(a.dialogs) == sum(shape.dialogs for shape in inputs.TRAIN_SHAPES)


def test_eval_generator_writes_identical_bytes_for_a_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "EVAL_SHAPE", inputs.CorpusShape(
        dialogs=10, turns=2, summary_len=(4, 6), question_len=(3, 5), answer_len=(3, 3)))
    monkeypatch.setattr(inputs, "EVAL_LEXICON", 300)
    monkeypatch.setattr(inputs, "MISSPELLINGS_PER_EXAMPLE", ((0, 4), (1, 4), (3, 2)))
    made = inputs.make_eval_inputs(7, str(tmp_path / "a"))
    inputs.make_eval_inputs(7, str(tmp_path / "b"))
    assert directory_bytes(tmp_path / "a") == directory_bytes(tmp_path / "b")
    vocab = Vocabulary.load(made.ckpt_path + ".vocab")
    assert made.misspellings and not any(w in vocab for w in made.misspellings)


def test_tracer_rebinds_every_import_and_restores_it():
    model, example = tiny_model_and_example()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert model_module.gru_step is not gru_step
        with tracer.span("cli.main"):
            model.generate(example, 3)
    finally:
        tracer.uninstall()
    assert model_module.gru_step is gru_step
    assert Model.generate.__qualname__ == "Model.generate"
    summary = tracer.summary()
    assert summary.calls("model.generate") == 1
    assert summary.calls("model.encode") == 1
    steps = summary.calls("model.decode_step")
    assert 1 <= steps <= 3
    assert summary.calls("encoders.gru_step") >= 2 * steps
    assert summary.total_within("model.decode_step", "model.generate") > 0.0
    assert summary.self_time["cli.main"] <= summary.total["cli.main"]


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    import shutil
    import subprocess
    import sys

    bench_copy = tmp_path / "bench"
    shutil.copytree(Path(__file__).parent, bench_copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "gradcheck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("name", ["train", "eval", "gradcheck"])
def test_every_workload_is_known_to_the_runner(name):
    from bench import run, worker

    assert name in run.WORKLOADS and name in worker.WORKLOADS
