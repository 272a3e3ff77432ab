"""Acceptance gate: the eight shipped guarantees, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they print; without -s they appear in the captured output of failures.
"""

import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
import yaml

from conftest import (
    attach_random_features,
    corpus_vocab,
    heldout_dialogs,
    overfit_dialogs,
    overfit_model,
    overfit_setup,
)
from oracle_metrics import oracle_bleu, oracle_cider, oracle_rouge_l_corpus
from test_metrics import per_metric_table, random_corpus
from mmqa import cli
from mmqa.augment import (
    Dialog,
    expand_basic,
    expand_per_turn,
    expand_shuffle,
    shuffle_capacity,
)
from mmqa.config import TrainingConfig
from mmqa.formats import (
    load_checkpoint,
    load_dataset,
    load_features,
    save_checkpoint,
    save_dataset,
    save_features,
)
from mmqa.gradcheck import composed_checks, primitive_checks
from mmqa.metrics import bleu, corpus_scores, rouge_l
from mmqa.training import train


@contextmanager
def verdict(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number}: FAIL  {title}", flush=True)
        raise
    print(f"\ncriterion {number}: PASS  {title}", flush=True)


def overfit_config(**overrides):
    base = dict(learning_rate=3e-3, batch_size=8, max_epochs=500,
                patience=500, seed=0, max_generate_len=10)
    base.update(overrides)
    return TrainingConfig(**base)


def test_c1_gradients_match_finite_differences():
    with verdict(1, "all primitive and composed gradients within 1e-4 of "
                    "central differences in under 60 s"):
        start = time.perf_counter()
        checks = [("primitive/" + n, e) for n, e in primitive_checks(1e-5)]
        checks += [("model/" + n, e) for n, e in composed_checks(1e-5)]
        elapsed = time.perf_counter() - start
        worst_name, worst = max(checks, key=lambda pair: pair[1])
        assert worst < 1e-4, f"{worst_name}: {worst:.3e}"
        assert len(checks) > 20
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f} s"


def test_c2_metrics_match_independent_oracle():
    with verdict(2, "BLEU-1..4, ROUGE-L and CIDEr within 1e-9 of a "
                    "brute-force oracle on 25 random corpora, each metric "
                    "alone and in one score table, hand cases exact"):
        rng = np.random.default_rng(2024)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(25):
                candidates, references = random_corpus(rng)
                theirs = {f"bleu{k}": oracle_bleu(candidates, references, k)
                          for k in (1, 2, 3, 4)}
                theirs["rouge_l"] = oracle_rouge_l_corpus(candidates, references)
                theirs["cider"] = oracle_cider(candidates, references)
                ours = per_metric_table(candidates, references)
                table = corpus_scores(candidates, references)
                assert list(table) == list(theirs)
                for name, value in theirs.items():
                    assert abs(ours[name] - value) <= 1e-9, name
                    assert abs(table[name] - value) <= 1e-9, name
        repeated = bleu([["the", "the", "the", "the"]], [[["the", "cat"]]], 1)
        assert repeated == 0.25 * math.exp(-1.0)
        assert rouge_l(["a", "c"], [["a", "b", "c"]]) == pytest.approx(
            11.0 / 14.0, abs=1e-12)


def test_c3_augmentation_counts_and_permutations():
    with verdict(3, "per-turn expansion yields one example per turn, shuffle "
                    "doubling and permutation capacity are exact, shuffled "
                    "histories keep pairs intact"):
        dialog = Dialog(video_id="d10", summary=["ten", "turns"],
                        turns=[([f"q{k}", "please"], [f"a{k}"])
                               for k in range(10)])
        per_turn = expand_per_turn(dialog)
        assert len(per_turn) == 10

        assert shuffle_capacity(9) == 362879

        shuffled = expand_shuffle(dialog, 2, seed=0)
        def long_count(examples):
            return sum(1 for e in examples if len(e.history) >= 2)
        assert long_count(shuffled) == 2 * long_count(per_turn)
        short = [e for e in per_turn if len(e.history) < 2]
        assert sum(1 for e in shuffled if len(e.history) < 2) == len(short)

        base = {e.video_id: e for e in per_turn}
        copies = 0
        for example in shuffled:
            head, _, tail = example.video_id.rpartition("#")
            if "p" not in tail:
                continue
            copies += 1
            original = base[f"{head}#{tail.split('p')[0]}"]
            assert example.question == original.question
            assert example.answer == original.answer
            assert example.summary == original.summary
            pairs = lambda hist: sorted((tuple(q), tuple(a)) for q, a in hist)
            assert pairs(example.history) == pairs(original.history)
        assert copies == long_count(per_turn)


def test_c4_teacher_forcing_overfits_small_corpus():
    with verdict(4, "teacher forcing reaches training token-F1 1.0 on the "
                    "8-dialog corpus within 500 epochs in under 5 minutes"):
        start = time.perf_counter()
        examples, vocab = overfit_setup(feature_seed=11)
        assert len(vocab) <= 40
        assert all(len(ex.answer) <= 6 for ex in examples)
        assert all(ex.flow.shape[0] == 4 for ex in examples)
        model = overfit_model(vocab, seed=3)
        result = train(model, examples, examples, overfit_config(),
                       stop_at_train_f1=1.0)
        elapsed = time.perf_counter() - start
        assert result.epochs_to_target is not None, "never reached F1 1.0"
        assert result.epochs_to_target <= 500
        assert elapsed < 300.0, f"overfit took {elapsed:.1f} s"


def test_c5_teacher_forcing_needs_fewer_epochs_than_free_running():
    with verdict(5, "teacher forcing reaches training exact match in "
                    "strictly fewer epochs than free-running decoding"):
        epochs = {}
        for mode in ("tf", "free"):
            examples, vocab = overfit_setup(feature_seed=11)
            val = [expand_basic(d)[0] for d in heldout_dialogs()]
            attach_random_features(val, seed=12)
            model = overfit_model(vocab, seed=3)
            result = train(model, examples, val,
                           overfit_config(loss_mode=mode),
                           stop_at_train_f1=1.0)
            assert result.epochs_to_target is not None, f"{mode} never converged"
            epochs[mode] = result.epochs_to_target
        assert epochs["tf"] < epochs["free"], epochs


def test_c6_empty_history_contributes_no_gradient():
    with verdict(6, "a training step on history-free examples leaves every "
                    "history encoder parameter bitwise unchanged"):
        vocab = corpus_vocab(overfit_dialogs())
        model = overfit_model(vocab, seed=3)
        examples = [expand_per_turn(d)[0] for d in overfit_dialogs()[:4]]
        attach_random_features(examples, seed=11)
        assert all(ex.history == [] for ex in examples)

        context, _ = model.encode(examples[0])
        assert np.all(context.data[0, -model.width:] == 0.0)

        before = {n: p.data.copy() for n, p in model.parameters().items()}
        train(model, examples, examples,
              overfit_config(batch_size=4, max_epochs=1, patience=1))
        history_names = [n for n in before if n.startswith("history_")]
        assert len(history_names) == 20
        for name, param in model.parameters().items():
            if name in history_names:
                assert np.array_equal(param.data, before[name]), name
            else:
                assert not np.array_equal(param.data, before[name]), name


def test_c7_pipeline_is_bitwise_deterministic(tmp_path):
    with verdict(7, "two augment/train/eval runs with one config and seed "
                    "produce byte-identical datasets, checkpoints and "
                    "score tables"):
        base = tmp_path / "base.json"
        save_dataset(str(base), overfit_dialogs()[:4])
        aug = tmp_path / "aug.json"
        ckpt = tmp_path / "model.ckpt"
        scores = tmp_path / "scores.tsv"
        config = tmp_path / "run.yaml"
        config.write_text(yaml.safe_dump({
            "data": {"train": str(aug), "val": str(base)},
            "model": {"embed_width": 8, "hidden_width": 4},
            "training": {"max_epochs": 3, "batch_size": 4, "patience": 5,
                         "seed": 0, "max_generate_len": 6,
                         "augmentation": "basic"},
        }))

        runs = []
        for _ in range(2):
            assert cli.main(["augment", "--data", str(base), "--out", str(aug),
                             "--mode", "shuffle", "--factor", "2",
                             "--seed", "0"]) == 0
            assert cli.main(["train", "--config", str(config),
                             "--out", str(ckpt)]) == 0
            assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(base),
                             "--out", str(scores)]) == 0
            runs.append({
                "augmented": aug.read_bytes(),
                "checkpoint": ckpt.read_bytes(),
                "vocabulary": (tmp_path / "model.ckpt.vocab").read_bytes(),
                "scores": scores.read_bytes(),
            })
        for key in runs[0]:
            assert runs[0][key] == runs[1][key], f"{key} differs between runs"


def test_c8_formats_round_trip_bitwise(tmp_path):
    with verdict(8, "dataset, feature and checkpoint files each survive "
                    "write-read-write byte-identically on 100 random "
                    "instances"):
        rng = np.random.default_rng(88)
        words = ["cat", "dog", "runs", "blue", "tree", "sky", "walks", "red"]

        def sentence():
            return [words[i] for i in rng.integers(0, len(words),
                                                   rng.integers(1, 5))]

        for i in range(100):
            a, b = tmp_path / f"d{i}a.json", tmp_path / f"d{i}b.json"
            dialogs = [
                Dialog(video_id=f"v{i}-{j}", summary=sentence(),
                       turns=[(sentence(), sentence())
                              for _ in range(rng.integers(0, 4))])
                for j in range(rng.integers(1, 4))
            ]
            save_dataset(str(a), dialogs)
            save_dataset(str(b), load_dataset(str(a)))
            assert a.read_bytes() == b.read_bytes()

        for i in range(100):
            a, b = tmp_path / f"f{i}a.feat", tmp_path / f"f{i}b.feat"
            matrix = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 6)))
            save_features(str(a), matrix)
            save_features(str(b), load_features(str(a)))
            assert a.read_bytes() == b.read_bytes()

        for i in range(100):
            a, b = tmp_path / f"c{i}a.ckpt", tmp_path / f"c{i}b.ckpt"
            tensors = {}
            for j in range(rng.integers(1, 6)):
                shape = ((rng.integers(1, 5),) if rng.integers(0, 2) == 0
                         else (rng.integers(1, 5), rng.integers(1, 5)))
                tensors[f"t{j}.w"] = rng.normal(size=shape)
            digest = rng.integers(0, 256, 32, dtype=np.uint8).tobytes()
            save_checkpoint(str(a), tensors, digest)
            loaded, loaded_digest = load_checkpoint(str(a))
            save_checkpoint(str(b), loaded, loaded_digest)
            assert a.read_bytes() == b.read_bytes()
