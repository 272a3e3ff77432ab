"""End-to-end command-line pipeline: augment, train, eval, generate."""

import contextlib
import json
import multiprocessing
import struct
import time

import numpy as np
import pytest
import yaml
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import corpus_vocab, dying_generate, overfit_dialogs, template_dialog
from mmqa import cli, model as model_module, tensor, training
from mmqa.augment import Dialog, expand_shuffle
from mmqa.config import Config
from mmqa.formats import (
    checkpoint_from_model,
    feature_path,
    load_checkpoint,
    load_dataset,
    load_scores,
    save_checkpoint,
    save_dataset,
    save_features,
)
from mmqa.model import Model


def write_dataset(path, dialogs=None):
    save_dataset(str(path), dialogs if dialogs is not None else overfit_dialogs()[:4])


def edited(blob: bytes, edit: str, position: int, byte: int) -> bytes:
    """`blob` with one byte at `position` (modulo its length) flipped by
    xor with `byte`, `byte` inserted there, or everything from there cut."""
    blob = bytearray(blob)
    at = position % len(blob)
    if edit == "flip":
        blob[at] ^= byte
    elif edit == "insert":
        blob[at:at] = bytes([byte])
    else:
        del blob[at:]
    return bytes(blob)


# A one-epoch run whose every width is a single digit, so that an inserted
# digit makes a run at most about ten times larger. The data section comes
# last and names both files: a truncation drops a path, so no cut falls back
# to the default widths and epochs.
SMALL_CONFIG = yaml.safe_dump({
    "training": {"max_epochs": 1, "patience": 1, "batch_size": 2, "seed": 0,
                 "max_generate_len": 2},
    "model": {"embed_width": 2, "hidden_width": 1},
    "data": {"train": "data.json", "val": "data.json"},
}, sort_keys=False).encode()


def write_config(path, data_path, **overrides):
    doc = {
        "data": {"train": str(data_path), "val": str(data_path),
                 "features_dir": overrides.pop("features_dir", "")},
        "model": {"embed_width": 8, "hidden_width": 4},
        "training": {"max_epochs": 2, "batch_size": 4, "patience": 5,
                     "seed": 0, "max_generate_len": 6, "augmentation": "basic"},
    }
    for section, key_values in overrides.items():
        doc[section].update(key_values)
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestAugmentCommand:
    def test_per_turn_mode(self, tmp_path, capsys):
        data = tmp_path / "in.json"
        out = tmp_path / "out.json"
        write_dataset(data)
        assert cli.main(["augment", "--data", str(data), "--out", str(out),
                         "--mode", "per-turn"]) == 0
        assert "8 examples" in capsys.readouterr().out  # 4 dialogs x 2 turns
        expanded = load_dataset(str(out))
        assert [d.video_id for d in expanded[:2]] == ["vid0#0", "vid0#1"]
        source = overfit_dialogs()[0]
        assert expanded[0].turns == source.turns[:1]
        assert expanded[1].turns == source.turns  # history then target turn
        assert expanded[1].summary == source.summary

    def test_basic_mode_keeps_one_example_per_dialog(self, tmp_path):
        data = tmp_path / "in.json"
        out = tmp_path / "out.json"
        write_dataset(data)
        assert cli.main(["augment", "--data", str(data), "--out", str(out),
                         "--mode", "basic"]) == 0
        expanded = load_dataset(str(out))
        assert [d.video_id for d in expanded] == [f"vid{i}#1" for i in range(4)]

    def test_shuffle_mode_matches_library_expansion(self, tmp_path):
        dialogs = overfit_dialogs()[:2]
        data = tmp_path / "in.json"
        out = tmp_path / "out.json"
        write_dataset(data, dialogs)
        assert cli.main(["augment", "--data", str(data), "--out", str(out),
                         "--mode", "shuffle", "--factor", "2", "--seed", "5"]) == 0
        expected = [ex.video_id for d in dialogs for ex in expand_shuffle(d, 2, 5)]
        assert [d.video_id for d in load_dataset(str(out))] == expected

    @pytest.mark.parametrize("command", ["augment", "train"])
    def test_factor_bound_is_validated(self, tmp_path, capsys, command):
        # a dialog with n history pairs gains up to n! - 1 shuffled copies,
        # so an unbounded factor lets a long dialog expand factorially
        data = tmp_path / "in.json"
        write_dataset(data)
        out = tmp_path / "out"
        if command == "augment":
            argv = ["augment", "--data", str(data), "--out", str(out),
                    "--mode", "shuffle", "--factor", str(10 ** 12)]
            key = "--factor must lie in [1, 1000], got 1000000000000"
        else:
            config = write_config(tmp_path / "run.yaml", data,
                                  training={"augmentation": "shuffle", "factor": 10 ** 12})
            argv = ["train", "--config", config, "--out", str(out)]
            key = "factor must lie in [1, 1000], got 1000000000000"
        start = time.perf_counter()
        assert cli.main(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert key in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "out.vocab").exists()


class TestPipeline:
    def run_train(self, tmp_path, **config_overrides):
        data = tmp_path / "data.json"
        write_dataset(data)
        config = write_config(tmp_path / "run.yaml", data, **config_overrides)
        ckpt = tmp_path / "model.ckpt"
        code = cli.main(["train", "--config", config, "--out", str(ckpt)])
        return code, data, ckpt

    def test_train_eval_generate(self, tmp_path, capsys):
        code, data, ckpt = self.run_train(tmp_path)
        assert code == 0
        assert "trained 2 epochs" in capsys.readouterr().out
        assert ckpt.exists() and (tmp_path / "model.ckpt.vocab").exists()
        tensors, _hash = load_checkpoint(str(ckpt))
        assert not [name for name in tensors if name.startswith("__opt__/")]

        scores_path = tmp_path / "scores.tsv"
        assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                         "--out", str(scores_path), "--max-len", "6"]) == 0
        scores = load_scores(str(scores_path))
        assert set(scores) == {"bleu1", "bleu2", "bleu3", "bleu4",
                               "rouge_l", "cider", "token_f1"}
        assert all(np.isfinite(v) for v in scores.values())

        answers_path = tmp_path / "answers.txt"
        assert cli.main(["generate", "--ckpt", str(ckpt), "--data", str(data),
                         "--out", str(answers_path), "--max-len", "6"]) == 0
        assert len(answers_path.read_text().splitlines()) == 4

    def test_nonfinite_gradient_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # the loss stays finite; only the bias row of the vocabulary
        # projection gets an infinite gradient
        original = model_module.decoder_loss

        def decoder_loss(decoder, *args):
            loss, bias = original(decoder, *args), decoder.proj.b
            return tensor._emit(loss.data, (loss, bias),
                                lambda g: (g, np.full(bias.shape, np.inf)))

        monkeypatch.setattr(model_module, "decoder_loss", decoder_loss)
        code, _data, ckpt = self.run_train(tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "gradient of decoder.proj.b is not finite at epoch 1" in err
        assert "vid" in err
        assert not ckpt.exists()

    def test_nonfinite_gradient_names_its_example(self, tmp_path, capsys, monkeypatch):
        # one run learns the order of the one four-example batch; the next
        # gives the third example of that batch, alone, an infinite gradient
        # of the projection bias
        order, original_loss = [], Model.loss

        def loss(self, example, *args, **kwargs):
            order.append(example.video_id)
            return original_loss(self, example, *args, **kwargs)

        monkeypatch.setattr(Model, "loss", loss)
        (tmp_path / "a").mkdir()
        assert self.run_train(tmp_path / "a")[0] == 0
        batch, original = order[:4], model_module.decoder_loss
        chosen = batch[2]

        def decoder_loss(decoder, *args):
            loss, bias = original(decoder, *args), decoder.proj.b
            if order[-1] != chosen:
                return loss
            return tensor._emit(loss.data, (loss, bias),
                                lambda g: (g, np.full(bias.shape, np.inf)))

        monkeypatch.setattr(model_module, "decoder_loss", decoder_loss)
        (tmp_path / "b").mkdir()
        capsys.readouterr()
        code, _data, ckpt = self.run_train(tmp_path / "b")
        assert code == 2
        err = capsys.readouterr().err
        assert "gradient of decoder.proj.b is not finite at epoch 1" in err
        assert f"example {chosen!r}" in err and f"batch {batch}" in err
        assert not [v for v in batch if v != chosen and f"example {v!r}" in err]
        assert not ckpt.exists()

    def test_training_is_byte_deterministic(self, tmp_path):
        data = tmp_path / "data.json"
        write_dataset(data)
        config = write_config(tmp_path / "run.yaml", data)
        blobs = []
        for run in ("a", "b"):
            ckpt = tmp_path / f"{run}.ckpt"
            assert cli.main(["train", "--config", config, "--out", str(ckpt)]) == 0
            blobs.append((ckpt.read_bytes(),
                          (tmp_path / f"{run}.ckpt.vocab").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_features_flow_through_training(self, tmp_path):
        features = tmp_path / "features"
        features.mkdir()
        rng = np.random.default_rng(2)
        for i in range(4):
            save_features(str(features / f"vid{i}.flow.feat"),
                          rng.normal(size=(3, 6)))
        code, data, ckpt = self.run_train(
            tmp_path, model={"flow_width": 6}, features_dir=str(features))
        assert code == 0
        scores_path = tmp_path / "scores.tsv"
        assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                         "--out", str(scores_path),
                         "--features", str(features)]) == 0


class TestGradcheckCommand:
    def test_prints_worst_then_elapsed(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "primitive_checks", lambda eps: [("add", 1e-9)])
        monkeypatch.setattr(cli, "composed_checks", lambda eps: [("proj.w", 3e-8)])
        assert cli.main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2] == "worst\t3.000e-08\tmodel/proj.w"
        label, seconds = lines[-1].split("\t")
        assert label == "elapsed" and float(seconds) >= 0.0

    def test_failure_is_numerical(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "primitive_checks", lambda eps: [("add", 1e-9)])
        monkeypatch.setattr(cli, "composed_checks", lambda eps: [("proj.w", 1e-3)])
        assert cli.main(["gradcheck"]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestFailureModes:
    def test_missing_dataset_is_io_failure(self, tmp_path):
        assert cli.main(["augment", "--data", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "out.json")]) == 3

    def test_malformed_dataset_is_io_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["augment", "--data", str(bad),
                         "--out", str(tmp_path / "out.json")]) == 3

    def test_invalid_content_is_validation_failure(self, tmp_path):
        bad = tmp_path / "dup.json"
        bad.write_text('{"dialogs": ['
                       '{"video_id": "x", "summary": "a", "turns": []},'
                       '{"video_id": "x", "summary": "a", "turns": []}]}')
        assert cli.main(["augment", "--data", str(bad),
                         "--out", str(tmp_path / "out.json")]) == 1

    def test_bad_config_is_validation_failure(self, tmp_path):
        data = tmp_path / "data.json"
        write_dataset(data)
        config = tmp_path / "run.yaml"
        config.write_text("training:\n  momentum: 0.9\n")
        assert cli.main(["train", "--config", str(config),
                         "--out", str(tmp_path / "m.ckpt")]) == 1

    def test_deeply_nested_dataset_is_io_failure(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        assert cli.main(["augment", "--data", str(deep),
                         "--out", str(tmp_path / "out.json")]) == 3
        assert f"cannot parse {deep}: nested too deeply" in capsys.readouterr().err

    def test_deeply_nested_config_is_validation_failure(self, tmp_path, capsys):
        config = tmp_path / "deep.yaml"
        config.write_text("a: " + "[" * 20_000)
        ckpt = tmp_path / "m.ckpt"
        assert cli.main(["train", "--config", str(config), "--out", str(ckpt)]) == 1
        assert f"cannot parse config {config}" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_negative_seed_is_validation_failure(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        write_dataset(data)
        config = write_config(tmp_path / "run.yaml", data, training={"seed": -1})
        ckpt = tmp_path / "m.ckpt"
        assert cli.main(["train", "--config", config, "--out", str(ckpt)]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("text, key", [
        ("model:\n  1: 2\n  foo: 3\n", "unknown model config keys: [1, 'foo']"),
        ("1: 2\nfoo: 3\n", "unknown config sections: [1, 'foo']"),
        ("training:\n  learning_rate: 1" + "0" * 400 + "\n",
         "training.learning_rate is beyond the float range"),
        ("training:\n  seed: " + "1" * 5000 + "\n", "cannot parse config"),
        ("training:\n  seed: 2020-13-45\n", "cannot parse config"),
    ], ids=["mixed-section-keys", "mixed-root-keys", "400-digit-float", "5000-digit-int",
            "impossible-date"])
    def test_unusable_config_value_is_validation_failure(self, tmp_path, capsys, text, key):
        data = tmp_path / "data.json"
        write_dataset(data)
        config = tmp_path / "run.yaml"
        config.write_text(text)
        ckpt = tmp_path / "m.ckpt"
        assert cli.main(["train", "--config", str(config), "--out", str(ckpt)]) == 1
        assert key in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("width, message", [
        (10 ** 12, "cannot allocate the model of ModelConfig(embed_width=1000000000000,"),
        (10 ** 29, "embed_width must lie in [1, 2**63)"),
    ], ids=["memory", "extent"])
    def test_oversized_width_is_validation_failure(self, tmp_path, capsys, width, message):
        data = tmp_path / "data.json"
        write_dataset(data)
        config = write_config(tmp_path / "run.yaml", data, model={"embed_width": width})
        ckpt = tmp_path / "m.ckpt"
        assert cli.main(["train", "--config", config, "--out", str(ckpt)]) == 1
        assert message in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "generate"])
    def test_decoding_bound_is_validated(self, tmp_path, capsys, command):
        ckpt, data = self.write_checkpoint(tmp_path)
        if command == "train":
            config = write_config(tmp_path / "run.yaml", data,
                                  training={"max_generate_len": 10 ** 12})
            argv = ["train", "--config", config, "--out", str(tmp_path / "n.ckpt")]
            key = "max_generate_len must lie in [1, 1000], got 1000000000000"
        else:
            argv = [command, "--ckpt", ckpt, "--data", str(data),
                    "--out", str(tmp_path / "out.txt"), "--max-len", str(10 ** 12)]
            key = "--max-len must lie in [1, 1000], got 1000000000000"
        start = time.perf_counter()
        assert cli.main(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert key in capsys.readouterr().err
        assert not (tmp_path / "n.ckpt").exists() and not (tmp_path / "out.txt").exists()

    def test_missing_features_dir_is_validation_failure(self, tmp_path):
        data = tmp_path / "data.json"
        write_dataset(data)
        config = write_config(tmp_path / "run.yaml", data,
                              model={"flow_width": 6})
        assert cli.main(["train", "--config", config,
                         "--out", str(tmp_path / "m.ckpt")]) == 1

    def test_feature_width_mismatch_is_validation_failure(self, tmp_path):
        features = tmp_path / "features"
        features.mkdir()
        for i in range(4):
            save_features(str(features / f"vid{i}.flow.feat"), np.zeros((3, 5)))
        data = tmp_path / "data.json"
        write_dataset(data)
        config = write_config(tmp_path / "run.yaml", data,
                              model={"flow_width": 6},
                              features_dir=str(features))
        assert cli.main(["train", "--config", config,
                         "--out", str(tmp_path / "m.ckpt")]) == 1

    @pytest.mark.parametrize("command", ["eval", "generate"])
    def test_outputs_are_the_same_on_one_core_and_two(self, tmp_path, monkeypatch, cores,
                                                      forks, command):
        ckpt, data = self.write_checkpoint(tmp_path)
        monkeypatch.setattr(training, "MIN_SHARD", 2)
        outputs = []
        for n in (1, 2):
            cores(n)
            out = tmp_path / f"out-{n}.txt"
            assert cli.main([command, "--ckpt", ckpt, "--data", str(data),
                             "--out", str(out), "--max-len", "6"]) == 0
            assert forks[0] == n - 1
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["eval", "generate"])
    def test_a_dead_worker_is_io_failure(self, tmp_path, capsys, monkeypatch, cores, forks,
                                         command):
        ckpt, data = self.write_checkpoint(tmp_path)
        monkeypatch.setattr(training, "MIN_SHARD", 2)
        cores(2)
        monkeypatch.setattr(Model, "generate", dying_generate("vid3#1"))
        out = tmp_path / "out.txt"
        assert cli.main([command, "--ckpt", ckpt, "--data", str(data),
                         "--out", str(out), "--max-len", "6"]) == 3
        assert "i/o error: the worker answering shard 1 (examples 2 to 3) exited with " \
               "code 9" in capsys.readouterr().err
        assert not out.exists()
        assert forks[0] == 1
        assert multiprocessing.active_children() == []

    def test_missing_checkpoint_is_io_failure(self, tmp_path):
        data = tmp_path / "data.json"
        write_dataset(data)
        assert cli.main(["eval", "--ckpt", str(tmp_path / "nope.ckpt"),
                         "--data", str(data),
                         "--out", str(tmp_path / "s.tsv")]) == 3

    @staticmethod
    def write_checkpoint(tmp_path):
        """An untrained checkpoint with its vocabulary sidecar and a dataset."""
        data = tmp_path / "data.json"
        write_dataset(data)
        vocab = corpus_vocab(overfit_dialogs())
        ckpt = str(tmp_path / "m.ckpt")
        model = Model.create(np.random.default_rng(0), vocab, embed_width=8, hidden_width=4)
        save_checkpoint(ckpt, checkpoint_from_model(model), Config().hash())
        vocab.save(ckpt + ".vocab")
        return ckpt, data

    def test_oversized_tensor_extents_are_io_failure(self, tmp_path, capsys):
        # 4294967295 x 4294967295 float64 values: a byte count that int64
        # arithmetic wraps round, and far more than the file holds
        ckpt, data = self.write_checkpoint(tmp_path)
        header = b"MMCK" + bytes([1]) + bytes(32) + struct.pack("<I", 1)
        tensor = struct.pack("<H", 1) + b"x" + bytes([2]) + struct.pack("<2I", 2**32 - 1, 2**32 - 1)
        (tmp_path / "m.ckpt").write_bytes(header + tensor)
        assert cli.main(["eval", "--ckpt", ckpt, "--data", str(data),
                         "--out", str(tmp_path / "s.tsv")]) == 3
        assert f"{ckpt}: truncated while reading payload of 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, fault", [
        # line 11 copied to line 3: the size still matches the embedding, but
        # every token in between would move onto the next row
        (lambda lines: lines[:2] + [lines[10]] + lines[2:], ":12: repeated"),
        (lambda lines: lines[:2] + ["<unk>"] + lines[3:], ":3: reserved"),
    ], ids=["repeated", "reserved"])
    def test_bad_vocabulary_line_is_validation_failure(self, tmp_path, capsys, edit, fault):
        ckpt, data = self.write_checkpoint(tmp_path)
        sidecar = tmp_path / "m.ckpt.vocab"
        sidecar.write_text("".join(line + "\n" for line in
                                   edit(sidecar.read_text().splitlines())))
        assert cli.main(["eval", "--ckpt", ckpt, "--data", str(data),
                         "--out", str(tmp_path / "s.tsv")]) == 1
        assert f"{sidecar}{fault} vocabulary token" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("cell", 5.0),
        ("cell", -1.0),
        ("cell", 1.0),
        ("cell", float("nan")),
        ("pooling", float("nan")),
        ("embed_width", 0.0),
        ("hidden_width", 2.5),
        ("flow_width", 1e12),
        ("literal_decoder", 1.0),
    ])
    def test_corrupt_architecture_field_is_validation_failure(self, tmp_path, capsys,
                                                              field, value):
        ckpt, data = self.write_checkpoint(tmp_path)
        tensors, digest = load_checkpoint(ckpt)
        tensors["__cfg__/" + field] = np.array([value])
        save_checkpoint(ckpt, tensors, digest)
        assert cli.main(["eval", "--ckpt", ckpt, "--data", str(data),
                         "--out", str(tmp_path / "s.tsv")]) == 1
        assert f"'{field}'" in capsys.readouterr().err

    def test_nonfinite_checkpoint_parameter_is_validation_failure(self, tmp_path, capsys):
        ckpt, data = self.write_checkpoint(tmp_path)
        tensors, digest = load_checkpoint(ckpt)
        tensors["decoder.proj.b"][0, 5] = np.nan
        save_checkpoint(ckpt, tensors, digest)
        assert cli.main(["eval", "--ckpt", ckpt, "--data", str(data),
                         "--out", str(tmp_path / "s.tsv")]) == 1
        assert "'decoder.proj.b' contains non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "s.tsv").exists()

    @pytest.mark.parametrize("key, value", [
        ("epsilon", ".inf"),
        ("epsilon", ".nan"),
        ("learning_rate", ".nan"),
        ("learning_rate", ".inf"),
    ])
    def test_nonfinite_config_float_is_validation_failure(self, tmp_path, capsys,
                                                          key, value):
        data = tmp_path / "data.json"
        write_dataset(data)
        config = tmp_path / "run.yaml"
        config.write_text(f"training:\n  {key}: {value}\n")
        ckpt = tmp_path / "m.ckpt"
        assert cli.main(["train", "--config", str(config), "--out", str(ckpt)]) == 1
        assert f"training.{key} must be finite" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("reader", ["vocabulary", "dataset", "config", "tensor name"])
    def test_undecodable_text_is_io_failure(self, tmp_path, capsys, reader):
        ckpt, data = self.write_checkpoint(tmp_path)
        config = tmp_path / "run.yaml"
        write_config(config, data)
        command = ["eval", "--ckpt", ckpt, "--data", str(data),
                   "--out", str(tmp_path / "s.tsv")]
        if reader == "vocabulary":
            spoiled, offset = tmp_path / "m.ckpt.vocab", 7
        elif reader == "dataset":
            spoiled, offset = data, 30
        elif reader == "config":
            spoiled, offset = config, 12
            command = ["train", "--config", str(config), "--out", str(tmp_path / "n.ckpt")]
        else:
            spoiled, offset = tmp_path / "m.ckpt", 4 + 1 + 32 + 4 + 2  # first name byte
        blob = bytearray(spoiled.read_bytes())
        blob[offset] = 0xFF  # a byte UTF-8 never uses
        spoiled.write_bytes(bytes(blob))
        assert cli.main(command) == 3
        assert f"{spoiled}: byte {offset} is not valid UTF-8" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        """A checkpoint trained for one epoch, its sidecar's bytes and a dataset."""
        root = tmp_path_factory.mktemp("trained")
        data = root / "data.json"
        write_dataset(data)
        config = write_config(root / "run.yaml", data, training={"max_epochs": 1})
        ckpt = root / "m.ckpt"
        assert cli.main(["train", "--config", config, "--out", str(ckpt)]) == 0
        files = {"m.ckpt": ckpt.read_bytes(), "m.ckpt.vocab": (root / "m.ckpt.vocab").read_bytes()}
        return root, data, files

    @settings(max_examples=100, deadline=None)
    @given(target=st.sampled_from(["m.ckpt", "m.ckpt.vocab"]),
           edit=st.sampled_from(["flip", "insert", "truncate"]),
           # half the positions fall in the first bytes: headers, names, extents
           position=st.one_of(st.integers(0, 300), st.integers(0, 2 ** 31)),
           byte=st.integers(1, 255))
    def test_corrupt_checkpoint_or_sidecar_exits_cleanly(self, trained, target, edit,
                                                         position, byte):
        root, data, files = trained
        work = root / "work"
        work.mkdir(exist_ok=True)
        for name, blob in files.items():
            (work / name).write_bytes(edited(blob, edit, position, byte)
                                      if name == target else blob)
        code = cli.main(["eval", "--ckpt", str(work / "m.ckpt"), "--data", str(data),
                         "--out", str(work / "s.tsv"), "--max-len", "4"])
        assert code in (0, 1, 3)

    @pytest.fixture(scope="class")
    def generate_inputs(self, tmp_path_factory):
        """The bytes of a two-dialog dataset and of two flow feature files,
        and a checkpoint of a model with a 1-wide flow stream."""
        root = tmp_path_factory.mktemp("inputs")
        dialogs = [template_dialog(f"vid{i}", "cat", "runs", "park") for i in range(2)]
        write_dataset(root / "data.json", dialogs)
        for i in range(2):
            save_features(str(root / f"vid{i}.flow.feat"), np.ones((2, 1)))
        vocab = corpus_vocab(dialogs)
        model = Model.create(np.random.default_rng(0), vocab, embed_width=2, hidden_width=1,
                             flow_width=1)
        ckpt = root / "m.ckpt"
        save_checkpoint(str(ckpt), checkpoint_from_model(model), Config().hash())
        vocab.save(str(ckpt) + ".vocab")
        files = {name: (root / name).read_bytes()
                 for name in ("data.json", "vid0.flow.feat", "vid1.flow.feat")}
        return root, ckpt, files

    @settings(max_examples=150, deadline=None)
    @given(target=st.sampled_from(["data.json", "vid0.flow.feat"]),
           edit=st.sampled_from(["flip", "insert", "truncate"]),
           # half the positions fall in the first bytes: headers and the first dialog
           position=st.one_of(st.integers(0, 100), st.integers(0, 2 ** 31)),
           byte=st.integers(1, 255))
    def test_byte_edits_of_generate_inputs_exit_cleanly(self, generate_inputs, target, edit,
                                                        position, byte):
        root, ckpt, files = generate_inputs
        work = root / "work"
        work.mkdir(exist_ok=True)
        for name, blob in files.items():
            (work / name).write_bytes(edited(blob, edit, position, byte)
                                      if name == target else blob)
        code = cli.main(["generate", "--ckpt", str(ckpt), "--data", str(work / "data.json"),
                         "--features", str(work), "--out", str(work / "a.txt"),
                         "--max-len", "3"])
        event(f"{target} exit {code}")
        assert code in (0, 1, 3)

    @pytest.fixture(scope="class")
    def two_dialogs(self, tmp_path_factory):
        """A directory holding `SMALL_CONFIG`'s dataset of two one-turn dialogs."""
        root = tmp_path_factory.mktemp("config")
        write_dataset(root / "data.json",
                      [Dialog(f"vid{i}", ["a", "cat", "runs"], [(["who", "runs"], ["a", "cat"])])
                       for i in range(2)])
        return root

    @settings(max_examples=100, deadline=None)
    @given(edit=st.sampled_from(["flip", "insert", "truncate"]),
           position=st.integers(0, 2 ** 31),
           byte=st.integers(1, 255))
    # edits that still train: a 91-wide hidden layer, and nine epochs
    @example(edit="insert", position=SMALL_CONFIG.index(b"hidden_width: 1") + 14, byte=ord("9"))
    @example(edit="flip", position=SMALL_CONFIG.index(b"max_epochs: 1") + 12, byte=0x08)
    def test_byte_edits_of_the_config_exit_cleanly(self, two_dialogs, edit, position, byte):
        (two_dialogs / "run.yaml").write_bytes(edited(SMALL_CONFIG, edit, position, byte))
        with contextlib.chdir(two_dialogs):  # the config names its files relative to it
            code = cli.main(["train", "--config", "run.yaml", "--out", "m.ckpt"])
        event(f"exit {code}")
        assert code in (0, 1, 2, 3)

    @pytest.fixture(scope="class")
    def train_inputs(self, tmp_path_factory):
        """`SMALL_CONFIG`'s run with a 1-wide flow stream read from the
        config's directory, and the bytes of its dataset and of one of its
        two feature files."""
        root = tmp_path_factory.mktemp("train-inputs")
        config = yaml.safe_load(SMALL_CONFIG)
        config["model"]["flow_width"] = 1
        config["data"]["features_dir"] = "."
        (root / "run.yaml").write_text(yaml.safe_dump(config, sort_keys=False))
        write_dataset(root / "data.json",
                      [Dialog(f"vid{i}", ["a", "cat", "runs"], [(["who", "runs"], ["a", "cat"])])
                       for i in range(2)])
        for i in range(2):
            save_features(str(root / f"vid{i}.flow.feat"), np.full((2, 1), 0.5))
        return root, {name: (root / name).read_bytes()
                      for name in ("data.json", "vid0.flow.feat", "vid1.flow.feat")}

    @settings(max_examples=250, deadline=None)
    @given(target=st.sampled_from(["data.json", "vid0.flow.feat"]),
           edit=st.sampled_from(["flip", "insert", "truncate"]),
           # half the positions fall in the first bytes: headers and the first dialog
           position=st.one_of(st.integers(0, 100), st.integers(0, 2 ** 31)),
           byte=st.integers(1, 255))
    # edits that still train: "a cat runs" becomes "a bat runs" in the
    # second summary, and a flow value 0.5 becomes about 1.7e38
    @example(target="data.json", edit="flip", position=-156, byte=0x01)
    @example(target="vid0.flow.feat", edit="flip", position=-1, byte=0x40)
    def test_byte_edits_of_train_inputs_exit_cleanly(self, train_inputs, target, edit,
                                                     position, byte):
        root, files = train_inputs
        work = root / "work"
        work.mkdir(exist_ok=True)
        (work / "run.yaml").write_bytes((root / "run.yaml").read_bytes())
        for name, blob in files.items():
            (work / name).write_bytes(edited(blob, edit, position, byte)
                                      if name == target else blob)
        with contextlib.chdir(work):  # the config names its files relative to it
            code = cli.main(["train", "--config", "run.yaml", "--out", "m.ckpt"])
        event(f"{target} exit {code}")
        assert code in (0, 1, 2, 3)

    def test_usage_problems_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["augment"])  # required flags missing
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 1
        assert cli.main([]) == 1
        capsys.readouterr()


# Text as json.dumps writes it from any Python string: NULs and lone
# surrogates come out as \u escapes that json.loads turns back into them.
# Plain draws almost never hold a surrogate, so some strings are drawn from
# a short list of awkward characters instead.
fuzz_text = st.one_of(st.text(st.characters(exclude_categories=()), max_size=8),
                      st.text(st.sampled_from("\0\ud800\udfff #?a"), max_size=4))
fuzz_dialogs = st.lists(st.fixed_dictionaries({
    "video_id": fuzz_text,
    "summary": fuzz_text,
    "turns": st.lists(st.fixed_dictionaries({"question": fuzz_text, "answer": fuzz_text}),
                      min_size=1, max_size=2),
}), min_size=1, max_size=3)


def tiny_config(path, train, val, features_dir):
    """A one-epoch run of a 2-wide model with a 1-wide flow stream, so that
    every example also reads a feature file."""
    doc = {
        "data": {"train": train, "val": val, "features_dir": features_dir},
        "model": {"embed_width": 2, "hidden_width": 1, "flow_width": 1},
        "training": {"max_epochs": 1, "batch_size": 4, "max_generate_len": 2,
                     "augmentation": "basic"},
    }
    path.write_text(json.dumps(doc))  # JSON is YAML; it escapes what YAML cannot hold
    return str(path)


class TestTextFaults:
    @pytest.mark.parametrize("field, text, fault", [
        ("video_id", "a\ud800b", "dialog 0: 'video_id' holds a lone surrogate at character 1"),
        ("video_id", "a\0b", "dialog 0: 'video_id' holds a NUL at character 1"),
        ("summary", "a \udfff", "dialog 'v': 'summary' holds a lone surrogate at character 2"),
        ("answer", "\0", "dialog 'v' turn 0: 'answer' holds a NUL at character 0"),
    ], ids=["video_id-surrogate", "video_id-nul", "summary-surrogate", "answer-nul"])
    def test_dataset_text_is_validation_failure(self, tmp_path, capsys, field, text, fault):
        dialog = {"video_id": "v", "summary": "a cat", "turns": [{"question": "who",
                                                                  "answer": "a cat"}]}
        if field == "answer":
            dialog["turns"][0]["answer"] = text
        else:
            dialog[field] = text
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"dialogs": [dialog]}))
        assert cli.main(["augment", "--data", str(data), "--out", str(tmp_path / "out.json"),
                         "--mode", "shuffle"]) == 1
        assert fault in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["train", "val", "features_dir"])
    @pytest.mark.parametrize("text, fault", [("x\0y.json", "a NUL at character 1"),
                                             ("x\ud800.json", "a lone surrogate at character 1")],
                             ids=["nul", "surrogate"])
    def test_config_path_text_is_validation_failure(self, tmp_path, capsys, key, text, fault):
        data = tmp_path / "data.json"
        write_dataset(data)
        paths = {"train": str(data), "val": str(data), "features_dir": str(tmp_path), key: text}
        config = tiny_config(tmp_path / "run.yaml", **paths)
        assert cli.main(["train", "--config", config, "--out", str(tmp_path / "m.ckpt")]) == 1
        assert f"data.{key} holds {fault}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option", [
        (["augment", "--data", None, "--out", "o.json"], "--data"),
        (["augment", "--data", "d.json", "--out", None], "--out"),
        (["train", "--config", None, "--out", "m.ckpt"], "--config"),
        (["eval", "--ckpt", None, "--data", "d.json", "--out", "s.tsv"], "--ckpt"),
        (["eval", "--ckpt", "m.ckpt", "--data", "d.json", "--out", "s.tsv",
          "--features", None], "--features"),
        (["generate", "--ckpt", "m.ckpt", "--data", None, "--out", "a.txt"], "--data"),
    ], ids=["augment-data", "augment-out", "train-config", "eval-ckpt", "eval-features",
            "generate-data"])
    @pytest.mark.parametrize("text, fault", [("f\0", "a NUL at character 1"),
                                             ("f\ud800", "a lone surrogate at character 1")],
                             ids=["nul", "surrogate"])
    def test_path_option_text_is_validation_failure(self, tmp_path, capsys, argv, option,
                                                    text, fault):
        # checked before any file is opened, so none of the files exists
        argv = [text if a is None else str(tmp_path / a) if "." in a else a for a in argv]
        assert cli.main(argv) == 1
        assert f"{option} holds {fault}" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=100, deadline=None)
    @given(dialogs=fuzz_dialogs)
    @example(dialogs=[{"video_id": "v", "summary": "a \ud800",
                       "turns": [{"question": "who", "answer": "a cat"}]}])
    @example(dialogs=[{"video_id": "a\0b", "summary": "a cat",
                       "turns": [{"question": "who", "answer": "a cat"}]}])
    def test_fuzzed_dataset_text_exits_cleanly(self, work, dialogs):
        data = work / "data.json"
        data.write_text(json.dumps({"dialogs": dialogs}))
        for dialog in dialogs:  # a feature file for every id a file name can hold
            with contextlib.suppress(ValueError, OSError):
                save_features(feature_path(str(work), dialog["video_id"], "flow"),
                              np.ones((2, 1)))
        assert cli.main(["augment", "--data", str(data), "--out", str(work / "out.json"),
                         "--mode", "shuffle"]) in (0, 1)
        config = tiny_config(work / "run.yaml", str(data), str(data), str(work))
        assert cli.main(["train", "--config", config,
                         "--out", str(work / "m.ckpt")]) in (0, 1, 3)

    @settings(max_examples=60, deadline=None)
    @given(paths=st.fixed_dictionaries({key: st.one_of(st.none(), fuzz_text)
                                        for key in ("train", "val", "features_dir")}))
    @example(paths={"train": None, "val": None, "features_dir": "x\0y"})
    @example(paths={"train": "x\ud800.json", "val": None, "features_dir": None})
    def test_fuzzed_config_paths_exit_cleanly(self, work, paths):
        # None keeps a key at a file that exists, so later keys are reached too
        data = work / "data.json"
        write_dataset(data, [template_dialog(f"vid{i}", "cat", "runs", "park")
                             for i in range(2)])
        for i in range(2):
            save_features(str(work / f"vid{i}.flow.feat"), np.ones((2, 1)))
        real = {"train": str(data), "val": str(data), "features_dir": str(work)}
        config = tiny_config(work / "run.yaml", **{key: real[key] if value is None else value
                                                  for key, value in paths.items()})
        with contextlib.chdir(work):  # relative draws stay inside the work directory
            code = cli.main(["train", "--config", config, "--out", str(work / "m.ckpt")])
        assert code in (0, 1, 3)
