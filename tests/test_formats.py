"""Dataset JSON, binary feature/checkpoint files, score tables, configs."""

import os
import struct
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import corpus_vocab, overfit_dialogs
from mmqa import formats
from mmqa.augment import Dialog, expand_basic
from mmqa.config import (
    Config,
    DataConfig,
    ModelConfig,
    TrainingConfig,
    config_from_dict,
    load_config,
)
from mmqa.errors import FormatError, ValidationError
from mmqa.formats import (
    CHECKPOINT_MAGIC,
    FEATURE_MAGIC,
    checkpoint_from_model,
    feature_path,
    load_checkpoint,
    load_dataset,
    load_features,
    load_scores,
    model_from_checkpoint,
    save_answers,
    save_checkpoint,
    save_dataset,
    save_features,
    save_scores,
)
from mmqa.model import Model
from mmqa.text import build_vocabulary, tokenize
from mmqa.training import Adam


# Scalars a YAML document can hold, with the huge, non-finite and boolean
# values that a config's checks must turn away
_yaml_scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6), st.dates(), st.integers(),
    st.integers(300, 420).map(lambda digits: 10 ** digits), st.just(2 ** 63),
    st.floats(allow_nan=True, allow_infinity=True),
)
_yaml_values = st.one_of(_yaml_scalars, st.recursive(
    _yaml_scalars, lambda inner: st.dictionaries(_yaml_scalars, inner, max_size=3),
    max_leaves=6,
))


def _section(cls):
    """A section mapping: some of its own keys, then keys of any scalar type."""
    own = st.fixed_dictionaries({}, optional=dict.fromkeys(vars(cls()), _yaml_values))
    others = st.dictionaries(_yaml_scalars, _yaml_values, max_size=2)
    return st.builds(lambda a, b: {**a, **b}, own, others)


_config_mappings = st.one_of(
    st.fixed_dictionaries({}, optional={"data": _section(DataConfig),
                                        "model": _section(ModelConfig),
                                        "training": _section(TrainingConfig)}),
    st.dictionaries(st.one_of(st.sampled_from(["data", "model", "training"]), _yaml_scalars),
                    _yaml_values, max_size=4),
)


def sample_dialogs():
    return [
        Dialog(video_id="vid0",
               summary=tokenize("A man is cooking in the kitchen."),
               turns=[(tokenize("Is there a guy or a girl?"),
                       tokenize("A man with beard.")),
                      (tokenize("What is he doing?"),
                       tokenize("He stirs a pot."))]),
        Dialog(video_id="vid1",
               summary=tokenize("Someone walks a dog."),
               turns=[(tokenize("What do you see?"),
                       tokenize("A dog on a leash."))]),
    ]


class TestDataset:
    def test_round_trip_preserves_dialogs(self, tmp_path):
        path = str(tmp_path / "d.json")
        dialogs = sample_dialogs()
        save_dataset(path, dialogs)
        assert load_dataset(path) == dialogs

    def test_round_trip_is_byte_stable(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_dataset(str(first), sample_dialogs())
        save_dataset(str(second), load_dataset(str(first)))
        assert first.read_bytes() == second.read_bytes()

    def test_punctuation_survives_reload(self, tmp_path):
        path = str(tmp_path / "d.json")
        save_dataset(path, sample_dialogs())
        loaded = load_dataset(path)
        assert loaded[0].turns[0][1] == ["a", "man", "with", "beard", "."]
        assert loaded[0].turns[0][0][-1] == "?"

    def test_duplicate_video_id_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(
            '{"dialogs": ['
            '{"video_id": "x", "summary": "a", "turns": []},'
            '{"video_id": "x", "summary": "b", "turns": []}]}'
        )
        with pytest.raises(ValidationError, match="duplicate video_id"):
            load_dataset(str(path))

    def test_turn_missing_answer_names_dialog(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(
            '{"dialogs": [{"video_id": "clip7", "summary": "a walk",'
            ' "turns": [{"question": "who"}]}]}'
        )
        with pytest.raises(ValidationError, match="clip7"):
            load_dataset(str(path))

    def test_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"dialogs": [\n  {"video_id": }\n]}')
        with pytest.raises(FormatError, match="line 2"):
            load_dataset(str(path))

    def test_top_level_shape_enforced(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('[1, 2, 3]')
        with pytest.raises(FormatError, match="dialogs"):
            load_dataset(str(path))

    def test_unknown_dialog_field_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"dialogs": [{"video_id": "x", "summary": "a",'
                        ' "turns": [], "mood": "tense"}]}')
        with pytest.raises(ValidationError, match="mood"):
            load_dataset(str(path))

    def test_blank_summary_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"dialogs": [{"video_id": "x", "summary": "  ",'
                        ' "turns": []}]}')
        with pytest.raises(ValidationError, match="empty summary"):
            load_dataset(str(path))

    def test_blank_answer_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"dialogs": [{"video_id": "x", "summary": "a",'
                        ' "turns": [{"question": "who", "answer": " "}]}]}')
        with pytest.raises(ValidationError, match="empty question or answer"):
            load_dataset(str(path))


class TestFeatures:
    def test_float32_payload_widens_exactly(self, tmp_path):
        path = str(tmp_path / "x.feat")
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(6, 4)).astype(np.float32).astype(np.float64)
        save_features(path, matrix)
        loaded = load_features(path)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, matrix)

    def test_storage_rounds_to_float32(self, tmp_path):
        path = str(tmp_path / "x.feat")
        save_features(path, np.array([[np.pi]]))
        loaded = load_features(path)
        assert loaded[0, 0] != np.pi
        assert loaded[0, 0] == np.float64(np.float32(np.pi))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.feat"
        save_features(str(path), np.zeros((3, 5)))
        blob = path.read_bytes()
        assert blob[:4] == FEATURE_MAGIC
        version, n, f = struct.unpack("<BII", blob[4:13])
        assert (version, n, f) == (1, 3, 5)
        assert len(blob) == 13 + 4 * 3 * 5

    def test_save_rejects_bad_matrices(self, tmp_path):
        path = str(tmp_path / "x.feat")
        with pytest.raises(ValidationError):
            save_features(path, np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            save_features(path, np.zeros(4))
        with pytest.raises(ValidationError, match="non-finite"):
            save_features(path, np.array([[np.nan]]))

    def test_load_rejects_corruption(self, tmp_path):
        good = tmp_path / "good.feat"
        save_features(str(good), np.ones((2, 2)))
        blob = good.read_bytes()

        short = tmp_path / "short.feat"
        short.write_bytes(blob[:8])
        with pytest.raises(FormatError, match="truncated"):
            load_features(str(short))

        clipped = tmp_path / "clipped.feat"
        clipped.write_bytes(blob[:-4])
        with pytest.raises(FormatError, match="payload"):
            load_features(str(clipped))

        magic = tmp_path / "magic.feat"
        magic.write_bytes(b"NOPE" + blob[4:])
        with pytest.raises(FormatError, match="bad magic"):
            load_features(str(magic))

        version = tmp_path / "version.feat"
        version.write_bytes(blob[:4] + b"\x09" + blob[5:])
        with pytest.raises(FormatError, match="version"):
            load_features(str(version))

    def test_load_rejects_nonfinite_payload(self, tmp_path):
        path = tmp_path / "inf.feat"
        payload = np.array([[np.inf]], dtype="<f4").tobytes()
        path.write_bytes(FEATURE_MAGIC + struct.pack("<BII", 1, 1, 1) + payload)
        with pytest.raises(ValidationError, match="non-finite"):
            load_features(str(path))

    def test_load_rejects_empty_matrix(self, tmp_path):
        path = tmp_path / "empty.feat"
        path.write_bytes(FEATURE_MAGIC + struct.pack("<BII", 1, 0, 1))
        with pytest.raises(ValidationError, match="empty"):
            load_features(str(path))

    def test_feature_path_strips_expansion_suffix(self):
        assert feature_path("/d", "vid0#3p1", "rgb") == "/d/vid0.rgb.feat"
        assert feature_path("/d", "vid0", "flow") == "/d/vid0.flow.feat"


class TestCheckpointFile:
    def tensors(self):
        rng = np.random.default_rng(9)
        return {
            "b.vec": rng.normal(size=7),
            "a.mat": rng.normal(size=(3, 2)),
            "c.mat": rng.normal(size=(1, 4)),
        }

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        tensors = self.tensors()
        save_checkpoint(path, tensors, bytes(range(32)))
        loaded, digest = load_checkpoint(path)
        assert digest == bytes(range(32))
        assert list(loaded) == sorted(tensors)  # file order is sorted
        for name, arr in tensors.items():
            assert np.array_equal(loaded[name], arr)

    def test_resave_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(str(first), self.tensors(), b"\x00" * 32)
        loaded, digest = load_checkpoint(str(first))
        save_checkpoint(str(second), loaded, digest)
        assert first.read_bytes() == second.read_bytes()

    def test_hash_length_enforced(self, tmp_path):
        with pytest.raises(ValidationError, match="32 bytes"):
            save_checkpoint(str(tmp_path / "m.ckpt"), self.tensors(), b"short")

    def test_corruption_detected(self, tmp_path):
        good = tmp_path / "good.ckpt"
        save_checkpoint(str(good), self.tensors(), b"\x00" * 32)
        blob = good.read_bytes()

        for cut in (3, 20, 40, len(blob) - 5):
            bad = tmp_path / f"cut{cut}.ckpt"
            bad.write_bytes(blob[:cut])
            with pytest.raises(FormatError, match="truncated"):
                load_checkpoint(str(bad))

        trailing = tmp_path / "trailing.ckpt"
        trailing.write_bytes(blob + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(str(trailing))

        magic = tmp_path / "magic.ckpt"
        magic.write_bytes(b"NOPE" + blob[4:])
        with pytest.raises(FormatError, match="bad magic"):
            load_checkpoint(str(magic))

    def test_duplicate_name_detected(self, tmp_path):
        entry = struct.pack("<H", 1) + b"w" + b"\x01" + struct.pack("<I", 1) + bytes(8)
        path = tmp_path / "dup.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + b"\x01" + b"\x00" * 32
                         + struct.pack("<I", 2) + entry + entry)
        with pytest.raises(FormatError, match="duplicate tensor name 'w'"):
            load_checkpoint(str(path))

    def test_tensors_are_writable_arrays_of_their_own(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, self.tensors(), b"\x00" * 32)
        loaded, _ = load_checkpoint(path)
        arrays = list(loaded.values())
        assert all(a.flags.writeable and a.flags.owndata for a in arrays)
        assert all(a.dtype == np.float64 for a in arrays)

    def test_unsupported_rank_detected(self, tmp_path):
        path = tmp_path / "rank.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + b"\x01" + b"\x00" * 32
                         + struct.pack("<I", 1) + struct.pack("<H", 1)
                         + b"w" + b"\x03")
        with pytest.raises(FormatError, match="rank 3"):
            load_checkpoint(str(path))


class TestModelCheckpoint:
    def build(self):
        vocab = corpus_vocab(overfit_dialogs())
        model = Model.create(np.random.default_rng(4), vocab,
                             embed_width=8, hidden_width=4)
        return vocab, model

    def save(self, tmp_path, model, vocab, optimizer=None):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, checkpoint_from_model(model, optimizer),
                        Config().hash())
        vocab.save(path + ".vocab")
        return path

    def test_rebuilt_model_generates_identically(self, tmp_path, toy_examples):
        vocab, model = self.build()
        path = self.save(tmp_path, model, vocab)
        rebuilt, digest = model_from_checkpoint(path)
        assert digest == Config().hash()
        live, restored = model.parameters(), rebuilt.parameters()
        assert set(live) == set(restored)
        for name in live:
            assert np.array_equal(live[name].data, restored[name].data), name
        for example in toy_examples[:3]:
            assert model.generate(example, 8) == rebuilt.generate(example, 8)

    def test_optimizer_state_round_trips(self, tmp_path):
        vocab, model = self.build()
        optimizer = Adam(model.parameters(), learning_rate=0.01)
        optimizer.grad.fill(1.0)
        optimizer.step(1.0)
        path = self.save(tmp_path, model, vocab, optimizer)
        tensors, _ = load_checkpoint(path)
        assert tensors["__opt__/t"][0] == 1.0
        assert np.array_equal(tensors["__opt__/m/decoder.proj.b"],
                              optimizer.views(optimizer.m)["decoder.proj.b"])

    def test_architecture_travels_in_the_file(self, tmp_path, toy_examples):
        vocab = corpus_vocab(overfit_dialogs())
        model = Model.create(np.random.default_rng(4), vocab,
                             embed_width=6, hidden_width=3,
                             pooling="average", flow_width=5)
        path = self.save(tmp_path, model, vocab)
        rebuilt, _ = model_from_checkpoint(path)
        assert rebuilt.question_rnn.fwd.hidden_width == 3
        assert rebuilt.cfg.pooling == "average"
        assert list(rebuilt.streams) == ["summary", "history", "flow"]
        assert rebuilt.streams["flow"][0].fwd.input_width == 5

    def test_every_architecture_field_round_trips(self, tmp_path):
        cfg = ModelConfig(embed_width=6, hidden_width=3, pooling="average", flow_width=5,
                          rgb_width=4, audio_width=2)
        defaults = ModelConfig()
        assert all(getattr(cfg, f.name) != getattr(defaults, f.name) for f in fields(cfg))
        vocab = corpus_vocab(overfit_dialogs())
        model = Model.create(np.random.default_rng(4), vocab, **asdict(cfg))
        assert model.cfg == cfg
        rebuilt, _ = model_from_checkpoint(self.save(tmp_path, model, vocab))
        assert rebuilt.cfg == cfg

    def test_stored_architecture_is_exactly_the_model_config(self):
        _, model = self.build()
        stored = {name[len("__cfg__/"):] for name in checkpoint_from_model(model)
                  if name.startswith("__cfg__/")}
        assert stored == {f.name for f in fields(ModelConfig)}

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_parameter_rejected(self, tmp_path, value):
        vocab, model = self.build()
        tensors = checkpoint_from_model(model)
        tensors["decoder.proj.b"] = tensors["decoder.proj.b"].copy()
        tensors["decoder.proj.b"][0, 3] = value
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, tensors, Config().hash())
        vocab.save(path + ".vocab")
        with pytest.raises(ValidationError, match="'decoder.proj.b' contains non-finite"):
            model_from_checkpoint(path)

    def test_undecodable_tensor_name_names_its_byte(self, tmp_path):
        vocab, model = self.build()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), checkpoint_from_model(model), Config().hash())
        blob = bytearray(path.read_bytes())
        blob[4 + 1 + 32 + 4 + 2 + 3] = 0xFF  # fourth byte of the first name
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="byte 46 is not valid UTF-8"):
            load_checkpoint(str(path))

    def test_vocabulary_mismatch_detected(self, tmp_path):
        vocab, model = self.build()
        path = self.save(tmp_path, model, vocab)
        bigger = corpus_vocab(overfit_dialogs())
        bigger.add("zebra")
        bigger.save(path + ".vocab")
        with pytest.raises(ValidationError, match="vocabulary mismatch"):
            model_from_checkpoint(path)

    def test_missing_sidecar_detected(self, tmp_path):
        vocab, model = self.build()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, checkpoint_from_model(model), Config().hash())
        with pytest.raises(FormatError, match="sidecar"):
            model_from_checkpoint(path)

    def test_unknown_tensor_rejected(self, tmp_path):
        vocab, model = self.build()
        tensors = checkpoint_from_model(model)
        tensors["mystery.weight"] = np.zeros(3)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, tensors, Config().hash())
        vocab.save(path + ".vocab")
        with pytest.raises(ValidationError, match="mystery.weight"):
            model_from_checkpoint(path)

    def test_matched_decoder_width_loads(self, tmp_path, toy_examples):
        # a checkpoint written while decoder_hidden and freeze_embeddings
        # were options stores both; with the decoder as wide as the question
        # vector it loads, frozen table or not, and answers as before
        vocab, model = self.build()
        path = str(tmp_path / "m.ckpt")
        vocab.save(path + ".vocab")
        for frozen in (0.0, 1.0):
            tensors = checkpoint_from_model(model)
            tensors["__cfg__/decoder_hidden"] = np.array([8.0])  # 2 * hidden_width
            tensors["__cfg__/freeze_embeddings"] = np.array([frozen])
            save_checkpoint(path, tensors, Config().hash())
            rebuilt, _ = model_from_checkpoint(path)
            assert rebuilt.cfg == model.cfg
            for example in toy_examples[:3]:
                assert rebuilt.generate(example, 8) == model.generate(example, 8)

    def test_width_is_bounded_below_the_vocabulary_size(self, tmp_path):
        # the widest non-vocabulary extent is 5 * 8 + 8 = 48 (the decoder's
        # first-layer input); a hidden width of 60 must fail the range check
        # before a 60-wide model is built
        vocab, model = self.build()
        for i in range(80):
            vocab.add(f"extra{i}")
        model = Model.create(np.random.default_rng(4), vocab, embed_width=8, hidden_width=4)
        tensors = checkpoint_from_model(model)
        tensors["__cfg__/hidden_width"] = np.array([60.0])
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, tensors, Config().hash())
        vocab.save(path + ".vocab")
        with pytest.raises(ValidationError, match="'hidden_width' is 60.0; expected a whole "
                                                  "number in \\[0, 48\\]"):
            model_from_checkpoint(path)

    def test_a_model_is_read_without_drawing_initial_values(self, tmp_path, monkeypatch):
        # every parameter is read from the file, so a drawn initial value
        # would only be overwritten
        vocab, model = self.build()
        path = self.save(tmp_path, model, vocab)

        class Undrawable:
            def __getattr__(self, name):
                raise AssertionError(f"the reader drew initial values ({name})")

        monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: Undrawable())
        rebuilt, _ = model_from_checkpoint(path)
        restored = rebuilt.parameters()
        for name, tensor in model.parameters().items():
            assert np.array_equal(restored[name].data, tensor.data), name

    def test_missing_parameter_rejected(self, tmp_path):
        vocab, model = self.build()
        tensors = checkpoint_from_model(model)
        del tensors["decoder.proj.b"]
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, tensors, Config().hash())
        vocab.save(path + ".vocab")
        with pytest.raises(ValidationError, match="decoder.proj.b"):
            model_from_checkpoint(path)


def traced_peak(read, path):
    """(peak bytes that `read(path)` allocated, its result), by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = read(path)
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


class TestCheckpointReaders:
    """Both readers walk every header first, then read only kept payloads."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        """(path, parameter bytes) of a checkpoint with Adam state at a
        1,500-word vocabulary, large enough that the parameters outweigh
        the sidecar's Python objects."""
        vocab = build_vocabulary([[f"w{i}" for i in range(1500)]])
        model = Model.create(np.random.default_rng(4), vocab, embed_width=32,
                             hidden_width=16, flow_width=6)
        optimizer = Adam(model.parameters(), learning_rate=0.01)
        optimizer.grad.fill(1.0)
        optimizer.step(1.0)
        path = str(tmp_path_factory.mktemp("readers") / "m.ckpt")
        save_checkpoint(path, checkpoint_from_model(model, optimizer), Config().hash())
        vocab.save(path + ".vocab")
        return path, optimizer.theta.nbytes

    def test_a_model_is_read_without_its_optimizer_payloads(self, checkpoint, monkeypatch):
        path, _ = checkpoint
        cfg = {n for n in load_checkpoint(path)[0] if n.startswith("__cfg__/")}
        read, original = [], formats._read_payload
        monkeypatch.setattr(formats, "_read_payload",
                            lambda fh, p, name, *rest: read.append(name)
                            or original(fh, p, name, *rest))
        model, _ = model_from_checkpoint(path)
        assert sorted(read) == sorted(cfg | set(model.parameters()))

    def test_model_reader_peak_is_within_twice_the_parameters(self, checkpoint):
        path, param_bytes = checkpoint
        peak, _ = traced_peak(model_from_checkpoint, path)
        assert peak <= 2.0 * param_bytes

    def test_tensor_reader_peak_is_within_a_quarter_over_the_payloads(self, checkpoint):
        path, _ = checkpoint
        peak, (tensors, _) = traced_peak(load_checkpoint, path)
        assert peak <= 1.25 * sum(a.nbytes for a in tensors.values())

    def test_a_cut_inside_an_optimizer_payload_is_truncation(self, checkpoint, tmp_path):
        path, _ = checkpoint
        with open(path, "rb") as fh:
            _, index = formats._checkpoint_index(fh, path)
        offset = index["__opt__/v/decoder.proj.w"][1]
        cut = tmp_path / "m.ckpt"
        cut.write_bytes(Path(path).read_bytes()[:offset + 12])
        cut.with_name("m.ckpt.vocab").write_bytes(Path(path + ".vocab").read_bytes())
        for read in (load_checkpoint, model_from_checkpoint):
            with pytest.raises(FormatError, match="truncated while reading payload of "
                                                  "'__opt__/v/decoder.proj.w'"):
                read(str(cut))

    @pytest.mark.parametrize("read", [load_checkpoint, model_from_checkpoint])
    def test_a_short_read_is_a_format_error(self, checkpoint, tmp_path, monkeypatch, read):
        # the file shrinks to half its size after its headers were checked
        path = str(tmp_path / "m.ckpt")
        for suffix in ("", ".vocab"):
            Path(path + suffix).write_bytes(Path(checkpoint[0] + suffix).read_bytes())
        index = formats._checkpoint_index

        def then_shrink(fh, where):
            out = index(fh, where)
            os.truncate(where, os.path.getsize(where) // 2)
            return out

        monkeypatch.setattr(formats, "_checkpoint_index", then_shrink)
        with pytest.raises(FormatError, match=r"truncated while reading payload of "
                                              r"'.+' \(read \d+ of \d+ bytes\)"):
            read(path)


class TestSmallOutputs:
    def test_scores_round_trip_exactly(self, tmp_path):
        path = str(tmp_path / "scores.tsv")
        scores = {"bleu1": 0.1 + 0.2, "cider": 10.0 / 3.0, "token_f1": 1.0}
        save_scores(path, scores)
        loaded = load_scores(path)
        assert loaded == scores
        assert list(loaded) == list(scores)

    def test_answers_file_layout(self, tmp_path):
        path = tmp_path / "answers.txt"
        save_answers(str(path), [["a", "man", "."], [], ["yes"]])
        assert path.read_text() == "a man .\n\nyes\n"


class TestConfig:
    def test_defaults_from_empty_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("")
        cfg = load_config(str(path))
        assert cfg == Config()
        assert cfg.training.loss_mode == "tf"

    def test_partial_override(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("model:\n  hidden_width: 16\ntraining:\n  seed: 3\n")
        cfg = load_config(str(path))
        assert cfg.model.hidden_width == 16
        assert cfg.model.embed_width == 64
        assert cfg.training.seed == 3

    def test_int_promotes_to_float(self):
        cfg = config_from_dict({"training": {"learning_rate": 1}})
        assert cfg.training.learning_rate == 1.0
        assert isinstance(cfg.training.learning_rate, float)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="momentum"):
            config_from_dict({"training": {"momentum": 0.9}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError, match="optimizer"):
            config_from_dict({"optimizer": {}})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ValidationError, match="embed_width"):
            config_from_dict({"model": {"embed_width": True}})

    def test_type_errors_rejected(self):
        with pytest.raises(ValidationError, match="pooling must be str"):
            config_from_dict({"model": {"pooling": 7}})

    def test_semantic_validation(self):
        with pytest.raises(ValidationError, match="loss_mode"):
            config_from_dict({"training": {"loss_mode": "magic"}})
        with pytest.raises(ValidationError, match="pooling"):
            config_from_dict({"model": {"pooling": "sum"}})

    def test_retired_literal_decoder_key_rejected(self):
        with pytest.raises(ValidationError, match="literal_decoder"):
            config_from_dict({"model": {"literal_decoder": False}})

    @pytest.mark.parametrize("key, value", [
        ("cell", "gru"), ("decoder_hidden", 0), ("freeze_embeddings", False),
    ], ids=["cell", "decoder_hidden", "freeze_embeddings"])
    def test_retired_model_key_rejected(self, key, value):
        with pytest.raises(ValidationError, match=f"unknown model config keys: \\['{key}'\\]"):
            config_from_dict({"model": {key: value}})

    def test_retired_training_key_rejected(self):
        # scheduled sampling is gone: its probability is an unknown key and
        # its loss mode an invalid choice
        with pytest.raises(ValidationError,
                           match=r"unknown training config keys: \['ss_probability'\]"):
            config_from_dict({"training": {"ss_probability": 0.2}})
        with pytest.raises(ValidationError,
                           match=r"loss_mode must be one of \['tf', 'free'\], got 'ss'"):
            config_from_dict({"training": {"loss_mode": "ss"}})

    @pytest.mark.parametrize("key, value", [("beta1", 0.9), ("beta2", 0.999),
                                            ("epsilon", 1e-8)])
    def test_retired_adam_key_rejected(self, key, value):
        # Adam's constants are fixed at Kingma and Ba's recommended values
        with pytest.raises(ValidationError, match=f"unknown training config keys: \\['{key}'\\]"):
            config_from_dict({"training": {key: value}})

    def test_yaml_parse_error(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("model: [unclosed\n")
        with pytest.raises(ValidationError, match="cannot parse"):
            load_config(str(path))

    @pytest.mark.parametrize("key", ["learning_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_float_rejected(self, key, value):
        with pytest.raises(ValidationError, match=f"training.{key} must be finite"):
            config_from_dict({"training": {key: value}})

    def test_retired_data_test_key_rejected(self):
        with pytest.raises(ValidationError, match="'test'"):
            config_from_dict({"data": {"test": "test.json"}})

    def test_undecodable_yaml_names_its_byte(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_bytes(b"training:\n  seed: 3  # caf\xe9\n")  # Latin-1, not UTF-8
        with pytest.raises(FormatError, match="c.yaml: byte 26 is not valid UTF-8"):
            load_config(str(path))

    @settings(max_examples=200, deadline=None)
    @given(_config_mappings)
    @example({"model": {1: 2, "foo": 3}})
    @example({1: 2, "foo": 3})
    @example({"training": {"learning_rate": 10 ** 400}})
    def test_any_mapping_is_accepted_or_a_validation_error(self, raw):
        try:
            config_from_dict(raw)
        except ValidationError:
            pass

    def test_hash_is_stable_and_sensitive(self):
        a = Config().hash()
        assert len(a) == 32
        assert a == Config().hash()
        changed = config_from_dict({"training": {"seed": 1}})
        assert changed.hash() != a
