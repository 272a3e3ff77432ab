"""File formats: dataset JSON, binary features, binary checkpoints.

All writers are atomic (temp file + rename) and deterministic: the same
logical content always produces the same bytes, which is what makes the
reproducibility guarantees of the pipeline checkable with `cmp`.

Feature files:   magic "MMQA", version u8, u32 rows, u32 cols, float32 LE.
Checkpoint:      magic "MMCK", version u8, 32-byte config hash, u32 tensor
                 count, then per tensor (sorted by name): u16 name length,
                 name bytes, u8 rank, u32 extents, float64 LE payload.
Optimizer state lives under the reserved "__opt__/" name prefix and the
architecture scalars under "__cfg__/", so a checkpoint plus its ".vocab"
sidecar is enough to rebuild the model with no config file at hand.

Checkpoints are read header-first by one parser (`_checkpoint_index`): it
walks every tensor's name, rank and extents, checking each payload's extent
against the file size and seeking past it, so no field can make it
allocate more than a header's bytes. Only then are payloads read, each straight
into its own float64 array with `readinto`: every one for
`load_checkpoint`, and for `model_from_checkpoint` the architecture
scalars and the parameters, the latter into the rebuilt model's arrays.
An optimizer payload is never read to rebuild a model, so reading one
holds about one copy of the parameters at its peak.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import asdict, fields

import numpy as np

from .augment import Dialog
from .config import POOLINGS, ModelConfig, check_text
from .errors import FormatError, ValidationError
from .text import tokenize

__all__ = [
    "read_text",
    "atomic_write_text",
    "save_dataset",
    "load_dataset",
    "save_features",
    "load_features",
    "feature_path",
    "save_checkpoint",
    "checkpoint_from_model",
    "model_from_checkpoint",
    "save_scores",
    "save_answers",
]

FEATURE_MAGIC = b"MMQA"
CHECKPOINT_MAGIC = b"MMCK"
FORMAT_VERSION = 1

OPT_PREFIX = "__opt__/"
CFG_PREFIX = "__cfg__/"


def atomic_write_bytes(path: str, chunks) -> None:
    """Write `chunks`, bytes-like objects in order, via a temp file in the
    same directory, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, [text.encode("utf-8")])


def _decode(raw: bytes, path: str, offset: int = 0) -> str:
    """UTF-8 text of `raw`, which starts at byte `offset` of file `path`."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: byte {offset + exc.start} is not valid UTF-8 ({exc.reason})"
        ) from exc


def read_text(path: str) -> str:
    """The contents of a UTF-8 text file; undecodable bytes are a FormatError."""
    with open(path, "rb") as fh:
        return _decode(fh.read(), path)


# ---------------------------------------------------------------- datasets

def _dialog_to_json(dialog: Dialog) -> dict:
    return {
        "video_id": dialog.video_id,
        "summary": " ".join(dialog.summary),
        "turns": [
            {"question": " ".join(q), "answer": " ".join(a)} for q, a in dialog.turns
        ],
    }


def save_dataset(path: str, dialogs) -> None:
    doc = {"dialogs": [_dialog_to_json(d) for d in dialogs]}
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _require(mapping: dict, key: str, kind, where: str):
    if key not in mapping:
        raise ValidationError(f"{where} is missing the {key!r} field")
    value = mapping[key]
    if not isinstance(value, kind):
        raise ValidationError(f"{where}: {key!r} must be {kind.__name__}")
    return check_text(value, f"{where}: {key!r}") if kind is str else value


def load_dataset(path: str) -> list:
    """Parse and validate a dialog dataset; order is preserved."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"cannot parse {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise FormatError(f"cannot parse {path}: nested too deeply") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("dialogs"), list):
        raise FormatError(f"{path}: expected a top-level object with a 'dialogs' list")
    dialogs = []
    seen = set()
    for i, item in enumerate(doc["dialogs"]):
        if not isinstance(item, dict):
            raise ValidationError(f"{path}: dialog {i} is not an object")
        vid = _require(item, "video_id", str, f"dialog {i}")
        where = f"dialog {vid!r}"
        unknown = set(item) - {"video_id", "summary", "turns"}
        if unknown:
            raise ValidationError(f"{where} has unknown fields: {sorted(unknown)}")
        if vid in seen:
            raise ValidationError(f"duplicate video_id {vid!r}")
        seen.add(vid)
        summary = tokenize(_require(item, "summary", str, where))
        if not summary:
            raise ValidationError(f"{where} has an empty summary")
        raw_turns = _require(item, "turns", list, where)
        turns = []
        for j, turn in enumerate(raw_turns):
            if not isinstance(turn, dict) or set(turn) != {"question", "answer"}:
                raise ValidationError(
                    f"{where} turn {j} must be an object with question and answer"
                )
            turns.append((tokenize(_require(turn, "question", str, f"{where} turn {j}")),
                          tokenize(_require(turn, "answer", str, f"{where} turn {j}"))))
        dialogs.append(Dialog(video_id=vid, summary=summary, turns=turns))
    return dialogs


# ---------------------------------------------------------------- features

def save_features(path: str, matrix) -> None:
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"feature matrix must be 2-D and non-empty, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("feature matrix contains non-finite values")
    n, f = arr.shape
    header = FEATURE_MAGIC + struct.pack("<BII", FORMAT_VERSION, n, f)
    atomic_write_bytes(path, [header, arr.astype("<f4").tobytes(order="C")])


def load_features(path: str) -> np.ndarray:
    """Read a feature file back as float64 (float32 payload widens exactly)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 13:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    if blob[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    version, n, f = struct.unpack("<BII", blob[4:13])
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = 13 + 4 * n * f
    if len(blob) != expected:
        raise FormatError(
            f"{path}: payload is {len(blob) - 13} bytes, expected {expected - 13}"
        )
    if n < 1 or f < 1:
        raise ValidationError(f"{path}: empty feature matrix ({n}x{f})")
    arr = np.frombuffer(blob[13:], dtype="<f4").reshape(n, f)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{path}: feature matrix contains non-finite values")
    return arr.astype(np.float64)


def feature_path(features_dir: str, video_id: str, modality: str) -> str:
    """Features are keyed by the id before any '#' expansion suffix."""
    base = video_id.split("#")[0]
    return os.path.join(features_dir, f"{base}.{modality}.feat")


# -------------------------------------------------------------- checkpoints

def save_checkpoint(path: str, tensors: dict, config_hash: bytes) -> None:
    if len(config_hash) != 32:
        raise ValidationError(f"config hash must be 32 bytes, got {len(config_hash)}")
    parts = [CHECKPOINT_MAGIC, struct.pack("<B", FORMAT_VERSION), bytes(config_hash),
             struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise ValidationError(f"tensor {name!r} has unsupported rank {arr.ndim}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValidationError(f"tensor name too long: {name[:40]!r}...")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        # the payload is written from the array itself (copied only when
        # strided or not little-endian), so no copy of the whole file is held
        parts.append(np.ascontiguousarray(arr, dtype="<f8"))
    atomic_write_bytes(path, parts)


def _checkpoint_index(fh, path: str):
    """Walk every tensor header of the open checkpoint `fh`, seeking past
    each payload. Returns (32-byte config hash, {name: (shape, payload
    offset)} in file order). Each payload's extent is checked against the
    file size before it is skipped, so no field can make this allocate more
    than a header's bytes."""
    size = os.fstat(fh.fileno()).st_size
    pos = 0

    def take(count: int, what: str) -> bytes:
        nonlocal pos
        chunk = fh.read(count)  # a header field: at most a 65,535-byte name
        if len(chunk) != count:
            raise FormatError(f"{path}: truncated while reading {what}")
        pos += count
        return chunk

    magic = take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    version = take(1, "version")[0]
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    config_hash = take(32, "config hash")
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    index = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = _decode(take(name_len, "name"), path, pos - name_len)
        rank = take(1, "rank")[0]
        if rank not in (1, 2):
            raise FormatError(f"{path}: tensor {name!r} has unsupported rank {rank}")
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "extents"))
        nbytes = 8 * math.prod(shape)  # Python ints: huge extents cannot wrap around
        if pos + nbytes > size:
            raise FormatError(f"{path}: truncated while reading payload of {name!r}")
        if name in index:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        index[name] = (shape, pos)
        pos += nbytes
        fh.seek(pos)
    if pos != size:
        raise FormatError(f"{path}: {size - pos} trailing bytes")
    return config_hash, index


_PAYLOAD_DTYPE = np.dtype("<f8")


def _read_payload(fh, path: str, name: str, offset: int, out: np.ndarray) -> None:
    """Fill `out`, a float64 array of the tensor's shape, with the payload
    at `offset`: read straight into it where it is a C-contiguous
    little-endian array, as on every little-endian host."""
    direct = out.dtype == _PAYLOAD_DTYPE and out.flags.c_contiguous
    target = out if direct else np.empty(out.shape, _PAYLOAD_DTYPE)
    fh.seek(offset)
    got = fh.readinto(target)
    if got != target.nbytes:
        raise FormatError(f"{path}: truncated while reading payload of {name!r} "
                          f"(read {got} of {target.nbytes} bytes)")
    if not direct:
        out[...] = target


def load_checkpoint(path: str):
    """Returns (tensors dict in file order, 32-byte config hash). Every
    header is checked before any payload is read; each payload is then read
    into an array of its own."""
    with open(path, "rb") as fh:
        config_hash, index = _checkpoint_index(fh, path)
        tensors = {}
        for name, (shape, offset) in index.items():
            tensors[name] = np.empty(shape, _PAYLOAD_DTYPE)
            _read_payload(fh, path, name, offset, tensors[name])
    return tensors, config_hash


def _cfg_scalar(value: float) -> np.ndarray:
    return np.asarray([float(value)], dtype=np.float64)


# Each ModelConfig field is stored as one scalar: a choice by its index and
# a width as is.
_CFG_CHOICES = {"pooling": POOLINGS}
# fields of retired options that older checkpoints still hold; a loader
# reads past them
_RETIRED_CFG_FIELDS = ("decoder_hidden", "freeze_embeddings")


def checkpoint_from_model(model, optimizer=None) -> dict:
    """Flatten a model (and optionally Adam state) into named tensors."""
    out = {name: t.data for name, t in model.parameters().items()}
    for key, value in asdict(model.cfg).items():
        choices = _CFG_CHOICES.get(key)
        out[CFG_PREFIX + key] = _cfg_scalar(value if choices is None else choices.index(value))
    if optimizer is not None:
        out[OPT_PREFIX + "t"] = _cfg_scalar(optimizer.t)
        for name, m in optimizer.views(optimizer.m).items():
            out[f"{OPT_PREFIX}m/{name}"] = m
        for name, v in optimizer.views(optimizer.v).items():
            out[f"{OPT_PREFIX}v/{name}"] = v
    return out


_VOCABULARY_SIZED = ("embedding.matrix", "decoder.proj.w", "decoder.proj.b")


def _cfg_int(tensors: dict, key: str, path: str, high: int) -> int:
    full = CFG_PREFIX + key
    if full not in tensors:
        raise ValidationError(f"{path}: checkpoint lacks architecture field {key!r}")
    raw = tensors[full].reshape(-1)
    value = float(raw[0]) if raw.size == 1 else float("nan")
    if not (np.isfinite(value) and value == np.floor(value) and 0 <= value <= high):
        shown = repr(value) if raw.size == 1 else f"{raw.size} values"
        raise ValidationError(
            f"{path}: architecture field {key!r} is {shown}; "
            f"expected a whole number in [0, {high}]"
        )
    return int(value)


class _NoDraws(object):
    """Stands in for the generator `Model.create` draws initial values
    from when a checkpoint is read: every parameter is then read from the
    file, or the load fails, so a draw would only be overwritten."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def model_from_checkpoint(path: str):
    """Rebuild a model from a checkpoint and its '<path>.vocab' sidecar.

    Returns (model, config_hash). Every tensor header is checked first;
    then only the architecture scalars are read and range-checked, before
    anything is allocated, and `Model.create` validates the architecture
    they give. The model is built with no initial values drawn, and each
    parameter's payload is read straight into its array; a tensor that is
    neither a parameter, an architecture field (current or retired) nor
    optimizer state is rejected. Optimizer state is never read.
    """
    from .model import Model
    from .text import Vocabulary

    with open(path, "rb") as fh:
        config_hash, index = _checkpoint_index(fh, path)
        vocab_path = path + ".vocab"
        if not os.path.exists(vocab_path):
            raise FormatError(f"missing vocabulary sidecar {vocab_path}")
        vocab = Vocabulary.load(vocab_path)
        # Every width is an extent of some stored tensor that is not
        # vocabulary-sized, so a corrupt width can reach neither the
        # vocabulary size nor beyond and make Model.create allocate a huge
        # model.
        widest = max((max(shape) for name, (shape, _) in index.items()
                      if not name.endswith(_VOCABULARY_SIZED)), default=0)
        stored = {}
        for name, (shape, offset) in index.items():
            if name.startswith(CFG_PREFIX):
                stored[name] = np.empty(shape)
                _read_payload(fh, path, name, offset, stored[name])
        arch = {}
        for f in fields(ModelConfig):
            choices = _CFG_CHOICES.get(f.name)
            value = _cfg_int(stored, f.name, path,
                             widest if choices is None else len(choices) - 1)
            arch[f.name] = value if choices is None else choices[value]
        try:
            model = Model.create(_NoDraws(), vocab, **arch)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        params = model.parameters()
        for name, tensor in params.items():
            if name not in index:
                raise ValidationError(f"{path}: checkpoint lacks parameter {name!r}")
            shape, offset = index[name]
            if shape != tensor.data.shape:
                if name == "embedding.matrix" and shape[0] != tensor.data.shape[0]:
                    raise ValidationError(
                        f"vocabulary mismatch: checkpoint embedding is {shape}, "
                        f"sidecar vocabulary implies {tensor.data.shape}"
                    )
                raise ValidationError(
                    f"{path}: parameter {name!r} is {shape}, expected {tensor.data.shape}"
                )
            _read_payload(fh, path, name, offset, tensor.data)
            if not np.isfinite(tensor.data).all():
                raise ValidationError(f"{path}: parameter {name!r} contains non-finite values")
    known = {*params, *(CFG_PREFIX + key for key in (*arch, *_RETIRED_CFG_FIELDS))}
    extras = [n for n in index if n not in known and not n.startswith(OPT_PREFIX)]
    if extras:
        raise ValidationError(f"{path}: unknown tensors {sorted(extras)[:5]}")
    return model, config_hash


# ------------------------------------------------------------ small outputs

def save_scores(path: str, scores: dict) -> None:
    """One 'name<TAB>value' line per metric, in the given order."""
    lines = [f"{name}\t{float(value)!r}\n" for name, value in scores.items()]
    atomic_write_text(path, "".join(lines))


def load_scores(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if not line:
                continue
            name, _, value = line.partition("\t")
            out[name] = float(value)
    return out


def save_answers(path: str, answers) -> None:
    """One generated answer per line, tokens space-joined."""
    atomic_write_text(path, "".join(" ".join(tokens) + "\n" for tokens in answers))
