"""Run configuration: defaults, YAML loading, validation, canonical hash.

Three sections (data, model, training) mirror the pipeline stages. Every
key has a default; a key the schema does not know is an error, so typos
fail loudly instead of silently running with a default.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import yaml

from .augment import AUGMENTATIONS
from .errors import ValidationError

__all__ = [
    "POOLINGS",
    "FEATURES",
    "LOSS_MODES",
    "MAX_GENERATE_LEN",
    "DEFAULT_GENERATE_LEN",
    "MAX_FACTOR",
    "ModelConfig",
    "TrainingConfig",
    "check_text",
    "load_config",
]

POOLINGS = ("max", "average")
FEATURES = ("flow", "rgb", "audio")  # each has a `<modality>_width` in ModelConfig
LOSS_MODES = ("tf", "free")
# the most tokens a greedy answer may take: an undertrained model may never
# emit EOS, and then decoding runs for the whole bound
MAX_GENERATE_LEN = 1000
# the tokens a greedy answer may take unless a run asks for another bound
DEFAULT_GENERATE_LEN = 20
# the most shuffled copies per example: a dialog with n history pairs has
# n! - 1 of them, so without a bound a long dialog expands factorially
MAX_FACTOR = 1000


def check_text(value: str, where: str) -> str:
    """`value`, unless it holds a NUL or a lone surrogate: no file name can
    hold either, and a lone surrogate cannot even be written as UTF-8."""
    nul = value.find("\0")
    if nul >= 0:
        raise ValidationError(f"{where} holds a NUL at character {nul}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(f"{where} holds a lone surrogate at character {exc.start}") from None
    return value


@dataclass
class DataConfig:
    train: str = "train.json"
    val: str = "val.json"
    features_dir: str = ""

    def validate(self):
        for key in ("train", "val", "features_dir"):
            check_text(getattr(self, key), f"data.{key}")


@dataclass
class ModelConfig:
    """The architecture: `Model.create` takes exactly these fields and a
    checkpoint stores each of them under `__cfg__/`."""

    embed_width: int = 64
    hidden_width: int = 32
    pooling: str = "max"
    flow_width: int = 0
    rgb_width: int = 0
    audio_width: int = 0

    def validate(self):
        # a width past 2**63 - 1, numpy's largest array extent, cannot even be
        # handed to numpy
        for key, low in (("embed_width", 1), ("hidden_width", 1),
                         *((f"{modality}_width", 0) for modality in FEATURES)):
            if not low <= getattr(self, key) < 2 ** 63:
                raise ValidationError(f"{key} must lie in [{low}, 2**63)")
        if self.pooling not in POOLINGS:
            raise ValidationError(f"pooling must be 'max' or 'average', got {self.pooling!r}")

    @property
    def feature_widths(self) -> dict:
        """Width of each of the FEATURES, in order; 0 disables the modality."""
        return {modality: getattr(self, f"{modality}_width") for modality in FEATURES}


@dataclass
class TrainingConfig:
    learning_rate: float = 1e-3
    batch_size: int = 8
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0
    augmentation: str = "basic"
    factor: int = 2
    loss_mode: str = "tf"
    max_generate_len: int = DEFAULT_GENERATE_LEN

    def validate(self):
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValidationError("batch_size and max_epochs must be >= 1")
        if self.patience < 1:
            raise ValidationError("patience must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.augmentation not in AUGMENTATIONS:
            raise ValidationError(
                f"augmentation must be one of {list(AUGMENTATIONS)}, got {self.augmentation!r}"
            )
        if not 1 <= self.factor <= MAX_FACTOR:
            raise ValidationError(f"factor must lie in [1, {MAX_FACTOR}], got {self.factor}")
        if self.loss_mode not in LOSS_MODES:
            raise ValidationError(
                f"loss_mode must be one of {list(LOSS_MODES)}, got {self.loss_mode!r}"
            )
        if not 1 <= self.max_generate_len <= MAX_GENERATE_LEN:
            raise ValidationError(f"max_generate_len must lie in [1, {MAX_GENERATE_LEN}], "
                                  f"got {self.max_generate_len}")


@dataclass
class Config:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def validate(self):
        self.data.validate()
        self.model.validate()
        self.training.validate()
        return self

    def hash(self) -> bytes:
        """32-byte digest of the canonical serialized form."""
        canon = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).digest()


def _fill(cls, section: dict, where: str):
    defaults = cls()
    unknown = set(section) - set(vars(defaults))
    if unknown:
        raise ValidationError(f"unknown {where} config keys: {sorted(unknown, key=str)}")
    for key, value in section.items():
        expected = type(getattr(defaults, key))
        if expected is float and isinstance(value, int) and not isinstance(value, bool):
            try:
                value = float(value)
            except OverflowError:
                raise ValidationError(f"{where}.{key} is beyond the float range") from None
        if not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
            raise ValidationError(
                f"{where}.{key} must be {expected.__name__}, got {type(value).__name__}"
            )
        if expected is float and not math.isfinite(value):
            raise ValidationError(f"{where}.{key} must be finite, got {value}")
        setattr(defaults, key, value)
    return defaults


def config_from_dict(raw: dict) -> Config:
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a mapping")
    unknown = set(raw) - {"data", "model", "training"}
    if unknown:
        raise ValidationError(f"unknown config sections: {sorted(unknown, key=str)}")
    for name in raw:
        if not isinstance(raw[name], dict):
            raise ValidationError(f"config section {name!r} must be a mapping")
    cfg = Config(
        data=_fill(DataConfig, raw.get("data", {}), "data"),
        model=_fill(ModelConfig, raw.get("model", {}), "model"),
        training=_fill(TrainingConfig, raw.get("training", {}), "training"),
    )
    return cfg.validate()


def load_config(path: str) -> Config:
    from .formats import read_text

    try:
        raw = yaml.safe_load(read_text(path))
    # ValueError: a scalar no Python value can hold, such as an impossible
    # date or an integer of more than 4,300 digits
    except (yaml.YAMLError, RecursionError, ValueError) as exc:
        raise ValidationError(f"cannot parse config {path}: {exc}") from exc
    return config_from_dict(raw if raw is not None else {})
