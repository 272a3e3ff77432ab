"""Multimodal open-domain question answering over video dialogs.

A from-scratch encoder-decoder: BiGRU encoders with question-guided
attention over summary, dialog history, and video/audio features, early
fusion, and a two-layer GRU answer generator, plus its training loop and
the standard captioning metrics. Everything differentiable runs through
the package's own reverse-mode tape.
"""

from .augment import (
    Dialog,
    DialogExample,
    expand_basic,
    expand_per_turn,
    expand_shuffle,
    shuffle_capacity,
)
from .config import Config, load_config
from .errors import (
    FormatError,
    MmqaError,
    NumericalError,
    ShapeError,
    ValidationError,
)
from .metrics import bleu, cider, rouge_l, rouge_l_corpus
from .model import Model
from .tensor import Tape, Tensor, grad_check
from .text import Vocabulary, build_vocabulary, tokenize
from .training import Adam, TrainResult, evaluate, token_f1, train

__all__ = [
    "Dialog",
    "DialogExample",
    "expand_basic",
    "expand_per_turn",
    "expand_shuffle",
    "shuffle_capacity",
    "Config",
    "load_config",
    "FormatError",
    "MmqaError",
    "NumericalError",
    "ShapeError",
    "ValidationError",
    "bleu",
    "cider",
    "rouge_l",
    "rouge_l_corpus",
    "Model",
    "Tape",
    "Tensor",
    "grad_check",
    "Vocabulary",
    "build_vocabulary",
    "tokenize",
    "Adam",
    "TrainResult",
    "evaluate",
    "token_f1",
    "train",
]

__version__ = "0.1.0"
