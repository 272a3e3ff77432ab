"""Multimodal open-domain question answering over video dialogs.

A from-scratch encoder-decoder: BiGRU encoders with question-guided
attention over summary, dialog history, and video/audio features, early
fusion, and a two-layer GRU answer generator, plus its training loop and
the standard captioning metrics. Everything differentiable runs through
the package's own reverse-mode tape.
"""

__version__ = "0.1.0"
