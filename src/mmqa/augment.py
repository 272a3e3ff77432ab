"""Dialog records and training-set expansion.

A raw dialog is a video id, a summary, and an ordered list of QA turns.
Expansion turns dialogs into training examples three ways: last turn only,
one example per turn, or per-turn plus extra copies whose history pair
order is permuted. Pairs always stay intact; only their order changes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

__all__ = [
    "Dialog",
    "DialogExample",
    "derive_seed",
    "expand_basic",
    "expand_shuffle",
    "AUGMENTATIONS",
]

# enumerate the full permutation set only while it stays this small
_ENUMERATION_LIMIT = 5040


@dataclass
class Dialog:
    """One video's dialog: tokenized summary plus ordered QA turn pairs."""

    video_id: str
    summary: list
    turns: list  # [(question tokens, answer tokens), ...]

    def __post_init__(self):
        for i, (q, a) in enumerate(self.turns):
            if not q or not a:
                raise ValidationError(
                    f"dialog {self.video_id!r} turn {i} has an empty question or answer"
                )


@dataclass
class DialogExample:
    """One training item: a target QA turn with its preceding history."""

    video_id: str
    question: list
    answer: list
    history: list  # [(question tokens, answer tokens), ...]
    summary: list
    flow: Optional[np.ndarray] = None
    rgb: Optional[np.ndarray] = None
    audio: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.answer:
            raise ValidationError(f"example {self.video_id!r} has an empty answer")
        if not self.question:
            raise ValidationError(f"example {self.video_id!r} has an empty question")


def derive_seed(seed: int, video_id: str) -> int:
    """Stable per-dialog seed so expansion order never matters."""
    digest = hashlib.sha256(f"{seed}:{video_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def shuffle_capacity(n: int) -> int:
    """Distinct non-identity orderings of an n-pair history: n! - 1."""
    if n < 0:
        raise ValidationError(f"history length must be nonnegative, got {n}")
    return max(0, math.factorial(n) - 1)


def _example(dialog: Dialog, k: int, history, suffix: str = "") -> DialogExample:
    q, a = dialog.turns[k]
    return DialogExample(
        video_id=f"{dialog.video_id}#{k}{suffix}",
        question=list(q),
        answer=list(a),
        history=[(list(hq), list(ha)) for hq, ha in history],
        summary=list(dialog.summary),
    )


def expand_basic(dialog: Dialog) -> list[DialogExample]:
    """Single example: the last turn, every prior turn as history."""
    if not dialog.turns:
        raise ValidationError(f"dialog {dialog.video_id!r} has no turns")
    last = len(dialog.turns) - 1
    return [_example(dialog, last, dialog.turns[:last])]


def expand_per_turn(dialog: Dialog) -> list[DialogExample]:
    """One example per turn k, with the first k pairs as its history."""
    if not dialog.turns:
        raise ValidationError(f"dialog {dialog.video_id!r} has no turns")
    return [_example(dialog, k, dialog.turns[:k]) for k in range(len(dialog.turns))]


def _sample_permutations(n: int, count: int, rng: np.random.Generator) -> list[tuple]:
    """`count` distinct non-identity permutations of range(n), without replacement."""
    identity = tuple(range(n))
    total = math.factorial(n)
    if total <= _ENUMERATION_LIMIT or count > total // 2:
        pool = [p for p in itertools.permutations(range(n)) if p != identity]
        order = rng.permutation(len(pool))
        return [pool[i] for i in order[:count]]
    seen = {identity}
    out = []
    while len(out) < count:
        p = tuple(int(i) for i in rng.permutation(n))
        if p in seen:
            continue
        seen.add(p)
        out.append(p)
    return out


def expand_shuffle(dialog: Dialog, factor: int, seed: int) -> list[DialogExample]:
    """Per-turn expansion plus permuted-history copies.

    Each per-turn example with history length n >= 2 gains min(factor-1, n!-1)
    copies whose history pairs appear in a distinct non-identity order. The
    permutation draw is seeded per dialog, so a corpus expands identically
    no matter how it is partitioned.
    """
    if factor < 1:
        raise ValidationError(f"augmentation factor must be >= 1, got {factor}")
    base = expand_per_turn(dialog)
    if factor == 1:
        return base
    rng = np.random.default_rng(derive_seed(seed, dialog.video_id))
    out = []
    for k, example in enumerate(base):
        out.append(example)
        n = len(example.history)
        extra = min(factor - 1, shuffle_capacity(n))
        if extra < 1:
            continue
        for j, perm in enumerate(_sample_permutations(n, extra, rng), start=1):
            history = [example.history[i] for i in perm]
            out.append(_example(dialog, k, history, suffix=f"p{j}"))
    return out


# The augmentation modes by name, each as (dialog, factor, seed) -> examples.
AUGMENTATIONS = {
    "basic": lambda dialog, factor, seed: expand_basic(dialog),
    "per-turn": lambda dialog, factor, seed: expand_per_turn(dialog),
    "shuffle": lambda dialog, factor, seed: expand_shuffle(dialog, factor, seed),
}
