"""Shared builders: template corpora, tiny models, feature attachment,
and the process fixtures of the sharded greedy answers."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from mmqa import training
from mmqa.augment import Dialog, expand_basic
from mmqa.model import Model
from mmqa.text import build_vocabulary

SUBJECTS = ["man", "woman", "dog", "cat", "boy", "girl", "bird", "chef"]
ACTIONS = ["runs", "sits", "jumps", "sleeps", "eats", "waves", "sings", "reads"]
PLACES = ["kitchen", "garden", "street", "room", "park", "hall", "yard", "shop"]

FEATURE_WIDTHS = {"flow": 6, "rgb": 6, "audio": 4}


def template_dialog(vid: str, s: str, a: str, p: str) -> Dialog:
    return Dialog(
        video_id=vid,
        summary=["a", s, a, "in", "the", p],
        turns=[
            (["who", "is", "there"], ["a", s]),
            (["what", "happens"], ["the", s, a, "in", "the", p]),
        ],
    )


def overfit_dialogs() -> list:
    """Eight two-turn dialogs over shared sentence templates."""
    return [
        template_dialog(f"vid{i}", SUBJECTS[i], ACTIONS[i], PLACES[i])
        for i in range(8)
    ]


def heldout_dialogs() -> list:
    """Four dialogs recombining the same templates with unseen triples."""
    return [
        template_dialog(f"val{i}", SUBJECTS[(i + 3) % 8], ACTIONS[(i + 5) % 8],
                        PLACES[(i + 1) % 8])
        for i in range(4)
    ]


def corpus_vocab(dialogs):
    token_lists = []
    for d in dialogs:
        token_lists.append(d.summary)
        for q, a in d.turns:
            token_lists.append(q)
            token_lists.append(a)
    return build_vocabulary(token_lists)


def attach_random_features(examples, seed: int, frames: int = 4) -> None:
    rng = np.random.default_rng(seed)
    for ex in examples:
        ex.flow = rng.normal(0.0, 1.0, size=(frames, FEATURE_WIDTHS["flow"]))
        ex.rgb = rng.normal(0.0, 1.0, size=(frames, FEATURE_WIDTHS["rgb"]))
        ex.audio = rng.normal(0.0, 1.0, size=(frames, FEATURE_WIDTHS["audio"]))


def overfit_setup(feature_seed: int = 11):
    """(train examples with features, vocabulary) for overfitting probes."""
    dialogs = overfit_dialogs()
    examples = [expand_basic(d)[0] for d in dialogs]
    attach_random_features(examples, feature_seed)
    return examples, corpus_vocab(dialogs)


def overfit_model(vocab, seed: int = 3) -> Model:
    return Model.create(
        np.random.default_rng(seed), vocab,
        embed_width=32, hidden_width=16,
        flow_width=FEATURE_WIDTHS["flow"],
        rgb_width=FEATURE_WIDTHS["rgb"],
        audio_width=FEATURE_WIDTHS["audio"],
    )


@pytest.fixture
def text_model():
    """A small text-only model over the template vocabulary."""
    dialogs = overfit_dialogs()
    vocab = corpus_vocab(dialogs)
    return Model.create(np.random.default_rng(0), vocab,
                        embed_width=8, hidden_width=4)


@pytest.fixture
def toy_examples():
    dialogs = overfit_dialogs()
    return [expand_basic(d)[0] for d in dialogs]


@pytest.fixture
def cores(monkeypatch):
    """`cores(n)` makes `training.greedy_answers` see n usable cores: an
    affinity mask of n CPUs and no cgroup CPU quota."""
    monkeypatch.setattr(training, "CPU_QUOTA_FILES", ())

    def set_cores(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_cores


@pytest.fixture
def forks(monkeypatch):
    """Counts the worker processes started, in a one-item list."""
    count, start = [0], multiprocessing.context.ForkProcess.start

    def counted(self):
        count[0] += 1
        start(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counted)
    return count


def dying_generate(video_id):
    """`Model.generate`, except that a worker process exits with code 9 at
    `video_id`; in the calling process that example fails the test."""
    parent, original = os.getpid(), Model.generate

    def generate(self, example, max_len):
        if example.video_id == video_id:
            assert os.getpid() != parent, "the calling process reached the fatal example"
            os._exit(9)
        return original(self, example, max_len)

    return generate
