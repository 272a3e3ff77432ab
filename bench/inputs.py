"""Seeded input generator for the benchmark workloads.

Every input is a function of the seed alone and is written to disk through
the program's own public writers (`save_dataset`, `save_features`,
`save_checkpoint`, `Vocabulary.save`), so the program under test only ever
sees generated files.

Run directly to write one workload's inputs:

    PYTHONPATH=src python3 bench/inputs.py --workload train --seed 1 --out .bench_work/inputs
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np
import yaml

from mmqa.augment import Dialog, expand_basic
from mmqa.config import TrainingConfig
from mmqa.formats import (
    checkpoint_from_model,
    feature_path,
    save_checkpoint,
    save_dataset,
    save_features,
)
from mmqa.model import Model
from mmqa.text import Vocabulary, build_vocabulary
from mmqa.training import train

# Short English words that every sentence mixes with the content words.
FUNCTION_WORDS = (
    "a", "after", "and", "any", "are", "at", "does", "he", "her", "his",
    "how", "in", "is", "it", "many", "no", "not", "of", "on", "one",
    "she", "the", "then", "there", "they", "this", "to", "two", "what",
    "when", "where", "who", "with", "yes",
)
FUNCTION_SHARE = 0.25
# Content-word rank weights fall off as 1 / (rank + ZIPF_OFFSET), so a few
# words recur across dialogs while most of the vocabulary is rare.
ZIPF_OFFSET = 200
ONSETS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"
CODAS = ("", "", "", "n", "r", "s", "l", "m")

# Architecture shared by the train workload's config and the eval checkpoint.
MODEL = dict(embed_width=64, hidden_width=32, flow_width=16, rgb_width=16,
             audio_width=8)
FEATURE_WIDTHS = {"flow": MODEL["flow_width"], "rgb": MODEL["rgb_width"],
                  "audio": MODEL["audio_width"]}
FRAMES = (4, 6)


@dataclass(frozen=True)
class CorpusShape:
    """Sentence lengths are drawn uniformly from each inclusive range."""

    dialogs: int
    turns: int
    summary_len: tuple
    question_len: tuple
    answer_len: tuple


TRAIN_LEXICON = 20000
# Multi-turn dialogs carry the history encoder and the shuffle copies;
# single-turn dialogs with long sentences carry most of the vocabulary.
TRAIN_SHAPES = (
    CorpusShape(dialogs=8, turns=3, summary_len=(10, 14),
                question_len=(6, 9), answer_len=(5, 8)),
    CorpusShape(dialogs=80, turns=1, summary_len=(18, 24),
                question_len=(9, 13), answer_len=(6, 9)),
)
VAL_SHAPE = CorpusShape(dialogs=4, turns=2, summary_len=(8, 10),
                        question_len=(5, 7), answer_len=(4, 6))
TRAIN_CONFIG = dict(learning_rate=3e-3, batch_size=8, max_epochs=2, patience=2,
                    augmentation="shuffle", factor=2, loss_mode="tf",
                    max_generate_len=10)

EVAL_LEXICON = 3000
# Held-out answers follow these patterns around a word of the question, so
# that the briefly fitted checkpoint answers with overlapping n-grams.
ANSWER_TEMPLATES = (
    ("yes", "the", None, "is", "there"),
    ("no", "he", "is", "not", None),
    ("she", "is", "in", "the", None),
    ("they", "are", "at", "the", None),
)
EVAL_SHAPE = CorpusShape(dialogs=200, turns=2, summary_len=(8, 12),
                         question_len=(5, 8), answer_len=(3, 6))
# The checkpoint is fitted until it answers FIT_ANSWER to every fit example,
# so that every seed's checkpoint answers with the same number of tokens.
FIT_ANSWER = ("yes", "he", "is", "in", "the")
EVAL_FIT_SHAPE = CorpusShape(dialogs=2, turns=1, summary_len=(3, 3),
                             question_len=(3, 3), answer_len=(1, 1))
EVAL_FIT_CONFIG = dict(learning_rate=3e-2, batch_size=1, max_epochs=40,
                       patience=40, max_generate_len=8)
# Misspellings per held-out example, as (count, examples) pairs that are
# dealt to examples in seeded order: 220 misspellings, about 4% of the
# question, summary and history words. Fixed block sizes keep the median and
# the 95th-percentile answer inside one block on every seed.
MISSPELLINGS_PER_EXAMPLE = ((0, 70), (1, 80), (2, 30), (4, 20))
MAX_LEN = 12


def make_lexicon(rng: np.random.Generator, size: int) -> list[str]:
    """`size` distinct pronounceable content words of five letters or more."""
    syllables = [o + v + c for o in ONSETS for v in VOWELS for c in CODAS]
    reserved = set(FUNCTION_WORDS)
    words: set = set()
    while len(words) < size:
        batch = size - len(words)
        lengths = rng.integers(2, 5, size=batch)
        picks = rng.integers(len(syllables), size=(batch, 4))
        for length, row in zip(lengths, picks):
            word = "".join(syllables[j] for j in row[:length])
            if len(word) >= 5 and word not in reserved and len(words) < size:
                words.add(word)
    return sorted(words)


class SentenceSource:
    """Draws sentences mixing function words with Zipf-ranked content words."""

    def __init__(self, rng: np.random.Generator, lexicon: list[str]):
        self.rng = rng
        self.lexicon = lexicon
        weights = 1.0 / (np.arange(len(lexicon)) + ZIPF_OFFSET)
        self.cdf = np.cumsum(weights) / weights.sum()

    def sentence(self, length_range) -> list[str]:
        low, high = length_range
        length = int(self.rng.integers(low, high + 1))
        out = []
        for _ in range(length):
            if self.rng.random() < FUNCTION_SHARE:
                out.append(FUNCTION_WORDS[self.rng.integers(len(FUNCTION_WORDS))])
            else:
                rank = int(np.searchsorted(self.cdf, self.rng.random(), side="right"))
                out.append(self.lexicon[min(rank, len(self.lexicon) - 1)])
        return out

    def dialogs(self, shape: CorpusShape, prefix: str) -> list[Dialog]:
        return [
            Dialog(
                video_id=f"{prefix}{i:04d}",
                summary=self.sentence(shape.summary_len),
                turns=[(self.sentence(shape.question_len),
                        self.sentence(shape.answer_len))
                       for _ in range(shape.turns)],
            )
            for i in range(shape.dialogs)
        ]


def write_features(rng: np.random.Generator, features_dir: str, dialogs) -> None:
    """One `.feat` file per modality per video, 4 to 6 frames each."""
    os.makedirs(features_dir, exist_ok=True)
    for dialog in dialogs:
        frames = int(rng.integers(FRAMES[0], FRAMES[1] + 1))
        for modality, width in FEATURE_WIDTHS.items():
            matrix = rng.normal(0.0, 1.0, size=(frames, width)).astype(np.float32)
            save_features(feature_path(features_dir, dialog.video_id, modality), matrix)


def corpus_tokens(dialogs) -> list[list[str]]:
    out = []
    for dialog in dialogs:
        out.append(dialog.summary)
        for q, a in dialog.turns:
            out.append(q)
            out.append(a)
    return out


@dataclass
class TrainInputs:
    config_path: str
    train_path: str
    val_path: str
    features_dir: str
    dialogs: list
    config: dict


def make_train_inputs(seed: int, out_dir: str) -> TrainInputs:
    """Training corpus, in-vocabulary validation set, features and config."""
    rng = np.random.default_rng([seed, 1])
    source = SentenceSource(rng, make_lexicon(rng, TRAIN_LEXICON))
    dialogs = [d for i, shape in enumerate(TRAIN_SHAPES)
               for d in source.dialogs(shape, f"train{i}-")]
    known = sorted({t for toks in corpus_tokens(dialogs) for t in toks})
    val_source = SentenceSource(rng, known)
    val_dialogs = val_source.dialogs(VAL_SHAPE, "val")

    os.makedirs(out_dir, exist_ok=True)
    train_path = os.path.join(out_dir, "train.json")
    val_path = os.path.join(out_dir, "val.json")
    features_dir = os.path.join(out_dir, "features")
    save_dataset(train_path, dialogs)
    save_dataset(val_path, val_dialogs)
    write_features(rng, features_dir, dialogs + val_dialogs)

    config = {
        "data": {"train": train_path, "val": val_path, "features_dir": features_dir},
        "model": dict(MODEL),
        "training": dict(TRAIN_CONFIG, seed=seed),
    }
    config_path = os.path.join(out_dir, "run.yaml")
    with open(config_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh, sort_keys=True)
    return TrainInputs(config_path, train_path, val_path, features_dir, dialogs, config)


def misspell(rng: np.random.Generator, word: str, vocab: Vocabulary) -> str:
    """An edit of `word` (drop, swap, substitute or double a letter) not in `vocab`."""
    while True:
        kind = int(rng.integers(4))
        i = int(rng.integers(1, len(word) - 1))
        if kind == 0:
            out = word[:i] + word[i + 1:]
        elif kind == 1:
            out = word[:i] + word[i + 1] + word[i] + word[i + 2:]
        elif kind == 2:
            out = word[:i] + "abcdefghijklmnopqrstuvwxyz"[rng.integers(26)] + word[i + 1:]
        else:
            out = word[:i] + word[i] + word[i:]
        if out != word and out not in vocab:
            return out


def template_answers(rng: np.random.Generator, dialogs) -> None:
    """Give each dialog's last turn a templated answer around a question word."""
    for dialog in dialogs:
        question, _ = dialog.turns[-1]
        content = [t for t in question if t not in FUNCTION_WORDS] or question
        word = content[int(rng.integers(len(content)))]
        template = ANSWER_TEMPLATES[int(rng.integers(len(ANSWER_TEMPLATES)))]
        dialog.turns[-1] = (question, [word if t is None else t for t in template])


def misspell_corpus(rng: np.random.Generator, dialogs, vocab: Vocabulary) -> list[str]:
    """Misspell words of each dialog's summary, questions and history.

    Dialog i gets the i-th count of MISSPELLINGS_PER_EXAMPLE after a seeded
    shuffle. Only words of five letters or more are edited, and the gold
    answer of the last turn stays clean. Returns the distinct misspellings.
    """
    counts = [k for k, n in MISSPELLINGS_PER_EXAMPLE for _ in range(n)]
    if len(counts) != len(dialogs):
        raise ValueError(f"{len(counts)} misspelling counts for {len(dialogs)} dialogs")
    made = set()
    for dialog, count in zip(dialogs, rng.permutation(counts)):
        sentences = [dialog.summary] + [s for turn in dialog.turns[:-1] for s in turn]
        sentences.append(dialog.turns[-1][0])
        slots = [(s, k) for s in sentences for k, t in enumerate(s) if len(t) >= 5]
        for index in sorted(rng.choice(len(slots), size=int(count), replace=False)):
            sentence, k = slots[index]
            sentence[k] = misspell(rng, sentence[k], vocab)
            made.add(sentence[k])
    return sorted(made)


@dataclass
class EvalInputs:
    ckpt_path: str
    data_path: str
    features_dir: str
    dialogs: list
    misspellings: list


def make_eval_inputs(seed: int, out_dir: str) -> EvalInputs:
    """A briefly fitted checkpoint plus a held-out corpus with misspellings.

    The checkpoint shares the train workload's architecture; its vocabulary
    is the whole lexicon, so the held-out corpus is in-vocabulary except for
    the misspellings.
    """
    rng = np.random.default_rng([seed, 2])
    lexicon = make_lexicon(rng, EVAL_LEXICON)
    vocab = build_vocabulary([list(FUNCTION_WORDS), lexicon])
    source = SentenceSource(rng, lexicon)
    fit_dialogs = source.dialogs(EVAL_FIT_SHAPE, "fit")
    dialogs = source.dialogs(EVAL_SHAPE, "test")
    template_answers(rng, dialogs)
    for dialog in fit_dialogs:
        dialog.turns[-1] = (dialog.turns[-1][0], list(FIT_ANSWER))
    misspellings = misspell_corpus(rng, dialogs, vocab)

    os.makedirs(out_dir, exist_ok=True)
    features_dir = os.path.join(out_dir, "features")
    write_features(rng, features_dir, dialogs)
    data_path = os.path.join(out_dir, "test.json")
    save_dataset(data_path, dialogs)

    fit_examples = [expand_basic(d)[0] for d in fit_dialogs]
    model = Model.create(np.random.default_rng([seed, 3]), vocab, **MODEL)
    result = train(model, fit_examples, fit_examples,
                   TrainingConfig(**EVAL_FIT_CONFIG, seed=seed), stop_at_train_f1=1.0)
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    save_checkpoint(ckpt_path, checkpoint_from_model(model, result.optimizer), bytes(32))
    vocab.save(ckpt_path + ".vocab")
    return EvalInputs(ckpt_path, data_path, features_dir, dialogs, misspellings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train", "eval"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    make = make_train_inputs if args.workload == "train" else make_eval_inputs
    make(args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
