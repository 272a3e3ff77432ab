"""Tokenization, vocabulary, and trainable word vectors with an OOV fallback.

Unknown words are mapped to the most similar in-vocabulary word by character
trigram overlap (Dice), so that typos such as missing or swapped letters
still land near the intended word vector. Below a similarity floor the
lookup falls back to the UNK row. The vocabulary keeps an inverted index
from each trigram to the ids containing it, so a lookup scores only the
entries that share a trigram with the unknown word.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ValidationError
from .tensor import Module, Tensor, take_rows

__all__ = [
    "PAD",
    "SOS",
    "EOS",
    "tokenize",
    "Vocabulary",
    "build_vocabulary",
    "EmbeddingTable",
    "resolve_token",
    "embed_sentence",
]

PAD, SOS, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<sos>", "<eos>", "<unk>")

# a detached mark, or a run of anything else that is not whitespace
_TOKEN = re.compile(r"""[.,?!'"]|[^\s.,?!'"]+""")

# OOV matches below this trigram-Dice similarity fall back to UNK.
OOV_SIMILARITY_FLOOR = 0.3


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace, detaching .,?!'\" as own tokens."""
    return _TOKEN.findall(text.lower())


class Vocabulary:
    """Token/id bijection with fixed reserved ids PAD=0, SOS=1, EOS=2, UNK=3.

    Non-reserved entries are also indexed by character trigram for the OOV
    fallback: `_trigram_index()` maps each trigram to the ascending ids that
    contain it and gives each id the size of its trigram set. The index is
    built on first use, so a run whose tokens are all known never pays for it.
    """

    def __init__(self, tokens=()):
        self._tokens: list[str] = list(RESERVED_TOKENS)
        self._ids: dict[str, int] = {t: i for i, t in enumerate(self._tokens)}
        self._index = None
        for token in tokens:
            self.add(token)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def add(self, token: str) -> int:
        """Insert a token if new; returns its id either way."""
        idx = self._ids.get(token)
        if idx is None:
            idx = self._ids[token] = len(self._tokens)
            self._tokens.append(token)
            self._index = None  # rebuilt on its next use
        return idx

    def _trigram_index(self) -> tuple:
        if self._index is None:
            postings: dict[str, list[int]] = {}
            gram_counts = [0] * len(RESERVED_TOKENS)
            get = postings.get
            for idx in range(len(RESERVED_TOKENS), len(self._tokens)):
                grams = _trigrams(self._tokens[idx])
                gram_counts.append(len(grams))
                for gram in grams:
                    posting = get(gram)
                    if posting is None:
                        postings[gram] = [idx]
                    else:
                        posting.append(idx)
            self._index = postings, gram_counts
        return self._index

    def id(self, token: str):
        return self._ids.get(token)

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def tokens(self) -> list[str]:
        """All tokens including the reserved ones, in id order."""
        return list(self._tokens)

    def save(self, path) -> None:
        """One non-reserved token per line; line number = id - 4."""
        from .formats import atomic_write_text

        atomic_write_text(path, "".join(t + "\n" for t in self._tokens[len(RESERVED_TOKENS):]))

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read a `save`d vocabulary; every line must be a new, non-reserved
        token, since its line number fixes its id and so its embedding row."""
        from .formats import read_text

        lines = read_text(path).splitlines()
        seen = set(RESERVED_TOKENS)
        for lineno, line in enumerate(lines, start=1):
            if not line:
                raise ValidationError(f"{path}:{lineno}: empty vocabulary line")
            if line in seen:
                kind = "reserved" if line in RESERVED_TOKENS else "repeated"
                raise ValidationError(f"{path}:{lineno}: {kind} vocabulary token {line!r}")
            seen.add(line)
        return cls(lines)


def build_vocabulary(token_lists) -> Vocabulary:
    """Vocabulary over all tokens seen, in sorted order for reproducibility."""
    seen = set()
    for toks in token_lists:
        seen.update(toks)
    return Vocabulary(sorted(seen - set(RESERVED_TOKENS)))


def _trigrams(token: str) -> set:
    padded = "<" + token + ">"
    return {padded[i:i + 3] for i in range(len(padded) - 2)}


def resolve_token(vocab: Vocabulary, token: str) -> int:
    """Token id by exact match, trigram-Dice fallback, or UNK.

    The fallback scores the non-reserved entries that share a trigram with
    `token` by Dice coefficient over boundary-padded trigram sets and keeps
    the best, ties broken by lower id; matches below the floor resolve to UNK.
    A word that spells a control token (`<pad>`, `<sos>`, `<eos>`) is data,
    not control, and resolves to UNK.
    """
    exact = vocab.id(token)
    if exact is not None:
        return max(exact, UNK)  # the ids below UNK are control ids
    query = _trigrams(token)
    if not query:
        return UNK
    postings, gram_counts = vocab._trigram_index()
    overlaps = Counter(chain.from_iterable(postings.get(gram, ()) for gram in query))
    best_id = UNK
    best_score = 0.0
    for idx in sorted(overlaps):
        score = 2.0 * overlaps[idx] / (len(query) + gram_counts[idx])
        if score > best_score:
            best_score = score
            best_id = idx
    if best_score < OOV_SIMILARITY_FLOOR:
        return UNK
    return best_id


@dataclass
class EmbeddingTable(Module):
    """Trainable word vectors, one row per vocabulary entry."""

    matrix: Tensor

    @classmethod
    def create(cls, vocab_size: int, width: int, rng: np.random.Generator) -> "EmbeddingTable":
        # uniform [-0.1, 0.1] init
        data = rng.uniform(-0.1, 0.1, size=(vocab_size, width))
        return cls(Tensor(data))

    def row(self, idx: int) -> Tensor:
        return take_rows(self.matrix, [idx])


def embed_sentence(vocab: Vocabulary, table: EmbeddingTable, tokens) -> Tensor:
    """n*d_w matrix of token vectors, in input order; rejects empty input."""
    if not tokens:
        raise ValidationError("cannot embed an empty token list")
    if len(vocab) != table.matrix.rows:
        raise ValidationError(
            f"embedding rows ({table.matrix.rows}) do not match vocabulary size ({len(vocab)})"
        )
    ids = [resolve_token(vocab, t) for t in tokens]
    return take_rows(table.matrix, ids)
