"""Corpus-level generation metrics: BLEU-1..4, ROUGE-L, CIDEr.

All three work on pre-tokenized sequences and are pure functions. BLEU is
the original corpus-level definition with no smoothing: a single zero
k-gram precision zeroes the whole score.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter

from .errors import ValidationError

__all__ = ["bleu", "rouge_l", "rouge_l_corpus", "cider"]

ROUGE_BETA_SQ = 1.2


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def validate_corpus(candidates, references) -> None:
    """Check the candidate/reference lists are aligned and usable."""
    if len(candidates) != len(references):
        raise ValidationError(
            f"{len(candidates)} candidates vs {len(references)} reference sets"
        )
    for i, refs in enumerate(references):
        if not refs:
            raise ValidationError(f"example {i} has no references")


def _closest_ref_length(cand_len: int, refs) -> int:
    # ties prefer the shorter reference
    return min((abs(len(r) - cand_len), len(r)) for r in refs)[1]


def bleu(candidates, references, n: int = 4) -> float:
    """Corpus BLEU-n: geometric mean of clipped k-gram precisions k<=n,
    times a length penalty exp(1 - longer/shorter) comparing the total
    candidate length with the total closest-reference length."""
    if n not in (1, 2, 3, 4):
        raise ValidationError(f"bleu order must be 1..4, got {n}")
    validate_corpus(candidates, references)
    matched = [0] * n
    total = [0] * n
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        cand_len += len(cand)
        ref_len += _closest_ref_length(len(cand), refs)
        for k in range(1, n + 1):
            counts = _ngrams(cand, k)
            ceiling = Counter()
            for ref in refs:
                ceiling |= _ngrams(ref, k)
            matched[k - 1] += sum((counts & ceiling).values())
            total[k - 1] += sum(counts.values())
    if cand_len == 0 or any(t == 0 for t in total):
        return 0.0
    precisions = [m / t for m, t in zip(matched, total)]
    if any(p == 0.0 for p in precisions):
        return 0.0
    if cand_len == ref_len:
        penalty = 1.0
    elif cand_len < ref_len:
        penalty = math.exp(1.0 - ref_len / cand_len)
    else:
        penalty = math.exp(1.0 - cand_len / ref_len)
    return penalty * math.exp(sum(math.log(p) for p in precisions) / n)


def _lcs_length(a, b) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate, references) -> float:
    """LCS F-measure (beta^2 = 1.2), best reference wins."""
    if not references:
        raise ValidationError("rouge_l needs at least one reference")
    best = 0.0
    for ref in references:
        if not candidate or not ref:
            continue
        lcs = _lcs_length(candidate, ref)
        if lcs == 0:
            continue
        p = lcs / len(candidate)
        r = lcs / len(ref)
        f = ((1 + ROUGE_BETA_SQ) * p * r) / (r + ROUGE_BETA_SQ * p)
        best = max(best, f)
    return best


def rouge_l_corpus(candidates, references) -> float:
    validate_corpus(candidates, references)
    if not candidates:
        return 0.0
    return sum(rouge_l(c, r) for c, r in zip(candidates, references)) / len(candidates)


def _tfidf_vector(tokens, n: int, doc_freq: Counter, corpus_size: int) -> dict:
    log_n = math.log(corpus_size)
    return {
        gram: count * (log_n - math.log(max(1.0, doc_freq[gram])))
        for gram, count in _ngrams(tokens, n).items()
    }


def _cosine(u: dict, v: dict) -> float:
    nu = math.sqrt(sum(x * x for x in u.values()))
    nv = math.sqrt(sum(x * x for x in v.values()))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = sum(x * v[g] for g, x in u.items() if g in v)
    return dot / (nu * nv)


def cider(candidates, references) -> float:
    """TF-IDF n-gram cosine (n = 1..4 averaged), scaled by 10.

    Document frequency counts, per n-gram, how many examples mention it in
    at least one reference. A single-example corpus has all-zero IDF and
    scores 0; that degenerate case raises a warning.
    """
    validate_corpus(candidates, references)
    size = len(candidates)
    if size == 0:
        return 0.0
    if size == 1:
        warnings.warn("CIDEr needs >= 2 examples for meaningful IDF; scoring 0",
                      stacklevel=2)
    total = 0.0
    for n in range(1, 5):
        doc_freq = Counter()
        for refs in references:
            grams = set()
            for ref in refs:
                grams.update(_ngrams(ref, n))
            for gram in grams:
                doc_freq[gram] += 1
        for cand, refs in zip(candidates, references):
            cand_vec = _tfidf_vector(cand, n, doc_freq, size)
            sim = sum(
                _cosine(cand_vec, _tfidf_vector(ref, n, doc_freq, size)) for ref in refs
            ) / len(refs)
            total += sim
    return 10.0 * total / (4 * size)
