"""Corpus-level generation metrics: BLEU-1..4, ROUGE-L, CIDEr.

All three work on pre-tokenized sequences and are pure functions.
`corpus_scores` scores the whole table from one n-gram count per sentence:
for each order 1..4 in turn, every candidate's and every reference's
n-grams are counted once, and both BLEU and CIDEr read those counts. BLEU
keeps each order's clipped matched and total counts, and BLEU-n reads the
first n orders; CIDEr takes its document frequencies from the same
reference counts. `bleu` and `cider` score one metric through the same
helpers, so every score equals its table entry bitwise. BLEU is the
original corpus-level definition with no smoothing: a single zero k-gram
precision zeroes the whole score.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from itertools import chain

from .errors import ValidationError

__all__ = ["bleu", "rouge_l_corpus", "cider", "corpus_scores"]

ROUGE_BETA_SQ = 1.2
MAX_ORDER = 4


def _ngram_counts(tokens, n: int) -> dict:
    """Counts of `tokens`' n-grams, keyed in order of first occurrence."""
    counts = {}
    for gram in zip(*(tokens[i:] for i in range(n))):
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def _count_order(candidates, references, n: int) -> tuple:
    """Every candidate's and every reference's n-gram counts."""
    return ([_ngram_counts(cand, n) for cand in candidates],
            [[_ngram_counts(ref, n) for ref in refs] for refs in references])


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


def _clipped_counts(cand_grams, ref_grams) -> tuple:
    """The corpus's clipped matched and total n-gram counts for one order."""
    matched = 0
    total = 0
    for counts, refs in zip(cand_grams, ref_grams):
        # each n-gram's largest count in any one reference
        ceiling = refs[0]
        for ref in refs[1:]:
            ceiling = {**ceiling, **{g: c for g, c in ref.items() if c > ceiling.get(g, 0)}}
        matched += sum(min(c, ceiling.get(gram, 0)) for gram, c in counts.items())
        total += sum(counts.values())
    return matched, total


def _lengths(candidates, references) -> tuple:
    """The total candidate length and the total closest-reference length."""
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        cand_len += len(cand)
        ref_len += _closest_ref_length(len(cand), refs)
    return cand_len, ref_len


def _bleu_score(clipped, cand_len: int, ref_len: int) -> float:
    """BLEU-n from the clipped counts of orders 1..n."""
    n = len(clipped)
    if cand_len == 0 or any(t == 0 for _, t in clipped):
        return 0.0
    precisions = [m / t for m, t in clipped]
    if any(p == 0.0 for p in precisions):
        return 0.0
    if cand_len == ref_len:
        penalty = 1.0
    elif cand_len < ref_len:
        penalty = math.exp(1.0 - ref_len / cand_len)
    elif ref_len == 0:
        return 0.0  # the limit of exp(1 - cand_len / ref_len) as ref_len falls to 0
    else:
        penalty = math.exp(1.0 - cand_len / ref_len)
    return penalty * math.exp(sum(math.log(p) for p in precisions) / n)


def bleu(candidates, references, n: int = 4) -> float:
    """Corpus BLEU-n: geometric mean of clipped k-gram precisions k<=n,
    times a length penalty exp(1 - longer/shorter) comparing the total
    candidate length with the total closest-reference length; 0 when that
    reference length is 0, the penalty's limit."""
    if n not in (1, 2, 3, 4):
        raise ValidationError(f"bleu order must be 1..4, got {n}")
    validate_corpus(candidates, references)
    clipped = [_clipped_counts(*_count_order(candidates, references, k)) for k in range(1, n + 1)]
    return _bleu_score(clipped, *_lengths(candidates, references))


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


def _mean_rouge_l(candidates, references) -> float:
    if not candidates:
        return 0.0
    return sum(rouge_l(c, r) for c, r in zip(candidates, references)) / len(candidates)


def rouge_l_corpus(candidates, references) -> float:
    validate_corpus(candidates, references)
    return _mean_rouge_l(candidates, references)


def _tfidf(counts: dict, doc_freq: Counter, idf: list) -> tuple:
    """A sentence's TF-IDF vector for one order and its Euclidean norm."""
    vec = {gram: count * idf[doc_freq.get(gram, 0)] for gram, count in counts.items()}
    return vec, math.sqrt(sum(x * x for x in vec.values()))


def _cosine(a: tuple, b: tuple) -> float:
    """Cosine of two `_tfidf` results."""
    (u, nu), (v, nv) = a, b
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = sum(x * v[g] for g, x in u.items() if g in v)
    return dot / (nu * nv)


def _cider_sims(cand_grams, ref_grams) -> list:
    """Each example's mean TF-IDF cosine to its references, for one order."""
    size = len(cand_grams)
    if size == 0:
        return []
    log_n = math.log(size)
    # the IDF of an n-gram that df of the examples mention
    idf = [log_n - math.log(max(1.0, df)) for df in range(size + 1)]
    doc_freq = Counter(chain.from_iterable(set().union(*refs) for refs in ref_grams))
    sims = []
    for cand, refs in zip(cand_grams, ref_grams):
        cand_vec = _tfidf(cand, doc_freq, idf)
        sims.append(sum(_cosine(cand_vec, _tfidf(ref, doc_freq, idf)) for ref in refs)
                    / len(refs))
    return sims


def _cider_score(sims, size: int) -> float:
    """CIDEr from every order's `_cider_sims`, orders 1..4 in turn."""
    if size == 0:
        return 0.0
    if size == 1:
        # level 3: the caller of `cider` or `corpus_scores`
        warnings.warn("CIDEr needs >= 2 examples for meaningful IDF; scoring 0",
                      stacklevel=3)
    total = 0.0
    for sim in sims:  # one running sum, in this order
        total += sim
    return 10.0 * total / (MAX_ORDER * size)


def cider(candidates, references) -> float:
    """TF-IDF n-gram cosine (n = 1..4 averaged), scaled by 10.

    Document frequency counts, per n-gram, how many examples mention it in
    at least one reference. A single-example corpus has all-zero IDF and
    scores 0; that degenerate case raises a warning.
    """
    validate_corpus(candidates, references)
    sims = []
    for n in range(1, MAX_ORDER + 1):
        sims += _cider_sims(*_count_order(candidates, references, n))
    return _cider_score(sims, len(candidates))


def _score_order(candidates, references, n: int) -> tuple:
    """One order's clipped BLEU counts and CIDEr similarities, from one
    count of its n-grams; the counts are dropped on return."""
    cand_grams, ref_grams = _count_order(candidates, references, n)
    return _clipped_counts(cand_grams, ref_grams), _cider_sims(cand_grams, ref_grams)


def corpus_scores(candidates, references) -> dict:
    """The score table: bleu1..4, rouge_l and cider, in that order, each
    bitwise equal to its own function's score. Each order's n-grams are
    counted once, for BLEU and CIDEr both."""
    validate_corpus(candidates, references)
    orders = [_score_order(candidates, references, n) for n in range(1, MAX_ORDER + 1)]
    clipped = [counts for counts, _ in orders]
    lengths = _lengths(candidates, references)
    scores = {f"bleu{n}": _bleu_score(clipped[:n], *lengths) for n in range(1, MAX_ORDER + 1)}
    scores["rouge_l"] = _mean_rouge_l(candidates, references)
    scores["cider"] = _cider_score([sim for _, sims in orders for sim in sims], len(candidates))
    return scores
