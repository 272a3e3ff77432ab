"""Reference computations made apart from the program.

Each function recomputes, by brute force and without calling `mmqa`, a
value the program produces: corpus metrics, the trigram-Dice OOV match, the
size of a shuffle-expanded corpus and a central-difference derivative.
They follow the published definitions, not the program's code.
"""

from __future__ import annotations

import math

import numpy as np

PAD, SOS, EOS, UNK = 0, 1, 2, 3
RESERVED = 4
OOV_FLOOR = 0.3
ROUGE_BETA_SQ = 1.2


def gram_counts(tokens, n: int) -> dict:
    counts: dict = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i:i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def bleu(candidates, references, n: int) -> float:
    """Corpus BLEU-n, no smoothing, closest-reference brevity penalty."""
    matched = [0] * (n + 1)
    total = [0] * (n + 1)
    cand_len = ref_len = 0
    for cand, refs in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(min(refs, key=lambda r: (abs(len(r) - len(cand)), len(r))))
        for k in range(1, n + 1):
            for gram, count in gram_counts(cand, k).items():
                ceiling = max(gram_counts(r, k).get(gram, 0) for r in refs)
                matched[k] += min(count, ceiling)
                total[k] += count
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for k in range(1, n + 1):
        if matched[k] == 0:
            return 0.0
        log_sum += math.log(matched[k] / total[k])
    if cand_len > ref_len:
        penalty = math.exp(1.0 - cand_len / ref_len)
    elif cand_len < ref_len:
        penalty = math.exp(1.0 - ref_len / cand_len)
    else:
        penalty = 1.0
    return penalty * math.exp(log_sum / n)


def lcs(a, b) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def rouge_l(candidates, references) -> float:
    """Mean over examples of the best-reference LCS F-measure."""
    scores = []
    for cand, refs in zip(candidates, references):
        best = 0.0
        for ref in refs:
            common = lcs(cand, ref) if cand and ref else 0
            if common:
                p, r = common / len(cand), common / len(ref)
                best = max(best, (1 + ROUGE_BETA_SQ) * p * r / (r + ROUGE_BETA_SQ * p))
        scores.append(best)
    return sum(scores) / len(scores)


def cider(candidates, references) -> float:
    """Mean TF-IDF n-gram cosine over n = 1..4, times 10, as dense vectors."""
    size = len(candidates)
    total = 0.0
    for n in range(1, 5):
        grams = sorted({g for c in candidates for g in gram_counts(c, n)}
                       | {g for refs in references for r in refs for g in gram_counts(r, n)})
        index = {g: i for i, g in enumerate(grams)}
        df = np.zeros(len(grams))
        for refs in references:
            for g in {g for r in refs for g in gram_counts(r, n)}:
                df[index[g]] += 1.0
        idf = math.log(size) - np.log(np.maximum(df, 1.0))

        def vector(tokens):
            v = np.zeros(len(grams))
            for g, count in gram_counts(tokens, n).items():
                v[index[g]] = count * idf[index[g]]
            return v

        for cand, refs in zip(candidates, references):
            cv = vector(cand)
            sims = []
            for ref in refs:
                rv = vector(ref)
                norm = np.linalg.norm(cv) * np.linalg.norm(rv)
                sims.append(float(cv @ rv) / norm if norm > 0.0 else 0.0)
            total += sum(sims) / len(sims)
    return 10.0 * total / (4 * size)


def token_f1(candidates, golds) -> float:
    """Mean multiset-overlap F1; an empty side scores 0."""
    scores = []
    for cand, gold in zip(candidates, golds):
        overlap = 0
        remaining = list(gold)
        for token in cand:
            if token in remaining:
                remaining.remove(token)
                overlap += 1
        if overlap == 0:
            scores.append(0.0)
        else:
            p, r = overlap / len(cand), overlap / len(gold)
            scores.append(2 * p * r / (p + r))
    return sum(scores) / len(scores)


def score_table(candidates, golds) -> dict:
    """Every entry of `mmqa eval`'s score table, one reference per example."""
    references = [[g] for g in golds]
    table = {f"bleu{k}": bleu(candidates, references, k) for k in (1, 2, 3, 4)}
    table["rouge_l"] = rouge_l(candidates, references)
    table["cider"] = cider(candidates, references)
    table["token_f1"] = token_f1(candidates, golds)
    return table


def trigrams(word: str) -> set:
    padded = f"<{word}>"
    return {padded[i:i + 3] for i in range(len(padded) - 2)}


class DiceMatcher:
    """Brute-force trigram-Dice argmax over a vocabulary in id order."""

    def __init__(self, tokens):
        self.ids = {t: i for i, t in enumerate(tokens)}
        self.grams = [trigrams(t) for t in tokens]

    def resolve(self, word: str) -> int:
        """Exact id, else the best Dice match (lowest id on ties), else UNK."""
        if word in self.ids:
            return self.ids[word]
        query = trigrams(word)
        best_id, best = UNK, 0.0
        for idx in range(RESERVED, len(self.grams)):
            cand = self.grams[idx]
            score = 2.0 * len(query & cand) / (len(query) + len(cand))
            if score > best:
                best_id, best = idx, score
        return best_id if best >= OOV_FLOOR else UNK


def shuffle_expansion_size(turn_counts, factor: int) -> int:
    """Examples from per-turn expansion plus min(factor-1, n!-1) copies per
    example whose history holds n >= 2 pairs."""
    total = 0
    for turns in turn_counts:
        for n in range(turns):
            total += 1
            if n >= 2:
                total += min(factor - 1, math.factorial(n) - 1)
    return total


def central_difference(f, array: np.ndarray, index, eps: float = 1e-5) -> float:
    """(f(x + eps) - f(x - eps)) / 2 eps at one coordinate, restoring it."""
    orig = array[index]
    array[index] = orig + eps
    hi = f()
    array[index] = orig - eps
    lo = f()
    array[index] = orig
    return (hi - lo) / (2.0 * eps)


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))
