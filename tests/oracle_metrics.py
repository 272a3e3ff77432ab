"""Brute-force reference metrics used to cross-check the fast implementations.

Deliberately naive: plain dict loops for BLEU, a full two-dimensional LCS
table for ROUGE-L, and dense numpy vectors over an explicit n-gram vocabulary
for CIDEr. Clarity over speed.
"""

import math

import numpy as np


def _gram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i:i + n])
        if gram in counts:
            counts[gram] += 1
        else:
            counts[gram] = 1
    return counts


def oracle_bleu(candidates, references, n):
    matched = {k: 0 for k in range(1, n + 1)}
    total = {k: 0 for k in range(1, n + 1)}
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        cand_len += len(cand)
        best_diff, best_len = None, None
        for ref in refs:
            diff = abs(len(ref) - len(cand))
            if best_diff is None or diff < best_diff or (
                diff == best_diff and len(ref) < best_len
            ):
                best_diff, best_len = diff, len(ref)
        ref_len += best_len
        for k in range(1, n + 1):
            cand_counts = _gram_counts(cand, k)
            for gram, count in cand_counts.items():
                ceiling = 0
                for ref in refs:
                    in_ref = _gram_counts(ref, k).get(gram, 0)
                    if in_ref > ceiling:
                        ceiling = in_ref
                matched[k] += min(count, ceiling)
                total[k] += count
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for k in range(1, n + 1):
        if total[k] == 0 or matched[k] == 0:
            return 0.0
        log_sum += math.log(matched[k] / total[k])
    if cand_len == ref_len:
        penalty = 1.0
    elif cand_len < ref_len:
        penalty = math.exp(1.0 - ref_len / cand_len)
    elif ref_len == 0:
        return 0.0  # the limit of exp(1 - cand_len / ref_len) as ref_len falls to 0
    else:
        penalty = math.exp(1.0 - cand_len / ref_len)
    return penalty * math.exp(log_sum / n)


def _lcs_table(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def oracle_rouge_l(candidate, references, beta_sq=1.2):
    best = 0.0
    for ref in references:
        if not candidate or not ref:
            continue
        lcs = _lcs_table(candidate, ref)
        if lcs == 0:
            continue
        precision = lcs / len(candidate)
        recall = lcs / len(ref)
        score = (1 + beta_sq) * precision * recall / (recall + beta_sq * precision)
        if score > best:
            best = score
    return best


def oracle_rouge_l_corpus(candidates, references, beta_sq=1.2):
    scores = [oracle_rouge_l(c, r, beta_sq) for c, r in zip(candidates, references)]
    return sum(scores) / len(scores)


def oracle_cider(candidates, references):
    size = len(candidates)
    total = 0.0
    for n in range(1, 5):
        vocab = sorted(
            {g for c in candidates for g in _gram_counts(c, n)}
            | {g for refs in references for r in refs for g in _gram_counts(r, n)}
        )
        index = {gram: i for i, gram in enumerate(vocab)}
        df = np.zeros(len(vocab))
        for refs in references:
            seen = set()
            for ref in refs:
                seen.update(_gram_counts(ref, n))
            for gram in seen:
                df[index[gram]] += 1.0
        idf = math.log(size) - np.log(np.maximum(1.0, df))

        def vector(tokens):
            v = np.zeros(len(vocab))
            for gram, count in _gram_counts(tokens, n).items():
                v[index[gram]] = count * idf[index[gram]]
            return v

        for cand, refs in zip(candidates, references):
            cv = vector(cand)
            cn = np.linalg.norm(cv)
            sims = []
            for ref in refs:
                rv = vector(ref)
                rn = np.linalg.norm(rv)
                if cn == 0.0 or rn == 0.0:
                    sims.append(0.0)
                else:
                    sims.append(float(cv @ rv) / (cn * rn))
            total += sum(sims) / len(sims)
    return 10.0 * total / (4 * size)
