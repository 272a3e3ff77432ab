"""References for `mmqa.text`: a character-by-character tokenizer that
`text.tokenize`'s one pattern is tested against, and a brute-force
trigram-Dice OOV fallback that the indexed `text.resolve_token` is tested
against. Every lookup recomputes the trigram set of every vocabulary entry;
nothing here is used by the package itself.
"""

from mmqa.text import OOV_SIMILARITY_FLOOR, RESERVED_TOKENS, UNK

DETACHED = set(".,?!'\"")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace, detaching .,?!'\" as own tokens."""
    out: list[str] = []
    word: list[str] = []
    for ch in text.lower():
        if ch.isspace():
            if word:
                out.append("".join(word))
                word = []
        elif ch in DETACHED:
            if word:
                out.append("".join(word))
                word = []
            out.append(ch)
        else:
            word.append(ch)
    if word:
        out.append("".join(word))
    return out


def trigrams(token: str) -> frozenset:
    padded = "<" + token + ">"
    return frozenset(padded[i:i + 3] for i in range(len(padded) - 2))


def trigram_dice(a: str, b: str) -> float:
    """Dice coefficient over boundary-padded character trigram sets."""
    ta, tb = trigrams(a), trigrams(b)
    if not ta or not tb:
        return 0.0
    return 2.0 * len(ta & tb) / (len(ta) + len(tb))


def resolve_token(vocab, token: str) -> int:
    """Exact id (UNK for a control token's spelling), else the best-scoring
    non-reserved entry in id order (ties to the lower id), else UNK below
    the similarity floor."""
    if token in RESERVED_TOKENS:
        return UNK
    exact = vocab.id(token)
    if exact is not None:
        return exact
    query = trigrams(token)
    if not query:
        return UNK
    best_id = UNK
    best_score = 0.0
    for idx in range(len(RESERVED_TOKENS), len(vocab)):
        cand = trigrams(vocab.token(idx))
        if not cand:
            continue
        score = 2.0 * len(query & cand) / (len(query) + len(cand))
        if score > best_score:
            best_score = score
            best_id = idx
    if best_score < OOV_SIMILARITY_FLOOR:
        return UNK
    return best_id
