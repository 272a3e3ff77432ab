"""Tokenizer, vocabulary, trigram OOV fallback, and embedding lookups."""

from itertools import islice, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_text as oracle
from mmqa import text
from mmqa.errors import ValidationError
from mmqa.tensor import Tape
from mmqa.text import (
    EOS,
    PAD,
    RESERVED_TOKENS,
    SOS,
    UNK,
    EmbeddingTable,
    Vocabulary,
    build_vocabulary,
    embed_sentence,
    resolve_token,
    tokenize,
)
from oracle_recurrence import sum_all
from oracle_text import trigram_dice

ascii_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40
)

# A four-letter alphabet makes shared trigrams and equal-score ties common.
short_words = st.text(alphabet="abcd", min_size=1, max_size=10)


@st.composite
def misspelling(draw, pool):
    """A word from `pool` with one letter inserted, deleted, replaced or two
    neighbours swapped."""
    word = draw(st.sampled_from(pool))
    i = draw(st.integers(0, len(word) - 1))
    letter = draw(st.sampled_from("abcdz"))
    edit = draw(st.sampled_from(["insert", "delete", "replace", "swap"]))
    if edit == "insert":
        return word[:i] + letter + word[i:]
    if edit == "delete":
        return word[:i] + word[i + 1:]
    if edit == "replace":
        return word[:i] + letter + word[i + 1:]
    return word[:i] + word[i + 1:i + 2] + word[i:i + 1] + word[i + 2:]


@st.composite
def lookup_cases(draw):
    """(first words, words added after the first lookups, queries). Most
    words and queries are misspellings of a few stems, so equal-score ties
    between entries sharing different trigrams with the query are common."""
    stems = draw(st.lists(st.text(alphabet="abcdef", min_size=3, max_size=8),
                          min_size=1, max_size=3))
    word = st.one_of(misspelling(stems), short_words)
    first = draw(st.lists(word, min_size=1, max_size=12))
    later = draw(st.lists(word, max_size=6))
    queries = draw(st.lists(word, min_size=1, max_size=10))
    return first, later, queries


class TestTokenize:
    def test_question_with_mark(self):
        assert tokenize("Is that man alone?") == ["is", "that", "man", "alone", "?"]

    def test_statement_with_period(self):
        assert tokenize("A man with beard.") == ["a", "man", "with", "beard", "."]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []

    def test_apostrophe_and_quotes_detach(self):
        assert tokenize("don't") == ["don", "'", "t"]
        assert tokenize('say "hi"') == ["say", '"', "hi", '"']

    def test_punctuation_runs(self):
        assert tokenize("what?!") == ["what", "?", "!"]

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    @example("\u0130\u00df\x1c\x85 a.b")
    def test_pattern_matches_the_character_loop(self, text):
        assert tokenize(text) == oracle.tokenize(text)

    @settings(max_examples=60, deadline=None)
    @given(ascii_text)
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestVocabulary:
    def test_reserved_layout(self):
        vocab = Vocabulary()
        assert (PAD, SOS, EOS, UNK) == (0, 1, 2, 3)
        assert len(vocab) == 4
        assert vocab.tokens() == list(RESERVED_TOKENS)
        assert vocab.token(EOS) == "<eos>"

    def test_add_is_idempotent(self):
        vocab = Vocabulary()
        first = vocab.add("cat")
        assert vocab.add("cat") == first == 4
        assert "cat" in vocab
        assert vocab.id("dog") is None

    def test_build_sorted(self):
        vocab = build_vocabulary([["b", "a"], ["c", "a"]])
        assert [vocab.id(t) for t in ("a", "b", "c")] == [4, 5, 6]

    def test_build_drops_reserved_duplicates(self):
        vocab = build_vocabulary([["<unk>", "x"]])
        assert len(vocab) == 5
        assert vocab.id("x") == 4

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocabulary([["gamma", "alpha", "beta"]])
        path = tmp_path / "words.vocab"
        vocab.save(path)
        again = Vocabulary.load(path)
        assert again.tokens() == vocab.tokens()

    def test_load_rejects_blank_line(self, tmp_path):
        path = tmp_path / "bad.vocab"
        path.write_text("alpha\n\nbeta\n")
        with pytest.raises(ValidationError, match=":2: empty"):
            Vocabulary.load(path)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(short_words, max_size=12), st.lists(short_words, max_size=4))
    def test_trigram_index_matches_a_per_token_build(self, tmp_path_factory, first, later):
        # the one-pass build indexes what adding each token on its own would:
        # its ascending ids under every trigram and its trigram count
        def reference(vocab):
            postings, counts = {}, [0] * len(RESERVED_TOKENS)
            for idx in range(len(RESERVED_TOKENS), len(vocab)):
                grams = oracle.trigrams(vocab.token(idx))
                counts.append(len(grams))
                for gram in grams:
                    postings.setdefault(gram, []).append(idx)
            return postings, counts

        vocab = Vocabulary(first)
        # an index built before the adds must not go stale
        assert vocab._trigram_index() == reference(vocab)
        for w in later:
            vocab.add(w)
        path = tmp_path_factory.mktemp("vocab") / "words.vocab"
        vocab.save(path)
        for built in (vocab, Vocabulary.load(path)):
            assert built.tokens() == vocab.tokens()
            assert built._trigram_index() == reference(vocab)

    def test_known_tokens_build_no_trigram_index(self, monkeypatch, tmp_path):
        # the index serves only the OOV fallback, so building or loading a
        # vocabulary and resolving known tokens computes no trigram
        calls = []
        trigrams = text._trigrams
        monkeypatch.setattr(text, "_trigrams",
                            lambda token: calls.append(token) or trigrams(token))
        words = ["beard", "bread", "board"]
        built = build_vocabulary([words])
        built.save(tmp_path / "words.vocab")
        for vocab in (built, Vocabulary.load(tmp_path / "words.vocab")):
            assert [resolve_token(vocab, w) for w in words] == [vocab.id(w) for w in words]
        assert calls == []
        assert resolve_token(built, "boardd") == built.id("board") and calls


class TestTrigramDice:
    def test_identical(self):
        assert trigram_dice("beard", "beard") == 1.0
        assert trigram_dice("a", "a") == 1.0

    def test_typo_hand_count(self):
        # <beard> has 5 trigrams, <bearrd> has 6, they share 4
        assert trigram_dice("beard", "bearrd") == pytest.approx(8.0 / 11.0)

    def test_disjoint(self):
        assert trigram_dice("abc", "xyz") == 0.0

    def test_symmetric(self):
        assert trigram_dice("alpha", "alps") == trigram_dice("alps", "alpha")


class TestResolveToken:
    def test_exact_match_first(self):
        vocab = Vocabulary(["beard", "bear"])
        assert resolve_token(vocab, "bear") == vocab.id("bear")

    def test_typo_resolves_to_closest(self):
        words = ["man", "beard", "alone", "watching", "television"]
        vocab = Vocabulary(words)
        # exhaustive check of what the fallback should pick
        scores = {w: trigram_dice("bearrd", w) for w in words}
        best = max(sorted(scores), key=lambda w: scores[w])
        assert best == "beard"
        assert resolve_token(vocab, "bearrd") == vocab.id("beard")

    def test_no_overlap_is_unk(self):
        vocab = Vocabulary(["man", "beard"])
        assert resolve_token(vocab, "zzzzqq") == UNK

    def test_reserved_never_matched(self):
        assert resolve_token(Vocabulary(), "pad") == UNK

    def test_control_token_spellings_resolve_to_unk(self):
        words = tokenize("yes <sos> it is <eos> <pad> <unk>")
        vocab = build_vocabulary([words])
        assert [resolve_token(vocab, w) for w in words] == [
            vocab.id("yes"), UNK, vocab.id("it"), vocab.id("is"), UNK, UNK, UNK]
        # no trigram fallback either, although "<sos>" is close to "sos"
        near = Vocabulary(["sos", "eos", "pad"])
        assert trigram_dice("<sos>", "sos") >= text.OOV_SIMILARITY_FLOOR
        assert [resolve_token(near, w) for w in RESERVED_TOKENS] == [UNK] * 4

    def test_tie_breaks_to_lower_id(self):
        vocab = Vocabulary(["abcd", "abce"])
        assert trigram_dice("abcf", "abcd") == trigram_dice("abcf", "abce")
        assert resolve_token(vocab, "abcf") == vocab.id("abcd")

    def test_similarity_floor_is_inclusive(self):
        vocab = Vocabulary(["abcdefghij"])
        at_floor = "abcdqrstuv"     # shares 3 of 10+10 trigrams: Dice 0.3
        below_floor = "abcqrstuvw"  # shares 2 of 10+10 trigrams: Dice 0.2
        assert trigram_dice(at_floor, "abcdefghij") == 0.3
        assert resolve_token(vocab, at_floor) == vocab.id("abcdefghij")
        assert trigram_dice(below_floor, "abcdefghij") == pytest.approx(0.2)
        assert resolve_token(vocab, below_floor) == UNK

    def test_adding_exact_word_switches_resolution(self):
        vocab = Vocabulary(["beard"])
        assert resolve_token(vocab, "bear") == vocab.id("beard")
        vocab.add("bear")
        assert resolve_token(vocab, "bear") == vocab.id("bear")

    @settings(max_examples=150, deadline=None)
    @given(lookup_cases())
    @example((["abcd", "abce"], [], ["abcf"]))                  # equal-score tie
    # Ten ties between entries that share different trigrams with the query
    # ("ab" shares "<ab" with "abz" and "ab>" with "zab"): each is missed
    # when the candidates are not walked in id order.
    @example(([w for p in ("ab", "cd", "ef", "gh", "ij", "kl", "mn", "op", "qr", "st")
               for w in (p + "z", "z" + p)], [],
              ["ab", "cd", "ef", "gh", "ij", "kl", "mn", "op", "qr", "st"]))
    @example((["abcdefghij"], [], ["abcdqrstuv", "abcqrstuvw"]))  # at, below floor
    @example((["beard"], ["bear", "bearded"], ["bear", "beardd"]))
    def test_matches_brute_force_scan(self, case):
        first, later, queries = case
        vocab = Vocabulary(first)
        for q in queries:
            assert resolve_token(vocab, q) == oracle.resolve_token(vocab, q)
        for w in later:
            vocab.add(w)
        for q in queries:
            assert resolve_token(vocab, q) == oracle.resolve_token(vocab, q)

    def test_lookup_does_not_scan_the_vocabulary(self, monkeypatch):
        # A guard that does not depend on host speed: an indexed lookup
        # computes the query's trigrams and no entry's.
        words = ["".join(t) for t in islice(product("abcdefghijklmnopqrstuvwxyz",
                                                    repeat=4), 0, 30_000, 3)]
        vocab = Vocabulary(words)
        assert len(vocab) == 10_000 + len(RESERVED_TOKENS)
        query = "abdcx"
        assert query not in vocab
        resolve_token(vocab, "zzzzq")  # the first miss builds the index
        calls = []
        trigrams = text._trigrams
        monkeypatch.setattr(text, "_trigrams",
                            lambda token: calls.append(token) or trigrams(token))
        found = resolve_token(vocab, query)
        assert calls == [query]
        assert found == oracle.resolve_token(vocab, query) != UNK

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=6),
                    min_size=1, max_size=8))
    def test_in_vocabulary_token_resolves_to_itself(self, words):
        vocab = build_vocabulary([words])
        for w in words:
            assert resolve_token(vocab, w) == vocab.id(w)


class TestEmbeddings:
    def test_create_shape_and_range(self):
        table = EmbeddingTable.create(10, 6, np.random.default_rng(0))
        assert table.matrix.shape == (10, 6)
        assert table.matrix.data.dtype == np.float64
        assert np.all(np.abs(table.matrix.data) <= 0.1)

    def test_seeded_create_is_reproducible(self):
        a = EmbeddingTable.create(5, 4, np.random.default_rng(9))
        b = EmbeddingTable.create(5, 4, np.random.default_rng(9))
        assert np.array_equal(a.matrix.data, b.matrix.data)

    def test_embed_token_rows(self):
        vocab = Vocabulary(["cat"])
        table = EmbeddingTable.create(len(vocab), 3, np.random.default_rng(1))
        row = table.row(resolve_token(vocab, "cat"))
        np.testing.assert_array_equal(row.data, table.matrix.data[[4]])
        oov = table.row(resolve_token(vocab, "zzzzqq"))
        np.testing.assert_array_equal(oov.data, table.matrix.data[[UNK]])

    def test_vocab_size_mismatch(self):
        vocab = Vocabulary(["cat", "dog"])
        table = EmbeddingTable.create(4, 3, np.random.default_rng(1))
        with pytest.raises(ValidationError):
            embed_sentence(vocab, table, ["cat"])

    def test_embed_sentence_stacks_in_order(self):
        vocab = Vocabulary(["cat", "sat"])
        table = EmbeddingTable.create(len(vocab), 3, np.random.default_rng(2))
        out = embed_sentence(vocab, table, ["sat", "cat", "sat"])
        assert out.shape == (3, 3)
        np.testing.assert_array_equal(out.data[0], out.data[2])
        np.testing.assert_array_equal(out.data[1], table.matrix.data[4])

    def test_embed_sentence_rejects_empty(self):
        vocab = Vocabulary(["cat"])
        table = EmbeddingTable.create(len(vocab), 3, np.random.default_rng(3))
        with pytest.raises(ValidationError):
            embed_sentence(vocab, table, [])

    def test_gradient_reaches_only_used_rows(self):
        vocab = Vocabulary(["cat", "dog"])
        table = EmbeddingTable.create(len(vocab), 3, np.random.default_rng(4))
        with Tape() as tape:
            tape.watch(table.matrix)
            out = embed_sentence(vocab, table, ["dog", "dog"])
            grads = tape.backward(sum_all(out))
        g = grads.wrt(table.matrix)
        assert np.all(g[vocab.id("dog")] == 2.0)
        assert np.all(g[vocab.id("cat")] == 0.0)
        assert np.all(g[PAD] == 0.0)
