"""Corpus metrics against hand counts and the brute-force oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmqa import metrics
from mmqa.errors import ValidationError
from mmqa.metrics import bleu, cider, corpus_scores, rouge_l, rouge_l_corpus, validate_corpus
from oracle_metrics import oracle_bleu, oracle_cider, oracle_rouge_l_corpus

VOCAB = ("a", "b", "c", "d", "e")


def random_corpus(rng):
    """A small corpus: token lists drawn from a 5-word vocabulary."""
    size = int(rng.integers(1, 6))
    candidates, references = [], []
    for _ in range(size):
        cand_len = int(rng.integers(0, 9))  # empty candidates allowed
        candidates.append([VOCAB[i] for i in rng.integers(0, len(VOCAB), cand_len)])
        refs = []
        for _ in range(int(rng.integers(1, 4))):
            ref_len = int(rng.integers(1, 9))
            refs.append([VOCAB[i] for i in rng.integers(0, len(VOCAB), ref_len)])
        references.append(refs)
    return candidates, references


# Three words, so that tokens and n-grams repeat within and across sentences.
# Candidates and references may be empty.
sentence = st.lists(st.sampled_from(VOCAB[:3]), max_size=8)
corpora = st.lists(
    st.tuples(sentence, st.lists(sentence, min_size=1, max_size=3)),
    min_size=1, max_size=6,
).map(lambda pairs: ([c for c, _ in pairs], [r for _, r in pairs]))


def per_metric_table(candidates, references) -> dict:
    table = {f"bleu{k}": bleu(candidates, references, k) for k in (1, 2, 3, 4)}
    table["rouge_l"] = rouge_l_corpus(candidates, references)
    table["cider"] = cider(candidates, references)
    return table


class TestBleu:
    def test_perfect_match_all_orders(self):
        cands = [["a", "cat", "sat", "down"], ["it", "is", "blue"]]
        refs = [[c] for c in cands]
        for n in (1, 2, 3, 4):
            assert bleu(cands, refs, n) == 1.0

    def test_clipped_repetition_with_length_penalty(self):
        # 4 copies of "the" match only once against a 2-token reference,
        # and the doubled length costs exp(1 - 4/2).
        got = bleu([["the", "the", "the", "the"]], [[["the", "cat"]]], n=1)
        assert got == 0.25 * math.exp(-1.0)

    def test_short_candidate_penalty(self):
        got = bleu([["a"]], [[["a", "b"]]], n=1)
        assert got == pytest.approx(math.exp(1.0 - 2.0), abs=1e-15)

    def test_empty_candidate_scores_zero(self):
        assert bleu([[]], [[["the", "cat"]]], n=1) == 0.0

    def test_zero_precision_zeroes_everything(self):
        # unigrams overlap but no bigram does
        assert bleu([["a", "b"]], [[["b", "a"]]], n=1) == 1.0
        assert bleu([["a", "c", "b"]], [[["a", "x", "b"]]], n=2) == 0.0

    def test_order_not_monotone_when_clipping_bites(self):
        # Clipping can leave bigram precision above unigram precision:
        # [a,b,a] vs [b,a,b] matches both bigrams but only 2 of 3 unigrams.
        cands, refs = [["a", "b", "a"]], [[["b", "a", "b"]]]
        one = bleu(cands, refs, n=1)
        two = bleu(cands, refs, n=2)
        assert one == pytest.approx(2.0 / 3.0)
        assert two == pytest.approx(math.sqrt(2.0 / 3.0))
        assert two > one

    def test_closest_reference_tie_prefers_shorter(self):
        # candidate length 2; refs of length 1 and 3 tie on distance
        got = bleu([["a", "b"]], [[["a"], ["a", "b", "c"]]], n=1)
        assert got == pytest.approx(math.exp(1.0 - 2.0 / 1.0))

    def test_empty_closest_reference_scores_zero(self):
        # the unigram matches the longer reference, but the empty one is
        # closest, so the penalty exp(1 - 1/0) takes its limit 0
        cands, refs = [["a"]], [[[], ["a", "a", "a"]]]
        assert bleu(cands, refs, n=1) == 0.0
        assert oracle_bleu(cands, refs, 1) == 0.0
        with pytest.warns(UserWarning, match="CIDEr"):
            assert corpus_scores(cands, refs)["bleu1"] == 0.0
        # a non-empty closest reference keeps its penalty
        assert bleu([["a", "a"]], [[["a"], ["a", "a", "a", "a"]]], n=1) == math.exp(-1.0)

    def test_order_validation(self):
        with pytest.raises(ValidationError):
            bleu([["a"]], [[["a"]]], n=5)
        with pytest.raises(ValidationError):
            bleu([["a"]], [[["a"]]], n=0)

    def test_alignment_validation(self):
        with pytest.raises(ValidationError):
            bleu([["a"], ["b"]], [[["a"]]], n=1)
        with pytest.raises(ValidationError):
            bleu([["a"]], [[]], n=1)


class TestRougeL:
    def test_identical(self):
        assert rouge_l(["x", "y", "z"], [["x", "y", "z"]]) == 1.0

    def test_hand_case_skipped_middle_token(self):
        # LCS([a,c], [a,b,c]) = 2, P = 1, R = 2/3
        got = rouge_l(["a", "c"], [["a", "b", "c"]])
        assert got == pytest.approx(11.0 / 14.0, abs=1e-12)

    def test_disjoint(self):
        assert rouge_l(["a", "b"], [["x", "y"]]) == 0.0

    def test_empty_candidate(self):
        assert rouge_l([], [["a", "b"]]) == 0.0

    def test_empty_reference_skipped(self):
        assert rouge_l(["a"], [[], ["a"]]) == 1.0

    def test_best_reference_wins(self):
        weak = rouge_l(["a", "b", "c"], [["a", "x", "x"]])
        strong = rouge_l(["a", "b", "c"], [["a", "x", "x"], ["a", "b", "c"]])
        assert weak < 1.0
        assert strong == 1.0

    def test_order_sensitivity(self):
        # LCS respects order: reversed tokens only match one position
        assert rouge_l(["a", "b", "c"], [["c", "b", "a"]]) < 1.0

    def test_requires_references(self):
        with pytest.raises(ValidationError):
            rouge_l(["a"], [])

    def test_corpus_mean(self):
        cands = [["a", "b"], ["x"]]
        refs = [[["a", "b"]], [["y"]]]
        assert rouge_l_corpus(cands, refs) == pytest.approx(0.5)

    def test_corpus_empty(self):
        assert rouge_l_corpus([], []) == 0.0


class TestCider:
    def test_two_disjoint_perfect_examples_score_ten(self):
        cands = [["a", "b", "c", "d"], ["e", "f", "g", "h"]]
        refs = [[list(cands[0])], [list(cands[1])]]
        assert cider(cands, refs) == pytest.approx(10.0, abs=1e-9)

    def test_orthogonal_scores_zero(self):
        cands = [["x"], ["y"]]
        refs = [[["a", "b"]], [["c", "d"]]]
        assert cider(cands, refs) == 0.0

    def test_unigram_scale_invariance(self):
        refs = [[["x"]], [["y"]]]
        once = cider([["x"], ["y"]], refs)
        twice = cider([["x", "x"], ["y", "y"]], refs)
        assert once > 0.0
        assert twice == once

    def test_single_example_warns_and_scores_zero(self):
        with pytest.warns(UserWarning):
            got = cider([["a"]], [[["a"]]])
        assert got == 0.0

    def test_alignment_validation(self):
        with pytest.raises(ValidationError):
            cider([["a"]], [])


class TestCorpusScores:
    @settings(max_examples=200, deadline=None)
    @given(corpora)
    @example(([[], ["a", "a"]], [[["a"]], [["a", "a", "a"], ["b", "a"]]]))
    @example(([["a", "b", "a", "b", "a"]], [[["a", "b", "a", "b", "a"]]]))
    @example(([["a"]], [[[], ["a", "a", "a"]]]))
    def test_equals_the_per_metric_functions(self, corpus):
        candidates, references = corpus
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = per_metric_table(candidates, references)
            got = corpus_scores(candidates, references)
        assert list(got) == list(want)
        assert got == want

    def test_single_example_warns_once_and_scores_cider_zero(self):
        with pytest.warns(UserWarning, match="CIDEr") as record:
            scores = corpus_scores([["a"]], [[["a"]]])
        assert len(record) == 1
        assert scores["cider"] == 0.0 and scores["bleu1"] == 1.0

    def test_empty_corpus_scores_zero(self):
        assert corpus_scores([], []) == dict.fromkeys(
            ["bleu1", "bleu2", "bleu3", "bleu4", "rouge_l", "cider"], 0.0)

    def test_validates_the_corpus_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "validate_corpus", lambda c, r: calls.append(len(c)))
        corpus_scores([["a"], ["b"]], [[["a"]], [["b"]]])
        assert calls == [2]

    def test_alignment_validation(self):
        with pytest.raises(ValidationError):
            corpus_scores([["a"], ["b"]], [[["a"]]])
        with pytest.raises(ValidationError):
            corpus_scores([["a"]], [[]])


class TestOracleAgreement:
    def test_twenty_five_random_corpora(self):
        rng = np.random.default_rng(2024)
        for trial in range(25):
            cands, refs = random_corpus(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fast_cider = cider(cands, refs)
                slow_cider = oracle_cider(cands, refs)
            assert fast_cider == pytest.approx(slow_cider, abs=1e-9), trial
            assert 0.0 <= fast_cider <= 10.0
            got_rouge = rouge_l_corpus(cands, refs)
            assert got_rouge == pytest.approx(oracle_rouge_l_corpus(cands, refs), abs=1e-9)
            assert 0.0 <= got_rouge <= 1.0
            for n in (1, 2, 3, 4):
                fast = bleu(cands, refs, n)
                assert fast == pytest.approx(oracle_bleu(cands, refs, n), abs=1e-9), (trial, n)
                assert 0.0 <= fast <= 1.0

    def test_validate_corpus_passes_through(self):
        validate_corpus([["a"]], [[["b"]]])
        with pytest.raises(ValidationError):
            validate_corpus([["a"]], [[["b"]], [["c"]]])
