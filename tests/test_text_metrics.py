import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medvideval.text_metrics import (
    PRF,
    CaptionPair,
    bleu_n,
    lcs_length,
    meteor,
    rouge_l,
    rouge_l_tokens,
    tokenize,
)
from oracles import bleu_oracle, lcs_oracle, meteor_alignment_oracle, meteor_oracle, rouge_l_oracle

words = st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f"]), max_size=8)


class TestTokenize:
    def test_strips_edge_punctuation(self):
        assert tokenize("Tie the elbow.") == ["tie", "the", "elbow"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_internal_punctuation_kept(self):
        assert tokenize("02:30 mark") == ["02:30", "mark"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("... !!! (step)") == ["step"]

    def test_lowercases(self):
        assert tokenize("TIE The Elbow") == ["tie", "the", "elbow"]


class TestLcs:
    def test_worked_example(self):
        assert lcs_length(["a", "b", "c"], ["a", "x", "c"]) == 2

    def test_identical_sequences(self):
        assert lcs_length(["a"] * 5, ["a"] * 5) == 5

    def test_disjoint_vocabularies(self):
        assert lcs_length(["a", "b"], ["x", "y"]) == 0

    @given(words, words)
    def test_matches_exhaustive_oracle(self, a, b):
        assert lcs_length(a, b) == lcs_oracle(a, b)


class TestRougeL:
    def test_worked_example(self):
        result = rouge_l(CaptionPair("tie the elbow", "tie the elbow to the board"))
        assert result.precision == 1.0
        assert result.recall == 0.5
        assert result.f == pytest.approx(2 / 3)

    def test_identical_captions(self):
        assert rouge_l(CaptionPair("wrap the wrist", "wrap the wrist")).f == 1.0

    def test_no_common_tokens(self):
        assert rouge_l(CaptionPair("alpha beta", "gamma delta")).f == 0.0

    def test_punctuation_only_side_scores_zero(self):
        assert rouge_l(CaptionPair("...", "tie the elbow")) == rouge_l(CaptionPair("!!", "tie the elbow"))
        assert rouge_l(CaptionPair("...", "tie the elbow")).f == 0.0

    def test_swapping_sides_swaps_precision_and_recall(self):
        forward = rouge_l(CaptionPair("tie the elbow", "tie the elbow to the board"))
        backward = rouge_l(CaptionPair("tie the elbow to the board", "tie the elbow"))
        assert forward.precision == backward.recall
        assert forward.recall == backward.precision
        assert forward.f == pytest.approx(backward.f)

    def test_empty_pair_sides_rejected(self):
        with pytest.raises(ValueError):
            CaptionPair("", "x")


class TestBleu:
    def test_all_identical_pairs(self):
        pairs = [CaptionPair("tie the elbow", "tie the elbow")] * 3
        for n in (1, 2, 3):
            assert bleu_n(pairs, n) == 1.0

    def test_worked_example(self):
        pair = CaptionPair("tie the elbow to board", "tie the elbow to the board")
        assert bleu_n([pair], 2) == pytest.approx(0.7090, abs=1e-4)

    def test_zero_precision_annihilates(self):
        pairs = [CaptionPair("alpha beta", "gamma delta")]
        assert bleu_n(pairs, 2) == 0.0

    def test_order_longer_than_predictions(self):
        # no trigram candidates at all -> corpus precision undefined -> 0
        assert bleu_n([CaptionPair("one two", "one two")], 3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bleu_n([], 2)
        with pytest.raises(ValueError):
            bleu_n([CaptionPair("a", "a")], 5)

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(77)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(200):
            pairs = []
            tokens = []
            for _ in range(rng.randint(1, 4)):
                pred = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
                ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
                pairs.append(CaptionPair(" ".join(pred), " ".join(ref)))
                tokens.append((pred, ref))
            n = rng.randint(1, 4)
            assert bleu_n(pairs, n) == pytest.approx(bleu_oracle(tokens, n), abs=1e-9)

    def test_perfect_score_iff_token_identical(self):
        rng = random.Random(31)
        vocab = ["a", "b", "c", "d"]
        for _ in range(300):
            tokens = []
            for _ in range(rng.randint(1, 3)):
                pred = [rng.choice(vocab) for _ in range(rng.randint(2, 8))]
                ref = list(pred) if rng.random() < 0.5 else [rng.choice(vocab) for _ in range(rng.randint(2, 8))]
                tokens.append((pred, ref))
            pairs = [CaptionPair(" ".join(p), " ".join(r)) for p, r in tokens]
            identical = all(p == r for p, r in tokens)
            score = bleu_n(pairs, 2)
            if identical:
                assert score == 1.0
            else:
                assert score < 1.0 or identical


class TestMeteor:
    def test_identical_captions_worked_example(self):
        assert meteor(CaptionPair("tie the elbow", "tie the elbow")) == pytest.approx(0.9815, abs=1e-4)

    def test_no_matches(self):
        assert meteor(CaptionPair("alpha beta", "gamma delta")) == 0.0

    def test_crossed_tokens_worked_example(self):
        assert meteor(CaptionPair("b a", "a b")) == pytest.approx(0.5)

    def test_matches_exhaustive_oracle(self):
        from medvideval.text_metrics import _exact_alignment

        rng = random.Random(4242)
        # Six letters, then two: repeated tokens exercise the quota and skip rules.
        for vocab in (["a", "b", "c", "d", "e", "f"], ["a", "b"]):
            for _ in range(300):
                pred = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
                ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
                assert _exact_alignment(pred, ref) == meteor_alignment_oracle(pred, ref)
                produced = meteor(CaptionPair(" ".join(pred), " ".join(ref)))
                assert produced == pytest.approx(meteor_oracle(pred, ref), abs=1e-9)

    @given(words.filter(bool), words.filter(bool))
    def test_bounded_and_formula_consistent(self, pred, ref):
        from medvideval.text_metrics import _exact_alignment

        value = meteor(CaptionPair(" ".join(pred), " ".join(ref)))
        assert 0.0 <= value <= 1.0
        matches, chunks = _exact_alignment(pred, ref)
        if matches == 0:
            assert value == 0.0
        else:
            precision = matches / len(pred)
            recall = matches / len(ref)
            f_mean = 10 * precision * recall / (recall + 9 * precision)
            penalty = 0.5 * (chunks / matches) ** 3
            assert value == pytest.approx(f_mean * (1 - penalty))


def test_rouge_matches_oracle_on_random_pairs():
    rng = random.Random(11)
    vocab = ["a", "b", "c", "d"]
    for _ in range(200):
        pred = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        produced = rouge_l(CaptionPair(" ".join(pred), " ".join(ref)))
        p, r, f = rouge_l_oracle(pred, ref)
        assert (produced.precision, produced.recall, produced.f) == pytest.approx((p, r, f), abs=1e-9)


# Sides made of punctuation alone tokenize to an empty list.
PUNCTUATION_ONLY = ["...", "!!", "(-)", "--- ; ---"]


def random_side(rng, vocab):
    """A token list and its caption text; about one side in four has no tokens."""
    if rng.random() < 0.25:
        return [], rng.choice(PUNCTUATION_ONLY)
    tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
    return tokens, " ".join(tokens)


def test_meteor_matches_oracle_with_punctuation_only_sides():
    rng = random.Random(4243)
    vocab = ["a", "b", "c", "d", "e", "f"]
    for _ in range(300):
        (pred, pred_text), (ref, ref_text) = random_side(rng, vocab), random_side(rng, vocab)
        assert meteor(CaptionPair(pred_text, ref_text)) == pytest.approx(meteor_oracle(pred, ref), abs=1e-9)


def test_bleu_matches_oracle_with_punctuation_only_sides():
    rng = random.Random(78)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(300):
        sides = [(random_side(rng, vocab), random_side(rng, vocab)) for _ in range(rng.randint(1, 4))]
        pairs = [CaptionPair(pred_text, ref_text) for (_, pred_text), (_, ref_text) in sides]
        tokens = [(pred, ref) for (pred, _), (ref, _) in sides]
        n = rng.randint(1, 4)
        assert bleu_n(pairs, n) == pytest.approx(bleu_oracle(tokens, n), abs=1e-9)


def test_bleu_of_predictions_without_tokens_is_zero():
    assert bleu_n([CaptionPair("...", "tie the elbow"), CaptionPair("!!", "wrap it")], 1) == 0.0


def test_rouge_l_is_a_view_of_the_token_core():
    pair = CaptionPair("Tie the elbow.", "tie the elbow to the board")
    assert rouge_l(pair) == rouge_l_tokens(tokenize(pair.predicted), tokenize(pair.reference))
    assert rouge_l_tokens([], ["a"]) == rouge_l_tokens(["a"], []) == rouge_l_tokens([], []) == PRF(0.0, 0.0, 0.0)
