import random
import string
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medvideval import text_metrics
from medvideval.text_metrics import (
    PRF,
    CaptionPair,
    bleu_n,
    bleu_scores_tokens,
    lcs_length,
    meteor,
    rouge_l,
    rouge_l_tokens,
    token_counts,
    token_masks,
    tokenize,
)
from oracles import PUNCTUATION_ONLY, lcs_oracle, reference_lcs_length
from test_complexity import two_word_caption_pair

words = st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f"]), max_size=8)


@st.composite
def long_token_lists(draw):
    """Two lists of 0-200 tokens over one alphabet of 1-5 letters, so masks cross 64 and 128 bits."""
    letters = st.sampled_from("abcde"[: draw(st.integers(1, 5))])
    a_size = draw(st.integers(0, 200))
    b_size = draw(st.integers(0, 200))
    return draw(st.lists(letters, min_size=a_size, max_size=a_size)), draw(st.lists(letters, min_size=b_size, max_size=b_size))


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

    def test_punctuation_is_ascii_punctuation(self):
        assert text_metrics._PUNCT == string.punctuation

    def test_unicode_spaces_split_and_only_ascii_punctuation_strips(self):
        # U+3000, U+00A0 and U+2028 separate tokens; curly quotes and the curly apostrophe stay.
        text = "\u201cTie\u201d\u3000TIE\u00a0\u00c9lbow! ...\u2028A\u2019B"
        assert tokenize(text) == ["\u201ctie\u201d", "tie", "\u00e9lbow", "a\u2019b"]


@st.composite
def tokenizer_texts(draw):
    """Words with edge and internal punctuation, all-punctuation words and mixed case, each
    followed by whitespace that ``str.split`` splits on, ASCII or not; possibly empty."""
    word = st.sampled_from(["tie", "TIE", "Tie.", "(tie)", "02:30", "02:30,", "...", "!!", "-", "a'b", "ÉLBOW", "élbow!", ""])
    gap = st.sampled_from([" ", "  ", "\t", "\n", "\u00a0", "\u2028", "\u3000"])
    return "".join(draw(word) + draw(gap) for _ in range(draw(st.integers(0, 12))))


@given(st.one_of(tokenizer_texts(), st.text()))
def test_token_counts_is_the_counter_of_tokenize(text):
    assert token_counts(text) == Counter(tokenize(text))


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

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ([], ["a", "b"], 0),
            (["a", "b"], [], 0),
            ([], [], 0),
            (["a"] * 70, ["a"] * 130, 70),
            (["b", "d"], ["a", "b", "c", "d", "e"], 2),
            (["a", "b", "c", "d", "e"], ["e", "b", "d"], 2),
        ],
        ids=["empty-a", "empty-b", "both-empty", "all-equal", "b-longer", "a-longer"],
    )
    def test_hand_cases(self, a, b, expected):
        assert lcs_length(a, b) == reference_lcs_length(a, b) == expected

    @given(long_token_lists())
    def test_matches_two_row_reference(self, sides):
        a, b = sides
        assert lcs_length(a, b) == reference_lcs_length(a, b)

    @given(long_token_lists())
    def test_precomputed_masks_give_the_same_rouge(self, sides):
        pred, ref = sides
        assert rouge_l_tokens(pred, ref, token_masks(ref)) == rouge_l_tokens(pred, ref)


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

    @pytest.mark.parametrize("pred, ref", [(["a", "a"], ["b"]), ([], []), (["a"], [])])
    def test_search_with_nothing_shared_aligns_nothing(self, pred, ref):
        from medvideval.text_metrics import _exact_alignment

        assert _exact_alignment(pred, ref) == (0, 0)

    # Pairs that stop at METEOR_NODE_BUDGET: the chunks found so far depend on
    # the order in which the search pops its nodes, so these pin that order.
    @pytest.mark.parametrize(
        "pred, ref, expected",
        [
            (*two_word_caption_pair(50), (47, 25)),
            (*two_word_caption_pair(200), (186, 109)),
            (*two_word_caption_pair(800), (792, 477)),
            ("a b a b b c a c a b a b".split(), "c a b b b c a a c b b c".split(), (10, 5)),
        ],
        ids=["two-words-50", "two-words-200", "two-words-800", "three-words-12"],
    )
    def test_a_search_cut_short_by_the_node_budget_keeps_its_pinned_result(self, pred, ref, expected):
        from medvideval.text_metrics import _exact_alignment

        fallbacks: list = []
        assert _exact_alignment(pred, ref, fallbacks) == expected
        assert fallbacks == [(pred, ref)]

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


# Punctuation alone (no tokens), or one to five tokens: often shorter than the BLEU order.
short_captions = st.sampled_from(PUNCTUATION_ONLY) | st.lists(st.sampled_from("abc"), min_size=1, max_size=5).map(" ".join)


@given(st.lists(st.tuples(short_captions, short_captions), min_size=1, max_size=5))
def test_every_bleu_order_from_one_pass_equals_bleu_n(sides):
    pairs = [CaptionPair(pred, ref) for pred, ref in sides]
    scores = bleu_scores_tokens([(tokenize(pred), tokenize(ref)) for pred, ref in sides], (1, 2, 3, 4))
    assert list(scores) == [1, 2, 3, 4]
    for n in (1, 2, 3, 4):
        assert scores[n] == bleu_n(pairs, n)


def test_bleu_of_predictions_without_tokens_is_zero():
    assert bleu_n([CaptionPair("...", "tie the elbow"), CaptionPair("!!", "wrap it")], 1) == 0.0


def test_rouge_l_is_a_view_of_the_token_core():
    pair = CaptionPair("Tie the elbow.", "tie the elbow to the board")
    assert rouge_l(pair) == rouge_l_tokens(tokenize(pair.predicted), tokenize(pair.reference))
    assert rouge_l_tokens([], ["a"]) == rouge_l_tokens(["a"], []) == rouge_l_tokens([], []) == PRF(0.0, 0.0, 0.0)
