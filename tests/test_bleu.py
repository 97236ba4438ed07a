import gc
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowresmt import bleu
from lowresmt.bleu import BleuScore, corpus_bleu, sentence_bleu


def oracle_corpus_bleu(hypotheses, references):
    """Independent reference implementation: explicit list counting."""

    def grams(tokens, n):
        return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]

    log_precisions = []
    for n in range(1, 5):
        matches = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_grams = grams(hyp, n)
            ref_grams = grams(ref, n)
            total += len(hyp_grams)
            for gram in set(hyp_grams):
                matches += min(hyp_grams.count(gram), ref_grams.count(gram))
        if total == 0:
            continue
        if matches == 0:
            return 0.0
        log_precisions.append(math.log(matches / total))
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    if not log_precisions:
        return 0.0
    return bp * math.exp(sum(log_precisions) / len(log_precisions))


def oracle_sentence_bleu(hyp, ref):
    """Independent smoothed sentence BLEU: add-one above unigram."""

    def grams(tokens, n):
        return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]

    if not hyp:
        return 1.0 if not ref else 0.0
    product = 1.0
    for n in range(1, 5):
        hyp_grams = grams(hyp, n)
        ref_grams = grams(ref, n)
        matches = sum(min(hyp_grams.count(g), ref_grams.count(g)) for g in set(hyp_grams))
        if n == 1:
            p = matches / len(hyp_grams)
        else:
            p = (matches + 1) / (len(hyp_grams) + 1)
        product *= p
    bp = 1.0 if len(hyp) >= len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return bp * product ** 0.25


class TestCorpusBleu:
    def test_identity_is_one(self):
        corpus = ["a b c d".split(), "e f g h i".split()]
        assert corpus_bleu(corpus, corpus).value == 1.0

    def test_brevity_penalty_closed_form(self):
        score = corpus_bleu(["a b c d".split()], ["a b c d e".split()])
        assert score.precisions == (1.0, 1.0, 1.0, 1.0)
        assert score.brevity_penalty == pytest.approx(math.exp(1 - 5 / 4), abs=1e-12)
        assert score.value == pytest.approx(math.exp(1 - 5 / 4), abs=1e-12)

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(ValueError):
            corpus_bleu([], [])

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="hypotheses"):
            corpus_bleu([["a"]], [["a"], ["b"]])

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(5)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(40):
            n = rng.randint(1, 6)
            hyps = [[rng.choice(vocab) for _ in range(rng.randint(1, 10))] for _ in range(n)]
            refs = [[rng.choice(vocab) for _ in range(rng.randint(1, 10))] for _ in range(n)]
            expected = oracle_corpus_bleu(hyps, refs)
            assert corpus_bleu(hyps, refs).value == pytest.approx(expected, abs=1e-12)

    def test_value_formula_invariant(self):
        hyps = ["a b c d e f".split(), "g h i j k".split()]
        refs = ["a b c x e f".split(), "g h i j k l".split()]
        score = corpus_bleu(hyps, refs)
        mean_log = sum(math.log(p) for p in score.precisions) / 4
        assert score.value == pytest.approx(score.brevity_penalty * math.exp(mean_log))

    @given(st.data())
    @settings(max_examples=50, derandomize=True)
    def test_invariant_under_token_relabeling(self, data):
        vocab = [f"w{i}" for i in range(8)]
        n = data.draw(st.integers(1, 4))
        hyps = [
            data.draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=8))
            for _ in range(n)
        ]
        refs = [
            data.draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=8))
            for _ in range(n)
        ]
        relabel = {w: f"R{w}" for w in vocab}
        relabeled_hyps = [[relabel[t] for t in h] for h in hyps]
        relabeled_refs = [[relabel[t] for t in r] for r in refs]
        assert corpus_bleu(hyps, refs).value == pytest.approx(
            corpus_bleu(relabeled_hyps, relabeled_refs).value, abs=1e-12
        )

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=60, derandomize=True)
    def test_removing_a_correct_token_never_increases_bleu(self, seed):
        # hypotheses start as exact copies of the references, so every token
        # is correct and the score starts at the 1.0 maximum
        rng = random.Random(seed)
        refs = []
        for _ in range(rng.randint(2, 5)):
            length = rng.randint(4, 10)
            refs.append([f"s{seed}w{k}" for k in rng.sample(range(40), length)])
        before = corpus_bleu(refs, refs).value
        shortened = []
        for ref in refs:
            drop = rng.randrange(len(ref))
            shortened.append(ref[:drop] + ref[drop + 1 :])
        after = corpus_bleu(shortened, refs).value
        assert before == 1.0
        assert after <= before


class TestSentenceBleu:
    def test_identical_is_one(self):
        assert sentence_bleu(["x"], ["x"]) == 1.0
        assert sentence_bleu("a b c d e".split(), "a b c d e".split()) == 1.0

    def test_disjoint_is_zero(self):
        assert sentence_bleu("a b c".split(), "x y z".split()) == 0.0

    def test_the_cat_sat_against_oracle(self):
        hyp = "the cat sat".split()
        ref = "the cat sat down".split()
        # all smoothed precisions are 1, so only the brevity penalty bites
        assert sentence_bleu(hyp, ref) == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)
        assert sentence_bleu(hyp, ref) == pytest.approx(oracle_sentence_bleu(hyp, ref))

    def test_matches_oracle_on_random_sentences(self):
        rng = random.Random(9)
        vocab = [f"w{i}" for i in range(9)]
        for _ in range(100):
            hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 9))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 9))]
            assert sentence_bleu(hyp, ref) == pytest.approx(
                oracle_sentence_bleu(hyp, ref), abs=1e-12
            )

    def test_empty_conventions(self):
        assert sentence_bleu([], []) == 1.0
        assert sentence_bleu([], ["a"]) == 0.0
        assert sentence_bleu(["a"], []) == 0.0


def test_bleu_score_is_frozen():
    score = BleuScore(1.0, (1.0, 1.0, 1.0, 1.0), 1.0)
    with pytest.raises(AttributeError):
        score.value = 0.5


def test_sentence_bleu_counts_each_side_once(monkeypatch):
    built = []

    class RecordingCounter(Counter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(dict(self))

    monkeypatch.setattr(bleu, "Counter", RecordingCounter)
    hyp = "the cat sat on the mat".split()
    ref = "the cat is on the mat".split()
    sentence_bleu(hyp, ref)

    def every_gram(tokens):
        grams = (tuple(tokens[i : i + n]) for n in range(1, 5) for i in range(len(tokens) - n + 1))
        return dict(Counter(grams))

    assert len(built) == 2
    assert every_gram(hyp) in built
    assert every_gram(ref) in built


def slicing_ngram_counts(tokens):
    """The oracle: one tuple slice per gram, orders 1 to MAX_ORDER."""
    tokens = tuple(tokens)
    return Counter(
        tokens[i : i + order]
        for order in range(1, bleu.MAX_ORDER + 1)
        for i in range(len(tokens) - order + 1)
    )


def intersecting_clipped_matches(hypothesis, reference):
    """The oracle: clip with ``Counter &``, then bucket by gram length."""
    matches = [0] * bleu.MAX_ORDER
    both = slicing_ngram_counts(hypothesis) & slicing_ngram_counts(reference)
    for gram, count in both.items():
        matches[len(gram) - 1] += count
    return matches


# a small vocabulary repeats tokens and grams; up to 40 tokens passes the
# 20-token tuple free-list limit
token_lists = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=40)


@given(hyp=token_lists, ref=token_lists, as_tuple=st.booleans())
@example(hyp=[], ref=[], as_tuple=False)
@example(hyp=["a"], ref=["a", "a", "a"], as_tuple=False)
@example(hyp=["a"] * 25, ref="a b a b a".split(), as_tuple=True)
@settings(max_examples=300, derandomize=True)
def test_kernel_equals_the_slicing_oracle(hyp, ref, as_tuple):
    if as_tuple:
        hyp, ref = tuple(hyp), tuple(ref)
    assert bleu._ngram_counts(hyp) == slicing_ngram_counts(hyp)
    assert bleu._clipped_matches(hyp, ref) == intersecting_clipped_matches(hyp, ref)


def test_sentence_bleu_leaves_no_heap_behind():
    # tuple shifts of 15-30-token lines would fill CPython's per-length tuple
    # free lists and keep about 170 KiB after this loop; list slices keep ~20
    rng = random.Random(11)
    vocab = [f"w{i}" for i in range(300)]
    lines = [
        tuple(rng.choice(vocab) for _ in range(rng.randint(15, 30))) for _ in range(400)
    ]
    pairs = [(rng.choice(lines), rng.choice(lines)) for _ in range(2000)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for hyp, ref in pairs:
            sentence_bleu(hyp, ref)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 64 * 1024, kept
