import gc
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import compensated_sum, oracle_select_center
from lowresmt import bleu, combine
from lowresmt.bleu import LogRows
from lowresmt.combine import (
    CentroidChoice,
    combine_corpus,
    select_center,
    similarity,
    write_combine_report,
)
from lowresmt.corpus import ParallelText

GOLDEN_REPORT = Path(__file__).parent / "fixtures" / "combine_golden.tsv"


def oracle_similarity(a, b):
    """Hand computation: smoothed sentence BLEU both directions, averaged."""

    def one_way(hyp, ref):
        if not hyp and not ref:
            return 1.0
        if not hyp or not ref:
            return 0.0
        product = 1.0
        for n in range(1, 5):
            hyp_grams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
            ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            matches = sum(
                min(hyp_grams.count(g), ref_grams.count(g)) for g in set(hyp_grams)
            )
            if n == 1:
                p = matches / len(hyp_grams)
            else:
                p = (matches + 1) / (len(hyp_grams) + 1)
            product *= p
        bp = 1.0 if len(hyp) >= len(ref) else math.exp(1 - len(ref) / len(hyp))
        return bp * product ** 0.25

    return 0.5 * (one_way(a, b) + one_way(b, a))


def candidates_of(sentences):
    return tuple((f"lang{i}", tuple(s)) for i, s in enumerate(sentences))


def center_of(sentences):
    """``select_center`` over ``sentences`` as the candidates of languages lang0, lang1, ..."""
    return select_center("L", candidates_of(sentences), LogRows())


def random_sentences(rng, count, vocab_size=8, max_len=7):
    vocab = [f"w{i}" for i in range(vocab_size)]
    return [
        [rng.choice(vocab) for _ in range(rng.randint(1, max_len))]
        for _ in range(count)
    ]


class TestSimilarity:
    def test_identical_is_one(self):
        assert similarity(("a", "b", "c"), ("a", "b", "c")) == 1.0

    def test_disjoint_is_zero(self):
        assert similarity(("a", "b", "c"), ("x", "y", "z")) == 0.0

    def test_both_empty_is_one_by_convention(self):
        assert similarity((), ()) == 1.0

    def test_one_empty_is_zero(self):
        assert similarity((), ("a",)) == 0.0

    def test_hand_computed_near_match(self):
        a = "a b c d".split()
        b = "a b c x".split()
        # equal lengths, so both directions agree:
        # p1=3/4, p2=(2+1)/(3+1), p3=(1+1)/(2+1), p4=(0+1)/(1+1)
        expected = (3 / 4 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
        assert similarity(a, b) == pytest.approx(expected, abs=1e-12)
        assert similarity(a, b) == pytest.approx(oracle_similarity(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(2)
        for _ in range(30):
            a, b = random_sentences(rng, 2)
            assert similarity(a, b) == pytest.approx(similarity(b, a), abs=1e-15)


class TestSelectCenter:
    def test_majority_duplicate_wins(self):
        choice = center_of([["a", "b", "c"], ["a", "b", "c"], ["x", "y", "z"]])
        assert choice.chosen_tokens == ("a", "b", "c")
        assert choice.chosen_language == "lang0"

    def test_singleton_returns_its_candidate(self):
        choice = center_of([["hello", "there"]])
        assert choice.chosen_tokens == ("hello", "there")
        assert choice.centrality == 0.0

    def test_empty_cluster_is_an_error(self):
        with pytest.raises(ValueError, match="empty cluster"):
            select_center("L1", (), LogRows())

    def test_matches_brute_force_on_random_clusters(self):
        rng = random.Random(7)
        for _ in range(100):
            sentences = random_sentences(rng, rng.randint(2, 6))
            choice = center_of(sentences)
            # exhaustive recomputation with the hand-rolled similarity
            centralities = []
            for i, a in enumerate(sentences):
                total = sum(
                    oracle_similarity(a, b)
                    for j, b in enumerate(sentences)
                    if j != i
                )
                centralities.append(total)
            best = max(range(len(sentences)), key=lambda i: (centralities[i], -i))
            assert choice.chosen_tokens == tuple(sentences[best])
            assert choice.centrality == pytest.approx(centralities[best], abs=1e-9)

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=60, derandomize=True)
    def test_permutation_invariance_up_to_tie_break(self, seed):
        rng = random.Random(seed)
        sentences = random_sentences(rng, rng.randint(2, 5))
        first = center_of(sentences)
        second = center_of(sentences[::-1])
        assert first.centrality == pytest.approx(second.centrality, abs=1e-9)
        # when the argmax is unique the chosen tokens are order-independent
        centralities = [
            sum(similarity(a, b) for j, b in enumerate(sentences) if j != i)
            for i, a in enumerate(sentences)
        ]
        top = sorted(centralities, reverse=True)
        if len(top) == 1 or top[0] - top[1] > 1e-9:
            assert first.chosen_tokens == second.chosen_tokens

    def test_duplicating_a_candidate_never_hurts_its_rank(self):
        rng = random.Random(9)
        for _ in range(40):
            sentences = random_sentences(rng, rng.randint(2, 5))
            index = rng.randrange(len(sentences))
            base_choice = center_of(sentences)
            boosted = center_of(sentences + [list(sentences[index])])
            if base_choice.chosen_tokens == tuple(sentences[index]):
                assert boosted.chosen_tokens == tuple(sentences[index])


class TestCombineCorpus:
    def texts(self, rows_by_language):
        return [
            ParallelText(lang, {lid: tuple(s.split()) for lid, s in rows})
            for lang, rows in rows_by_language.items()
        ]

    def test_identical_inputs_choose_first_by_tie_break(self):
        rows = [("1", "a b"), ("2", "c d")]
        translations = self.texts({f"lang{i}": rows for i in range(10)})
        combined, report = combine_corpus(translations)
        assert combined.lines == translations[0].lines
        assert report.histogram["lang0"] == 2
        assert sum(report.histogram.values()) == 2

    def test_single_outlier_loses_to_majority(self):
        rows = [("1", "a b c")]
        translations = self.texts({f"lang{i}": rows for i in range(9)})
        translations.append(ParallelText("odd", {"1": ("x", "y")}))
        combined, report = combine_corpus(translations)
        assert combined.lines["1"] == ("a", "b", "c")
        assert report.histogram["odd"] == 0

    def test_matches_per_line_brute_force(self):
        rng = random.Random(21)
        line_ids = [f"L{i}" for i in range(5)]
        languages = ["aa", "bb", "cc"]
        data = {
            lang: {lid: tuple(random_sentences(rng, 1)[0]) for lid in line_ids}
            for lang in languages
        }
        translations = [ParallelText(lang, dict(data[lang])) for lang in languages]
        combined, report = combine_corpus(translations)
        for lid in line_ids:
            candidates = [data[lang][lid] for lang in languages]
            centralities = [
                sum(
                    oracle_similarity(a, b)
                    for j, b in enumerate(candidates)
                    if j != i
                )
                for i, a in enumerate(candidates)
            ]
            best = max(range(3), key=lambda i: (centralities[i], -i))
            assert combined.lines[lid] == candidates[best]

    def test_ragged_inputs_name_the_offending_line(self):
        a = ParallelText("a", {"1": ("x",), "2": ("y",)})
        b = ParallelText("b", {"1": ("x",)})
        with pytest.raises(ValueError, match="'b' is missing line id '2'"):
            combine_corpus([a, b])
        c = ParallelText("c", {"1": ("x",), "2": ("y",), "3": ("z",)})
        with pytest.raises(ValueError, match="'c' has extra line id '3'"):
            combine_corpus([a, c])

    def test_repeated_language_is_an_error(self):
        a = ParallelText("hyp", {"1": ("x",)})
        b = ParallelText("hyp", {"1": ("y",)})
        with pytest.raises(ValueError, match="language 'hyp' is given twice"):
            combine_corpus([a, ParallelText("other", {"1": ("z",)}), b])

    def test_no_inputs_is_an_error(self):
        with pytest.raises(ValueError):
            combine_corpus([])

    def test_report_file_format(self, tmp_path):
        translations = self.texts({"aa": [("1", "x y")], "bb": [("1", "x y")]})
        _, report = combine_corpus(translations)
        path = tmp_path / "report.tsv"
        write_combine_report(report, path)
        fields = path.read_text().splitlines()[0].split("\t")
        assert fields[0] == "1"
        assert fields[1] == "aa"
        assert float(fields[2]) == pytest.approx(1.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcd"), max_size=6), min_size=1, max_size=11))
def test_centrality_is_the_index_ordered_similarity_sum(token_lists):
    candidates = tuple((f"l{i:02d}", tuple(tokens)) for i, tokens in enumerate(token_lists))
    choice = select_center("L", candidates, LogRows())
    sums = [
        sum(similarity(a, b) for j, (_, b) in enumerate(candidates) if j != i)
        for i, (_, a) in enumerate(candidates)
    ]
    best = sums.index(max(sums))
    assert choice.chosen_language == f"l{best:02d}"
    assert choice.chosen_tokens == candidates[best][1]
    assert choice.centrality == sums[best]


@st.composite
def noisy_clusters(draw):
    """1 to 11 noisy copies of one line of 0 to 80 tokens, each of its length or another.

    A vocabulary of one to a few dozen words repeats grams at every order.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    vocab = [f"w{i}" for i in range(draw(st.integers(1, 30)))]
    base = [rng.choice(vocab) for _ in range(draw(st.integers(0, 80)))]
    noise = draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]))
    sentences = []
    for _ in range(draw(st.integers(1, 11))):
        length = len(base) if draw(st.booleans()) else draw(st.integers(0, 80))
        sentences.append([
            base[i] if i < len(base) and rng.random() >= noise else rng.choice(vocab)
            for i in range(length)
        ])
    return sentences


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sentences=noisy_clusters())
# equal lengths: each pair smoothed once
@example(sentences=["a b c d".split(), "a b c x".split(), "a b x d".split(), "x b c d".split()])
# no shared token at unequal lengths: 0.0 without a lookup
@example(sentences=["a b".split(), "x y z".split(), "p q r s t".split()])
@example(sentences=[[], [], ["a"], "a a a".split(), "a a a a a".split()])
def test_select_center_is_bit_identical_to_smoothing_both_directions(sentences):
    choice = center_of(sentences)
    expected = oracle_select_center("L", candidates_of(sentences))
    assert (choice.chosen_language, choice.chosen_tokens) == (
        expected.chosen_language,
        expected.chosen_tokens,
    )
    assert repr(choice.centrality) == repr(expected.centrality)
    if len(sentences) > 1:
        pair = oracle_select_center("L", candidates_of(sentences[:2]))
        assert repr(similarity(*sentences[:2])) == repr(pair.centrality)


def seeded_translations(seed=5, lines=200, languages=10, vocab_size=80, lengths=(15, 30)):
    """Paper-shaped clusters: noisy variants of one line per id, 15-30 tokens by default.

    About 2% of candidates are empty, about 10% copy an earlier candidate
    of their line exactly, and line ``L100`` is empty in every language.
    """
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    rows = [{} for _ in range(languages)]
    for n in range(lines):
        lid = f"L{n:03d}"
        base = [rng.choice(vocab) for _ in range(rng.randint(*lengths))]
        for j, row in enumerate(rows):
            if n == 100 or rng.random() < 0.02:
                row[lid] = ()
            elif j and rng.random() < 0.1:
                row[lid] = rows[rng.randrange(j)][lid]
            else:
                kept = base[: max(lengths[0], len(base) - rng.randint(0, 4))]
                row[lid] = tuple(
                    rng.choice(vocab) if rng.random() < 0.25 else token for token in kept
                )
    return [ParallelText(f"lang{j}", row) for j, row in enumerate(rows)]


def test_report_is_byte_identical_to_the_golden_file(tmp_path):
    # the golden file was written by the pair-by-pair ``similarity`` combiner;
    # centralities are written with repr, so any float drift shows here
    _, report = combine_corpus(seeded_translations())
    path = tmp_path / "choices.tsv"
    write_combine_report(report, path)
    assert path.read_bytes() == GOLDEN_REPORT.read_bytes()


def test_golden_report_does_not_depend_on_the_builtin_sum(tmp_path, monkeypatch):
    # Python 3.12 made the builtin sum of floats compensated
    for module in (bleu, combine):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    _, report = combine_corpus(seeded_translations())
    path = tmp_path / "choices.tsv"
    write_combine_report(report, path)
    assert path.read_bytes() == GOLDEN_REPORT.read_bytes()


def test_select_center_counts_each_candidate_once(monkeypatch):
    # bleu's name is patched too, so counts made inside sentence BLEU calls add up
    counted = []
    real_counts = bleu._ngram_counts

    def counting(tokens):
        counted.append(tuple(tokens))
        return real_counts(tokens)

    monkeypatch.setattr(bleu, "_ngram_counts", counting)
    monkeypatch.setattr(combine, "_ngram_counts", counting)
    rng = random.Random(4)
    for sentences in (random_sentences(rng, 7), random_sentences(rng, 5) + [[], []]):
        counted.clear()
        center_of(sentences)
        assert sorted(counted) == sorted(tuple(s) for s in sentences)


def test_combine_corpus_keeps_no_counts_past_their_cluster():
    # gc.collect() also empties CPython's tuple free lists, so what is traced
    # after it is the result plus anything the call kept elsewhere; a cluster's
    # counts alone take several KiB
    translations = seeded_translations(seed=9, lines=300)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = combine_corpus(translations)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        del result
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 64 * 1024, kept
    assert held - kept <= 300 * 1024, held - kept


def test_combine_corpus_keeps_no_log_rows_past_the_call():
    # lines of 150-200 tokens need 52 log rows of up to 200 floats, about
    # 290 KiB while the call runs; none may outlive it
    translations = seeded_translations(seed=3, lines=40, lengths=(150, 200))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = combine_corpus(translations)
        del result
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 64 * 1024, kept
