import gc
import logging
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    oracle_statistics,
    oracle_train_alignment,
    oracle_viterbi_align,
    read_model_rows,
    read_statistics_rows,
)
from lowresmt.align import (
    NULL_TOKEN,
    AlignmentModel,
    collect_statistics,
    save_model,
    save_statistics,
    train_alignment,
    viterbi_align,
)
from lowresmt.corpus import bitext as shared_bitext
from lowresmt.synth import noised_copy, random_text, renamed_copy


def self_bitext(n_lines=60, vocab_size=40, seed=0):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    lines = [tuple(rng.sample(vocab, rng.randint(4, 8))) for _ in range(n_lines)]
    return [(line, line) for line in lines]


class TestTrainAlignment:
    def test_two_pair_corpus_concentrates(self):
        bitext = [(("a",), ("a",)), (("a", "b"), ("a", "b"))]
        model = train_alignment(bitext, 5)
        assert model.ttable["a"]["a"] > 0.9

    def test_classic_two_sentence_em(self):
        bitext = [
            (("das", "haus"), ("the", "house")),
            (("das", "buch"), ("the", "book")),
        ]
        model = train_alignment(bitext, 2)
        assert model.ttable["das"]["the"] > model.ttable["das"]["house"]
        model = train_alignment(bitext, 10)
        assert model.ttable["das"]["the"] > 0.7

    def test_self_corpus_converges_to_identity(self):
        bitext = self_bitext()
        model = train_alignment(bitext, 10)
        for source, row in model.ttable.items():
            if source == NULL_TOKEN:
                continue
            best = max(row, key=lambda t: (row[t], t))
            assert best == source

    def test_log_likelihood_is_non_decreasing(self):
        bitext = self_bitext(n_lines=40, seed=7)
        model = train_alignment(bitext, 10)
        assert len(model.log_likelihoods) == 11
        for earlier, later in zip(model.log_likelihoods, model.log_likelihoods[1:]):
            assert later >= earlier - 1e-9

    def test_log_likelihoods_score_the_table_after_each_m_step(self):
        rng = random.Random(5)
        bitext = []
        for _ in range(30):
            src = rng.sample([f"s{i}" for i in range(12)], rng.randint(2, 6))
            tgt = [f"t{s[1:]}" for s in src] + [f"t{rng.randint(0, 20)}"]
            rng.shuffle(tgt)
            bitext.append((tuple(src), tuple(tgt)))
        full = train_alignment(bitext, 6)
        for k in range(1, 6):
            assert train_alignment(bitext, k).log_likelihoods == full.log_likelihoods[: k + 1]
        direct = 0.0
        for src, tgt in bitext:
            prior_real = (1.0 - full.p_null) / len(src)
            for t in tgt:
                p = full.p_null * full.ttable[NULL_TOKEN].get(t, 0.0)
                p += sum(prior_real * full.ttable[s].get(t, 0.0) for s in src)
                direct += math.log(p)
        assert full.log_likelihoods[-1] == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_no_e_step_reads_a_target_side(self):
        class CountingTokens(tuple):
            reads = 0

            def __iter__(self):
                CountingTokens.reads += 1
                return super().__iter__()

        bitext = [(("a",), CountingTokens(("x", "y"))), (("a", "b"), CountingTokens(("y",)))]
        # building the slot maps reads each target side 1 + len(source) times and
        # the slot grid twice; every pass after that walks the grid alone
        setup_reads = (1 + 1 + 2) + (1 + 2 + 2)
        for iterations in (1, 4):
            CountingTokens.reads = 0
            train_alignment(bitext, iterations)
            assert CountingTokens.reads == setup_reads

    def test_empty_pairs_skipped_with_warning(self, caplog):
        bitext = [(("a",), ("b",)), ((), ("b",)), (("a",), ())]
        with caplog.at_level(logging.WARNING):
            model = train_alignment(bitext, 2)
        assert "skipped 2" in caplog.text
        assert "a" in model.ttable

    def test_all_pairs_empty_is_an_error(self):
        with pytest.raises(ValueError, match="no usable"):
            train_alignment([((), ("a",)), (("b",), ())], 2)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            train_alignment([(("a",), ("b",))], 0)
        with pytest.raises(ValueError):
            train_alignment([(("a",), ("b",))], 1, p_null=1.5)

    def test_deterministic(self):
        bitext = self_bitext(n_lines=20, seed=3)
        first = train_alignment(bitext, 4)
        second = train_alignment(bitext, 4)
        assert first.ttable == second.ttable
        assert first.log_likelihoods == second.log_likelihoods

    @given(seed=st.integers(0, 200))
    @settings(max_examples=30, derandomize=True)
    def test_rows_stay_stochastic(self, seed):
        rng = random.Random(seed)
        vocab_s = [f"s{i}" for i in range(6)]
        vocab_t = [f"t{i}" for i in range(6)]
        bitext = [
            (
                tuple(rng.choice(vocab_s) for _ in range(rng.randint(1, 5))),
                tuple(rng.choice(vocab_t) for _ in range(rng.randint(1, 5))),
            )
            for _ in range(rng.randint(2, 12))
        ]
        model = train_alignment(bitext, 3)
        for source, row in model.ttable.items():
            total = sum(row.values())
            assert abs(total - 1.0) < 1e-6, (source, total)
            assert all(p >= 0.0 for p in row.values())

    @given(
        bitext=st.lists(
            st.tuples(
                st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6),
                st.lists(st.sampled_from(["x", "y", "z", "a"]), max_size=6),
            ),
            min_size=1,
            max_size=12,
        ).filter(lambda pairs: any(src and tgt for src, tgt in pairs)),
        iterations=st.integers(1, 3),
        p_null=st.one_of(st.sampled_from([0.08, 0.5]), st.floats(0.001, 0.999)),
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_equals_the_dict_of_dicts_oracle_bit_for_bit(self, bitext, iterations, p_null):
        # repeated tokens within a line, pairs with an empty side, varied null priors
        model = train_alignment(bitext, iterations, p_null=p_null)
        oracle = oracle_train_alignment(bitext, iterations, p_null=p_null)
        assert model == oracle
        assert list(model.ttable) == list(oracle.ttable)
        for word, row in model.ttable.items():
            assert list(row) == list(oracle.ttable[word]), word

    @pytest.mark.parametrize("n_types", [256, 257, 65_537])
    def test_equals_the_oracle_on_each_side_of_a_slot_typecode_boundary(self, n_types):
        # one source word and n_types target types: the widest row's last slot is
        # n_types - 1, so 257 and 65,537 types need a wider cell than 256 and 65,536 do;
        # every seventh type repeats so the rows are not uniform
        words = [f"t{i}" for i in range(n_types)]
        bitext = [(("a",), tuple(words + words[::7]))]
        model = train_alignment(bitext, 2)
        oracle = oracle_train_alignment(bitext, 2)
        assert model == oracle
        for word, row in model.ttable.items():
            assert list(row) == list(oracle.ttable[word]), word

    def test_peak_memory_stays_near_the_returned_table(self):
        # measured: 1.06-1.08x at seeds 1, 5 and 31, against 2.58-2.61x for
        # dict-of-dicts tables
        source = random_text("src", 150, seed=31, vocab_size=300, min_tokens=10, max_tokens=20)
        target = noised_copy(renamed_copy(source, "tgt"), "tgt", 0.1, seed=32)
        pairs = shared_bitext(source, target)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = train_alignment(pairs, 2)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.ttable
        assert peak - before <= 1.3 * (held - before), (peak - before, held - before)


class TestViterbi:
    def test_identity_links_on_converged_model(self):
        bitext = self_bitext(n_lines=60, seed=1)
        model = train_alignment(bitext, 10)
        source = bitext[0][0]
        alignment = viterbi_align(model, (source, source))
        assert alignment == tuple((i, i) for i in range(len(source)))

    def test_unseen_target_token_falls_to_null(self):
        model = train_alignment([(("a", "b"), ("x", "y"))], 3)
        alignment = viterbi_align(model, (("a", "b"), ("zzz",)))
        assert alignment == ()

    def test_das_the_linked(self):
        bitext = [
            (("das", "haus"), ("the", "house")),
            (("das", "buch"), ("the", "book")),
        ]
        model = train_alignment(bitext, 10)
        alignment = viterbi_align(model, (("das", "haus"), ("the", "house")))
        assert (0, 0) in alignment

    def test_tie_breaks_to_lowest_source_index(self):
        # two identical source tokens: both score the same for the target
        model = AlignmentModel(ttable={"a": {"x": 1.0}, NULL_TOKEN: {"x": 0.0}})
        alignment = viterbi_align(model, (("a", "a"), ("x",)))
        assert alignment == ((0, 0),)

    def test_at_most_one_source_per_target(self):
        bitext = self_bitext(n_lines=30, seed=2)
        model = train_alignment(bitext, 5)
        for source, target in bitext[:10]:
            alignment = viterbi_align(model, (source, target))
            targets = [j for _, j in alignment]
            assert len(targets) == len(set(targets))
            assert all(0 <= i < len(source) and 0 <= j < len(target) for i, j in alignment)

    @given(
        ttable=st.dictionaries(
            st.sampled_from([NULL_TOKEN, "a", "b", "c"]),
            st.dictionaries(
                st.sampled_from(["x", "y", "z"]),
                # exact ties across rows, and null probabilities under the epsilon floor
                st.one_of(st.sampled_from([0.0, 1e-12, 1e-9, 0.25, 0.5]), st.floats(0.0, 1.0)),
            ),
        ),
        # "d" and "w" are words the model has never seen
        src=st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6),
        tgt=st.lists(st.sampled_from(["x", "y", "z", "w"]), max_size=6),
        p_null=st.one_of(st.sampled_from([0.08, 0.5]), st.floats(0.001, 0.999)),
        epsilon=st.sampled_from([1e-9, 0.1]),
    )
    # a source score equal to the null score leaves the target on null
    @example(
        ttable={NULL_TOKEN: {"x": 0.5}, "a": {"x": 0.5}}, src=["a"], tgt=["x"], p_null=0.5,
        epsilon=1e-9,
    )
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_equals_the_per_cell_oracle(self, ttable, src, tgt, p_null, epsilon):
        # repeated source tokens tie exactly, and ties go to the lowest index
        model = AlignmentModel(ttable=ttable, p_null=p_null, epsilon=epsilon)
        pair = (tuple(src), tuple(tgt))
        assert viterbi_align(model, pair) == oracle_viterbi_align(model, pair)


class TestCollectStatistics:
    def test_identity_corpus_all_ones(self):
        bitext = self_bitext(n_lines=60, seed=4)
        model = train_alignment(bitext, 10)
        stats = collect_statistics(model, bitext)
        for word, word_stats in stats.words.items():
            assert word_stats.n_obs > 0
            assert word_stats.p_fert1 == 1.0, word
            assert word_stats.p_dist0 == 1.0, word
            assert word_stats.p_joint == 1.0, word

    def test_reversed_corpus_has_zero_dist0_for_interior_words(self):
        # distortion enumerated by hand on reversed 3-token lines: the first
        # target link lands on the last source position (D = 2), every later
        # link steps backwards (D = -2), so no link is monotone
        rng = random.Random(11)
        vocab = [f"w{i}" for i in range(30)]
        lines = [tuple(rng.sample(vocab, 3)) for _ in range(60)]
        bitext = [(line, tuple(reversed(line))) for line in lines]
        model = train_alignment(bitext, 10)
        stats = collect_statistics(model, bitext)
        interior = [line[1] for line in lines]
        for word in interior:
            assert stats.words[word].p_dist0 == 0.0

    def test_double_alignment_gives_fertility_two(self):
        model = AlignmentModel(
            ttable={"s": {"x": 1.0}, "r": {"y": 1.0}, NULL_TOKEN: {"x": 0.0, "y": 0.0}}
        )
        stats = collect_statistics(model, [(("s", "r"), ("x", "x"))])
        assert stats.words["s"].n_obs == 1
        assert stats.words["s"].p_fert1 == 0.0

    def test_never_aligned_word_gets_zero_entry(self):
        model = AlignmentModel(ttable={"a": {"x": 1.0}, NULL_TOKEN: {"x": 0.0}})
        stats = collect_statistics(model, [(("a", "q"), ("x",))])
        assert stats.words["q"].n_obs == 0
        assert stats.words["q"].p_fert1 == 0.0
        assert stats.words["q"].p_dist0 == 0.0

    def test_source_length_histogram(self):
        model = AlignmentModel(ttable={NULL_TOKEN: {}})
        bitext = [(("a", "b"), ("x",)), (("c", "d"), ("y",)), (("e",), ("z",))]
        stats = collect_statistics(model, bitext)
        assert stats.source_lengths == {2: 2, 1: 1}

    def test_matches_brute_force_recount_from_viterbi(self):
        # oracle: recount fertility and distortion directly from the emitted
        # hard alignments, with its own independent bookkeeping
        rng = random.Random(13)
        vocab_s = [f"s{i}" for i in range(25)]
        vocab_t = [f"t{i}" for i in range(25)]
        bitext = []
        for _ in range(50):
            n = rng.randint(2, 7)
            src = tuple(rng.sample(vocab_s, n))
            tgt = tuple(rng.sample(vocab_t, rng.randint(2, 7)))
            bitext.append((src, tgt))
        model = train_alignment(bitext, 6)
        stats = collect_statistics(model, bitext)

        n_obs = {}
        fert1 = {}
        dist0 = {}
        joint = {}
        for src, tgt in bitext:
            links = list(viterbi_align(model, (src, tgt)))
            previous_source = -1
            link_distortion = []
            for i, j in sorted(links, key=lambda link: link[1]):
                link_distortion.append((i, j, (i - previous_source) - 1))
                previous_source = i
            for position in range(len(src)):
                mine = [(i, j, d) for i, j, d in link_distortion if i == position]
                if not mine:
                    continue
                word = src[position]
                n_obs[word] = n_obs.get(word, 0) + 1
                if len(mine) == 1:
                    fert1[word] = fert1.get(word, 0) + 1
                if all(d == 0 for _, _, d in mine):
                    dist0[word] = dist0.get(word, 0) + 1
                    if len(mine) == 1:
                        joint[word] = joint.get(word, 0) + 1
        for word, word_stats in stats.words.items():
            expected_n = n_obs.get(word, 0)
            assert word_stats.n_obs == expected_n
            if expected_n:
                assert word_stats.p_fert1 == pytest.approx(fert1.get(word, 0) / expected_n)
                assert word_stats.p_dist0 == pytest.approx(dist0.get(word, 0) / expected_n)
                assert word_stats.p_joint == pytest.approx(joint.get(word, 0) / expected_n)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=25, derandomize=True)
    def test_joint_bounded_by_marginals(self, seed):
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(10)]
        bitext = [
            (
                tuple(rng.choice(vocab) for _ in range(rng.randint(1, 6))),
                tuple(rng.choice(vocab) for _ in range(rng.randint(1, 6))),
            )
            for _ in range(rng.randint(2, 15))
        ]
        model = train_alignment(bitext, 3)
        stats = collect_statistics(model, bitext)
        for word_stats in stats.words.values():
            assert word_stats.p_joint <= min(word_stats.p_fert1, word_stats.p_dist0) + 1e-12
            assert 0.0 <= word_stats.p_fert1 <= 1.0
            assert 0.0 <= word_stats.p_dist0 <= 1.0

    @given(
        seed=st.integers(0, 10_000),
        vocab_size=st.integers(1, 8),
        empty_sides=st.booleans(),
        trained=st.booleans(),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_matches_the_distortion_tally_oracle(self, seed, vocab_size, empty_sides, trained):
        # a trained table or an arbitrary one, which links in any order
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(vocab_size)]
        low = 0 if empty_sides else 1
        bitext = [
            (
                tuple(rng.choice(vocab) for _ in range(rng.randint(low, 7))),
                tuple(rng.choice(vocab) for _ in range(rng.randint(low, 7))),
            )
            for _ in range(rng.randint(1, 12))
        ]
        bitext.append((("w0", "w0"), ("w0",)))
        if trained:
            model = train_alignment(bitext, rng.randint(1, 4))
        else:
            ttable = {s: {t: rng.random() for t in vocab} for s in [NULL_TOKEN, *vocab]}
            model = AlignmentModel(ttable=ttable, p_null=rng.uniform(0.01, 0.9))
        assert collect_statistics(model, bitext) == oracle_statistics(model, bitext)

    def test_self_alignment_limit_invariant(self):
        bitext = self_bitext(n_lines=50, vocab_size=40, seed=21)
        model = train_alignment(bitext, 10)
        stats = collect_statistics(model, bitext)
        observed = [w for w in stats.words.values() if w.n_obs > 0]
        mean_dist0 = sum(w.p_dist0 for w in observed) / len(observed)
        mean_fert1 = sum(w.p_fert1 for w in observed) / len(observed)
        assert mean_dist0 > 0.99
        assert mean_fert1 > 0.99


class TestSerialization:
    def test_model_round_trip(self, tmp_path):
        bitext = [(("das", "haus"), ("the", "house"))]
        model = train_alignment(bitext, 3)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        headers, ttable = read_model_rows(path)
        assert headers == {
            "#p_null": repr(model.p_null),
            "#epsilon": repr(model.epsilon),
            "#iterations": str(model.iterations),
        }
        assert ttable == model.ttable

    def test_statistics_round_trip(self, tmp_path):
        bitext = self_bitext(n_lines=10, seed=5)
        model = train_alignment(bitext, 3)
        stats = collect_statistics(model, bitext)
        path = tmp_path / "stats.tsv"
        save_statistics(stats, path)
        lengths, words = read_statistics_rows(path)
        assert words == stats.words
        assert lengths == stats.source_lengths
