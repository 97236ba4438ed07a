import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from lowresmt.align import (
    AlignmentModel,
    AlignmentStatistics,
    WordStatistics,
    collect_statistics,
    train_alignment,
)
from lowresmt.corpus import ParallelText, load_candidates, load_text
from lowresmt.rank import (
    FamilyOfChoice,
    LanguageRanking,
    LanguageScore,
    famd_score,
    famp_score,
    rank_languages,
    select_family,
    word_replacement_translate,
    write_ranking,
)
from lowresmt.synth import noised_copy, random_text, renamed_copy, shuffled_copy


def stats_of(entries):
    return AlignmentStatistics(
        words={
            word: WordStatistics(n_obs=n, p_fert1=f, p_dist0=d, p_joint=j)
            for word, (n, f, d, j) in entries.items()
        },
        source_lengths={},
    )


def self_model(n_lines=60, seed=0):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(40)]
    lines = [tuple(rng.sample(vocab, rng.randint(4, 8))) for _ in range(n_lines)]
    bitext = [(line, line) for line in lines]
    model = train_alignment(bitext, 10)
    stats = collect_statistics(model, bitext)
    return model, stats, bitext


class TestWordReplacement:
    def test_identity_model_reproduces_sentence(self):
        model, stats, bitext = self_model()
        sentence = bitext[0][0]
        assert word_replacement_translate(model, stats, sentence) == list(sentence)

    def test_argmax_picks_highest_probability(self):
        model = AlignmentModel(ttable={"s": {"x": 0.6, "y": 0.4}})
        stats = stats_of({"s": (4, 1.0, 1.0, 0.5)})
        assert word_replacement_translate(model, stats, ["s"]) == ["x"]

    def test_unseen_token_copies_through(self):
        model = AlignmentModel(ttable={"s": {"x": 1.0}})
        stats = stats_of({"s": (4, 1.0, 1.0, 0.5)})
        assert word_replacement_translate(model, stats, ["zzz"]) == ["zzz"]

    def test_zero_joint_rate_copies_through(self):
        model = AlignmentModel(ttable={"s": {"x": 1.0}})
        stats = stats_of({"s": (4, 0.0, 0.0, 0.0)})
        assert word_replacement_translate(model, stats, ["s"]) == ["s"]

    def test_argmax_tie_breaks_lexicographically(self):
        model = AlignmentModel(ttable={"s": {"zz": 0.5, "aa": 0.5}})
        stats = stats_of({"s": (4, 1.0, 1.0, 1.0)})
        assert word_replacement_translate(model, stats, ["s"]) == ["aa"]

    def test_output_length_equals_input_length(self):
        model, stats, bitext = self_model(seed=2)
        for source, _ in bitext[:5]:
            assert len(word_replacement_translate(model, stats, source)) == len(source)


class TestFamdScore:
    def test_identical_corpora_score_one(self):
        _, stats, _ = self_model(seed=1)
        assert famd_score(stats) == 1.0

    def test_weighted_mean_arithmetic(self):
        stats = stats_of({"a": (3, 1.0, 1.0, 1.0), "b": (1, 1.0, 0.0, 0.0)})
        assert famd_score(stats) == pytest.approx(0.75)

    def test_reversed_order_scores_below_half(self):
        rng = random.Random(5)
        vocab = [f"w{i}" for i in range(30)]
        lines = [tuple(rng.sample(vocab, 3)) for _ in range(60)]
        bitext = [(line, tuple(reversed(line))) for line in lines]
        model = train_alignment(bitext, 10)
        assert famd_score(collect_statistics(model, bitext)) < 0.5

    def test_no_observations_is_an_error(self):
        with pytest.raises(ValueError, match="no aligned"):
            famd_score(stats_of({"a": (0, 0.0, 0.0, 0.0)}))


class TestFampScore:
    def test_identical_language_scores_one(self):
        rng = random.Random(3)
        vocab = [f"w{i}" for i in range(40)]
        lines = [tuple(rng.sample(vocab, rng.randint(4, 8))) for _ in range(60)]
        bitext = [(line, line) for line in lines]
        model = train_alignment(bitext[:54], 10)
        stats = collect_statistics(model, bitext[:54])
        assert famp_score(model, stats, bitext[54:]) == pytest.approx(1.0, abs=1e-6)

    def test_learnable_bijection_scores_one(self):
        # every word deterministically renamed; EM recovers the bijection
        base = random_text("src", 90, seed=4, vocab_size=30)
        renamed = renamed_copy(base, "tgt")
        bitext = [(base.lines[lid], renamed.lines[lid]) for lid in base.lines]
        model = train_alignment(bitext[:81], 10)
        stats = collect_statistics(model, bitext[:81])
        assert famp_score(model, stats, bitext[81:]) == pytest.approx(1.0, abs=1e-6)

    def test_unrelated_corpora_score_near_zero(self):
        src = random_text("a", 80, seed=6, vocab_size=60)
        other = renamed_copy(random_text("b", 80, seed=7, vocab_size=60), "b")
        bitext = [
            (src.lines[lid], other.lines[lid])
            for lid in src.lines
            if lid in other.lines
        ]
        model = train_alignment(bitext[:72], 10)
        stats = collect_statistics(model, bitext[:72])
        assert famp_score(model, stats, bitext[72:]) < 0.05

    def test_empty_heldout_is_an_error(self):
        model, stats, _ = self_model(seed=8)
        with pytest.raises(ValueError, match="empty"):
            famp_score(model, stats, [])


class TestRankLanguages:
    def make_candidates(self, target, seed=0):
        copy = renamed_copy(target, "copy")
        return [
            copy,
            noised_copy(copy, "noised", 0.25, seed=seed),
            shuffled_copy(copy, "shuffled", seed=seed),
            renamed_copy(random_text("r", len(target.lines), seed=seed + 50), "random"),
        ]

    def test_discriminates_synthetic_candidates(self):
        target = random_text("tgt", 100, seed=10)
        candidates = self.make_candidates(target, seed=10)
        famp_ranking, _ = rank_languages(target, candidates, "famp")
        scores = {e.language: e.value for e in famp_ranking.entries}
        assert scores["copy"] > scores["noised"] > scores["random"]
        famd_ranking, _ = rank_languages(target, candidates, "famd")
        scores = {e.language: e.value for e in famd_ranking.entries}
        assert scores["shuffled"] < scores["copy"]

    def test_single_candidate(self):
        target = random_text("tgt", 60, seed=11)
        ranking, skips = rank_languages(target, [renamed_copy(target, "only")], "famd")
        assert len(ranking.entries) == 1
        assert ranking.entries[0].language == "only"
        assert skips == []

    def test_insufficient_shared_lines_skipped(self):
        target = random_text("tgt", 100, seed=12)
        short = ParallelText(
            "short", {lid: target.lines[lid] for lid in list(target.lines)[:30]}
        )
        ranking, skips = rank_languages(
            target, [renamed_copy(target, "full"), short], "famd"
        )
        assert [e.language for e in ranking.entries] == ["full"]
        assert len(skips) == 1
        assert skips[0].language == "short"
        assert "30" in skips[0].reason

    def test_duplicate_candidate_codes_is_an_error(self):
        target = random_text("tgt", 60, seed=13)
        candidate = renamed_copy(target, "dup")
        with pytest.raises(ValueError, match="duplicate"):
            rank_languages(target, [candidate, candidate], "famd")

    def test_unknown_metric_is_an_error(self):
        target = random_text("tgt", 60, seed=14)
        with pytest.raises(ValueError, match="metric"):
            rank_languages(target, [renamed_copy(target, "x")], "bleu")

    def test_permutation_invariance(self):
        target = random_text("tgt", 80, seed=15)
        candidates = self.make_candidates(target, seed=15)
        forward, _ = rank_languages(target, candidates, "famp")
        backward, _ = rank_languages(target, list(reversed(candidates)), "famp")
        assert forward.entries == backward.entries

    def test_worker_pool_matches_serial(self):
        target = random_text("tgt", 60, seed=16)
        candidates = self.make_candidates(target, seed=16)
        serial, serial_skips = rank_languages(target, candidates, "famd", workers=1)
        pooled, pooled_skips = rank_languages(target, candidates, "famd", workers=2)
        assert serial.entries == pooled.entries
        assert serial_skips == pooled_skips

    def test_pool_is_capped_by_candidates_and_cpus(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr("lowresmt.rank.os.cpu_count", lambda: 3)
        target = random_text("tgt", 60, seed=19)
        candidates = self.make_candidates(target, seed=19)
        serial, _ = rank_languages(target, candidates, "famd")
        assert sizes == []
        pooled, _ = rank_languages(target, candidates, "famd", workers=1000)
        assert sizes == [3]
        assert pooled.entries == serial.entries
        rank_languages(target, candidates[:2], "famd", workers=1000)
        assert sizes == [3, 2]
        monkeypatch.setattr("lowresmt.rank.os.cpu_count", lambda: None)
        rank_languages(target, candidates, "famd", workers=1000)
        assert sizes == [3, 2]

    def test_monotone_degradation_under_noise(self):
        target = random_text("tgt", 100, seed=17)
        copy = renamed_copy(target, "c")
        scores = []
        for q in (0.0, 0.25, 0.5, 1.0):
            candidate = noised_copy(copy, f"q{int(q * 100)}", q, seed=18)
            ranking, _ = rank_languages(target, [candidate], "famp")
            scores.append(ranking.entries[0].value)
        assert all(later <= earlier for earlier, later in zip(scores, scores[1:]))

    def test_ranking_report_format(self, tmp_path):
        ranking = LanguageRanking(
            metric="FAMD",
            entries=(
                LanguageScore("aa", "FAMD", 0.9),
                LanguageScore("bb", "FAMD", 0.5),
            ),
        )
        path = tmp_path / "ranking.tsv"
        write_ranking(ranking, path)
        rows = path.read_text().splitlines()
        assert rows[0].split("\t") == ["1", "aa", "FAMD", "0.9"]
        assert rows[1].split("\t") == ["2", "bb", "FAMD", "0.5"]


class TestSelectFamily:
    def ranking(self, values):
        entries = tuple(
            LanguageScore(lang, "FAMD", value)
            for lang, value in sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
        )
        return LanguageRanking(metric="FAMD", entries=entries)

    def test_top_k_of_twelve(self):
        ranking = self.ranking({f"l{i:02d}": 1.0 - i / 100 for i in range(12)})
        family = select_family(ranking, "tgt", k=10)
        assert family.members == tuple(f"l{i:02d}" for i in range(10))
        assert family.provenance == "FAMD"

    def test_tie_breaks_to_smaller_code(self):
        ranking = self.ranking({"bb": 0.5, "aa": 0.5, "cc": 0.9})
        family = select_family(ranking, "tgt", k=2)
        assert family.members == ("cc", "aa")

    def test_k_one(self):
        ranking = self.ranking({"aa": 0.1})
        assert select_family(ranking, "tgt", k=1).members == ("aa",)

    def test_too_few_entries_is_an_error(self):
        ranking = self.ranking({"aa": 0.1})
        with pytest.raises(ValueError, match="explicit family list"):
            select_family(ranking, "tgt", k=2)

    def test_target_is_excluded(self):
        ranking = self.ranking({"tgt": 1.0, "aa": 0.5, "bb": 0.4})
        family = select_family(ranking, "tgt", k=2)
        assert family.members == ("aa", "bb")

    def test_stable_prefix_when_k_grows(self):
        ranking = self.ranking({f"l{i:02d}": 1.0 - i / 100 for i in range(12)})
        small = select_family(ranking, "tgt", k=4)
        large = select_family(ranking, "tgt", k=9)
        assert large.members[:4] == small.members

    def test_family_invariants(self):
        with pytest.raises(ValueError, match="target"):
            FamilyOfChoice(target="x", members=("x", "y"), provenance="FAMD")
        with pytest.raises(ValueError, match="duplicate"):
            FamilyOfChoice(target="x", members=("y", "y"), provenance="FAMD")



@pytest.mark.parametrize("metric", ["famd", "famp"])
def test_cut_candidates_rank_as_full_ones(metric):
    corpus_dir = Path(__file__).parent / "fixtures" / "e2e"
    target = load_text(corpus_dir / "lrx.txt", "lrx")
    full = [
        load_text(path, path.stem)
        for path in sorted(corpus_dir.glob("*.txt")) if path.stem != "lrx"
    ]
    cut = load_candidates(corpus_dir, target)
    assert [c.language for c in cut] == [c.language for c in full]
    assert all(len(c) < len(f) for c, f in zip(cut, full))
    scored = [rank_languages(target, texts, metric, iterations=3) for texts in (cut, full)]
    assert scored[0] == scored[1]
    assert len(scored[0][0].entries) == len(full)
    skipped = [
        rank_languages(target, texts, metric, min_shared_lines=len(target) + 1)
        for texts in (cut, full)
    ]
    assert skipped[0] == skipped[1]
    assert len(skipped[0][1]) == len(full)


@pytest.mark.parametrize("metric, needed", [("famd", 1), ("famp", 2)])
def test_a_candidate_sharing_too_few_lines_for_its_metric_is_skipped(metric, needed):
    target = random_text("tgt", 60, seed=22)
    stranger = ParallelText("stranger", {"elsewhere": ("w1", "w2")})
    lone = ParallelText("lone", {lid: target.lines[lid] for lid in list(target.lines)[:1]})
    candidates = [renamed_copy(target, "full"), stranger, lone]
    ranking, skips = rank_languages(target, candidates, metric, min_shared_lines=0)
    ranked = ["full"] if metric == "famp" else ["full", "lone"]
    assert sorted(e.language for e in ranking.entries) == ranked
    expected = [("stranger", f"only 0 shared lines (minimum {needed})")]
    if metric == "famp":
        expected.append(("lone", "only 1 shared lines (minimum 2)"))
    assert [(skip.language, skip.reason) for skip in skips] == expected


def test_importing_the_cli_loads_no_process_pool():
    # a fresh interpreter: this test process has imported the pool already
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, lowresmt.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'concurrent', 'multiprocessing'}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
