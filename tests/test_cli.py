import json
import logging
from pathlib import Path

import pytest

import lowresmt.cli
from helpers import compensated_sum, read_model_rows, read_statistics_rows
from lowresmt import bleu, combine
from lowresmt.align import collect_statistics, train_alignment
from lowresmt.cli import main
from lowresmt.corpus import load_text
from lowresmt.datagen import file_sha256

FIXTURES = Path(__file__).parent / "fixtures"
# sha256 of `lowresmt align --source e2e/aaa.txt --target e2e/lrx.txt` with default flags
E2E_ALIGN_MODEL_SHA256 = "07560cd4e437471399bce29f23f4f800f913124dec73bba37ffc798509862132"


def write(path, content):
    path.write_text(content, encoding="utf-8")
    return path


def tag_fixture_lrx(tmp_path, lexicon):
    """The template and dictionary bytes that `lowresmt tag` writes for e2e/lrx.txt."""
    tagged = tmp_path / "tagged.txt"
    dicts = tmp_path / "dicts.tsv"
    assert main(
        [
            "tag",
            "--input", str(FIXTURES / "e2e" / "lrx.txt"),
            "--language", "lrx",
            "--lexicon", str(lexicon),
            "--output", str(tagged),
            "--dicts", str(dicts),
        ]
    ) == 0
    return tagged.read_bytes(), dicts.read_bytes()


@pytest.fixture
def small_corpus_dir(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    base_lines = [(f"V{i:03d}", f"tok{i} tok{i + 1} tok{i + 2}") for i in range(60)]
    for lang in ("aa", "bb"):
        rows = "".join(f"{lid}\t{text.replace('tok', lang)}\n" for lid, text in base_lines)
        write(corpus / f"{lang}.txt", rows)
    # target shares ids with renamed tokens
    rows = "".join(f"{lid}\t{text.replace('tok', 'tt')}\n" for lid, text in base_lines)
    write(corpus / "tt.txt", rows)
    return corpus


class TestScore:
    def test_prints_tsv(self, tmp_path, capsys):
        hyp = write(tmp_path / "hyp.txt", "a b c d\n")
        ref = write(tmp_path / "ref.txt", "a b c d e\n")
        assert main(["score", "--hypotheses", str(hyp), "--references", str(ref)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("#bleu")
        value = float(out[1].split("\t")[0])
        assert 0.77 < value < 0.78

    def test_writes_file_with_output_flag(self, tmp_path):
        hyp = write(tmp_path / "hyp.txt", "a b\n")
        ref = write(tmp_path / "ref.txt", "a b\n")
        out = tmp_path / "score.tsv"
        assert main(
            ["score", "--hypotheses", str(hyp), "--references", str(ref), "--output", str(out)]
        ) == 0
        assert out.read_text().splitlines()[1].split("\t")[0] == "1.000000"

    def test_mismatched_ids_fail(self, tmp_path):
        hyp = write(tmp_path / "hyp.txt", "a\nb\n")
        ref = write(tmp_path / "ref.txt", "a\n")
        assert main(["score", "--hypotheses", str(hyp), "--references", str(ref)]) == 1

    @pytest.mark.parametrize(
        "references, problem",
        [("a\n", "'ref' is missing line id '1'"), ("a\nb\nc\n", "'ref' has extra line id '2'")],
    )
    def test_ragged_ids_are_named(self, tmp_path, caplog, references, problem):
        hyp = write(tmp_path / "hyp.txt", "a\nb\n")
        ref = write(tmp_path / "ref.txt", references)
        out = tmp_path / "bleu.tsv"
        assert main(
            ["score", "--hypotheses", str(hyp), "--references", str(ref), "--output", str(out)]
        ) == 1
        assert problem in caplog.text
        assert not out.exists()


class TestAlign:
    def test_trains_and_saves(self, tmp_path, small_corpus_dir):
        model_path = tmp_path / "model.tsv"
        stats_path = tmp_path / "stats.tsv"
        code = main(
            [
                "align",
                "--source", str(small_corpus_dir / "aa.txt"),
                "--target", str(small_corpus_dir / "tt.txt"),
                "--iterations", "5",
                "--output", str(model_path),
                "--stats-output", str(stats_path),
            ]
        )
        assert code == 0
        source = load_text(small_corpus_dir / "aa.txt", "aa")
        target = load_text(small_corpus_dir / "tt.txt", "tt")
        bitext = [(source.lines[lid], target.lines[lid]) for lid in source.lines]
        model = train_alignment(bitext, 5)
        headers, ttable = read_model_rows(model_path)
        assert headers["#iterations"] == "5"
        assert ttable == model.ttable
        stats = collect_statistics(model, bitext)
        assert read_statistics_rows(stats_path) == (stats.source_lengths, stats.words)
        assert stats.words

    def test_fixture_alignment_is_byte_identical_to_the_golden_copy(self, tmp_path):
        # probabilities and rates are written with repr, so any drift in the EM
        # floats or in a Viterbi tie shows here; the 3,113-row model is pinned by digest
        model_path = tmp_path / "model.tsv"
        stats_path = tmp_path / "stats.tsv"
        assert main(
            [
                "align",
                "--source", str(FIXTURES / "e2e" / "aaa.txt"),
                "--target", str(FIXTURES / "e2e" / "lrx.txt"),
                "--output", str(model_path),
                "--stats-output", str(stats_path),
            ]
        ) == 0
        assert stats_path.read_bytes() == (FIXTURES / "e2e_align_stats.tsv").read_bytes()
        assert file_sha256(model_path) == E2E_ALIGN_MODEL_SHA256


class TestRank:
    def test_writes_ranking_and_skips(self, tmp_path, small_corpus_dir):
        ranking_path = tmp_path / "ranking.tsv"
        skips_path = tmp_path / "skips.tsv"
        code = main(
            [
                "rank",
                "--target", str(small_corpus_dir / "tt.txt"),
                "--candidates", str(small_corpus_dir),
                "--metric", "famd",
                "--output", str(ranking_path),
                "--skip-report", str(skips_path),
            ]
        )
        assert code == 0
        rows = [row.split("\t") for row in ranking_path.read_text().splitlines()]
        assert len(rows) == 2
        assert rows[0][0] == "1"
        assert {row[1] for row in rows} == {"aa", "bb"}
        assert all(row[2] == "FAMD" for row in rows)

    @pytest.mark.parametrize("metric", ["famd", "famp"])
    def test_fixture_ranking_is_byte_identical_to_the_golden_copy(self, tmp_path, metric):
        # scores are written with repr, so any drift in the EM floats shows here
        ranking_path = tmp_path / "ranking.tsv"
        assert main(
            [
                "rank",
                "--target", str(FIXTURES / "e2e" / "lrx.txt"),
                "--candidates", str(FIXTURES / "e2e"),
                "--metric", metric,
                "--output", str(ranking_path),
            ]
        ) == 0
        golden = FIXTURES / f"e2e_ranking_{metric}.tsv"
        assert ranking_path.read_bytes() == golden.read_bytes()

    def test_negative_min_lines_exits_one_before_reading(self, tmp_path, small_corpus_dir, caplog):
        ranking_path = tmp_path / "ranking.tsv"
        assert main(
            [
                "rank",
                "--target", str(small_corpus_dir / "tt.txt"),
                "--candidates", str(small_corpus_dir),
                "--metric", "famd",
                "--output", str(ranking_path),
                "--min-lines", "-5",
            ]
        ) == 1
        assert "--min-lines must be >= 0, got -5" in caplog.text
        assert not ranking_path.exists()

    def test_iterations_below_one_exit_one_before_reading(
        self, tmp_path, small_corpus_dir, monkeypatch, caplog
    ):
        # with --min-lines 100 every candidate is skipped, so no EM step sees the 0
        loads = []
        monkeypatch.setattr(lowresmt.cli, "load_text", lambda *args: loads.append(args))
        ranking_path = tmp_path / "ranking.tsv"
        assert main(
            [
                "rank",
                "--target", str(small_corpus_dir / "tt.txt"),
                "--candidates", str(small_corpus_dir),
                "--metric", "famd",
                "--output", str(ranking_path),
                "--iterations", "0",
                "--min-lines", "100",
            ]
        ) == 1
        assert "--iterations must be >= 1, got 0" in caplog.text
        assert loads == []
        assert not ranking_path.exists()


class TestTagDetag:
    def test_file_round_trip(self, tmp_path, caplog):
        lexicon = write(
            tmp_path / "lex.tsv", "e1\ten\tYi\ne1\tde\tJi\ne2\ten\tWati\ne2\tde\tVati\n"
        )
        corpus = write(tmp_path / "in.txt", "L1\tYi calls Wati\nL2\tnothing here\n")
        tagged = tmp_path / "tagged.txt"
        dicts = tmp_path / "dicts.tsv"
        assert main(
            [
                "tag",
                "--input", str(corpus),
                "--language", "en",
                "--lexicon", str(lexicon),
                "--output", str(tagged),
                "--dicts", str(dicts),
            ]
        ) == 0
        assert load_text(tagged, "en").lines["L1"] == ("__NE0", "calls", "__NE1")

        detagged = tmp_path / "out.txt"
        report = tmp_path / "report.tsv"
        assert main(
            [
                "detag",
                "--input", str(tagged),
                "--dicts", str(dicts),
                "--language", "de",
                "--lexicon", str(lexicon),
                "--output", str(detagged),
                "--report", str(report),
            ]
        ) == 0
        assert load_text(detagged, "de").lines["L1"] == ("Ji", "calls", "Vati")
        # both languages are in the lexicon, so neither command warns
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_byte_order_mark_in_dicts_keeps_first_line(self, tmp_path):
        lexicon = write(tmp_path / "lex.tsv", "e1\ten\tYi\ne1\tde\tJi\n")
        tagged = write(tmp_path / "tagged.txt", "V0\t__NE0 sings\nV1\t__NE0 too\n")
        dicts = tmp_path / "dicts.tsv"
        dicts.write_bytes("\ufeffV0\t__NE0\te1\tYi\nV1\t__NE0\te1\tYi\n".encode("utf-8"))
        detagged = tmp_path / "out.txt"
        report = tmp_path / "report.tsv"
        assert main(
            [
                "detag",
                "--input", str(tagged),
                "--dicts", str(dicts),
                "--language", "de",
                "--lexicon", str(lexicon),
                "--output", str(detagged),
                "--report", str(report),
            ]
        ) == 0
        assert load_text(detagged, "de").lines == {"V0": ("Ji", "sings"), "V1": ("Ji", "too")}
        assert report.read_text(encoding="utf-8") == ""

    def test_a_placeholder_listed_twice_for_a_line_fails(self, tmp_path, caplog):
        lexicon = write(tmp_path / "lex.tsv", "e1\ten\tAlpha\ne2\ten\tBeta\n")
        model_output = write(tmp_path / "model.txt", "V1\t__NE0 ruft\n")
        dicts = write(tmp_path / "dicts.tsv", "V1\t__NE0\te1\tAlpha\nV1\t__NE0\te2\tBeta\n")
        decoded = tmp_path / "en.txt"
        assert main(
            [
                "detag",
                "--input", str(model_output),
                "--dicts", str(dicts),
                "--language", "en",
                "--lexicon", str(lexicon),
                "--output", str(decoded),
            ]
        ) == 1
        assert f"{dicts}:2: placeholder '__NE0' of line 'V1' is listed twice" in caplog.text
        assert not decoded.exists()

    def test_line_left_empty_by_detag_reaches_combine_and_score(self, tmp_path):
        lexicon = write(tmp_path / "lex.tsv", "e1\ten\tYi\ne1\tde\tJi\n")
        model_output = write(tmp_path / "model.txt", "V1\t__NE0 ruft\nV2\t__NE5\n")
        dicts = write(tmp_path / "dicts.tsv", "V1\t__NE0\te1\tYi\n")
        decoded = tmp_path / "de.txt"
        assert main(
            [
                "detag",
                "--input", str(model_output),
                "--dicts", str(dicts),
                "--language", "de",
                "--lexicon", str(lexicon),
                "--output", str(decoded),
            ]
        ) == 0
        assert decoded.read_text(encoding="utf-8") == "V1\tJi ruft\nV2\t\n"
        other = write(tmp_path / "fr.txt", "V1\tJi appelle\nV2\tJi\n")
        combined = tmp_path / "combined.txt"
        assert main(
            ["combine", "--inputs", str(decoded), str(other), "--output", str(combined)]
        ) == 0
        assert load_text(combined, "x").lines == {"V1": ("Ji", "ruft"), "V2": ()}
        scores = tmp_path / "bleu.tsv"
        assert main(
            [
                "score",
                "--hypotheses", str(combined),
                "--references", str(decoded),
                "--output", str(scores),
            ]
        ) == 0
        assert scores.read_text(encoding="utf-8").splitlines()[1].startswith("1.000000\t")

    def test_fixture_tagging_is_byte_identical_to_the_golden_copy(self, tmp_path):
        tagged, dicts = tag_fixture_lrx(tmp_path, FIXTURES / "e2e" / "lexicon.tsv")
        assert tagged == (FIXTURES / "e2e_tag_lrx.txt").read_bytes()
        assert dicts == (FIXTURES / "e2e_tag_lrx_dicts.tsv").read_bytes()

    def test_fixture_fuzzy_tagging_is_byte_identical_to_the_golden_copy(self, tmp_path):
        # each lrx form of this lexicon is one or two edits from its surface in
        # the text (one in lower case), so every mention is a fuzzy match;
        # e019's form is three edits away, so TnusvnqzLrx stays untagged
        tagged, dicts = tag_fixture_lrx(tmp_path, FIXTURES / "e2e_lexicon_variants.tsv")
        assert tagged == (FIXTURES / "e2e_tag_lrx_variants.txt").read_bytes()
        assert dicts == (FIXTURES / "e2e_tag_lrx_variants_dicts.tsv").read_bytes()
        assert b"TnusvnqzLrx" in tagged and b"e019" not in dicts

    def test_tag_logs_mentions_and_dictionary_rows_apart(self, tmp_path, caplog):
        caplog.set_level(logging.INFO)
        tag_fixture_lrx(tmp_path, FIXTURES / "e2e_lexicon_variants.tsv")
        assert "tagged 60 lines: 48 entity mentions, 48 dictionary rows" in caplog.text
        # a line mentioning one entity twice holds one dictionary row for both
        lexicon = write(tmp_path / "lex.tsv", "e1\ten\tYi\n")
        corpus = write(tmp_path / "in.txt", "L1\tYi calls Yi again\n")
        assert main([
            "tag", "--input", str(corpus), "--language", "en", "--lexicon", str(lexicon),
            "--output", str(tmp_path / "tagged.txt"),
        ]) == 0
        assert "tagged 1 lines: 2 entity mentions, 1 dictionary rows" in caplog.text

    def test_tag_warns_once_for_a_language_the_lexicon_lacks(self, tmp_path, caplog):
        lexicon = write(tmp_path / "lex.tsv", "e1\ten\tYi\ne1\tde\tJi\n")
        corpus = write(tmp_path / "in.txt", "L1\tYi calls Ji\nL2\tJi again\n")
        tagged = tmp_path / "tagged.txt"
        dicts = tmp_path / "dicts.tsv"
        assert main(
            [
                "tag",
                "--input", str(corpus),
                "--language", "zzz",
                "--lexicon", str(lexicon),
                "--output", str(tagged),
                "--dicts", str(dicts),
            ]
        ) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "'zzz'" in warnings[0]
        assert tagged.read_bytes() == corpus.read_bytes()
        assert dicts.read_text(encoding="utf-8") == ""

    def test_detag_warns_once_for_a_language_the_lexicon_lacks(self, tmp_path, caplog):
        lexicon = write(tmp_path / "lex.tsv", "e1\ten\tYi\ne1\tde\tJi\n")
        model_output = write(tmp_path / "model.txt", "V1\t__NE0 ruft\nV2\t__NE0 __NE0\n")
        dicts = write(tmp_path / "dicts.tsv", "V1\t__NE0\te1\tYi\nV2\t__NE0\te1\tYi\n")
        decoded = tmp_path / "zzz.txt"
        assert main(
            [
                "detag",
                "--input", str(model_output),
                "--dicts", str(dicts),
                "--language", "zzz",
                "--lexicon", str(lexicon),
                "--output", str(decoded),
            ]
        ) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "'zzz'" in warnings[0]
        assert decoded.read_text(encoding="utf-8") == "V1\tYi ruft\nV2\tYi Yi\n"

    def test_negative_edit_threshold_exits_one_before_reading(self, tmp_path, caplog):
        absent = tmp_path / "absent"
        tagged = tmp_path / "tagged.txt"
        assert main(
            [
                "tag",
                "--input", str(absent / "in.txt"),
                "--language", "en",
                "--lexicon", str(absent / "lex.tsv"),
                "--output", str(tagged),
                "--edit-threshold", "-1",
            ]
        ) == 1
        assert "--edit-threshold must be >= 0, got -1" in caplog.text
        assert list(tmp_path.iterdir()) == []


class TestCombine:
    def test_merges_files(self, tmp_path):
        a = write(tmp_path / "aa.txt", "1\tx y z\n")
        b = write(tmp_path / "bb.txt", "1\tx y z\n")
        c = write(tmp_path / "cc.txt", "1\tp q\n")
        out = tmp_path / "combined.txt"
        report = tmp_path / "report.tsv"
        assert main(
            [
                "combine",
                "--inputs", str(a), str(b), str(c),
                "--output", str(out),
                "--report", str(report),
            ]
        ) == 0
        assert out.read_text() == "1\tx y z\n"
        assert report.read_text().split("\t")[1] == "aa"

    def test_repeated_file_stem_exits_one_and_writes_nothing(self, tmp_path, caplog):
        inputs = []
        for folder, text in (("a", "x y"), ("b", "p q")):
            (tmp_path / folder).mkdir()
            inputs.append(str(write(tmp_path / folder / "hyp.txt", f"1\t{text}\n")))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(
            [
                "combine",
                "--inputs", *inputs,
                "--output", str(out_dir / "combined.txt"),
                "--report", str(out_dir / "choices.tsv"),
            ]
        ) == 1
        assert "language 'hyp' is given twice" in caplog.text
        assert list(out_dir.iterdir()) == []

    def test_ragged_inputs_name_language_and_id(self, tmp_path, caplog):
        a = write(tmp_path / "aa.txt", "1\tx\n2\ty\n")
        b = write(tmp_path / "bb.txt", "2\ty\n")
        out = tmp_path / "combined.txt"
        assert main(["combine", "--inputs", str(a), str(b), "--output", str(out)]) == 1
        assert "'bb' is missing line id '1'" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("summed", ["builtin", "compensated"])
    def test_fixture_combine_and_score_are_byte_identical_to_the_golden_copies(
        self, tmp_path, monkeypatch, summed
    ):
        # centralities are written with repr; the fixture's members share no token,
        # so this pins the tie-break and both file formats, and combine_golden.tsv
        # pins non-zero centralities.  Python 3.12 made the builtin sum of floats
        # compensated, which must change no byte.
        if summed == "compensated":
            for module in (bleu, combine):
                monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
        out = tmp_path / "combined.txt"
        report = tmp_path / "choices.tsv"
        score = tmp_path / "score.tsv"
        inputs = [str(FIXTURES / "e2e" / f"{lang}.txt") for lang in ("aaa", "bbb", "ccc")]
        assert main(
            ["combine", "--inputs", *inputs, "--output", str(out), "--report", str(report)]
        ) == 0
        reference = str(FIXTURES / "e2e" / "aaa.txt")
        assert main(
            ["score", "--hypotheses", str(out), "--references", reference, "--output", str(score)]
        ) == 0
        assert out.read_bytes() == (FIXTURES / "e2e_combined.txt").read_bytes()
        assert report.read_bytes() == (FIXTURES / "e2e_combine_report.tsv").read_bytes()
        assert score.read_bytes() == (FIXTURES / "e2e_combined_score.tsv").read_bytes()


def pipeline_config(corpus_dir, out_dir, family):
    return {
        "target": "tt",
        "corpus_dir": str(corpus_dir),
        "out_dir": str(out_dir),
        "family": family,
        "k": 2,
        "min_shared_lines": 10,
        "iterations": 4,
        "stage1_ratios": [["train", 0.8], ["val", 0.1], ["test", 0.1]],
        "stage2_ratios": [["train", 0.9], ["val", 0.1]],
    }


class TestPipelineAndGen:
    def test_pipeline_end_to_end(self, tmp_path, small_corpus_dir):
        config_path = tmp_path / "config.json"
        out_dir = tmp_path / "out"
        write(config_path, json.dumps(pipeline_config(small_corpus_dir, out_dir, "famp")))
        assert main(["pipeline", "--config", str(config_path)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["target"] == "tt"
        assert len(manifest["family"]) == 2
        assert (out_dir / "ranking.tsv").exists()
        assert (out_dir / "vocab.txt").exists()
        for stage in ("stage1", "stage2", "stage3"):
            assert manifest["stages"][stage]["splits"]["train"]["examples"] > 0

    def test_pipeline_is_deterministic(self, tmp_path, small_corpus_dir):
        config_path = tmp_path / "config.json"
        write(
            config_path,
            json.dumps(pipeline_config(small_corpus_dir, tmp_path / "unused", "famd")),
        )
        for run in ("a", "b"):
            assert main(
                ["pipeline", "--config", str(config_path), "--out-dir", str(tmp_path / run)]
            ) == 0
        manifest_a = (tmp_path / "a" / "manifest.json").read_bytes()
        manifest_b = (tmp_path / "b" / "manifest.json").read_bytes()
        assert manifest_a == manifest_b
        assert file_sha256(tmp_path / "a" / "stage1" / "train.src") == file_sha256(
            tmp_path / "b" / "stage1" / "train.src"
        )

    @pytest.mark.parametrize("stage", ["1", "2", "3"])
    def test_single_stage_of_a_metric_family_ranks_and_writes_the_full_vocab(
        self, tmp_path, small_corpus_dir, stage
    ):
        config = pipeline_config(small_corpus_dir, tmp_path / "unused", "famd")
        config_path = write(tmp_path / "config.json", json.dumps(config))
        for run, flag in (("full", "all"), ("one", stage)):
            assert main(
                ["pipeline", "--config", str(config_path), "--stage", flag,
                 "--out-dir", str(tmp_path / run)]
            ) == 0
        full, one = tmp_path / "full", tmp_path / "one"
        assert (one / "ranking.tsv").read_bytes() == (full / "ranking.tsv").read_bytes()
        assert (one / "vocab.txt").read_bytes() == (full / "vocab.txt").read_bytes()
        written = sorted(path.name for path in one.iterdir() if path.name.startswith("stage"))
        assert written == [f"stage{stage}"]
        for path in (one / f"stage{stage}").iterdir():
            assert path.read_bytes() == (full / f"stage{stage}" / path.name).read_bytes()

    def test_gen_single_stage(self, tmp_path, small_corpus_dir):
        config_path = tmp_path / "config.json"
        out_dir = tmp_path / "out"
        write(
            config_path,
            json.dumps(pipeline_config(small_corpus_dir, out_dir, ["aa", "bb"])),
        )
        assert main(["pipeline", "--config", str(config_path), "--stage", "3"]) == 0
        assert (out_dir / "stage3" / "train.src").exists()
        assert not (out_dir / "stage1").exists()

    @pytest.mark.parametrize("stage", ["1", "2", "3"])
    def test_gen_single_stage_writes_the_full_vocab(self, tmp_path, small_corpus_dir, stage):
        # e2 has a target form only, so stages 2 and 3 write its surface
        lexicon = write(
            tmp_path / "lex.tsv", "e1\taa\taa5\ne1\tbb\tbb5\ne1\ttt\ttt5\ne2\ttt\ttt7\n"
        )
        config = pipeline_config(small_corpus_dir, tmp_path / "unused", ["aa", "bb"])
        config.update(lexicon=str(lexicon), edit_threshold=0)
        config_path = write(tmp_path / "config.json", json.dumps(config))
        for run, flag in (("full", "all"), ("one", stage)):
            assert main(
                ["pipeline", "--config", str(config_path), "--stage", flag,
                 "--out-dir", str(tmp_path / run)]
            ) == 0
        vocab = (tmp_path / "full" / "vocab.txt").read_text()
        assert (tmp_path / "one" / "vocab.txt").read_text() == vocab
        assert "tt7" in vocab.splitlines()

    def test_unknown_config_key_fails_fast(self, tmp_path, small_corpus_dir):
        config = pipeline_config(small_corpus_dir, tmp_path / "out", "famd")
        config["typo_key"] = True
        config_path = write(tmp_path / "config.json", json.dumps(config))
        assert main(["pipeline", "--config", str(config_path)]) == 1


    @pytest.mark.parametrize("family, k", [("famp", 1), (["aa"], 2)])
    def test_stage1_family_below_two_fails_before_any_work(
        self, tmp_path, small_corpus_dir, caplog, family, k
    ):
        out_dir = tmp_path / "out"
        config = pipeline_config(small_corpus_dir, out_dir, family)
        config["k"] = k
        config_path = write(tmp_path / "config.json", json.dumps(config))
        assert main(["pipeline", "--config", str(config_path)]) == 1
        assert "stage 1 needs a family of at least two languages" in caplog.text
        assert not (out_dir / "ranking.tsv").exists()
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "family, problem",
        [
            ([], "must name at least one language"),
            (["aa", "aa"], "lists a language twice"),
            (["aa", "tt"], "must not contain the target"),
        ],
    )
    def test_explicit_family_checked_before_any_work(
        self, tmp_path, small_corpus_dir, caplog, family, problem
    ):
        out_dir = tmp_path / "out"
        config_path = write(
            tmp_path / "config.json", json.dumps(pipeline_config(small_corpus_dir, out_dir, family))
        )
        assert main(["pipeline", "--config", str(config_path), "--stage", "2"]) == 1
        assert problem in caplog.text
        assert not out_dir.exists()

    @pytest.mark.parametrize("stage", ["2", "3"])
    def test_gen_later_stage_with_one_member(self, tmp_path, small_corpus_dir, stage):
        out_dir = tmp_path / "out"
        config_path = write(
            tmp_path / "config.json", json.dumps(pipeline_config(small_corpus_dir, out_dir, ["aa"]))
        )
        assert main(["pipeline", "--config", str(config_path), "--stage", stage]) == 0
        assert (out_dir / f"stage{stage}" / "train.src").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lexicon", 5),
            ("corpus_dir", ["x"]),
            ("out_dir", 3),
            ("stage1_ratios", 5),
            ("stage2_ratios", [["train", "0.9"], ["val", 0.1]]),
            ("seed", None),
            ("k", 2.7),
            ("k", True),
            ("iterations", "4"),
            ("family", 5),
            ("family", ["aa", 2]),
            ("target", 7),
        ],
    )
    def test_wrong_config_value_type_names_file_and_key(
        self, tmp_path, small_corpus_dir, caplog, key, value
    ):
        out_dir = tmp_path / "out"
        config = pipeline_config(small_corpus_dir, out_dir, "famp")
        config[key] = value
        config_path = write(tmp_path / "config.json", json.dumps(config))
        assert main(["pipeline", "--config", str(config_path)]) == 1
        assert str(config_path) in caplog.text
        assert f"config key {key!r} must be" in caplog.text
        assert not out_dir.exists()


class TestVerify:
    @pytest.fixture
    def out_dir(self, tmp_path, small_corpus_dir):
        config = pipeline_config(small_corpus_dir, tmp_path / "out", ["aa", "bb"])
        config_path = write(tmp_path / "c.json", json.dumps(config))
        assert main(["pipeline", "--config", str(config_path)]) == 0
        return tmp_path / "out"

    def test_finished_run_passes(self, out_dir):
        assert main(["verify", str(out_dir)]) == 0

    def test_truncated_split_fails_naming_it(self, out_dir, caplog):
        path = out_dir / "stage1" / "train.src"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        lines = path.read_bytes().count(b"\n")
        assert main(["verify", str(out_dir)]) == 1
        assert f"{path}: sha256 differs" in caplog.text
        assert f"{path}: {lines} lines" in caplog.text

    def test_deleted_vocab_fails_naming_it(self, out_dir, caplog):
        (out_dir / "vocab.txt").unlink()
        assert main(["verify", str(out_dir)]) == 1
        assert f"{out_dir / 'vocab.txt'}: missing" in caplog.text

    def test_example_count_is_checked_against_the_lines(self, out_dir, caplog):
        manifest_path = out_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["stages"]["stage3"]["splits"]["val"]["examples"] += 1
        manifest_path.write_text(json.dumps(manifest))
        assert main(["verify", str(out_dir)]) == 1
        assert f"{out_dir / 'stage3' / 'val.src'}: " in caplog.text
        assert "sha256" not in caplog.text

    @pytest.mark.parametrize("content", [None, "{", '{"vocab": {}}'])
    def test_missing_or_malformed_manifest_fails(self, out_dir, caplog, content):
        manifest_path = out_dir / "manifest.json"
        if content is None:
            manifest_path.unlink()
        else:
            manifest_path.write_text(content)
        assert main(["verify", str(out_dir)]) == 1
        assert str(manifest_path) in caplog.text


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["score", "--nope"])
        assert excinfo.value.code == 2

    def test_environment_variables_set_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOWRESMT_WORKERS", "abc")
        monkeypatch.setenv("LOWRESMT_LOG_LEVEL", "bogus")
        hyp = write(tmp_path / "hyp.txt", "a b\n")
        out = tmp_path / "score.tsv"
        assert main(
            ["score", "--hypotheses", str(hyp), "--references", str(hyp), "--output", str(out)]
        ) == 0
        assert out.read_text().splitlines()[1].split("\t")[0] == "1.000000"

    # the ids are those the cases had when an environment variable could set each value
    @pytest.mark.parametrize("flag", [["--log-level", "bogus"]], ids=["flag0-None"])
    def test_unknown_log_level_exits_one(self, tmp_path, caplog, flag):
        hyp = write(tmp_path / "hyp.txt", "a b\n")
        out = tmp_path / "score.tsv"
        argv = [*flag, "score", "--hypotheses", str(hyp), "--references", str(hyp),
                "--output", str(out)]
        assert main(argv) == 1
        assert "unknown log level" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rank", "pipeline"])
    @pytest.mark.parametrize("flag", [["--workers", "0"]], ids=["flag0-None"])
    def test_workers_below_one_exit_one(self, tmp_path, small_corpus_dir, caplog, command, flag):
        out = tmp_path / "out"
        if command == "rank":
            argv = ["rank", "--target", str(small_corpus_dir / "tt.txt"),
                    "--candidates", str(small_corpus_dir), "--metric", "famd",
                    "--output", str(out)]
        else:
            config = pipeline_config(small_corpus_dir, out, "famd")
            argv = ["pipeline", "--config", str(write(tmp_path / "c.json", json.dumps(config)))]
        assert main(argv + flag) == 1
        assert "workers must be >= 1" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, problem",
        [
            ("align", ["--iterations", "0"], "--iterations must be >= 1, got 0"),
            ("align", ["--p-null", "1.5"], "--p-null must lie strictly between 0 and 1, got 1.5"),
            ("rank", ["--workers", "0"], "--workers must be >= 1, got 0"),
        ],
        ids=["align --iterations", "align --p-null", "rank --workers"],
    )
    def test_a_flag_out_of_range_exits_one_before_reading(
        self, tmp_path, caplog, command, flag, problem
    ):
        missing = str(tmp_path / "missing.txt")
        if command == "align":
            argv = ["align", "--source", missing, "--target", missing]
        else:
            argv = ["rank", "--target", missing, "--candidates", str(tmp_path), "--metric", "famd"]
        assert main([*argv, "--output", str(tmp_path / "out.tsv"), *flag]) == 1
        assert problem in caplog.text
        assert not (tmp_path / "out.tsv").exists()

    def test_missing_file_exits_one(self, tmp_path):
        assert main(
            [
                "score",
                "--hypotheses", str(tmp_path / "missing.txt"),
                "--references", str(tmp_path / "missing.txt"),
            ]
        ) == 1
