import json
import random
import shutil
import tempfile
import weakref
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowresmt.datagen
import lowresmt.lexicon
import lowresmt.pipeline
from helpers import make_entity_table, make_filler_words
from lowresmt.cli import main
from lowresmt.corpus import ParallelText, load_text, save_text
from lowresmt.pipeline import _CONFIG_TYPES, PipelineConfig, run_pipeline

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "e2e"
FAMILY = ("fa", "fb", "fc")
TARGET = "low"


def write_lexicon(table, path):
    rows = [
        f"{entity_id}\t{lang}\t{'||'.join(forms)}\n"
        for entity_id, by_lang in sorted(table.entities.items())
        for lang, forms in sorted(by_lang.items())
    ]
    path.write_text("".join(rows), encoding="utf-8")


def entity_corpus(root, seed):
    """Family and target corpora whose lines mention entities independently.

    Each language draws its own entities per line, so many mentions have
    no counterpart on the other side of a pair; some lexicon entries lack
    a language, family texts are ragged, and a few surfaces carry a typo
    that only the fuzzy matcher finds.
    """
    rng = random.Random(seed)
    languages = [*FAMILY, TARGET]
    table = make_entity_table(6, languages, rng)
    for by_lang in table.entities.values():
        if rng.random() < 0.3:
            del by_lang[rng.choice(languages)]
    filler = make_filler_words(12, rng)
    ids = [f"L{i:02d}" for i in range(rng.randint(6, 12))]
    low_ids = ids[: rng.randint(4, len(ids))]
    corpus_dir = root / "corpus"
    corpus_dir.mkdir()
    for lang in languages:
        lines = {}
        for lid in low_ids if lang == TARGET else ids:
            if lang != TARGET and lid not in low_ids and rng.random() < 0.2:
                continue
            tokens = rng.sample(filler, rng.randint(2, 5))
            for entity_id in rng.sample(sorted(table.entities), rng.randint(0, 3)):
                forms = table.forms(entity_id, lang)
                if forms:
                    surface = forms[0]
                    if rng.random() < 0.2:
                        surface = surface[:-1] + "z"
                    tokens.insert(rng.randint(0, len(tokens)), surface)
            lines[lid] = tuple(tokens)
        save_text(ParallelText(lang, lines), corpus_dir / f"{lang}.txt")
    write_lexicon(table, root / "lexicon.tsv")
    return PipelineConfig(
        target=TARGET,
        corpus_dir=corpus_dir,
        out_dir=root / "out",
        family=FAMILY,
        lexicon=root / "lexicon.tsv",
        seed=seed,
        stage1_ratios=(("train", 0.5), ("val", 0.5)),
        stage2_ratios=(("train", 0.5), ("val", 0.5)),
        max_ne=0,
    )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, derandomize=True, deadline=None)
def test_every_emitted_token_is_in_vocab(seed):
    with tempfile.TemporaryDirectory() as tmp:
        config = entity_corpus(Path(tmp), seed)
        run_pipeline(config)
        vocab = set(
            (config.out_dir / "vocab.txt").read_text(encoding="utf-8").splitlines()
        )
        for path in sorted(config.out_dir.glob("stage*/*.*")):
            for line in path.read_text(encoding="utf-8").splitlines():
                missing = [token for token in line.split() if token not in vocab]
                assert not missing, f"{path.name}: {missing}"


def test_one_mention_search_per_language_line(monkeypatch, tmp_path):
    calls: Counter = Counter()
    find_mentions = lowresmt.lexicon.find_mentions

    def counting(tokens, language, *args, **kwargs):
        calls[language] += 1
        return find_mentions(tokens, language, *args, **kwargs)

    monkeypatch.setattr(lowresmt.datagen, "find_mentions", counting)
    monkeypatch.setattr(lowresmt.lexicon, "find_mentions", counting)
    config = PipelineConfig.from_file(FIXTURE_DIR / "config.json", out_dir=tmp_path)
    manifest = run_pipeline(config)
    expected = {
        lang: len(load_text(config.corpus_dir / f"{lang}.txt", lang))
        for lang in [*manifest["family"], config.target]
    }
    assert dict(calls) == expected


def test_lexicon_table_is_freed_once_mentions_are_found(monkeypatch, tmp_path):
    tables = []
    load_lexicon = lowresmt.pipeline.load_lexicon
    build_shared_vocab = lowresmt.pipeline.build_shared_vocab

    def loading(path):
        table = load_lexicon(path)
        tables.append(weakref.ref(table))
        return table

    def building(*args, **kwargs):
        assert [ref for ref in tables if ref() is not None] == []
        return build_shared_vocab(*args, **kwargs)

    monkeypatch.setattr(lowresmt.pipeline, "load_lexicon", loading)
    monkeypatch.setattr(lowresmt.pipeline, "build_shared_vocab", building)
    manifest = run_pipeline(entity_corpus(tmp_path, 3))
    assert len(tables) == 1
    assert manifest["stages"]


def test_failed_rerun_leaves_no_manifest(tmp_path):
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(FIXTURE_DIR, corpus_dir)
    out_dir = tmp_path / "out"
    command = ["pipeline", "--config", str(corpus_dir / "config.json"), "--out-dir", str(out_dir)]
    assert main(command) == 0
    assert (out_dir / "manifest.json").exists()
    first_run = sorted((out_dir / "stage2").iterdir()) + sorted((out_dir / "stage3").iterdir())
    assert first_run
    # a target line no family member has: stage 1 is rewritten, stage 2 fails
    with (corpus_dir / "lrx.txt").open("a", encoding="utf-8") as handle:
        handle.write("V999\tonly.lrx has.lrx this.lrx line.lrx\n")
    assert main(command) == 1
    assert not (out_dir / "manifest.json").exists()
    assert [path for path in first_run if path.exists()] == []


def test_crash_midway_through_stage1_leaves_no_partial_file(monkeypatch, tmp_path):
    pair_templates = lowresmt.datagen.pair_templates
    calls = 0
    pending_bytes = []

    # the fixture family has four members: the stage-1 train split writes 12
    # pairs, one call each, so the 9th call falls after 8 pairs reached the files
    def crashing(*args):
        nonlocal calls
        calls += 1
        if calls == 9:
            pending_bytes.append(sum(path.stat().st_size for path in tmp_path.rglob("*.tmp")))
            raise RuntimeError("killed halfway")
        return pair_templates(*args)

    monkeypatch.setattr(lowresmt.datagen, "pair_templates", crashing)
    config = PipelineConfig.from_file(FIXTURE_DIR / "config.json", out_dir=tmp_path)
    with pytest.raises(RuntimeError, match="halfway"):
        run_pipeline(config)
    assert pending_bytes[0] > 0  # the split's temp files held part of it on disk
    assert list(tmp_path.glob("stage1/*.src")) + list(tmp_path.glob("stage1/*.tgt")) == []
    assert list(tmp_path.rglob("*.tmp")) == []
    assert not (tmp_path / "manifest.json").exists()


def test_config_with_byte_order_mark_loads(tmp_path):
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(FIXTURE_DIR, corpus_dir)
    path = corpus_dir / "config.json"
    path.write_bytes("\ufeff".encode("utf-8") + path.read_bytes())
    assert PipelineConfig.from_file(path).target == "lrx"


def test_every_config_field_has_a_type_check():
    assert set(_CONFIG_TYPES) == {field.name for field in fields(PipelineConfig)}


def fixture_copy(tmp_path, **changes):
    """The bundled fixture copied to tmp_path/corpus, its config.json updated with ``changes``."""
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(FIXTURE_DIR, corpus_dir)
    config_path = corpus_dir / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config.update(changes)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return corpus_dir


def run_cli(command, corpus_dir, out_dir, *flags):
    return main([command, "--config", str(corpus_dir / "config.json"), "--out-dir", str(out_dir),
                 *flags])


MALFORMED_CORPUS = "V001\tone line\nV001\tthe same id again\n"


def test_a_run_removes_every_output_of_an_earlier_run(tmp_path):
    out_dir = tmp_path / "out"
    assert run_cli("pipeline", fixture_copy(tmp_path / "ranked"), out_dir) == 0
    assert (out_dir / "stage1").is_dir() and (out_dir / "ranking.tsv").is_file()
    corpus_dir = fixture_copy(tmp_path / "listed", family=["aaa", "bbb", "ccc"])
    assert run_cli("gen", corpus_dir, out_dir, "--stage", "2") == 0
    assert sorted(path.name for path in out_dir.iterdir()) == [
        "family.txt", "manifest.json", "stage2", "vocab.txt"
    ]
    assert (out_dir / "family.txt").read_text(encoding="utf-8") == "aaa\nbbb\nccc\n"
    assert main(["verify", str(out_dir)]) == 0


def test_explicit_family_reads_no_unrelated_corpus(tmp_path):
    golden = json.loads((FIXTURE_DIR / "golden_manifest.json").read_text(encoding="utf-8"))
    corpus_dir = fixture_copy(tmp_path, family=golden["family"])
    (corpus_dir / "zzz.txt").write_text(MALFORMED_CORPUS, encoding="utf-8")
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest == {**golden, "provenance": "FAMO+"}


def test_spelling_variant_is_tagged_through_the_fuzzy_fallback(monkeypatch, tmp_path):
    # UpzvonAaa is one edit from entity e008's form UpnvonAaa and matches no form exactly;
    # tagged as e008, it leaves every template, the vocab and so the manifest unchanged
    golden = json.loads((FIXTURE_DIR / "golden_manifest.json").read_text(encoding="utf-8"))
    corpus_dir = fixture_copy(tmp_path, family=["aaa", "bbb", "ccc", "ddd"])
    aaa = corpus_dir / "aaa.txt"
    first, rest = aaa.read_text(encoding="utf-8").split("\n", 1)
    assert first.startswith("V000\t") and first.count(" UpnvonAaa ") == 1
    aaa.write_text(first.replace(" UpnvonAaa ", " UpzvonAaa ") + "\n" + rest, encoding="utf-8")
    levenshtein = lowresmt.lexicon.levenshtein
    distances = []

    def recording(*args, **kwargs):
        distances.append(levenshtein(*args, **kwargs))
        return distances[-1]

    monkeypatch.setattr(lowresmt.lexicon, "levenshtein", recording)
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest == {**golden, "provenance": "FAMO+"}
    assert 1 in distances


def test_stage2_names_a_family_member_lacking_a_target_line(tmp_path, caplog):
    corpus_dir = fixture_copy(tmp_path, family=["aaa", "bbb", "ccc"])
    with (corpus_dir / "lrx.txt").open("a", encoding="utf-8") as handle:
        handle.write("V999\tonly.lrx has.lrx this.lrx line.lrx\n")
    assert run_cli("gen", corpus_dir, tmp_path / "out", "--stage", "2") == 1
    assert "'aaa' lacks 1 line id(s), first: 'V999'" in caplog.text
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("language", ["bbb", "lrx"])
def test_an_empty_corpus_line_fails_naming_language_and_id(tmp_path, caplog, language):
    corpus_dir = fixture_copy(tmp_path, family=["aaa", "bbb", "ccc"])
    path = corpus_dir / f"{language}.txt"
    rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    line_id = rows[1].split("\t")[0]
    rows[1] = f"{line_id}\t\n"
    path.write_text("".join(rows), encoding="utf-8")
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 1
    assert f"{language!r} has an empty line, first: {line_id!r}" in caplog.text
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_malformed_candidate_fails_before_ranking(tmp_path, caplog):
    corpus_dir = fixture_copy(tmp_path)
    (corpus_dir / "zzz.txt").write_text(MALFORMED_CORPUS, encoding="utf-8")
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 1
    assert "duplicate line id" in caplog.text
    assert not (tmp_path / "out" / "ranking.tsv").exists()


@pytest.mark.parametrize(
    "changes, corpus_file",
    [
        ({"family": ["aaa", "b b"]}, "b b.txt"),
        ({"family": "famp"}, "b b.txt"),
        ({"family": ["aaa", "bbb"], "target": "l x"}, "l x.txt"),
        ({"family": ["aaa", ""]}, ".txt"),
    ],
    ids=["family member", "candidate", "target", "empty member"],
)
def test_language_code_with_whitespace_fails_before_any_work(
    tmp_path, caplog, changes, corpus_file
):
    corpus_dir = fixture_copy(tmp_path, **changes)
    shutil.copy(corpus_dir / "bbb.txt", corpus_dir / corpus_file)
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 1
    assert "must be non-empty and hold no whitespace" in caplog.text
    assert not (tmp_path / "out").exists()


def test_split_name_that_is_no_file_name_fails_before_any_work(tmp_path, caplog):
    corpus_dir = fixture_copy(tmp_path, stage1_ratios=[["a/b", 0.2], ["train", 0.8]])
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 1
    assert "'a/b' must be a plain file name" in caplog.text
    assert not (tmp_path / "out").exists()
