import json
import random
import shutil
import tempfile
import weakref
from collections import Counter
from collections.abc import Mapping
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowresmt.datagen
import lowresmt.lexicon
import lowresmt.pipeline
import lowresmt.rank
from helpers import make_entity_table, make_filler_words
from lowresmt.cli import main
from lowresmt.corpus import ParallelText, load_text, save_text
from lowresmt.pipeline import _CONFIG_TYPES, PipelineConfig, run_pipeline

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "e2e"
# ``lowresmt pipeline --stage all`` on the fixture with the golden manifest's family
# and ``"lexicon": null``
NO_LEXICON_GOLDEN = FIXTURE_DIR.parent / "e2e_no_lexicon_manifest.json"
# ``lowresmt pipeline --stage all`` on the fixture with the family aaa-ddd and
# ``"split_mode": "shuffled"``
SHUFFLED_GOLDEN = FIXTURE_DIR.parent / "e2e_shuffled_manifest.json"
# ``lowresmt pipeline --stage all`` on the fixture with the family aaa-ddd and
# ``e2e_lexicon_variants.tsv``, whose forms are all in lrx
VARIANTS_LEXICON = FIXTURE_DIR.parent / "e2e_lexicon_variants.tsv"
VARIANTS_GOLDEN = FIXTURE_DIR.parent / "e2e_variants_manifest.json"
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


def output_files(out_dir):
    return {
        path.relative_to(out_dir).as_posix(): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


@given(seed=st.integers(0, 10_000), max_ne=st.integers(0, 3))
@settings(max_examples=20, derandomize=True, deadline=None)
def test_no_lexicon_writes_what_a_lexicon_matching_nothing_writes(seed, max_ne):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = entity_corpus(root, seed)
        # no corpus token holds a digit, and threshold 0 matches exactly only
        unmatched = root / "unmatched.tsv"
        unmatched.write_text(
            "".join(f"u{i}\t{lang}\tUnmatched{i}||Un matched{i}\n"
                    for i in range(3) for lang in (*FAMILY, TARGET)),
            encoding="utf-8",
        )
        outputs = []
        for name, lexicon in (("none", None), ("unmatched", unmatched)):
            run = replace(
                config, lexicon=lexicon, edit_threshold=0, max_ne=max_ne, out_dir=root / name
            )
            run_pipeline(run)
            outputs.append(output_files(run.out_dir))
        assert outputs[0] == outputs[1]


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


def test_each_language_is_searched_and_rendered_once_per_run(monkeypatch, tmp_path):
    calls: Counter = Counter()
    tag_text = lowresmt.datagen.tag_text

    def counting(text, *args):
        calls[text.language] += 1
        return tag_text(text, *args)

    monkeypatch.setattr(lowresmt.datagen, "tag_text", counting)
    config = PipelineConfig.from_file(FIXTURE_DIR / "config.json", out_dir=tmp_path)
    manifest = run_pipeline(config)
    assert calls == Counter([*manifest["family"], config.target])


def test_emission_is_given_the_tagged_texts_and_no_loaded_text(monkeypatch, tmp_path):
    arguments = []
    emit_stage = lowresmt.pipeline.emit_stage

    def recording(*args, **kwargs):
        arguments.extend([*args, *kwargs.values()])
        return emit_stage(*args, **kwargs)

    monkeypatch.setattr(lowresmt.pipeline, "emit_stage", recording)
    config = PipelineConfig.from_file(FIXTURE_DIR / "config.json", out_dir=tmp_path)
    assert len(run_pipeline(config)["stages"]) == 3
    assert arguments
    for argument in arguments:
        assert not isinstance(argument, ParallelText)
        if isinstance(argument, Mapping):
            assert not any(isinstance(value, ParallelText) for value in argument.values())


def test_two_workers_write_what_one_writes(monkeypatch, tmp_path):
    from concurrent.futures import ProcessPoolExecutor

    pools = []

    class RecordedPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **options):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **options)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordedPool)
    # ranking and tagging both fan out, even on a host with one CPU
    monkeypatch.setattr("lowresmt.datagen.os.cpu_count", lambda: 2)
    outputs = []
    for workers in (1, 2):
        config = PipelineConfig.from_file(
            FIXTURE_DIR / "config.json", out_dir=tmp_path / str(workers), workers=workers
        )
        run_pipeline(config)
        outputs.append(output_files(config.out_dir))
    assert pools == [2, 2]
    assert outputs[0] == outputs[1]


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
    # a target line no family member has: the run fails before writing any stage file
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
# the start of the warning a stage-1 plan logs when a member loses lines
STAGE1_LOSS = "stage 1 keeps the"
# the start of the warning a run logs for languages the lexicon holds no form in
NO_FORMS = "the lexicon holds no form in"


def test_a_run_removes_every_output_of_an_earlier_run(tmp_path, caplog):
    out_dir = tmp_path / "out"
    assert run_cli("pipeline", fixture_copy(tmp_path / "ranked"), out_dir) == 0
    assert STAGE1_LOSS not in caplog.text
    assert NO_FORMS not in caplog.text
    assert (out_dir / "stage1").is_dir() and (out_dir / "ranking.tsv").is_file()
    corpus_dir = fixture_copy(tmp_path / "listed", family=["aaa", "bbb", "ccc"])
    assert run_cli("pipeline", corpus_dir, out_dir, "--stage", "2") == 0
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


def test_a_run_without_a_lexicon_writes_the_golden_manifest(tmp_path, caplog):
    golden = json.loads(NO_LEXICON_GOLDEN.read_text(encoding="utf-8"))
    corpus_dir = fixture_copy(tmp_path, family=golden["family"], lexicon=None)
    assert run_cli("pipeline", corpus_dir, tmp_path / "out", "--stage", "all") == 0
    assert STAGE1_LOSS not in caplog.text
    assert (tmp_path / "out" / "manifest.json").read_bytes() == NO_LEXICON_GOLDEN.read_bytes()
    assert main(["verify", str(tmp_path / "out")]) == 0


def test_a_shuffled_run_writes_the_golden_manifest(tmp_path):
    golden = json.loads(SHUFFLED_GOLDEN.read_text(encoding="utf-8"))
    assert golden["split_mode"] == "shuffled"
    corpus_dir = fixture_copy(tmp_path, family=golden["family"], split_mode="shuffled")
    assert run_cli("pipeline", corpus_dir, tmp_path / "out", "--stage", "all") == 0
    assert (tmp_path / "out" / "manifest.json").read_bytes() == SHUFFLED_GOLDEN.read_bytes()
    assert main(["verify", str(tmp_path / "out")]) == 0


def test_a_run_whose_forms_are_all_in_the_target_writes_the_golden_manifest(tmp_path, caplog):
    # every stage-2/3 target side with a mention is rendered again from lrx's own
    # text, under a source binding that lacks the entity, so it keeps its surfaces
    golden = json.loads(VARIANTS_GOLDEN.read_text(encoding="utf-8"))
    corpus_dir = fixture_copy(tmp_path, family=golden["family"], lexicon=str(VARIANTS_LEXICON))
    out_dir = tmp_path / "out"
    assert run_cli("pipeline", corpus_dir, out_dir) == 0
    assert caplog.text.count(f"{NO_FORMS} language(s) aaa, bbb, ccc, ddd;") == 1
    assert (out_dir / "manifest.json").read_bytes() == VARIANTS_GOLDEN.read_bytes()
    assert main(["verify", str(out_dir)]) == 0
    assert "__NE" in (out_dir / "stage2" / "train.src").read_text(encoding="utf-8")
    assert "__NE" not in (out_dir / "stage2" / "train.tgt").read_text(encoding="utf-8")


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


def test_stage1_warns_of_the_lines_a_ragged_member_costs_the_family(tmp_path, caplog):
    corpus_dir = fixture_copy(tmp_path, family=["aaa", "bbb", "ccc", "ddd"])
    bbb = corpus_dir / "bbb.txt"
    rows = bbb.read_text(encoding="utf-8").splitlines(keepends=True)
    bbb.write_text("".join(row for row in rows if not row.startswith("V100\t")), encoding="utf-8")
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 0
    assert [record.getMessage() for record in caplog.records if record.levelname == "WARNING"] == [
        "stage 1 keeps the 299 line ids the family shares; lines lost: aaa 1, ccc 1, ddd 1"
    ]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    splits = manifest["stages"]["stage1"]["splits"]
    assert [splits[name]["lines"] for name in ("train", "val", "test")] == [239, 29, 31]
    assert main(["verify", str(tmp_path / "out")]) == 0


def test_a_run_warns_of_a_member_the_lexicon_holds_no_form_in(tmp_path, caplog):
    corpus_dir = fixture_copy(tmp_path, family=["aaa", "bbb", "ccc", "ddd"])
    lexicon = corpus_dir / "lexicon.tsv"
    rows = lexicon.read_text(encoding="utf-8").splitlines(keepends=True)
    lexicon.write_text("".join(row for row in rows if row.split("\t")[1] != "bbb"),
                       encoding="utf-8")
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 0
    assert [record.getMessage() for record in caplog.records if record.levelname == "WARNING"] == [
        "the lexicon holds no form in language(s) bbb; their lines are written untagged"
    ]
    assert main(["verify", str(tmp_path / "out")]) == 0


def test_stage2_names_a_family_member_lacking_a_target_line(tmp_path, caplog):
    corpus_dir = fixture_copy(tmp_path, family=["aaa", "bbb", "ccc"])
    with (corpus_dir / "lrx.txt").open("a", encoding="utf-8") as handle:
        handle.write("V999\tonly.lrx has.lrx this.lrx line.lrx\n")
    assert run_cli("pipeline", corpus_dir, tmp_path / "out", "--stage", "2") == 1
    assert "'aaa' lacks 1 line id(s), first: 'V999'" in caplog.text
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_a_member_lacking_a_target_line_fails_before_any_stage_file(tmp_path, caplog):
    corpus_dir = fixture_copy(tmp_path, family=["aaa", "bbb", "ccc", "ddd"])
    assert json.loads((corpus_dir / "config.json").read_text(encoding="utf-8"))["family"] == [
        "aaa", "bbb", "ccc", "ddd"
    ]
    with (corpus_dir / "lrx.txt").open("a", encoding="utf-8") as handle:
        handle.write("V999\tonly.lrx has.lrx this.lrx line.lrx\n")
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 1
    first = (tmp_path / "out" / "family.txt").read_text(encoding="utf-8").split()[0]
    assert f"{first!r} lacks 1 line id(s), first: 'V999'" in caplog.text
    assert not (tmp_path / "out" / "vocab.txt").exists()
    assert not (tmp_path / "out" / "stage1").exists()


def test_an_empty_split_fails_before_vocab_or_any_stage_file(tmp_path, caplog):
    corpus_dir = fixture_copy(
        tmp_path,
        family=["aaa", "bbb", "ccc", "ddd"],
        stage2_ratios=[["train", 0.9], ["val", 0.01], ["test", 0.09]],
    )
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 1
    assert "split 'val' would receive 0 lines" in caplog.text
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["family.txt"]


def built_config(tmp_path, **changes):
    """The fixture's config with an explicit family, built directly: nothing validates it."""
    config = PipelineConfig.from_file(FIXTURE_DIR / "config.json", out_dir=tmp_path / "out")
    return replace(config, **{"family": ("aaa", "bbb", "ccc", "ddd"), **changes})


@pytest.mark.parametrize(
    "changes, stages, problem",
    [
        ({"edit_threshold": -1}, (1, 2, 3), "edit_threshold must be >= 0, got -1"),
        ({"stage2_ratios": (("train", 0.9), ("val", 0.05))}, (1, 2, 3),
         "split fractions sum to 0.95"),
        ({}, (1, 4), "stage must be 1, 2 or 3, got 4"),
        ({"family": ("aaa", "lrx")}, (1, 2, 3), "explicit family must not contain the target"),
    ],
    ids=["negative edit_threshold", "ratios short of 1", "stage 4", "family holding the target"],
)
def test_run_pipeline_checks_a_built_config_and_its_stages_before_any_work(
    tmp_path, changes, stages, problem
):
    with pytest.raises(ValueError, match=problem):
        run_pipeline(built_config(tmp_path, **changes), stages)
    assert not (tmp_path / "out").exists()


def counting_em_calls(monkeypatch):
    """A list that grows by one per ``train_alignment`` call ranking makes."""
    calls = []
    train_alignment = lowresmt.rank.train_alignment

    def training(*args, **kwargs):
        calls.append(args)
        return train_alignment(*args, **kwargs)

    monkeypatch.setattr(lowresmt.rank, "train_alignment", training)
    return calls


def test_a_metric_family_short_of_k_usable_candidates_fails_before_any_em(
    monkeypatch, tmp_path, caplog
):
    corpus_dir = fixture_copy(tmp_path, k=5)
    eee = corpus_dir / "eee.txt"
    eee.write_text("".join(eee.read_text(encoding="utf-8").splitlines(keepends=True)[:10]),
                   encoding="utf-8")
    calls = counting_em_calls(monkeypatch)
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 1
    assert (
        "only 4 of 5 candidates share at least 50 lines with 'lrx', but k=5;"
        " supply an explicit family list instead"
    ) in caplog.text
    assert calls == []
    assert sorted((tmp_path / "out").iterdir()) == []


def test_a_metric_family_short_of_k_candidates_holding_every_target_line_fails_before_any_em(
    monkeypatch, tmp_path, caplog
):
    corpus_dir = fixture_copy(tmp_path)
    with (corpus_dir / "lrx.txt").open("a", encoding="utf-8") as handle:
        handle.write("V999\tonly.lrx has.lrx this.lrx line.lrx\n")
    calls = counting_em_calls(monkeypatch)
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 1
    assert (
        "only 0 of 5 candidates hold all 61 line ids of 'lrx', which stages 2 and 3 need,"
        " but k=4; supply an explicit family list instead"
    ) in caplog.text
    assert calls == []
    assert sorted((tmp_path / "out").iterdir()) == []


def test_a_malformed_lexicon_fails_before_any_em(monkeypatch, tmp_path, caplog):
    corpus_dir = fixture_copy(tmp_path)
    lexicon = corpus_dir / "lexicon.tsv"
    rows = lexicon.read_text(encoding="utf-8").splitlines(keepends=True)
    rows[1] = "e000\taaa\n"
    lexicon.write_text("".join(rows), encoding="utf-8")
    calls = counting_em_calls(monkeypatch)
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 1
    assert "lexicon.tsv:2: expected entity<TAB>language<TAB>forms" in caplog.text
    assert calls == []
    assert not (tmp_path / "out" / "ranking.tsv").exists()


@pytest.mark.parametrize("stage", ["all", "1"])
def test_a_candidate_lacking_a_target_line_is_ranked_only_for_stage1(tmp_path, stage):
    corpus_dir = fixture_copy(tmp_path)
    aaa = corpus_dir / "aaa.txt"
    rows = aaa.read_text(encoding="utf-8").splitlines(keepends=True)
    aaa.write_text("".join(row for row in rows if not row.startswith("V010\t")),
                   encoding="utf-8")
    out_dir = tmp_path / "out"
    assert run_cli("pipeline", corpus_dir, out_dir, "--stage", stage) == 0
    skips = (out_dir / "skips.tsv").read_text(encoding="utf-8")
    ranked = [row.split("\t")[1] for row in
              (out_dir / "ranking.tsv").read_text(encoding="utf-8").splitlines()]
    if stage == "all":
        assert skips == "aaa\tonly 59 shared lines (minimum 60)\n"
        assert "aaa" not in ranked
        assert (out_dir / "family.txt").read_text(encoding="utf-8").split() == [
            "bbb", "ccc", "ddd", "eee"
        ]
    else:
        assert skips == ""
        assert "aaa" in ranked
    assert main(["verify", str(out_dir)]) == 0


def test_config_overrides_are_validated_with_the_file(tmp_path):
    path = FIXTURE_DIR / "config.json"
    with pytest.raises(ValueError, match="^workers must be >= 1, got 0$"):
        PipelineConfig.from_file(path, workers=0)
    config = PipelineConfig.from_file(path, out_dir=tmp_path, workers=2)
    assert (config.out_dir, config.workers) == (tmp_path, 2)


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


def test_an_empty_target_line_fails_before_ranking(monkeypatch, tmp_path, caplog):
    corpus_dir = fixture_copy(tmp_path)
    assert json.loads((corpus_dir / "config.json").read_text(encoding="utf-8"))["family"] == "famp"
    path = corpus_dir / "lrx.txt"
    rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    [index] = [i for i, row in enumerate(rows) if row.startswith("V001\t")]
    rows[index] = "V001\t\n"
    path.write_text("".join(rows), encoding="utf-8")
    calls = []
    rank_languages = lowresmt.pipeline.rank_languages

    def ranking(*args, **kwargs):
        calls.append(args)
        return rank_languages(*args, **kwargs)

    monkeypatch.setattr(lowresmt.pipeline, "rank_languages", ranking)
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 1
    assert "'lrx' has an empty line, first: 'V001'" in caplog.text
    assert calls == []
    assert not (tmp_path / "out" / "ranking.tsv").exists()


@pytest.mark.parametrize(
    "changes, problem",
    [
        ({"k": 9}, "k=9 exceeds the 5 candidate corpora"),
        ({"max_ne": -3}, "max_ne must be >= 0, got -3"),
        ({"min_shared_lines": -7}, "min_shared_lines must be >= 0, got -7"),
    ],
    ids=["k above the candidates", "negative max_ne", "negative min_shared_lines"],
)
def test_a_count_out_of_range_fails_before_any_work(tmp_path, caplog, changes, problem):
    corpus_dir = fixture_copy(tmp_path, **changes)
    assert run_cli("pipeline", corpus_dir, tmp_path / "out") == 1
    assert problem in caplog.text
    assert not (tmp_path / "out").exists()


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
