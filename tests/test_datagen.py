import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowresmt.datagen
from helpers import oracle_split_bytes, tag_view, view_mentions
from lowresmt.corpus import ParallelText, SplitSpec, restrict
from lowresmt.datagen import (
    _split_lines,
    build_vocab,
    direction_tag,
    emit_complete,
    emit_star,
    emit_stage,
    file_sha256,
    pair_templates,
    stage_splits,
    symmetrize,
    tag_languages,
)
from lowresmt.lexicon import LexiconTable, placeholder


def make_view(k, n, prefix="l"):
    languages = [f"{prefix}{i}" for i in range(k)]
    view = {
        lang: ParallelText(
            lang,
            {f"i{j:04d}": (f"{lang}w{j}a", f"{lang}w{j}b", f"{lang}w{j}c") for j in range(n)},
        )
        for lang in languages
    }
    return languages, view


def ids_of(view):
    """The line ids every text of a ``make_view`` view holds, in order."""
    return list(next(iter(view.values())).lines)


class TestDirectionTag:
    def test_render(self):
        assert direction_tag("ca", "ck") == "__opt_src_ca __opt_tgt_ck"


class TestEmitComplete:
    def test_count_formula(self, tmp_path):
        languages, view = make_view(3, 10)
        tagged = tag_view(view)
        entry = emit_complete(languages, view, ids_of(view), tmp_path, "train", tagged=tagged)
        assert entry["examples"] == 3 * 2 * 10
        assert len((tmp_path / "train.src").read_text().splitlines()) == 60
        assert len((tmp_path / "train.tgt").read_text().splitlines()) == 60
        assert entry == {
            "examples": 60,
            "src": "train.src",
            "tgt": "train.tgt",
            "src_sha256": file_sha256(tmp_path / "train.src"),
            "tgt_sha256": file_sha256(tmp_path / "train.tgt"),
        }

    def test_two_languages_gives_both_directions(self, tmp_path):
        languages, view = make_view(2, 1)
        tagged = tag_view(view)
        emit_complete(languages, view, ids_of(view), tmp_path, "train", tagged=tagged)
        src = (tmp_path / "train.src").read_text().splitlines()
        assert src[0].startswith("__opt_src_l0 __opt_tgt_l1 ")
        assert src[1].startswith("__opt_src_l1 __opt_tgt_l0 ")

    def test_stage_two_shape(self, tmp_path):
        languages, view = make_view(11, 3)
        tagged = tag_view(view)
        count = emit_complete(
            languages, view, ids_of(view), tmp_path, "train", tagged=tagged
        )["examples"]
        assert count == 11 * 10 * 3

    def test_every_source_line_carries_a_wellformed_tag(self, tmp_path):
        languages, view = make_view(3, 4)
        tagged = tag_view(view)
        emit_complete(languages, view, ids_of(view), tmp_path, "train", tagged=tagged)
        for row in (tmp_path / "train.src").read_text().splitlines():
            first, second, *_ = row.split(" ")
            assert first.startswith("__opt_src_")
            assert second.startswith("__opt_tgt_")
            assert first.removeprefix("__opt_src_") in languages
            assert second.removeprefix("__opt_tgt_") in languages

    def test_byte_identical_across_runs(self, tmp_path):
        languages, view = make_view(3, 25)
        tagged = tag_view(view)
        emit_complete(languages, view, ids_of(view), tmp_path / "a", "train", tagged=tagged)
        emit_complete(languages, view, ids_of(view), tmp_path / "b", "train", tagged=tagged)
        for name in ("train.src", "train.tgt"):
            assert file_sha256(tmp_path / "a" / name) == file_sha256(tmp_path / "b" / name)


class TestEmitStar:
    def test_count_is_linear(self, tmp_path):
        languages, view = make_view(11, 1038)
        tagged = tag_view(view)
        count = emit_star(
            languages[:10], languages[10], view, ids_of(view), tmp_path, "train", tagged=tagged
        )["examples"]
        assert count == 10 * 1038

    def test_single_source_is_plain_tagged_bitext(self, tmp_path):
        languages, view = make_view(2, 3)
        tagged = tag_view(view)
        count = emit_star(
            ["l0"], "l1", view, ids_of(view), tmp_path, "train", tagged=tagged
        )["examples"]
        assert count == 3
        src = (tmp_path / "train.src").read_text().splitlines()
        assert all(row.startswith("__opt_src_l0 __opt_tgt_l1 ") for row in src)


class TestSymmetrize:
    def test_restricts_to_low_resource_ids(self):
        languages, view = make_view(3, 100)
        low = ParallelText(
            "low", {lid: ("x", "y") for lid in list(view["l0"].lines)[:35]}
        )
        out = symmetrize(low, [view[lang] for lang in languages])
        assert set(out) == {"l0", "l1", "l2", "low"}
        for text in out.values():
            assert list(text.lines) == list(low.lines)

    def test_missing_ids_are_named(self):
        low = ParallelText("low", {"a": ("x",), "b": ("y",)})
        source = ParallelText("s", {"a": ("z",)})
        with pytest.raises(ValueError, match="'b'"):
            symmetrize(low, [source])

    def test_full_low_resource_is_identity(self):
        languages, view = make_view(2, 10)
        low = view["l0"]
        out = symmetrize(low, [view["l1"]])
        assert out["l1"].lines == view["l1"].lines


def emit_either(configuration, languages, texts, ids, out_dir):
    tagged = tag_view(texts)
    if configuration == "complete":
        return emit_complete(languages, texts, ids, out_dir, "train", tagged=tagged)
    return emit_star(
        languages[:-1], languages[-1], texts, ids, out_dir, "train", tagged=tagged
    )


@pytest.mark.parametrize("configuration", ["complete", "star"])
def test_a_text_in_another_line_order_writes_the_planned_order(tmp_path, configuration):
    languages, view = make_view(3, 4)
    ids = ids_of(view)
    emit_either(configuration, languages, view, ids, tmp_path / "a")
    reordered = {
        lang: ParallelText(lang, dict(reversed(view[lang].lines.items()))) for lang in ("l0", "l2")
    }
    emit_either(configuration, languages, {**view, **reordered}, ids, tmp_path / "b")
    for name in ("train.src", "train.tgt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestBuildVocab:
    def test_union_of_disjoint_texts(self):
        a = ParallelText("a", {str(i): (f"a{i}",) for i in range(100)})
        b = ParallelText("b", {str(i): (f"b{i}",) for i in range(100)})
        vocab = build_vocab(
            [*a.lines.values(), *b.lines.values()], reserved=map(placeholder, range(2))
        )
        assert len(vocab) == 202
        assert "__NE0" in vocab and "__NE1" in vocab

    def test_idempotent_over_duplicates(self):
        a = ParallelText("a", {str(i): (f"a{i}",) for i in range(10)})
        lines = list(a.lines.values())
        assert build_vocab(lines + lines) == build_vocab(lines)

    def test_placeholders_and_tags_present(self):
        a = ParallelText("a", {"0": ("x",)})
        tags = [direction_tag("a", "b"), direction_tag("b", "a")]
        reserved = [*(token for tag in tags for token in tag.split()), *map(placeholder, range(4))]
        vocab = build_vocab(a.lines.values(), reserved=reserved)
        for token in ("__opt_src_a", "__opt_tgt_b", "__opt_src_b", "__opt_tgt_a"):
            assert token in vocab
        for i in range(4):
            assert f"__NE{i}" in vocab

    def test_frequency_then_lexicographic_order(self):
        a = ParallelText("a", {"0": ("b", "b", "a"), "1": ("c", "b", "a")})
        assert build_vocab(a.lines.values()) == ("b", "a", "c")


class TestEmitStage:
    def corpora(self, n_family=3, n_lines=40, low_lines=20):
        languages, view = make_view(n_family, n_lines, prefix="f")
        corpora = dict(view)
        low_ids = list(view["f0"].lines)[:low_lines]
        corpora["low"] = ParallelText(
            "low", {lid: (f"loww{lid}",) for lid in low_ids}
        )
        return tuple(languages), corpora

    def emit(self, stage, languages, corpora, tmp_path, tagged):
        split = SplitSpec((("train", 0.8), ("val", 0.2)))
        splits = stage_splits(stage, languages, "low", corpora, split)
        out_dir = tmp_path / f"stage{stage}"
        return emit_stage(stage, languages, "low", corpora, splits, out_dir, tagged=tagged)

    def test_stage1_complete_over_family_excludes_low(self, tmp_path):
        languages, corpora = self.corpora()
        tagged = tag_view(corpora)
        fragment = self.emit(1, languages, corpora, tmp_path, tagged)
        assert fragment["configuration"] == "complete"
        assert fragment["languages"] == list(languages)
        assert fragment["splits"]["train"]["examples"] == 3 * 2 * 32
        assert fragment["splits"]["val"]["examples"] == 3 * 2 * 8
        src = (tmp_path / "stage1" / "train.src").read_text()
        assert "__opt_tgt_low" not in src

    def test_stage2_complete_includes_low_on_its_ids(self, tmp_path):
        languages, corpora = self.corpora()
        tagged = tag_view(corpora)
        fragment = self.emit(2, languages, corpora, tmp_path, tagged)
        assert fragment["languages"] == [*languages, "low"]
        # 4 languages over the 20 low-resource lines
        assert fragment["splits"]["train"]["examples"] == 4 * 3 * 16
        assert fragment["splits"]["val"]["examples"] == 4 * 3 * 4

    def test_stage3_star_into_low(self, tmp_path):
        languages, corpora = self.corpora()
        tagged = tag_view(corpora)
        fragment = self.emit(3, languages, corpora, tmp_path, tagged)
        assert fragment["configuration"] == "star"
        assert fragment["splits"]["train"]["examples"] == 3 * 16
        src = (tmp_path / "stage3" / "train.src").read_text().splitlines()
        assert all(row.split(" ")[1] == "__opt_tgt_low" for row in src)

    def test_manifest_checksums_are_reproducible(self, tmp_path):
        languages, corpora = self.corpora()
        tagged = tag_view(corpora)
        first = self.emit(2, languages, corpora, tmp_path / "a", tagged)
        second = self.emit(2, languages, corpora, tmp_path / "b", tagged)
        assert (
            first["splits"]["train"]["src_sha256"]
            == second["splits"]["train"]["src_sha256"]
        )
        assert (
            first["splits"]["val"]["tgt_sha256"]
            == second["splits"]["val"]["tgt_sha256"]
        )

    def test_tagged_emission_binds_on_source_side(self, tmp_path):
        table = LexiconTable(
            {
                "e1": {"f0": ["Zorblat"], "f1": ["Zorblatu"], "low": ["Zorblow"]},
            }
        )
        languages = ("f0", "f1")
        corpora = {
            "f0": ParallelText("f0", {"a": ("Zorblat", "speaks")}),
            "f1": ParallelText("f1", {"a": ("spricht", "Zorblatu")}),
            "low": ParallelText("low", {"a": ("Zorblow", "talk")}),
        }
        splits = stage_splits(2, languages, "low", corpora, SplitSpec((("train", 1.0),)))
        tagged = tag_view(corpora, table)
        emit_stage(2, languages, "low", corpora, splits, tmp_path, tagged=tagged)
        src = (tmp_path / "train.src").read_text().splitlines()
        tgt = (tmp_path / "train.tgt").read_text().splitlines()
        assert src[0] == "__opt_src_f0 __opt_tgt_f1 __NE0 speaks"
        assert tgt[0] == "spricht __NE0"


def test_a_line_without_mentions_maps_to_the_empty_tuple_with_or_without_a_table():
    table = LexiconTable({"e1": {"f0": ["Zorblat"], "f1": ["Zorblatu"]}})
    view = {
        "f0": ParallelText("f0", {"a": ("Zorblat", "speaks"), "b": ("nobody", "here")}),
        "f1": ParallelText("f1", {"a": ("no", "one"), "b": ("Zorblatu",)}),
    }
    tagged = view_mentions(tag_view(view, table))
    for found in (tagged, view_mentions(tag_view(view))):
        empty = [line for by_line in found.values() for line in by_line.values() if not line]
        assert empty and all(line == () for line in empty)
    (mention,) = tagged["f0"]["a"]
    assert not hasattr(mention, "__dict__")


FILLER = ("abba", "cede", "fig", "hijk", "lamb")


def surface(entity: int, language: str) -> str:
    """An entity's one form per language; the first entity's form is two tokens."""
    return f"Qu{entity}x{language}" + (" Vor" if entity == 0 else "")


@st.composite
def tagged_texts(draw):
    """2 to 4 languages sharing 1 to 5 lines, and a split's ids among those.

    Lines mix filler and entity surfaces freely, so a line may hold no
    mention, repeat an entity, order its entities unlike another
    language's line, or mention entities the other sides lack.  Each
    text also holds up to two lines of its own and orders its ids its
    own way; the split's ids are a drawn subset of the shared ids, in a
    drawn order.
    """
    languages = [f"l{index}" for index in range(draw(st.integers(2, 4)))]
    n_entities = 4
    table = LexiconTable({
        f"e{entity}": {lang: [surface(entity, lang)] for lang in languages}
        for entity in range(n_entities)
    })
    item = st.one_of(st.sampled_from(FILLER), st.integers(0, n_entities - 1))
    shared = [f"v{index}" for index in range(draw(st.integers(1, 5)))]
    texts = {}
    for lang in languages:
        own = [f"x{lang}{index}" for index in range(draw(st.integers(0, 2)))]
        lines = {}
        for lid in draw(st.permutations(shared + own)):
            items = draw(st.lists(item, min_size=1, max_size=6))
            text = " ".join(i if isinstance(i, str) else surface(i, lang) for i in items)
            lines[lid] = tuple(text.split())
        texts[lang] = ParallelText(lang, lines)
    ids = draw(st.lists(st.sampled_from(shared), unique=True))
    return languages, texts, table, ids


@pytest.mark.parametrize("configuration", ["complete", "star"])
@given(case=tagged_texts(), tagged=st.booleans())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_block_writer_matches_the_per_example_oracle(configuration, case, tagged):
    languages, texts, table, ids = case
    tagged_view = tag_view(texts, table if tagged else None)
    if configuration == "complete":
        pairs = [(a, b) for a in languages for b in languages if a != b]
    else:
        pairs = [(a, languages[-1]) for a in languages[:-1]]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        if configuration == "complete":
            entry = emit_complete(languages, texts, ids, out, "train", tagged=tagged_view)
        else:
            entry = emit_star(
                languages[:-1], languages[-1], texts, ids, out, "train", tagged=tagged_view
            )
        written = ((out / "train.src").read_bytes(), (out / "train.tgt").read_bytes())
    view = {lang: restrict(text, ids) for lang, text in texts.items()}
    assert written == oracle_split_bytes(pairs, view, view_mentions(tagged_view))
    assert entry["examples"] == len(pairs) * len(ids)


def test_each_language_line_is_bound_once_per_split(monkeypatch, tmp_path):
    calls = []
    bind = lowresmt.datagen.bind

    def counting(mentions):
        calls.append(mentions)
        return bind(mentions)

    monkeypatch.setattr(lowresmt.datagen, "bind", counting)
    languages = ["l0", "l1", "l2"]
    table = LexiconTable({"e1": {lang: [f"Zorb{lang}"] for lang in languages}})
    view = {
        lang: ParallelText(lang, {f"i{j}": (f"Zorb{lang}", f"w{j}") for j in range(4)})
        for lang in languages
    }
    tagged = tag_view(view, table)
    entry = emit_complete(languages, view, ids_of(view), tmp_path, "train", tagged=tagged)
    assert entry["examples"] == 3 * 2 * 4
    assert len(calls) == 3 * 4


@pytest.mark.parametrize(
    "order, renders, expected",
    [(("A", "B"), 0, "__NE0 calls __NE1"), (("B", "A"), 1, "__NE1 calls __NE0")],
)
def test_pair_templates_renders_only_lines_the_source_binds_otherwise(
    monkeypatch, order, renders, expected
):
    table = LexiconTable({e: {"l0": [f"{e}x0"], "l1": [f"{e}x1"]} for e in ("A", "B")})
    view = {
        "l0": ParallelText("l0", {"v0": ("Ax0", "calls", "Bx0")}),
        "l1": ParallelText("l1", {"v0": (f"{order[0]}x1", "calls", f"{order[1]}x1")}),
    }
    tagged = tag_view(view, table)
    _, source_entities = _split_lines(tagged["l0"], ["v0"])
    rendered = _split_lines(tagged["l1"], ["v0"])
    calls = []
    render_template = lowresmt.datagen.render_template

    def counting(*args):
        calls.append(args)
        return render_template(*args)

    monkeypatch.setattr(lowresmt.datagen, "render_template", counting)
    found = tagged["l1"].mentions
    assert pair_templates(source_entities, view["l1"], rendered, found, ["v0"]) == [expected]
    assert len(calls) == renders


@pytest.mark.parametrize("configuration", ["complete", "star"])
def test_a_split_renders_each_language_once(monkeypatch, tmp_path, configuration):
    languages, view = make_view(4, 5)
    table = LexiconTable({"e": {lang: [f"{lang}w1b"] for lang in languages}})
    calls = Counter()
    renders = []
    tag_text = lowresmt.datagen.tag_text
    render_template = lowresmt.datagen.render_template

    def counting(text, *args):
        calls[text.language] += 1
        return tag_text(text, *args)

    def rendering(*args):
        renders.append(args)
        return render_template(*args)

    monkeypatch.setattr(lowresmt.datagen, "tag_text", counting)
    monkeypatch.setattr(lowresmt.datagen, "render_template", rendering)
    tagged = tag_view(view, table)
    # each line with a mention is rendered once, when it is tagged
    rendered = sum(len(text.entities) for text in tagged.values())
    assert rendered and len(renders) == rendered
    if configuration == "complete":
        emit_complete(languages, view, ids_of(view), tmp_path, "train", tagged=tagged)
    else:
        emit_star(
            languages[:-1], languages[-1], view, ids_of(view), tmp_path, "train", tagged=tagged
        )
    assert calls == Counter(languages)
    # every line's entities are bound alike, so the writer renders none again
    assert len(renders) == rendered


def test_an_empty_split_writes_empty_files(tmp_path):
    view = {lang: ParallelText(lang, {}) for lang in ("l0", "l1")}
    tagged = tag_view(view)
    entry = emit_complete(["l0", "l1"], view, [], tmp_path, "train", tagged=tagged)
    assert entry["examples"] == 0
    assert (tmp_path / "train.src").read_bytes() == (tmp_path / "train.tgt").read_bytes() == b""


def test_tagging_pool_is_capped_by_languages_and_cpus_and_gets_one_language_each(monkeypatch):
    sizes, languages_per_job = [], []

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, texts, tables, thresholds):
            tables = list(tables)
            languages_per_job.extend(
                {lang for by_lang in table.entities.values() for lang in by_lang}
                for table in tables
            )
            return map(fn, texts, tables, thresholds)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("lowresmt.datagen.os.cpu_count", lambda: 3)
    languages, view = make_view(4, 5)
    table = LexiconTable({"e": {lang: [f"{lang}w1b"] for lang in languages}})
    serial = tag_languages(view, table)
    assert sizes == []
    assert tag_languages(view, table, workers=1000) == serial
    assert sizes == [3]
    assert languages_per_job == [{lang} for lang in languages]
    tag_languages({lang: view[lang] for lang in languages[:2]}, table, workers=1000)
    assert sizes == [3, 2]
    monkeypatch.setattr("lowresmt.datagen.os.cpu_count", lambda: None)
    tag_languages(view, table, workers=1000)
    assert sizes == [3, 2]
