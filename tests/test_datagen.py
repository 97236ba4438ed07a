import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowresmt.datagen
from helpers import oracle_split_bytes
from lowresmt.corpus import ParallelText, SplitSpec
from lowresmt.datagen import (
    DirectionTag,
    StageSpec,
    build_vocab,
    emit_complete,
    emit_star,
    emit_stage,
    file_sha256,
    find_view_mentions,
    symmetrize,
)
from lowresmt.lexicon import LexiconTable


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


class TestDirectionTag:
    def test_render(self):
        assert DirectionTag("ca", "ck").render() == "__opt_src_ca __opt_tgt_ck"

    def test_identical_codes_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            DirectionTag("en", "en")

    @pytest.mark.parametrize("src, tgt", [("", "en"), ("en", "b b"), ("en\n", "de")])
    def test_empty_or_whitespace_code_rejected(self, src, tgt):
        with pytest.raises(ValueError, match="no whitespace"):
            DirectionTag(src, tgt)


class TestEmitComplete:
    def test_count_formula(self, tmp_path):
        languages, view = make_view(3, 10)
        entry = emit_complete(languages, view, tmp_path, "train")
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
        emit_complete(languages, view, tmp_path, "train")
        src = (tmp_path / "train.src").read_text().splitlines()
        assert src[0].startswith("__opt_src_l0 __opt_tgt_l1 ")
        assert src[1].startswith("__opt_src_l1 __opt_tgt_l0 ")

    def test_stage_two_shape(self, tmp_path):
        languages, view = make_view(11, 3)
        count = emit_complete(languages, view, tmp_path, "train")["examples"]
        assert count == 11 * 10 * 3

    def test_missing_language_is_an_error(self, tmp_path):
        languages, view = make_view(3, 2)
        del view["l1"]
        with pytest.raises(ValueError, match="l1"):
            emit_complete(languages, view, tmp_path, "train")

    def test_needs_two_languages(self, tmp_path):
        languages, view = make_view(1, 2)
        with pytest.raises(ValueError, match="two languages"):
            emit_complete(languages, view, tmp_path, "train")

    def test_every_source_line_carries_a_wellformed_tag(self, tmp_path):
        languages, view = make_view(3, 4)
        emit_complete(languages, view, tmp_path, "train")
        for row in (tmp_path / "train.src").read_text().splitlines():
            first, second, *_ = row.split(" ")
            assert first.startswith("__opt_src_")
            assert second.startswith("__opt_tgt_")
            assert first.removeprefix("__opt_src_") in languages
            assert second.removeprefix("__opt_tgt_") in languages

    def test_byte_identical_across_runs(self, tmp_path):
        languages, view = make_view(3, 25)
        emit_complete(languages, view, tmp_path / "a", "train")
        emit_complete(languages, view, tmp_path / "b", "train")
        for name in ("train.src", "train.tgt"):
            assert file_sha256(tmp_path / "a" / name) == file_sha256(tmp_path / "b" / name)


class TestEmitStar:
    def test_count_is_linear(self, tmp_path):
        languages, view = make_view(11, 1038)
        count = emit_star(languages[:10], languages[10], view, tmp_path, "train")["examples"]
        assert count == 10 * 1038

    def test_single_source_is_plain_tagged_bitext(self, tmp_path):
        languages, view = make_view(2, 3)
        count = emit_star(["l0"], "l1", view, tmp_path, "train")["examples"]
        assert count == 3
        src = (tmp_path / "train.src").read_text().splitlines()
        assert all(row.startswith("__opt_src_l0 __opt_tgt_l1 ") for row in src)

    def test_target_among_sources_is_an_error(self, tmp_path):
        languages, view = make_view(3, 2)
        with pytest.raises(ValueError, match="among sources"):
            emit_star(languages, languages[0], view, tmp_path, "train")


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


def emit_either(configuration, languages, view, out_dir):
    if configuration == "complete":
        return emit_complete(languages, view, out_dir, "train")
    return emit_star(languages[:-1], languages[-1], view, out_dir, "train")


@pytest.mark.parametrize("configuration", ["complete", "star"])
@pytest.mark.parametrize(
    "ids, problem",
    [
        (["i0000", "i0002"], "'l2' is missing line id 'i0001'"),
        (["i0000", "i0001", "i0002", "x"], "'l2' has extra line id 'x'"),
    ],
)
def test_ragged_view_names_language_and_id_before_writing(
    tmp_path, configuration, ids, problem
):
    languages, view = make_view(3, 3)
    view["l2"] = ParallelText("l2", {lid: ("w",) for lid in ids})
    with pytest.raises(ValueError, match=problem):
        emit_either(configuration, languages, view, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("configuration", ["complete", "star"])
def test_view_in_another_line_order_writes_the_first_language_order(tmp_path, configuration):
    languages, view = make_view(3, 4)
    emit_either(configuration, languages, view, tmp_path / "a")
    reordered = ParallelText("l2", dict(reversed(view["l2"].lines.items())))
    emit_either(configuration, languages, {**view, "l2": reordered}, tmp_path / "b")
    for name in ("train.src", "train.tgt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestBuildVocab:
    def test_union_of_disjoint_texts(self):
        a = ParallelText("a", {str(i): (f"a{i}",) for i in range(100)})
        b = ParallelText("b", {str(i): (f"b{i}",) for i in range(100)})
        vocab = build_vocab([*a.lines.values(), *b.lines.values()], max_ne=2)
        assert len(vocab) == 202
        assert "__NE0" in vocab and "__NE1" in vocab

    def test_idempotent_over_duplicates(self):
        a = ParallelText("a", {str(i): (f"a{i}",) for i in range(10)})
        lines = list(a.lines.values())
        assert build_vocab(lines + lines) == build_vocab(lines)

    def test_placeholders_and_tags_present(self):
        a = ParallelText("a", {"0": ("x",)})
        tags = [DirectionTag("a", "b"), DirectionTag("b", "a")]
        vocab = build_vocab(a.lines.values(), tags=tags, max_ne=4)
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

    def spec(self, stage, languages, tmp_path, ratios=(("train", 0.8), ("val", 0.2))):
        return StageSpec(
            stage=stage,
            languages=languages,
            low_resource="low",
            split=SplitSpec(ratios),
            out_dir=tmp_path / f"stage{stage}",
        )

    def test_stage1_complete_over_family_excludes_low(self, tmp_path):
        languages, corpora = self.corpora()
        fragment = emit_stage(self.spec(1, languages, tmp_path), corpora)
        assert fragment["configuration"] == "complete"
        assert fragment["languages"] == list(languages)
        assert fragment["splits"]["train"]["examples"] == 3 * 2 * 32
        assert fragment["splits"]["val"]["examples"] == 3 * 2 * 8
        src = (tmp_path / "stage1" / "train.src").read_text()
        assert "__opt_tgt_low" not in src

    def test_stage2_complete_includes_low_on_its_ids(self, tmp_path):
        languages, corpora = self.corpora()
        fragment = emit_stage(self.spec(2, languages, tmp_path), corpora)
        assert fragment["languages"] == [*languages, "low"]
        # 4 languages over the 20 low-resource lines
        assert fragment["splits"]["train"]["examples"] == 4 * 3 * 16
        assert fragment["splits"]["val"]["examples"] == 4 * 3 * 4

    def test_stage3_star_into_low(self, tmp_path):
        languages, corpora = self.corpora()
        fragment = emit_stage(self.spec(3, languages, tmp_path), corpora)
        assert fragment["configuration"] == "star"
        assert fragment["splits"]["train"]["examples"] == 3 * 16
        src = (tmp_path / "stage3" / "train.src").read_text().splitlines()
        assert all(row.split(" ")[1] == "__opt_tgt_low" for row in src)

    def test_low_in_family_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="must not appear"):
            self.spec(1, ("f0", "low"), tmp_path)

    def test_manifest_checksums_are_reproducible(self, tmp_path):
        languages, corpora = self.corpora()
        first = emit_stage(self.spec(2, languages, tmp_path / "a"), corpora)
        second = emit_stage(self.spec(2, languages, tmp_path / "b"), corpora)
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
        spec = StageSpec(
            stage=2,
            languages=languages,
            low_resource="low",
            split=SplitSpec((("train", 1.0),)),
            out_dir=tmp_path,
        )
        emit_stage(spec, corpora, find_view_mentions(corpora, table))
        src = (tmp_path / "train.src").read_text().splitlines()
        tgt = (tmp_path / "train.tgt").read_text().splitlines()
        assert src[0] == "__opt_src_f0 __opt_tgt_f1 __NE0 speaks"
        assert tgt[0] == "spricht __NE0"


FILLER = ("abba", "cede", "fig", "hijk", "lamb")


def surface(entity: int, language: str) -> str:
    """An entity's one form per language; the first entity's form is two tokens."""
    return f"Qu{entity}x{language}" + (" Vor" if entity == 0 else "")


@st.composite
def tagged_views(draw):
    """2 to 4 languages over 1 to 5 shared lines, each line drawn per language.

    Lines mix filler and entity surfaces freely, so a line may hold no
    mention, repeat an entity, order its entities unlike another
    language's line, or mention entities the other sides lack.
    """
    languages = [f"l{index}" for index in range(draw(st.integers(2, 4)))]
    n_entities = 4
    table = LexiconTable({
        f"e{entity}": {lang: [surface(entity, lang)] for lang in languages}
        for entity in range(n_entities)
    })
    item = st.one_of(st.sampled_from(FILLER), st.integers(0, n_entities - 1))
    ids = [f"v{index}" for index in range(draw(st.integers(1, 5)))]
    view = {}
    for lang in languages:
        lines = {}
        for lid in ids:
            items = draw(st.lists(item, min_size=1, max_size=6))
            text = " ".join(i if isinstance(i, str) else surface(i, lang) for i in items)
            lines[lid] = tuple(text.split())
        view[lang] = ParallelText(lang, lines)
    return languages, view, table


@pytest.mark.parametrize("configuration", ["complete", "star"])
@given(case=tagged_views(), tagged=st.booleans())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_block_writer_matches_the_per_example_oracle(configuration, case, tagged):
    languages, view, table = case
    mentions = find_view_mentions(view, table) if tagged else None
    if configuration == "complete":
        pairs = [(a, b) for a in languages for b in languages if a != b]
    else:
        pairs = [(a, languages[-1]) for a in languages[:-1]]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        if configuration == "complete":
            entry = emit_complete(languages, view, out, "train", mentions=mentions)
        else:
            entry = emit_star(languages[:-1], languages[-1], view, out, "train", mentions=mentions)
        written = ((out / "train.src").read_bytes(), (out / "train.tgt").read_bytes())
    assert written == oracle_split_bytes(pairs, view, mentions)
    assert entry["examples"] == len(pairs) * len(view[languages[0]])


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
    entry = emit_complete(languages, view, tmp_path, "train", mentions=find_view_mentions(view, table))
    assert entry["examples"] == 3 * 2 * 4
    assert len(calls) == 3 * 4
