import gc
import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowresmt.corpus import (
    CHUNK_BYTES,
    ParallelText,
    SplitSpec,
    bitext,
    intersect,
    load_candidates,
    load_text,
    read_rows,
    restrict,
    same_ids,
    save_text,
    split,
    write_lines,
)
from lowresmt.datagen import file_sha256

# str.splitlines ends a line at each of these; inside a corpus line they are token gaps
INLINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


def text_of(language, ids_tokens):
    return ParallelText(language, {lid: tuple(toks.split()) for lid, toks in ids_tokens})


class TestLoadText:
    def test_id_format(self, tmp_path):
        path = write(tmp_path, "x.txt", "MRK_1_1\ta b\nMRK_1_2\tc\n")
        text = load_text(path, "en")
        assert len(text) == 2
        assert text.lines["MRK_1_1"] == ("a", "b")
        assert list(text.lines) == ["MRK_1_1", "MRK_1_2"]

    def test_bare_format_synthesizes_indexes(self, tmp_path):
        path = write(tmp_path, "x.txt", "a b\nc\n")
        text = load_text(path, "en")
        assert list(text.lines) == ["0", "1"]
        assert text.lines["1"] == ("c",)

    def test_duplicate_id_is_an_error(self, tmp_path):
        path = write(tmp_path, "x.txt", "MRK_1_1\ta\nMRK_1_1\tb\n")
        with pytest.raises(ValueError, match="MRK_1_1"):
            load_text(path, "en")

    def test_empty_file_is_an_error(self, tmp_path):
        path = write(tmp_path, "x.txt", "")
        with pytest.raises(ValueError, match="empty"):
            load_text(path, "en")

    def test_blank_line_is_an_error(self, tmp_path):
        path = write(tmp_path, "x.txt", "a b\n   \nc\n")
        with pytest.raises(ValueError, match="blank"):
            load_text(path, "en")

    def test_id_row_without_text_is_an_empty_line(self, tmp_path):
        text = text_of("de", [("V1", "a b"), ("V2", ""), ("V3", "c")])
        path = tmp_path / "x.txt"
        save_text(text, path)
        assert path.read_bytes() == b"V1\ta b\nV2\t\nV3\tc\n"
        assert load_text(path, "de").lines == {"V1": ("a", "b"), "V2": (), "V3": ("c",)}

    def test_missing_tab_in_id_format_is_an_error(self, tmp_path):
        path = write(tmp_path, "x.txt", "ID1\ta b\nno tab here but spaces only\n")
        # first line decides the format; later rows must follow it
        with pytest.raises(ValueError, match="ID<TAB>text"):
            load_text(path, "en")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes("\ufeffV0\ta b\nV1\tc\n".encode("utf-8"))
        text = load_text(path, "x")
        assert list(text.lines) == ["V0", "V1"]
        save_text(text, tmp_path / "copy.txt")
        assert load_text(tmp_path / "copy.txt", "x").lines == text.lines
        other = text_of("y", [("V0", "p"), ("V1", "q")])
        assert intersect([text, other]) == ["V0", "V1"]

    def test_round_trip_is_byte_identical(self, tmp_path):
        original = write(tmp_path, "a.txt", "ID_1\ta b c\nID_2\td e\n")
        text = load_text(original, "en")
        copy = tmp_path / "b.txt"
        save_text(text, copy)
        assert copy.read_bytes() == original.read_bytes()

    def test_equal_tokens_are_one_object(self, tmp_path):
        path = write(tmp_path, "x.txt", "V0\tshepherd flock shepherd\nV1\tflock shepherd\n")
        text = load_text(path, "en")
        first, second = text.lines["V0"], text.lines["V1"]
        assert first[0] is first[2] is second[1]
        assert first[1] is second[0]

    def test_repeated_tokens_cost_at_most_half_of_a_plain_load(self, tmp_path):
        words = [f"word{i:04d}" for i in range(60)]
        rows = [
            f"V{n}\t{' '.join(words[(n * 7 + k) % 60] for k in range(20))}" for n in range(2000)
        ]
        path = write(tmp_path, "x.txt", "\n".join(rows) + "\n")

        def plain_load():  # the oracle: load_text without interning
            lines = {}
            for row in path.read_text(encoding="utf-8").splitlines():
                line_id, _, text = row.partition("\t")
                lines[line_id] = tuple(text.split())
            return lines

        def retained_bytes(load):
            gc.collect()
            tracemalloc.start()
            kept = load()
            gc.collect()
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            del kept
            return size

        plain = retained_bytes(plain_load)
        interned = retained_bytes(lambda: load_text(path, "en"))
        assert interned <= plain / 2, (interned, plain)

    def test_form_feed_inside_a_verse_adds_no_line(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"alpha beta\x0cgamma delta\nepsilon zeta\n")
        text = load_text(path, "en")
        assert text.lines == {
            "0": ("alpha", "beta", "gamma", "delta"), "1": ("epsilon", "zeta"),
        }

    @given(
        rows=st.lists(
            st.tuples(
                st.lists(st.text("abcé", min_size=1, max_size=4), min_size=1, max_size=4),
                st.lists(st.sampled_from(" " + INLINE_BREAKS), min_size=3, max_size=3),
                st.sampled_from(["\n", "\r\n", "\r"]),
            ),
            min_size=1,
            max_size=8,
        ),
        id_format=st.booleans(),
        final_end=st.booleans(),
        bom=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_only_line_ends_split_lines(self, rows, id_format, final_end, bom):
        content = "\ufeff" if bom else ""
        expected = {}
        for index, (words, (lead, gap, trail), end) in enumerate(rows):
            line_id = f"V{index}" if id_format else str(index)
            line = lead + gap.join(words) + trail
            content += (f"{line_id}\t" if id_format else "") + line
            content += end if final_end or index < len(rows) - 1 else ""
            expected[line_id] = tuple(words)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.txt"
            path.write_bytes(content.encode("utf-8"))
            assert load_text(path, "x").lines == expected
            assert [number for number, _ in read_rows(path)] == list(range(1, len(rows) + 1))


class TestLoadCandidates:
    def test_every_other_corpus_cut_to_the_target_ids_in_file_order(self, tmp_path):
        target = load_text(write(tmp_path, "lr.txt", "V1\tx\nV2\ty\nV3\tz\n"), "lr")
        write(tmp_path, "bb.txt", "V3\tc\nV9\tq\nV1\ta\n")
        write(tmp_path, "aa.txt", "V2\tb\nV1\ta\n")
        write(tmp_path, "notes.md", "not a corpus\n")
        candidates = load_candidates(tmp_path, target)
        assert [(c.language, list(c.lines.items())) for c in candidates] == [
            ("aa", [("V2", ("b",)), ("V1", ("a",))]),
            ("bb", [("V3", ("c",)), ("V1", ("a",))]),
        ]

    def test_a_malformed_candidate_fails(self, tmp_path):
        target = load_text(write(tmp_path, "lr.txt", "V1\tx\n"), "lr")
        write(tmp_path, "aa.txt", "V1\ta\nV1\tb\n")
        with pytest.raises(ValueError, match="duplicate line id"):
            load_candidates(tmp_path, target)

    def test_no_candidate_is_an_error(self, tmp_path):
        target = load_text(write(tmp_path, "lr.txt", "V1\tx\n"), "lr")
        with pytest.raises(ValueError, match="no candidate corpora"):
            load_candidates(tmp_path, target)


class TestSameIds:
    def test_returns_the_first_order_whatever_the_others(self):
        a = text_of("a", [("2", "x"), ("1", "y"), ("3", "z")])
        b = text_of("b", [("1", "p"), ("3", "q"), ("2", "r")])
        assert same_ids([a, b]) == ["2", "1", "3"]
        assert same_ids([a]) == ["2", "1", "3"]

    @pytest.mark.parametrize(
        "ids, problem",
        [
            (["3"], "'b' is missing line id '1'"),
            (["1", "2", "3", "5", "4"], "'b' has extra line id '5'"),
            # a text both lacking and adding ids is named for what it lacks
            (["x", "1", "2"], "'b' is missing line id '3'"),
        ],
    )
    def test_ragged_text_names_its_first_missing_or_extra_id(self, ids, problem):
        a = text_of("a", [("1", "x"), ("2", "y"), ("3", "z")])
        b = text_of("b", [(lid, "w") for lid in ids])
        with pytest.raises(ValueError, match=problem):
            same_ids([a, b])

    def test_names_the_first_ragged_text(self):
        a = text_of("a", [("1", "x"), ("2", "y")])
        c = text_of("c", [("1", "x")])
        with pytest.raises(ValueError, match="'c' is missing line id '2'"):
            same_ids([a, a, c, text_of("d", [("9", "x")])])

    @given(
        ids_a=st.lists(st.integers(0, 8), min_size=1, max_size=8, unique=True),
        ids_b=st.lists(st.integers(0, 8), min_size=1, max_size=8, unique=True),
    )
    @settings(max_examples=100, derandomize=True)
    def test_accepts_exactly_equal_id_sets(self, ids_a, ids_b):
        a = text_of("a", [(str(i), "x") for i in ids_a])
        b = text_of("b", [(str(i), "y") for i in ids_b])
        if set(ids_a) == set(ids_b):
            assert same_ids([a, b]) == [str(i) for i in ids_a]
            return
        with pytest.raises(ValueError) as excinfo:
            same_ids([a, b])
        named = int(str(excinfo.value).rsplit("'", 2)[1])
        lacked = [i for i in ids_a if i not in ids_b]
        assert named == (lacked[0] if lacked else next(i for i in ids_b if i not in ids_a))


class TestBitext:
    def test_pairs_on_shared_ids_in_source_order(self):
        source = text_of("s", [("3", "c"), ("1", "a a"), ("2", "b")])
        target = text_of("t", [("1", "A"), ("9", "Z"), ("3", "C")])
        assert bitext(source, target) == [(("c",), ("C",)), (("a", "a"), ("A",))]

    def test_disjoint_texts_give_no_pairs(self):
        assert bitext(text_of("s", [("1", "a")]), text_of("t", [("2", "b")])) == []


class TestIntersect:
    def test_basic_intersection(self):
        a = text_of("a", [("1", "x"), ("2", "y"), ("3", "z")])
        b = text_of("b", [("2", "p"), ("3", "q"), ("4", "r")])
        assert intersect([a, b]) == ["2", "3"]

    def test_first_text_order(self):
        a = text_of("a", [("3", "x"), ("1", "y"), ("2", "z")])
        b = text_of("b", [("1", "p"), ("2", "q"), ("3", "r")])
        assert intersect([a, b]) == ["3", "1", "2"]
        assert intersect([b, a]) == ["1", "2", "3"]

    def test_identical_texts_unchanged(self):
        a = text_of("a", [("1", "x"), ("2", "y")])
        assert intersect([a, a]) == list(a.lines)

    def test_disjoint_ids_error(self):
        a = text_of("a", [("1", "x")])
        b = text_of("b", [("2", "y")])
        with pytest.raises(ValueError, match="shared"):
            intersect([a, b])

    def test_needs_two_texts(self):
        with pytest.raises(ValueError):
            intersect([text_of("a", [("1", "x")])])

    @given(
        ids_a=st.sets(st.integers(0, 30), min_size=1, max_size=20),
        ids_b=st.sets(st.integers(0, 30), min_size=1, max_size=20),
    )
    @settings(max_examples=50, derandomize=True)
    def test_idempotent_and_commutative(self, ids_a, ids_b):
        a = text_of("a", [(str(i), f"tok{i}") for i in sorted(ids_a)])
        b = text_of("b", [(str(i), f"tok{i}") for i in sorted(ids_b)])
        if not ids_a & ids_b:
            with pytest.raises(ValueError):
                intersect([a, b])
            return
        once = intersect([a, b])
        assert intersect([restrict(a, once), restrict(b, once)]) == once
        assert set(intersect([b, a])) == set(once)


def numbered_ids(n):
    return [str(i) for i in range(n)]


class TestSplit:
    def test_80_10_10_of_100(self):
        spec = SplitSpec((("train", 0.8), ("val", 0.1), ("test", 0.1)))
        parts = split(numbered_ids(100), spec)
        assert [len(parts[n]) for n in ("train", "val", "test")] == [80, 10, 10]

    def test_95_5_of_1093_contiguous(self):
        # floor on all but the last split, which absorbs the remainder
        parts = split(numbered_ids(1093), SplitSpec((("train", 0.95), ("val", 0.05))))
        assert len(parts["train"]) == 1038
        assert len(parts["val"]) == 55
        assert parts["train"][-1] == "1037"

    def test_single_ratio_is_identity(self):
        ids = numbered_ids(7)
        parts = split(ids, SplitSpec((("all", 1.0),)))
        assert parts["all"] == ids

    def test_zero_line_split_is_an_error(self):
        ids = ["1", "2"]
        with pytest.raises(ValueError, match="receive"):
            split(ids, SplitSpec((("train", 0.2), ("val", 0.8))))
        with pytest.raises(ValueError, match="receive"):
            split(ids, SplitSpec((("train", 1.0), ("val", 0.0))))

    def test_shuffled_is_deterministic_and_seed_sensitive(self):
        ids = numbered_ids(40)
        spec = SplitSpec((("train", 0.5), ("val", 0.5)), seed=3, mode="shuffled")
        first = split(ids, spec)
        second = split(ids, spec)
        assert first["train"] == second["train"]
        other = split(ids, SplitSpec((("train", 0.5), ("val", 0.5)), seed=4, mode="shuffled"))
        assert other["train"] != first["train"]
        assert ids == numbered_ids(40)

    @given(
        n=st.integers(3, 120),
        seed=st.integers(0, 5),
        mode=st.sampled_from(["contiguous", "shuffled"]),
    )
    @settings(max_examples=60, derandomize=True)
    def test_partition_property(self, n, seed, mode):
        ids = numbered_ids(n)
        spec = SplitSpec((("x", 0.6), ("y", 0.4)), seed=seed, mode=mode)
        parts = split(ids, spec)
        all_ids = [lid for part in parts.values() for lid in part]
        assert sorted(all_ids, key=int) == ids
        assert len(set(all_ids)) == n
        # each split lists its ids in the given order, in either mode
        assert all(part == sorted(part, key=int) for part in parts.values())

    def test_invalid_specs(self):
        with pytest.raises(ValueError, match="sum"):
            SplitSpec((("a", 0.5), ("b", 0.4)))
        with pytest.raises(ValueError, match="duplicate"):
            SplitSpec((("a", 0.5), ("a", 0.5)))
        with pytest.raises(ValueError, match="mode"):
            SplitSpec((("a", 1.0),), mode="random")

    @pytest.mark.parametrize("name", ["", ".hidden", "..", "a/b", "a\\b", "a b", "tab\t"])
    def test_split_name_must_be_a_plain_file_name(self, name):
        with pytest.raises(ValueError, match="plain file name"):
            SplitSpec(((name, 0.5), ("rest", 0.5)))


def test_restrict_missing_id_is_an_error():
    text = text_of("a", [("1", "x")])
    with pytest.raises(ValueError, match="lacks"):
        restrict(text, ["1", "2"])


class TestWriteLines:
    @given(
        lines=st.lists(st.text(st.one_of(st.characters(), st.sampled_from("\r\n\ufeff")))),
        repeat=st.sampled_from([1, 4000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bytes_and_digest_are_those_of_the_lines(self, lines, repeat):
        # repeat carries most lists past several CHUNK_BYTES buffers
        lines = lines * repeat
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.txt"
            try:
                expected = "".join(line + "\n" for line in lines).encode()
            except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
                with pytest.raises(UnicodeEncodeError):
                    write_lines(path, lines)
                assert os.listdir(tmp) == []
                return
            digest = write_lines(path, lines)
            assert path.read_bytes() == expected
            assert digest == file_sha256(path)
            assert os.listdir(tmp) == ["out.txt"]

    def test_failed_rewrite_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_lines(path, ["old"])

        def lines():
            yield "x" * (3 * CHUNK_BYTES)  # reaches the temp file before the failure
            raise RuntimeError("killed halfway")

        with pytest.raises(RuntimeError, match="halfway"):
            write_lines(path, lines())
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_mode_is_that_of_a_plain_write(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x\n", encoding="utf-8")
        write_lines(tmp_path / "written.txt", ["x"])
        assert (tmp_path / "written.txt").stat().st_mode == plain.stat().st_mode
