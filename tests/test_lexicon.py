import gc
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowresmt.lexicon
from helpers import make_entity_table, make_filler_words
from lowresmt.corpus import ParallelText
from lowresmt.datagen import pair_templates, render_sources
from lowresmt.lexicon import (
    LexiconTable,
    Mention,
    build_target_dictionary,
    detag,
    find_mentions,
    is_placeholder,
    levenshtein,
    load_lexicon,
    placeholder,
    render_template,
    tag_sentence,
)


def pair_sides(table, src, src_language, tgt, tgt_language):
    """The source and target side the stage writer emits for one line pair, untagged."""
    source = ParallelText(src_language, {"0": tuple(src)})
    target = ParallelText(tgt_language, {"0": tuple(tgt)})
    mentions = {
        src_language: {"0": find_mentions(src, src_language, table)},
        tgt_language: {"0": find_mentions(tgt, tgt_language, table)},
    }
    rendered = render_sources(source, mentions, ["0"])
    [tgt_line] = pair_templates(rendered, target, mentions, ["0"])
    return " ".join(rendered[0][0]), tgt_line


def oracle_levenshtein(a, b):
    """Brute-force full-matrix dynamic programming, kept independent."""
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
            )
    return table[-1][-1]


def oracle_render(tokens, mentions, binding):
    """Token-by-token rendering through a start -> mention map, kept independent."""
    by_start = {mention.start: mention for mention in mentions}
    out = []
    pos = 0
    while pos < len(tokens):
        mention = by_start.get(pos)
        if mention is not None:
            name = binding.get(mention.entity_id)
            if name is not None:
                out.append(name)
            else:
                out.extend(tokens[pos : mention.end])
            pos = mention.end
        else:
            out.append(tokens[pos])
            pos += 1
    return tuple(out)


@st.composite
def rendering_cases(draw):
    """Tokens, ordered disjoint mention spans over them, and a partial binding."""
    tokens = tuple(draw(st.lists(st.sampled_from(["a", "b", "Ana", "__NE3"]), max_size=12)))
    entities = ["e0", "e1", "e2", "e3"]
    mentions = []
    pos = 0
    for gap, length in draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=6)
    ):
        start = pos + gap
        end = start + length
        if end > len(tokens):
            break
        entity_id = draw(st.sampled_from(entities))
        mentions.append(Mention(start, end, entity_id, " ".join(tokens[start:end])))
        pos = end
    binding = draw(
        st.dictionaries(st.sampled_from(entities), st.sampled_from([placeholder(i) for i in range(4)]))
    )
    return tokens, mentions, binding


FOUR_NAMES = LexiconTable(
    {
        "e_andika": {"en": ["Andika"], "de": ["Andika"]},
        "e_fatma": {"en": ["Fatma"], "de": ["Fatma"]},
        "e_wati": {"en": ["Wati"], "de": ["Wati"]},
        "e_yi": {"en": ["Yi"], "de": ["Yi"]},
    }
)


class TestLoadLexicon:
    def test_basic_rows(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("e1\ten\tYi\ne1\tde\tJi\ne2\ten\tWati\n", encoding="utf-8")
        table = load_lexicon(path)
        assert len(table) == 2
        assert table.forms("e1", "de") == ["Ji"]

    def test_multiple_forms_split_on_separator(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("e1\ten\tYi||Yee\n", encoding="utf-8")
        table = load_lexicon(path)
        assert table.forms("e1", "en") == ["Yi", "Yee"]

    def test_duplicate_rows_merge(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("e1\ten\tYi\ne1\ten\tYee||Yi\n", encoding="utf-8")
        table = load_lexicon(path)
        assert table.forms("e1", "en") == ["Yi", "Yee"]

    def test_empty_form_is_an_error(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("e1\ten\tYi||\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1"):
            load_lexicon(path)

    def test_byte_order_mark_keeps_first_entity_id(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_bytes("\ufeffe1\ten\tAna\ne1\tde\tAnna\n".encode("utf-8"))
        table = load_lexicon(path)
        assert list(table.entities) == ["e1"]
        src, tgt = ["Ana", "sings"], ["Anna", "singt"]
        _, tgt_line = pair_sides(table, src, "en", tgt, "de")
        assert tgt_line == "__NE0 singt"

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("e1\ten\tYi\nbad row\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            load_lexicon(path)


class TestTagSentence:
    def test_four_entity_sentence(self):
        tokens = "Fatma asks her sister Wati to call Yi , the brother of Andika".split()
        tagged = tag_sentence(tokens, "en", FOUR_NAMES)
        assert " ".join(tagged.template) == (
            "__NE0 asks her sister __NE1 to call __NE2 , the brother of __NE3"
        )
        assert tagged.source_dict == {
            "__NE0": ("e_fatma", "Fatma"),
            "__NE1": ("e_wati", "Wati"),
            "__NE2": ("e_yi", "Yi"),
            "__NE3": ("e_andika", "Andika"),
        }

    def test_sentence_without_entities_is_unchanged(self):
        tokens = "nothing to see here".split()
        tagged = tag_sentence(tokens, "en", FOUR_NAMES)
        assert tagged.template == tuple(tokens)
        assert tagged.source_dict == {}

    def test_fuzzy_match_within_threshold(self):
        # oracle-checked distance: one trailing insertion
        assert oracle_levenshtein("andikas", "andika") == 1
        assert levenshtein("andikas", "andika") == 1
        tagged = tag_sentence("call Andikas now".split(), "en", FOUR_NAMES, 2)
        assert tagged.template == ("call", "__NE0", "now")
        assert tagged.source_dict["__NE0"] == ("e_andika", "Andikas")

    def test_fuzzy_respects_length_cap(self):
        table = LexiconTable({"e": {"en": ["Bodi"]}})
        # "Bo" is 2 edits from "Bodi", inside the threshold, but the
        # short-token cap ceil(2/3) = 1 rejects it
        assert tag_sentence(["Bo"], "en", table, 2).source_dict == {}
        # a 6-char variant at distance 2 passes: cap = ceil(6/3) = 2
        assert tag_sentence(["Bodixx"], "en", table, 2).template == ("__NE0",)

    def test_fuzzy_disabled_at_zero_threshold(self):
        tagged = tag_sentence("call Andikas now".split(), "en", FOUR_NAMES, 0)
        assert tagged.source_dict == {}

    def test_fuzzy_never_overrides_exact(self):
        table = LexiconTable(
            {"e_exact": {"en": ["Madika"]}, "e_fuzzy": {"en": ["Madikas"]}}
        )
        tagged = tag_sentence(["Madika"], "en", table, 2)
        assert tagged.source_dict["__NE0"][0] == "e_exact"

    def test_repeated_entity_shares_placeholder(self):
        tagged = tag_sentence("Yi calls Yi again".split(), "en", FOUR_NAMES)
        assert tagged.template == ("__NE0", "calls", "__NE0", "again")
        assert list(tagged.source_dict) == ["__NE0"]

    def test_multi_token_longest_match_wins(self):
        table = LexiconTable(
            {"e_simon": {"en": ["Simon"]}, "e_simon_peter": {"en": ["Simon Peter"]}}
        )
        tagged = tag_sentence("then Simon Peter spoke".split(), "en", table)
        assert tagged.template == ("then", "__NE0", "spoke")
        assert tagged.source_dict["__NE0"][0] == "e_simon_peter"

    def test_leftmost_wins_on_overlap(self):
        table = LexiconTable(
            {"e_ab": {"en": ["Alba Bruk"]}, "e_bc": {"en": ["Bruk Corin"]}}
        )
        tagged = tag_sentence("Alba Bruk Corin".split(), "en", table)
        assert tagged.template == ("__NE0", "Corin")

    def test_case_variant_matches_at_distance_zero(self):
        tagged = tag_sentence(["FATMA"], "en", FOUR_NAMES, 2)
        assert tagged.source_dict["__NE0"][0] == "e_fatma"

    def test_variable_binding_swap(self):
        table = LexiconTable({"e_ian": {"en": ["Ian"]}, "e_yi": {"en": ["Yi"]}})
        forward = tag_sentence("Ian calls Yi".split(), "en", table)
        backward = tag_sentence("Yi calls Ian".split(), "en", table)
        assert forward.template == backward.template == ("__NE0", "calls", "__NE1")
        assert forward.source_dict["__NE0"] == ("e_ian", "Ian")
        assert backward.source_dict["__NE0"] == ("e_yi", "Yi")
        assert forward.source_dict["__NE1"] == ("e_yi", "Yi")
        assert backward.source_dict["__NE1"] == ("e_ian", "Ian")


class TestTargetDictionaryAndDetag:
    def test_german_decode_restores_all_names(self):
        tokens = "Fatma asks her sister Wati to call Yi , the brother of Andika".split()
        tagged = tag_sentence(tokens, "en", FOUR_NAMES)
        target_dict = build_target_dictionary(tagged.source_dict, "de", FOUR_NAMES)
        german = "__NE0 bittet ihre Schwester __NE1 darum , __NE2 , den Bruder __NE3 , anzurufen".split()
        restored, dropped = detag(german, target_dict)
        assert " ".join(restored) == (
            "Fatma bittet ihre Schwester Wati darum , Yi , den Bruder Andika , anzurufen"
        )
        assert dropped == []

    def test_missing_target_language_copies_source_surface(self):
        tagged = tag_sentence(["Fatma"], "en", FOUR_NAMES)
        target_dict = build_target_dictionary(tagged.source_dict, "xx", FOUR_NAMES)
        assert target_dict == {"__NE0": "Fatma"}

    def test_same_entity_twice_gets_identical_surface(self):
        tagged = tag_sentence("Yi calls Yi".split(), "en", FOUR_NAMES)
        target_dict = build_target_dictionary(tagged.source_dict, "de", FOUR_NAMES)
        restored, _ = detag(("__NE0", "ruft", "__NE0"), target_dict)
        assert restored == ["Yi", "ruft", "Yi"]

    def test_template_without_placeholders_unchanged(self):
        restored, dropped = detag(("keine", "Namen", "hier"), {})
        assert restored == ["keine", "Namen", "hier"]
        assert dropped == []

    def test_unknown_placeholder_dropped_and_reported(self):
        restored, dropped = detag(("a", "__NE7", "b"), {"__NE0": "X"})
        assert restored == ["a", "b"]
        assert dropped == ["__NE7"]

    @given(
        token=st.one_of(
            st.text(max_size=8),
            st.builds("__NE".__add__, st.text(st.sampled_from("0123456789٣x_"), max_size=4)),
        )
    )
    @settings(max_examples=200, derandomize=True)
    def test_is_placeholder_is_the_full_regex_match(self, token):
        # the prefix pre-filter decides nothing the regex would not
        assert is_placeholder(token) == (re.fullmatch(r"__NE\d+", token) is not None)

    def test_multi_token_target_surface_is_spliced(self):
        table = LexiconTable({"e": {"en": ["Simon"], "fr": ["Simon Pierre"]}})
        tagged = tag_sentence(["Simon"], "en", table)
        target_dict = build_target_dictionary(tagged.source_dict, "fr", table)
        restored, _ = detag(("voici", "__NE0"), target_dict)
        assert restored == ["voici", "Simon", "Pierre"]


class TestPairTemplates:
    def test_target_reuses_source_binding_when_reordered(self):
        table = LexiconTable(
            {"e_a": {"en": ["Ana"], "de": ["Anna"]}, "e_b": {"en": ["Bodo"], "de": ["Bodo"]}}
        )
        src = "Ana calls Bodo".split()
        tgt = "Bodo wird von Anna gerufen".split()
        src_line, tgt_line = pair_sides(table, src, "en", tgt, "de")
        assert src_line == "__NE0 calls __NE1"
        assert tgt_line == "__NE1 wird von __NE0 gerufen"

    def test_target_only_entity_keeps_surface(self):
        table = LexiconTable(
            {"e_a": {"en": ["Ana"], "de": ["Anna"]}, "e_b": {"de": ["Bodo"]}}
        )
        src = "Ana sings".split()
        tgt = "Anna singt mit Bodo".split()
        _, tgt_line = pair_sides(table, src, "en", tgt, "de")
        assert tgt_line == "__NE0 singt mit Bodo"


class TestProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=80, derandomize=True)
    def test_round_trip_restores_target_surfaces(self, seed):
        rng = random.Random(seed)
        table = make_entity_table(8, ["src", "tgt"], rng)
        filler = make_filler_words(15, rng)
        tokens = rng.sample(filler, rng.randint(2, 6))
        entity_ids = rng.sample(sorted(table.entities), rng.randint(0, 4))
        for entity_id in entity_ids:
            tokens.insert(
                rng.randint(0, len(tokens)), table.forms(entity_id, "src")[0]
            )
        tagged = tag_sentence(tokens, "src", table)
        target_dict = build_target_dictionary(tagged.source_dict, "tgt", table)
        restored, dropped = detag(tagged.template, target_dict)
        entity_by_surface = {
            table.forms(eid, "src")[0]: eid for eid in entity_ids
        }
        expected = [
            table.forms(entity_by_surface[token], "tgt")[0]
            if token in entity_by_surface
            else token
            for token in tokens
        ]
        assert dropped == []
        assert restored == expected

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=80, derandomize=True)
    def test_placeholder_numbering_is_a_bijection(self, seed):
        rng = random.Random(seed)
        table = make_entity_table(10, ["src"], rng)
        filler = make_filler_words(12, rng)
        tokens = rng.sample(filler, rng.randint(1, 5))
        for entity_id in rng.sample(sorted(table.entities), rng.randint(0, 5)):
            tokens.insert(rng.randint(0, len(tokens)), table.forms(entity_id, "src")[0])
        tagged = tag_sentence(tokens, "src", table)
        names = list(tagged.source_dict)
        assert names == [placeholder(i) for i in range(len(names))]
        seen = [token for token in tagged.template if is_placeholder(token)]
        assert list(dict.fromkeys(seen)) == names

    @given(case=rendering_cases())
    @settings(max_examples=300, derandomize=True)
    def test_render_template_matches_token_by_token_oracle(self, case):
        tokens, mentions, binding = case
        assert render_template(tokens, mentions, binding) == oracle_render(tokens, mentions, binding)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=80, derandomize=True)
    def test_tag_sentence_template_is_the_pair_source_side(self, seed):
        rng = random.Random(seed)
        table = make_entity_table(8, ["src", "tgt"], rng)
        filler = make_filler_words(12, rng)
        sides = {}
        for lang in ("src", "tgt"):
            tokens = rng.sample(filler, rng.randint(1, 5))
            for entity_id in rng.sample(sorted(table.entities), rng.randint(0, 4)):
                tokens.insert(rng.randint(0, len(tokens)), table.forms(entity_id, lang)[0])
            sides[lang] = tokens
        src, tgt = sides["src"], sides["tgt"]
        src_line, _ = pair_sides(table, src, "src", tgt, "tgt")
        assert " ".join(tag_sentence(src, "src", table).template) == src_line

    def test_levenshtein_matches_oracle(self):
        rng = random.Random(3)
        alphabet = "abcde"
        for _ in range(200):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            assert levenshtein(a, b) == oracle_levenshtein(a, b)

    def test_capped_levenshtein_is_exact_up_to_the_cap(self):
        rng = random.Random(4)
        alphabet = "abcd"
        for _ in range(300):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            cap = rng.randint(0, 4)
            true_distance = oracle_levenshtein(a, b)
            capped = levenshtein(a, b, cap=cap)
            if true_distance <= cap:
                assert capped == true_distance
            else:
                assert capped == cap + 1


def oracle_find_mentions(tokens, language, table, edit_threshold):
    """``find_mentions`` by scanning every form at every position, kept independent.

    The longest exact match wins (ties by entity id, then form); else the
    single-token form with the least (distance, entity id, form) within
    min(edit_threshold, ceil(len/3)), compared casefolded.
    """
    forms = [
        (tuple(form.split()), form, entity_id)
        for entity_id in sorted(table.entities)
        for form in table.forms(entity_id, language)
    ]
    mentions = []
    pos = 0
    while pos < len(tokens):
        exact = [
            (-len(parts), entity_id, parts)
            for parts, _, entity_id in forms
            if tuple(tokens[pos : pos + len(parts)]) == parts
        ]
        matched = None
        if exact:
            _, entity_id, parts = min(exact)
            matched = Mention(pos, pos + len(parts), entity_id, " ".join(parts))
        elif edit_threshold > 0:
            cap = min(edit_threshold, -(-len(tokens[pos]) // 3))
            near = [
                (oracle_levenshtein(tokens[pos].casefold(), form.casefold()), entity_id, form)
                for parts, form, entity_id in forms
                if len(parts) == 1
            ]
            near = [key for key in near if key[0] <= cap]
            if cap > 0 and near:
                matched = Mention(pos, pos + 1, min(near)[1], tokens[pos])
        if matched is None:
            pos += 1
        else:
            mentions.append(matched)
            pos = matched.end
    return mentions


# "ß" casefolds to "ss" and "İ" to "i" plus a combining dot: both change length
FUZZY_ALPHABET = "abisS\u00df\u0130\u0307"


@st.composite
def fuzzy_cases(draw):
    """A table of single- and multi-token forms in two languages, and token lines."""
    word = st.text(FUZZY_ALPHABET, min_size=1, max_size=7)
    form = st.lists(word, min_size=1, max_size=2).map(" ".join)
    forms = st.lists(form, min_size=1, max_size=3, unique=True)
    entities = draw(st.dictionaries(
        st.sampled_from(["e0", "e1", "e2", "e3", "e4"]),
        st.dictionaries(st.sampled_from(["x", "y"]), forms, min_size=1),
        min_size=1,
    ))
    form_words = sorted({w for by_lang in entities.values() for forms in by_lang.values()
                         for f in forms for w in f.split()})
    token = st.one_of(word, st.sampled_from(form_words))
    lines = draw(st.lists(st.lists(token, max_size=8), min_size=1, max_size=4))
    return LexiconTable(entities), lines, draw(st.integers(0, 3))


class TestFuzzyIndex:
    @given(case=fuzzy_cases())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_indexed_search_equals_a_scan_of_every_form(self, case):
        table, lines, edit_threshold = case
        for language in ("x", "y"):
            for tokens in lines:
                assert find_mentions(tokens, language, table, edit_threshold) == (
                    oracle_find_mentions(tokens, language, table, edit_threshold)
                )

    def test_a_token_near_no_form_costs_no_distance_computation(self, monkeypatch):
        calls = []

        def counting(a, b, cap=None):
            calls.append((a, b))
            return levenshtein(a, b, cap)

        monkeypatch.setattr(lowresmt.lexicon, "levenshtein", counting)
        rng = random.Random(5)
        forms = make_filler_words(200, rng)
        table = LexiconTable({f"e{i:03d}": {"en": [form]} for i, form in enumerate(forms)})
        assert find_mentions(["Qzqzqzq"], "en", table, 2) == []
        assert calls == []
        variant = forms[7][:-1] + "z"  # one substitution away from one form
        assert find_mentions([variant], "en", table, 2) == [Mention(0, 1, "e007", variant)]
        assert 0 < len(calls) < len(forms)

    def test_fuzzy_search_runs_once_per_distinct_language_and_token(self, monkeypatch):
        calls = Counter()
        fuzzy_entity = lowresmt.lexicon._fuzzy_entity

        def counting(token, language, *args):
            calls[language, token] += 1
            return fuzzy_entity(token, language, *args)

        monkeypatch.setattr(lowresmt.lexicon, "_fuzzy_entity", counting)
        table = LexiconTable({"e1": {"en": ["Andika"], "de": ["Andiko"]}})
        lines = [["Andiko", "calls", "Andika"], ["calls", "Andiko", "Andiko"], ["Andika"]]
        for _ in range(3):
            for language in ("en", "de"):
                for tokens in lines:
                    find_mentions(tokens, language, table, 2)
        # every token but each language's exact form goes to the fuzzy search
        assert calls == {
            ("en", "Andiko"): 1, ("en", "calls"): 1, ("de", "Andika"): 1, ("de", "calls"): 1,
        }

    def test_alternating_languages_finds_what_a_scan_finds(self):
        # each new token in the other language rebuilds that language's index
        table = make_entity_table(20, ["en", "de"], random.Random(4))
        for index, language in enumerate(["en", "de"] * 3):
            tokens = [table.forms(f"e{index:03d}", language)[0][:-1] + "q"]
            found = find_mentions(tokens, language, table, 2)
            assert found
            assert found == oracle_find_mentions(tokens, language, table, 2)

    def test_table_holds_one_delete_index_at_a_time(self):
        # one fuzzy query per language, languages one after another, as
        # find_view_mentions searches them: memory stays at one index
        languages = [f"l{index}" for index in range(6)]
        table = make_entity_table(300, languages, random.Random(8))
        gc.collect()
        tracemalloc.start()
        try:
            find_mentions(["Qzqzqzq"], languages[0], table, 2)
            one_index = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for language in languages[1:]:
                find_mentions(["Qzqzqzq"], language, table, 2)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1.5 * one_index, (held, one_index)
        assert peak < 1.5 * one_index, (peak, one_index)
