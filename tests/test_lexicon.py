import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowresmt.lexicon
from helpers import (
    make_entity_table,
    make_filler_words,
    oracle_find_mentions,
    oracle_levenshtein,
    tag_line,
    tag_view,
)
from lowresmt.corpus import ParallelText
from lowresmt.datagen import _split_lines, pair_templates
from lowresmt.lexicon import (
    LexiconTable,
    Mention,
    _deletions,
    absent_languages,
    build_target_dictionary,
    detag,
    find_mentions,
    is_placeholder,
    levenshtein,
    load_lexicon,
    placeholder,
    render_template,
)


def pair_sides(table, src, src_language, tgt, tgt_language):
    """The source and target side the stage writer emits for one line pair, untagged."""
    target = ParallelText(tgt_language, {"0": tuple(tgt)})
    view = {src_language: ParallelText(src_language, {"0": tuple(src)}), tgt_language: target}
    tagged = tag_view(view, table)
    [src_line], src_entities = _split_lines(tagged[src_language], ["0"])
    rendered = _split_lines(tagged[tgt_language], ["0"])
    [tgt_line] = pair_templates(src_entities, tagged[tgt_language], rendered, ["0"])
    return src_line, tgt_line


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
        assert len(table.entities) == 2
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

    def test_absent_languages_names_each_language_without_a_form_in_order(self):
        table = LexiconTable({"e1": {"en": ["Andika"]}, "e2": {"de": ["Andiko"], "fr": ["Andiq"]}})
        assert absent_languages(table, ["xx", "fr", "en", "yy", "de"]) == ["xx", "yy"]


class TestTagSentence:
    def test_four_entity_sentence(self):
        tokens = "Fatma asks her sister Wati to call Yi , the brother of Andika".split()
        template, source_dict = tag_line(tokens, "en", FOUR_NAMES)
        assert " ".join(template) == (
            "__NE0 asks her sister __NE1 to call __NE2 , the brother of __NE3"
        )
        assert source_dict == {
            "__NE0": ("e_fatma", "Fatma"),
            "__NE1": ("e_wati", "Wati"),
            "__NE2": ("e_yi", "Yi"),
            "__NE3": ("e_andika", "Andika"),
        }

    def test_sentence_without_entities_is_unchanged(self):
        tokens = "nothing to see here".split()
        template, source_dict = tag_line(tokens, "en", FOUR_NAMES)
        assert template == tuple(tokens)
        assert source_dict == {}

    def test_fuzzy_match_within_threshold(self):
        # oracle-checked distance: one trailing insertion
        assert oracle_levenshtein("andikas", "andika") == 1
        assert levenshtein("andikas", "andika") == 1
        template, source_dict = tag_line("call Andikas now".split(), "en", FOUR_NAMES, 2)
        assert template == ("call", "__NE0", "now")
        assert source_dict["__NE0"] == ("e_andika", "Andikas")

    def test_fuzzy_respects_length_cap(self):
        table = LexiconTable({"e": {"en": ["Bodi"]}})
        # "Bo" is 2 edits from "Bodi", inside the threshold, but the
        # short-token cap ceil(2/3) = 1 rejects it
        assert tag_line(["Bo"], "en", table, 2)[1] == {}
        # a 6-char variant at distance 2 passes: cap = ceil(6/3) = 2
        assert tag_line(["Bodixx"], "en", table, 2)[0] == ("__NE0",)

    def test_fuzzy_disabled_at_zero_threshold(self):
        _, source_dict = tag_line("call Andikas now".split(), "en", FOUR_NAMES, 0)
        assert source_dict == {}

    def test_fuzzy_never_overrides_exact(self):
        table = LexiconTable(
            {"e_exact": {"en": ["Madika"]}, "e_fuzzy": {"en": ["Madikas"]}}
        )
        _, source_dict = tag_line(["Madika"], "en", table, 2)
        assert source_dict["__NE0"][0] == "e_exact"

    def test_repeated_entity_shares_placeholder(self):
        template, source_dict = tag_line("Yi calls Yi again".split(), "en", FOUR_NAMES)
        assert template == ("__NE0", "calls", "__NE0", "again")
        assert list(source_dict) == ["__NE0"]

    def test_multi_token_longest_match_wins(self):
        table = LexiconTable(
            {"e_simon": {"en": ["Simon"]}, "e_simon_peter": {"en": ["Simon Peter"]}}
        )
        template, source_dict = tag_line("then Simon Peter spoke".split(), "en", table)
        assert template == ("then", "__NE0", "spoke")
        assert source_dict["__NE0"][0] == "e_simon_peter"

    def test_leftmost_wins_on_overlap(self):
        table = LexiconTable(
            {"e_ab": {"en": ["Alba Bruk"]}, "e_bc": {"en": ["Bruk Corin"]}}
        )
        template, _ = tag_line("Alba Bruk Corin".split(), "en", table)
        assert template == ("__NE0", "Corin")

    def test_case_variant_matches_at_distance_zero(self):
        _, source_dict = tag_line(["FATMA"], "en", FOUR_NAMES, 2)
        assert source_dict["__NE0"][0] == "e_fatma"

    def test_variable_binding_swap(self):
        table = LexiconTable({"e_ian": {"en": ["Ian"]}, "e_yi": {"en": ["Yi"]}})
        forward, forward_dict = tag_line("Ian calls Yi".split(), "en", table)
        backward, backward_dict = tag_line("Yi calls Ian".split(), "en", table)
        assert forward == backward == ("__NE0", "calls", "__NE1")
        assert forward_dict["__NE0"] == ("e_ian", "Ian")
        assert backward_dict["__NE0"] == ("e_yi", "Yi")
        assert forward_dict["__NE1"] == ("e_yi", "Yi")
        assert backward_dict["__NE1"] == ("e_ian", "Ian")


class TestTargetDictionaryAndDetag:
    def test_german_decode_restores_all_names(self):
        tokens = "Fatma asks her sister Wati to call Yi , the brother of Andika".split()
        _, source_dict = tag_line(tokens, "en", FOUR_NAMES)
        target_dict = build_target_dictionary(source_dict, "de", FOUR_NAMES)
        german = "__NE0 bittet ihre Schwester __NE1 darum , __NE2 , den Bruder __NE3 , anzurufen".split()
        restored, dropped = detag(german, target_dict)
        assert " ".join(restored) == (
            "Fatma bittet ihre Schwester Wati darum , Yi , den Bruder Andika , anzurufen"
        )
        assert dropped == []

    def test_missing_target_language_copies_source_surface(self):
        _, source_dict = tag_line(["Fatma"], "en", FOUR_NAMES)
        target_dict = build_target_dictionary(source_dict, "xx", FOUR_NAMES)
        assert target_dict == {"__NE0": "Fatma"}

    def test_same_entity_twice_gets_identical_surface(self):
        _, source_dict = tag_line("Yi calls Yi".split(), "en", FOUR_NAMES)
        target_dict = build_target_dictionary(source_dict, "de", FOUR_NAMES)
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
        _, source_dict = tag_line(["Simon"], "en", table)
        target_dict = build_target_dictionary(source_dict, "fr", table)
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
        template, source_dict = tag_line(tokens, "src", table)
        target_dict = build_target_dictionary(source_dict, "tgt", table)
        restored, dropped = detag(template, target_dict)
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
        template, source_dict = tag_line(tokens, "src", table)
        names = list(source_dict)
        assert names == [placeholder(i) for i in range(len(names))]
        seen = [token for token in template if is_placeholder(token)]
        assert list(dict.fromkeys(seen)) == names

    @given(case=rendering_cases())
    @settings(max_examples=300, derandomize=True)
    def test_render_template_matches_token_by_token_oracle(self, case):
        tokens, mentions, binding = case
        assert render_template(tokens, mentions, binding) == oracle_render(tokens, mentions, binding)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=80, derandomize=True)
    def test_tag_template_is_the_pair_source_side(self, seed):
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
        assert " ".join(tag_line(src, "src", table)[0]) == src_line

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


@st.composite
def search_runs(draw):
    """A small lexicon, token lines and a run of searches over one table.

    Some form of entity ``ez`` is two tokens, and its first token also
    stands alone in a line before the line holding the whole form; other
    lines reuse the forms' words.  The run alternates languages and
    thresholds in a drawn order, then searches every line under every
    language and threshold, so the memo and the plain set are warm.
    """
    word = st.text("abcdS", min_size=1, max_size=6)
    form = st.lists(word, min_size=1, max_size=3).map(" ".join)
    entities = draw(st.dictionaries(
        st.sampled_from(["e0", "e1", "e2", "e3"]),
        st.dictionaries(st.sampled_from(["x", "y"]), st.lists(form, min_size=1, max_size=3,
                                                             unique=True), min_size=1),
    ))
    first, rest = draw(word), draw(word)
    entities["ez"] = {draw(st.sampled_from(["x", "y"])): [f"{first} {rest}"]}
    form_words = sorted({w for by_lang in entities.values() for forms in by_lang.values()
                         for f in forms for w in f.split()})
    token = st.one_of(word, st.sampled_from(form_words))
    lines = draw(st.lists(st.lists(token, max_size=8), max_size=4))
    lines += [[first], [first, rest]]
    searches = draw(st.lists(st.tuples(
        st.integers(0, len(lines) - 1), st.sampled_from(["x", "y"]), st.integers(0, 2)
    ), max_size=12))
    searches += [(index, language, threshold) for threshold in (0, 1, 2)
                 for language in ("x", "y") for index in range(len(lines))]
    return entities, lines, searches


class TestPlainSet:
    @given(case=search_runs())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_a_warm_table_finds_what_a_fresh_table_and_a_scan_find(self, case):
        entities, lines, searches = case
        warm = LexiconTable(entities)
        # the pipeline searches each language with a table of its forms alone
        warm_per_language = {language: warm.for_language(language) for language in ("x", "y")}
        for index, language, threshold in searches:
            tokens = lines[index]
            found = find_mentions(tokens, language, warm, threshold)
            assert found == find_mentions(tokens, language, LexiconTable(entities), threshold)
            assert found == oracle_find_mentions(tokens, language, warm, threshold)
            assert found == find_mentions(tokens, language, warm_per_language[language], threshold)

    def test_a_forms_first_token_never_joins_the_plain_set(self):
        table = LexiconTable({"e1": {"en": ["Andika", "Yohana Mkubwa"]}})
        assert find_mentions(["calls", "Yohana", "home"], "en", table, 2) == []
        _, _, _, plain = table.index("en", 2)
        # a form's first token never joins the set, however it fared
        assert plain == {"calls", "home"}
        assert find_mentions(["Yohana", "Mkubwa", "calls"], "en", table, 2) == [
            Mention(0, 2, "e1", "Yohana Mkubwa")
        ]


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

        def counting(token, *args):
            # `language` is the loop variable below: the running find_mentions call's
            calls[language, token] += 1
            return fuzzy_entity(token, *args)

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

    def test_find_mentions_fetches_the_index_once_per_call(self, monkeypatch):
        fetches = []
        index = LexiconTable.index

        def counting(self, language, edit_threshold):
            fetches.append(language)
            return index(self, language, edit_threshold)

        monkeypatch.setattr(LexiconTable, "index", counting)
        table = LexiconTable({"e1": {"en": ["Andika"]}, "e2": {"en": ["Yohana"]}})
        # every token is new and goes to the fuzzy search
        lines = [["Andiko", "calls", "Yohane"], ["Andiku", "sees", "Yohanna", "there"]]
        found = [find_mentions(tokens, "en", table, 2) for tokens in lines]
        assert found == [
            [Mention(0, 1, "e1", "Andiko"), Mention(2, 3, "e2", "Yohane")],
            [Mention(0, 1, "e1", "Andiku"), Mention(2, 3, "e2", "Yohanna")],
        ]
        assert fetches == ["en", "en"]

    def test_alternating_languages_finds_what_a_scan_finds(self):
        # each language's first search builds its index, and the other's is kept
        table = make_entity_table(20, ["en", "de"], random.Random(4))
        for index, language in enumerate(["en", "de"] * 3):
            tokens = [table.forms(f"e{index:03d}", language)[0][:-1] + "q"]
            found = find_mentions(tokens, language, table, 2)
            assert found
            assert found == oracle_find_mentions(tokens, language, table, 2)


def oracle_deletions(word, depth):
    """Every string left after dropping at most ``depth`` positions of ``word``."""
    return {
        "".join(ch for i, ch in enumerate(word) if i not in dropped)
        for count in range(min(depth, len(word)) + 1)
        for dropped in itertools.combinations(range(len(word)), count)
    }


@given(word=st.text(alphabet="abAé", max_size=9), depth=st.integers(0, 3))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_deletions_match_the_combinations_oracle(word, depth):
    assert _deletions(word, depth) == oracle_deletions(word, depth)
