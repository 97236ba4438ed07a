"""Order-preserving named-entity tagging and decoding.

Entities are replaced by sequential placeholders (__NE0, __NE1, ...)
before translation and restored from a per-sentence target dictionary
afterwards, so bindings like who-calls-whom survive a reordering
translator.  Tagging is dictionary lookup first (longest match wins,
multi-token surfaces allowed), then a small-edit-distance fallback for
single tokens.  The fallback looks a token up in a symmetric-delete
index (as in SymSpell): every string reachable from a casefolded
single-token form by at most ``edit_threshold`` deletions maps to that
form, so a query looks up its own deletions and checks only the forms
they hit with the capped ``levenshtein``.  Index and query make their
neighbourhoods alike, from ``itertools.combinations`` of the positions
kept: at depth 2 a word of length L gives at most 1 + L + L(L-1)/2
strings.  A query meets the index in one set intersection, then makes
one check per hit, instead of one check per form of the language.  One
pass builds a language's exact and delete indexes, and a table holds one
(language, threshold)'s at a time, so memory stays at one language's
however many are searched; a caller that alternates languages rebuilds
them at each switch, so search one language after another.  Fuzzy
matches stay memoized for every language searched, and so do the tokens
known to start no mention, which a scan skips.
Decoding is deliberately forgiving because model output is untrusted:
placeholders without a dictionary entry are dropped and counted rather
than raised on.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import read_rows

Tokens = Sequence[str]

PLACEHOLDER_PREFIX = "__NE"
_PLACEHOLDER_RE = re.compile(r"__NE\d+")


def placeholder(index: int) -> str:
    return f"{PLACEHOLDER_PREFIX}{index}"


def is_placeholder(token: str) -> bool:
    # the prefix test spares most tokens the regex
    return token.startswith(PLACEHOLDER_PREFIX) and _PLACEHOLDER_RE.fullmatch(token) is not None


def levenshtein(a: str, b: str, cap: int | None = None) -> int:
    """Two-row dynamic-programming edit distance.

    With a cap, stops as soon as the distance provably exceeds it and
    returns cap + 1; results at or below the cap are exact.
    """
    if len(a) < len(b):
        a, b = b, a
    if cap is not None and len(a) - len(b) > cap:
        return cap + 1
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        if cap is not None and min(current) > cap:
            return cap + 1
        previous = current
    return previous[len(b)]


class LexiconTable:
    """Entity id -> language -> surface forms, with cached match indexes.

    Immutable after load by convention; the lazily built indexes only
    cache derived views of the same data.
    """

    def __init__(self, entities: dict[str, dict[str, list[str]]]):
        self.entities = entities
        self._index_key: tuple[str, int] | None = None
        self._index: tuple[dict, dict, dict, set] | None = None
        # (language, edit threshold) -> token -> fuzzy match, kept for every key searched
        self._fuzzy_cache: dict[tuple[str, int], dict[str, str | None]] = {}
        # (language, edit threshold) -> tokens that start no mention, kept likewise
        self._plain_cache: dict[tuple[str, int], set[str]] = {}

    def forms(self, entity_id: str, language: str) -> list[str]:
        return self.entities.get(entity_id, {}).get(language, [])

    def for_language(self, language: str) -> "LexiconTable":
        """A table of ``language``'s forms alone, which searches it as this one does."""
        return LexiconTable({
            entity_id: {language: by_language[language]}
            for entity_id, by_language in self.entities.items()
            if language in by_language
        })

    def index(self, language: str, edit_threshold: int) -> tuple[dict, dict, dict, set]:
        """One language's exact index, delete index, fuzzy memo and plain set, in one pass.

        Exact: first token -> (form tokens, entity id), longest form first,
        then by entity id.  Delete: each string reachable from a casefolded
        single-token form by at most ``edit_threshold`` deletions -> the
        (casefolded form, form, entity id) of the forms that reach it;
        empty at threshold 0, which never queries it.  Plain: the tokens
        ``find_mentions`` has found to start no mention.  The table holds
        one (language, threshold)'s indexes at a time, dropping the held
        ones before it builds others; the memo and the plain set of every
        key asked for are kept.
        """
        key = (language, edit_threshold)
        if self._index_key != key:
            self._index_key = self._index = None
            exact: dict[str, list[tuple[tuple[str, ...], str]]] = {}
            deletes: dict[str, list[tuple[str, str, str]]] = {}
            for entity_id, by_language in self.entities.items():
                for form in by_language.get(language, []):
                    tokens = tuple(form.split())
                    exact.setdefault(tokens[0], []).append((tokens, entity_id))
                    if edit_threshold > 0 and len(tokens) == 1:
                        entry = (form.casefold(), form, entity_id)
                        for variant in _deletions(entry[0], edit_threshold):
                            deletes.setdefault(variant, []).append(entry)
            for candidates in exact.values():
                candidates.sort(key=lambda item: (-len(item[0]), item[1], item[0]))
            self._index = (
                exact,
                deletes,
                self._fuzzy_cache.setdefault(key, {}),
                self._plain_cache.setdefault(key, set()),
            )
            self._index_key = key
        return self._index


def _deletions(word: str, depth: int) -> set[str]:
    """``word`` and every string left after deleting at most ``depth`` of its positions.

    ``combinations`` keeps each set of len(word) - k positions once, in
    order, for k = 1..min(depth, len(word)).
    """
    found = {word}
    for k in range(1, min(depth, len(word)) + 1):
        found.update(map("".join, combinations(word, len(word) - k)))
    return found


def load_lexicon(path: str | Path) -> LexiconTable:
    """Read entity<TAB>language<TAB>form1||form2... rows.

    Duplicate (entity, language) rows merge their form lists, keeping
    first-seen order.
    """
    entities: dict[str, dict[str, list[str]]] = {}
    for number, parts in read_rows(path):
        if len(parts) != 3:
            raise ValueError(f"{path}:{number}: expected entity<TAB>language<TAB>forms")
        entity_id, language, forms_field = parts
        forms = [form.strip() for form in forms_field.split("||")]
        if not entity_id or not language or any(not form for form in forms):
            raise ValueError(f"{path}:{number}: empty field")
        bucket = entities.setdefault(entity_id, {}).setdefault(language, [])
        for form in forms:
            if form not in bucket:
                bucket.append(form)
    if not entities:
        raise ValueError(f"{path}: no lexicon rows")
    return LexiconTable(entities)


def absent_languages(table: LexiconTable, languages: Iterable[str]) -> list[str]:
    """Those of ``languages``, in order, that the table holds no form in: a scan, no index."""
    held = {language for by_language in table.entities.values() for language in by_language}
    return [language for language in languages if language not in held]


# slotted: the pipeline holds one per entity occurrence in all its texts
@dataclass(frozen=True, slots=True)
class Mention:
    """One entity occurrence: token span [start, end) and matched surface."""

    start: int
    end: int
    entity_id: str
    surface: str

    def __reduce__(self):
        # the fields as arguments pickle in about half the time of slot state
        return Mention, (self.start, self.end, self.entity_id, self.surface)


TargetDictionary = dict[str, str]


def find_mentions(
    tokens: Tokens, language: str, table: LexiconTable, edit_threshold: int = 2
) -> list[Mention]:
    """Scan left to right for entity mentions.

    At each position the longest exact surface match wins (ties by
    entity id); only if nothing matches exactly is the single token
    tried against single-token forms at Levenshtein distance at most
    min(edit_threshold, ceil(len/3)), case-insensitively, ties broken
    by (distance, entity id, form).

    The fallback is exact but indexed: a form within distance d of the
    token shares with it a string reachable from both by at most d
    deletions, so only forms under one of the token's deletions in
    ``LexiconTable.index``'s delete index are checked with ``levenshtein``.
    A query of length L makes at most 1 + L + L(L-1)/2 deletions at cap 2
    (1 + L at cap 1), meets the index's keys with one set intersection
    and checks each form under the keys it shares.  Each call fetches the
    language's indexes from the table once, for all its tokens; a
    language's first line builds its exact and delete indexes (at most
    1 + L + L(L-1)/2 keys per form of length L at threshold 2) in place
    of the ones the table held.  Fuzzy results are memoized per
    (language, threshold), across switches of language, so each distinct
    token is searched once however often it recurs.

    A token that is the first token of no form can start a mention only
    fuzzily.  Once its fuzzy search finds nothing (at threshold 0, at
    once), it can start none in any line, so it joins the (language,
    threshold)'s plain set, kept as the memo is.  A line made only of
    plain tokens costs one ``issuperset``, and other lines step over
    them.  A form's first token never joins the set: whether it starts a
    mention depends on the tokens after it.
    """
    exact, deletes, fuzzy, plain = table.index(language, edit_threshold)
    if plain.issuperset(tokens):
        return []
    mentions: list[Mention] = []
    pos = 0
    n = len(tokens)
    while pos < n:
        token = tokens[pos]
        if token in plain:
            pos += 1
            continue
        matched = None
        starts = exact.get(token, ())
        for form_tokens, entity_id in starts:
            end = pos + len(form_tokens)
            if end <= n and tuple(tokens[pos:end]) == form_tokens:
                matched = Mention(pos, end, entity_id, " ".join(tokens[pos:end]))
                break
        if matched is None:
            entity_id = None
            if edit_threshold > 0:
                if token in fuzzy:
                    entity_id = fuzzy[token]
                else:
                    entity_id = fuzzy[token] = _fuzzy_entity(token, deletes, edit_threshold)
            if entity_id is not None:
                matched = Mention(pos, pos + 1, entity_id, token)
            elif not starts:
                plain.add(token)
        if matched is not None:
            mentions.append(matched)
            pos = matched.end
        else:
            pos += 1
    return mentions


def _fuzzy_entity(token: str, deletes: dict, edit_threshold: int) -> str | None:
    cap = min(edit_threshold, math.ceil(len(token) / 3))
    token_cf = token.casefold()
    hits = {hit for key in deletes.keys() & _deletions(token_cf, cap) for hit in deletes[key]}
    # (distance, entity id, form) is a total key, so the order of the checks is moot
    keys = (
        (levenshtein(token_cf, form_cf, cap=cap), entity_id, form)
        for form_cf, form, entity_id in hits
    )
    _, best_entity, _ = min((key for key in keys if key[0] <= cap), default=(None, None, None))
    return best_entity


def bind(mentions: Iterable[Mention]) -> dict[str, str]:
    """Entity id -> placeholder, numbered by each entity's first mention."""
    binding: dict[str, str] = {}
    for mention in mentions:
        if mention.entity_id not in binding:
            binding[mention.entity_id] = placeholder(len(binding))
    return binding


def render_template(
    tokens: Tokens, mentions: Sequence[Mention], binding: Mapping[str, str]
) -> tuple[str, ...]:
    """Substitute mention spans with their bound placeholders.

    ``mentions`` must be ordered and disjoint, as ``find_mentions``
    returns them; the token runs between bound spans are copied as
    slices.  Mentions of entities absent from the binding keep their
    surface tokens untouched.
    """
    out: list[str] = []
    pos = 0
    for mention in mentions:
        name = binding.get(mention.entity_id)
        if name is not None:
            out.extend(tokens[pos : mention.start])
            out.append(name)
            pos = mention.end
    out.extend(tokens[pos:])
    return tuple(out)


def build_target_dictionary(
    source_dict: Mapping[str, tuple[str, str]], target_language: str, table: LexiconTable
) -> TargetDictionary:
    """Map each placeholder to its first listed target surface.

    ``source_dict`` maps placeholder -> (entity id, matched source
    surface) for one line, as ``tag --dicts`` writes it.

    Entities missing in the target language fall back to the matched
    source surface, which at least carries the name across.
    """
    out: TargetDictionary = {}
    for name, (entity_id, surface) in source_dict.items():
        forms = table.forms(entity_id, target_language)
        out[name] = forms[0] if forms else surface
    return out


def detag(
    template_tokens: Tokens, target_dict: Mapping[str, str]
) -> tuple[list[str], list[str]]:
    """Substitute placeholders from the dictionary; surroundings untouched.

    Returns the decoded tokens and the list of placeholders that had no
    dictionary entry and were therefore dropped.
    """
    tokens: list[str] = []
    dropped: list[str] = []
    for token in template_tokens:
        if is_placeholder(token):
            surface = target_dict.get(token)
            if surface is None:
                dropped.append(token)
            else:
                tokens.extend(surface.split())
        else:
            tokens.append(token)
    return tokens, dropped
