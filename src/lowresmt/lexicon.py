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
they hit with the capped ``levenshtein``.  At depth 2 a form of length L
costs about 1 + L + L(L-1)/2 index keys; a query costs about as many
lookups for its own length plus one check per hit, instead of one check
per form of the language.  A table holds the index of one language (and
threshold) at a time, so memory stays at one language's index however
many languages are searched; a caller that alternates languages rebuilds
the index each time it switches, so search one language after another.
Decoding is deliberately forgiving because model output is untrusted:
placeholders without a dictionary entry are dropped and counted rather
than raised on.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
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

    Immutable after load by convention; the lazily built per-language
    indexes only cache derived views of the same data.
    """

    def __init__(self, entities: dict[str, dict[str, list[str]]]):
        self.entities = entities
        self._exact: dict[str, dict[str, list[tuple[tuple[str, ...], str]]]] = {}
        self._deletes_key: tuple[str, int] | None = None
        self._deletes: dict[str, list[tuple[str, str, str]]] = {}
        # (language, edit threshold) -> token -> fuzzy match, as find_mentions memoizes it
        self._fuzzy_cache: dict[tuple[str, int], dict[str, str | None]] = {}

    def __len__(self) -> int:
        return len(self.entities)

    def forms(self, entity_id: str, language: str) -> list[str]:
        return self.entities.get(entity_id, {}).get(language, [])

    def exact(self, language: str) -> dict[str, list[tuple[tuple[str, ...], str]]]:
        """First token -> (form tokens, entity id), longest form first, then by entity id."""
        if language not in self._exact:
            exact: dict[str, list[tuple[tuple[str, ...], str]]] = {}
            for entity_id, by_language in self.entities.items():
                for form in by_language.get(language, []):
                    tokens = tuple(form.split())
                    exact.setdefault(tokens[0], []).append((tokens, entity_id))
            for candidates in exact.values():
                candidates.sort(key=lambda item: (-len(item[0]), item[1], item[0]))
            self._exact[language] = exact
        return self._exact[language]

    def deletes(self, language: str, edit_threshold: int) -> dict[str, list[tuple[str, str, str]]]:
        """The symmetric-delete index of one language's single-token forms.

        Maps each string reachable from a casefolded form by at most
        ``edit_threshold`` deletions to the ``(casefolded form, form,
        entity id)`` entries of the forms that reach it.  The table holds
        one index at a time: asking for another (language, threshold)
        drops the held index before it builds the new one.
        """
        key = (language, edit_threshold)
        if self._deletes_key != key:
            self._deletes_key = None
            self._deletes = index = {}
            for entity_id, by_language in self.entities.items():
                for form in by_language.get(language, []):
                    if len(form.split()) == 1:
                        entry = (form.casefold(), form, entity_id)
                        for variant in _deletions(entry[0], edit_threshold):
                            index.setdefault(variant, []).append(entry)
            self._deletes_key = key
        return self._deletes


def _deletions(word: str, depth: int) -> set[str]:
    """``word`` and every string reachable from it by at most ``depth`` deletions."""
    found = {word}
    frontier = {word}
    for _ in range(depth):
        frontier = {
            variant[:i] + variant[i + 1 :] for variant in frontier for i in range(len(variant))
        }
        found |= frontier
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


@dataclass(frozen=True)
class Mention:
    """One entity occurrence: token span [start, end) and matched surface."""

    start: int
    end: int
    entity_id: str
    surface: str


@dataclass(frozen=True)
class TaggedSentence:
    """Placeholder template plus the ordered placeholder -> entity map."""

    template: tuple[str, ...]
    source_dict: dict[str, tuple[str, str]]


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
    ``LexiconTable.deletes`` are checked with ``levenshtein``.  The first
    fuzzy query of a language builds that index (about 1 + L + L(L-1)/2
    keys per form of length L at threshold 2) in place of the one the
    table held.  Results are memoized in the table per (language,
    threshold), so each distinct token is searched once however often it
    recurs.
    """
    exact = table.exact(language)
    fuzzy = table._fuzzy_cache.setdefault((language, edit_threshold), {})
    mentions: list[Mention] = []
    pos = 0
    n = len(tokens)
    while pos < n:
        matched = None
        for form_tokens, entity_id in exact.get(tokens[pos], ()):
            end = pos + len(form_tokens)
            if end <= n and tuple(tokens[pos:end]) == form_tokens:
                matched = Mention(pos, end, entity_id, " ".join(tokens[pos:end]))
                break
        if matched is None and edit_threshold > 0:
            token = tokens[pos]
            if token in fuzzy:
                entity_id = fuzzy[token]
            else:
                entity_id = fuzzy[token] = _fuzzy_entity(token, language, table, edit_threshold)
            if entity_id is not None:
                matched = Mention(pos, pos + 1, entity_id, tokens[pos])
        if matched is not None:
            mentions.append(matched)
            pos = matched.end
        else:
            pos += 1
    return mentions


def _fuzzy_entity(
    token: str, language: str, table: LexiconTable, edit_threshold: int
) -> str | None:
    cap = min(edit_threshold, math.ceil(len(token) / 3))
    token_cf = token.casefold()
    deletes = table.deletes(language, edit_threshold)
    hits = {hit for variant in _deletions(token_cf, cap) for hit in deletes.get(variant, ())}
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


def tag_sentence(
    tokens: Tokens, source_language: str, table: LexiconTable, edit_threshold: int = 2
) -> TaggedSentence:
    """Replace entity mentions with placeholders numbered by first appearance.

    Repeated mentions of one entity reuse one placeholder; the source
    dictionary records the first matched surface.
    """
    mentions = find_mentions(tokens, source_language, table, edit_threshold)
    binding = bind(mentions)
    source_dict: dict[str, tuple[str, str]] = {}
    for mention in mentions:
        source_dict.setdefault(binding[mention.entity_id], (mention.entity_id, mention.surface))
    return TaggedSentence(
        template=render_template(tokens, mentions, binding), source_dict=source_dict
    )


def build_target_dictionary(
    source_dict: Mapping[str, tuple[str, str]], target_language: str, table: LexiconTable
) -> TargetDictionary:
    """Map each placeholder to its first listed target surface.

    ``source_dict`` maps placeholder -> (entity id, matched source
    surface), as ``TaggedSentence.source_dict`` holds it.

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
