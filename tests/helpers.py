"""Shared builders for synthetic corpora and lexicon tables.

Filler words and entity surfaces draw from disjoint alphabets and length
ranges so fuzzy entity matching can never fire on filler by accident.
"""
from __future__ import annotations

import random
from collections import Counter

from lowresmt.align import AlignmentStatistics, WordStatistics, viterbi_align
from lowresmt.corpus import ParallelText, read_rows
from lowresmt.lexicon import LexiconTable, bind, render_template
from lowresmt.synth import make_vocab

FILLER_ALPHABET = "abcdefghijklm"
ENTITY_ALPHABET = "nopqrstuvwxyz"


def make_filler_words(count: int, rng: random.Random) -> list[str]:
    return make_vocab(count, rng, alphabet=FILLER_ALPHABET, min_len=5, max_len=9)


def make_entity_table(
    n_entities: int, languages: list[str], rng: random.Random
) -> LexiconTable:
    """Synthetic table with one distinct single-token surface per language."""
    stems = make_vocab(n_entities, rng, alphabet=ENTITY_ALPHABET, min_len=6, max_len=8)
    entities = {
        f"e{index:03d}": {lang: [f"{stem.capitalize()}{lang.capitalize()}"] for lang in languages}
        for index, stem in enumerate(stems)
    }
    return LexiconTable(entities)


def entity_sentence(
    table: LexiconTable,
    language: str,
    filler: list[str],
    rng: random.Random,
    *,
    max_entities: int = 3,
) -> tuple[list[str], list[str]]:
    """A filler sentence with entity surfaces woven in.

    Returns (tokens, entity ids in mention order).
    """
    tokens = rng.sample(filler, rng.randint(3, 7))
    entity_ids = rng.sample(sorted(table.entities), rng.randint(0, max_entities))
    for entity_id in entity_ids:
        surface = table.forms(entity_id, language)[0]
        tokens.insert(rng.randint(0, len(tokens)), surface)
    ordered = [
        next(eid for eid in entity_ids if table.forms(eid, language)[0] == token)
        for token in tokens
        if any(table.forms(eid, language)[0] == token for eid in entity_ids)
    ]
    return tokens, ordered


def oracle_pair_templates(source_tokens, source_mentions, target_tokens, target_mentions):
    """Templates for one training pair, numbering bound on the source side, example by example."""
    binding = bind(source_mentions)
    return (
        render_template(source_tokens, source_mentions, binding),
        render_template(target_tokens, target_mentions, binding),
    )


def oracle_split_bytes(pairs, view, mentions) -> tuple[bytes, bytes]:
    """The ``.src`` and ``.tgt`` bytes of one split, rendered one example at a time."""
    ids = list(view[pairs[0][0]].lines)
    src_lines, tgt_lines = [], []
    for src, tgt in pairs:
        for lid in ids:
            src_tokens, tgt_tokens = view[src].lines[lid], view[tgt].lines[lid]
            if mentions is not None:
                src_tokens, tgt_tokens = oracle_pair_templates(
                    src_tokens, mentions[src][lid], tgt_tokens, mentions[tgt][lid]
                )
            src_lines.append(f"__opt_src_{src} __opt_tgt_{tgt} {' '.join(src_tokens)}\n")
            tgt_lines.append(f"{' '.join(tgt_tokens)}\n")
    return "".join(src_lines).encode("utf-8"), "".join(tgt_lines).encode("utf-8")


def oracle_statistics(model, bitext) -> AlignmentStatistics:
    """``collect_statistics`` recounted from a distortion value per target link."""
    tallies: dict[str, list[int]] = {}
    lengths: Counter = Counter()
    for src, tgt in bitext:
        if not src or not tgt:
            continue
        lengths[len(src)] += 1
        for s in src:
            tallies.setdefault(s, [0, 0, 0, 0])
        distortion: dict[int, int] = {}
        by_source: dict[int, list[int]] = {}
        prev_i = -1
        for i, j in viterbi_align(model, (src, tgt)).links:
            distortion[j] = (i - prev_i) - 1
            prev_i = i
            by_source.setdefault(i, []).append(j)
        for i, linked in by_source.items():
            tally = tallies[src[i]]
            tally[0] += 1
            monotone = all(distortion[j] == 0 for j in linked)
            if len(linked) == 1:
                tally[1] += 1
                if monotone:
                    tally[3] += 1
            if monotone:
                tally[2] += 1
    words = {
        word: WordStatistics(
            n_obs=n,
            p_fert1=f / n if n else 0.0,
            p_dist0=d / n if n else 0.0,
            p_joint=j / n if n else 0.0,
        )
        for word, (n, f, d, j) in tallies.items()
    }
    return AlignmentStatistics(words=words, source_lengths=dict(lengths))


def parallel_from_lines(language: str, rows: list[tuple[str, list[str]]]) -> ParallelText:
    return ParallelText(language, {lid: tuple(tokens) for lid, tokens in rows})


def read_model_rows(path) -> tuple[dict[str, str], dict[str, dict[str, float]]]:
    """The ``#`` header values and the translation table of an ``align`` model file."""
    headers: dict[str, str] = {}
    ttable: dict[str, dict[str, float]] = {}
    for _, fields in read_rows(path):
        if fields[0].startswith("#"):
            key, value = fields
            headers[key] = value
        else:
            source, target, prob = fields
            ttable.setdefault(source, {})[target] = float(prob)
    return headers, ttable


def read_statistics_rows(path) -> tuple[dict[int, int], dict[str, WordStatistics]]:
    """The source length histogram and per-word rates of an ``align`` statistics file."""
    lengths: dict[int, int] = {}
    words: dict[str, WordStatistics] = {}
    for _, fields in read_rows(path):
        if fields[0] == "#source_length":
            lengths[int(fields[1])] = int(fields[2])
        else:
            word, n_obs, p_fert1, p_dist0, p_joint = fields
            words[word] = WordStatistics(int(n_obs), float(p_fert1), float(p_dist0), float(p_joint))
    return lengths, words
