"""Shared builders for synthetic corpora and lexicon tables.

Filler words and entity surfaces draw from disjoint alphabets and length
ranges so fuzzy entity matching can never fire on filler by accident.
"""
from __future__ import annotations

import math
import random
from collections import Counter

from lowresmt.align import (
    NULL_TOKEN,
    AlignmentModel,
    AlignmentStatistics,
    WordStatistics,
    viterbi_align,
)
from lowresmt.bleu import MAX_ORDER, _ngram_counts, _shared_matches, brevity_penalty
from lowresmt.combine import CentroidChoice
from lowresmt.corpus import ParallelText, read_rows
from lowresmt.datagen import tag_languages, tag_text
from lowresmt.lexicon import LexiconTable, Mention, bind, placeholder, render_template
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


def tag_line(tokens, language, table, edit_threshold=2):
    """One line as ``lowresmt tag`` writes it: its template and its dictionary.

    The dictionary maps each placeholder, in order, to its entity id and
    the entity's first matched surface.
    """
    tagged = tag_text(ParallelText(language, {"0": tuple(tokens)}), table, edit_threshold)
    surfaces = {}
    for mention in tagged.mentions.get("0", ()):
        surfaces.setdefault(mention.entity_id, mention.surface)
    entities = tagged.entities.get("0", ())
    return (
        tuple(tagged.joined["0"].split()),
        {placeholder(index): (entity_id, surfaces[entity_id])
         for index, entity_id in enumerate(entities)},
    )


def tag_view(view, table=None, edit_threshold=2):
    """Every text of ``view`` as a pipeline run tags it: the writer's ``tagged`` input."""
    return tag_languages(view, table, edit_threshold)


def view_mentions(tagged):
    """Language -> line id -> mentions, from ``tag_view``'s result, as the oracles read them.

    Every line is keyed, a line without a mention to ``()``.
    """
    return {
        language: {lid: text.mentions.get(lid, ()) for lid in text.joined}
        for language, text in tagged.items()
    }


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
            src_tokens, tgt_tokens = oracle_pair_templates(
                view[src].lines[lid], mentions[src][lid], view[tgt].lines[lid], mentions[tgt][lid]
            )
            src_lines.append(f"__opt_src_{src} __opt_tgt_{tgt} {' '.join(src_tokens)}\n")
            tgt_lines.append(f"{' '.join(tgt_tokens)}\n")
    return "".join(src_lines).encode("utf-8"), "".join(tgt_lines).encode("utf-8")


def oracle_train_alignment(bitext, iterations=10, *, p_null=0.08) -> AlignmentModel:
    """``train_alignment`` on dict-of-dicts tables: one dict entry and float object per pair."""
    pairs = [(src, tgt) for src, tgt in bitext if src and tgt]
    cooc: dict[str, dict[str, None]] = {NULL_TOKEN: {}}
    for src, tgt in pairs:
        null_row = cooc[NULL_TOKEN]
        for t in tgt:
            null_row[t] = None
        for s in src:
            row = cooc.setdefault(s, {})
            for t in tgt:
                row[t] = None
    ttable = {s: {t: 1.0 / len(row) for t in row} for s, row in cooc.items()}

    model = AlignmentModel(ttable=ttable, p_null=p_null, iterations=iterations)
    for step in range(iterations + 1):
        final = step == iterations
        likelihood = 0.0
        counts: dict[str, dict[str, float]] = {NULL_TOKEN: {}}
        null_row, null_counts = ttable[NULL_TOKEN], counts[NULL_TOKEN]
        for src, tgt in pairs:
            prior_real = (1.0 - p_null) / len(src)
            rows = [ttable[s] for s in src]
            count_rows = [counts.setdefault(s, {}) for s in src]
            for t in tgt:
                null_score = p_null * null_row.get(t, 0.0)
                scores = [prior_real * row.get(t, 0.0) for row in rows]
                denom = null_score + sum(scores)
                likelihood += math.log(max(denom, 1e-300))
                if final or denom <= 0.0:
                    continue
                null_counts[t] = null_counts.get(t, 0.0) + null_score / denom
                for count_row, score in zip(count_rows, scores):
                    if score > 0.0:
                        count_row[t] = count_row.get(t, 0.0) + score / denom
        model.log_likelihoods.append(likelihood)
        if final:
            break
        for s, row in counts.items():
            total = sum(row.values())
            if total > 0.0:
                ttable[s] = {t: c / total for t, c in row.items()}
    return model


def oracle_viterbi_align(model, pair) -> tuple[tuple[int, int], ...]:
    """``viterbi_align`` as a loop over (source, target) cells, each looking up its row."""
    src, tgt = pair
    prior_real = (1.0 - model.p_null) / len(src) if src else 0.0
    null_row = model.ttable.get(NULL_TOKEN, {})
    links: list[tuple[int, int]] = []
    for j, t in enumerate(tgt):
        best_score = model.p_null * max(null_row.get(t, 0.0), model.epsilon)
        best_i = -1
        for i, s in enumerate(src):
            score = prior_real * model.ttable.get(s, {}).get(t, 0.0)
            if score > best_score:
                best_score = score
                best_i = i
        if best_i >= 0:
            links.append((best_i, j))
    return tuple(links)


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
        for i, j in viterbi_align(model, (src, tgt)):
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


def compensated_sum(values, start=0):
    """The builtin ``sum`` as Python 3.12 and later add floats: Neumaier-compensated."""
    total = float(start)
    compensation = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


def oracle_smoothed_bleu(matches, hyp_len, ref_len) -> float:
    """Smoothed sentence BLEU from clipped matches, one ``math.log`` per order."""
    log_sum = 0.0
    for order, match in enumerate(matches, start=1):
        total = max(hyp_len - order + 1, 0)
        if order == 1:
            precision = match / total
        else:
            precision = (match + 1) / (total + 1)
        if precision == 0.0:
            return 0.0
        log_sum += math.log(precision)
    return brevity_penalty(hyp_len, ref_len) * math.exp(log_sum / MAX_ORDER)


def oracle_select_center(line_id, candidates) -> CentroidChoice:
    """``select_center`` smoothing both directions of every pair, whatever their lengths."""
    counts = [_ngram_counts(tokens) for _, tokens in candidates]
    lengths = [len(tokens) for _, tokens in candidates]
    scores = [0.0] * len(candidates)
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            a_len, b_len = lengths[i], lengths[j]
            if not a_len or not b_len:
                value = 1.0 if a_len == b_len else 0.0
            else:
                matches = _shared_matches(counts[i], counts[j])
                value = 0.5 * (
                    oracle_smoothed_bleu(matches, a_len, b_len)
                    + oracle_smoothed_bleu(matches, b_len, a_len)
                )
            scores[i] += value
            scores[j] += value
    best = max(range(len(candidates)), key=scores.__getitem__)
    language, tokens = candidates[best]
    return CentroidChoice(line_id, language, tuple(tokens), scores[best])


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
