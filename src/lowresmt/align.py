"""Lexical translation model trained by expectation-maximization.

The model family is deliberately small: a translation table t(target |
source) over co-occurring word pairs, a dedicated null source token, and
a fixed null-alignment prior.  Given a sentence pair, each target token
is generated by one source token or by null; the prior puts ``p_null``
mass on null and spreads the rest uniformly over real source positions.
Length conditioning is pooled over all sentence lengths, which is the
right trade at the ~1,000-line corpus sizes this is built for.

Training gives each source word a slot map, built once: every target
word it co-occurs with -> an index, in first co-occurrence order.  The
word's probabilities, and each iteration's expected counts, are
``array("d")`` rows over those slots, 8 bytes an entry where a dict
entry plus a float object took several times that; only the returned
table is a dict of dicts.  Right after the slot maps, training builds a
slot grid: for every pair, each target token's null slot and its slot
in each source word's row, as integer arrays.  Every expectation pass
walks the grid, so no pass looks a slot up by word, and each slot map
shrinks to a tuple of its words.  On 1,000 lines of 15-30 tokens over
2,000 types against a 10%-noised copy (485k table entries, 10
iterations), training takes 2.4-2.7 s against 3.8-4.1 s when each pass
looked up every (source, target) cell's slot, and peaks at 24.5 MiB
traced for a 23.9 MiB returned model, where dict-of-dicts tables peaked
at 61.4 MiB (2 CPUs, Python 3.11).

Hard (Viterbi) alignments from the trained table drive the per-word
fertility and distortion statistics that the ranking metrics consume.
Everything here is deterministic: uniform initialization, fixed
iteration counts, no sampling.
"""
from __future__ import annotations

import logging
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import write_lines

log = logging.getLogger(__name__)

NULL_TOKEN = "<null>"

Tokens = Sequence[str]
Bitext = Sequence[tuple[Tokens, Tokens]]


@dataclass
class AlignmentModel:
    """Translation table plus the constants needed to decode with it.

    Every row of ``ttable`` (including the null token's row) is a
    probability distribution over target word types.
    """

    ttable: dict[str, dict[str, float]]
    p_null: float = 0.08
    epsilon: float = 1e-9
    iterations: int = 0
    log_likelihoods: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class WordStatistics:
    """Empirical rates for one source word type over its aligned occurrences."""

    n_obs: int
    p_fert1: float
    p_dist0: float
    p_joint: float


@dataclass(frozen=True)
class AlignmentStatistics:
    """Per-word fertility/distortion rates plus the source length histogram."""

    words: dict[str, WordStatistics]
    source_lengths: dict[int, int]


def _usable_pairs(bitext: Bitext) -> list[tuple[Tokens, Tokens]]:
    pairs = [(src, tgt) for src, tgt in bitext if src and tgt]
    skipped = len(bitext) - len(pairs)
    if skipped:
        log.warning("skipped %d sentence pair(s) with an empty side", skipped)
    if not pairs:
        raise ValueError("no usable sentence pairs (all had an empty side)")
    return pairs


def _slot_grid(
    pairs: list[tuple[Tokens, Tokens]],
) -> tuple[dict[str, tuple[str, ...]], list[tuple[Tokens, array, array]]]:
    """Each word's co-occurring target words in slot order, and every pair's slot grid.

    A word's slots index its probability and count rows: one per target
    word it co-occurs with, in first co-occurrence order; the null row
    co-occurs with everything.  A pair's grid entry is (source tokens,
    null cells, cells): each target token's null slot, then, target
    major, that token's slot in each source word's row, stored in the
    narrowest array typecode that holds the widest row's last slot.
    """
    slots: dict[str, dict[str, int]] = {NULL_TOKEN: {}}
    null_slots = slots[NULL_TOKEN]
    for src, tgt in pairs:
        for t in tgt:
            null_slots.setdefault(t, len(null_slots))
        for s in src:
            row = slots.setdefault(s, {})
            for t in tgt:
                row.setdefault(t, len(row))
    widest = max(map(len, slots.values()))
    code = next(c for c in "BHI" if widest <= 1 << 8 * array(c).itemsize)
    grid = []
    for src, tgt in pairs:
        slot_maps = [slots[s] for s in src]
        null_cells = array(code, [null_slots[t] for t in tgt])
        cells = array(code, [slot_map[t] for t in tgt for slot_map in slot_maps])
        grid.append((src, null_cells, cells))
    # a dict costs about 5x a tuple per slot, and the table build needs only the words
    for s in slots:
        slots[s] = tuple(slots[s])
    return slots, grid


def train_alignment(
    bitext: Bitext, iterations: int = 10, *, p_null: float = 0.08
) -> AlignmentModel:
    """EM-train the lexical table on a bitext, source side conditioning.

    Rows start uniform over co-occurring target words (the null row
    co-occurs with everything), so the first expectation step is well
    defined without smoothing.  Each iteration is one pass over the
    pairs: the E-step's per-token denominators are exactly the model's
    likelihood terms, so the pass records the corpus log-likelihood of
    the current table while it gathers the expected counts.  A final
    pass scores the last table, so ``log_likelihoods`` holds
    ``iterations + 1`` values (entry i is the table after i M-steps)
    and is non-decreasing.

    Slots are fixed once the slot maps exist, so every pass walks the
    slot grid built with them; the grid holds one 1-, 2- or 4-byte cell
    per (source, target) token pair plus one per target token, about
    1.2 MiB at 1,000 lines of 15-30 tokens, and is freed before the table
    is built.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not 0.0 < p_null < 1.0:
        raise ValueError("p_null must lie strictly between 0 and 1")
    pairs = _usable_pairs(bitext)

    slots, grid = _slot_grid(pairs)
    probs = {s: array("d", [1.0 / len(row)]) * len(row) for s, row in slots.items()}

    log_likelihoods: list[float] = []
    for step in range(iterations + 1):
        final = step == iterations
        likelihood = 0.0
        # the final pass only scores the last table, so it gathers no counts
        counts = {} if final else {s: array("d", bytes(8 * len(row))) for s, row in slots.items()}
        null_row, null_counts = probs[NULL_TOKEN], counts.get(NULL_TOKEN)
        for src, null_cells, cells in grid:
            prior_real = (1.0 - p_null) / len(src)
            rows = [probs[s] for s in src]
            count_rows = [counts.get(s) for s in src]
            for null_slot, indices in zip(null_cells, zip(*[iter(cells)] * len(src))):
                null_score = p_null * null_row[null_slot]
                scores = [prior_real * row[i] for row, i in zip(rows, indices)]
                denom = null_score + sum(scores)
                likelihood += math.log(max(denom, 1e-300))
                if final or denom <= 0.0:
                    continue
                null_counts[null_slot] += null_score / denom
                # a zero score adds +0.0 to a non-negative count, which changes no bit
                for count_row, i, score in zip(count_rows, indices, scores):
                    count_row[i] += score / denom
        log_likelihoods.append(likelihood)
        # M-step: each count row, normalised in place, becomes its word's probabilities
        for s, count_row in counts.items():
            total = sum(count_row)
            if total > 0.0:
                for i, c in enumerate(count_row):
                    count_row[i] = c / total
                probs[s] = count_row

    del grid
    # a slot at 0.0 drew no expected count, so the table gets no entry for it;
    # each word's slots and probabilities are freed as its table row is built
    ttable = {}
    for s in list(slots):
        ttable[s] = {t: p for t, p in zip(slots.pop(s), probs.pop(s)) if p != 0.0}
    return AlignmentModel(
        ttable=ttable, p_null=p_null, iterations=iterations, log_likelihoods=log_likelihoods
    )


def viterbi_align(
    model: AlignmentModel, pair: tuple[Tokens, Tokens]
) -> tuple[tuple[int, int], ...]:
    """Link each target token to its argmax source token, or to null.

    Returns (source index, target index) links ordered by target index; a
    target decoded to null has none.  Ties between real source tokens
    break toward the lowest index.  The null option's translation
    probability is floored at epsilon, so a target word the model has
    never seen falls to null rather than to an arbitrary source token.
    """
    src, tgt = pair
    prior_real = (1.0 - model.p_null) / len(src) if src else 0.0
    empty: dict[str, float] = {}
    null_row = model.ttable.get(NULL_TOKEN, empty)
    rows = [model.ttable.get(s, empty) for s in src]
    links: list[tuple[int, int]] = []
    for j, t in enumerate(tgt):
        null_score = model.p_null * max(null_row.get(t, 0.0), model.epsilon)
        scores = [prior_real * row.get(t, 0.0) for row in rows]
        best = max(scores, default=0.0)
        # index() finds the first of equal scores: ties go to the lowest source index
        if best > null_score:
            links.append((scores.index(best), j))
    return tuple(links)


def collect_statistics(model: AlignmentModel, bitext: Bitext) -> AlignmentStatistics:
    """Viterbi-align every pair and tally per-word fertility and distortion.

    For a target token linked to source position i, with the previous
    linked target token at source position i', distortion is
    (i - i') - 1; a sentence-initial link uses i' = -1, so a fully
    monotone alignment has distortion 0 everywhere.  A source occurrence
    counts toward p_dist0 when every token linked to it continues
    monotonically, which keeps p_joint <= min(p_fert1, p_dist0).
    Word types that never receive a link get an n_obs = 0 entry with all
    rates 0.
    """
    tallies: dict[str, list[int]] = {}
    lengths: Counter = Counter()
    for src, tgt in bitext:
        if not src or not tgt:
            continue
        lengths[len(src)] += 1
        for s in src:
            tallies.setdefault(s, [0, 0, 0, 0])
        # per linked source position: does each of its links continue monotonically?
        monotone: dict[int, list[bool]] = {}
        prev_i = -1
        for i, _ in viterbi_align(model, (src, tgt)):
            monotone.setdefault(i, []).append(i == prev_i + 1)
            prev_i = i
        for i, steps in monotone.items():
            tally = tallies[src[i]]
            fert1, dist0 = len(steps) == 1, all(steps)
            tally[0] += 1
            tally[1] += fert1
            tally[2] += dist0
            tally[3] += fert1 and dist0
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


def save_model(model: AlignmentModel, path: str | Path) -> None:
    """Serialize as header lines plus source<TAB>target<TAB>prob rows."""
    rows = [
        f"#p_null\t{model.p_null!r}",
        f"#epsilon\t{model.epsilon!r}",
        f"#iterations\t{model.iterations}",
    ]
    for s in sorted(model.ttable):
        row = model.ttable[s]
        for t in sorted(row):
            rows.append(f"{s}\t{t}\t{row[t]!r}")
    write_lines(path, rows)


def save_statistics(stats: AlignmentStatistics, path: str | Path) -> None:
    """Serialize as word<TAB>n_obs<TAB>p_fert1<TAB>p_dist0<TAB>p_joint rows."""
    rows = []
    for length in sorted(stats.source_lengths):
        rows.append(f"#source_length\t{length}\t{stats.source_lengths[length]}")
    for word in sorted(stats.words):
        w = stats.words[word]
        rows.append(f"{word}\t{w.n_obs}\t{w.p_fert1!r}\t{w.p_dist0!r}\t{w.p_joint!r}")
    write_lines(path, rows)
