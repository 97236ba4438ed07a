"""Lexical translation model trained by expectation-maximization.

The model family is deliberately small: a translation table t(target |
source) over co-occurring word pairs, a dedicated null source token, and
a fixed null-alignment prior.  Given a sentence pair, each target token
is generated by one source token or by null; the prior puts ``p_null``
mass on null and spreads the rest uniformly over real source positions.
Length conditioning is pooled over all sentence lengths, which is the
right trade at the ~1,000-line corpus sizes this is built for.

Hard (Viterbi) alignments from the trained table drive the per-word
fertility and distortion statistics that the ranking metrics consume.
Everything here is deterministic: uniform initialization, fixed
iteration counts, no sampling.
"""
from __future__ import annotations

import logging
import math
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
class SentenceAlignment:
    """Hard alignment links as (source index, target index) pairs.

    Each target token carries at most one link; targets decoded to null
    are simply absent.  Links are ordered by target index.
    """

    links: tuple[tuple[int, int], ...]


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
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not 0.0 < p_null < 1.0:
        raise ValueError("p_null must lie strictly between 0 and 1")
    pairs = _usable_pairs(bitext)

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


def viterbi_align(model: AlignmentModel, pair: tuple[Tokens, Tokens]) -> SentenceAlignment:
    """Link each target token to its argmax source token, or to null.

    Ties between real source tokens break toward the lowest index.  The
    null option's translation probability is floored at epsilon, so a
    target word the model has never seen falls to null rather than to an
    arbitrary source token.
    """
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
    return SentenceAlignment(links=tuple(links))


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
        for i, _ in viterbi_align(model, (src, tgt)).links:
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
