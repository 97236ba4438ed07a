"""Ranking candidate source languages by closeness to a target text.

Two metrics over the shared lines of candidate and target.  The
distortion metric (famd) measures how monotone the trained word
alignments stay: the frequency-weighted rate of zero-distortion source
occurrences.  The performance metric (famp) scores a bare
word-replacement decoder with corpus BLEU on a held-out tail.  One
skip rule covers both: a candidate sharing fewer lines with the target
than the caller's minimum, or than its metric needs (1 for famd, which
trains on them; 2 for famp, which also holds one out), is skipped with
its shared-line count rather than scored.

EM training dominates: either metric takes about 5-5.5 s per candidate
on 1,000 target lines of 15-30 tokens over 2,000 word types with 10 EM
iterations (2 CPUs, Python 3.11), so ~100 candidates take about 9
minutes serially; candidates score independently and may be fanned out
over a worker pool.

Memory: the ``rank`` command and the pipeline pass candidates cut to
the lines they share with the target (``corpus.load_candidates``), with
interned tokens, so ranking holds about a pointer per shared token per
candidate plus one string per word type.  Ranking 8 candidates of 31k
lines (Zipfian over 12k types) against 1,000 target lines with
``lowresmt rank --metric famd --iterations 1 --workers 1`` peaks at
94 MiB RSS; holding every candidate in full, one string per token, took
483 MiB (2 CPUs, Python 3.11).  Pool jobs are pickled, so each worker
process holds its own copy of the target and of its candidate.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .align import (
    AlignmentModel,
    AlignmentStatistics,
    Bitext,
    Tokens,
    collect_statistics,
    train_alignment,
)
from .bleu import corpus_bleu
from .corpus import ParallelText, bitext, write_lines

FAMD = "FAMD"
FAMP = "FAMP"
FAMO_PLUS = "FAMO+"

METRICS = (FAMD, FAMP)

# famp trains on this head share of the shared lines and scores the tail.
TRAIN_FRACTION = 0.9


@dataclass(frozen=True)
class LanguageScore:
    language: str
    metric: str
    value: float


@dataclass(frozen=True)
class LanguageRanking:
    """Scores sorted descending by value, ties by ascending language code."""

    metric: str
    entries: tuple[LanguageScore, ...]


@dataclass(frozen=True)
class RankSkip:
    language: str
    reason: str


@dataclass(frozen=True)
class FamilyOfChoice:
    """The source languages chosen to accompany a target language."""

    target: str
    members: tuple[str, ...]
    provenance: str

    def __post_init__(self) -> None:
        if self.target in self.members:
            raise ValueError(f"family for {self.target!r} contains the target itself")
        if len(set(self.members)) != len(self.members):
            raise ValueError("family contains duplicate language codes")


def word_replacement_translate(
    model: AlignmentModel, stats: AlignmentStatistics, sentence: Tokens
) -> list[str]:
    """Replace each token with its most probable translation.

    The joint fertility-one / zero-distortion rate gates the
    substitution: tokens with no table row, no statistics, or a zero
    joint rate copy through unchanged, which keeps names and unknown
    words intact and the output length equal to the input length.
    """
    out: list[str] = []
    for token in sentence:
        row = model.ttable.get(token)
        word_stats = stats.words.get(token)
        if not row or word_stats is None or word_stats.p_joint <= 0.0:
            out.append(token)
            continue
        best_target, _ = min(row.items(), key=lambda item: (-item[1], item[0]))
        out.append(best_target)
    return out


def famd_score(stats: AlignmentStatistics) -> float:
    """Token-frequency-weighted mean of the zero-distortion rate."""
    numerator = 0.0
    denominator = 0
    for word_stats in stats.words.values():
        numerator += word_stats.n_obs * word_stats.p_dist0
        denominator += word_stats.n_obs
    if denominator == 0:
        raise ValueError("statistics contain no aligned occurrences")
    return numerator / denominator


def famp_score(
    model: AlignmentModel, stats: AlignmentStatistics, heldout: Bitext
) -> float:
    """Corpus BLEU of word-replacement translations on held-out lines."""
    if not heldout:
        raise ValueError("empty held-out bitext")
    hypotheses = [word_replacement_translate(model, stats, src) for src, _ in heldout]
    references = [tgt for _, tgt in heldout]
    return corpus_bleu(hypotheses, references).value


def _score_candidate(job) -> tuple[str, float | None, str | None]:
    candidate, target, metric, min_shared, iterations = job
    pairs = bitext(candidate, target)
    # famd trains on one line at least; famp also holds one out
    needed = max(min_shared, 1 if metric == FAMD else 2)
    if len(pairs) < needed:
        return candidate.language, None, f"only {len(pairs)} shared lines (minimum {needed})"
    if metric == FAMD:
        model = train_alignment(pairs, iterations)
        stats = collect_statistics(model, pairs)
        return candidate.language, famd_score(stats), None
    n_train = min(max(math.floor(len(pairs) * TRAIN_FRACTION + 1e-9), 1), len(pairs) - 1)
    train, heldout = pairs[:n_train], pairs[n_train:]
    model = train_alignment(train, iterations)
    stats = collect_statistics(model, train)
    return candidate.language, famp_score(model, stats, heldout), None


def rank_languages(
    target_data: ParallelText,
    candidates: Sequence[ParallelText],
    metric: str,
    *,
    min_shared_lines: int = 50,
    iterations: int = 10,
    workers: int = 1,
) -> tuple[LanguageRanking, list[RankSkip]]:
    """Score every candidate against the target and sort descending.

    One alignment model is trained per candidate on the lines it shares
    with the target (candidate as source side).  For famp the shared
    lines split 90/10 contiguously: train on the head, score on the
    tail.  A candidate sharing fewer lines than ``min_shared_lines``, or
    than its metric needs (1 for famd, 2 for famp), is excluded and
    returned in the skip report.  The pool never holds more processes
    than candidates or CPUs.  Output is independent of candidate input
    order up to the language-code tie-break.
    """
    metric = metric.upper()
    if metric not in METRICS:
        raise ValueError(f"unknown ranking metric {metric!r}, expected one of {METRICS}")
    languages = [c.language for c in candidates]
    if len(set(languages)) != len(languages):
        raise ValueError("duplicate candidate language codes")
    jobs = [(c, target_data, metric, min_shared_lines, iterations) for c in candidates]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool machinery costs about 2 MiB that a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_score_candidate, jobs))
    else:
        results = [_score_candidate(job) for job in jobs]
    scores: list[LanguageScore] = []
    skips: list[RankSkip] = []
    for language, value, reason in results:
        if reason is not None:
            skips.append(RankSkip(language, reason))
        else:
            scores.append(LanguageScore(language, metric, value))
    entries = tuple(sorted(scores, key=lambda s: (-s.value, s.language)))
    return LanguageRanking(metric=metric, entries=entries), skips


def select_family(ranking: LanguageRanking, target: str, k: int = 10) -> FamilyOfChoice:
    """Take the top k ranked languages (excluding the target itself)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    members = [e.language for e in ranking.entries if e.language != target][:k]
    if len(members) < k:
        raise ValueError(
            f"ranking holds only {len(members)} usable languages but k={k};"
            " supply an explicit family list instead"
        )
    return FamilyOfChoice(target=target, members=tuple(members), provenance=ranking.metric)


def write_ranking(ranking: LanguageRanking, path: str | Path) -> None:
    """Emit rank<TAB>language<TAB>metric<TAB>score rows."""
    rows = [
        f"{position}\t{entry.language}\t{entry.metric}\t{entry.value!r}"
        for position, entry in enumerate(ranking.entries, start=1)
    ]
    write_lines(path, rows)


def write_skips(skips: Sequence[RankSkip], path: str | Path) -> None:
    write_lines(path, (f"{skip.language}\t{skip.reason}" for skip in skips))
