"""Merging per-source-language translations into one output.

Each line's candidates, (language, tokens) pairs in input order, form a
cluster; the kept translation is the one maximizing the sum of
similarities to all other candidates, i.e. the cluster center.
Similarity is smoothed sentence BLEU averaged over both directions,
which is symmetric and reference-free within the cluster.

Each candidate's n-gram occurrence sets are built once per cluster.
Clipped matches are symmetric, so each unordered pair's are taken once,
as four set intersections in C (one per order).  A direction is
smoothed from ``bleu.LogRows``: four row lookups, three additions and
one ``exp`` (none when the pair shares no token: it scores 0.0), with rows
that ``combine_corpus`` builds once per denominator and drops when it
returns.  A pair of equal lengths scores the same both ways and is
smoothed once; the pair's similarity is added to both candidates' sums.
A cluster of k therefore costs k set builds, k(k-1)/2 pairs of four
intersections, and at most two row lookups of four terms per pair.

Measured on 2 CPUs with Python 3.11.7, against smoothing both directions
of every pair with four ``math.log`` calls each, side by side because
the host's speed drifts (reports identical): ``combine_corpus`` took a
median 114 against 157 ms on the benchmark's postprocess inputs, 250
lines x 10 members where every pair has equal lengths (6 alternating
processes, each the median of 9 calls); 13.6 against 19.3 s on 31,000
lines x 10 members from ``perfbench.inputs.postprocess``; and 457
against 618 ms on 1,000 lines x 10 members of 15-30 tokens, where 31%
of pairs have equal lengths.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .bleu import Grams, LogRows, Tokens, _ngram_counts, _shared_matches, _smoothed_from_rows
# not called here; perfbench/tracing.py still probes it under this module's
# name, until the benchmark's probes move
from .bleu import sentence_bleu  # noqa: F401
from .corpus import ParallelText, same_ids, write_lines


@dataclass(frozen=True)
class CentroidChoice:
    line_id: str
    chosen_language: str
    chosen_tokens: tuple[str, ...]
    centrality: float


@dataclass(frozen=True)
class CombineReport:
    choices: tuple[CentroidChoice, ...]
    histogram: dict[str, int]


def similarity(a: Tokens, b: Tokens) -> float:
    """Symmetric similarity in [0, 1]: sentence BLEU averaged both ways."""
    return _pair_similarity(_ngram_counts(a), len(a), _ngram_counts(b), len(b), LogRows())


def _pair_similarity(a: Grams, a_len: int, b: Grams, b_len: int, rows: LogRows) -> float:
    """``similarity`` from each side's ``_ngram_counts`` and length.

    Two empty sides score 1.0 and one empty side 0.0, as sentence BLEU
    does.  Equal lengths score the same both ways with a brevity penalty
    of 1.0, and 0.5 * (x + x) is x exactly, so such a pair is smoothed
    once.
    """
    if not a_len or not b_len:
        return 1.0 if a_len == b_len else 0.0
    matches = _shared_matches(a, b)
    forward = _smoothed_from_rows(rows, matches, a_len, b_len)
    if a_len == b_len:
        return forward
    return 0.5 * (forward + _smoothed_from_rows(rows, matches, b_len, a_len))


def select_center(
    line_id: str, candidates: Sequence[tuple[str, Tokens]], rows: LogRows
) -> CentroidChoice:
    """Pick the (language, tokens) candidate with the highest similarity sum to the rest.

    Ties break toward the first candidate in input order; a singleton
    cluster returns its only candidate with centrality 0.  ``rows`` holds
    the log precisions that every cluster of one ``combine_corpus`` call
    shares.
    """
    if not candidates:
        raise ValueError(f"empty cluster for line {line_id!r}")
    k = len(candidates)
    counts = [_ngram_counts(tokens) for _, tokens in candidates]
    lengths = [len(tokens) for _, tokens in candidates]
    scores = [0.0] * k
    for i in range(k):
        for j in range(i + 1, k):
            value = _pair_similarity(counts[i], lengths[i], counts[j], lengths[j], rows)
            scores[i] += value
            scores[j] += value
    best = max(range(k), key=scores.__getitem__)
    language, tokens = candidates[best]
    return CentroidChoice(line_id, language, tuple(tokens), scores[best])


def combine_corpus(translations: Sequence[ParallelText]) -> tuple[ParallelText, CombineReport]:
    """Per-line cluster-center selection over line-aligned translations.

    All inputs must carry the same line ids (``corpus.same_ids``) and
    distinct languages, since the report names each choice by language.
    The report records the chosen language per line and the per-language
    selection histogram.
    """
    if not translations:
        raise ValueError("no translations to combine")
    histogram: dict[str, int] = {}
    for text in translations:
        if text.language in histogram:
            raise ValueError(f"language {text.language!r} is given twice")
        histogram[text.language] = 0
    ids = same_ids(translations)
    # shared by every cluster of this call and dropped with it
    rows = LogRows()
    choices: list[CentroidChoice] = []
    lines: dict[str, tuple[str, ...]] = {}
    for lid in ids:
        candidates = [(text.language, text.lines[lid]) for text in translations]
        choice = select_center(lid, candidates, rows)
        choices.append(choice)
        histogram[choice.chosen_language] += 1
        lines[lid] = choice.chosen_tokens
    combined = ParallelText(language="combined", lines=lines)
    return combined, CombineReport(choices=tuple(choices), histogram=histogram)


def write_combine_report(report: CombineReport, path: str | Path) -> None:
    """Emit line_id<TAB>chosen_language<TAB>centrality rows."""
    rows = [
        f"{choice.line_id}\t{choice.chosen_language}\t{choice.centrality!r}"
        for choice in report.choices
    ]
    write_lines(path, rows)
