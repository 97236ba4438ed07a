"""Merging per-source-language translations into one output.

Each line's candidates form a cluster; the kept translation is the one
maximizing the sum of similarities to all other candidates, i.e. the
cluster center.  Similarity is smoothed sentence BLEU averaged over both
directions, which is symmetric and reference-free within the cluster.
Each unordered pair is scored once and its similarity added to both
candidates' sums, so a cluster of k costs k(k-1)/2 similarity calls,
two sentence BLEU calls each.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .bleu import Tokens, sentence_bleu
from .corpus import ParallelText, same_ids, write_lines


@dataclass(frozen=True)
class TranslationCluster:
    """All candidate translations of one line, ordered by source language."""

    line_id: str
    candidates: tuple[tuple[str, tuple[str, ...]], ...]


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
    if not a and not b:
        return 1.0
    return 0.5 * (sentence_bleu(a, b) + sentence_bleu(b, a))


def select_center(cluster: TranslationCluster) -> CentroidChoice:
    """Pick the candidate with the highest similarity sum to the rest.

    Ties break toward the first candidate in input order; a singleton
    cluster returns its only candidate with centrality 0.
    """
    candidates = cluster.candidates
    if not candidates:
        raise ValueError(f"empty cluster for line {cluster.line_id!r}")
    k = len(candidates)
    scores = [0.0] * k
    for i in range(k):
        for j in range(i + 1, k):
            value = similarity(candidates[i][1], candidates[j][1])
            scores[i] += value
            scores[j] += value
    best = max(range(k), key=scores.__getitem__)
    language, tokens = candidates[best]
    return CentroidChoice(cluster.line_id, language, tuple(tokens), scores[best])


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
    choices: list[CentroidChoice] = []
    lines: dict[str, tuple[str, ...]] = {}
    for lid in ids:
        cluster = TranslationCluster(
            line_id=lid,
            candidates=tuple((text.language, text.lines[lid]) for text in translations),
        )
        choice = select_center(cluster)
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
