"""Corpus and sentence BLEU on whitespace tokens.

Case sensitive, four-gram, single reference per line.  The corpus score
follows the standard modified-precision formulation with a brevity
penalty; the sentence score add-one smooths every order above unigram so
short hypotheses keep a usable signal.  Scores are in [0, 1].

Each side's n-grams are held as one occurrence set per order, built in
C: the tokens are shifted by 0 to MAX_ORDER-1 places and ``zip`` over
the first ``order`` shifts yields every gram of that order as a tuple.
A set holds each gram once per occurrence: the first occurrence is the
gram itself and the c-th (c >= 2) is ``(gram, c)``, which never equals a
gram of strings.  A gram seen a times on one side and b on the other
then has min(a, b) occurrences in both sets, its clipped count, so an
order's clipped matches are the size of the two sets' intersection and
``_shared_matches`` runs no Python code per gram.  One intersection per
order serves both directions of a pair.  ``sentence_bleu`` and
``corpus_bleu`` build both sides' sets for each pair they are given;
the combiner builds each candidate's once and scores every pair from
them through the same two helpers, ``_shared_matches`` (clipping) and
``_smoothed_bleu`` (smoothing and brevity penalty).  The shifts are
list slices on purpose: CPython keeps up to 2,000 freed tuples of each
length below 20, so tuple shifts of 15-30-token lines leave free lists
of long tuples behind (about 170 KiB of traced heap after 2,000 calls,
against about 20 KiB with list slices).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

MAX_ORDER = 4

Tokens = Sequence[str]
# one occurrence set per n-gram order, from _ngram_counts
Grams = list[set]


@dataclass(frozen=True)
class BleuScore:
    value: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float


def _ngram_counts(tokens: Tokens) -> Grams:
    """One occurrence set per order, 1 to MAX_ORDER (index 0 unigrams).

    A gram seen c times is held as itself and as ``(gram, 2)`` to
    ``(gram, c)``; a ``Counter`` runs only for an order whose set is
    smaller than its number of grams, that is when some gram repeats.
    """
    tokens = list(tokens)
    # list slices, not tuples: see the module docstring
    shifts = [tokens[i:] for i in range(MAX_ORDER)]
    sets = []
    for order in range(1, MAX_ORDER + 1):
        grams = set(zip(*shifts[:order]))
        if len(grams) < len(tokens) - order + 1:
            repeated = Counter(zip(*shifts[:order]))
            grams.update(
                (gram, c) for gram, count in repeated.items() for c in range(2, count + 1)
            )
        sets.append(grams)
    return sets


def _shared_matches(hyp: Grams, ref: Grams) -> list[int]:
    """Clipped n-gram matches per order from two ``_ngram_counts``, index 0 unigrams.

    Each order's matches are the size of the intersection of its two
    occurrence sets, so the result is symmetric in its arguments.
    """
    return list(map(len, map(set.__and__, hyp, ref)))


def _clipped_matches(hypothesis: Tokens, reference: Tokens) -> list[int]:
    """Clipped n-gram matches per order, index 0 holding unigrams."""
    return _shared_matches(_ngram_counts(hypothesis), _ngram_counts(reference))


def brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len == 0:
        return 0.0
    if hyp_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def corpus_bleu(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> BleuScore:
    """Four-gram corpus BLEU, pooled modified precisions, one reference per line.

    Orders whose n-gram total is zero (hypotheses shorter than the order)
    drop out of the geometric mean; any remaining zero precision yields 0.
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise ValueError("empty corpus")
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for index, match in enumerate(_clipped_matches(hyp, ref)):
            totals[index] += max(len(hyp) - index, 0)
            matches[index] += match
    precisions = tuple(m / t if t else 0.0 for m, t in zip(matches, totals))
    bp = brevity_penalty(hyp_len, ref_len)
    usable = [(m, t) for m, t in zip(matches, totals) if t > 0]
    if not usable or any(m == 0 for m, _ in usable):
        value = 0.0
    else:
        value = bp * math.exp(sum(math.log(m / t) for m, t in usable) / len(usable))
    return BleuScore(value=value, precisions=precisions, brevity_penalty=bp)


def sentence_bleu(hypothesis: Tokens, reference: Tokens) -> float:
    """Smoothed four-gram sentence BLEU; identical inputs score 1.0.

    Unigram precision is unsmoothed (no shared token means 0); orders
    above unigram are add-one smoothed on both counts.
    """
    if not hypothesis and not reference:
        return 1.0
    if not hypothesis or not reference:
        return 0.0
    return _smoothed_bleu(
        _clipped_matches(hypothesis, reference), len(hypothesis), len(reference)
    )


def _smoothed_bleu(matches: Sequence[int], hyp_len: int, ref_len: int) -> float:
    """Sentence BLEU of a non-empty hypothesis and reference from their matches."""
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
