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
order serves both directions of a pair.  The shifts are list slices on
purpose: CPython keeps up to 2,000 freed tuples of each length below
20, so tuple shifts of 15-30-token lines leave free lists of long tuples
behind (about 170 KiB of traced heap after 2,000 calls, against about
20 KiB with list slices).

Every smoothed precision is a ratio j / d of small integers, so a
sentence score takes its four log precisions from ``LogRows``, which
computes each row of ``log(j / d)`` once, and sums them in one
expression: ``_smoothed_from_rows`` is the one place that writes the
smoothing.  ``sentence_bleu`` builds both sides' sets and fresh rows per
call; the combiner builds each candidate's sets once per cluster and one
``LogRows`` per corpus, and scores every pair through
``_shared_matches`` and ``_smoothed_from_rows``.  Float sums are
explicit left folds, never the builtin ``sum``, which Python 3.12 made
compensated, so no score depends on which ``sum`` the interpreter has.
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
        # an explicit left fold from 0.0: the builtin sum of floats is compensated
        # from Python 3.12 on, which would change the score's last digits
        log_sum = 0.0
        for m, t in usable:
            log_sum += math.log(m / t)
        value = bp * math.exp(log_sum / len(usable))
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
    return _smoothed_from_rows(
        LogRows(), _clipped_matches(hypothesis, reference), len(hypothesis), len(reference)
    )


class LogRows(dict):
    """``log(j / d)`` for j = 1 to d at index j - 1, one row per d, built on first use.

    Every smoothed precision is such a ratio.  A hypothesis of h tokens
    has unigram precision m / h, and at order n >= 2, with T = max(h - n
    + 1, 0) grams, precision (m + 1) / (T + 1).  So orders 1 and 2 read
    row h, and orders 3 and 4 rows h - 1 and h - 2, where rows 0 and -1
    are row 1: an order with no gram has precision (0 + 1) / (0 + 1).
    Each row serves every length and order with its denominator.  A
    caller keeps one instance while it scores and then drops it.
    """

    def __missing__(self, denominator: int) -> list[float]:
        if denominator < 1:
            row = self[denominator] = self[1]
        else:
            row = self[denominator] = [math.log(j / denominator) for j in range(1, denominator + 1)]
        return row


def _smoothed_from_rows(rows: LogRows, matches: Sequence[int], hyp_len: int, ref_len: int) -> float:
    """Sentence BLEU of a non-empty hypothesis from the clipped matches of orders 1 to 4.

    No shared unigram scores 0.0 before any lookup.  The log precisions
    are added left to right, order 1 first, the association that every
    pinned score was written with.
    """
    m1, m2, m3, m4 = matches
    if not m1:
        return 0.0
    row = rows[hyp_len]
    log_sum = ((row[m1 - 1] + row[m2]) + rows[hyp_len - 1][m3]) + rows[hyp_len - 2][m4]
    return brevity_penalty(hyp_len, ref_len) * math.exp(log_sum / MAX_ORDER)
