"""Seeded synthetic corpora for experiments and fixtures.

All generators take explicit seeds and produce the same bytes on every
run, which keeps golden checksums and ranking experiments stable.
"""
from __future__ import annotations

import random

from .corpus import ParallelText

BASE_ALPHABET = "abcdefghijklm"
NOISE_ALPHABET = "nopqrstuvw"


def make_vocab(size: int, rng: random.Random, *, alphabet: str = BASE_ALPHABET,
               min_len: int = 3, max_len: int = 8) -> list[str]:
    """Distinct pseudo-words over the given alphabet."""
    vocab: list[str] = []
    seen: set[str] = set()
    while len(vocab) < size:
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len)))
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def random_text(
    language: str,
    n_lines: int,
    *,
    seed: int = 0,
    vocab: list[str] | None = None,
    vocab_size: int = 60,
    min_tokens: int = 4,
    max_tokens: int = 9,
    id_prefix: str = "V",
) -> ParallelText:
    """Random lines with no repeated token inside a line."""
    rng = random.Random(seed)
    if vocab is None:
        vocab = make_vocab(vocab_size, rng)
    lines: dict[str, tuple[str, ...]] = {}
    for index in range(n_lines):
        length = rng.randint(min_tokens, min(max_tokens, len(vocab)))
        lines[f"{id_prefix}{index:04d}"] = tuple(rng.sample(vocab, length))
    return ParallelText(language=language, lines=lines)


def renamed_copy(text: ParallelText, language: str, suffix: str | None = None) -> ParallelText:
    """Bijectively rename every token; word order is preserved."""
    suffix = language if suffix is None else suffix
    lines = {
        lid: tuple(f"{token}%{suffix}" for token in tokens)
        for lid, tokens in text.lines.items()
    }
    return ParallelText(language=language, lines=lines)


def noised_copy(
    text: ParallelText, language: str, fraction: float, seed: int = 0
) -> ParallelText:
    """Replace a fraction of tokens with junk drawn from a disjoint alphabet."""
    rng = random.Random(seed)
    lines: dict[str, tuple[str, ...]] = {}
    for lid, tokens in text.lines.items():
        replaced = tuple(
            "".join(rng.choice(NOISE_ALPHABET) for _ in range(6))
            if rng.random() < fraction
            else token
            for token in tokens
        )
        lines[lid] = replaced
    return ParallelText(language=language, lines=lines)


def shuffled_copy(text: ParallelText, language: str, seed: int = 0) -> ParallelText:
    """Shuffle tokens within each line."""
    rng = random.Random(seed)
    lines: dict[str, tuple[str, ...]] = {}
    for lid, tokens in text.lines.items():
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        lines[lid] = tuple(shuffled)
    return ParallelText(language=language, lines=lines)
