"""Loading, indexing, splitting and writing line-aligned multilingual text.

Corpora are keyed by opaque line ids so that verse keys like ``MRK_1_16``
and plain line numbers share one code path.  Identical ids across
languages denote translations of the same content.  All values are
immutable after construction and safe to share across threads.

Every match of line ids across texts happens here: ``same_ids`` for texts
that must hold the same lines in any order (a ragged text is named with
its first missing, or else extra, id), ``restrict``, ``intersect`` and
``bitext``.
"""
from __future__ import annotations

import hashlib
import io
import math
import os
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

CHUNK_BYTES = 1 << 16


@dataclass(frozen=True)
class ParallelText:
    """One language's lines, keyed by shared line ids (insertion ordered)."""

    language: str
    lines: dict[str, tuple[str, ...]]

    def __len__(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class SplitSpec:
    """Named split fractions plus the seed and mode that make them reproducible.

    Fractions must sum to 1.  Every split except the last is floored to
    an integer line count; the last absorbs the remainder.
    """

    ratios: tuple[tuple[str, float], ...]
    seed: int = 0
    mode: str = "contiguous"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "ratios", tuple((str(n), float(f)) for n, f in self.ratios)
        )
        names = [name for name, _ in self.ratios]
        if not names:
            raise ValueError("split spec needs at least one ratio")
        for name in names:
            # a split name becomes <name>.src and <name>.tgt in a stage directory
            if name.startswith(".") or any(c in name for c in "/\\") or name.split() != [name]:
                raise ValueError(
                    f"split name {name!r} must be a plain file name: non-empty, not"
                    " starting with '.', without '/', '\\' or whitespace"
                )
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate split names: {names}")
        if any(not 0.0 <= fraction <= 1.0 for _, fraction in self.ratios):
            raise ValueError("split fractions must lie in [0, 1]")
        total = sum(fraction for _, fraction in self.ratios)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"split fractions sum to {total}, expected 1")
        if self.mode not in ("contiguous", "shuffled"):
            raise ValueError(f"unknown split mode {self.mode!r}")


def load_text(path: str | Path, language: str) -> ParallelText:
    """Read one corpus file, either ``ID<TAB>text`` rows or bare text.

    Bare files get zero-based line indexes as ids; a blank bare line is
    an error, while an ``ID<TAB>`` row with no text is an empty line
    (``()``), as ``save_text`` writes one.  A leading UTF-8 byte
    order mark is skipped, so it never becomes part of the first id.
    Lines end only at ``\n``, ``\r\n`` or ``\r`` (see ``_read_lines``).
    Tokenization is a plain split on Unicode whitespace, and every token
    is interned (``sys.intern``): equal tokens are one object, so a text
    costs a pointer per token plus one string per word type.
    """
    path = Path(path)
    lines: dict[str, tuple[str, ...]] = {}
    id_format = None
    for index, row in enumerate(_read_lines(path)):
        if id_format is None:
            id_format = "\t" in row
        if id_format:
            line_id, sep, text = row.partition("\t")
            if not sep:
                raise ValueError(f"{path}:{index + 1}: expected ID<TAB>text")
        else:
            line_id, text = str(index), row
        tokens = tuple(map(sys.intern, text.split()))
        if not tokens and not id_format:
            raise ValueError(f"{path}:{index + 1}: blank line")
        if line_id in lines:
            raise ValueError(f"{path}: duplicate line id {line_id!r}")
        lines[line_id] = tokens
    if not lines:
        raise ValueError(f"empty corpus file: {path}")
    return ParallelText(language=language, lines=lines)


def load_candidates(corpus_dir: str | Path, target: ParallelText) -> list[ParallelText]:
    """Load every ``<code>.txt`` in ``corpus_dir`` but the target's, as ranking candidates.

    Files load one at a time in name order, each cut at once to the line ids
    it shares with ``target`` (in its own order): one full text is held at a time.
    """
    candidates = []
    for path in sorted(Path(corpus_dir).glob("*.txt")):
        if path.stem == target.language:
            continue
        text = load_text(path, path.stem)
        candidates.append(restrict(text, [lid for lid in text.lines if lid in target.lines]))
    if not candidates:
        raise ValueError(f"no candidate corpora in {corpus_dir}")
    return candidates


def _read_lines(path: str | Path) -> Iterator[str]:
    """Stream a UTF-8 file's lines without their line ends, one at a time.

    Decodes ``utf-8-sig``, so a leading byte order mark is skipped.  Only
    ``\n``, ``\r\n`` and ``\r`` end a line: unlike ``str.splitlines``,
    a form feed, ``\x1c``-``\x1e``, ``\x85``, U+2028 or U+2029 stays
    inside its line, where a whitespace split treats it as a token gap.
    """
    with open(path, encoding="utf-8-sig") as handle:  # universal newlines: each end -> "\n"
        for line in handle:
            yield line.removesuffix("\n")


def read_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Yield (1-based line number, tab-separated fields) of each non-blank table row.

    Lines are streamed and split as ``_read_lines`` does.
    """
    for number, row in enumerate(_read_lines(path), start=1):
        if row.strip():
            yield number, row.split("\t")


class _HashingFile(io.FileIO):
    """A file opened for writing that feeds each block it writes to a sha256."""

    def __init__(self, path: Path) -> None:
        super().__init__(path, "w")
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        written = super().write(data)
        self.sha256.update(memoryview(data)[:written])
        return written


@contextmanager
def open_output(path: str | Path) -> Iterator[tuple[TextIO, "hashlib._Hash"]]:
    """Write ``path`` atomically; yield a text stream and the sha256 of its bytes.

    The stream writes UTF-8 with ``\\n`` line ends to ``<name>.tmp`` beside
    ``path`` through a 64 KiB buffer, hashing each block as it reaches the
    file; read ``hexdigest()`` after the block.  A clean exit renames the
    temp file onto ``path`` (``os.replace``); an exception removes it and
    leaves an earlier ``path`` as it was.  So a crashed process never leaves
    a partial file under a final name; nothing is fsynced, so a power loss
    can.  The file's mode is that of a plain ``open``.
    """
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    raw = _HashingFile(temp)
    try:
        with io.TextIOWrapper(
            io.BufferedWriter(raw, CHUNK_BYTES), encoding="utf-8", newline="\n"
        ) as out:
            yield out, raw.sha256
        os.replace(temp, path)
    except BaseException:
        raw.close()
        temp.unlink(missing_ok=True)
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> str:
    """Write each line plus ``\\n`` through ``open_output``; return the sha256 hex digest."""
    with open_output(path) as (out, digest):
        out.writelines(f"{line}\n" for line in lines)
    return digest.hexdigest()


def save_text(text: ParallelText, path: str | Path) -> None:
    """Write ``ID<TAB>text`` rows; load_text round-trips the result.

    An empty line is written as ``ID<TAB>`` and loads back as ``()``.
    """
    write_lines(
        path, (f"{line_id}\t{' '.join(tokens)}" for line_id, tokens in text.lines.items())
    )


def restrict(text: ParallelText, line_ids: Iterable[str]) -> ParallelText:
    """Return a copy of ``text`` limited to ``line_ids``, in the given order."""
    line_ids = list(line_ids)
    missing = [lid for lid in line_ids if lid not in text.lines]
    if missing:
        raise ValueError(
            f"{text.language!r} lacks {len(missing)} line id(s), first: {missing[0]!r}"
        )
    return ParallelText(text.language, {lid: text.lines[lid] for lid in line_ids})


def same_ids(texts: Sequence[ParallelText]) -> list[str]:
    """The first text's line ids, once every text holds exactly those ids.

    Order may differ between texts.  Otherwise raises naming the first
    ragged text and its first missing id (in first-text order), or else
    its first extra id.
    """
    first, *rest = texts
    ids = first.lines.keys()
    for text in rest:
        if text.lines.keys() == ids:
            continue
        for lid in ids:
            if lid not in text.lines:
                raise ValueError(f"{text.language!r} is missing line id {lid!r}")
        extra = next(lid for lid in text.lines if lid not in first.lines)
        raise ValueError(f"{text.language!r} has extra line id {extra!r}")
    return list(ids)


def bitext(
    source: ParallelText, target: ParallelText
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(source tokens, target tokens) on the line ids both texts hold, in source order."""
    return [
        (tokens, target.lines[lid]) for lid, tokens in source.lines.items() if lid in target.lines
    ]


def intersect(texts: Sequence[ParallelText]) -> list[str]:
    """The line ids every text holds, in first-text order; no text is copied."""
    if len(texts) < 2:
        raise ValueError("intersect needs at least two texts")
    shared = set(texts[0].lines).intersection(*(text.lines for text in texts[1:]))
    common = [lid for lid in texts[0].lines if lid in shared]
    if not common:
        raise ValueError("no line ids shared by all texts")
    return common


def split(line_ids: Sequence[str], spec: SplitSpec) -> dict[str, list[str]]:
    """Partition ``line_ids`` into named id lists; deterministic under a fixed seed.

    Contiguous mode preserves the given order.  Shuffled mode draws ids
    with the configured seed but still lists each split in the given order.
    """
    ids = list(line_ids)
    if spec.mode == "shuffled":
        random.Random(spec.seed).shuffle(ids)
    n = len(ids)
    sizes = [math.floor(n * fraction + 1e-9) for _, fraction in spec.ratios[:-1]]
    sizes.append(n - sum(sizes))
    position = {lid: k for k, lid in enumerate(line_ids)}
    out: dict[str, list[str]] = {}
    start = 0
    for (name, _), size in zip(spec.ratios, sizes):
        if size <= 0:
            raise ValueError(f"split {name!r} would receive {size} lines (n={n})")
        out[name] = sorted(ids[start : start + size], key=position.__getitem__)
        start += size
    return out
