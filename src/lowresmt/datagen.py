"""Training-set emission for the three-stage pretraining pipeline.

Stage 1 trains on the complete graph over the chosen family (every
ordered language pair, full text, low-resource data excluded).  Stage 2
restricts every language to the low-resource line ids (the symmetric
subset) and adds the low-resource language to the complete graph.
Stage 3 keeps the symmetric subset but emits a star graph: every family
member into the low-resource language only.

Every emitted source line starts with a direction tag pair
``__opt_src_<src> __opt_tgt_<tgt>`` and is entity-tagged first, so
placeholders and tags are first-class vocabulary items; the shared
vocabulary covers every token any stage writes.  Output order is
pair-major then line-minor and writes are byte-deterministic: two runs
over the same inputs produce identical files, which the manifest
checksums pin down.

Pairs run source-major.  A split renders each source language's lines
once (``render_sources``: the template and its binding), joins them
once, and reuses those strings for all k-1 targets, so a line costs one
rendering per language and split, not one per example.  A target line is
rendered (``pair_templates``) only where both sides hold mentions;
otherwise it is the plain join.  Each pair reaches each of the split's
two files as one block write through ``corpus.open_output``: the files
reach their final names only when complete, and their checksums are
those of the bytes as written, so no file is read back.  The writer
holds one source language's strings and one pair's block at a time.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import ParallelText, SplitSpec, intersect, open_output, restrict, same_ids, write_lines
from .corpus import split as split_corpus
from .lexicon import LexiconTable, Mention, bind, find_mentions, placeholder, render_template

SRC_TAG_PREFIX = "__opt_src_"
TGT_TAG_PREFIX = "__opt_tgt_"

View = Mapping[str, ParallelText]
# language -> line id -> mentions; covers every language and line emitted
Mentions = Mapping[str, Mapping[str, Sequence[Mention]]]
# a line as a source side: its template and its entity id -> placeholder binding
SourceSide = tuple[tuple[str, ...], dict[str, str]]


def check_language_code(code: str) -> None:
    """Reject a code that would not stay one token inside a direction tag."""
    if code.split() != [code]:
        raise ValueError(f"language code {code!r} must be non-empty and hold no whitespace")


@dataclass(frozen=True)
class DirectionTag:
    """Source/target language pair rendered as two leading tag tokens."""

    src: str
    tgt: str

    def __post_init__(self) -> None:
        check_language_code(self.src)
        check_language_code(self.tgt)
        if self.src == self.tgt:
            raise ValueError(f"direction tag with identical codes: {self.src!r}")

    def tokens(self) -> tuple[str, str]:
        return (f"{SRC_TAG_PREFIX}{self.src}", f"{TGT_TAG_PREFIX}{self.tgt}")

    def render(self) -> str:
        return " ".join(self.tokens())


@dataclass(frozen=True)
class StageSpec:
    """One stage of the pipeline: which languages, which split, where to."""

    stage: int
    languages: tuple[str, ...]
    low_resource: str
    split: SplitSpec
    out_dir: Path

    def __post_init__(self) -> None:
        object.__setattr__(self, "languages", tuple(self.languages))
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.stage not in (1, 2, 3):
            raise ValueError(f"stage must be 1, 2 or 3, got {self.stage}")
        if not self.languages:
            raise ValueError("stage needs at least one family language")
        if self.low_resource in self.languages:
            raise ValueError(
                f"low-resource code {self.low_resource!r} must not appear in the family"
            )


def file_sha256(path: str | Path) -> str:
    """sha256 hex digest of a file as it is on disk, read in 64 KiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_view(languages: Sequence[str], view: View) -> list[str]:
    missing = [lang for lang in languages if lang not in view]
    if missing:
        raise ValueError(f"view lacks language(s): {', '.join(missing)}")
    return same_ids([view[lang] for lang in languages])


def render_sources(
    text: ParallelText, mentions: Mentions | None, ids: Iterable[str]
) -> list[SourceSide]:
    """Each line of ``ids`` as a source side: its template and its binding.

    A line with mentions binds them (``bind``) and renders its template;
    a line without is its own tokens, bound to nothing.  The writer
    renders each language's lines once per split and reuses them for
    every target; the shared vocabulary counts the same templates.
    """
    lines = text.lines
    if mentions is None:
        return [(lines[lid], {}) for lid in ids]
    found = mentions[text.language]
    rendered = []
    for lid in ids:
        line_mentions = found[lid]
        if line_mentions:
            binding = bind(line_mentions)
            rendered.append((render_template(lines[lid], line_mentions, binding), binding))
        else:
            rendered.append((lines[lid], {}))
    return rendered


def pair_templates(
    sources: Sequence[SourceSide],
    target: ParallelText,
    mentions: Mentions | None,
    ids: Sequence[str],
) -> list[str]:
    """One pair's target sides, line by line, for ``sources`` from ``render_sources``.

    A target line reuses its source line's binding, so reordered
    mentions keep their indices; target-only entities stay as surfaces.
    Only a line whose two sides both hold mentions is rendered; any
    other is the plain join.
    """
    lines = target.lines
    if mentions is None:
        return [" ".join(lines[lid]) for lid in ids]
    found = mentions[target.language]
    out = []
    for (_, binding), lid in zip(sources, ids):
        line_mentions = found[lid]
        if binding and line_mentions:
            out.append(" ".join(render_template(lines[lid], line_mentions, binding)))
        else:
            out.append(" ".join(lines[lid]))
    return out


def _write_split(
    pairs: Sequence[tuple[str, str]],
    view: View,
    ids: Sequence[str],
    out_dir: Path,
    split_name: str,
    mentions: Mentions | None,
) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    src_name, tgt_name = f"{split_name}.src", f"{split_name}.tgt"
    source = None
    with (
        open_output(out_dir / src_name) as (src_file, src_digest),
        open_output(out_dir / tgt_name) as (tgt_file, tgt_digest),
    ):
        # pairs come source-major, so each source is rendered once per split
        for a, b in pairs:
            if a != source:
                source, rendered = a, render_sources(view[a], mentions, ids)
                joined = [" ".join(template) for template, _ in rendered]
            tag = DirectionTag(a, b).render()
            targets = pair_templates(rendered, view[b], mentions, ids)
            src_file.write("".join([f"{tag} {line}\n" for line in joined]))
            tgt_file.write("".join([f"{line}\n" for line in targets]))
    return {
        "examples": len(pairs) * len(ids),
        "src": src_name,
        "tgt": tgt_name,
        "src_sha256": src_digest.hexdigest(),
        "tgt_sha256": tgt_digest.hexdigest(),
    }


def emit_complete(
    languages: Sequence[str],
    view: View,
    out_dir: str | Path,
    split_name: str = "train",
    *,
    mentions: Mentions | None = None,
) -> dict:
    """Write every ordered language pair: k(k-1)*n examples.

    Returns the split's manifest entry: ``examples``, ``src``, ``tgt``
    and the two files' sha256s, taken from the bytes as written.
    """
    if len(languages) < 2:
        raise ValueError("complete configuration needs at least two languages")
    ids = _check_view(languages, view)
    pairs = [(a, b) for a in languages for b in languages if a != b]
    return _write_split(pairs, view, ids, Path(out_dir), split_name, mentions)


def emit_star(
    sources: Sequence[str],
    target: str,
    view: View,
    out_dir: str | Path,
    split_name: str = "train",
    *,
    mentions: Mentions | None = None,
) -> dict:
    """Write every source into the single target: |sources|*n examples.

    Returns the split's manifest entry, as ``emit_complete`` does.
    """
    if not sources:
        raise ValueError("star configuration needs at least one source")
    if target in sources:
        raise ValueError(f"star target {target!r} listed among sources")
    ids = _check_view([*sources, target], view)
    pairs = [(a, target) for a in sources]
    return _write_split(pairs, view, ids, Path(out_dir), split_name, mentions)


def symmetrize(low: ParallelText, sources: Sequence[ParallelText]) -> dict[str, ParallelText]:
    """Restrict every source to exactly the low-resource line ids.

    The returned view includes the low-resource text itself.  A source
    missing any of the low-resource ids is a hard error from ``restrict``,
    naming the count and the first.
    """
    ids = list(low.lines)
    return {text.language: restrict(text, ids) for text in (*sources, low)}


def build_vocab(
    lines: Iterable[Sequence[str]],
    tags: Iterable[DirectionTag] = (),
    max_ne: int = 0,
    extra: Iterable[str] = (),
) -> tuple[str, ...]:
    """Token types of ``lines`` plus tag, placeholder and ``extra`` tokens.

    ``lines`` is any iterable of token sequences.  The result is the
    vocabulary as a tuple, frequency-descending with ties lexicographic;
    tokens absent from ``lines`` sort at the tail with count zero.
    """
    counts: Counter = Counter()
    for tokens in lines:
        counts.update(tokens)
    for tag in tags:
        for token in tag.tokens():
            counts[token] += 0
    for index in range(max_ne):
        counts[placeholder(index)] += 0
    for token in extra:
        counts[token] += 0
    return tuple(sorted(counts, key=lambda token: (-counts[token], token)))


def write_vocab(vocab: Sequence[str], path: str | Path) -> str:
    """Write ``vocab``, one token per line; return the file's sha256."""
    return write_lines(path, vocab)


def find_view_mentions(
    view: View, table: LexiconTable | None, edit_threshold: int = 2
) -> Mentions | None:
    """Precompute entity mentions per language and line for pair emission."""
    if table is None or len(table) == 0:
        return None
    return {
        lang: {
            lid: find_mentions(tokens, lang, table, edit_threshold)
            for lid, tokens in text.lines.items()
        }
        for lang, text in view.items()
    }


def unbound_surfaces(languages: Sequence[str], mentions: Mentions) -> set[str]:
    """Entity surface tokens that a complete graph over ``languages`` writes as is.

    A target side reuses its source side's placeholder binding, so on a
    line every language shares, a mention whose entity some other
    language's line lacks stays a surface in that pair's target.
    """
    first, *rest = (mentions[lang] for lang in languages)
    surfaces: set[str] = set()
    for lid in first:
        if not all(lid in other for other in rest):
            continue
        entities = {lang: {m.entity_id for m in mentions[lang][lid]} for lang in languages}
        for tgt in languages:
            for mention in mentions[tgt][lid]:
                if any(mention.entity_id not in entities[src] for src in languages if src != tgt):
                    surfaces.update(mention.surface.split())
    return surfaces


def emit_stage(
    spec: StageSpec,
    corpora: Mapping[str, ParallelText],
    mentions: Mentions | None = None,
) -> dict:
    """Emit one stage's datasets and return its manifest fragment.

    Stage views only select line ids, so one ``mentions`` map over the
    full texts serves every stage.  The fragment records the
    configuration, languages, per-split line and example counts and the
    checksums the writer took of each file's bytes; it contains nothing
    volatile, so repeated runs produce identical manifests.
    """
    for lang in (*spec.languages, spec.low_resource):
        if lang not in corpora:
            raise ValueError(f"no corpus for language {lang!r}")
    family = [corpora[lang] for lang in spec.languages]

    if spec.stage == 1:
        view = {text.language: text for text in intersect(family)}
        emit_languages = list(spec.languages)
    else:
        view = symmetrize(corpora[spec.low_resource], family)
        emit_languages = [*spec.languages, spec.low_resource]
    configuration = "star" if spec.stage == 3 else "complete"
    parts = split_corpus(view[spec.languages[0]], spec.split)

    splits: dict[str, dict] = {}
    for name, part in parts.items():
        ids = list(part.lines)
        sub_view = {lang: restrict(text, ids) for lang, text in view.items()}
        if configuration == "star":
            entry = emit_star(
                list(spec.languages),
                spec.low_resource,
                sub_view,
                spec.out_dir,
                name,
                mentions=mentions,
            )
        else:
            entry = emit_complete(
                emit_languages, sub_view, spec.out_dir, name, mentions=mentions
            )
        splits[name] = {**entry, "lines": len(ids)}
    return {
        "stage": spec.stage,
        "configuration": configuration,
        "languages": emit_languages,
        "low_resource": spec.low_resource,
        "splits": splits,
    }
