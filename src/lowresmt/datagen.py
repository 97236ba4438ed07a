"""Training-set emission for the three-stage pretraining pipeline.

Stage 1 trains on the complete graph over the chosen family (every
ordered language pair, full text, low-resource data excluded).  Stage 2
restricts every language to the low-resource line ids (the symmetric
subset) and adds the low-resource language to the complete graph.
Stage 3 keeps the symmetric subset but emits a star graph: every family
member into the low-resource language only.

``stage_splits`` plans each split's line ids and checks the stage's data;
the writer (``emit_stage``, ``emit_complete``, ``emit_star``) takes only
the tagged texts and that plan, reads each split's lines by its planned
ids, in their order, and checks nothing again.

Every emitted source line starts with a direction tag pair
``__opt_src_<src> __opt_tgt_<tgt>`` and is entity-tagged first, so
placeholders and tags are first-class vocabulary items; the shared
vocabulary covers every token any stage writes.  Without a lexicon no
line holds a mention, and the same path writes every line as is.
Output order is pair-major then line-minor and writes are
byte-deterministic: two runs over the same inputs produce identical
files, which the manifest checksums pin down.

Each language of a run is searched, rendered and counted once
(``tag_text``) into one ``TaggedText``: its loaded text, every line
joined, and the mentions and entity ids (in first-mention order) of each
line that holds a mention.  A split reads its languages' lines from
there by id.  A source side is that string; a target side
(``pair_templates``) is its own string wherever its entity ids are a
prefix of the source line's, since the source then binds every target
entity to the same placeholder, and is rendered once from the target's
own tokens and mentions under the source's binding otherwise.  A line
therefore costs one rendering per run, plus one per example whose two
sides order their shared entities differently.  Each pair reaches each
of the split's two files as one block write through
``corpus.open_output``: the files reach their final names only when
complete, and their checksums are those of the bytes as written, so no
file is read back.

Memory: a run holds every language's loaded text and joined lines from
tagging to its last stage, the mentions of each line that holds one,
and the writer one pair's block at a time.  A ``pipeline`` run on
``perfbench.inputs.emission`` (seed 1, 10 members, 1,000 low-resource
lines; Python 3.11, 2 CPUs) peaks at a ``VmHWM`` of 60.6 MiB at 3,100
lines (2,000 types, 1,000 entities) and 342-343 MiB at 31,000 (12,000
types, 2,939 entities), against 52.0 and 298 MiB when each split
rendered its own lines and held them only while it was written.  With
``--workers 2`` the languages are tagged on two processes, and the
parent peaks at 64-65 and 378-392 MiB.
"""
from __future__ import annotations

import hashlib
import os
from collections import Counter
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import ParallelText, SplitSpec, intersect, open_output, restrict, write_lines
from .corpus import split as split_corpus
from .lexicon import LexiconTable, Mention, bind, find_mentions, placeholder, render_template

SRC_TAG_PREFIX = "__opt_src_"
TGT_TAG_PREFIX = "__opt_tgt_"

View = Mapping[str, ParallelText]
# one language's lines over a split's ids: each line joined as its own source
# side, and each line's entity ids in first-mention order
RenderedLines = tuple[list[str], list[tuple[str, ...]]]


class TaggedText(NamedTuple):
    """One language's text, searched, rendered and counted once (``tag_text``).

    ``text`` is the loaded text it was made from.  ``joined`` maps every
    line id to the line as its own source side, joined.  ``mentions``
    maps each line that holds a mention to its mentions, and
    ``entities`` maps the same lines to their entity ids in first-mention
    order, which number its placeholders; a line without a mention is in
    neither.  ``counts`` counts the tokens of every source side.  It is
    all that emission, the vocabulary and ``tag`` read of a language.
    """

    text: ParallelText
    mentions: dict[str, Sequence[Mention]]
    joined: dict[str, str]
    entities: dict[str, tuple[str, ...]]
    counts: Counter


# language -> its TaggedText; covers every language emitted
Tagged = Mapping[str, TaggedText]


def check_language_code(code: str) -> None:
    """Reject a code that would not stay one token inside a direction tag."""
    if code.split() != [code]:
        raise ValueError(f"language code {code!r} must be non-empty and hold no whitespace")


def direction_tag(src: str, tgt: str) -> str:
    """The two leading tag tokens of a ``src`` -> ``tgt`` source line, joined."""
    return f"{SRC_TAG_PREFIX}{src} {TGT_TAG_PREFIX}{tgt}"


def file_sha256(path: str | Path) -> str:
    """sha256 hex digest of a file as it is on disk, read in 64 KiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def tag_text(
    text: ParallelText, table: LexiconTable | None, edit_threshold: int = 2
) -> TaggedText:
    """Search, render and count one language's text: the run's one pass over its lines.

    Each line's mentions come from ``find_mentions``; without a table no
    line is searched.  A line with mentions binds them (``bind``) and
    renders its template; a line without is its own tokens.  That
    template is the line's source side in every stage file, ``tag``
    writes it, and the shared vocabulary counts its tokens.
    """
    language = text.language
    mentions: dict[str, Sequence[Mention]] = {}
    joined: dict[str, str] = {}
    entities: dict[str, tuple[str, ...]] = {}
    templates = []
    for lid, tokens in text.lines.items():
        found = table is not None and find_mentions(tokens, language, table, edit_threshold)
        if found:
            binding = bind(found)
            tokens = render_template(tokens, found, binding)
            mentions[lid] = found
            entities[lid] = tuple(binding)
        joined[lid] = " ".join(tokens)
        templates.append(tokens)
    return TaggedText(text, mentions, joined, entities, Counter(chain.from_iterable(templates)))


def _tag_job(text: ParallelText, table: LexiconTable | None, edit_threshold: int) -> tuple:
    """``tag_text``'s fields but the text: what one job of ``tag_languages`` returns."""
    return tag_text(text, table, edit_threshold)[1:]


def tag_languages(
    texts: View, table: LexiconTable | None, edit_threshold: int = 2, workers: int = 1
) -> dict[str, TaggedText]:
    """``tag_text`` over every text of ``texts``, keyed and ordered as ``texts``.

    Each language goes with the table's forms in that language alone
    (``LexiconTable.for_language``), so the searches are independent, and
    that table is the one bound on search memory: it holds one language's
    forms and indexes, and is freed when its job ends.  With ``workers``
    above one they run on a pool of at most that many processes, and
    never more than languages or CPUs, started by the platform's default
    method as ``rank_languages``' are; each job pickles one text and its
    forms, and its result comes back pickled without the text.
    Otherwise the languages run one after another in this process.
    Either way each ``TaggedText`` holds the very text object of
    ``texts``, and the results are the same.
    """
    tables = (table.for_language(lang) if table is not None else None for lang in texts)
    jobs = (texts.values(), tables, repeat(edit_threshold))
    workers = min(workers, len(texts), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool machinery costs about 2 MiB that a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            fields = list(pool.map(_tag_job, *jobs))
    else:
        fields = list(map(_tag_job, *jobs))
    return {text.language: TaggedText(text, *rest) for text, rest in zip(texts.values(), fields)}


def pair_templates(
    sources: Sequence[tuple[str, ...]],
    target: TaggedText,
    rendered: RenderedLines,
    ids: Sequence[str],
) -> list[str]:
    """One pair's target sides, line by line.

    ``sources`` holds each source line's entity ids in first-mention
    order; ``rendered`` is the ``target``'s own ``RenderedLines`` over
    the same ``ids``.  A target line is bound by its source line, so
    reordered mentions keep their indices and target-only entities stay
    as surfaces.  Where the target's entity ids are a prefix of the
    source's, the source binds every target entity to the placeholder
    the target's own binding gives it, and the target's joined line is
    reused; any other line is rendered once, from the target's tokens
    and mentions, under the source's binding.
    """
    joined, entities = rendered
    lines, found = target.text.lines, target.mentions
    out = list(joined)
    # only a line whose target holds mentions can differ from its own rendering
    for index in compress(range(len(out)), entities):
        own, src = entities[index], sources[index]
        if src[: len(own)] != own:
            lid = ids[index]
            binding = {entity_id: placeholder(i) for i, entity_id in enumerate(src)}
            out[index] = " ".join(render_template(lines[lid], found[lid], binding))
    return out


def _split_lines(tagged: TaggedText, ids: Sequence[str]) -> RenderedLines:
    """One language's rendered lines over ``ids``, read by id from its ``TaggedText``."""
    joined, entities = tagged.joined, tagged.entities
    return [joined[lid] for lid in ids], [entities.get(lid, ()) for lid in ids]


def _write_split(
    pairs: Sequence[tuple[str, str]],
    ids: Sequence[str],
    out_dir: str | Path,
    split_name: str,
    tagged: Tagged,
) -> dict:
    """Write ``pairs`` over the lines ``ids`` of the ``tagged`` texts, in the order of ``ids``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    src_name, tgt_name = f"{split_name}.src", f"{split_name}.tgt"
    # every language of the split, star target included, is read by id once
    rendered = {
        lang: _split_lines(tagged[lang], ids)
        for lang in dict.fromkeys(lang for pair in pairs for lang in pair)
    }
    with (
        open_output(out_dir / src_name) as (src_file, src_digest),
        open_output(out_dir / tgt_name) as (tgt_file, tgt_digest),
    ):
        for a, b in pairs:
            joined, entities = rendered[a]
            tag = direction_tag(a, b)
            targets = pair_templates(entities, tagged[b], rendered[b], ids)
            if ids:
                src_file.write(f"{tag} " + f"\n{tag} ".join(joined) + "\n")
                tgt_file.write("\n".join(targets) + "\n")
    return {
        "examples": len(pairs) * len(ids),
        "src": src_name,
        "tgt": tgt_name,
        "src_sha256": src_digest.hexdigest(),
        "tgt_sha256": tgt_digest.hexdigest(),
    }


def emit_complete(
    languages: Sequence[str],
    ids: Sequence[str],
    out_dir: str | Path,
    split_name: str = "train",
    *,
    tagged: Tagged,
) -> dict:
    """Write every ordered language pair over ``ids``: k(k-1)*n examples.

    Each language's lines are read from its ``tagged`` entry by id, in
    the order of ``ids``, and a target line rendered again is rendered
    from that entry's text and mentions; every language must hold every
    id.  Returns the split's manifest entry: ``examples``, ``src``,
    ``tgt`` and the two files' sha256s, taken from the bytes as written.
    """
    pairs = [(a, b) for a in languages for b in languages if a != b]
    return _write_split(pairs, ids, out_dir, split_name, tagged)


def emit_star(
    sources: Sequence[str],
    target: str,
    ids: Sequence[str],
    out_dir: str | Path,
    split_name: str = "train",
    *,
    tagged: Tagged,
) -> dict:
    """Write every source into the single target over ``ids``: |sources|*n examples.

    Lines are read as ``emit_complete`` reads them.  Returns the split's
    manifest entry, as ``emit_complete`` does.
    """
    pairs = [(a, target) for a in sources]
    return _write_split(pairs, ids, out_dir, split_name, tagged)


def symmetrize(low: ParallelText, sources: Sequence[ParallelText]) -> dict[str, ParallelText]:
    """Restrict every source to exactly the low-resource line ids.

    The returned view includes the low-resource text itself.  A source
    missing any of the low-resource ids is a hard error from ``restrict``,
    naming the count and the first.
    """
    ids = list(low.lines)
    return {text.language: restrict(text, ids) for text in (*sources, low)}


def build_vocab(
    lines: Iterable[Sequence[str]], reserved: Iterable[str] = ()
) -> tuple[str, ...]:
    """Token types of ``lines`` plus the ``reserved`` tokens.

    ``lines`` is any iterable of token sequences or token ``Counter``s,
    whose counts add up.  The result is the vocabulary as a tuple,
    frequency-descending with ties lexicographic, so the order of
    ``lines`` cannot change it; reserved tokens absent from ``lines``
    sort at the tail with count zero.
    """
    counts: Counter = Counter()
    for tokens in lines:
        counts.update(tokens)
    for token in reserved:
        counts[token] += 0
    return tuple(sorted(counts, key=lambda token: (-counts[token], token)))


def write_vocab(vocab: Sequence[str], path: str | Path) -> str:
    """Write ``vocab``, one token per line; return the file's sha256."""
    return write_lines(path, vocab)


def unbound_surfaces(languages: Sequence[str], tagged: Tagged) -> set[str]:
    """Entity surface tokens that a complete graph over ``languages`` writes as is.

    A target side reuses its source side's placeholder binding, so on a
    line every language shares, a mention whose entity some other
    language's line lacks stays a surface in that pair's target.
    ``tagged`` holds each language's ``TaggedText``.
    """
    texts = [tagged[lang] for lang in languages]
    surfaces: set[str] = set()
    # only a line with a mention in some language can leave a surface
    for lid in {lid for text in texts for lid in text.mentions}:
        if not all(lid in text.joined for text in texts):
            continue
        lines = [text.mentions.get(lid, ()) for text in texts]
        common = set.intersection(*({m.entity_id for m in line} for line in lines))
        for line in lines:
            for mention in line:
                if mention.entity_id not in common:
                    surfaces.update(mention.surface.split())
    return surfaces


def stage_splits(
    stage: int,
    family: Sequence[str],
    low_resource: str,
    corpora: Mapping[str, ParallelText],
    split: SplitSpec,
) -> dict[str, list[str]]:
    """Each split's name and line ids, in write order: the stage's plan.

    Stage 1 splits the ids the whole family shares (``intersect``), stages
    2 and 3 the low-resource text's ids, in its order, once ``symmetrize``
    has checked that every member holds them.  No shared id, a member
    lacking a low-resource id and an empty split raise here, once, so the
    writer trusts the plan.  Only ids are planned: no text is copied but
    by ``symmetrize``'s check.
    """
    texts = [corpora[lang] for lang in family]
    if stage == 1:
        ids = intersect(texts)
    else:
        symmetrize(corpora[low_resource], texts)
        ids = list(corpora[low_resource].lines)
    return split_corpus(ids, split)


def emit_stage(
    stage: int,
    family: Sequence[str],
    low_resource: str,
    splits: Mapping[str, Sequence[str]],
    out_dir: str | Path,
    *,
    tagged: Tagged,
) -> dict:
    """Write each planned split of one stage and return its manifest fragment.

    ``splits`` is the stage's plan from ``stage_splits``: each split's
    name and line ids.  Every split is written straight from the
    ``tagged`` texts by its ids; the plan was checked when it was made,
    so nothing is checked again.  One ``tagged`` map over the full texts
    serves every stage.  The fragment
    records the configuration, languages, per-split line and example
    counts and each file's checksum; it holds nothing volatile, so
    repeated runs produce identical manifests.
    """
    emit_languages = list(family) if stage == 1 else [*family, low_resource]
    configuration = "star" if stage == 3 else "complete"
    entries: dict[str, dict] = {}
    for name, ids in splits.items():
        if configuration == "star":
            entry = emit_star(family, low_resource, ids, out_dir, name, tagged=tagged)
        else:
            entry = emit_complete(emit_languages, ids, out_dir, name, tagged=tagged)
        entries[name] = {**entry, "lines": len(ids)}
    return {
        "stage": stage,
        "configuration": configuration,
        "languages": emit_languages,
        "low_resource": low_resource,
        "splits": entries,
    }
