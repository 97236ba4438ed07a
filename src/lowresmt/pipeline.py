"""End-to-end driver: rank candidates, pick the family, emit all stages.

The configuration is declarative JSON and is validated completely before
any work starts; full-scale runs over a hundred languages are long, so
typos should fail in milliseconds, not hours.  Relative paths resolve
against the config file's directory.
"""
from __future__ import annotations

import json
import logging
import shutil
from dataclasses import dataclass
from pathlib import Path

from .corpus import ParallelText, SplitSpec, load_candidates, load_text, write_lines
from .datagen import (
    Tagged,
    build_vocab,
    check_language_code,
    direction_tag,
    emit_stage,
    file_sha256,
    stage_splits,
    tag_languages,
    unbound_surfaces,
    write_vocab,
)
from .lexicon import absent_languages, load_lexicon, placeholder
from .rank import (
    FAMO_PLUS,
    METRICS,
    FamilyOfChoice,
    rank_languages,
    select_family,
    shared_lines_needed,
    write_ranking,
    write_skips,
)

log = logging.getLogger(__name__)

STAGE1_RATIOS = (("train", 0.8), ("val", 0.1), ("test", 0.1))
STAGE2_RATIOS = (("train", 0.95), ("val", 0.05))
# every name a run writes in out_dir
OUTPUT_NAMES = (
    "manifest.json", "family.txt", "vocab.txt", "ranking.tsv", "skips.tsv",
    "stage1", "stage2", "stage3",
)


@dataclass
class PipelineConfig:
    target: str
    corpus_dir: Path
    out_dir: Path
    family: str | tuple[str, ...]
    k: int = 10
    lexicon: Path | None = None
    edit_threshold: int = 2
    seed: int = 0
    split_mode: str = "contiguous"
    stage1_ratios: tuple = STAGE1_RATIOS
    stage2_ratios: tuple = STAGE2_RATIOS
    iterations: int = 10
    min_shared_lines: int = 50
    max_ne: int = 50
    workers: int = 1

    @classmethod
    def from_file(
        cls, path: str | Path, *, out_dir: str | Path | None = None, workers: int | None = None
    ) -> "PipelineConfig":
        """Read and validate ``path``, a given ``out_dir`` or ``workers`` replacing the file's."""
        path = Path(path)
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        unknown = sorted(set(raw) - set(_CONFIG_TYPES))
        if unknown:
            raise ValueError(f"{path}: unknown config key(s): {', '.join(unknown)}")
        base = path.resolve().parent
        kwargs: dict = {}
        for key, value in raw.items():
            check, expected = _CONFIG_TYPES[key]
            if not check(value):
                raise ValueError(f"{path}: config key {key!r} must be {expected}, got {value!r}")
            if key in ("corpus_dir", "out_dir", "lexicon"):
                if value is not None:
                    kwargs[key] = base / value
            elif key in ("stage1_ratios", "stage2_ratios"):
                kwargs[key] = tuple((name, float(fraction)) for name, fraction in value)
            else:
                kwargs[key] = tuple(value) if isinstance(value, list) else value
        if out_dir is not None:
            kwargs["out_dir"] = Path(out_dir)
        if workers is not None:
            kwargs["workers"] = workers
        missing = {"target", "corpus_dir", "out_dir", "family"} - set(kwargs)
        if missing:
            raise ValueError(f"{path}: missing config key(s): {', '.join(sorted(missing))}")
        config = cls(**kwargs)
        config.validate()
        return config

    def validate(self) -> None:
        if not self.corpus_dir.is_dir():
            raise ValueError(f"corpus directory not found: {self.corpus_dir}")
        target_file = self.corpus_dir / f"{self.target}.txt"
        if not target_file.is_file():
            raise ValueError(f"target corpus not found: {target_file}")
        if self.lexicon is not None and not self.lexicon.is_file():
            raise ValueError(f"lexicon file not found: {self.lexicon}")
        for key, least in (("k", 1), ("iterations", 1), ("edit_threshold", 0), ("workers", 1),
                           ("min_shared_lines", 0), ("max_ne", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")
        check_language_code(self.target)
        if isinstance(self.family, str):
            if self.family.upper() not in METRICS:
                raise ValueError(
                    f"family must be one of {[m.lower() for m in METRICS]}"
                    " or an explicit list of language codes"
                )
            # every corpus but the target's is a candidate, and may join the family
            candidates = [p.stem for p in self.corpus_dir.glob("*.txt") if p.stem != self.target]
            for code in candidates:
                check_language_code(code)
            if self.k > len(candidates):
                raise ValueError(f"k={self.k} exceeds the {len(candidates)} candidate corpora")
        else:
            if not self.family:
                raise ValueError("explicit family must name at least one language")
            if len(set(self.family)) != len(self.family):
                raise ValueError(f"explicit family lists a language twice: {list(self.family)}")
            if self.target in self.family:
                raise ValueError("explicit family must not contain the target")
            for code in self.family:
                check_language_code(code)
                if not (self.corpus_dir / f"{code}.txt").is_file():
                    raise ValueError(f"family corpus not found: {code}.txt")
        # exercise ratio validation early
        SplitSpec(self.stage1_ratios, seed=self.seed, mode=self.split_mode)
        SplitSpec(self.stage2_ratios, seed=self.seed, mode=self.split_mode)


# The JSON type each config key must hold, and the phrase naming it in errors.
_INTEGER = (lambda v: type(v) is int, "an integer")
_TEXT = (lambda v: type(v) is str, "a string")
_RATIOS = (
    lambda v: type(v) is list and all(
        type(pair) is list and len(pair) == 2 and type(pair[0]) is str
        and type(pair[1]) in (int, float)
        for pair in v
    ),
    "a list of [split name, fraction] pairs",
)
_CONFIG_TYPES = {
    **dict.fromkeys(("target", "corpus_dir", "out_dir", "split_mode"), _TEXT),
    **dict.fromkeys(("k", "edit_threshold", "seed", "iterations", "min_shared_lines",
                     "max_ne", "workers"), _INTEGER),
    "stage1_ratios": _RATIOS,
    "stage2_ratios": _RATIOS,
    "family": (
        lambda v: type(v) is str or type(v) is list and all(type(code) is str for code in v),
        "a metric name or a list of language codes",
    ),
    "lexicon": (lambda v: v is None or type(v) is str, "a string or null"),
}


def check_no_empty_line(text: ParallelText) -> None:
    """Reject a text holding an empty line, naming its language and first such id."""
    if not all(text.lines.values()):
        empty = next(lid for lid, tokens in text.lines.items() if not tokens)
        raise ValueError(f"{text.language!r} has an empty line, first: {empty!r}")


def resolve_family(
    config: PipelineConfig, target_text: ParallelText, stages: tuple[int, ...]
) -> FamilyOfChoice:
    """Rank candidates if the config names a metric, else take the list as is.

    Stages 2 and 3 need every target line in each member, so when ``stages``
    holds either, a candidate lacking a target line id is skipped with its
    shared-line count.  Fewer than ``k`` candidates that share enough lines
    with the target to be scored (``shared_lines_needed``), or that hold
    every target line id when they must, is an error before any EM step.
    """
    if not isinstance(config.family, str):
        return FamilyOfChoice(
            target=config.target, members=tuple(config.family), provenance=FAMO_PLUS
        )
    candidates = load_candidates(config.corpus_dir, target_text)
    # each candidate is already cut to the lines it shares with the target
    needed = shared_lines_needed(config.family, config.min_shared_lines)
    usable = sum(len(candidate) >= needed for candidate in candidates)
    if usable < config.k:
        raise ValueError(
            f"only {usable} of {len(candidates)} candidates share at least {needed} lines"
            f" with {config.target!r}, but k={config.k}; supply an explicit family list instead"
        )
    min_shared_lines = config.min_shared_lines
    if 2 in stages or 3 in stages:
        min_shared_lines = max(min_shared_lines, len(target_text))
        covering = sum(len(candidate) == len(target_text) for candidate in candidates)
        if covering < config.k:
            raise ValueError(
                f"only {covering} of {len(candidates)} candidates hold all {len(target_text)}"
                f" line ids of {config.target!r}, which stages 2 and 3 need, but k={config.k};"
                " supply an explicit family list instead"
            )
    log.info("ranking %d candidates by %s", len(candidates), config.family.upper())
    ranking, skips = rank_languages(
        target_text,
        candidates,
        config.family,
        min_shared_lines=min_shared_lines,
        iterations=config.iterations,
        workers=config.workers,
    )
    write_ranking(ranking, config.out_dir / "ranking.tsv")
    write_skips(skips, config.out_dir / "skips.tsv")
    return select_family(ranking, config.target, config.k)


def build_shared_vocab(
    config: PipelineConfig, family: FamilyOfChoice, tagged: Tagged
) -> tuple[str, ...]:
    """One vocabulary for all stages, holding every token any stage writes.

    Takes the family's and the target's ``TaggedText``s; returns
    ``build_vocab``'s token tuple.  Counts are the sum of their token
    ``Counter``s: each line rendered once as its own source side, the
    writer's own source side, which holds every placeholder the line's
    pairs write.  Nothing is rendered again here.  Reserved at count zero
    are the direction tags, ``max_ne`` placeholders and the surfaces left
    on target sides over stage 1 (the family) and stage 2 (family plus
    target, whose pairs include stage 3's).
    """
    languages = [*family.members, config.target]
    tags = [direction_tag(a, b) for a in languages for b in languages if a != b]
    mentions = {lang: tagged[lang].mentions for lang in languages}
    unbound = unbound_surfaces(family.members, mentions) | unbound_surfaces(languages, mentions)
    tag_tokens = [token for tag in tags for token in tag.split()]
    placeholders = [placeholder(index) for index in range(config.max_ne)]
    counts = (tagged[lang].counts for lang in languages)
    return build_vocab(counts, [*tag_tokens, *placeholders, *unbound])


def run_pipeline(config: PipelineConfig, stages: tuple[int, ...] = (1, 2, 3)) -> dict:
    """Rank, select the family, plan every requested stage, then write them.

    Checks run in this order.  Before any work: ``config.validate()``,
    however the config was built, a stage outside 1-3, and stage 1 with
    a family of fewer than two.  Before ranking: an empty line in the
    target (no stage trains on one) and a malformed lexicon.  Before
    any EM step, for a metric family: fewer than ``k`` usable candidates
    (see ``resolve_family``).  As each member loads: an empty line in
    it.  Once the family loads, one warning names each language of the
    family and the target that the lexicon holds no form in.  Then every
    requested stage is planned (``stage_splits``), so no shared id, a
    member lacking a target id and an empty split fail before mention
    search, ``vocab.txt`` or any stage file.  Stage 1 keeps the ids the
    whole family shares and logs one warning naming each member that
    loses lines, and how many.  Then each language of the family and the
    target is searched, rendered and counted once (``tag_languages``, on
    ``config.workers`` processes).  Each stage is written from those
    results and the loaded corpora by its planned ids, which the writer
    trusts.  Only the target's, the candidates' and the family's corpora
    are loaded.

    Returns the manifest written to out_dir/manifest.json.  The manifest
    carries no timestamps or absolute paths, so reruns are comparable
    checksum for checksum.
    """
    config.validate()
    for stage in stages:
        if stage not in (1, 2, 3):
            raise ValueError(f"stage must be 1, 2 or 3, got {stage}")
    if 1 in stages:
        size = config.k if isinstance(config.family, str) else len(config.family)
        if size < 2:
            raise ValueError(f"stage 1 needs a family of at least two languages, got {size}")
    target_text = load_text(config.corpus_dir / f"{config.target}.txt", config.target)
    check_no_empty_line(target_text)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    # no file of an earlier run may stay beside this run's, finished or not
    for name in OUTPUT_NAMES:
        path = config.out_dir / name
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)

    # a malformed lexicon fails before ranking; only mention search reads the
    # table, so no reference to it (or to its match indexes) outlives that call
    table = load_lexicon(config.lexicon) if config.lexicon is not None else None
    family = resolve_family(config, target_text, stages)
    write_lines(config.out_dir / "family.txt", family.members)
    corpora = {}
    for lang in family.members:
        corpora[lang] = load_text(config.corpus_dir / f"{lang}.txt", lang)
        check_no_empty_line(corpora[lang])
    corpora[config.target] = target_text
    absent = absent_languages(table, corpora) if table is not None else []
    if absent:
        log.warning("the lexicon holds no form in language(s) %s; their lines are written"
                    " untagged", ", ".join(absent))
    # plan every stage before mention search, vocab.txt or any stage file
    plans = {}
    for stage in stages:
        ratios = config.stage1_ratios if stage == 1 else config.stage2_ratios
        split = SplitSpec(ratios, seed=config.seed, mode=config.split_mode)
        plans[stage] = stage_splits(stage, family.members, config.target, corpora, split)
    if 1 in plans:
        # stage 1 keeps only the ids the whole family shares
        shared = sum(map(len, plans[1].values()))
        lost = {lang: len(corpora[lang]) - shared for lang in family.members}
        if any(lost.values()):
            log.warning(
                "stage 1 keeps the %d line ids the family shares; lines lost: %s",
                shared, ", ".join(f"{lang} {count}" for lang, count in lost.items() if count),
            )

    tagged = tag_languages(corpora, table, config.edit_threshold, config.workers)
    del table
    vocab = build_shared_vocab(config, family, tagged)
    vocab_sha256 = write_vocab(vocab, config.out_dir / "vocab.txt")

    manifest: dict = {
        "target": config.target,
        "family": list(family.members),
        "provenance": family.provenance,
        "k": config.k,
        "seed": config.seed,
        "split_mode": config.split_mode,
        "edit_threshold": config.edit_threshold,
        "vocab": {
            "file": "vocab.txt",
            "tokens": len(vocab),
            "sha256": vocab_sha256,
        },
        "stages": {},
    }
    for stage, splits in plans.items():
        log.info("emitting stage %d", stage)
        out_dir = config.out_dir / f"stage{stage}"
        manifest["stages"][f"stage{stage}"] = emit_stage(
            stage, family.members, config.target, corpora, splits, out_dir, tagged=tagged
        )
    write_lines(
        config.out_dir / "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True)]
    )
    return manifest


def verify_output(out_dir: str | Path) -> list[str]:
    """Check a finished run's files against its manifest; return the faults found.

    Re-hashes ``vocab.txt`` and every split file the manifest lists, and
    checks that each ``.src``/``.tgt`` holds exactly ``examples`` lines.
    Faults come in manifest order, each naming its file; an empty list
    means every listed file is on disk as the run wrote it.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return [f"{manifest_path}: missing"]
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        expected = [(out_dir / manifest["vocab"]["file"], manifest["vocab"]["sha256"], None)]
        for stage_name, stage in manifest["stages"].items():
            for split in stage["splits"].values():
                for side in ("src", "tgt"):
                    expected.append((
                        out_dir / stage_name / split[side],
                        split[f"{side}_sha256"],
                        split["examples"],
                    ))
    except (ValueError, KeyError, TypeError, AttributeError) as error:
        return [f"{manifest_path}: malformed manifest ({error!r})"]
    faults = []
    for path, sha256, examples in expected:
        if not path.is_file():
            faults.append(f"{path}: missing")
            continue
        if file_sha256(path) != sha256:
            faults.append(f"{path}: sha256 differs from the manifest")
        if examples is not None:
            with open(path, "rb") as handle:
                lines = sum(line.endswith(b"\n") for line in handle)
            if lines != examples:
                faults.append(f"{path}: {lines} lines, the manifest lists {examples} examples")
    return faults
