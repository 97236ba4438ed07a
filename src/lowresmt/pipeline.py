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
    DirectionTag,
    Mentions,
    StageSpec,
    build_vocab,
    check_language_code,
    emit_stage,
    file_sha256,
    find_view_mentions,
    render_sources,
    unbound_surfaces,
    write_vocab,
)
from .lexicon import load_lexicon
from .rank import (
    FAMO_PLUS,
    METRICS,
    FamilyOfChoice,
    rank_languages,
    select_family,
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
    def from_file(cls, path: str | Path, *, out_dir: str | Path | None = None) -> "PipelineConfig":
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
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.edit_threshold < 0:
            raise ValueError("edit_threshold must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        check_language_code(self.target)
        if isinstance(self.family, str):
            if self.family.upper() not in METRICS:
                raise ValueError(
                    f"family must be one of {[m.lower() for m in METRICS]}"
                    " or an explicit list of language codes"
                )
            # every corpus but the target's is a candidate, and may join the family
            for path in self.corpus_dir.glob("*.txt"):
                check_language_code(path.stem)
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


def resolve_family(config: PipelineConfig, target_text: ParallelText) -> FamilyOfChoice:
    """Rank candidates if the config names a metric, else take the list as is."""
    if not isinstance(config.family, str):
        return FamilyOfChoice(
            target=config.target, members=tuple(config.family), provenance=FAMO_PLUS
        )
    candidates = load_candidates(config.corpus_dir, target_text)
    log.info("ranking %d candidates by %s", len(candidates), config.family.upper())
    ranking, skips = rank_languages(
        target_text,
        candidates,
        config.family,
        min_shared_lines=config.min_shared_lines,
        iterations=config.iterations,
        workers=config.workers,
    )
    write_ranking(ranking, config.out_dir / "ranking.tsv")
    write_skips(skips, config.out_dir / "skips.tsv")
    return select_family(ranking, config.target, config.k)


def build_shared_vocab(
    config: PipelineConfig,
    corpora: dict[str, ParallelText],
    family: FamilyOfChoice,
    mentions: Mentions | None,
) -> tuple[str, ...]:
    """One vocabulary for all stages, holding every token any stage writes.

    Takes the family's and the target's corpora and their mentions
    (``None`` without a lexicon); returns ``build_vocab``'s token tuple.
    Counts come from each line rendered as a source side by
    ``render_sources``, the writer's own rendering, one language at a
    time; that template holds every placeholder the line's pairs write.
    Without mentions the lines are counted as they are.  Surfaces left
    on target sides join at count zero, over stage 1 (the family) and
    stage 2 (family plus target, whose pairs include stage 3's).
    """
    languages = [*family.members, config.target]
    tags = [DirectionTag(a, b) for a in languages for b in languages if a != b]
    if mentions is None:
        lines = (tokens for lang in languages for tokens in corpora[lang].lines.values())
        return build_vocab(lines, tags, config.max_ne)
    templates = (
        template
        for lang in languages
        for template, _ in render_sources(corpora[lang], mentions, corpora[lang].lines)
    )
    unbound = unbound_surfaces(family.members, mentions) | unbound_surfaces(languages, mentions)
    return build_vocab(templates, tags, config.max_ne, unbound)


def run_pipeline(config: PipelineConfig, stages: tuple[int, ...] = (1, 2, 3)) -> dict:
    """Rank, select the family, and emit the requested stages.

    Stage 1 needs a family of at least two; that fails before any work.
    Besides the candidates that ranking reads, only the target's and the
    family's corpora are loaded; an empty line in any of them (an
    ``ID<TAB>`` row, as ``detag`` may write) is an error, since no stage
    trains on one.

    Returns the manifest written to out_dir/manifest.json.  The manifest
    carries no timestamps or absolute paths, so reruns are comparable
    checksum for checksum.
    """
    if 1 in stages:
        size = config.k if isinstance(config.family, str) else len(config.family)
        if size < 2:
            raise ValueError(f"stage 1 needs a family of at least two languages, got {size}")
    target_text = load_text(config.corpus_dir / f"{config.target}.txt", config.target)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    # no file of an earlier run may stay beside this run's, finished or not
    for name in OUTPUT_NAMES:
        path = config.out_dir / name
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)

    family = resolve_family(config, target_text)
    write_lines(config.out_dir / "family.txt", family.members)
    corpora = {lang: load_text(config.corpus_dir / f"{lang}.txt", lang) for lang in family.members}
    corpora[config.target] = target_text
    for lang, text in corpora.items():
        if not all(text.lines.values()):
            empty = next(lid for lid, tokens in text.lines.items() if not tokens)
            raise ValueError(f"{lang!r} has an empty line, first: {empty!r}")

    # only mention search reads the lexicon, so no reference to it (or to its
    # match indexes) outlives that call into the vocab and stage writes
    mentions = find_view_mentions(
        corpora,
        load_lexicon(config.lexicon) if config.lexicon is not None else None,
        config.edit_threshold,
    )
    vocab = build_shared_vocab(config, corpora, family, mentions)
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
    for stage in stages:
        ratios = config.stage1_ratios if stage == 1 else config.stage2_ratios
        spec = StageSpec(
            stage=stage,
            languages=family.members,
            low_resource=config.target,
            split=SplitSpec(ratios, seed=config.seed, mode=config.split_mode),
            out_dir=config.out_dir / f"stage{stage}",
        )
        log.info("emitting stage %d", stage)
        manifest["stages"][f"stage{stage}"] = emit_stage(spec, corpora, mentions)
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
