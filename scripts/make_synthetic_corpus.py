#!/usr/bin/env python3
"""Generate the bundled six-language synthetic fixture.

One target language with a 60-line subset, five candidate languages over
the full 300 lines at graded quality (exact twin, light noise, heavy
noise, shuffled, junk), a 20-entity lexicon, and a pipeline config.
Everything is seeded, so regeneration is byte-identical.

    python scripts/make_synthetic_corpus.py --out tests/fixtures/e2e
    python scripts/make_synthetic_corpus.py --out tests/fixtures/e2e --refresh-golden
"""
from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lowresmt.pipeline import PipelineConfig, run_pipeline  # noqa: E402
from lowresmt.synth import make_vocab  # noqa: E402

SEED = 13
N_LINES = 300
LOW_LINES = 60
N_ENTITIES = 20
TARGET = "lrx"
CANDIDATES = ("aaa", "bbb", "ccc", "ddd", "eee")
FILLER_ALPHABET = "abcdefghijklm"
ENTITY_ALPHABET = "nopqrstuvwxyz"
JUNK_ALPHABET = "nopqrstuvw"


def build_abstract_lines(rng):
    """Lines as (kind, payload) items: filler word indexes or entity ids."""
    filler = make_vocab(80, rng, alphabet=FILLER_ALPHABET, min_len=4, max_len=8)
    lines = []
    for _ in range(N_LINES):
        items = [("w", word) for word in rng.sample(filler, rng.randint(5, 9))]
        if rng.random() < 0.5:
            for entity in rng.sample(range(N_ENTITIES), rng.randint(1, 2)):
                items.insert(rng.randint(0, len(items)), ("e", entity))
        lines.append(items)
    return lines


def build_surfaces(rng):
    stems = make_vocab(N_ENTITIES, rng, alphabet=ENTITY_ALPHABET, min_len=6, max_len=8)
    languages = (TARGET, *CANDIDATES)
    return {
        entity: {
            lang: f"{stems[entity].capitalize()}{lang.capitalize()}" for lang in languages
        }
        for entity in range(N_ENTITIES)
    }


def render(lines, surfaces, language, *, noise=0.0, shuffle=False, rng=None):
    rendered = []
    for items in lines:
        tokens = []
        for kind, payload in items:
            if kind == "e":
                tokens.append(surfaces[payload][language])
            elif rng is not None and noise > 0.0 and rng.random() < noise:
                tokens.append("".join(rng.choice(JUNK_ALPHABET) for _ in range(6)))
            else:
                tokens.append(f"{payload}.{language}")
        if shuffle and rng is not None:
            rng.shuffle(tokens)
        rendered.append(tokens)
    return rendered


def write_corpus(path, tokens_by_line, limit=None):
    rows = []
    for index, tokens in enumerate(tokens_by_line):
        if limit is not None and index >= limit:
            break
        rows.append(f"V{index:03d}\t{' '.join(tokens)}\n")
    path.write_text("".join(rows), encoding="utf-8")


def write_fixture(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(SEED)
    lines = build_abstract_lines(rng)
    surfaces = build_surfaces(rng)

    write_corpus(out_dir / f"{TARGET}.txt", render(lines, surfaces, TARGET), limit=LOW_LINES)
    write_corpus(out_dir / "aaa.txt", render(lines, surfaces, "aaa"))
    write_corpus(
        out_dir / "bbb.txt",
        render(lines, surfaces, "bbb", noise=0.10, rng=random.Random(SEED + 1)),
    )
    write_corpus(
        out_dir / "ccc.txt",
        render(lines, surfaces, "ccc", noise=0.30, rng=random.Random(SEED + 2)),
    )
    write_corpus(
        out_dir / "ddd.txt",
        render(lines, surfaces, "ddd", shuffle=True, rng=random.Random(SEED + 3)),
    )
    write_corpus(
        out_dir / "eee.txt",
        render(lines, surfaces, "eee", noise=0.9, shuffle=True, rng=random.Random(SEED + 4)),
    )

    lexicon_rows = []
    for entity in range(N_ENTITIES):
        for lang in (TARGET, *CANDIDATES):
            lexicon_rows.append(f"e{entity:03d}\t{lang}\t{surfaces[entity][lang]}\n")
    (out_dir / "lexicon.tsv").write_text("".join(lexicon_rows), encoding="utf-8")

    config = {
        "target": TARGET,
        "corpus_dir": ".",
        "out_dir": "out",
        "lexicon": "lexicon.tsv",
        "family": "famp",
        "k": 4,
        "edit_threshold": 2,
        "seed": SEED,
        "iterations": 8,
        "min_shared_lines": 50,
        "max_ne": 8,
        "stage1_ratios": [["train", 0.8], ["val", 0.1], ["test", 0.1]],
        "stage2_ratios": [["train", 0.95], ["val", 0.05]],
    }
    (out_dir / "config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def refresh_golden(fixture_dir: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        config = PipelineConfig.from_file(fixture_dir / "config.json", out_dir=tmp)
        run_pipeline(config)
        shutil.copyfile(Path(tmp) / "manifest.json", fixture_dir / "golden_manifest.json")
    print(f"golden manifest refreshed at {fixture_dir / 'golden_manifest.json'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="tests/fixtures/e2e", help="fixture directory")
    parser.add_argument(
        "--refresh-golden",
        action="store_true",
        help="run the pipeline on the fixture and commit its manifest as golden",
    )
    args = parser.parse_args()
    out_dir = Path(args.out)
    write_fixture(out_dir)
    print(f"fixture written to {out_dir}")
    if args.refresh_golden:
        refresh_golden(out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
