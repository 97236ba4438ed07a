"""Seeded, paper-shaped inputs for the benchmark workloads.

Each generator writes its files under one directory and returns a spec:
the facts the output checks need (expected ranking order, injected
placeholder count, family and line counts) and the input sizes the run
record keeps.  The same seed always gives the same bytes.

The shape follows the paper's workflow (15-30 tokens per line, a family
of 10 languages, a 100-entity lexicon); line counts and vocabularies are
cut so that one pass takes a few seconds.  The rank
pool reuses ``lowresmt.synth``, so a change to ``synth`` changes that
workload's inputs: the run record carries a digest of the inputs to show
it.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from lowresmt import synth

TARGET = "lrx"
FAMILY_CODES = ("aaa", "bbb", "ccc", "ddd", "eee", "fff", "ggg", "hhh", "iii", "jjj")
FILLER_ALPHABET = "abcdefghijklm"
ENTITY_ALPHABET = "nopqrstuvwxyz"
MIN_TOKENS = 15
MAX_TOKENS = 30

# The rank pool: renamed twin, light and heavy noise, word-shuffled copy,
# unrelated text (graded, best first), then one partial-coverage candidate
# and one below the CLI's default min_shared_lines of 50.
GRADED = ("twn", "lit", "hvy")
FLOOR = ("shf", "unr")
PARTIAL = "prt"
UNDER_COVERED = "few"
UNDER_COVERED_LINES = 30

SCALES = {
    "bench": {
        "rank-pool": {"lines": 100, "types": 200},
        "emit-lexicon": {"family": 10, "lines": 500, "low_lines": 200, "types": 160,
                         "entities": 100},
        "postprocess": {"members": 10, "lines": 250, "types": 500, "entities": 100},
    },
    "tiny": {
        "rank-pool": {"lines": 84, "types": 170},
        "emit-lexicon": {"family": 3, "lines": 60, "low_lines": 30, "types": 80,
                         "entities": 12},
        "postprocess": {"members": 3, "lines": 40, "types": 80, "entities": 12},
    },
}


def _write_text(path: Path, lines: dict[str, tuple[str, ...]]) -> None:
    path.write_text(
        "".join(f"{lid}\t{' '.join(tokens)}\n" for lid, tokens in lines.items()),
        encoding="utf-8",
    )


def _sizes(texts: dict[str, dict[str, tuple[str, ...]]]) -> dict:
    tokens = sum(len(t) for lines in texts.values() for t in lines.values())
    types = len({tok for lines in texts.values() for t in lines.values() for tok in t})
    return {
        "lines": sum(len(lines) for lines in texts.values()),
        "tokens": tokens,
        "types": types,
    }


def rank_pool(out: Path, seed: int, lines: int, types: int) -> dict:
    """Target text plus a graded candidate pool, all in one corpus directory."""
    target = synth.random_text(
        TARGET, lines, seed=seed, vocab_size=types,
        min_tokens=MIN_TOKENS, max_tokens=MAX_TOKENS,
    )
    twin = synth.renamed_copy(target, "twn")
    unrelated = synth.random_text(
        "x", lines, seed=seed + 4, vocab_size=types,
        min_tokens=MIN_TOKENS, max_tokens=MAX_TOKENS,
    )
    rng = random.Random(seed + 5)
    ids = list(target.lines)
    partial_ids = set(rng.sample(ids, (lines * 2) // 3))
    partial = synth.noised_copy(synth.renamed_copy(target, PARTIAL), PARTIAL, 0.1, seed + 6)
    under = synth.renamed_copy(target, UNDER_COVERED)
    texts = {
        TARGET: target.lines,
        "twn": twin.lines,
        "lit": synth.noised_copy(twin, "lit", 0.1, seed=seed + 1).lines,
        "hvy": synth.noised_copy(twin, "hvy", 0.4, seed=seed + 2).lines,
        "shf": synth.shuffled_copy(twin, "shf", seed=seed + 3).lines,
        "unr": synth.renamed_copy(unrelated, "unr").lines,
        PARTIAL: {lid: t for lid, t in partial.lines.items() if lid in partial_ids},
        UNDER_COVERED: {lid: under.lines[lid] for lid in ids[:UNDER_COVERED_LINES]},
    }
    corpus = out / "corpus"
    corpus.mkdir(parents=True)
    for code, text in texts.items():
        _write_text(corpus / f"{code}.txt", text)
    return {
        "target": TARGET,
        "graded": list(GRADED),
        "floor": list(FLOOR),
        "partial": PARTIAL,
        "under_covered": UNDER_COVERED,
        "sizes": {**_sizes(texts), "target_lines": lines, "candidates": len(texts) - 1},
    }


def _words(rng: random.Random, count: int, alphabet: str, lengths) -> list[str]:
    """Distinct pseudo-words whose lengths cycle through ``lengths``.

    Fixed length shares keep the fuzzy-matching work, which depends on
    word lengths, about the same for every seed.
    """
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        length = lengths[len(words) % len(lengths)]
        word = "".join(rng.choice(alphabet) for _ in range(length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _entities(rng: random.Random, count: int, languages: list[str]) -> dict:
    """Per entity: its stems, one surface per language, and fuzzy variants.

    Every fifth entity has a two-token surface.  In each language a third
    of the single-token entities get a one-letter spelling variant that is
    not in the lexicon, so only the fuzzy path finds it.
    """
    stems = [s.capitalize() for s in _words(rng, 2 * count, ENTITY_ALPHABET, (5, 6, 7))]
    table = {}
    for index in range(count):
        parts = stems[2 * index : 2 * index + (2 if index % 5 == 4 else 1)]
        forms = {lang: " ".join(p + lang.capitalize() for p in parts) for lang in languages}
        table[f"e{index:03d}"] = {"forms": forms, "variants": {}, "stem": parts[0],
                                  "single": len(parts) == 1}
    single = [eid for eid, entity in table.items() if entity["single"]]
    for lang in languages:
        for eid in rng.sample(single, len(single) // 3):
            stem = table[eid]["stem"]
            pos = rng.randrange(1, len(stem))
            letter = rng.choice(ENTITY_ALPHABET.replace(stem[pos], ""))
            variant = stem[:pos] + letter + stem[pos + 1 :]
            table[eid]["variants"][lang] = variant + lang.capitalize()
    return table


def _write_lexicon(path: Path, entities: dict, languages: list[str]) -> None:
    path.write_text(
        "".join(
            f"{eid}\t{lang}\t{entities[eid]['forms'][lang]}\n"
            for eid in sorted(entities)
            for lang in languages
        ),
        encoding="utf-8",
    )


def _surface(entity: dict, language: str, rng: random.Random) -> list[str]:
    variant = entity["variants"].get(language)
    if variant is not None and rng.random() < 0.5:
        return [variant]
    return entity["forms"][language].split()


def _base_lines(seed: int, lines: int, types: int,
                rng: random.Random) -> tuple[list[list], list[str]]:
    """Abstract lines as ("w", word) items, and the word list they draw from."""
    words = _words(rng, types, FILLER_ALPHABET, range(3, 9))
    base = synth.random_text(
        "base", lines, seed=seed, vocab=words, min_tokens=MIN_TOKENS, max_tokens=MAX_TOKENS
    )
    return [[("w", w) for w in tokens] for tokens in base.lines.values()], words


def emission(out: Path, seed: int, family: int, lines: int, low_lines: int, types: int,
             entities: int) -> dict:
    """A closed text in a family of languages plus a low-resource subset.

    Half the lines mention one or two entities; each language drops 3% of
    its mentions, and a tenth of the low-resource lines carry one extra
    mention that the family lines lack, so it reaches the stage 2 and 3
    target side as a surface.
    """
    rng = random.Random(seed)
    codes = list(FAMILY_CODES[:family])
    languages = [*codes, TARGET]
    items, _ = _base_lines(seed, lines, types, rng)
    table = _entities(rng, entities, languages)
    ids = sorted(table)
    for line in items:
        if rng.random() < 0.5:
            for eid in rng.sample(ids, rng.randint(1, 2)):
                line.insert(rng.randint(0, len(line)), ("e", eid))
    line_ids = [f"L{index:05d}" for index in range(lines)]
    low_ids = set(rng.sample(line_ids, low_lines))
    texts: dict[str, dict[str, tuple[str, ...]]] = {}
    for lang in languages:
        lang_rng = random.Random(f"{seed}/{lang}")
        rows = {}
        for lid, line in zip(line_ids, items):
            if lang == TARGET and lid not in low_ids:
                continue
            line = list(line)
            if lang == TARGET and lang_rng.random() < 0.1:
                line.insert(lang_rng.randint(0, len(line)), ("e", lang_rng.choice(ids)))
            tokens: list[str] = []
            for kind, value in line:
                if kind == "w":
                    tokens.append(f"{value}%{lang}")
                elif lang_rng.random() >= 0.03:
                    tokens.extend(_surface(table[value], lang, lang_rng))
            rows[lid] = tuple(tokens)
        texts[lang] = rows
    corpus = out / "corpus"
    corpus.mkdir(parents=True)
    for lang, rows in texts.items():
        _write_text(corpus / f"{lang}.txt", rows)
    config = {"target": TARGET, "corpus_dir": "corpus", "out_dir": "out",
              "family": codes, "lexicon": "lexicon.tsv", "edit_threshold": 2, "workers": 1}
    _write_lexicon(out / "lexicon.tsv", table, languages)
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    k = len(codes)
    return {
        "target": TARGET,
        "family": codes,
        "lines": lines,
        "low_lines": low_lines,
        "sizes": {**_sizes(texts), "family": k, "entities": entities,
                  "examples": k * (k - 1) * lines + (k + 1) * k * low_lines + k * low_lines},
    }


def postprocess(out: Path, seed: int, members: int, lines: int, types: int,
                entities: int) -> dict:
    """Placeholder-bearing model outputs from each family member, plus references.

    Member m's output is the reference with entities replaced by
    placeholders (numbered in source order, which sometimes differs from
    target order) and a member-specific share of words replaced or
    swapped.  Five percent of output lines carry one extra placeholder
    with no dictionary entry; the spec records how many.
    """
    rng = random.Random(seed)
    codes = list(FAMILY_CODES[:members])
    items, words = _base_lines(seed, lines, types, rng)
    table = _entities(rng, entities, [*codes, TARGET])
    ids = sorted(table)
    for line in items:
        if rng.random() < 0.5:
            for eid in rng.sample(ids, rng.randint(1, 3)):
                line.insert(rng.randint(0, len(line)), ("e", eid))
    line_ids = [f"L{index:05d}" for index in range(lines)]
    reference = {}
    for lid, line in zip(line_ids, items):
        tokens = []
        for kind, value in line:
            tokens.extend([value] if kind == "w" else table[value]["forms"][TARGET].split())
        reference[lid] = tuple(tokens)
    for sub in ("hyp", "dicts"):
        (out / sub).mkdir(parents=True)
    _write_text(out / "reference.txt", reference)
    _write_lexicon(out / "lexicon.tsv", table, [*codes, TARGET])
    injected = 0
    for rank, code in enumerate(codes):
        noise = 0.05 + 0.4 * rank / max(members - 1, 1)
        hyp = {}
        dict_rows = []
        for lid, line in zip(line_ids, items):
            mentioned = list(dict.fromkeys(v for kind, v in line if kind == "e"))
            if rng.random() < 0.2:
                mentioned.reverse()
            names = {eid: f"__NE{n}" for n, eid in enumerate(mentioned)}
            tokens = []
            for kind, value in line:
                if kind == "e":
                    tokens.append(names[value])
                elif rng.random() < noise:
                    tokens.append(rng.choice(words))
                else:
                    tokens.append(value)
            for pos in range(len(tokens) - 1):
                if rng.random() < noise / 2:
                    tokens[pos], tokens[pos + 1] = tokens[pos + 1], tokens[pos]
            if rng.random() < 0.05:
                tokens.insert(rng.randint(0, len(tokens)), f"__NE{len(names) + rng.randint(0, 3)}")
                injected += 1
            hyp[lid] = tuple(tokens)
            for eid, name in names.items():
                dict_rows.append(f"{lid}\t{name}\t{eid}\t{table[eid]['forms'][code]}\n")
        _write_text(out / "hyp" / f"{code}.txt", hyp)
        (out / "dicts" / f"{code}.tsv").write_text("".join(dict_rows), encoding="utf-8")
    return {
        "target": TARGET,
        "members": codes,
        "lines": lines,
        "injected_placeholders": injected,
        "sizes": {**_sizes({TARGET: reference}), "family": members, "entities": entities,
                  "candidates": members},
    }


def generate(workload: str, out: Path, seed: int, scale: str = "bench") -> dict:
    """Write the workload's inputs under ``out`` (which must not exist yet)."""
    params = SCALES[scale][workload]
    out.mkdir(parents=True)
    if workload == "rank-pool":
        spec = rank_pool(out, seed, **params)
    elif workload == "emit-lexicon":
        spec = emission(out, seed, **params)
    elif workload == "postprocess":
        spec = postprocess(out, seed, **params)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec["workload"] = workload
    spec["seed"] = seed
    spec["scale"] = scale
    spec["inputs_sha256"] = tree_digest(out)
    (out / "spec.json").write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return spec


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(bytes.fromhex(file_sha256(path)))
    return digest.hexdigest()


def file_sha256(path: Path) -> str:
    """sha256 of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
