"""One pass of each workload through the ``lowresmt`` command line, and its checks.

A pass is what a user waits for: one ``lowresmt`` command, or for
``postprocess`` the detag, combine and score commands in a row, run in
this process through ``lowresmt.cli.main``.  Each pass writes into a fresh
``out`` directory.  ``check`` returns the list of problems found in that
directory; an empty list means the outputs are correct.
"""
from __future__ import annotations

import json
import math
import shutil
from collections import Counter
from pathlib import Path

from lowresmt import cli

from inputs import file_sha256, tree_digest

QUIET = ["--log-level", "ERROR"]


def _cli(argv: list[str]) -> list[str]:
    code = cli.main([*QUIET, *argv])
    return [] if code == 0 else [f"lowresmt {argv[0]} exited with {code}"]


def _rows(path: Path) -> list[list[str]]:
    return [row.split("\t") for row in path.read_text(encoding="utf-8").splitlines() if row]


class Workload:
    """Inputs under ``data``; each pass writes under ``data/out``."""

    def __init__(self, data: Path, spec: dict):
        self.data = data
        self.spec = spec
        self.out = data / "out"

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()

    def run(self) -> list[str]:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def digest(self) -> str:
        return tree_digest(self.out)


class RankPool(Workload):
    """``lowresmt rank --metric famp`` over the candidate pool."""

    def run(self) -> list[str]:
        corpus = self.data / "corpus"
        return _cli([
            "rank", "--target", str(corpus / f"{self.spec['target']}.txt"),
            "--candidates", str(corpus), "--metric", "famp",
            "--output", str(self.out / "ranking.tsv"),
            "--skip-report", str(self.out / "skips.tsv"), "--workers", "1",
        ])

    def check(self) -> list[str]:
        problems = []
        rows = _rows(self.out / "ranking.tsv")
        scores = {row[1]: float(row[3]) for row in rows}
        if [row[0] for row in rows] != [str(n) for n in range(1, len(rows) + 1)] or any(
            float(a[3]) < float(b[3]) for a, b in zip(rows, rows[1:])
        ):
            problems.append("ranking.tsv is not numbered 1..n in descending score order")
        skipped = [row[0] for row in _rows(self.out / "skips.tsv")]
        if skipped != [self.spec["under_covered"]]:
            problems.append(f"skipped {skipped}, expected [{self.spec['under_covered']!r}]")
        expected = {*self.spec["graded"], *self.spec["floor"], self.spec["partial"]}
        if set(scores) != expected:
            problems.append(f"scored {sorted(scores)}, expected {sorted(expected)}")
            return problems
        for language, value in scores.items():
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{language} scored {value}, outside [0, 1]")
        graded = [scores[lang] for lang in self.spec["graded"]]
        graded.append(max(scores[lang] for lang in self.spec["floor"]))
        if any(a <= b for a, b in zip(graded, graded[1:])):
            problems.append(f"graded candidates out of order: {graded}")
        return problems


class Emit(Workload):
    """``lowresmt pipeline`` with an explicit family, stages 1-3."""

    def run(self) -> list[str]:
        return _cli(["pipeline", "--config", str(self.data / "config.json"),
                     "--out-dir", str(self.out), "--workers", "1"])

    def check(self) -> list[str]:
        problems = []
        manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        family = self.spec["family"]
        low = self.spec["target"]
        k = len(family)
        lines = {1: self.spec["lines"], 2: self.spec["low_lines"], 3: self.spec["low_lines"]}
        per_line = {1: k * (k - 1), 2: (k + 1) * k, 3: k}
        if manifest["family"] != family:
            problems.append(f"manifest family {manifest['family']}, expected {family}")
        if _sha256(self.out / "vocab.txt") != manifest["vocab"]["sha256"]:
            problems.append("vocab.txt does not match its manifest sha256")
        for stage in (1, 2, 3):
            entry = manifest["stages"][f"stage{stage}"]
            languages = set(family) | ({low} if stage > 1 else set())
            total = 0
            for name, split in entry["splits"].items():
                total += split["examples"]
                if split["examples"] != per_line[stage] * split["lines"]:
                    problems.append(f"stage{stage}/{name}: {split['examples']} examples"
                                    f" for {split['lines']} lines")
                for side in ("src", "tgt"):
                    path = self.out / f"stage{stage}" / split[side]
                    if _sha256(path) != split[f"{side}_sha256"]:
                        problems.append(f"stage{stage}/{split[side]} fails its sha256")
                problems += _check_pair(self.out / f"stage{stage}" / name, split["examples"],
                                        languages, low if stage == 3 else None)
            if total != per_line[stage] * lines[stage]:
                problems.append(f"stage{stage}: {total} examples, expected"
                                f" {per_line[stage]} x {lines[stage]}")
        return problems

    def oov_tokens(self) -> int:
        """Stage-file tokens (occurrences) missing from vocab.txt."""
        vocab = set((self.out / "vocab.txt").read_text(encoding="utf-8").split("\n"))
        missing = 0
        for path in sorted(self.out.glob("stage*/*.*")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    missing += sum(token not in vocab for token in line.split())
        return missing


def _sha256(path: Path) -> str:
    return file_sha256(path) if path.is_file() else "missing"


def _check_pair(stem: Path, examples: int, languages: set, star_target: str | None) -> list[str]:
    """Line parity and a well-formed ``__opt_src_X __opt_tgt_Y`` head on every source line.

    Reads line by line, so the check never holds a stage file in memory
    and cannot raise the worker's peak RSS above the pass's own.
    """
    src_path, tgt_path = stem.with_suffix(".src"), stem.with_suffix(".tgt")
    if not (src_path.is_file() and tgt_path.is_file()):
        return [f"{stem}: split files missing"]
    heads: Counter = Counter()
    src_lines = tgt_lines = 0
    unterminated = False
    with open(src_path, encoding="utf-8", newline="") as src:
        for line in src:
            src_lines += 1
            unterminated |= not line.endswith("\n")
            heads[tuple(line.split(" ", 2)[:2])] += 1
    with open(tgt_path, encoding="utf-8", newline="") as tgt:
        for line in tgt:
            tgt_lines += 1
            unterminated |= not line.endswith("\n")
    problems = []
    if unterminated:
        problems.append(f"{stem}: a line is not newline-terminated")
    if not src_lines == tgt_lines == examples:
        problems.append(f"{stem}: {src_lines} src / {tgt_lines} tgt lines, {examples} examples")
    for head in heads:
        src_code = head[0].removeprefix("__opt_src_")
        tgt_code = head[1].removeprefix("__opt_tgt_") if len(head) == 2 else ""
        if (
            len(head) != 2
            or src_code == head[0]
            or tgt_code == head[1]
            or src_code == tgt_code
            or not {src_code, tgt_code} <= languages
            or (star_target is not None and tgt_code != star_target)
        ):
            problems.append(f"{stem}.src: malformed direction tags {head}")
            break
    return problems


class Postprocess(Workload):
    """``lowresmt detag`` per member, then ``combine`` and ``score``."""

    def run(self) -> list[str]:
        problems = []
        for sub in ("detag", "dropped"):
            (self.out / sub).mkdir()
        for code in self.spec["members"]:
            problems += _cli([
                "detag", "--input", str(self.data / "hyp" / f"{code}.txt"),
                "--dicts", str(self.data / "dicts" / f"{code}.tsv"),
                "--language", self.spec["target"], "--lexicon", str(self.data / "lexicon.tsv"),
                "--output", str(self.out / "detag" / f"{code}.txt"),
                "--report", str(self.out / "dropped" / f"{code}.tsv"),
            ])
        problems += _cli([
            "combine", "--inputs",
            *(str(self.out / "detag" / f"{code}.txt") for code in self.spec["members"]),
            "--output", str(self.out / "combined.txt"),
            "--report", str(self.out / "choices.tsv"),
        ])
        problems += _cli([
            "score", "--hypotheses", str(self.out / "combined.txt"),
            "--references", str(self.data / "reference.txt"),
            "--output", str(self.out / "bleu.tsv"),
        ])
        return problems

    def check(self) -> list[str]:
        problems = []
        members = self.spec["members"]
        decoded = {
            code: {row[0]: row[1] for row in _rows(self.out / "detag" / f"{code}.txt")}
            for code in members
        }
        combined = {row[0]: row[1] for row in _rows(self.out / "combined.txt")}
        choices = _rows(self.out / "choices.tsv")
        lines = self.spec["lines"]
        if len({row[0] for row in choices}) != len(choices) or len(choices) != lines \
                or len(combined) != lines:
            problems.append(f"{len(choices)} choices and {len(combined)} combined lines"
                            f" for {lines} lines")
        for lid, language, _ in choices:
            if language not in decoded or decoded[language].get(lid) != combined.get(lid):
                problems.append(f"line {lid}: combined text is not {language}'s candidate")
                break
        dropped = sum(
            int(row[1]) for code in members for row in _rows(self.out / "dropped" / f"{code}.tsv")
        )
        if dropped != self.spec["injected_placeholders"]:
            problems.append(f"{dropped} placeholders dropped,"
                            f" {self.spec['injected_placeholders']} injected")
        bleu = float(_rows(self.out / "bleu.tsv")[1][0])
        if not (math.isfinite(bleu) and 0.0 <= bleu <= 1.0):
            problems.append(f"corpus BLEU {bleu} outside [0, 1]")
        return problems


WORKLOADS = {
    "rank-pool": RankPool,
    "emit-lexicon": Emit,
    "postprocess": Postprocess,
}
