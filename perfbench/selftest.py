"""Self-test of the benchmark at the smallest scale; exits 1 if any check fails.

    python3 perfbench/selftest.py

Checks that every workload emits every metric with its unit and no
failed pass, that the metric catalogue matches BENCHMARK.json, that the
predicted zeros hold (no EM off rank-pool, no Levenshtein off
emit-lexicon, no clustering off postprocess), that emit-lexicon shows the vocab-closure
defect as OOV tokens, and that a corrupted output fails its pass.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import LAYERS, PER_LAYER  # noqa: E402

SEED = 7
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(f"{'PASS' if condition else 'FAIL'}  {message}")
    if not condition:
        failures.append(message)


def check_catalogue() -> None:
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, catalogue in (("end_to_end", run.END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        expect(listed == list(catalogue), f"BENCHMARK.json {key} matches the code")
    expect([w["name"] for w in declared["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")


def check_runs() -> None:
    for workload in run.WORKLOADS:
        plain = run.run(workload, SEED, 1, 0, scale="tiny")
        traced = run.run(workload, SEED, 1, 1, scale="tiny")
        for record, catalogue in ((plain, run.END_TO_END), (traced, PER_LAYER)):
            names = [name for name, _, _ in catalogue]
            expect(all(isinstance(record["metrics"].get(n), (int, float)) for n in names),
                   f"{workload} trace={record['trace']}: all {len(names)} metrics emitted")
            expect(record["failed"] == 0 and record["attempted"] >= 3,
                   f"{workload} trace={record['trace']}: {record['attempted']} passes,"
                   f" {record['failed']} failed")
        layer = traced["metrics"]
        expect(not traced["missing_probes"], f"{workload}: every probe found its function")
        for metric, home in (("align.em_calls", "rank-pool"),
                             ("lexicon.levenshtein_calls", "emit-lexicon"),
                             ("combine.clusters", "postprocess")):
            if workload == home:
                expect(layer[metric] > 0, f"{workload}: {metric} = {layer[metric]} > 0")
            else:
                expect(layer[metric] == 0, f"{workload}: {metric} = 0")
        if workload == "emit-lexicon":
            expect(layer["datagen.oov_tokens"] > 0,
                   f"emit-lexicon: datagen.oov_tokens = {layer['datagen.oov_tokens']} > 0")
            expect(layer["lexicon.mentions_fuzzy"] > 0, "emit-lexicon: fuzzy mentions found")
        if workload == "postprocess":
            expect(layer["lexicon.detag_dropped"] > 0, "postprocess: placeholders dropped")
        account = sum(layer[f"{name}.self_s"] for name in LAYERS) + layer["trace.unattributed_s"]
        traced_wall = traced["traced_wall_s"]
        expect(abs(account - traced_wall) <= 0.05 * traced_wall + 0.005,
               f"{workload}: layer self times sum to {account:.4f} s,"
               f" traced pass {traced_wall:.4f} s")


def corrupt(workload: passes.Workload) -> None:
    """Damage one output the way a crashed or buggy run could."""
    if isinstance(workload, passes.Emit):
        path = workload.out / "stage1" / "train.src"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif isinstance(workload, passes.RankPool):
        path = workload.out / "ranking.tsv"
        rows = [row.split("\t", 1)[1] for row in path.read_text(encoding="utf-8").splitlines()]
        path.write_text("".join(f"{n}\t{row}\n" for n, row in enumerate(reversed(rows), 1)),
                        encoding="utf-8")
    else:
        path = workload.out / "combined.txt"
        rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lid, text = rows[0].split("\t", 1)
        rows[0] = f"{lid}\tcorrupted {text}"
        path.write_text("".join(rows), encoding="utf-8")


def check_corruption(workdir: Path) -> None:
    for name in run.WORKLOADS:
        data = workdir / name
        spec = inputs.generate(name, data, SEED, "tiny")
        cls = passes.WORKLOADS[name]

        class Corrupting(cls):
            def run(self):
                problems = super().run()
                corrupt(self)
                return problems

        clean = worker.one_pass(cls(data, spec), None, None)
        broken = worker.one_pass(Corrupting(data, spec), None, None)
        expect(not clean["problems"], f"{name}: a clean pass passes its checks")
        expect(bool(broken["problems"]),
               f"{name}: a corrupted output fails its pass: {broken['problems'][:1]}")


def main() -> int:
    workdir = BENCH / "_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        check_catalogue()
        check_corruption(workdir)
        check_runs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
