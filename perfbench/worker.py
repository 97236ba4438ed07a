"""Run passes of one workload in a fresh process and print one JSON line.

Started by ``run.py`` after the inputs exist, so the peak RSS this
process reports covers importing ``lowresmt`` and the passes, not the
input generator.  The first pass warms caches and fixes the reference
output digest; then passes repeat until the time budget is spent.  With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics are medians over the traced ones.

    python3 perfbench/worker.py --workload NAME --data DIR --seconds S --trace 0|1 \
        --spans FILE
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

_start = time.perf_counter()
import lowresmt  # noqa: E402,F401  (timed: part of set-up)
import lowresmt.cli  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

from passes import WORKLOADS, Emit  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_TIMED = 3  # untraced passes after the warm-up
MIN_EACH = 2  # untraced and traced passes in a --trace 1 run
OUTPUT_METRICS = ("datagen.vocab_tokens", "datagen.examples", "datagen.bytes_written",
                  "datagen.oov_tokens")


def one_pass(workload, reference: str | None, tracer: Tracer | None) -> dict:
    workload.reset()
    gc.collect()
    start = time.perf_counter()
    try:
        if tracer is None:
            problems = workload.run()
        else:
            with tracer.traced():
                problems = workload.run()
    except Exception:  # a crash in the program is a failed operation, not a crash here
        problems = [traceback.format_exc(limit=-3)]
    wall = time.perf_counter() - start
    digest = None
    if not problems:
        try:
            problems = workload.check()
            digest = workload.digest()
        except Exception:  # malformed outputs fail the check
            problems = [traceback.format_exc(limit=-3)]
    if not problems and reference is not None and digest != reference:
        problems = ["outputs differ from the first pass of this run"]
    return {"traced": tracer is not None, "wall_s": wall, "digest": digest,
            "problems": problems[:5], "check_end": time.perf_counter()}


def output_metrics(workload) -> dict:
    """Per-layer numbers read from a finished pass's outputs."""
    if not isinstance(workload, Emit):
        return dict.fromkeys(OUTPUT_METRICS, 0)
    manifest = json.loads((workload.out / "manifest.json").read_text(encoding="utf-8"))
    return {
        "datagen.vocab_tokens": manifest["vocab"]["tokens"],
        "datagen.examples": sum(
            split["examples"]
            for stage in manifest["stages"].values()
            for split in stage["splits"].values()
        ),
        "datagen.bytes_written": sum(
            p.stat().st_size for p in workload.out.rglob("*") if p.is_file()),
        "datagen.oov_tokens": workload.oov_tokens(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    spec = json.loads((args.data / "spec.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](args.data, spec)
    began = time.perf_counter()
    records = [one_pass(workload, None, None)]  # warm-up: fixes the reference digest
    reference = records[0]["digest"]
    tracers: list[Tracer] = []
    while True:
        plain = len(records) - 1 - len(tracers)
        enough = min(plain, len(tracers)) >= MIN_EACH if args.trace else plain >= MIN_TIMED
        previous_end = records[-2]["check_end"] if len(records) > 1 else began
        next_cost = records[-1]["check_end"] - previous_end
        if enough and time.perf_counter() - began + next_cost > args.seconds:
            break
        tracer = Tracer() if args.trace and len(records) % 2 == 0 else None
        records.append(one_pass(workload, reference, tracer))
        if tracer is not None:
            tracers.append(tracer)

    timed = records[1:]
    untraced = [r["wall_s"] for r in timed if not r["traced"]]
    result = {
        "import_s": IMPORT_S,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_s": statistics.median(untraced),
        "passes": [{k: r[k] for k in ("traced", "wall_s", "problems")} for r in records],
    }
    if args.trace:
        per_pass = [t.metrics() for t in tracers]
        layer = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        result["traced_wall_s"] = statistics.median(r["wall_s"] for r in timed if r["traced"])
        layer["trace.overhead_s"] = result["traced_wall_s"] - result["wall_s"]
        if not records[-1]["problems"]:
            layer.update(output_metrics(workload))
        else:
            layer.update(dict.fromkeys(OUTPUT_METRICS, 0))
        result["layer"] = layer
        result["missing_probes"] = tracers[-1].missing
        if args.spans is not None:
            tracers[-1].dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
