"""Benchmark entry point: one workload, one seed, one time budget.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up runs five times: generate the
workload's seeded inputs (each round must come out byte-identical), then
import ``lowresmt`` in a fresh interpreter; ``setup_s`` is the median
round.  A worker process then runs passes of the workload for
``--seconds`` and checks every pass's outputs (see ``passes.py``).  The
last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
A run record with the machine, the input sizes and every pass goes to
``perfbench/_results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS, PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("rank-pool", "emit-lexicon", "postprocess")
SETUP_ROUNDS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); start = time.perf_counter();"
    " import lowresmt, lowresmt.cli; print(time.perf_counter() - start)"
)
DEADLINE_S = 170

# (name, unit, better): the end-to-end metrics of a --trace 0 run.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]


def import_seconds() -> float:
    """Time ``import lowresmt`` in a fresh interpreter, as a user's command pays it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


def setup(workload: str, seed: int, work: Path, scale: str) -> tuple[dict, list[float]]:
    """Set up SETUP_ROUNDS times: generate the inputs, then import the package.

    Every round must generate byte-identical inputs; the last copy is kept
    under work/data.  Returns the spec and each round's seconds.
    """
    import inputs  # imports lowresmt.synth, so only once src/ is on the path

    times, digests, spec = [], set(), None
    for round_ in range(SETUP_ROUNDS):
        target = work / f"setup{round_}"
        start = time.perf_counter()
        spec = inputs.generate(workload, target, seed, scale)
        times.append(time.perf_counter() - start + import_seconds())
        digests.add(spec["inputs_sha256"])
        if round_ < SETUP_ROUNDS - 1:
            shutil.rmtree(target)
    if len(digests) != 1:
        raise RuntimeError(f"input generation is not deterministic: {sorted(digests)}")
    (work / f"setup{SETUP_ROUNDS - 1}").rename(work / "data")
    return spec, times


def run_worker(workload: str, data: Path, seconds: float, trace: int, spans: Path,
               timeout: float) -> dict:
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--data", str(data), "--seconds", str(seconds), "--trace", str(trace),
               "--spans", str(spans)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=False)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: int, scale: str = "bench") -> dict:
    """Set up, measure and check one run; returns the run record."""
    started = time.perf_counter()
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = BENCH / "_work" / f"{tag}-{os.getpid()}"
    results = BENCH / "_results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec, setup_times = setup(workload, seed, work, scale)
        remaining = DEADLINE_S - (time.perf_counter() - started)
        worker = run_worker(workload, work / "data", seconds, trace,
                            results / f"{tag}-spans.json", remaining)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes = worker["passes"]
    failed = sum(bool(p["problems"]) for p in passes)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "inputs": {"sha256": spec["inputs_sha256"], **spec["sizes"]},
        "setup": {"rounds_s": setup_times, "worker_import_s": worker["import_s"]},
        "attempted": len(passes),
        "failed": failed,
        "fail_ratio": failed / len(passes),
        "passes": passes,
    }
    if trace:
        layer = worker["layer"]
        record["metrics"] = layer
        record["missing_probes"] = worker["missing_probes"]
        record["traced_wall_s"] = worker["traced_wall_s"]
        record["untraced_wall_s"] = worker["wall_s"]
        record["layer_self_s"] = {name: layer[f"{name}.self_s"] for name in LAYERS}
        record["dominant_layer"] = max(record["layer_self_s"], key=record["layer_self_s"].get)
    else:
        record["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "wall_s": worker["wall_s"],
            "peak_rss_mib": worker["peak_rss_mib"],
        }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "lowresmt" / "__init__.py").is_file():
        print(f"no lowresmt package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    record = run(args.workload, args.seed, args.seconds, args.trace)
    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": record["metrics"][name], "unit": unit} for name, unit, _ in catalogue
    }
    for name, metric in metrics.items():
        print(f"{name}\t{metric['value']:.6g}\t{metric['unit']}")
    print(f"fail_ratio\t{record['fail_ratio']:.6g}\tratio")
    for number, p in enumerate(record["passes"]):
        for problem in p["problems"]:
            print(f"pass {number} failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
