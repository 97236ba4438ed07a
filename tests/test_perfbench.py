"""The benchmark's probes, read without running the benchmark."""
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_probe_names_a_package_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{probe.module}.{probe.attr}"
        for probe in tracing.PROBES
        if getattr(importlib.import_module(probe.module), probe.attr, None) is None
    ]
    assert missing == []
