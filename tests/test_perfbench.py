"""The benchmark's probes: each names a package function, and the fixture run reaches them."""
import importlib
from collections import Counter
from pathlib import Path

from lowresmt.cli import main

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


# The spans a fixture ``pipeline`` run and its ``verify`` reach; a refactor that
# goes around one of these functions would leave its benchmark metrics at zero.
FIXTURE_SPANS = (
    "corpus.load", "pipeline.run", "pipeline.resolve_family", "lexicon.load",
    "rank.candidate", "align.em", "align.viterbi", "rank.translate", "bleu.corpus",
    "datagen.vocab", "datagen.stage", "datagen.sha256", "corpus.view",
    "lexicon.find_mentions", "lexicon.render", "datagen.write", "lexicon.levenshtein",
)


def test_fixture_pipeline_and_verify_reach_every_probed_span(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delenv("LOWRESMT_WORKERS", raising=False)  # pool workers record no spans here
    tracing = importlib.import_module("tracing")
    config = ROOT / "tests" / "fixtures" / "e2e" / "config.json"
    tracer = tracing.Tracer()
    with tracer.traced():
        assert main(["pipeline", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
        assert main(["verify", str(tmp_path)]) == 0
    calls = Counter()
    for span in tracer.spans:
        calls[span[tracing.NAME]] += span[tracing.CALLS]
    assert tracer.missing == []
    assert [name for name in FIXTURE_SPANS if calls[name] == 0] == []
