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
    "lexicon.find_mentions", "lexicon.render", "datagen.write",
)
# No fixture token is near an entity form, so the fuzzy search's distance check
# is reached by tagging a one-letter spelling variant instead.
VARIANT_SPANS = ("lexicon.load", "corpus.load", "lexicon.find_mentions", "lexicon.levenshtein")


def traced_calls(monkeypatch, *commands):
    """Run each CLI command under the benchmark's tracer; return calls per span name."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracer.traced():
        for command in commands:
            assert main(command) == 0
    assert tracer.missing == []
    calls = Counter()
    for span in tracer.spans:
        calls[span[tracing.NAME]] += span[tracing.CALLS]
    return calls


def test_fixture_pipeline_and_verify_reach_every_probed_span(monkeypatch, tmp_path):
    config = ROOT / "tests" / "fixtures" / "e2e" / "config.json"
    calls = traced_calls(
        monkeypatch,
        ["pipeline", "--config", str(config), "--out-dir", str(tmp_path)],
        ["verify", str(tmp_path)],
    )
    assert [name for name in FIXTURE_SPANS if calls[name] == 0] == []


def test_tagging_a_spelling_variant_reaches_the_fuzzy_distance_check(monkeypatch, tmp_path):
    (tmp_path / "lexicon.tsv").write_text("e_andika\ten\tAndika\n", encoding="utf-8")
    (tmp_path / "en.txt").write_text("V1\tthey call Andiko home\n", encoding="utf-8")
    calls = traced_calls(monkeypatch, [
        "tag", "--input", str(tmp_path / "en.txt"), "--language", "en",
        "--lexicon", str(tmp_path / "lexicon.tsv"), "--output", str(tmp_path / "tagged.txt"),
    ])
    assert [name for name in VARIANT_SPANS if calls[name] == 0] == []
    assert (tmp_path / "tagged.txt").read_text(encoding="utf-8") == "V1\tthey call __NE0 home\n"
