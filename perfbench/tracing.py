"""Spans around the calls into each ``lowresmt`` module, and the per-layer metrics.

The program is not changed: ``traced()`` replaces module-level functions
with timing wrappers where they are looked up (``lowresmt.rank.train_alignment``
is the name ``rank_languages`` calls) and puts the originals back on exit.
A span records its name, parent, start, end and call count.  Functions
called once per token, pair or sentence are *merged*: all calls under one
parent share one span, so memory stays bounded; their count is exact and
their time is the sum of the calls.  Spans stay in memory until
``Tracer.dump``.

A layer is a package module; its self time is the time of its spans
minus the part covered by their child spans.  Time outside every layer
(argument parsing and glue in ``lowresmt.cli``, the benchmark itself) is
``trace.unattributed_s``, so the layer self times add up to the traced
pass.
"""
from __future__ import annotations

import importlib
import json
import os
import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

LAYERS = ("corpus", "align", "rank", "bleu", "lexicon", "datagen", "combine", "pipeline")

# (name, unit, better): every per-layer metric, in report order.
PER_LAYER = [
    ("corpus.load_s", "s", "lower"),
    ("corpus.bytes_read", "B", "lower"),
    ("corpus.view_s", "s", "lower"),
    ("align.em_s", "s", "lower"),
    ("align.em_calls", "count", "lower"),
    ("align.em_iterations", "count", "lower"),
    ("align.links", "count", "lower"),
    ("align.links_per_s", "1/s", "higher"),
    ("align.ll_final", "nat", "higher"),
    ("align.viterbi_s", "s", "lower"),
    ("align.viterbi_pairs", "count", "lower"),
    ("rank.candidate_s.p50", "s", "lower"),
    ("rank.candidate_s.max", "s", "lower"),
    ("rank.scored", "count", "higher"),
    ("rank.skipped", "count", "lower"),
    ("rank.translate_s", "s", "lower"),
    ("rank.pool_overhead_s", "s", "lower"),
    ("bleu.corpus_s", "s", "lower"),
    ("bleu.corpus_calls", "count", "lower"),
    ("bleu.sentence_s", "s", "lower"),
    ("bleu.sentence_calls", "count", "lower"),
    ("lexicon.load_s", "s", "lower"),
    ("lexicon.find_mentions_s", "s", "lower"),
    ("lexicon.find_mentions_calls", "count", "lower"),
    ("lexicon.mentions_exact", "count", "higher"),
    ("lexicon.mentions_fuzzy", "count", "higher"),
    ("lexicon.levenshtein_calls", "count", "lower"),
    ("lexicon.levenshtein_s", "s", "lower"),
    ("lexicon.fuzzy_useful_ratio", "ratio", "higher"),
    ("lexicon.render_s", "s", "lower"),
    ("lexicon.render_calls", "count", "lower"),
    ("lexicon.detag_s", "s", "lower"),
    ("lexicon.detag_dropped", "count", "lower"),
    ("datagen.vocab_s", "s", "lower"),
    ("datagen.vocab_tokens", "count", "lower"),
    ("datagen.oov_tokens", "count", "lower"),
    ("datagen.stage1_s", "s", "lower"),
    ("datagen.stage2_s", "s", "lower"),
    ("datagen.stage3_s", "s", "lower"),
    ("datagen.write_self_s", "s", "lower"),
    ("datagen.examples", "count", "lower"),
    ("datagen.bytes_written", "B", "lower"),
    ("datagen.sha256_s", "s", "lower"),
    ("combine.select_s", "s", "lower"),
    ("combine.clusters", "count", "lower"),
    ("combine.similarity_calls", "count", "lower"),
    ("combine.similarity_s", "s", "lower"),
    ("pipeline.run_s", "s", "lower"),
    ("pipeline.resolve_family_s", "s", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _arg(args, kwargs, index, name):
    """The call's argument at ``index``, or passed by keyword as ``name``."""
    return args[index] if len(args) > index else kwargs[name]


def _usable(bitext) -> list:
    return [(s, t) for s, t in bitext if s and t]


def _on_em(counts, args, kwargs, model, seconds):
    links = sum(len(s) * len(t) for s, t in _usable(_arg(args, kwargs, 0, "bitext")))
    counts["align.em_iterations"] += model.iterations
    counts["align.links"] += links * model.iterations
    counts["align.ll_final"] += model.log_likelihoods[-1]


def _on_statistics(counts, args, kwargs, stats, seconds):
    counts["align.viterbi_pairs"] += len(_usable(_arg(args, kwargs, 1, "bitext")))


def _on_candidate(counts, args, kwargs, result, seconds):
    counts["rank.scored" if result[2] is None else "rank.skipped"] += 1


def _on_load_text(counts, args, kwargs, text, seconds):
    counts["corpus.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _on_find_mentions(counts, args, kwargs, mentions, seconds):
    language = _arg(args, kwargs, 1, "language")
    table = _arg(args, kwargs, 2, "table")
    for mention in mentions:
        exact = mention.surface in table.forms(mention.entity_id, language)
        counts["lexicon.mentions_exact" if exact else "lexicon.mentions_fuzzy"] += 1


def _on_levenshtein(counts, args, kwargs, distance, seconds):
    cap = kwargs.get("cap", args[2] if len(args) > 2 else None)
    counts["lexicon.levenshtein_useful"] += cap is None or distance <= cap


def _on_detag(counts, args, kwargs, result, seconds):
    counts["lexicon.detag_dropped"] += len(result[1])


def _on_stage(counts, args, kwargs, fragment, seconds):
    counts[f"datagen.stage{fragment['stage']}_s"] += seconds


@dataclass(frozen=True)
class Probe:
    """Wrap ``module.attr`` in a span named ``span`` (its layer is the prefix)."""

    module: str
    attr: str
    span: str
    merge: bool = False
    observe: Callable | None = None


PROBES = [
    # lowresmt.cli looks these up when a subcommand runs
    Probe("lowresmt.cli", "load_text", "corpus.load", observe=_on_load_text),
    Probe("lowresmt.cli", "save_text", "corpus.save"),
    Probe("lowresmt.cli", "rank_languages", "rank.rank"),
    Probe("lowresmt.cli", "write_ranking", "rank.write"),
    Probe("lowresmt.cli", "write_skips", "rank.write"),
    Probe("lowresmt.cli", "run_pipeline", "pipeline.run"),
    Probe("lowresmt.cli", "load_lexicon", "lexicon.load"),
    Probe("lowresmt.cli", "build_target_dictionary", "lexicon.target_dict", merge=True),
    Probe("lowresmt.cli", "detag", "lexicon.detag", merge=True, observe=_on_detag),
    Probe("lowresmt.cli", "corpus_bleu", "bleu.corpus"),
    # rank
    Probe("lowresmt.rank", "_score_candidate", "rank.candidate", observe=_on_candidate),
    Probe("lowresmt.rank", "train_alignment", "align.em", observe=_on_em),
    Probe("lowresmt.rank", "collect_statistics", "align.viterbi", observe=_on_statistics),
    Probe("lowresmt.rank", "word_replacement_translate", "rank.translate", merge=True),
    Probe("lowresmt.rank", "corpus_bleu", "bleu.corpus"),
    # pipeline
    Probe("lowresmt.pipeline", "load_text", "corpus.load", observe=_on_load_text),
    Probe("lowresmt.pipeline", "resolve_family", "pipeline.resolve_family"),
    Probe("lowresmt.pipeline", "load_lexicon", "lexicon.load"),
    Probe("lowresmt.pipeline", "build_shared_vocab", "datagen.vocab"),
    Probe("lowresmt.pipeline", "build_vocab", "datagen.vocab"),
    Probe("lowresmt.pipeline", "write_vocab", "datagen.vocab"),
    Probe("lowresmt.pipeline", "emit_stage", "datagen.stage", observe=_on_stage),
    Probe("lowresmt.pipeline", "file_sha256", "datagen.sha256"),
    # datagen
    Probe("lowresmt.datagen", "intersect", "corpus.view"),
    Probe("lowresmt.datagen", "symmetrize", "corpus.view"),
    Probe("lowresmt.datagen", "restrict", "corpus.view"),
    Probe("lowresmt.datagen", "split_corpus", "corpus.view"),
    Probe("lowresmt.datagen", "find_mentions", "lexicon.find_mentions",
          observe=_on_find_mentions),
    Probe("lowresmt.datagen", "pair_templates", "lexicon.render", merge=True),
    Probe("lowresmt.datagen", "emit_complete", "datagen.write"),
    Probe("lowresmt.datagen", "emit_star", "datagen.write"),
    Probe("lowresmt.datagen", "file_sha256", "datagen.sha256"),
    # lexicon (tag_sentence looks up find_mentions in its own module)
    Probe("lowresmt.lexicon", "find_mentions", "lexicon.find_mentions",
          observe=_on_find_mentions),
    Probe("lowresmt.lexicon", "levenshtein", "lexicon.levenshtein", merge=True,
          observe=_on_levenshtein),
    # combine (lowresmt.cli calls combine_mod.combine_corpus)
    Probe("lowresmt.combine", "combine_corpus", "combine.corpus"),
    Probe("lowresmt.combine", "write_combine_report", "combine.write"),
    Probe("lowresmt.combine", "select_center", "combine.select"),
    Probe("lowresmt.combine", "similarity", "combine.similarity", merge=True),
    Probe("lowresmt.combine", "sentence_bleu", "bleu.sentence", merge=True),
]

NAME, PARENT, CALLS, TOTAL, START, END = range(6)


class Tracer:
    """Spans as lists [name, parent, calls, total_s, first_start, last_end]; id = index."""

    def __init__(self) -> None:
        self.spans: list[list] = [["pass", None, 0, 0.0, None, None]]
        self.stack = [0]
        self.merged: dict[tuple[int, str], int] = {}
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        spans, stack, merged, counts = self.spans, self.stack, self.merged, self.counts
        name, merge, observe = probe.span, probe.merge, probe.observe

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = merged.get((parent, name)) if merge else None
            if span_id is None:
                span_id = len(spans)
                spans.append([name, parent, 0, 0.0, None, None])
                if merge:
                    merged[(parent, name)] = span_id
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[span_id]
                span[CALLS] += 1
                span[TOTAL] += end - start
                if span[START] is None:
                    span[START] = start
                span[END] = end
            if observe is not None:
                observe(counts, args, kwargs, result, end - start)
            return result

        return wrapper

    @contextmanager
    def traced(self):
        """Patch every probe for the duration of the block; the root span times it."""
        originals = []
        for probe in PROBES:
            module = importlib.import_module(probe.module)
            fn = getattr(module, probe.attr, None)
            if fn is None:
                self.missing.append(f"{probe.module}.{probe.attr}")
                continue
            originals.append((module, probe.attr, fn))
            setattr(module, probe.attr, self._wrap(probe, fn))
        root = self.spans[0]
        root[START] = perf_counter()
        try:
            yield self
        finally:
            root[END] = perf_counter()
            root[CALLS] = 1
            root[TOTAL] = root[END] - root[START]
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        own = [span[TOTAL] for span in self.spans]
        for span in self.spans[1:]:
            own[span[PARENT]] -= span[TOTAL]
        return own

    def dump(self, path: Path) -> None:
        own = self.self_times()
        rows = [
            {"id": i, "name": s[NAME], "parent": s[PARENT], "calls": s[CALLS],
             "start": s[START], "end": s[END], "total_s": s[TOTAL], "self_s": own[i]}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"missing_probes": self.missing, "spans": rows}) + "\n",
                        encoding="utf-8")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counts (outputs add the rest)."""
        spans, own = self.spans, self.self_times()

        def total(name, outermost=False):
            return sum(
                s[TOTAL] for s in spans
                if s[NAME] == name and not (outermost and spans[s[PARENT]][NAME] == name)
            )

        def calls(name):
            return sum(s[CALLS] for s in spans if s[NAME] == name)

        counts = self.counts
        candidates = [s[TOTAL] for s in spans if s[NAME] == "rank.candidate"]
        em_s = total("align.em")
        lev_calls = calls("lexicon.levenshtein")
        out = {
            "corpus.load_s": total("corpus.load"),
            "corpus.bytes_read": counts["corpus.bytes_read"],
            "corpus.view_s": total("corpus.view", outermost=True),
            "align.em_s": em_s,
            "align.em_calls": calls("align.em"),
            "align.em_iterations": counts["align.em_iterations"],
            "align.links": counts["align.links"],
            "align.links_per_s": counts["align.links"] / em_s if em_s else 0.0,
            "align.ll_final": counts["align.ll_final"],
            "align.viterbi_s": total("align.viterbi"),
            "align.viterbi_pairs": counts["align.viterbi_pairs"],
            "rank.candidate_s.p50": statistics.median(candidates) if candidates else 0.0,
            "rank.candidate_s.max": max(candidates, default=0.0),
            "rank.scored": counts["rank.scored"],
            "rank.skipped": counts["rank.skipped"],
            "rank.translate_s": total("rank.translate"),
            "rank.pool_overhead_s": total("rank.rank") - sum(candidates),
            "bleu.corpus_s": total("bleu.corpus"),
            "bleu.corpus_calls": calls("bleu.corpus"),
            "bleu.sentence_s": total("bleu.sentence"),
            "bleu.sentence_calls": calls("bleu.sentence"),
            "lexicon.load_s": total("lexicon.load"),
            "lexicon.find_mentions_s": total("lexicon.find_mentions"),
            "lexicon.find_mentions_calls": calls("lexicon.find_mentions"),
            "lexicon.mentions_exact": counts["lexicon.mentions_exact"],
            "lexicon.mentions_fuzzy": counts["lexicon.mentions_fuzzy"],
            "lexicon.levenshtein_calls": lev_calls,
            "lexicon.levenshtein_s": total("lexicon.levenshtein"),
            "lexicon.fuzzy_useful_ratio":
                counts["lexicon.levenshtein_useful"] / lev_calls if lev_calls else 0.0,
            "lexicon.render_s": total("lexicon.render"),
            "lexicon.render_calls": calls("lexicon.render"),
            "lexicon.detag_s": total("lexicon.detag"),
            "lexicon.detag_dropped": counts["lexicon.detag_dropped"],
            "datagen.vocab_s": total("datagen.vocab", outermost=True),
            "datagen.stage1_s": counts["datagen.stage1_s"],
            "datagen.stage2_s": counts["datagen.stage2_s"],
            "datagen.stage3_s": counts["datagen.stage3_s"],
            "datagen.write_self_s": sum(
                own[i] for i, s in enumerate(spans) if s[NAME] == "datagen.write"),
            "datagen.sha256_s": total("datagen.sha256"),
            "combine.select_s": total("combine.select"),
            "combine.clusters": calls("combine.select"),
            "combine.similarity_calls": calls("combine.similarity"),
            "combine.similarity_s": total("combine.similarity"),
            "pipeline.run_s": total("pipeline.run"),
            "pipeline.resolve_family_s": total("pipeline.resolve_family"),
            "trace.unattributed_s": own[0],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                own[i] for i, s in enumerate(spans) if s[NAME].startswith(layer + ".")
            )
        return out
