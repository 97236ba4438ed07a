"""Command-line interface: one subcommand per pipeline operation.

Subcommands: align, rank, tag, detag, combine, score, pipeline, verify.
Logs go to standard error; data goes to files (score prints its TSV to
stdout unless redirected with --output).
"""
from __future__ import annotations

import argparse
import logging
import sys
from collections import Counter
from pathlib import Path

from . import align as align_mod
from . import combine as combine_mod
from .bleu import corpus_bleu
from .corpus import bitext, load_candidates, load_text, read_rows, same_ids, save_text, write_lines
from .datagen import tag_text
from .lexicon import (
    LexiconTable,
    absent_languages,
    build_target_dictionary,
    detag,
    load_lexicon,
    placeholder,
)
from .pipeline import PipelineConfig, run_pipeline, verify_output
from .rank import rank_languages, write_ranking, write_skips

log = logging.getLogger("lowresmt")


def _cmd_align(args) -> int:
    if args.iterations < 1:
        raise ValueError(f"--iterations must be >= 1, got {args.iterations}")
    if not 0.0 < args.p_null < 1.0:
        raise ValueError(f"--p-null must lie strictly between 0 and 1, got {args.p_null}")
    source = load_text(args.source, Path(args.source).stem)
    target = load_text(args.target, Path(args.target).stem)
    pairs = bitext(source, target)
    if not pairs:
        raise ValueError("source and target share no line ids")
    model = align_mod.train_alignment(pairs, args.iterations, p_null=args.p_null)
    align_mod.save_model(model, args.output)
    log.info("model saved to %s (%d source types)", args.output, len(model.ttable))
    if args.stats_output:
        stats = align_mod.collect_statistics(model, pairs)
        align_mod.save_statistics(stats, args.stats_output)
        log.info("statistics saved to %s", args.stats_output)
    return 0


def _cmd_rank(args) -> int:
    if args.min_lines < 0:
        raise ValueError(f"--min-lines must be >= 0, got {args.min_lines}")
    if args.iterations < 1:
        raise ValueError(f"--iterations must be >= 1, got {args.iterations}")
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    target_path = Path(args.target)
    target = load_text(target_path, target_path.stem)
    ranking, skips = rank_languages(
        target,
        load_candidates(args.candidates, target),
        args.metric,
        min_shared_lines=args.min_lines,
        iterations=args.iterations,
        workers=args.workers,
    )
    write_ranking(ranking, args.output)
    if args.skip_report:
        write_skips(skips, args.skip_report)
    log.info("ranked %d languages, skipped %d", len(ranking.entries), len(skips))
    return 0


def _warn_if_absent(table: LexiconTable, language: str, consequence: str) -> None:
    """One warning when the lexicon holds no form in ``language``."""
    if absent_languages(table, [language]):
        log.warning("the lexicon holds no form in language %r; %s", language, consequence)


def _cmd_tag(args) -> int:
    if args.edit_threshold < 0:
        raise ValueError(f"--edit-threshold must be >= 0, got {args.edit_threshold}")
    table = load_lexicon(args.lexicon)
    text = load_text(args.input, args.language)
    _warn_if_absent(table, args.language, "every line is written untagged")
    # the pipeline's own search and rendering, so a template is a stage file's source side
    tagged = tag_text(text, table, args.edit_threshold)
    template_rows = []
    dict_rows = []
    mentions = 0
    for lid, template in tagged.joined.items():
        template_rows.append(f"{lid}\t{template}")
        found = tagged.mentions[lid]
        mentions += len(found)
        # each entity's first surface, in first-mention order: the placeholder order
        surfaces: dict[str, str] = {}
        for mention in found:
            surfaces.setdefault(mention.entity_id, mention.surface)
        for index, (entity_id, surface) in enumerate(surfaces.items()):
            dict_rows.append(f"{lid}\t{placeholder(index)}\t{entity_id}\t{surface}")
    write_lines(args.output, template_rows)
    if args.dicts:
        write_lines(args.dicts, dict_rows)
    log.info(
        "tagged %d lines: %d entity mentions, %d dictionary rows",
        len(text.lines), mentions, len(dict_rows),
    )
    return 0


def _read_dicts(path: str | Path) -> dict[str, dict[str, tuple[str, str]]]:
    out: dict[str, dict[str, tuple[str, str]]] = {}
    for number, fields in read_rows(path):
        if len(fields) != 4:
            raise ValueError(f"{path}:{number}: expected line_id<TAB>placeholder<TAB>entity<TAB>surface")
        lid, name, entity_id, surface = fields
        line = out.setdefault(lid, {})
        if name in line:
            raise ValueError(f"{path}:{number}: placeholder {name!r} of line {lid!r} is listed twice")
        line[name] = (entity_id, surface)
    return out


def _cmd_detag(args) -> int:
    table = load_lexicon(args.lexicon)
    text = load_text(args.input, args.language)
    dicts = _read_dicts(args.dicts)
    _warn_if_absent(table, args.language, "every placeholder takes its source surface")
    dropped: Counter = Counter()
    rows = []
    for lid, tokens in text.lines.items():
        target_dict = build_target_dictionary(dicts.get(lid, {}), args.language, table)
        decoded, missing = detag(tokens, target_dict)
        dropped.update(missing)
        rows.append(f"{lid}\t{' '.join(decoded)}")
    write_lines(args.output, rows)
    if args.report:
        write_lines(args.report, (f"{name}\t{count}" for name, count in sorted(dropped.items())))
    if dropped:
        log.warning("dropped %d placeholder occurrence(s) without entries", sum(dropped.values()))
    return 0


def _cmd_combine(args) -> int:
    translations = [load_text(path, Path(path).stem) for path in args.inputs]
    combined, report = combine_mod.combine_corpus(translations)
    save_text(combined, args.output)
    if args.report:
        combine_mod.write_combine_report(report, args.report)
    log.info(
        "combined %d lines; selection histogram: %s",
        len(combined.lines),
        dict(report.histogram),
    )
    return 0


def _cmd_score(args) -> int:
    hyp = load_text(args.hypotheses, "hyp")
    ref = load_text(args.references, "ref")
    ids = same_ids([hyp, ref])
    score = corpus_bleu([hyp.lines[lid] for lid in ids], [ref.lines[lid] for lid in ids])
    p1, p2, p3, p4 = score.precisions
    row = (
        f"{score.value:.6f}\t{p1:.6f}\t{p2:.6f}\t{p3:.6f}\t{p4:.6f}"
        f"\t{score.brevity_penalty:.6f}"
    )
    header = "#bleu\tp1\tp2\tp3\tp4\tbrevity_penalty"
    if args.output:
        write_lines(args.output, [header, row])
    else:
        print(header)
        print(row)
    return 0


def _cmd_pipeline(args) -> int:
    config = PipelineConfig.from_file(args.config, out_dir=args.out_dir, workers=args.workers)
    run_pipeline(config, stages=(1, 2, 3) if args.stage == "all" else (int(args.stage),))
    return 0


def _cmd_verify(args) -> int:
    faults = verify_output(args.out_dir)
    for fault in faults:
        log.error("%s", fault)
    if faults:
        return 1
    log.info("%s matches its manifest", args.out_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowresmt",
        description="Source ranking, entity tagging, staged dataset generation,"
        " and translation combination for closed-text low-resource translation.",
    )
    parser.add_argument(
        "--log-level",
        default="INFO",
        help="logging level for stderr (default INFO)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="train an alignment model on two corpora")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--p-null", type=float, default=0.08)
    p.add_argument("--output", required=True, help="model TSV path")
    p.add_argument("--stats-output", help="optional statistics TSV path")
    p.set_defaults(handler=_cmd_align)

    p = sub.add_parser("rank", help="rank candidate languages against a target")
    p.add_argument("--target", required=True, help="target corpus file")
    p.add_argument("--candidates", required=True, help="directory of <code>.txt corpora")
    p.add_argument("--metric", required=True, choices=["famd", "famp"])
    p.add_argument("--output", required=True, help="ranking TSV path")
    p.add_argument("--skip-report", help="TSV for excluded candidates")
    p.add_argument("--min-lines", type=int, default=50)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("tag", help="replace entity mentions with placeholders")
    p.add_argument("--input", required=True)
    p.add_argument("--language", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--output", required=True, help="tagged corpus path")
    p.add_argument("--dicts", help="per-line placeholder dictionary TSV")
    p.add_argument("--edit-threshold", type=int, default=2)
    p.set_defaults(handler=_cmd_tag)

    p = sub.add_parser("detag", help="restore entity surfaces from placeholders")
    p.add_argument("--input", required=True, help="translated templates")
    p.add_argument("--dicts", required=True, help="dictionary TSV from tag")
    p.add_argument("--language", required=True, help="target language code")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--report", help="dropped-placeholder counts TSV")
    p.set_defaults(handler=_cmd_detag)

    p = sub.add_parser("combine", help="merge translations by cluster center")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--report", help="line_id/chosen_language/centrality TSV")
    p.set_defaults(handler=_cmd_combine)

    p = sub.add_parser("score", help="corpus BLEU of hypotheses against references")
    p.add_argument("--hypotheses", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--output", help="write the TSV here instead of stdout")
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("pipeline", help="rank, select the family, emit the stages")
    p.add_argument("--config", required=True)
    p.add_argument("--stage", default="all", choices=["all", "1", "2", "3"])
    p.add_argument("--out-dir", help="override the config's output directory")
    p.add_argument("--workers", type=int, help="override the config's worker count")
    p.set_defaults(handler=_cmd_pipeline)

    p = sub.add_parser("verify", help="re-check an output directory against its manifest")
    p.add_argument("out_dir", help="directory a pipeline run wrote")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.getLevelName(args.log_level.upper())
    logging.basicConfig(
        stream=sys.stderr,
        level=level if isinstance(level, int) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if not isinstance(level, int):
            raise ValueError(
                f"unknown log level {args.log_level!r};"
                " expected DEBUG, INFO, WARNING, ERROR or CRITICAL"
            )
        return args.handler(args)
    except (ValueError, OSError) as error:
        log.error("%s", error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
