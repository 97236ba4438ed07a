"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; `-rA` shows captured output afterwards.
"""
import json
import math
import random
import time
from pathlib import Path

from helpers import make_entity_table, make_filler_words, tag_line, tag_view
from lowresmt.align import collect_statistics, train_alignment
from lowresmt.bleu import LogRows, corpus_bleu
from lowresmt.cli import main
from lowresmt.combine import select_center
from lowresmt.corpus import ParallelText
from lowresmt.datagen import emit_complete, emit_star, file_sha256
from lowresmt.lexicon import LexiconTable, build_target_dictionary, detag
from lowresmt.rank import famd_score, famp_score, rank_languages
from lowresmt.synth import noised_copy, random_text, renamed_copy, shuffled_copy

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "e2e"


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert passed, f"{criterion}{suffix}"


def test_em_monotonicity():
    src = random_text("s", 200, seed=11, vocab_size=150, min_tokens=4, max_tokens=10)
    tgt = noised_copy(renamed_copy(src, "t"), "t", 0.2, seed=12)
    bitext = [(src.lines[lid], tgt.lines[lid]) for lid in src.lines]
    start = time.perf_counter()
    model = train_alignment(bitext, 10)
    elapsed = time.perf_counter() - start
    lls = model.log_likelihoods
    monotone = all(later >= earlier - 1e-9 for earlier, later in zip(lls, lls[1:]))
    report(
        "EM monotonicity: log-likelihood non-decreasing over 10 iterations"
        " on a 200-pair corpus, runtime < 5 s",
        monotone and elapsed < 5.0,
        f"runtime {elapsed:.2f}s, LL {lls[0]:.1f} -> {lls[-1]:.1f}",
    )


def test_self_alignment_limit():
    rng = random.Random(3)
    vocab = [f"w{i}" for i in range(45)]
    lines = [tuple(rng.sample(vocab, rng.randint(4, 8))) for _ in range(60)]
    bitext = [(line, line) for line in lines]

    model = train_alignment(bitext, 10)
    stats = collect_statistics(model, bitext)
    famd = famd_score(stats)

    n_train = int(len(bitext) * 0.9)
    heldout_model = train_alignment(bitext[:n_train], 10)
    heldout_stats = collect_statistics(heldout_model, bitext[:n_train])
    famp = famp_score(heldout_model, heldout_stats, bitext[n_train:])

    report(
        "Self-alignment limit: famd >= 0.99 and famp = 1.0 +- 1e-6 when"
        " source equals target",
        famd >= 0.99 and abs(famp - 1.0) <= 1e-6,
        f"famd={famd:.4f}, famp={famp:.6f}",
    )


def test_ranking_discrimination():
    all_good = True
    details = []
    for seed in range(5):
        target = random_text("tgt", 120, seed=seed, vocab_size=50)
        copy = ParallelText("copy", dict(target.lines))
        candidates = [
            copy,
            noised_copy(copy, "noised", 0.25, seed=seed + 100),
            shuffled_copy(copy, "shuffled", seed=seed + 200),
            renamed_copy(random_text("r", 120, seed=seed + 300, vocab_size=50), "random"),
        ]
        famp_ranking, _ = rank_languages(target, candidates, "famp")
        famp_values = {e.language: e.value for e in famp_ranking.entries}
        famd_ranking, _ = rank_languages(target, candidates, "famd")
        famd_values = {e.language: e.value for e in famd_ranking.entries}
        ok = (
            famp_values["copy"] > famp_values["noised"] > famp_values["random"]
            and famd_values["shuffled"] < famd_values["copy"]
        )
        all_good = all_good and ok
        details.append(f"seed {seed}: {'ok' if ok else 'BROKEN'}")
    report(
        "Ranking discrimination: copy > noised > random under FAMP and"
        " shuffled < copy under FAMD across 5 seeds",
        all_good,
        "; ".join(details),
    )


def test_lexicon_round_trip():
    rng = random.Random(17)
    table = make_entity_table(50, ["src", "tgt"], rng)
    filler = make_filler_words(40, rng)
    surface_to_target = {
        table.forms(eid, "src")[0]: table.forms(eid, "tgt")[0]
        for eid in table.entities
    }
    failures = 0
    for _ in range(1000):
        tokens = rng.sample(filler, rng.randint(2, 7))
        for entity_id in rng.sample(sorted(table.entities), rng.randint(0, 4)):
            tokens.insert(rng.randint(0, len(tokens)), table.forms(entity_id, "src")[0])
        template, source_dict = tag_line(tokens, "src", table)
        target_dict = build_target_dictionary(source_dict, "tgt", table)
        restored, dropped = detag(template, target_dict)
        expected = [surface_to_target.get(token, token) for token in tokens]
        if restored != expected or dropped:
            failures += 1

    paper_table = LexiconTable(
        {
            "e_andika": {"en": ["Andika"]},
            "e_fatma": {"en": ["Fatma"]},
            "e_wati": {"en": ["Wati"]},
            "e_yi": {"en": ["Yi"]},
        }
    )
    sentence = "Fatma asks her sister Wati to call Yi , the brother of Andika".split()
    template = " ".join(tag_line(sentence, "en", paper_table)[0])
    template_ok = template == (
        "__NE0 asks her sister __NE1 to call __NE2 , the brother of __NE3"
    )
    report(
        "Lexicon round trip: 1,000 generated sentences over a 50-entity table"
        " restore with 0 failures; the four-entity example tags token-for-token",
        failures == 0 and template_ok,
        f"failures={failures}, template={'ok' if template_ok else template}",
    )


def test_dataset_counts():
    def make_view(k, n):
        languages = [f"l{i:02d}" for i in range(k)]
        view = {
            lang: ParallelText(
                lang, {f"i{j:04d}": (f"{lang}w{j}",) for j in range(n)}
            )
            for lang in languages
        }
        return languages, view

    all_good = True
    checked = 0
    for k in (2, 3, 11):
        for n in (1, 10, 1038):
            languages, view = make_view(k, n)
            ids = list(view[languages[0]].lines)
            tagged = tag_view(view)
            import tempfile

            with tempfile.TemporaryDirectory() as tmp:
                complete_first = emit_complete(
                    languages, ids, Path(tmp) / "a", "train", tagged=tagged
                )["examples"]
                emit_complete(languages, ids, Path(tmp) / "b", "train", tagged=tagged)
                star_first = emit_star(
                    languages[:-1], languages[-1], ids, Path(tmp) / "c", "train",
                    tagged=tagged,
                )["examples"]
                emit_star(
                    languages[:-1], languages[-1], ids, Path(tmp) / "d", "train",
                    tagged=tagged,
                )
                identical = file_sha256(Path(tmp) / "a" / "train.src") == file_sha256(
                    Path(tmp) / "b" / "train.src"
                ) and file_sha256(Path(tmp) / "c" / "train.tgt") == file_sha256(
                    Path(tmp) / "d" / "train.tgt"
                )
            all_good = all_good and complete_first == k * (k - 1) * n
            all_good = all_good and star_first == (k - 1) * n
            all_good = all_good and identical
            checked += 1
    report(
        "Dataset counts: complete emits k(k-1)n and star |sources|n for"
        " k in {2,3,11}, n in {1,10,1038}; files byte-identical across runs",
        all_good,
        f"{checked} configurations checked",
    )


def oracle_similarity(a, b):
    def one_way(hyp, ref):
        if not hyp and not ref:
            return 1.0
        if not hyp or not ref:
            return 0.0
        product = 1.0
        for n in range(1, 5):
            hyp_grams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
            ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            matches = sum(
                min(hyp_grams.count(g), ref_grams.count(g)) for g in set(hyp_grams)
            )
            if n == 1:
                p = matches / len(hyp_grams)
            else:
                p = (matches + 1) / (len(hyp_grams) + 1)
            product *= p
        bp = 1.0 if len(hyp) >= len(ref) else math.exp(1 - len(ref) / len(hyp))
        return bp * product ** 0.25

    return 0.5 * (one_way(a, b) + one_way(b, a))


def test_combiner_oracle():
    rng = random.Random(23)
    vocab = [f"w{i}" for i in range(10)]
    mismatches = 0
    for _ in range(500):
        k = rng.randint(1, 10)
        sentences = [
            tuple(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
            for _ in range(k)
        ]
        candidates = [(f"lang{i}", s) for i, s in enumerate(sentences)]
        choice = select_center("L", candidates, LogRows())
        centralities = [
            sum(oracle_similarity(a, b) for j, b in enumerate(sentences) if j != i)
            for i, a in enumerate(sentences)
        ]
        best = max(centralities)
        if abs(choice.centrality - best) > 1e-9:
            mismatches += 1
            continue
        top = sorted(centralities, reverse=True)
        unique = len(top) == 1 or top[0] - top[1] > 1e-9
        if unique:
            expected = sentences[centralities.index(best)]
            if choice.chosen_tokens != expected:
                mismatches += 1

    duplicate_failures = 0
    for trial in range(100):
        k = rng.randint(2, 10)
        duplicates = k // 2 + 1
        kept = tuple(rng.choice(vocab) for _ in range(rng.randint(2, 6)))
        sentences = [kept] * duplicates + [
            tuple(f"x{trial}y{i}z{j}" for j in range(rng.randint(2, 6)))
            for i in range(k - duplicates)
        ]
        order = list(range(len(sentences)))
        rng.shuffle(order)
        candidates = [(f"lang{i}", sentences[i]) for i in order]
        if select_center("L", candidates, LogRows()).chosen_tokens != kept:
            duplicate_failures += 1
    report(
        "Combiner oracle: select_center matches exhaustive brute force on 500"
        " random clusters; majority-duplicate clusters pick the duplicate",
        mismatches == 0 and duplicate_failures == 0,
        f"mismatches={mismatches}, duplicate failures={duplicate_failures}",
    )


def test_bleu_oracle():
    # expected values are closed-form hand computations of clipped n-gram
    # counts, e.g. pair 3: p=(5/6, 3/5, 2/4, 1/3), equal lengths so BP=1
    cases = [
        (["a b c d"], ["a b c d"], 1.0),
        (["a b c d"], ["a b c d e"], math.exp(1 - 5 / 4)),
        (
            ["the cat sat on the mat"],
            ["the cat sat on a mat"],
            (5 / 6 * 3 / 5 * 2 / 4 * 1 / 3) ** 0.25,
        ),
        (["a b c", "d e f g"], ["a b c", "d e f h"], 0.0),
        (
            ["a b x d e f g h"],
            ["a b c d e f g h"],
            (7 / 8 * 5 / 7 * 3 / 6 * 2 / 5) ** 0.25,
        ),
    ]
    worst = 0.0
    for hyp_lines, ref_lines, expected in cases:
        got = corpus_bleu(
            [h.split() for h in hyp_lines], [r.split() for r in ref_lines]
        ).value
        worst = max(worst, abs(got - expected))
    identity = corpus_bleu([["q", "r"]], [["q", "r"]]).value
    report(
        "BLEU oracle: matches 5 hand-computed corpus scores to 1e-4 and"
        " corpus_bleu(h,h) = 1.0",
        worst < 1e-4 and identity == 1.0,
        f"worst deviation {worst:.2e}",
    )


def test_end_to_end_fixture(tmp_path):
    golden = json.loads((FIXTURE_DIR / "golden_manifest.json").read_text())
    start = time.perf_counter()
    code = main(
        [
            "pipeline",
            "--config", str(FIXTURE_DIR / "config.json"),
            "--out-dir", str(tmp_path),
        ]
    )
    elapsed = time.perf_counter() - start
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    verified = main(["verify", str(tmp_path)])
    report(
        "End-to-end fixture: pipeline on the bundled 6-language corpus"
        " finishes < 60 s with manifest checksums equal to the golden copy,"
        " and verify finds its files as the manifest lists them",
        code == 0 and elapsed < 60.0 and manifest == golden and verified == 0,
        f"runtime {elapsed:.2f}s, family {manifest.get('family')}, verify exit {verified}",
    )
