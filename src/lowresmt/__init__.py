"""Toolkit for translating a closed text into severely low-resource languages.

Non-neural machinery only: alignment-based source-language ranking,
order-preserving named-entity tagging, staged pretraining dataset
generation, and cluster-center combination of multi-source translations.
"""

from .align import (
    AlignmentModel,
    AlignmentStatistics,
    SentenceAlignment,
    collect_statistics,
    train_alignment,
    viterbi_align,
)
from .bleu import BleuScore, corpus_bleu, sentence_bleu
from .combine import combine_corpus, select_center, similarity
from .corpus import ParallelText, SplitSpec, intersect, load_candidates, load_text, save_text, split
from .datagen import (
    DirectionTag,
    StageSpec,
    Vocabulary,
    build_vocab,
    emit_complete,
    emit_star,
    emit_stage,
    symmetrize,
)
from .lexicon import (
    LexiconTable,
    TaggedSentence,
    build_target_dictionary,
    detag,
    load_lexicon,
    tag_sentence,
)
from .pipeline import PipelineConfig, run_pipeline
from .rank import (
    FamilyOfChoice,
    LanguageRanking,
    LanguageScore,
    famd_score,
    famp_score,
    rank_languages,
    select_family,
    word_replacement_translate,
)

__version__ = "0.1.0"
