"""Toolkit for translating a closed text into severely low-resource languages.

Non-neural machinery only: alignment-based source-language ranking,
order-preserving named-entity tagging, staged pretraining dataset
generation, and cluster-center combination of multi-source translations.
"""

from .align import AlignmentModel, AlignmentStatistics, collect_statistics, train_alignment
from .bleu import BleuScore, corpus_bleu
from .combine import combine_corpus
from .corpus import ParallelText, load_candidates, load_text, save_text
from .lexicon import LexiconTable, build_target_dictionary, detag, load_lexicon
from .pipeline import PipelineConfig, run_pipeline
from .rank import FamilyOfChoice, LanguageRanking, LanguageScore, rank_languages, select_family

__version__ = "0.1.0"
