"""Unsupervised word segmentation by greedy penalized-likelihood compression,
with AIC/MDL model selection, boundary-vote ensembles, and evaluation tools."""

__version__ = "0.1.0"

from .corpus import GoldSegmentation, RawCorpus, load_gold, write_segmentation
from .criteria import CRITERIA, CriterionValue, SegmentedText
from .ensemble import majority_vote
from .learner import (LearnerOptions, PenaltyParams, RunResult,
                      SegmentationHypothesis, run, step)
from .lexmodel import Lexicon, TokenSequence, init_from_corpus
from .metrics import evaluate_segmentation, spearman_rho
from .search import GridSpec, RunRecord, run_grid, select_family_minimum

__all__ = [
    "GoldSegmentation", "RawCorpus", "load_gold", "write_segmentation",
    "CRITERIA", "CriterionValue", "SegmentedText", "majority_vote",
    "LearnerOptions", "PenaltyParams", "RunResult", "SegmentationHypothesis",
    "run", "step", "Lexicon", "TokenSequence", "init_from_corpus",
    "evaluate_segmentation", "spearman_rho", "GridSpec", "RunRecord",
    "run_grid", "select_family_minimum", "__version__",
]
