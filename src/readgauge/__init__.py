"""Readability feature extraction and linear-model evaluation toolkit."""

from .cky import KBestList, Parser, ParseTree
from .evaluation import EvalReport, cross_validate, f1_scores, kfold, size_ablation
from .grammar import Grammar, Rule, load_grammar
from .lexical_features import mtld, surface_stats, traditional_scores, ttr_measures
from .lexicons import load_norms, load_senses, mean_rating, sense_features
from .models import (
    LinearModel,
    fuse,
    grid_search_c,
    predict,
    standardize,
    train_linear_svm,
    train_logistic,
)
from .parse_features import (
    constituent_counts,
    parse_deviation,
    parse_deviation_from_max,
    syntactic_ratios,
)
from .pipeline import FeaturePipeline, PipelineConfig
from .pos_features import kl_divergence, pos_deviation, pos_divergence, pos_ratios, tag
from .registry import FeatureSet, Resources, extract, resolve_set, union_sets
from .textcore import (
    Document,
    RawLabel,
    Sentence,
    Token,
    count_syllables,
    make_document,
    split_sentences,
    tokenize,
    word_type_proportions,
)

__version__ = "0.1.0"
