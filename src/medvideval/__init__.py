"""Evaluation toolkit and BM25 baseline for medical video question answering.

Scores video-retrieval runs, temporal visual-answer-localization runs, and
instructional step-captioning runs against graded ground truth, generates
assessment pools, and bundles a BM25 subtitle-search baseline that produces
scoreable runs.
"""

from .core import (
    FormatError,
    RelevanceGrade,
    TimeInterval,
    ToolkitWarning,
    parse_timestamp,
)
from .io_formats import (
    CorpusDocument,
    JudgedVideo,
    LocalizationCandidate,
    MetricReport,
    RetrievalRunEntry,
    Step,
    StepSequence,
    parse_corpus,
    parse_localization_run,
    parse_qrels,
    parse_retrieval_run,
    parse_steps,
    write_report,
)
from .retrieval_metrics import (
    average_precision,
    evaluate_rankings,
    evaluate_retrieval,
    ndcg,
    precision_at_k,
    recall_at_k,
)
from .segment_metrics import (
    IoUParams,
    evaluate_localization,
    mean_iou,
    recall_at_n_iou,
    relaxed_iou,
    temporal_iou,
)
from .step_alignment import (
    AlignmentParams,
    AlignmentResult,
    align_steps,
    alignment_score,
    evaluate_captions,
    evaluate_steps,
    step_prf,
    step_segment_stats,
)
from .text_metrics import (
    CaptionPair,
    bleu_n,
    bleu_scores_tokens,
    lcs_length,
    meteor,
    meteor_tokens,
    rouge_l,
    rouge_l_tokens,
    token_masks,
    tokenize,
)
from .pooling import Pool, PoolBand, PoolSpec, build_pool, run_prefix
from .bm25 import Bm25Params, InvertedIndex, build_index, load_index, save_index, search

__version__ = "0.1.0"
