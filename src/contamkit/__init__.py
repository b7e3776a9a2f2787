"""Toolkit for evaluation-set contamination in tokenized pre-training corpora.

Three pipelines share one set of primitives:

* detection and removal — exact n-gram indexing (:mod:`contamkit.ngram_index`),
  longest-span matching and per-field overlap scores (:mod:`contamkit.matcher`),
  and threshold-based test-set filtering with reports (:mod:`contamkit.decontam`);
* controlled injection — deterministic, condition-controlled plans for placing
  rendered test examples into training batch streams (:mod:`contamkit.injector`);
* impact measurement — corpus BLEU (:mod:`contamkit.metrics`) and the
  delta/gap/direction analytics built on it (:mod:`contamkit.analytics`).

File formats and streaming I/O live in :mod:`contamkit.corpus_io`; the
``contamkit`` console script in :mod:`contamkit.cli` wires everything up.
"""

from .corpus_io import BatchStream, CorpusDocument, TestExample
from .matcher import ContaminationScore, MatchSpan, score_example
from .metrics import EvalRecord, corpus_bleu
from .ngram_index import NGramIndex, ScanConfig, build_index
from .decontam import ContaminationLabel, DecontamReport, classify, decontaminate
from .injector import (
    ContaminationCondition,
    ContaminationMode,
    InjectionSchedule,
    Temporal,
    TrainingConfig,
    apply_schedule,
    plan_schedule,
    render,
    verify_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "BatchStream",
    "ContaminationCondition",
    "ContaminationLabel",
    "ContaminationMode",
    "ContaminationScore",
    "CorpusDocument",
    "DecontamReport",
    "EvalRecord",
    "InjectionSchedule",
    "MatchSpan",
    "NGramIndex",
    "ScanConfig",
    "Temporal",
    "TestExample",
    "TrainingConfig",
    "apply_schedule",
    "build_index",
    "classify",
    "corpus_bleu",
    "decontaminate",
    "plan_schedule",
    "render",
    "score_example",
    "verify_schedule",
    "__version__",
]
