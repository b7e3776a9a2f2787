"""Toolkit for evaluation-set contamination in tokenized pre-training corpora.

Three pipelines share one set of primitives:

* detection and removal — exact n-gram indexing (:mod:`contamkit.ngram_index`),
  longest-span matching and per-field overlap scores (:mod:`contamkit.matcher`),
  and threshold-based test-set filtering with reports (:mod:`contamkit.decontam`);
* controlled injection — deterministic, condition-controlled plans for placing
  rendered test examples into training batch streams (:mod:`contamkit.injector`);
* impact measurement — corpus BLEU (:mod:`contamkit.metrics`) and the
  per-pair delta and test-set gap tables that ``contamkit report`` prints
  from evaluation records (:mod:`contamkit.analytics`). The package ships
  no score tables of its own.

File formats and streaming I/O live in :mod:`contamkit.corpus_io`, the
condition vocabulary in :mod:`contamkit.conditions`; the ``contamkit``
console script in :mod:`contamkit.cli` wires everything up.

``import contamkit`` loads no submodule: each exported name is imported from
its module on first use, so a program pays only for the modules it touches.
"""

import importlib

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

# The module each exported name lives in; ``__getattr__`` imports it on first use.
_EXPORTS = {
    "corpus_io": ("BatchStream", "CorpusDocument", "TestExample"),
    "matcher": ("ContaminationScore", "MatchSpan", "score_example"),
    "metrics": ("EvalRecord", "corpus_bleu"),
    "ngram_index": ("NGramIndex", "ScanConfig", "build_index"),
    "decontam": ("ContaminationLabel", "DecontamReport", "classify", "decontaminate"),
    "conditions": ("ContaminationCondition", "ContaminationMode", "Temporal", "TrainingConfig"),
    "injector": ("InjectionSchedule", "apply_schedule", "plan_schedule", "render", "verify_schedule"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
