"""The public API exported by ``contamkit/__init__.py`` is the contract:
everything behind it may be rewritten, but these names and signatures stay.

Each exported function and class constructor is recorded by its parameter
names, kinds and defaults, without annotations (their text differs across
Python versions). A default that is not a plain literal is recorded by its
type name; an enum by its member values.
"""

import enum
import inspect

import contamkit


class _Shown:
    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text


def _signature(obj) -> str:
    params = []
    for p in inspect.signature(obj).parameters.values():
        default = p.default
        if default is not p.empty and not (default is None or isinstance(default, (bool, int, float, str))):
            default = _Shown(f"<{type(default).__name__}>")
        params.append(p.replace(annotation=p.empty, default=default))
    return str(inspect.Signature(params))


def _describe(obj):
    if isinstance(obj, type) and issubclass(obj, enum.Enum):
        return [member.value for member in obj]
    if callable(obj):
        return _signature(obj)
    return type(obj).__name__


PUBLIC_API = {
    "BatchStream": "(batch_size, steps=<_HAS_DEFAULT_FACTORY_CLASS>)",
    "ContaminationCondition": "(mode, temporal, copies)",
    "ContaminationLabel": ["clean", "source_only", "target_only", "both"],
    "ContaminationMode": ["full_prompted", "source_only", "target_only", "split_pair", "batched_pair"],
    "ContaminationScore": "(s_source, s_target, longest_source, longest_target)",
    "CorpusDocument": "(doc_id, tokens, category='monolingual', lang='', text=None)",
    "DecontamReport": "(threshold, total, label_counts, per_pair, histogram, bin_width, removed_ids)",
    "EvalRecord": "(system_id, lang_pair, testset_id, bleu, segment_count)",
    "InjectionSchedule": (
        "(condition, config, cap, window_start, window_end, template_names, "
        "example_count, entries, generator_version='contamkit-planner/1')"
    ),
    "MatchSpan": "(doc_ref, corpus_start, example_start, length)",
    "NGramIndex": "(ngram_order, fingerprint_bits=64)",
    "ScanConfig": "(ngram_order=8, threshold=0.7)",
    "Temporal": ["early", "middle", "late", "uniform"],
    "TestExample": "(example_id, src_lang, tgt_lang, source_text, target_text, source_tokens, target_tokens)",
    "TrainingConfig": (
        "(total_steps, batch_size, max_replace_frac=0.05, window_frac=0.02, seed=0, "
        "strict_cap=False)"
    ),
    "apply_schedule": "(stream, schedule, tokenizer=None, require_parallel_slots=False)",
    "build_index": "(corpus, config, fingerprint_bits=64)",
    "classify": "(score, config)",
    "corpus_bleu": "(hypotheses, references, max_order=4, smoothing='none')",
    "decontaminate": "(testset, index, config, bin_width=0.05)",
    "plan_schedule": "(examples, condition, config, template=<PromptTemplate>)",
    "render": "(example, mode, template=<PromptTemplate>)",
    "score_example": "(example, index, config)",
    "verify_schedule": "(schedule, config=None)",
    "__version__": "str",
}


def test_exported_names_are_pinned():
    assert contamkit.__all__ == list(PUBLIC_API)


def test_exported_signatures_are_pinned():
    assert {name: _describe(getattr(contamkit, name)) for name in contamkit.__all__} == PUBLIC_API
