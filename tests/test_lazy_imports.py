"""A launch imports only the modules its subcommand runs, and the package
exports its names on first use.

Each subcommand runs through ``contamkit.cli.main`` in a fresh interpreter,
which then reports the ``contamkit`` submodules it holds.
"""

import importlib
import json
import random
import subprocess
import sys

import pytest

import contamkit
from contamkit.corpus_io import CorpusDocument, write_batches, write_testset

from helpers import ENV, _synth_stream, make_example, random_tokens, write_corpus

REPORT_MODULES = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('contamkit'))))"
RUN_MAIN = f"import json, sys; from contamkit.cli import main; code = main(sys.argv[1:]); {REPORT_MODULES}; sys.exit(code)"


def _modules_after(code: str, *argv: str, cwd=None, exit_codes=(0,)) -> set[str]:
    result = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=ENV, capture_output=True, text=True)
    assert result.returncode in exit_codes, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def loaded(tmp_path_factory) -> dict[str, set[str]]:
    """The contamkit modules each subcommand leaves loaded, from one small pipeline."""
    d = tmp_path_factory.mktemp("pipeline")
    rng = random.Random(0)
    examples = [make_example(f"ex{i}", random_tokens(rng, 12, 500), random_tokens(rng, 12, 500)) for i in range(4)]
    write_testset(examples, d / "t.jsonl")
    write_corpus([CorpusDocument(f"d{i}", random_tokens(rng, 40, 500)) for i in range(6)], d / "c.jsonl")
    write_batches(_synth_stream(20, 8).steps, d / "s.jsonl")
    (d / "hyp.txt").write_text("a b c d\ne f\n")
    (d / "ref.txt").write_text("a b c e\ne f g\n")
    for name, bleu in (("base", 20.0), ("cont", 25.0)):
        record = {"system_id": name, "lang_pair": "de-en", "testset_id": "t", "bleu": bleu, "segment_count": 4}
        (d / f"{name}.jsonl").write_text(json.dumps(record) + "\n")
    runs = {
        "index": ["index", "--corpus", "c.jsonl", "--ngram", "5", "--out", "i.ctkx"],
        "decontam": ["decontam", "--testset", "t.jsonl", "--index", "i.ctkx", "--scores-out", "scores.jsonl"],
        "inject plan": ["inject", "plan", "--testset", "t.jsonl", "--mode", "full_prompted", "--temporal", "middle",
                        "--copies", "2", "--steps", "20", "--batch-size", "8", "--cap", "0.25", "--out", "plan.jsonl"],
        "inject verify": ["inject", "verify", "--schedule", "plan.jsonl"],
        "inject apply": ["inject", "apply", "--stream", "s.jsonl", "--schedule", "plan.jsonl", "--out", "a.jsonl"],
        "bleu": ["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt"],
        "report": ["report", "--baseline", "base.jsonl", "--contaminated", "cont.jsonl"],
    }
    # decontam exits 3 when it finds contamination, which these random examples may show
    return {op: _modules_after(RUN_MAIN, *argv, cwd=d, exit_codes=(0, 3)) for op, argv in runs.items()}


@pytest.mark.parametrize("op", ["index", "decontam", "bleu"])
def test_detection_and_scoring_load_no_planner_or_analytics(loaded, op):
    assert not loaded[op] & {"contamkit.injector", "contamkit.analytics"}


@pytest.mark.parametrize("op", ["index", "decontam", "inject apply"])
def test_launches_that_score_no_bleu_load_no_metrics(loaded, op):
    assert "contamkit.metrics" not in loaded[op]


def test_decontam_loads_the_matcher_and_index_loads_neither_it_nor_decontam(loaded):
    assert {"contamkit.matcher", "contamkit.decontam"} <= loaded["decontam"]
    assert not loaded["index"] & {"contamkit.matcher", "contamkit.decontam"}


@pytest.mark.parametrize("op", ["inject plan", "inject verify", "inject apply"])
def test_inject_loads_the_planner_and_no_detection_or_analytics(loaded, op):
    assert "contamkit.injector" in loaded[op]
    assert not loaded[op] & {"contamkit.matcher", "contamkit.decontam", "contamkit.analytics"}


@pytest.mark.parametrize("op", ["inject plan", "inject verify", "inject apply", "bleu", "report"])
def test_launches_that_build_or_scan_no_index_load_no_index(loaded, op):
    assert "contamkit.ngram_index" not in loaded[op]


def test_report_loads_analytics_without_the_planner(loaded):
    assert "contamkit.analytics" in loaded["report"]
    assert not loaded["report"] & {"contamkit.injector", "contamkit.matcher", "contamkit.decontam"}


def test_bare_package_import_loads_no_submodule():
    assert _modules_after(f"import json, sys, contamkit; {REPORT_MODULES}") == {"contamkit"}


# -- lazy exports -------------------------------------------------------------------


def test_each_export_is_the_object_of_its_home_module():
    for module, names in contamkit._EXPORTS.items():
        home = importlib.import_module(f"contamkit.{module}")
        for name in names:
            assert getattr(contamkit, name) is getattr(home, name), name
    assert sorted(contamkit._HOME) == sorted(set(contamkit.__all__) - {"__version__"})


def test_dir_lists_every_export():
    assert set(contamkit.__all__) <= set(dir(contamkit))


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        contamkit.no_such_name


def test_star_import_binds_every_export():
    code = ("import json, sys; from contamkit import *; import contamkit; "
            "print(json.dumps([n for n in contamkit.__all__ if n not in globals()]))")
    result = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == []
