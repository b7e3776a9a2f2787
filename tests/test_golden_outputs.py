"""Golden outputs: what the CLI writes for every benchmark workload, pinned by digest.

For each workload of ``perfbench/gen.py`` at seeds 1 and 2, the inputs are
generated into a temporary directory. The workload's set-up, ``prepare``, one
round and ``report`` then run in this process through ``perfbench/run.py``'s
``run_in_process``, and each result passes the workload's own output checks.
The run is compared with ``tests/data/golden_outputs.json``:

* the sha256 of every generated input file, compared first, so that a
  generator that differs (another CPython's ``random``) is reported as such
  and not blamed on the program;
* the exit code and the sha256 of stdout and stderr of each operation,
  ``prepare``'s included;
* the sha256 of each file the run wrote.

A failure names the workload, the seed, and each operation or file that
differs. A change that alters an output on purpose re-records the manifest,
and names every changed entry:

    PYTHONPATH=src python tests/test_golden_outputs.py --record
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))  # perfbench's modules import one another by bare name

import gen
import run

MANIFEST = Path(__file__).resolve().parent / "data" / "golden_outputs.json"
SEEDS = (1, 2)
CASES = [(workload, seed) for workload in sorted(gen.PROFILES) for seed in SEEDS]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digests(work: Path) -> dict[str, str]:
    return {p.relative_to(work).as_posix(): _sha256(p.read_bytes()) for p in sorted(work.rglob("*")) if p.is_file()}


def run_workload(workload: str, seed: int, work: Path) -> dict:
    """Generate one workload's inputs into ``work``, run it once, and digest what it read and wrote."""
    expected = gen.generate(workload, seed, work)
    inputs = _file_digests(work)
    wl = run.Workload(workload, seed, work, expected)
    op_of = {tuple(argv): op for op, argv in wl.argv.items()}
    operations = {}

    def launch(argv: list[str], stage: str = "") -> run.Result:
        r = run.run_in_process(work, argv)
        operations[stage + op_of[tuple(argv)]] = {
            "exit": r.code, "stdout": _sha256(r.stdout.encode()), "stderr": _sha256(r.stderr.encode()),
        }
        return r

    try:
        wl.check("setup", launch(wl.argv["setup"]))
        wl.prepare(lambda argv: launch(argv, "prepare "))
        for op in [*wl.round, "report"]:
            wl.check(op, launch(wl.argv[op]))
    except run.check.CheckError as e:
        raise AssertionError(f"{workload} seed {seed}: perfbench check failed: {e}") from e
    outputs = {name: digest for name, digest in _file_digests(work).items() if inputs.get(name) != digest}
    return {"inputs": inputs, "operations": operations, "outputs": outputs}


def _differences(kind: str, want: dict, got: dict) -> list[str]:
    return [
        f"{kind} {name}: " + ("missing" if name not in got else "new" if name not in want else f"{want[name]} != {got[name]}")
        for name in sorted(want.keys() | got.keys())
        if want.get(name) != got.get(name)
    ]


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("workload,seed", CASES)
def test_outputs_match_the_golden_manifest(workload, seed, manifest, tmp_path):
    want = manifest[workload][str(seed)]
    got = run_workload(workload, seed, tmp_path)
    where = f"{workload} seed {seed}"
    changed_inputs = _differences("input", want["inputs"], got["inputs"])
    assert not changed_inputs, (
        f"{where}: perfbench/gen.py generated other inputs than those recorded (another CPython's random?),"
        " so the outputs cannot be compared:\n" + "\n".join(changed_inputs)
    )
    changed = _differences("operation", want["operations"], got["operations"])
    changed += _differences("file", want["outputs"], got["outputs"])
    assert not changed, f"{where}: outputs differ from the golden manifest:\n" + "\n".join(changed)


def record() -> None:
    """Run every case and write the manifest."""
    manifest = {}
    for workload, seed in CASES:
        with tempfile.TemporaryDirectory() as work:
            manifest.setdefault(workload, {})[str(seed)] = run_workload(workload, seed, Path(work))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --record")
    record()
