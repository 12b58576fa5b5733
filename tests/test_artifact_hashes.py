"""scripts/artifact_hashes.py covers every command and prints the same
hashes on every run, so a diff of its output checks byte identity."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_hashes.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("artifact_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_print_the_same_hashes(tmp_path):
    run = _load_script().run
    first = run(tmp_path / "a")
    assert first == run(tmp_path / "b")

    def count(name):
        return sum(Path(p).name == name for p in first)

    # per mode: one run, its eval and topics exports, one sweep over three T
    assert count("best.ckpt") == 3 + 3 * 3
    assert count("kl_test.csv") == 3
    assert count("metrics_report.json") == 3
    assert count("top_words.tsv") == 3 * 2
    assert count("sweep.csv") == 3
    assert count("train.corpus") == 1
