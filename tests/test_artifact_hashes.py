"""scripts/artifact_hashes.py covers every command and prints the same
hashes on every run, so comparing two trees' hashes checks byte identity."""

import importlib.util
import os
import subprocess
import sys
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

    # per mode: one run, its eval and topics exports, one sweep over three T;
    # then one more run, with its kl-test, on the corpus ingested from one file,
    # and one run whose config takes the preset's keys and the seed flag
    assert count("best.ckpt") == 3 + 3 * 3 + 1 + 1
    assert count("kl_test.csv") == 3 + 1
    assert count("metrics_report.json") == 3
    assert count("top_words.tsv") == 3 * 2
    assert count("sweep.csv") == 3
    assert count("train.corpus") == 2


def test_differing_names_changed_and_one_sided_paths():
    differing = _load_script().differing
    before = {"a": "1", "b": "2", "c": "3"}
    assert differing(before, dict(before)) == []
    assert differing(before, {"a": "1", "b": "9", "d": "4"}) == ["b", "c", "d"]


def test_against_its_own_src_reports_no_difference():
    src = SCRIPT.parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--against", str(src)], env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("0 of ")
