#!/usr/bin/env python3
"""Hash every artifact of a small end-to-end run of the diffetm CLI.

Writes a seeded synthetic corpus, ingests it, and then, in each model mode,
runs ``train`` (deterministic, so no wall-clock time reaches a report),
``eval``, ``topics``, ``kl-test`` and ``sweep-t``.  Prints
``{relative path: sha256}`` for every file the run left, as JSON.  A change that must keep every artifact byte-identical is
checked with one diff, running this script against each tree's package:

    PYTHONPATH=src python scripts/artifact_hashes.py > after.json
    PYTHONPATH=/path/to/parent/src python scripts/artifact_hashes.py > before.json
    diff before.json after.json

Every path in the configs is relative to the work directory, so the run
ids, the manifests and the printed paths do not depend on where it is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from diffetm import cli
from diffetm.model import MODES
from diffetm.synth import write_split_files

CONFIG = {
    "train_file": "raw/train.txt",
    "valid_file": "raw/valid.txt",
    "test_file": "raw/test.txt",
    "corpus_dir": "corpus",
    "min_df": 2,
    "num_topics": 5,
    "embed_size": 8,
    "hidden_size": 16,
    "epochs": 3,
    "batch_size": 64,
    "learning_rate": 0.02,
    "deterministic": True,
    "output_dir": "runs",
    "top_words_export": 10,
    "sweep_t_values": [0, 3, 50],
}


def _diffetm(*argv) -> None:
    """One CLI command in-process, its output discarded; raises if it fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"diffetm {argv[0]} exited {rc}: {err.getvalue().strip()}")


def run(work: Path, seed: int = 17) -> dict[str, str]:
    """Run every command under work (made if missing); the sha256 of each file."""
    work.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        write_split_files(
            "raw", 300, 60, 60, vocab_size=200, n_topics=5, seed=seed, doc_len_range=(20, 60)
        )
        Path("corpus.json").write_text(json.dumps(CONFIG))
        _diffetm("ingest", "--config", "corpus.json")
        for mode in MODES:
            config = f"{mode}.json"
            Path(config).write_text(json.dumps({**CONFIG, "mode": mode}))
            _diffetm("train", "--config", config)
            run_dir = Path(CONFIG["output_dir"]) / cli.run_id_of(cli.load_config(config))
            for command in ("eval", "topics"):
                _diffetm(command, "--config", config, "--checkpoint", run_dir / "best.ckpt")
            _diffetm("kl-test", "--config", config, "--run-dir", run_dir)
            _diffetm("sweep-t", "--config", config)
    finally:
        os.chdir(cwd)
    return {
        p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*"))
        if p.is_file()
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--work", help="work directory to keep (default: a temporary one)")
    ap.add_argument("--seed", type=int, default=17, help="seed of the synthetic corpus")
    args = ap.parse_args()
    if args.work is not None:
        hashes = run(Path(args.work).resolve(), args.seed)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            hashes = run(Path(tmp), args.seed)
    json.dump(hashes, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
