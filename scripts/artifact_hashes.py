#!/usr/bin/env python3
"""Hash every artifact of a small end-to-end run of the diffetm CLI.

Writes a seeded synthetic corpus, ingests it, and then, in each model mode,
runs ``train`` (deterministic, so no wall-clock time reaches a report),
``eval``, ``topics``, ``kl-test`` and ``sweep-t``.  It then ingests the same
documents again as one input file with a stop-word list, and on that corpus
runs one diffusion ``train`` that validates every other epoch, keeps one
epoch checkpoint and clips its gradients, followed by ``kl-test``.  Last,
one short ``train`` with ``--preset`` and ``--seed`` on a config that leaves
the preset's keys unset, so the merged config, and with it the run id and
the manifest, passes through every layer (defaults < preset < file < flags).
Prints ``{relative path: sha256}`` for every file the run left, as JSON.  A change
that must keep every artifact byte-identical is checked with one command,
which runs the script once more in a subprocess with the other tree's
package on PYTHONPATH, prints every path whose hash differs or that only
one side has, and exits 1 if there is any:

    PYTHONPATH=src python scripts/artifact_hashes.py --against /path/to/parent/src

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
import subprocess
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
# input_file takes precedence over the per-split files
SINGLE = {
    **CONFIG,
    "input_file": "raw/all.txt",
    "stopword_file": "raw/stop.txt",
    "split_fractions": [0.7, 0.15, 0.15],
    "corpus_dir": "corpus_single",
    "mode": "diffusion",
    "epochs": 6,
    "eval_every": 2,
    "max_checkpoints": 1,
    "clip_norm": 0.5,
}
# the config leaves out the keys the preset sets; 20ng-k50 would equal the defaults
PRESET, PRESET_SEED = "20ng-k100", 5
PRESET_CONFIG = {k: v for k, v in {**CONFIG, "epochs": 2}.items() if k not in cli.PRESETS[PRESET]}
# upper case, edge punctuation and a blank line: load_stopwords normalizes or skips each
STOPWORDS = ["W000", "w001.", "", "w002"]


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
        splits = write_split_files(
            "raw", 300, 60, 60, vocab_size=200, n_topics=5, seed=seed, doc_len_range=(20, 60)
        )
        Path(SINGLE["input_file"]).write_text("".join(p.read_text() for p in splits.values()))
        Path(SINGLE["stopword_file"]).write_text("\n".join(STOPWORDS) + "\n")
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
        Path("single.json").write_text(json.dumps(SINGLE))
        _diffetm("ingest", "--config", "single.json")
        _diffetm("train", "--config", "single.json")
        run_dir = Path(SINGLE["output_dir"]) / cli.run_id_of(cli.load_config("single.json"))
        _diffetm("kl-test", "--config", "single.json", "--run-dir", run_dir)
        Path("preset.json").write_text(json.dumps(PRESET_CONFIG))
        _diffetm("train", "--config", "preset.json", "--preset", PRESET, "--seed", PRESET_SEED)
    finally:
        os.chdir(cwd)
    return {
        p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*"))
        if p.is_file()
    }


def hashes_with(src: Path, seed: int) -> dict[str, str]:
    """The hashes this script prints when it imports diffetm from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed)]
    return json.loads(subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=True).stdout)


def differing(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """Every path whose hash differs or that only one side has."""
    return sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--work", help="work directory to keep (default: a temporary one)")
    ap.add_argument("--seed", type=int, default=17, help="seed of the synthetic corpus")
    ap.add_argument(
        "--against", metavar="PATH/src",
        help="compare with a run that imports diffetm from this src; exits 1 on any difference",
    )
    args = ap.parse_args()
    if args.work is not None:
        hashes = run(Path(args.work).resolve(), args.seed)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            hashes = run(Path(tmp), args.seed)
    if args.against is None:
        json.dump(hashes, sys.stdout, indent=1, sort_keys=True)
        print()
        return
    before = hashes_with(Path(args.against).resolve(), args.seed)
    paths = differing(before, hashes)
    for path in paths:
        print(path)
    print(f"{len(paths)} of {len(before.keys() | hashes.keys())} paths differ", file=sys.stderr)
    sys.exit(1 if paths else 0)


if __name__ == "__main__":
    main()
