"""Every artifact writer replaces its file atomically: a write that fails
part-way leaves the old file in place and no temp file behind."""

import builtins
import json
from pathlib import Path

import pytest

from diffetm import atomic, cli
from diffetm.synth import write_split_files


class DiskFull(OSError):
    """The write fault the tests inject."""


class HalfWriter:
    """A file whose first write puts down half its chunk, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        data = memoryview(chunk).cast("B")
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise DiskFull("disk full")


def fail_mid_write(monkeypatch, name: str) -> None:
    """Make the atomic write of the file called name fail half-way."""
    real_open = builtins.open

    def open_failing(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfWriter(fh) if Path(file).name == f".{name}.tmp" else fh

    monkeypatch.setattr(atomic, "open", open_failing, raising=False)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every command run once on a small corpus; returns the command lines
    and the directory of each command's output."""
    root = tmp_path_factory.mktemp("atomic")
    write_split_files(root / "raw", 40, 10, 10, vocab_size=30, n_topics=3, seed=4, doc_len_range=(8, 20))
    cfg = {
        "train_file": str(root / "raw/train.txt"),
        "valid_file": str(root / "raw/valid.txt"),
        "test_file": str(root / "raw/test.txt"),
        "min_df": 2, "corpus_dir": str(root / "corpus"), "output_dir": str(root / "runs"),
        "num_topics": 3, "embed_size": 4, "hidden_size": 8, "epochs": 2, "batch_size": 16,
        "deterministic": True, "sweep_t_values": [0],
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rid = cli.run_id_of(cli.load_config(str(cfg_path)))
    run_dir = root / "runs" / rid
    common = ["--config", str(cfg_path)]
    argv = {
        "ingest": ["ingest", *common],
        "train": ["train", *common],
        "eval": ["eval", *common, "--checkpoint", str(run_dir / "best.ckpt")],
        "topics": ["topics", *common, "--checkpoint", str(run_dir / "best.ckpt")],
        "sweep-t": ["sweep-t", *common],
        "kl-test": ["kl-test", *common, "--run-dir", str(run_dir)],
    }
    for args in argv.values():
        assert cli.main(args) == 0
    dirs = {
        "ingest": root / "corpus", "train": run_dir, "eval": root / "runs" / f"eval_{rid}",
        "topics": root / "runs" / f"topics_{rid}", "sweep-t": root / "runs" / f"sweep_{rid}",
        "kl-test": run_dir,
    }
    return argv, dirs


@pytest.mark.parametrize("command,name", [
    ("ingest", "vocab.tsv"),
    ("ingest", "train.corpus"),
    ("ingest", "test.corpus"),
    ("ingest", "ingest_report.json"),
    ("ingest", "manifest.json"),
    ("train", "train_report.json"),
    ("train", "kl_trajectory.csv"),
    ("train", "manifest.json"),
    ("eval", "metrics_report.json"),
    ("eval", "top_words.tsv"),
    ("eval", "manifest.json"),
    ("topics", "top_words.tsv"),
    ("sweep-t", "sweep.csv"),
    ("sweep-t", "manifest.json"),
    ("kl-test", "kl_test.csv"),
    ("kl-test", cli.KL_TEST_MANIFEST),
])
def test_a_write_failing_mid_way_keeps_the_old_file_and_leaves_no_temp(runs, monkeypatch, command, name):
    argv, dirs = runs
    if command == "kl-test":  # a retrain in an earlier case removes kl-test's output
        assert cli.main(argv[command]) == 0
    path = dirs[command] / name
    written = path.read_bytes()
    path.write_bytes(b"old")
    try:
        fail_mid_write(monkeypatch, name)
        with pytest.raises(DiskFull):
            cli.main(argv[command])
        assert path.read_bytes() == b"old"
        assert not list(dirs[command].rglob("*.tmp"))
    finally:
        path.write_bytes(written)

