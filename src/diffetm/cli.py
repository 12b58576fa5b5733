"""Operator-facing command surface.

Subcommands: ingest, train, eval, topics, sweep-t, kl-test.  Every run is
driven by a flat JSON config (defaults < preset < file < flags), prints
its effective configuration, and writes a manifest with artifact hashes
and the numeric environment (numpy, scipy, BLAS and its thread count) so
it can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import scipy

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from . import trainer as trainer_mod
from .atomic import write_text
from .corpus import (
    SPLITS,
    AllTokensPruned,
    BowCorpus,
    CacheFormatError,
    Dataset,
    EmptySplit,
    NotUtf8,
    Vocabulary,
    VocabularyFormatError,
    ingest_presplit,
    ingest_single,
    read_corpus_cache,
    read_vocabulary,
    write_corpus_cache,
    write_vocabulary,
)
from .metrics import VocabularyMismatch
from .model import MAX_DIFF_STEPS, ModelConfig
from .trainer import KL_TEST_CSV, KL_TEST_MANIFEST, CorruptCheckpoint, Diverged, TrainConfig, load_checkpoint


class ConfigError(ValueError):
    """A config key is unknown, mistyped, out of range, or names a missing path."""


# key -> (type, default), None defaults meaning "unset": the CLI's own keys,
# then every field of ModelConfig and TrainConfig with its type and default
CONFIG_SCHEMA: dict[str, tuple[type, object]] = {
    # corpus
    "train_file": (str, None),  # one-document-per-line train split
    "valid_file": (str, None),  # one-document-per-line validation split
    "test_file": (str, None),  # one-document-per-line test split
    "input_file": (str, None),  # single unsplit corpus (alternative to per-split files)
    "split_fractions": (list, [0.8, 0.1, 0.1]),  # train/valid/test fractions for input_file
    "split_seed": (int, 7),  # shuffle seed for splitting input_file
    "min_df": (int, 3),  # prune tokens whose document frequency is below this
    "stopword_file": (str, None),  # optional newline-separated stop-word list
    "corpus_dir": (str, None),  # directory of ingested corpus artifacts
    # runs and evaluation
    "output_dir": (str, "runs"),  # root directory for run artifacts
    "eval_split": (str, "test"),  # split evaluated by eval/kl-test
    "top_words_export": (int, 25),  # words per topic in the exported TSV
    "sweep_t_values": (list, [0, 20, 50, 100, 150, 200]),  # diffusion steps tried by sweep-t
}
CONFIG_SCHEMA.update({
    f.name: (get_type_hints(cls)[f.name], f.default) for cls in (ModelConfig, TrainConfig) for f in fields(cls)
})

# named presets bundling the reference hyperparameters per dataset setting
PRESETS: dict[str, dict] = {
    "20ng-k50": {"num_topics": 50, "learning_rate": 0.008, "batch_size": 1000},
    "20ng-k100": {"num_topics": 100, "learning_rate": 0.009, "batch_size": 1000},
    "20ng-k200": {"num_topics": 200, "learning_rate": 0.01, "batch_size": 1000},
    "nyt-10000": {"min_df": 10000, "learning_rate": 0.008, "batch_size": 512},
    "nyt-5000": {"min_df": 5000, "learning_rate": 0.007, "batch_size": 512},
    "nyt-3000": {"min_df": 3000, "learning_rate": 0.007, "batch_size": 512},
}


def _check_type(key: str, value, want: type):
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r}: expected a number, got {value!r}")
        # json.loads reads Infinity, NaN and integers too large for a float
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"config key {key!r}: expected a finite number, got {value!r}")
        return number
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {key!r}: expected an integer, got {value!r}")
        return value
    if want is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r}: expected true/false, got {value!r}")
        return value
    if want is str:
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"config key {key!r}: expected a string, got {value!r}")
        return value
    if want is list:
        if not isinstance(value, list):
            raise ConfigError(f"config key {key!r}: expected a list, got {value!r}")
        return value
    raise AssertionError(key)


def load_config(
    config_path: str | None = None,
    preset: str | None = None,
    overrides: dict | None = None,
) -> dict:
    """Merge defaults, preset, config file, and flag overrides, validating
    every key against the schema."""
    cfg = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        cfg.update(PRESETS[preset])
    if config_path is not None:
        path = _input_file(config_path, "config file")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        for key, value in loaded.items():
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = _check_type(key, value, CONFIG_SCHEMA[key][0])
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = _check_type(key, value, CONFIG_SCHEMA[key][0])

    tv = cfg["sweep_t_values"]
    if not tv or not all(type(t) is int and 0 <= t <= MAX_DIFF_STEPS for t in tv):
        raise ConfigError(f"config key 'sweep_t_values': expected integers in [0, {MAX_DIFF_STEPS}]")
    if cfg["output_dir"] is None:
        raise ConfigError("config key 'output_dir': expected a directory, got null")
    if cfg["eval_split"] not in SPLITS:
        raise ConfigError(f"config key 'eval_split': expected one of {', '.join(SPLITS)}")
    if cfg["top_words_export"] < 1:
        raise ConfigError("config key 'top_words_export': expected an integer >= 1")
    try:
        corpus_mod.check_min_df(cfg["min_df"])
        corpus_mod.check_split(cfg["split_fractions"], cfg["split_seed"])
        model_config_of(cfg).validate()
        train_config_of(cfg).validate()
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from None
    return cfg


def run_id_of(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:10]


def model_config_of(cfg: dict) -> ModelConfig:
    return ModelConfig(**{f.name: cfg[f.name] for f in fields(ModelConfig)})


def train_config_of(cfg: dict) -> TrainConfig:
    return TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _run_artifacts(run_dir: Path) -> list[Path]:
    """A run directory's files that train's manifest hashes: its regular
    files but the manifest itself, as train has removed any earlier
    kl-test's output; a subdirectory is left alone."""
    return [p for p in sorted(run_dir.glob("*")) if p.is_file() and p.name != "manifest.json"]


# the variables OpenBLAS reads its thread count from, in the order it reads them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def numeric_environment() -> dict:
    """What the artifacts' bits depend on besides the inputs: the numpy and
    scipy versions, numpy's BLAS and its thread count.  The count is the
    first positive one the environment sets, else the usable cores, which
    is OpenBLAS's default."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    set_counts = (os.environ.get(var, "").strip() for var in BLAS_THREAD_VARS)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = next((int(n) for n in set_counts if n.isdigit() and int(n) > 0), cores)
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_name, "blas_threads": threads}


def write_manifest(
    out_dir: Path, command: str, cfg: dict, artifacts: list[Path], name: str = "manifest.json"
) -> Path:
    # a hard link (best.ckpt and its epoch file) is hashed once
    digests: dict[tuple[int, int], str] = {}
    hashes = {}
    for p in sorted(artifacts):
        st = p.stat()
        inode = (st.st_dev, st.st_ino)
        if inode not in digests:
            digests[inode] = _sha256(p)
        hashes[p.name] = digests[inode]
    manifest = {
        "command": command,
        "run_id": run_id_of(cfg),
        "seed": cfg["seed"],
        "config": cfg,
        "environment": numeric_environment(),
        "artifacts": hashes,
    }
    path = out_dir / name
    write_text(path, json.dumps(manifest, indent=2, sort_keys=True))
    return path


def _print_effective(cfg: dict, command: str) -> None:
    print(f"[{command}] effective config:")
    print(json.dumps(cfg, indent=2, sort_keys=True))


def _require_dir_key(cfg: dict, key: str) -> Path:
    if not cfg[key]:
        raise ConfigError(f"config key {key!r} is required for this command")
    return Path(cfg[key])


def _input_file(path: str | Path, what: str) -> Path:
    """The one rule for every input file: a path that names no file is a
    ConfigError, raised before any output directory exists."""
    if not Path(path).is_file():
        raise ConfigError(f"{what} not found: {path}")
    return Path(path)


def _output_dir(path: Path) -> Path:
    """The one rule for every output directory: the nearest existing part of
    the path (a dangling symlink counts) must be a directory, else ConfigError."""
    existing = next(p for p in (path, *path.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"output directory {path}: {existing} is not a directory")
    return path


def _require_file_key(cfg: dict, key: str) -> Path:
    return _input_file(_require_dir_key(cfg, key), f"config key {key!r}: file")


def _open_checkpoint(path: str | Path, vocab, digest=None) -> tuple:
    """The store and config of a checkpoint file whose model fits vocab; a
    hashlib digest given is fed the file's bytes as they are read."""
    store, model_config = load_checkpoint(_input_file(path, "checkpoint"), digest)
    metrics_mod.check_vocab_size(store, vocab.V)
    return store, model_config


def load_corpus(corpus_dir: Path, names=SPLITS) -> tuple[Vocabulary, dict[str, BowCorpus]]:
    """The vocabulary and the named splits, each cache parsed once.

    Every split's cache must be a file, as ingest leaves them, but only the
    named ones are read.
    """
    vocab_path = corpus_dir / "vocab.tsv"
    if not vocab_path.is_file():
        raise ConfigError(f"no vocab.tsv under {corpus_dir}; run ingest first")
    vocab = read_vocabulary(vocab_path)
    caches = {name: corpus_dir / f"{name}.corpus" for name in SPLITS}
    for cache in caches.values():
        if not cache.is_file():
            raise ConfigError(f"missing corpus cache {cache}; run ingest first")
    return vocab, {name: read_corpus_cache(caches[name], name, vocab) for name in dict.fromkeys(names)}


def load_dataset(corpus_dir: Path) -> Dataset:
    vocab, splits = load_corpus(corpus_dir)
    return Dataset(vocab, **splits)


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(cfg: dict) -> int:
    out_dir = _output_dir(_require_dir_key(cfg, "corpus_dir"))
    stopword_path = _require_file_key(cfg, "stopword_file") if cfg["stopword_file"] else None
    if cfg["input_file"]:
        path = _require_file_key(cfg, "input_file")
        dataset, report = ingest_single(
            path,
            cfg["min_df"],
            tuple(float(f) for f in cfg["split_fractions"]),
            cfg["split_seed"],
            stopword_path=stopword_path,
        )
    else:
        paths = {key: _require_file_key(cfg, key) for key in ("train_file", "valid_file", "test_file")}
        dataset, report = ingest_presplit(
            paths["train_file"],
            paths["valid_file"],
            paths["test_file"],
            cfg["min_df"],
            stopword_path=stopword_path,
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = [out_dir / "vocab.tsv"]
    write_vocabulary(dataset.vocab, artifacts[0])
    for name in SPLITS:
        cache = out_dir / f"{name}.corpus"
        write_corpus_cache(dataset.split(name), dataset.vocab.V, cache)
        artifacts.append(cache)
    report_path = out_dir / "ingest_report.json"
    write_text(report_path, json.dumps(asdict(report), indent=2))
    artifacts.append(report_path)
    write_manifest(out_dir, "ingest", cfg, artifacts)
    print(
        f"[ingest] V={report.vocab_size} docs kept "
        + "/".join(str(report.docs_kept[s]) for s in SPLITS)
        + f" -> {out_dir}"
    )
    return 0


def cmd_train(cfg: dict) -> int:
    run_dir = _output_dir(Path(cfg["output_dir"]) / run_id_of(cfg))
    dataset = load_dataset(_require_dir_key(cfg, "corpus_dir"))
    try:
        outcome = trainer_mod.train(model_config_of(cfg), train_config_of(cfg), dataset, run_dir)
    except Diverged as exc:
        outcome = exc
    # a finished or a diverged train has a manifest; any other failure leaves none
    write_manifest(run_dir, "train", cfg, _run_artifacts(run_dir))
    if isinstance(outcome, Diverged):
        print(f"[train] diverged: {outcome}", file=sys.stderr)
        return 1
    print(
        f"[train] best validation perplexity {outcome.best_val_perplexity:.2f} "
        f"at epoch {outcome.best_epoch} -> {run_dir}"
    )
    return 0


def _export_top_words(beta, vocab, n: int, path: Path) -> None:
    lines = ["topic_id\trank\ttoken\tprobability\n"]
    for topic_id, words in enumerate(metrics_mod.top_words(beta, n)):
        for rank, w in enumerate(words, start=1):
            lines.append(f"{topic_id}\t{rank}\t{vocab.tokens[w]}\t{float(beta[topic_id, w])!r}\n")
    write_text(path, "".join(lines))


def cmd_eval(cfg: dict, checkpoint: str) -> int:
    out_dir = _output_dir(Path(cfg["output_dir"]) / f"eval_{run_id_of(cfg)}")
    vocab, splits = load_corpus(_require_dir_key(cfg, "corpus_dir"), ("train", cfg["eval_split"]))
    digest = hashlib.sha256()
    store, model_config = _open_checkpoint(checkpoint, vocab, digest)
    out_dir.mkdir(parents=True, exist_ok=True)
    report, beta = metrics_mod.evaluate_model(
        store, model_config, splits[cfg["eval_split"]], splits["train"], vocab.V,
        corpus_id=vocab.ref_id, checkpoint_id=digest.hexdigest()[:12],
    )
    report_path = out_dir / "metrics_report.json"
    write_text(report_path, report.to_json())
    words_path = out_dir / "top_words.tsv"
    _export_top_words(beta, vocab, cfg["top_words_export"], words_path)
    write_manifest(out_dir, "eval", cfg, [report_path, words_path])
    print(
        f"[eval] coherence={report.coherence:.4f} diversity={report.diversity:.4f} "
        f"quality={report.quality:.4f} perplexity={report.perplexity:.2f} -> {out_dir}"
    )
    return 0


def cmd_topics(cfg: dict, checkpoint: str) -> int:
    out_dir = _output_dir(Path(cfg["output_dir"]) / f"topics_{run_id_of(cfg)}")
    vocab, _ = load_corpus(_require_dir_key(cfg, "corpus_dir"), ())
    store, _ = _open_checkpoint(checkpoint, vocab)
    beta = metrics_mod.topic_word_matrix(store)
    out_dir.mkdir(parents=True, exist_ok=True)
    words_path = out_dir / "top_words.tsv"
    _export_top_words(beta, vocab, cfg["top_words_export"], words_path)
    write_manifest(out_dir, "topics", cfg, [words_path])
    print(f"[topics] wrote {words_path}")
    return 0


def cmd_sweep_t(cfg: dict) -> int:
    sweep_dir = _output_dir(Path(cfg["output_dir"]) / f"sweep_{run_id_of(cfg)}")
    dataset = load_dataset(_require_dir_key(cfg, "corpus_dir"))
    split = dataset.split(cfg["eval_split"])
    sweep_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for t in cfg["sweep_t_values"]:
        run_dir = sweep_dir / f"t{t:04d}"
        model_config = replace(model_config_of(cfg), diff_steps=t, mode="diffusion")
        try:
            trainer_mod.train(model_config, train_config_of(cfg), dataset, run_dir)
            store, ckpt_config = _open_checkpoint(run_dir / "best.ckpt", dataset.vocab)
            report, _ = metrics_mod.evaluate_model(
                store, ckpt_config, split, dataset.train, dataset.vocab.V, corpus_id=dataset.vocab.ref_id
            )
            rows.append(
                (t, report.coherence, report.diversity, report.quality, report.perplexity)
            )
            print(
                f"[sweep-t] T={t}: quality={report.quality:.4f} "
                f"perplexity={report.perplexity:.2f}"
            )
        except (Diverged, CorruptCheckpoint) as exc:
            rows.append((t, float("nan"), float("nan"), float("nan"), float("nan")))
            print(f"[sweep-t] T={t} failed: {exc}", file=sys.stderr)
    csv_path = sweep_dir / "sweep.csv"
    lines = ["T,coherence,diversity,quality,perplexity"]
    for t, coh, div, quality, ppl in rows:
        lines.append(f"{t},{coh!r},{div!r},{quality!r},{ppl!r}")
    write_text(csv_path, "\n".join(lines) + "\n")
    write_manifest(sweep_dir, "sweep-t", cfg, [csv_path])
    print(f"[sweep-t] wrote {csv_path}")
    return 0


def cmd_kl_test(cfg: dict, run_dir_arg: str) -> int:
    """Post-hoc test-set KL/perplexity trajectory over a run's checkpoints."""
    run_dir = Path(run_dir_arg)
    if not run_dir.exists():
        raise ConfigError(f"run directory does not exist: {run_dir}")
    if not run_dir.is_dir():
        raise ConfigError(f"run directory is not a directory: {run_dir}")
    found = run_dir.glob("checkpoint_epoch*.ckpt")
    try:  # by epoch number: as a name, epoch 10000 sorts before 9999
        ckpts = sorted((trainer_mod.checkpoint_epoch(p.name), p) for p in found)
    except ValueError as exc:
        raise ConfigError(f"{run_dir}: {exc}") from None
    if not ckpts:
        raise ConfigError(f"no epoch checkpoints under {run_dir}")
    vocab, splits = load_corpus(_require_dir_key(cfg, "corpus_dir"), (cfg["eval_split"],))
    split = splits[cfg["eval_split"]]
    points = []
    for epoch, ckpt in ckpts:
        store, model_config = _open_checkpoint(ckpt, vocab)
        ppl, kl, _ = metrics_mod.perplexity_and_kl(store, model_config, split)
        points.append((epoch, kl, ppl))
    traj = trainer_mod.improving_trajectory(points)
    csv_path = run_dir / KL_TEST_CSV
    write_text(csv_path, trainer_mod.trajectory_csv(traj))
    write_manifest(run_dir, "kl-test", cfg, [csv_path], KL_TEST_MANIFEST)
    print(f"[kl-test] {len(traj)} improving checkpoints -> {csv_path}")
    return 0


# name -> (handler, help, and the (flag, help) of the path the handler takes, if any)
CHECKPOINT_FLAG = ("--checkpoint", "checkpoint file to load")
COMMANDS: dict[str, tuple] = {
    "ingest": (cmd_ingest, "tokenize, prune, vectorize, and cache a corpus", None),
    "train": (cmd_train, "train a model against an ingested corpus", None),
    "eval": (cmd_eval, "compute coherence/diversity/quality/perplexity for a checkpoint", CHECKPOINT_FLAG),
    "topics": (cmd_topics, "export per-topic top words for a checkpoint", CHECKPOINT_FLAG),
    "sweep-t": (cmd_sweep_t, "train once per diffusion step count and tabulate metrics", None),
    "kl-test": (cmd_kl_test, "post-hoc test-set KL trajectory over a run's checkpoints",
                ("--run-dir", "training run directory")),
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat JSON config file")
    parser.add_argument("--preset", help=f"named preset: {', '.join(sorted(PRESETS))}")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument(
        "--deterministic", action="store_true", default=None,
        help="suppress wall-clock timing so artifacts are bitwise stable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffetm", description="topic modeling toolchain with a diffusion latent sampler"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, doc, path_flag) in COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        if path_flag is not None:
            flag, flag_help = path_flag
            metavar = flag.removeprefix("--").replace("-", "_").upper()
            p.add_argument(flag, dest="path", metavar=metavar, required=True, help=flag_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides: dict = {"seed": args.seed, "deterministic": args.deterministic}
    if args.out is not None:
        overrides["corpus_dir" if args.command == "ingest" else "output_dir"] = args.out
    try:
        cfg = load_config(args.config, args.preset, overrides)
        _print_effective(cfg, args.command)
        handler = COMMANDS[args.command][0]
        return handler(cfg, args.path) if "path" in args else handler(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        AllTokensPruned,
        EmptySplit,
        NotUtf8,
        CacheFormatError,
        VocabularyFormatError,
        CorruptCheckpoint,
        VocabularyMismatch,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
