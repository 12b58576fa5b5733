"""Mini-batch training loop with validation-driven checkpoint selection.

Randomness is split into independent seeded streams (init / shuffle /
noise) so that runs with equal configuration and seed are bitwise
reproducible.  A checkpoint is written whenever validation perplexity
improves; one list of those epochs decides which epoch files are kept and
is exported as kl_trajectory.csv, the model-quality instrumentation.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from . import autodiff as ad
from . import metrics as metrics_mod
from .atomic import replace_via_temp, write_text
from .corpus import BowCorpus, Dataset, dense_counts
from .model import (
    MODES,
    ModelConfig,
    check_minimums,
    check_param_shapes,
    forward_batch,
    init_params,
    reparameterize,
    sample_eps,
    store_dtype,
    store_vocab_size,
)

CKPT_MAGIC = b"DETMCKPT"
CKPT_VERSION = 1
# ModelConfig's fields in declaration order, mode stored as its index in MODES
CONFIG_BLOCK = struct.Struct("<IIIIdddBq")


class Diverged(RuntimeError):
    """Training produced a non-finite loss or validation (learning rate too high)."""

    def __init__(self, message: str, report: "TrainReport | None" = None):
        super().__init__(message)
        self.report = report


class CorruptCheckpoint(ValueError):
    """Checkpoint magic, version, framing, names or shapes did not validate."""


@dataclass
class TrainConfig:
    epochs: int = 300  # training epochs
    batch_size: int = 1000  # mini-batch size
    learning_rate: float = 0.008  # Adam learning rate
    eval_every: int = 1  # validate every N epochs
    max_checkpoints: int = 0  # retained improving checkpoints (0 = all)
    deterministic: bool = False  # suppress wall-clock so artifacts are bitwise stable
    clip_norm: float = 0.0  # global gradient-norm clip (0 = off)

    def validate(self) -> None:
        # a learning rate of 0 is allowed: it freezes the parameters (Adam fixed point)
        check_minimums(self, {
            "epochs": 1, "batch_size": 1, "learning_rate": 0, "eval_every": 1,
            "max_checkpoints": 0, "clip_norm": 0,
        })
        # a run that never validates selects and writes no checkpoint
        if self.eval_every > self.epochs:
            raise ValueError(
                f"eval_every must be <= epochs ({self.epochs}), got {self.eval_every}"
            )


@dataclass
class TrainReport:
    """Per-epoch loss components plus the validation series.

    Validation entries are None at epochs that were not evaluated
    (eval_every > 1).  In deterministic mode wall_seconds is reported as
    0.0 so identical runs produce identical reports.  The JSON holds
    best_val_perplexity as null while no epoch is selected, and refuses
    any other non-finite value.
    """

    seed: int
    epochs: int
    train_recon: list[float] = field(default_factory=list)
    train_kl: list[float] = field(default_factory=list)
    train_total: list[float] = field(default_factory=list)
    val_perplexity: list[float | None] = field(default_factory=list)
    val_kl: list[float | None] = field(default_factory=list)
    val_z_kl: list[float | None] = field(default_factory=list)
    best_epoch: int = 0
    best_val_perplexity: float = float("inf")
    wall_seconds: float = 0.0

    def to_json(self) -> str:
        out = asdict(self)
        if not self.best_epoch:
            out["best_val_perplexity"] = None
        return json.dumps(out, indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# checkpoint serialization (float32 storage)


def checkpoint_name(epoch: int) -> str:
    return f"checkpoint_epoch{epoch:04d}.ckpt"


def checkpoint_epoch(name: str) -> int:
    """The epoch of a checkpoint_name; ValueError for any other name."""
    digits = name.removeprefix("checkpoint_epoch").removesuffix(".ckpt")
    if not (digits.isascii() and digits.isdigit() and checkpoint_name(int(digits)) == name):
        raise ValueError(f"{name!r} is not an epoch checkpoint name (checkpoint_epochNNNN.ckpt)")
    return int(digits)


# what train writes into a run directory besides the epoch checkpoints
RUN_FILES = ("best.ckpt", "kl_trajectory.csv", "train_report.json")


def _is_run_file(name: str) -> bool:
    try:
        checkpoint_epoch(name)
    except ValueError:
        return name in RUN_FILES
    return True


def _write_checkpoint(store: ad.ParamStore, config: ModelConfig, path: Path) -> None:
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(CONFIG_BLOCK.pack(*{**asdict(config), "mode": MODES.index(config.mode)}.values()))
        names = store.names()
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            raw = name.encode("utf-8")
            t = store[name]
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<II", t.rows, t.cols))
            # a float32 store is written from its own buffer, without a copy
            fh.write(np.ascontiguousarray(t.data, dtype="<f4"))


def _check_finite(store: ad.ParamStore, path, error: type[ValueError]) -> None:
    """Raise error naming the first parameter non-finite in float32, as stored."""
    for name, t in store.items():
        if not np.isfinite(np.asarray(t.data, dtype=np.float32)).all():
            raise error(f"{path}: parameter {name!r} holds a non-finite value")


def save_checkpoint(store: ad.ParamStore, config: ModelConfig, path: str | Path) -> None:
    """Write the store and config to path atomically (a temp file, then
    os.replace); a non-finite store raises ValueError before any write."""
    _check_finite(store, path, ValueError)
    replace_via_temp(path, lambda tmp: _write_checkpoint(store, config, tmp))


def link_checkpoint(src: Path, dst: Path) -> None:
    """Make dst the same file as src: a hard link, or a copy where the file
    system refuses one, put in place atomically."""

    def link(tmp: Path) -> None:
        try:
            os.link(src, tmp)
        except OSError:
            shutil.copyfile(src, tmp)

    replace_via_temp(dst, link)


def load_checkpoint(path: str | Path, digest=None) -> tuple[ad.ParamStore, ModelConfig]:
    """Rebuild a parameter store and config, checking that the parameters
    fit the configuration and are finite.

    The parameters stay float32, as stored, so a reloaded checkpoint is the
    saved float32 model bit for bit.  The file is read once, each array
    straight into the buffer the store keeps.  A hashlib object given as
    digest is fed the file's bytes in file order, so a caller that hashes
    the file reads it once.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            chunk = fh.read(n)
            if digest is not None:
                digest.update(chunk)
            return chunk

        if read(8) != CKPT_MAGIC:
            raise CorruptCheckpoint(f"{path}: not a checkpoint file (bad magic)")
        try:
            (version,) = struct.unpack("<I", read(4))
            if version != CKPT_VERSION:
                raise CorruptCheckpoint(
                    f"{path}: checkpoint version {version}, expected {CKPT_VERSION}"
                )
            header = CONFIG_BLOCK.unpack(read(CONFIG_BLOCK.size))
            values = dict(zip((f.name for f in fields(ModelConfig)), header))
            if values["mode"] >= len(MODES):
                raise CorruptCheckpoint(f"{path}: mode code {values['mode']} names no mode")
            config = ModelConfig(**{**values, "mode": MODES[values["mode"]]})
            (n_params,) = struct.unpack("<I", read(4))
            store = ad.ParamStore()
            for _ in range(n_params):
                (name_len,) = struct.unpack("<I", read(4))
                # sizes are checked against the file before anything that large is read
                if size < fh.tell() + name_len:
                    raise CorruptCheckpoint(f"{path}: truncated name block")
                name = read(name_len).decode("utf-8")
                rows, cols = struct.unpack("<II", read(8))
                nbytes = 4 * rows * cols
                if size < fh.tell() + nbytes:
                    raise CorruptCheckpoint(f"{path}: truncated array for {name!r}")
                arr = np.empty((rows, cols), dtype="<f4")
                if fh.readinto(arr) != nbytes:  # the file shrank while it was read
                    raise CorruptCheckpoint(f"{path}: truncated array for {name!r}")
                if digest is not None:
                    digest.update(arr)
                store.add(name, arr, copy=False)
            if fh.tell() != size:
                raise CorruptCheckpoint(f"{path}: {size - fh.tell()} trailing bytes")
            if "word_emb" not in store:
                raise CorruptCheckpoint(f"{path}: missing parameter 'word_emb'")
            config.validate()
            check_param_shapes(store, config, store_vocab_size(store))
            _check_finite(store, path, CorruptCheckpoint)
        except struct.error as exc:
            raise CorruptCheckpoint(f"{path}: truncated checkpoint ({exc})") from None
        except CorruptCheckpoint:
            raise
        except ValueError as exc:  # a name not in UTF-8, a duplicate name, a bad config or shape
            raise CorruptCheckpoint(f"{path}: {exc}") from None
    return store, config


# ---------------------------------------------------------------------------
# validation


def validate(
    store: ad.ParamStore,
    config: ModelConfig,
    split: BowCorpus,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """Held-out perplexity, the mean closed-form KL and the realized z-KL,
    all from one deterministic encoder pass over the split."""
    ppl, kl, latents = metrics_mod.perplexity_and_kl(store, config, split)
    return ppl, kl, realized_z_kl(latents, config, rng)


def realized_z_kl(
    latents: tuple[np.ndarray | None, np.ndarray, np.ndarray],
    config: ModelConfig,
    rng: np.random.Generator,
) -> float:
    """Moment-matched Gaussian KL of sampled latents z against N(0, I).

    Diagnostic only: with diffusion the marginal of z is not the Gaussian
    the closed form assumes, so this and the closed-form term are logged
    side by side without being compared.  z is drawn from the (X0 or None,
    mu, logvar) of a deterministic pass; the normal stream does not depend
    on how the draws are chunked, so z equals that of a sampled forward pass
    over the same documents in the same order.
    """
    x0, mu, logvar = latents
    with ad.no_grad():
        eps = sample_eps(None if x0 is None else ad.Tensor(x0), config.alpha_bar(), rng, mu.shape, mu.dtype)
        z = reparameterize(eps, ad.Tensor(mu), ad.Tensor(logvar)).data
    mean = z.mean(axis=0)
    var = z.var(axis=0)
    var = np.maximum(var, 1e-12)
    return float(0.5 * (mean ** 2 + var - np.log(var) - 1.0).sum())


# ---------------------------------------------------------------------------
# training


def train(
    model_config: ModelConfig,
    train_config: TrainConfig,
    data: Dataset,
    run_dir: Path | None = None,
) -> TrainReport:
    """Run the full training loop; returns the report, writes artifacts.

    When run_dir is given it is created and gets checkpoint_name(epoch)
    at each improving epoch, with best.ckpt a hard link to the latest, at
    most max_checkpoints epoch files (0 = unlimited), and those epochs'
    kl_trajectory.csv.  Raises Diverged, carrying the partial report
    without that epoch, on a non-finite loss or validation perplexity, KL
    or z-KL; train_report.json is written either way.  Then every file of
    those names that this train did not write, such as an epoch file of an
    earlier train into the same directory, is removed.
    """
    model_config.validate()
    train_config.validate()
    if data.train.vocab_ref != data.vocab.ref_id or data.valid.vocab_ref != data.vocab.ref_id:
        raise ValueError("corpus splits are not bound to the dataset vocabulary")

    seed = model_config.seed
    init_rng = np.random.default_rng([seed, 0])
    shuffle_rng = np.random.default_rng([seed, 1])
    noise_rng = np.random.default_rng([seed, 2])

    v = data.vocab.V
    store = init_params(model_config, v, init_rng)
    adam = ad.AdamState(lr=train_config.learning_rate)

    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)

    report = TrainReport(seed=seed, epochs=train_config.epochs)
    # (epoch, val_kl, val_ppl) of each selected checkpoint, in epoch order
    improving: list[tuple[int, float, float]] = []
    n = len(data.train)
    started = time.monotonic()

    for epoch in range(1, train_config.epochs + 1):
        sum_recon = sum_kl = sum_total = 0.0
        perm = shuffle_rng.permutation(n)
        for start in range(0, n, train_config.batch_size):
            idx = perm[start:start + train_config.batch_size]
            batch = dense_counts(data.train, idx, v, store_dtype(store))
            result = forward_batch(batch, store, model_config, noise_rng)
            recon, kl, total = result.values()
            if not np.isfinite(total):
                _close_run(report, started, train_config.deterministic, run_dir, improving)
                raise Diverged(
                    f"non-finite loss at epoch {epoch} (lr={train_config.learning_rate})",
                    report=report,
                )
            if train_config.clip_norm > 0.0:
                # the global norm needs every gradient before any step
                ad.backward(result.total)
                norm = store.grad_global_norm()
                if norm > train_config.clip_norm:
                    store.scale_grads(train_config.clip_norm / norm)
                ad.adam_update(store, adam)
            else:
                ad.backward(result.total, store, adam)
            w = len(idx) / n
            sum_recon += recon * w
            sum_kl += kl * w
            sum_total += total * w
        ppl = kl_term = z_kl = None
        if epoch % train_config.eval_every == 0:
            ppl, kl_term, z_kl = validate(
                store, model_config, data.valid, np.random.default_rng([seed, 3, epoch])
            )
            # a non-finite value can select no checkpoint, nor go into the JSON report
            if not np.isfinite([ppl, kl_term, z_kl]).all():
                _close_run(report, started, train_config.deterministic, run_dir, improving)
                raise Diverged(
                    f"non-finite validation at epoch {epoch}: perplexity {ppl}, kl {kl_term}, "
                    f"z-KL {z_kl} (lr={train_config.learning_rate})",
                    report=report,
                )
        report.train_recon.append(sum_recon)
        report.train_kl.append(sum_kl)
        report.train_total.append(sum_total)
        report.val_perplexity.append(ppl)
        report.val_kl.append(kl_term)
        report.val_z_kl.append(z_kl)
        if ppl is not None and ppl < report.best_val_perplexity:
            report.best_val_perplexity = ppl
            report.best_epoch = epoch
            improving.append((epoch, kl_term, ppl))
            if run_dir is not None:
                save_checkpoint(store, model_config, run_dir / checkpoint_name(epoch))
                link_checkpoint(run_dir / checkpoint_name(epoch), run_dir / "best.ckpt")
                if 0 < train_config.max_checkpoints < len(improving):
                    dropped = improving[-1 - train_config.max_checkpoints][0]
                    (run_dir / checkpoint_name(dropped)).unlink()

    if run_dir is not None:
        write_text(run_dir / "kl_trajectory.csv", trajectory_csv(improving))
    _close_run(report, started, train_config.deterministic, run_dir, improving, finished=True)
    return report


def _close_run(
    report: TrainReport,
    started: float,
    deterministic: bool,
    run_dir: Path | None,
    improving: list[tuple[int, float, float]],
    finished: bool = False,
) -> None:
    """Stamp the wall-clock time; when run_dir is set, write
    train_report.json and remove the run files this train did not write
    (a finished train has written kl_trajectory.csv)."""
    report.wall_seconds = 0.0 if deterministic else time.monotonic() - started
    if run_dir is None:
        return
    write_text(run_dir / "train_report.json", report.to_json())
    # a dropped epoch file is named too, but this train has already removed it
    written = {checkpoint_name(epoch) for epoch, _, _ in improving} | {"train_report.json"}
    written |= {"best.ckpt"} if improving else set()
    written |= {"kl_trajectory.csv"} if finished else set()
    for path in run_dir.iterdir():
        if _is_run_file(path.name) and path.name not in written:
            path.unlink()


def improving_trajectory(points: Iterable[tuple]) -> list[tuple[int, float, float]]:
    """The (epoch, kl, perplexity) points whose perplexity beats every earlier
    one, as training selects its checkpoints; the perplexity strictly falls."""
    kept = []
    for epoch, kl, ppl in points:
        if ppl < (kept[-1][2] if kept else float("inf")):
            kept.append((epoch, kl, ppl))
    return kept


def trajectory_csv(points: Iterable[tuple]) -> str:
    """The epoch,kl,perplexity CSV of (epoch, kl, perplexity) points."""
    return "epoch,kl,perplexity\n" + "".join(f"{e},{kl!r},{ppl!r}\n" for e, kl, ppl in points)
