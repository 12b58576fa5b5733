"""The benchmark's workloads and the output checks that feed ``failed``.

Both workloads go through the whole toolchain: synthetic text from the
seed, ``diffetm ingest``, training, ``diffetm eval`` and ``diffetm kl-test``,
so both report every end-to-end metric.  They differ in shape and in what
their measured *unit*, repeated until the run time is spent, holds besides
re-ingest, eval and kl-test:

- train-desk: ``diffetm train`` at the desk shape (one epoch);
- eval-offline: no training, on a larger, prose-like vocabulary; the model
  it evaluates is trained in set-up.

Set-up and units return samples ``{metric: value}``, where a rate's value
is a ``(docs, seconds)`` pair; the runner reports each rate as all its docs
over all its seconds, and every other metric as the median of its samples.
Each unit also returns a digest of
its outputs, so repeated and traced units can be compared bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from diffetm import cli

GEN_CORPUS = Path(__file__).with_name("gen_corpus.py")

# ROADMAP aim-1 desk shape: ~10k/1k/1k docs, V ~ 2.07k after min_df=5
DESK_TEXT = {"n_train": 10000, "n_valid": 1000, "n_test": 1000, "vocab_size": 2100, "n_topics": 50}
DESK_MIN_DF = 5
# prose-like text: shared Zipf background mass, ~6.6k words kept at min_df=3
OFFLINE_TEXT = {
    "n_train": 1000, "n_valid": 500, "n_test": 1000, "vocab_size": 7000, "n_topics": 50,
    "background_weight": 0.1, "doc_len_range": [60, 200],
}
OFFLINE_MIN_DF = 3


class OperationFailed(RuntimeError):
    """A checked operation failed; its failure is already counted."""


@dataclass
class Checks:
    """Operations attempted and failed; each check is one operation."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)

    def require(self, ok: bool, what: str) -> None:
        if not self.expect(ok, what):
            raise OperationFailed(what)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def finite_ppl(x) -> bool:
    return x is not None and math.isfinite(x) and x > 1.0


# ---------------------------------------------------------------------------
# operations, each timed and checked


def generate(raw: Path, seed: int, spec: dict) -> dict[str, str]:
    subprocess.run(
        [sys.executable, str(GEN_CORPUS), str(raw), json.dumps({**spec, "seed": seed})],
        check=True, timeout=170,
    )
    return {f"{s}_file": str(raw / f"{s}.txt") for s in ("train", "valid", "test")}


def diffetm(checks: Checks, *argv: str) -> float:
    """Run one ``diffetm`` command in-process; its seconds."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    seconds = time.perf_counter() - t0
    checks.require(rc == 0, f"diffetm {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return seconds


def ingest(checks: Checks, config: Path, out: Path) -> tuple[float, dict, dict]:
    """Seconds, the ingest report, and the manifest's artifact hashes."""
    seconds = diffetm(checks, "ingest", "--config", str(config), "--out", str(out))
    report = json.loads((out / "ingest_report.json").read_text())
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    return seconds, report, artifacts


def docs_read(report: dict) -> int:
    return sum(report["docs_in"].values())


def check_train_report(checks: Checks, report: dict, what: str) -> None:
    losses = report["train_recon"] + report["train_kl"] + report["train_total"]
    checks.require(all(math.isfinite(x) for x in losses), f"{what}: non-finite training loss")
    checks.require(
        all(p is None or finite_ppl(p) for p in report["val_perplexity"])
        and finite_ppl(report["best_val_perplexity"]),
        f"{what}: validation perplexity not finite and > 1",
    )


def train_cli(checks: Checks, config: Path, out: Path) -> tuple[float, Path, dict]:
    """``diffetm train``: seconds, run directory, train report."""
    seconds = diffetm(checks, "train", "--config", str(config), "--out", str(out))
    (run_dir,) = [p for p in out.iterdir() if p.is_dir()]
    report = json.loads((run_dir / "train_report.json").read_text())
    check_train_report(checks, report, "diffetm train")
    return seconds, run_dir, report


def evaluate(checks: Checks, config: Path, ckpt: Path, out: Path) -> tuple[dict, str]:
    """``diffetm eval``: samples and a digest of its outputs."""
    seconds = diffetm(checks, "eval", "--config", str(config), "--checkpoint", str(ckpt), "--out", str(out))
    (eval_dir,) = [p for p in out.iterdir() if p.is_dir()]
    report = json.loads((eval_dir / "metrics_report.json").read_text())
    checks.require(finite_ppl(report["perplexity"]), "eval: test perplexity not finite and > 1")
    checks.require(-1.0 <= report["coherence"] <= 1.0, "eval: coherence outside [-1, 1]")
    checks.require(0.0 < report["diversity"] <= 1.0, "eval: diversity outside (0, 1]")
    samples = {
        "eval_s": seconds,
        "test_ppl": report["perplexity"],
        "coherence": report["coherence"],
        "diversity": report["diversity"],
    }
    return samples, digest(sha256(eval_dir / "metrics_report.json"), sha256(eval_dir / "top_words.tsv"))


def kl_test(checks: Checks, config: Path, run_dir: Path) -> tuple[dict, str]:
    """``diffetm kl-test``: samples and a digest of kl_test.csv."""
    seconds = diffetm(checks, "kl-test", "--config", str(config), "--run-dir", str(run_dir))
    csv = run_dir / "kl_test.csv"
    ppl = [float(line.split(",")[2]) for line in csv.read_text().splitlines()[1:]]
    checks.require(
        bool(ppl) and all(math.isfinite(p) for p in ppl) and all(a > b for a, b in zip(ppl, ppl[1:])),
        f"kl-test: perplexity column not finite and strictly decreasing: {ppl}",
    )
    return {"kl_test_s": seconds}, sha256(csv)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Context:
    """What set-up leaves for the units."""

    config: Path
    train_docs: int
    corpus_artifacts: dict
    run_dir: Path | None = None


def setup_corpus(work: Path, seed: int, checks: Checks, text: dict, min_df: int, **keys) -> tuple[Context, dict]:
    """Generate the seed's text and ingest it; ``keys`` go into the config."""
    work.mkdir(parents=True)
    files = generate(work / "raw", seed, text)
    config = work / "config.json"
    config.write_text(json.dumps(
        {**files, "min_df": min_df, "corpus_dir": str(work / "corpus"), "deterministic": True, **keys}
    ))
    seconds, report, artifacts = ingest(checks, config, work / "corpus")
    ctx = Context(config, report["docs_kept"]["train"], artifacts)
    return ctx, {"ingest_docs_per_s": (docs_read(report), seconds)}


def reingest_and_evaluate(ctx: Context, run_dir: Path, out: Path, checks: Checks) -> tuple[dict, str]:
    """``diffetm ingest`` again (byte-identical to set-up), ``diffetm eval``
    on the run's best checkpoint, ``diffetm kl-test`` over its checkpoints."""
    seconds, report, artifacts = ingest(checks, ctx.config, out / "corpus")
    for name in ("vocab.tsv", "train.corpus", "valid.corpus", "test.corpus"):
        checks.expect(artifacts[name] == ctx.corpus_artifacts[name], f"re-ingest: {name} differs from set-up")
    ev, d_eval = evaluate(checks, ctx.config, run_dir / "best.ckpt", out / "eval")
    kl, d_kl = kl_test(checks, ctx.config, run_dir)
    samples = {"ingest_docs_per_s": (docs_read(report), seconds), **ev, **kl}
    return samples, digest(artifacts, d_eval, d_kl)


class TrainDesk:
    """``diffetm train`` at the ROADMAP aim-1 desk shape, then re-ingest,
    eval and kl-test of what it trained."""

    name = "train-desk"
    EPOCHS = 1
    # the short offline steps run twice per unit, so that their figures rest
    # on more samples than the three or four training units give
    OFFLINE_REPEATS = 2

    def setup(self, work, seed, checks):
        return setup_corpus(
            work, seed, checks, DESK_TEXT, DESK_MIN_DF, hidden_size=800, epochs=self.EPOCHS, eval_every=1
        )

    def unit(self, ctx, out, checks):
        seconds, run_dir, report = train_cli(checks, ctx.config, out / "runs")
        artifacts = json.loads((run_dir / "manifest.json").read_text())["artifacts"]
        samples = [{
            "train_docs_per_s": (self.EPOCHS * ctx.train_docs, seconds),
            "val_ppl": report["best_val_perplexity"],
        }]
        offline = set()
        for i in range(self.OFFLINE_REPEATS):
            s, d = reingest_and_evaluate(ctx, run_dir, out / f"offline{i}", checks)
            samples.append(s)
            offline.add(d)
        checks.expect(len(offline) == 1, "repeated ingest/eval/kl-test outputs differ")
        return samples, digest(artifacts, sorted(offline))


class EvalOffline:
    """Re-ingest, eval and kl-test against a model trained briefly in
    set-up, on a larger prose-like vocabulary."""

    name = "eval-offline"
    FIXTURE = {"hidden_size": 128, "batch_size": 500, "epochs": 3, "eval_every": 1}

    def setup(self, work, seed, checks):
        ctx, samples = setup_corpus(work, seed, checks, OFFLINE_TEXT, OFFLINE_MIN_DF, **self.FIXTURE)
        seconds, ctx.run_dir, report = train_cli(checks, ctx.config, work / "runs")
        samples["train_docs_per_s"] = (self.FIXTURE["epochs"] * ctx.train_docs, seconds)
        samples["val_ppl"] = report["best_val_perplexity"]
        return ctx, samples

    def unit(self, ctx, out, checks):
        s, d = reingest_and_evaluate(ctx, ctx.run_dir, out, checks)
        return [s], d


WORKLOADS = {w.name: w for w in (TrainDesk(), EvalOffline())}
