"""Call spans for the traced benchmark run, and the per-layer metrics they give.

``Tracer.install`` replaces module-level functions of diffetm, at the
attribute each caller looks the function up by, with wrappers that record
one span per call: name, start, end, parent span and run id (the benchmark
phase: ``setup`` or ``unit<i>``).  Counts (rows, tokens, bytes,
graph nodes, GEMM flops) are taken at the same boundaries from the call's
arguments and result.  ``uninstall`` restores every original, so the
untraced run executes the program unpatched.  Spans stay in memory until
``write`` saves them as JSON lines.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

from diffetm import autodiff, cli, metrics, model, trainer

# ---------------------------------------------------------------------------
# counts taken at a boundary: (bound arguments, result) -> {count: value}


def _tokens(a, out):
    corpus = a["corpus"]
    return {"rows": len(a["indices"]), "tokens": sum(corpus.docs[i].total for i in a["indices"])}


def _forward(a, out):
    """Rows, and the GEMM flops one training step needs at this shape.

    Forward: per encoder three affine layers (V->H->H->K), then the decoder
    products topic_emb @ word_emb^T (K x E x V) and theta @ beta (B x K x V).
    Backward doubles every product except the first encoder layer, whose
    input needs no gradient.  One multiply-add counts as two flops.
    """
    b, v = a["x_counts"].shape
    cfg = a["config"]
    h, k, e = cfg.hidden_size, cfg.num_topics, cfg.embed_size
    encoders = 2 if cfg.mode == "standard_etm" else 3
    enc = 2 * b * (v * h + h * h + h * k) + 2 * b * v * h + 4 * b * (h * h + h * k)
    dec = 3 * (2 * k * e * v + 2 * b * k * v)
    return {"rows": b, "gemm_flops": encoders * enc + dec}


def _graph_nodes(a, out):
    """Nodes that backward visits: every requires-grad tensor reachable from
    the output through its recorded inputs."""
    seen: set[int] = set()
    stack = [a["output"]]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(p for p in t._parents if p.requires)
    return {"graph_nodes": len(seen)}


def _adam_bytes(a, out):
    """Least memory traffic of one Adam step: read param, grad, m and v,
    write param, m and v, at the parameters' own itemsize."""
    return {"bytes": 7 * sum(t.data.nbytes for _, t in a["params"].items())}


def _train(a, out):
    tc = a["train_config"]
    return {"valid_docs": len(a["data"].valid), "evals": tc.epochs // tc.eval_every}


def _file_bytes(key):
    return lambda a, out: {"bytes": os.path.getsize(a[key])}


# (module, attribute the caller looks up, span name, count function)
PATCHES = [
    (cli, "main", "cli.main", None),
    (cli, "write_manifest", "cli.write_manifest", None),
    (cli, "ingest_presplit", "corpus.ingest_presplit", None),
    (cli, "write_vocabulary", "corpus.write_vocabulary", None),
    (cli, "write_corpus_cache", "corpus.write_corpus_cache", _file_bytes("path")),
    (cli, "read_vocabulary", "corpus.read_vocabulary", None),
    (cli, "read_corpus_cache", "corpus.read_corpus_cache", None),
    (cli, "load_checkpoint", "trainer.load_checkpoint", _file_bytes("path")),
    (trainer, "train", "trainer.train", _train),
    (trainer, "validate", "trainer.validate", None),
    (trainer, "realized_z_kl", "trainer.realized_z_kl", None),
    (trainer, "save_checkpoint", "trainer.save_checkpoint", _file_bytes("path")),
    (trainer, "dense_counts", "corpus.dense_counts", _tokens),
    (trainer, "init_params", "model.init_params", None),
    (trainer, "forward_batch", "model.forward_batch", _forward),
    (trainer, "predict_batch", "model.predict_batch", None),
    (autodiff, "backward", "autodiff.backward", _graph_nodes),
    (autodiff, "adam_update", "autodiff.adam_update", _adam_bytes),
    (metrics, "evaluate_model", "metrics.evaluate_model", None),
    (metrics, "build_cooccurrence", "metrics.build_cooccurrence", None),
    (metrics, "npmi_coherence", "metrics.npmi_coherence", None),
    (metrics, "top_words", "metrics.top_words", None),
    (metrics, "topic_diversity", "metrics.topic_diversity", None),
    (metrics, "perplexity", "metrics.perplexity", None),
    (metrics, "dense_counts", "corpus.dense_counts", _tokens),
    (metrics, "predict_batch", "model.predict_batch", None),
    (metrics, "topic_word_dist", "model.topic_word_dist", None),
    (model, "forward_batch", "model.forward_batch", _forward),
    (model, "encode_x0", "model.encode_x0", None),
    (model, "encode_mu_logvar", "model.encode_mu_logvar", None),
    (model, "sample_eps", "model.sample_eps", None),
    (model, "reparameterize", "model.reparameterize", None),
    (model, "doc_topic_dist", "model.doc_topic_dist", None),
    (model, "topic_word_dist", "model.topic_word_dist", None),
    (model, "reconstruct", "model.reconstruct", None),
    (model, "reconstruction_loss", "model.reconstruction_loss", None),
    (model, "kl_loss", "model.kl_loss", None),
    (model, "total_loss", "model.total_loss", None),
]

# per-layer metric -> (unit, better); the order BENCHMARK.json lists them in
LAYER_METRICS = {
    "autodiff.backward_ms": ("ms", "lower"),
    "autodiff.adam_update_ms": ("ms", "lower"),
    "autodiff.gemm_gflops": ("GFLOP/s", "higher"),
    "autodiff.adam_gbps": ("GB/s", "higher"),
    "autodiff.graph_nodes": ("count", "lower"),
    "model.forward_batch_ms": ("ms", "lower"),
    "model.encode_x0_ms": ("ms", "lower"),
    "model.encode_mu_logvar_ms": ("ms", "lower"),
    "model.latent_ms": ("ms", "lower"),
    "model.decoder_ms": ("ms", "lower"),
    "model.loss_ms": ("ms", "lower"),
    "model.predict_batch_ms": ("ms", "lower"),
    "model.beta_per_predict": ("count", "lower"),
    "corpus.dense_counts_ms": ("ms", "lower"),
    "corpus.data_wait_share": ("ratio", "lower"),
    "corpus.ingest_presplit_ms": ("ms", "lower"),
    "corpus.write_corpus_cache_ms": ("ms", "lower"),
    "corpus.read_corpus_cache_ms": ("ms", "lower"),
    "corpus.read_vocabulary_ms": ("ms", "lower"),
    "corpus.cache_bytes": ("bytes", "lower"),
    "corpus.tokens": ("count", "lower"),
    "trainer.validate_ms": ("ms", "lower"),
    "trainer.realized_z_kl_ms": ("ms", "lower"),
    "trainer.val_passes": ("count", "lower"),
    "trainer.save_checkpoint_ms": ("ms", "lower"),
    "trainer.load_checkpoint_ms": ("ms", "lower"),
    "trainer.ckpt_bytes": ("bytes", "lower"),
    "trainer.loop_self_ms": ("ms", "lower"),
    "metrics.build_cooccurrence_ms": ("ms", "lower"),
    "metrics.npmi_coherence_ms": ("ms", "lower"),
    "metrics.top_words_ms": ("ms", "lower"),
    "metrics.perplexity_ms": ("ms", "lower"),
    "cli.write_manifest_ms": ("ms", "lower"),
    "cli.command_self_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# counts that must repeat exactly from one measured unit to the next
EXACT_COUNTS = ("graph_nodes", "val_rows", "beta_calls", "tokens", "ckpt_bytes")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = "setup"
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str, count):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            rec = {
                "name": name,
                "run": self.run_id,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self._open.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._open.pop()
            if count is not None:
                rec.update(count(sig.bind(*args, **kwargs).arguments, out))
            return out

        return traced

    def install(self) -> None:
        """Patch every function in PATCHES that exists in this version."""
        for module, attr, name, count in PATCHES:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    # -- analysis -----------------------------------------------------------

    def _index(self):
        kids = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s["parent"] is not None:
                kids[s["parent"]].append(i)
        return kids

    def unit_counts(self) -> dict[str, dict[str, int]]:
        """Per measured unit, the totals of the counts in EXACT_COUNTS."""
        spans, kids = self.spans, self._index()
        out: dict[str, dict[str, int]] = defaultdict(lambda: dict.fromkeys(EXACT_COUNTS, 0))
        for i, s in enumerate(spans):
            if not s["run"].startswith("unit"):
                continue
            c = out[s["run"]]
            c["graph_nodes"] += s.get("graph_nodes", 0)
            c["tokens"] += s.get("tokens", 0)
            if s["name"] in ("trainer.save_checkpoint", "trainer.load_checkpoint"):
                c["ckpt_bytes"] += s["bytes"]
            if s["name"] == "trainer.train":
                c["val_rows"] += _val_rows(spans, kids, i)
            if s["name"] == "model.predict_batch":
                c["beta_calls"] += _beta_calls(spans, kids, i)
        return dict(out)

    def layer_metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every metric in LAYER_METRICS over the whole traced run; a layer
        that did not run reads 0."""
        spans, kids = self.spans, self._index()

        def dur(i):
            return spans[i]["end"] - spans[i]["start"]

        def named(name, parent=None):
            return [
                i for i, s in enumerate(spans)
                if s["name"] == name
                and (parent is None or (s["parent"] is not None and spans[s["parent"]]["name"] == parent))
            ]

        def below(i, names):
            """Time of the topmost descendants of span i named in names."""
            total, stack = 0.0, list(kids[i])
            while stack:
                j = stack.pop()
                if spans[j]["name"] in names:
                    total += dur(j)
                else:
                    stack.extend(kids[j])
            return total

        def self_time(i):
            return dur(i) - sum(dur(j) for j in kids[i])

        def med_ms(xs):
            return statistics.median(xs) * 1e3 if xs else 0.0

        def per_call_ms(name, parent=None):
            return med_ms([dur(i) for i in named(name, parent)])

        def ratio(num, den):
            return num / den if den else 0.0

        steps = named("model.forward_batch", parent="trainer.train")
        step_dense = named("corpus.dense_counts", parent="trainer.train")
        bwd = named("autodiff.backward")
        adam = named("autodiff.adam_update")
        trains = named("trainer.train")
        predicts = named("model.predict_batch")
        ingests = named("corpus.ingest_presplit")
        fwd_s = sum(dur(i) for i in steps)
        bwd_s = sum(dur(i) for i in bwd)
        dense_s = sum(dur(i) for i in step_dense)
        adam_s = sum(dur(i) for i in adam)
        counts = list(self.unit_counts().values())

        def per_step_ms(names):
            return med_ms([below(i, names) for i in steps])

        def per_unit(key):
            return ratio(sum(c[key] for c in counts), len(counts))

        val_rows = sum(_val_rows(spans, kids, i) for i in trains)
        return {
            "autodiff.backward_ms": per_call_ms("autodiff.backward"),
            "autodiff.adam_update_ms": per_call_ms("autodiff.adam_update"),
            "autodiff.gemm_gflops": ratio(sum(spans[i]["gemm_flops"] for i in steps), fwd_s + bwd_s) / 1e9,
            "autodiff.adam_gbps": ratio(sum(spans[i]["bytes"] for i in adam), adam_s) / 1e9,
            "autodiff.graph_nodes": ratio(sum(spans[i]["graph_nodes"] for i in bwd), len(bwd)),
            "model.forward_batch_ms": med_ms([dur(i) for i in steps]),
            "model.encode_x0_ms": per_step_ms({"model.encode_x0"}),
            "model.encode_mu_logvar_ms": per_step_ms({"model.encode_mu_logvar"}),
            "model.latent_ms": per_step_ms({"model.sample_eps", "model.reparameterize", "model.doc_topic_dist"}),
            "model.decoder_ms": per_step_ms({"model.topic_word_dist", "model.reconstruct"}),
            "model.loss_ms": per_step_ms({"model.reconstruction_loss", "model.kl_loss", "model.total_loss"}),
            "model.predict_batch_ms": per_call_ms("model.predict_batch"),
            "model.beta_per_predict": ratio(sum(_beta_calls(spans, kids, i) for i in predicts), len(predicts)),
            "corpus.dense_counts_ms": med_ms([dur(i) for i in step_dense]),
            "corpus.data_wait_share": ratio(dense_s, dense_s + fwd_s + bwd_s + adam_s),
            "corpus.ingest_presplit_ms": per_call_ms("corpus.ingest_presplit"),
            "corpus.write_corpus_cache_ms": per_call_ms("corpus.write_corpus_cache"),
            "corpus.read_corpus_cache_ms": per_call_ms("corpus.read_corpus_cache"),
            "corpus.read_vocabulary_ms": per_call_ms("corpus.read_vocabulary"),
            "corpus.cache_bytes": ratio(
                sum(spans[i]["bytes"] for i in named("corpus.write_corpus_cache")), len(ingests)
            ),
            "corpus.tokens": per_unit("tokens"),
            "trainer.validate_ms": per_call_ms("trainer.validate"),
            "trainer.realized_z_kl_ms": per_call_ms("trainer.realized_z_kl"),
            "trainer.val_passes": ratio(
                val_rows, sum(spans[i]["valid_docs"] * spans[i]["evals"] for i in trains)
            ),
            "trainer.save_checkpoint_ms": per_call_ms("trainer.save_checkpoint"),
            "trainer.load_checkpoint_ms": per_call_ms("trainer.load_checkpoint"),
            "trainer.ckpt_bytes": per_unit("ckpt_bytes"),
            "trainer.loop_self_ms": 1e3 * ratio(sum(self_time(i) for i in trains), len(steps)),
            "metrics.build_cooccurrence_ms": per_call_ms("metrics.build_cooccurrence"),
            "metrics.npmi_coherence_ms": per_call_ms("metrics.npmi_coherence"),
            "metrics.top_words_ms": per_call_ms("metrics.top_words"),
            "metrics.perplexity_ms": per_call_ms("metrics.perplexity"),
            "cli.write_manifest_ms": per_call_ms("cli.write_manifest"),
            "cli.command_self_ms": med_ms([self_time(i) for i in named("cli.main")]),
            "trace.overhead_ratio": overhead_ratio,
        }


def _val_rows(spans, kids, train):
    """Documents a training call pushed through forward passes other than its
    own training steps (which are its direct children): the validation."""
    return sum(
        spans[j]["rows"] for j in _descendants(kids, train)
        if spans[j]["name"] == "model.forward_batch" and spans[j]["parent"] != train
    )


def _beta_calls(spans, kids, predict):
    """topic_word_dist calls inside one predict_batch call."""
    return sum(1 for j in _descendants(kids, predict) if spans[j]["name"] == "model.topic_word_dist")


def _descendants(kids, i):
    stack = list(kids[i])
    while stack:
        j = stack.pop()
        yield j
        stack.extend(kids[j])
