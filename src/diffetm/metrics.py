"""Evaluation suite: top words, NPMI coherence, diversity, quality, and
held-out perplexity.

Coherence uses document-level binary co-occurrence statistics from a
reference corpus (the training split, never test, to avoid leakage) over
each topic's top 10 words; diversity is the unique fraction of the top 25
words across topics; quality is their product; perplexity is the
exponentiated per-token negative log-likelihood on the deterministic
evaluation path, computed in one pass together with the mean closed-form
KL and the latents that validation also reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from . import autodiff as ad
from .corpus import BowCorpus, iter_batches
from .model import (
    LOG_FLOOR,
    LatentBatch,
    ModelConfig,
    predict_batch,
    store_dtype,
    store_vocab_size,
    topic_word_dist,
)

N_COHERENCE = 10
N_DIVERSITY = 25
# documents per prediction pass of the evaluation path
EVAL_BATCH_SIZE = 1024


class VocabularyMismatch(ValueError):
    """A word id or parameter shape does not fit the corpus vocabulary."""


def top_words(beta: np.ndarray, n: int) -> list[list[int]]:
    """Per-topic word ids by descending probability, ties by ascending id,
    NaN last: the first n of a stable sort of -beta, n >= 0.

    Only the words at or above each row's n-th value are sorted: a
    partition finds that value, and every word past it sorts after it.
    """
    if n < 0:
        raise ValueError(f"top_words: n must be >= 0, got {n}")
    n_eff = min(n, beta.shape[1])
    if n_eff == 0:
        return [[] for _ in beta]
    keys = -beta
    nth = np.partition(keys, n_eff - 1, axis=1)[:, n_eff - 1]
    out = []
    for row, bound in zip(keys, nth):
        # NaN compares false both ways, so a NaN word or bound keeps the word
        cand = np.flatnonzero(~(row > bound))
        out.append(cand[np.argsort(row[cand], kind="stable")[:n_eff]].tolist())
    return out


class CooccurrenceStats:
    """Document-frequency and pairwise joint-document counts.

    Occurrence is binary per document.  Joint counts are computed from
    sorted posting lists on demand, so building the stats is linear in the
    corpus and pair queries stay cheap for top-word lists.
    """

    def __init__(self, n_docs: int, postings: list[np.ndarray]):
        self.n_docs = n_docs
        self._postings = postings
        self.doc_freq = np.array([len(p) for p in postings], dtype=np.int64)

    @property
    def vocab_size(self) -> int:
        return len(self._postings)

    def joint(self, w1: int, w2: int) -> int:
        return int(
            np.intersect1d(self._postings[w1], self._postings[w2], assume_unique=True).size
        )


def build_cooccurrence(corpus: BowCorpus, vocab_size: int) -> CooccurrenceStats:
    """Postings of every word id below vocab_size, from the corpus's CSR
    arrays: a stable sort of the entries by word id keeps each word's
    documents in ascending order."""
    ids = corpus.ids
    if ids.size and ids.max() >= vocab_size:
        raise VocabularyMismatch(
            f"word id {ids.max()} outside reference vocabulary of {vocab_size}"
        )
    # numpy radix-sorts 16-bit keys, several times faster than int64 ones
    keys = ids.astype(np.uint16) if vocab_size <= 1 << 16 else ids
    by_word = corpus.entry_docs()[np.argsort(keys, kind="stable")]
    ends = np.cumsum(np.bincount(ids, minlength=vocab_size))
    return CooccurrenceStats(n_docs=len(corpus), postings=np.split(by_word, ends[:-1]))


def npmi_pair(p_i: float, p_j: float, p_ij: float) -> float:
    """Normalized pointwise mutual information for one word pair.

    Degenerate cases keep the score total and bounded: a never-co-occurring
    pair scores -1, a pair present in every document scores 0.  Rounding
    can carry the ratio past the bounds (two words always seen together
    give 1 + 2**-52), so it is clipped to [-1, 1].
    """
    if p_ij == 0.0:
        return -1.0
    if p_ij == 1.0:
        return 0.0
    return min(1.0, max(-1.0, math.log(p_ij / (p_i * p_j)) / (-math.log(p_ij))))


def npmi_coherence(topics: list[list[int]], stats: CooccurrenceStats) -> float:
    """Mean over topics of the mean pairwise NPMI of their top words."""
    n = stats.n_docs
    per_topic = []
    for words in topics:
        for w in words:
            if w >= stats.vocab_size:
                raise VocabularyMismatch(
                    f"word id {w} outside reference vocabulary of {stats.vocab_size}"
                )
        scores = []
        for w1, w2 in combinations(words, 2):
            p_ij = stats.joint(w1, w2) / n
            scores.append(npmi_pair(stats.doc_freq[w1] / n, stats.doc_freq[w2] / n, p_ij))
        per_topic.append(sum(scores) / len(scores))
    return float(sum(per_topic) / len(per_topic))


def topic_diversity(topics: list[list[int]]) -> float:
    """Fraction of distinct word ids across all topics' lists."""
    slots = sum(len(t) for t in topics)
    distinct = len({w for t in topics for w in t})
    return distinct / slots


def topic_quality(coherence: float, diversity: float) -> float:
    return coherence * diversity


def perplexity_and_kl(
    store: ad.ParamStore,
    config: ModelConfig,
    corpus_split: BowCorpus,
    batch_size: int = EVAL_BATCH_SIZE,
) -> tuple[float, float, LatentBatch]:
    """One deterministic pass over the split: exp(-sum(X log X') / sum(X)),
    the per-document mean of the closed-form KL against N(0, I), and the
    split's latents in split order.

    The log-likelihood sums over the nonzero counts only, the entries where
    X log X' can differ from 0."""
    if len(corpus_split) == 0:
        raise ValueError("perplexity: empty split")
    log_lik = 0.0
    tokens = 0.0
    kl_sum = 0.0
    batches = []
    for batch in iter_batches(
        corpus_split, store_vocab_size(store), batch_size, store_dtype(store)
    ):
        latents, x_prime = predict_batch(batch, store, config)
        batches.append(latents)
        picked = x_prime[batch.rows, batch.cols]
        log_lik += float((batch.counts * np.log(np.maximum(picked, LOG_FLOOR))).sum())
        tokens += float(batch.counts.sum())
        per_doc = 0.5 * (
            latents.mu ** 2 + np.exp(latents.logvar) - latents.logvar - 1.0
        ).sum(axis=1)
        kl_sum += float(per_doc.sum())
    ppl = float(np.exp(-log_lik / tokens))
    return ppl, kl_sum / len(corpus_split), LatentBatch.concatenate(batches)


def perplexity(
    store: ad.ParamStore,
    config: ModelConfig,
    corpus_split: BowCorpus,
    batch_size: int = EVAL_BATCH_SIZE,
) -> float:
    """exp(-sum(X log X') / sum(X)) over the split, deterministic path."""
    return perplexity_and_kl(store, config, corpus_split, batch_size)[0]


@dataclass
class MetricsReport:
    coherence: float
    diversity: float
    quality: float
    perplexity: float
    config: dict
    corpus_id: str
    checkpoint_id: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def check_vocab_size(store: ad.ParamStore, vocab_size: int) -> None:
    if store_vocab_size(store) != vocab_size:
        raise VocabularyMismatch(
            f"model vocabulary {store_vocab_size(store)} != corpus vocabulary {vocab_size}"
        )


def topic_word_matrix(store: ad.ParamStore) -> np.ndarray:
    """The (K, V) topic-word distribution beta of a store, built without a graph."""
    with ad.no_grad():
        return topic_word_dist(store["topic_emb"], store["word_emb"]).data


def evaluate_model(
    store: ad.ParamStore,
    config: ModelConfig,
    eval_split: BowCorpus,
    reference_split: BowCorpus,
    vocab_size: int,
    corpus_id: str = "",
    checkpoint_id: str = "",
) -> tuple[MetricsReport, np.ndarray]:
    """All four metrics against a split, coherence referenced to another.

    Returns the report and the beta matrix (for top-word export).
    """
    check_vocab_size(store, vocab_size)
    beta = topic_word_matrix(store)
    stats = build_cooccurrence(reference_split, vocab_size)
    # a stable ranking's top N_DIVERSITY words start with its top N_COHERENCE
    ranked = top_words(beta, N_DIVERSITY)
    coh = npmi_coherence([words[:N_COHERENCE] for words in ranked], stats)
    div = topic_diversity(ranked)
    ppl = perplexity(store, config, eval_split)
    report = MetricsReport(
        coherence=coh,
        diversity=div,
        quality=topic_quality(coh, div),
        perplexity=ppl,
        config=config.__dict__.copy(),
        corpus_id=corpus_id,
        checkpoint_id=checkpoint_id,
    )
    return report, beta
