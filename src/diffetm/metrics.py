"""Evaluation suite: top words, NPMI coherence, diversity, quality, and
held-out perplexity.

Coherence reads a reference corpus (the training split, never test, to
avoid leakage) as one (documents, V) 0/1 occurrence matrix in scipy's
word-major CSC layout, and scores each topic's top 10 words from their
column lengths and joint document counts; diversity is the unique fraction
of the top 25 words across topics; quality is their product; perplexity is
the exponentiated per-token negative log-likelihood on the deterministic
evaluation path, computed in one pass together with the mean closed-form
KL and the X0, mu and logvar that validation draws its z from.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np
from scipy import sparse

from . import autodiff as ad
from .corpus import BowCorpus, dense_counts
from .model import (
    LOG_FLOOR,
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


def build_cooccurrence(corpus: BowCorpus, vocab_size: int) -> sparse.csc_array:
    """The (documents, vocab_size) 0/1 occurrence matrix of the corpus in
    word-major order: word w occurs in the documents
    ``indices[indptr[w]:indptr[w + 1]]``, ascending, as scipy's compiled
    CSR-to-CSC conversion leaves them."""
    ids = corpus.ids
    # scipy's conversion does not check indices, so a bad id must stop here
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        bad = ids[(ids < 0) | (ids >= vocab_size)][0]
        raise VocabularyMismatch(f"word id {bad} outside reference vocabulary of {vocab_size}")
    # int32 indices, where they fit, halve the transpose's memory traffic
    index = np.int32 if max(ids.size, vocab_size, len(corpus)) < 2**31 else np.int64
    by_doc = sparse.csr_array(
        (np.ones(ids.size, dtype=np.int8), ids.astype(index), corpus.indptr.astype(index)),
        shape=(len(corpus), vocab_size),
    )
    return by_doc.tocsc()


def joint_counts(stats: sparse.csc_array, words: list[int]) -> np.ndarray:
    """The (len(words), len(words)) float64 matrix of joint document counts,
    one product of the words' 0/1 document indicators: the counts stay exact
    integers below 2**53 documents."""
    ind = np.zeros((len(words), stats.shape[0]))
    for row, w in zip(ind, words):
        row[stats.indices[stats.indptr[w]:stats.indptr[w + 1]]] = 1.0
    return ind @ ind.T


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


def npmi_coherence(topics: list[list[int]], stats: sparse.csc_array) -> float:
    """Mean over topics of the mean pairwise NPMI of their top words, from
    build_cooccurrence's occurrence matrix."""
    n, vocab_size = stats.shape
    doc_freq = np.diff(stats.indptr)
    per_topic = []
    for words in topics:
        for w in words:
            if not 0 <= w < vocab_size:
                raise VocabularyMismatch(f"word id {w} outside reference vocabulary of {vocab_size}")
        joint = joint_counts(stats, words).tolist()
        p = (doc_freq[words] / n).tolist()
        scores = []
        for i, j in combinations(range(len(words)), 2):
            scores.append(npmi_pair(p[i], p[j], joint[i][j] / n))
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
) -> tuple[float, float, tuple[np.ndarray | None, np.ndarray, np.ndarray]]:
    """One deterministic pass over the split: exp(-sum(X log X') / sum(X)),
    the per-document mean of the closed-form KL against N(0, I), and the
    split's (X0 or None, mu, logvar) in split order.

    The log-likelihood sums over the nonzero counts only, the entries where
    X log X' can differ from 0."""
    n = len(corpus_split)
    if n == 0:
        raise ValueError("perplexity: empty split")
    log_lik = 0.0
    kl_sum = 0.0
    latents = []
    for start in range(0, n, EVAL_BATCH_SIZE):
        indices = range(start, min(start + EVAL_BATCH_SIZE, n))
        batch = dense_counts(corpus_split, indices, store_vocab_size(store), store_dtype(store))
        x0, mu, logvar, x_prime = predict_batch(batch, store, config)
        latents.append((x0, mu, logvar))
        # the int64 counts keep the sum in float64
        log_lik += ad.log_likelihood(
            ad.Tensor(x_prime), batch.rows, batch.cols, batch.counts, LOG_FLOOR
        ).item()
        per_doc = 0.5 * (mu ** 2 + np.exp(logvar) - logvar - 1.0).sum(axis=1)
        kl_sum += float(per_doc.sum())
        # the next batch's prediction is not to overlap this (B, V) X'
        del batch, x_prime
    ppl = float(np.exp(-log_lik / corpus_split.total_tokens()))
    x0, mu, logvar = (None if arrays[0] is None else np.concatenate(arrays) for arrays in zip(*latents))
    return ppl, kl_sum / n, (x0, mu, logvar)


def perplexity(store: ad.ParamStore, config: ModelConfig, corpus_split: BowCorpus) -> float:
    """exp(-sum(X log X') / sum(X)) over the split, deterministic path."""
    return perplexity_and_kl(store, config, corpus_split)[0]


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
