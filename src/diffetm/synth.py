"""Synthetic benchmark corpora drawn from a latent topic process.

Used by the experiment scripts, the benchmark and the tests: real
newswire corpora are not redistributable, so direction checks run on
generated text with a comparable document count, vocabulary size, and
topical structure.  Tokens are synthetic words ("w0017") that survive the
tokenizer unchanged.

``background_weight`` makes the text behave more like real prose than a
plain mixed-membership draw: it mixes a shared Zipf-shaped unigram
distribution into every document (function-word mass).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def generate_docs(
    n_docs: int,
    vocab_size: int = 2000,
    n_topics: int = 50,
    seed: int = 0,
    doc_len_range: tuple[int, int] = (40, 120),
    topic_concentration: float = 0.02,
    background_weight: float = 0.0,
) -> list[str]:
    """Sample documents from a fixed mixed-membership generative model.

    Each topic is a sparse Dirichlet draw over the vocabulary; each
    document mixes a few topics and draws its tokens from the blend,
    optionally diluted with background mass.
    """
    rng = np.random.default_rng(seed)
    width = len(str(vocab_size - 1))
    words = [f"w{i:0{width}d}" for i in range(vocab_size)]

    topic_word = rng.dirichlet([topic_concentration] * vocab_size, size=n_topics)
    doc_topic = rng.dirichlet([0.1] * n_topics, size=n_docs)  # a few topics per document
    word_probs = doc_topic @ topic_word

    if background_weight > 0.0:
        ranks = np.arange(1, vocab_size + 1, dtype=float)
        background = (1.0 / ranks) / (1.0 / ranks).sum()
        word_probs = (1.0 - background_weight) * word_probs + background_weight * background

    lo, hi = doc_len_range
    lengths = rng.integers(lo, hi + 1, size=n_docs)
    docs = []
    for i in range(n_docs):
        counts = rng.multinomial(lengths[i], word_probs[i])
        (ids,) = counts.nonzero()
        docs.append(" ".join(w for j in ids for w in [words[j]] * counts[j]))
    return docs


def write_split_files(
    out_dir: str | Path,
    n_train: int,
    n_valid: int,
    n_test: int,
    vocab_size: int = 2000,
    n_topics: int = 50,
    seed: int = 0,
    **kwargs,
) -> dict[str, Path]:
    """Draw one corpus from a single model and partition it into splits."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    docs = generate_docs(
        n_train + n_valid + n_test,
        vocab_size=vocab_size,
        n_topics=n_topics,
        seed=seed,
        **kwargs,
    )
    paths = {}
    bounds = {
        "train": (0, n_train),
        "valid": (n_train, n_train + n_valid),
        "test": (n_train + n_valid, n_train + n_valid + n_test),
    }
    for name, (a, b) in bounds.items():
        path = out / f"{name}.txt"
        path.write_text("\n".join(docs[a:b]) + "\n", encoding="utf-8")
        paths[name] = path
    return paths
