import numpy as np
import pytest

from diffetm import autodiff as ad
from diffetm.corpus import (
    Batch,
    BowCorpus,
    Dataset,
    build_vocabulary,
    dense_counts,
    split_corpus,
    tokenize_line,
    vectorize,
)
from diffetm.model import ModelConfig
from diffetm.synth import generate_docs


def dataset_from_lines(lines, min_df=1, fractions=(0.6, 0.2, 0.2), seed=11) -> Dataset:
    token_docs = [tokenize_line(line) for line in lines]
    vocab = build_vocabulary(token_docs, min_df)
    train, valid, test = split_corpus(vectorize(token_docs, vocab, "all"), fractions, seed)
    return Dataset(vocab, train, valid, test)


@pytest.fixture(scope="session")
def tiny_dataset() -> Dataset:
    """~20 train docs over a ~30-word vocabulary; enough to learn on."""
    lines = generate_docs(
        34, vocab_size=30, n_topics=3, seed=5, doc_len_range=(15, 40),
        topic_concentration=0.2,
    )
    return dataset_from_lines(lines, fractions=(0.62, 0.19, 0.19))


@pytest.fixture
def tiny_config() -> ModelConfig:
    return ModelConfig(num_topics=5, embed_size=8, hidden_size=16, seed=3)


def batch_of(x, dtype=np.float64) -> Batch:
    """A dense array of counts as the model reads it.

    The array becomes a one-off CSR corpus, one document a row, and the
    batch comes from dense_counts, the builder training and evaluation use.
    """
    x = np.asarray(x)
    rows, cols = np.nonzero(x)
    indptr = np.searchsorted(rows, np.arange(x.shape[0] + 1))
    corpus = BowCorpus("test", indptr, cols, x[rows, cols], "dense")
    return dense_counts(corpus, range(x.shape[0]), x.shape[1], dtype)


def _float64_copy(store: ad.ParamStore) -> ad.ParamStore:
    out = ad.ParamStore()
    for name, t in store.items():
        out.add(name, t.data.astype(np.float64))
    return out


@pytest.fixture
def as_float64():
    """Copy a parameter store to float64.

    The model computes in its store's dtype, so tests that check a float64
    identity at a float64 tolerance build their store through this.
    """
    return _float64_copy
