import tempfile
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import diffetm
from diffetm import autodiff as ad
from diffetm.corpus import Batch, BowCorpus, Dataset, dense_counts, ingest_single
from diffetm.model import ModelConfig
from diffetm.synth import generate_docs


def pytest_report_header(config):
    # pyproject.toml puts the checkout's src ahead of PYTHONPATH, so this names
    # the tree the tests import, whatever PYTHONPATH says
    return f"diffetm under test: {Path(diffetm.__file__).parent}"


def dataset_from_lines(lines, min_df=1, fractions=(0.6, 0.2, 0.2), seed=11) -> Dataset:
    """The lines, one document each, through the single-file ingest."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "all.txt"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return ingest_single(path, min_df, fractions, seed)[0]


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


def graph_nodes(output: ad.Tensor) -> list[ad.Tensor]:
    """Every requires-grad tensor reachable from output through its inputs:
    the nodes backward visits."""
    seen, stack = {}, [output]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(p for p in t._parents if p.requires)
    return list(seen.values())


def captured(monkeypatch, module, name: str) -> list:
    """Every result of module.<name> from now on, in call order: the function
    is wrapped at the attribute its callers look it up by."""
    results = []
    fn = getattr(module, name)

    def wrapper(*args):
        results.append(fn(*args))
        return results[-1]

    monkeypatch.setattr(module, name, wrapper)
    return results


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


def finite_diff_check(
    params: ad.ParamStore,
    name: str,
    loss_fn: Callable[[], ad.Tensor],
    step: float = 1e-5,
    max_coords: int = 8,
    seed: int = 0,
) -> float:
    """Compare analytic gradients of loss_fn against central differences.

    loss_fn must be deterministic (freeze any noise source by reconstructing
    it inside the closure).  Returns the max over sampled coordinates of
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).

    The check runs in float64: every parameter of the store is converted for
    its duration, then its original array (dtype and values) is put back.
    """
    originals = [(t, t.data) for _, t in params.items()]
    for t, data in originals:
        t.data = data.astype(np.float64)
    try:
        params.zero_grads()
        ad.backward(loss_fn())
        analytic = params[name].grad.copy()

        flat = params[name].data.reshape(-1)
        n = flat.size
        rng = np.random.default_rng(seed)
        coords = rng.choice(n, size=min(max_coords, n), replace=False)

        worst = 0.0
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + step
            f_plus = loss_fn().item()
            flat[idx] = orig - step
            f_minus = loss_fn().item()
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic.reshape(-1)[idx]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, rel)
    finally:
        for t, data in originals:
            t.data = data
        params.zero_grads()
    return worst
