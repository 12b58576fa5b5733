"""Bag-of-words corpus pipeline: tokenization, document-frequency pruned
vocabulary, vectorization, splits, batching, and binary caching.

Input is one document per line of UTF-8 text.  All constructed objects are
immutable-in-practice after ingestion and safe for concurrent reads.
"""

from __future__ import annotations

import hashlib
import string
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class AllTokensPruned(ValueError):
    """No token survived document-frequency pruning (min_df too large)."""


class EmptySplit(ValueError):
    """A requested split would contain zero documents."""


class CacheFormatError(ValueError):
    """The binary corpus cache is malformed or has the wrong version."""


CACHE_MAGIC = b"DETMCORP"
CACHE_VERSION = 1

_PUNCT = string.punctuation


def tokenize_line(text: str) -> list[str]:
    """Lowercased whitespace tokens with punctuation stripped at the edges."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_PUNCT)
        if tok:
            out.append(tok)
    return out


@dataclass
class Vocabulary:
    """Token/id bijection with per-token document frequencies.

    Ids are contiguous 0..V-1, assigned by descending document frequency
    with lexicographic tie-break.  ``ref_id`` identifies the vocabulary so
    corpora can assert they are bound to the same one.
    """

    tokens: list[str]
    index_of: dict[str, int]
    doc_freq: np.ndarray
    ref_id: str = field(init=False)

    def __post_init__(self) -> None:
        h = hashlib.sha256("\n".join(self.tokens).encode("utf-8"))
        self.ref_id = h.hexdigest()[:12]

    @property
    def V(self) -> int:
        return len(self.tokens)


def build_vocabulary(token_docs: list[list[str]], min_df: int) -> Vocabulary:
    """Retain tokens appearing in at least min_df documents.

    Raises AllTokensPruned when nothing survives.
    """
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    df: Counter[str] = Counter()
    for doc in token_docs:
        df.update(set(doc))
    kept = [(tok, n) for tok, n in df.items() if n >= min_df]
    if not kept:
        raise AllTokensPruned(
            f"min_df={min_df} prunes every token ({len(df)} candidates)"
        )
    kept.sort(key=lambda kv: (-kv[1], kv[0]))
    tokens = [tok for tok, _ in kept]
    return Vocabulary(
        tokens=tokens,
        index_of={tok: i for i, tok in enumerate(tokens)},
        doc_freq=np.array([n for _, n in kept], dtype=np.int64),
    )


@dataclass
class BowDocument:
    """Sparse id -> count map; counts strictly positive, total >= 1."""

    counts: dict[int, int]
    total: int


def vectorize(tokens: list[str], vocab: Vocabulary) -> BowDocument | None:
    """Count in-vocabulary tokens; None means the document is dropped."""
    counts: dict[int, int] = {}
    for tok in tokens:
        idx = vocab.index_of.get(tok)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    if not counts:
        return None
    return BowDocument(counts=counts, total=sum(counts.values()))


@dataclass
class BowCorpus:
    """One split's documents, bound to a vocabulary by ref id."""

    split: str
    docs: list[BowDocument]
    vocab_ref: str

    def __len__(self) -> int:
        return len(self.docs)

    def total_tokens(self) -> int:
        return sum(d.total for d in self.docs)


def dense_counts(corpus: BowCorpus, indices, size: int) -> np.ndarray:
    """Materialize raw count rows for the given document indices."""
    x = np.zeros((len(indices), size))
    for row, i in enumerate(indices):
        for idx, n in corpus.docs[i].counts.items():
            x[row, idx] = n
    return x


def iter_batches(corpus: BowCorpus, size: int, batch_size: int):
    """Dense count rows of every document in corpus order, batch_size at a time."""
    n = len(corpus)
    for start in range(0, n, batch_size):
        yield dense_counts(corpus, range(start, min(start + batch_size, n)), size)


def split_corpus(
    docs: list[BowDocument],
    fractions: tuple[float, float, float],
    seed: int,
    vocab_ref: str,
) -> tuple[BowCorpus, BowCorpus, BowCorpus]:
    """Seeded shuffle then largest-remainder partition into train/valid/test.

    Split sizes differ from N*f by at most 1.  Raises EmptySplit when a
    split would get zero documents.
    """
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ValueError(f"fractions must be three positive numbers: {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1: {fractions}")
    n = len(docs)
    exact = [n * f for f in fractions]
    sizes = [int(e) for e in exact]
    remainder = n - sum(sizes)
    by_frac = sorted(range(3), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in by_frac[:remainder]:
        sizes[i] += 1
    if any(s == 0 for s in sizes):
        raise EmptySplit(f"{n} documents cannot fill fractions {fractions}")

    perm = np.random.default_rng(seed).permutation(n)
    bounds = [0, sizes[0], sizes[0] + sizes[1], n]
    names = ("train", "valid", "test")
    out = []
    for k, name in enumerate(names):
        idx = perm[bounds[k]:bounds[k + 1]]
        out.append(BowCorpus(split=name, docs=[docs[i] for i in idx], vocab_ref=vocab_ref))
    return tuple(out)


@dataclass
class Dataset:
    """A vocabulary plus the three splits bound to it."""

    vocab: Vocabulary
    train: BowCorpus
    valid: BowCorpus
    test: BowCorpus

    def split(self, name: str) -> BowCorpus:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise ValueError(f"unknown split {name!r}") from None


# ---------------------------------------------------------------------------
# ingestion pipeline


@dataclass
class IngestReport:
    """Per-split accounting of what ingestion kept and dropped."""

    vocab_size: int
    docs_in: dict[str, int]
    docs_kept: dict[str, int]
    docs_dropped: dict[str, int]
    total_tokens: dict[str, int]
    min_df: int

    def as_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "docs_in": self.docs_in,
            "docs_kept": self.docs_kept,
            "docs_dropped": self.docs_dropped,
            "total_tokens": self.total_tokens,
            "min_df": self.min_df,
        }


def _read_token_docs(path: str | Path, stopwords: set[str]) -> list[list[str]]:
    docs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            toks = tokenize_line(line)
            if stopwords:
                toks = [t for t in toks if t not in stopwords]
            docs.append(toks)
    return docs


def load_stopwords(path: str | Path | None) -> set[str]:
    if path is None:
        return set()
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            w = line.strip().lower()
            if w:
                words.add(w)
    return words


def ingest_presplit(
    train_path: str | Path,
    valid_path: str | Path,
    test_path: str | Path,
    min_df: int,
    stopword_path: str | Path | None = None,
) -> tuple[Dataset, IngestReport]:
    """Ingest pre-split files; the vocabulary is built on the train split."""
    stop = load_stopwords(stopword_path)
    raw = {
        "train": _read_token_docs(train_path, stop),
        "valid": _read_token_docs(valid_path, stop),
        "test": _read_token_docs(test_path, stop),
    }
    vocab = build_vocabulary(raw["train"], min_df)
    splits: dict[str, BowCorpus] = {}
    docs_in, kept, dropped, tokens = {}, {}, {}, {}
    for name, token_docs in raw.items():
        docs = [d for d in (vectorize(t, vocab) for t in token_docs) if d is not None]
        if not docs:
            raise EmptySplit(f"split {name!r} has no usable documents")
        splits[name] = BowCorpus(split=name, docs=docs, vocab_ref=vocab.ref_id)
        docs_in[name] = len(token_docs)
        kept[name] = len(docs)
        dropped[name] = len(token_docs) - len(docs)
        tokens[name] = splits[name].total_tokens()
    report = IngestReport(vocab.V, docs_in, kept, dropped, tokens, min_df)
    return Dataset(vocab, splits["train"], splits["valid"], splits["test"]), report


def ingest_single(
    input_path: str | Path,
    min_df: int,
    fractions: tuple[float, float, float],
    seed: int,
    stopword_path: str | Path | None = None,
) -> tuple[Dataset, IngestReport]:
    """Ingest one unsplit file; vocabulary from the whole corpus, then split."""
    stop = load_stopwords(stopword_path)
    token_docs = _read_token_docs(input_path, stop)
    vocab = build_vocabulary(token_docs, min_df)
    docs = [d for d in (vectorize(t, vocab) for t in token_docs) if d is not None]
    train, valid, test = split_corpus(docs, fractions, seed, vocab.ref_id)
    n_in = len(token_docs)
    report = IngestReport(
        vocab_size=vocab.V,
        docs_in={"all": n_in},
        docs_kept={"train": len(train), "valid": len(valid), "test": len(test)},
        docs_dropped={"all": n_in - len(docs)},
        total_tokens={s.split: s.total_tokens() for s in (train, valid, test)},
        min_df=min_df,
    )
    return Dataset(vocab, train, valid, test), report


# ---------------------------------------------------------------------------
# on-disk formats


def write_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("token\tid\tdoc_freq\n")
        for i, tok in enumerate(vocab.tokens):
            fh.write(f"{tok}\t{i}\t{int(vocab.doc_freq[i])}\n")


def read_vocabulary(path: str | Path) -> Vocabulary:
    tokens: list[str] = []
    freqs: list[int] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "token\tid\tdoc_freq":
            raise ValueError(f"unexpected vocabulary header: {header!r}")
        for line in fh:
            tok, idx, df = line.rstrip("\n").split("\t")
            if int(idx) != len(tokens):
                raise ValueError(f"non-contiguous vocabulary id {idx}")
            tokens.append(tok)
            freqs.append(int(df))
    return Vocabulary(
        tokens=tokens,
        index_of={t: i for i, t in enumerate(tokens)},
        doc_freq=np.array(freqs, dtype=np.int64),
    )


def write_corpus_cache(corpus: BowCorpus, vocab_size: int, path: str | Path) -> None:
    """Binary cache: magic, version u32, V u32, N u32, then per document a
    pair count u32 followed by (id u32, count u32) pairs, little-endian."""
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<III", CACHE_VERSION, vocab_size, len(corpus.docs)))
        for doc in corpus.docs:
            items = sorted(doc.counts.items())
            fh.write(struct.pack("<I", len(items)))
            fh.write(struct.pack(f"<{2 * len(items)}I", *(v for kv in items for v in kv)))


def read_corpus_cache(path: str | Path, split: str, vocab: Vocabulary) -> BowCorpus:
    data = Path(path).read_bytes()
    if data[:8] != CACHE_MAGIC:
        raise CacheFormatError(f"{path}: not a corpus cache (bad magic)")
    try:
        version, size, n_docs = struct.unpack_from("<III", data, 8)
        if version != CACHE_VERSION:
            raise CacheFormatError(
                f"{path}: cache version {version}, expected {CACHE_VERSION}"
            )
        if size != vocab.V:
            raise CacheFormatError(
                f"{path}: cache vocabulary size {size} != {vocab.V}"
            )
        offset = 20
        docs = []
        for _ in range(n_docs):
            (n_items,) = struct.unpack_from("<I", data, offset)
            offset += 4
            flat = struct.unpack_from(f"<{2 * n_items}I", data, offset)
            offset += 8 * n_items
            counts = {flat[2 * i]: flat[2 * i + 1] for i in range(n_items)}
            docs.append(BowDocument(counts=counts, total=sum(counts.values())))
    except struct.error as exc:
        raise CacheFormatError(f"{path}: truncated cache ({exc})") from None
    if offset != len(data):
        raise CacheFormatError(f"{path}: {len(data) - offset} trailing bytes")
    return BowCorpus(split=split, docs=docs, vocab_ref=vocab.ref_id)
