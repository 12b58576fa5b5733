"""Bag-of-words corpus pipeline: tokenization, document-frequency pruned
vocabulary, vectorization, splits, batching, and binary caching.

Input is one document per line of UTF-8 text.  All constructed objects are
immutable-in-practice after ingestion and safe for concurrent reads.
"""

from __future__ import annotations

import hashlib
import operator
import string
import struct
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np
from scipy import sparse


class AllTokensPruned(ValueError):
    """Fewer than two tokens survived document-frequency pruning (min_df too large)."""


class EmptySplit(ValueError):
    """A requested split would contain zero documents."""


class CacheFormatError(ValueError):
    """The binary corpus cache is malformed or has the wrong version."""


class VocabularyFormatError(ValueError):
    """The vocabulary TSV is malformed."""


CACHE_MAGIC = b"DETMCORP"
CACHE_VERSION = 2
SPLITS = ("train", "valid", "test")

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


def check_min_df(min_df: int) -> None:
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")


def check_min_vocab(vocab: Vocabulary, error: type[ValueError], source: str) -> None:
    if vocab.V < 2:  # NPMI coherence scores pairs of a topic's top words
        raise error(f"{source} {vocab.V} token(s); a vocabulary needs at least 2")


def build_vocabulary(token_docs: list[list[str]], min_df: int) -> Vocabulary:
    """Retain tokens appearing in at least min_df documents.

    Raises AllTokensPruned when nothing survives.
    """
    check_min_df(min_df)
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


def vectorize(token_docs: list[list[str]], vocab: Vocabulary, split: str) -> BowCorpus:
    """Count the in-vocabulary tokens of every document in one pass.

    Documents without an in-vocabulary token are dropped; the kept
    documents stay in order.
    """
    lengths = np.fromiter(map(len, token_docs), np.int64, count=len(token_docs))
    ids = np.fromiter(
        map(vocab.index_of.get, chain.from_iterable(token_docs), repeat(-1)),
        np.int64,
        count=int(lengths.sum()),
    )
    docs = np.repeat(np.arange(len(token_docs)), lengths)
    kept = ids >= 0
    # one sorted key per (document, id) pair: documents in order, ids ascending
    keys, counts = np.unique(docs[kept] * vocab.V + ids[kept], return_counts=True)
    docs, ids = np.divmod(keys, vocab.V)
    lengths = np.bincount(docs)
    indptr = np.append(0, np.cumsum(lengths[lengths > 0]))
    return BowCorpus(split, indptr, ids, counts, vocab.ref_id)


def _entries(indptr: np.ndarray, docs) -> tuple[np.ndarray, np.ndarray]:
    """The entry count of each given document, and the CSR position of each
    of their entries, document after document."""
    docs = np.asarray(docs, dtype=np.int64)
    starts = indptr[docs]
    lengths = indptr[docs + 1] - starts
    # entry k of the rows is entry k - (entries of earlier rows) of its document
    at = np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return lengths, at


class BowCorpus:
    """One split's documents, bound to a vocabulary by ref id.

    The documents are stored as one CSR triple: document d holds the word
    ids ``ids[indptr[d]:indptr[d + 1]]``, ascending and distinct, with their
    counts at the same positions of ``counts``.  The three int64 arrays are
    read-only; the layout is not checked here.  ``docs`` is a read-only view
    that builds a BowDocument on each access; it is no second copy of the
    corpus.
    """

    def __init__(self, split: str, indptr, ids, counts, vocab_ref: str):
        self.split = split
        self.vocab_ref = vocab_ref
        # views, so that marking them read-only leaves the caller's arrays be
        self.indptr, self.ids, self.counts = (
            np.asarray(a, dtype=np.int64).view() for a in (indptr, ids, counts)
        )
        for a in (self.indptr, self.ids, self.counts):
            a.flags.writeable = False

    @property
    def docs(self) -> "DocumentView":
        return DocumentView(self)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def total_tokens(self) -> int:
        return int(self.counts.sum())

    def entry_docs(self) -> np.ndarray:
        """The document index of every (id, count) entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def take(self, docs, split: str | None = None) -> "BowCorpus":
        """The given documents, in the given order, as a new corpus."""
        lengths, at = _entries(self.indptr, docs)
        indptr = np.append(0, np.cumsum(lengths))
        return BowCorpus(split or self.split, indptr, self.ids[at], self.counts[at], self.vocab_ref)


class DocumentView(Sequence):
    """A corpus's documents as BowDocuments, built on access; read-only."""

    def __init__(self, corpus: BowCorpus):
        self._corpus = corpus

    def __len__(self) -> int:
        return len(self._corpus)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError(f"document {i} out of range for {n} documents")
        if i < 0:
            i += n
        c = self._corpus
        a, b = c.indptr[i], c.indptr[i + 1]
        counts = c.counts[a:b].tolist()
        return BowDocument(counts=dict(zip(c.ids[a:b].tolist(), counts)), total=sum(counts))


@dataclass(frozen=True)
class Batch:
    """Some documents of a corpus as the model reads them, built once.

    ``x_norm`` holds each row's counts over the row total as one (B, V)
    ``scipy.sparse`` CSC array in the model's dtype, the constant input of
    every encoder's first layer (``autodiff.sparse_affine``).  ``rows``,
    ``cols`` and ``counts`` are the nonzero entries in row-major order, taken
    from the CSR arrays: the only entries where a count weighs a
    log-probability in the loss and the perplexity.
    """

    x_norm: sparse.csc_array
    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.x_norm.shape


def dense_counts(corpus: BowCorpus, indices, size: int, dtype) -> Batch:
    """The batch of the given documents over a vocabulary of size words.

    Each entry of x_norm is count / total divided in float64, where integer
    totals are exact, then rounded once to dtype; no dense (B, V) array is
    built.  Raises ValueError for a document without tokens or a word id
    outside the vocabulary.  (The name is older than the record; the
    benchmark tracer patches the function by it.)
    """
    lengths, at = _entries(corpus.indptr, indices)
    rows = np.repeat(np.arange(len(lengths)), lengths)
    cols, counts = corpus.ids[at], corpus.counts[at]
    totals = np.bincount(rows, weights=counts, minlength=len(lengths))
    if np.any(totals <= 0):
        raise ValueError("forward_batch: a document row has zero tokens")
    # the compiled CSR -> CSC conversion does not check its indices
    if cols.size and cols.max() >= size:
        raise ValueError(f"word id {cols.max()} outside a vocabulary of {size}")
    values = (counts / totals[rows]).astype(dtype)
    indptr = np.append(0, np.cumsum(lengths))
    x_norm = sparse.csr_array((values, cols, indptr), shape=(len(lengths), size)).tocsc()
    return Batch(x_norm, rows, cols, counts)


def iter_batches(corpus: BowCorpus, size: int, batch_size: int, dtype):
    """The batches of every document in corpus order, batch_size at a time."""
    n = len(corpus)
    for start in range(0, n, batch_size):
        yield dense_counts(corpus, range(start, min(start + batch_size, n)), size, dtype)


def check_split(fractions, seed: int) -> None:
    """The rule for a split's train/valid/test fractions and shuffle seed."""
    if len(fractions) != 3 or not all(isinstance(f, (int, float)) and f > 0 for f in fractions):
        raise ValueError(f"fractions must be three positive numbers: {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1: {fractions}")
    if seed < 0:
        raise ValueError(f"split_seed must be >= 0, got {seed}")


def split_corpus(
    corpus: BowCorpus,
    fractions: tuple[float, float, float],
    seed: int,
) -> tuple[BowCorpus, BowCorpus, BowCorpus]:
    """Seeded shuffle then largest-remainder partition into train/valid/test.

    Split sizes differ from N*f by at most 1.  Raises EmptySplit when a
    split would get zero documents.
    """
    check_split(fractions, seed)
    n = len(corpus)
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
    return tuple(corpus.take(perm[bounds[k]:bounds[k + 1]], name) for k, name in enumerate(SPLITS))


@dataclass
class Dataset:
    """A vocabulary plus the three splits bound to it."""

    vocab: Vocabulary
    train: BowCorpus
    valid: BowCorpus
    test: BowCorpus

    def split(self, name: str) -> BowCorpus:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)


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
    """One stopword per line, normalized the way tokenize_line normalizes a
    token; lines that normalize to nothing are skipped."""
    if path is None:
        return set()
    with open(path, encoding="utf-8") as fh:
        return {w for w in (line.strip().lower().strip(_PUNCT) for line in fh) if w}


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
    check_min_vocab(vocab, AllTokensPruned, f"min_df={min_df} keeps")
    splits: dict[str, BowCorpus] = {}
    docs_in, kept, dropped, tokens = {}, {}, {}, {}
    for name, token_docs in raw.items():
        splits[name] = corpus = vectorize(token_docs, vocab, name)
        if not len(corpus):
            raise EmptySplit(f"split {name!r} has no usable documents")
        docs_in[name] = len(token_docs)
        kept[name] = len(corpus)
        dropped[name] = len(token_docs) - len(corpus)
        tokens[name] = corpus.total_tokens()
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
    check_min_vocab(vocab, AllTokensPruned, f"min_df={min_df} keeps")
    corpus = vectorize(token_docs, vocab, "all")
    train, valid, test = split_corpus(corpus, fractions, seed)
    n_in = len(token_docs)
    report = IngestReport(
        vocab_size=vocab.V,
        docs_in={"all": n_in},
        docs_kept={"train": len(train), "valid": len(valid), "test": len(test)},
        docs_dropped={"all": n_in - len(corpus)},
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
    """Load a vocabulary written by write_vocabulary.

    Raises VocabularyFormatError for text that is not UTF-8, a bad header,
    a line without exactly three tab-separated fields, an empty or repeated
    token, an id other than the line's position written as a plain decimal,
    a doc_freq that is not a nonnegative decimal integer, or < 2 tokens.
    """
    index_of: dict[str, int] = {}
    freqs: list[int] = []
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != "token\tid\tdoc_freq":
                raise VocabularyFormatError(f"{path}: unexpected vocabulary header: {header!r}")
            for lineno, line in enumerate(fh, start=2):
                where = f"{path}:{lineno}"
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 3:
                    raise VocabularyFormatError(f"{where}: {len(fields)} fields, expected 3")
                tok, idx, df = fields
                if not tok:
                    raise VocabularyFormatError(f"{where}: empty token")
                if tok in index_of:
                    raise VocabularyFormatError(f"{where}: duplicate token {tok!r}")
                if idx != str(len(index_of)):
                    raise VocabularyFormatError(f"{where}: id {idx!r}, expected {len(index_of)}")
                if not (df.isascii() and df.isdigit()):
                    raise VocabularyFormatError(f"{where}: doc_freq {df!r} is not an integer >= 0")
                index_of[tok] = len(index_of)
                freqs.append(int(df))
    except UnicodeDecodeError as exc:
        raise VocabularyFormatError(f"{path}: not UTF-8 text ({exc})") from None
    vocab = Vocabulary(list(index_of), index_of, np.array(freqs, dtype=np.int64))
    check_min_vocab(vocab, VocabularyFormatError, f"{path}: holds")
    return vocab


def write_corpus_cache(corpus: BowCorpus, vocab_size: int, path: str | Path) -> None:
    """Binary cache, little-endian: magic, version u32, V u32, N u32, then
    three u32 arrays in document order: the N pair counts, every word id
    (ascending within a document) and every count."""
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<III", CACHE_VERSION, vocab_size, len(corpus)))
        for a in (np.diff(corpus.indptr), corpus.ids, corpus.counts):
            fh.write(a.astype("<u4").tobytes())


def read_corpus_cache(path: str | Path, split: str, vocab: Vocabulary) -> BowCorpus:
    """Load a cache written by write_corpus_cache.

    Raises CacheFormatError unless the file is a complete cache of this
    version and vocabulary size that holds at least one document, in which
    every document has at least one pair, its ids are ascending, distinct
    and below V, and every count is positive.
    """
    data = Path(path).read_bytes()
    if data[:8] != CACHE_MAGIC:
        raise CacheFormatError(f"{path}: not a corpus cache (bad magic)")
    if len(data) < 20:
        raise CacheFormatError(f"{path}: truncated cache (no header)")
    version, size, n_docs = struct.unpack_from("<III", data, 8)
    if version != CACHE_VERSION:
        raise CacheFormatError(
            f"{path}: cache version {version}, expected {CACHE_VERSION}; "
            "re-run diffetm ingest to rebuild it"
        )
    if size != vocab.V:
        raise CacheFormatError(f"{path}: cache vocabulary size {size} != {vocab.V}")
    if n_docs == 0:
        raise CacheFormatError(f"{path}: cache holds no documents")
    words = (len(data) - 20) // 4
    if n_docs > words:
        raise CacheFormatError(f"{path}: truncated cache ({n_docs} documents in {words} words)")
    lengths = np.frombuffer(data, dtype="<u4", count=n_docs, offset=20).astype(np.int64)
    bad = np.flatnonzero(lengths == 0)
    if bad.size:
        raise CacheFormatError(f"{path}: document {bad[0]} has no (id, count) pairs")
    n_pairs = int(lengths.sum())
    expected = 20 + 4 * (n_docs + 2 * n_pairs)
    if len(data) < expected:
        raise CacheFormatError(f"{path}: truncated cache ({len(data)} bytes of {expected})")
    if len(data) > expected:
        raise CacheFormatError(f"{path}: {len(data) - expected} trailing bytes")

    ids, counts = np.frombuffer(
        data, dtype="<u4", count=2 * n_pairs, offset=20 + 4 * n_docs
    ).astype(np.int64).reshape(2, n_pairs)
    entry_docs = np.repeat(np.arange(n_docs), lengths)
    bad = np.flatnonzero(ids >= size)
    if bad.size:
        raise CacheFormatError(
            f"{path}: document {entry_docs[bad[0]]} has word id {ids[bad[0]]} >= V={size}"
        )
    bad = np.flatnonzero(counts == 0)
    if bad.size:
        raise CacheFormatError(f"{path}: document {entry_docs[bad[0]]} has a zero count")
    # consecutive entries of one document must have strictly ascending ids
    bad = np.flatnonzero((np.diff(ids) <= 0) & (entry_docs[1:] == entry_docs[:-1]))
    if bad.size:
        raise CacheFormatError(
            f"{path}: document {entry_docs[bad[0]]} has unsorted or duplicate word ids"
        )
    return BowCorpus(split, np.append(0, np.cumsum(lengths)), ids, counts, vocab.ref_id)
