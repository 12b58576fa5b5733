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
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, count
from pathlib import Path

import numpy as np
from scipy import sparse

from .atomic import write_chunks, write_text


class AllTokensPruned(ValueError):
    """Fewer than two tokens survived document-frequency pruning (min_df too large)."""


class EmptySplit(ValueError):
    """A requested split would contain zero documents."""


class CacheFormatError(ValueError):
    """The binary corpus cache is malformed or has the wrong version."""


class VocabularyFormatError(ValueError):
    """The vocabulary TSV is malformed."""


class NotUtf8(ValueError):
    """A corpus text file or stop-word file is not UTF-8 text."""


CACHE_MAGIC = b"DETMCORP"
CACHE_VERSION = 2
SPLITS = ("train", "valid", "test")

_PUNCT = string.punctuation


@dataclass
class Vocabulary:
    """Token/id bijection with per-token document frequencies.

    Ids are contiguous 0..V-1, assigned by descending document frequency
    with lexicographic tie-break.  ``ref_id`` identifies the vocabulary so
    corpora can assert they are bound to the same one.
    """

    tokens: list[str]
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


def _pairs(lengths: np.ndarray, ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys document * size + id of the tokens with an id >= 0,
    ascending, and how often each occurs."""
    docs = np.repeat(np.arange(len(lengths)), lengths)
    kept = ids >= 0
    # return_counts takes the sorting path; a bare np.unique of int64 keys is
    # many times slower
    return np.unique(docs[kept] * size + ids[kept], return_counts=True)


def _vocabulary(tokens: list[str], lengths, ids, min_df: int) -> tuple[Vocabulary, np.ndarray]:
    """The vocabulary of the documents given as provisional ids into tokens,
    and the map from provisional id to vocabulary id, -1 for a pruned one.

    Raises AllTokensPruned when nothing survives.
    """
    check_min_df(min_df)
    keys, _ = _pairs(lengths, ids, len(tokens))
    df = np.bincount(keys % len(tokens), minlength=len(tokens))
    kept = np.flatnonzero(df >= min_df)
    if not kept.size:
        raise AllTokensPruned(
            f"min_df={min_df} prunes every token ({np.count_nonzero(df)} candidates)"
        )
    freq = df.tolist()
    order = sorted(kept.tolist(), key=lambda i: (-freq[i], tokens[i]))
    remap = np.full(len(tokens), -1, dtype=np.int64)
    remap[order] = np.arange(len(order))
    return Vocabulary([tokens[i] for i in order], df[order]), remap


def _bow(split: str, lengths, ids, vocab: Vocabulary) -> BowCorpus:
    """The documents given as vocabulary ids (-1 for a word outside it) as a
    corpus; documents without an in-vocabulary token are dropped, the kept
    documents stay in order."""
    keys, counts = _pairs(lengths, ids, vocab.V)
    docs, ids = np.divmod(keys, vocab.V)
    lengths = np.bincount(docs)
    indptr = np.append(0, np.cumsum(lengths[lengths > 0]))
    return BowCorpus(split, indptr, ids, counts, vocab.ref_id)


@dataclass
class BowDocument:
    """Sparse id -> count map; counts strictly positive, total >= 1."""

    counts: dict[int, int]
    total: int


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


class _ChunkIds(dict):
    """Raw chunk (a lowercased, whitespace-split piece of a line) -> the
    provisional id of the token it normalises to by stripping its edge
    punctuation, or -1 for nothing or a stopword.  A chunk is normalised on
    its first lookup only.  ids_of gives a token first seen the next id, so
    its keys, in order, are the tokens by provisional id."""

    def __init__(self, stopwords: set[str]):
        self.stopwords, self.ids_of = stopwords, defaultdict(count().__next__)

    def __missing__(self, chunk: str) -> int:
        tok = chunk.strip(_PUNCT)
        self[chunk] = i = self.ids_of[tok] if tok and tok not in self.stopwords else -1
        return i


def _read_ids(path: str | Path, cache: _ChunkIds) -> tuple[np.ndarray, np.ndarray]:
    """Every line of a file as one document: each document's count of tokens
    that are not stopwords, and the provisional id of every such token,
    document after document, as two int64 arrays.  One cache serves every
    file of an ingest."""
    ids: list[int] = []
    ends = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                ids += map(cache.__getitem__, line.lower().split())
                ends.append(len(ids))
    except UnicodeDecodeError as exc:
        raise NotUtf8(f"{path}: not UTF-8 text ({exc})") from None
    ids, ends = np.fromiter(ids, np.int64, count=len(ids)), np.array(ends, dtype=np.int64)
    kept = ids >= 0
    if not kept.all():  # some chunk normalised to nothing or to a stopword
        ids, ends = ids[kept], np.append(0, np.cumsum(kept))[ends]
    return np.diff(ends, prepend=0), ids


def load_stopwords(path: str | Path | None) -> set[str]:
    """One stopword per line, normalized the way ingest normalizes a token;
    lines that normalize to nothing are skipped."""
    if path is None:
        return set()
    try:
        with open(path, encoding="utf-8") as fh:
            return {w for w in (line.strip().lower().strip(_PUNCT) for line in fh) if w}
    except UnicodeDecodeError as exc:
        raise NotUtf8(f"{path}: not UTF-8 text ({exc})") from None


def _ingest(
    paths: dict[str, str | Path], vocab_from: str, min_df: int, stopword_path: str | Path | None
) -> tuple[Vocabulary, dict[str, int], dict[str, BowCorpus]]:
    """Read each named file once, straight to token ids, and build the
    vocabulary on the file named vocab_from.

    Every file is read before the vocabulary is built, so a file error comes
    before AllTokensPruned.  Returns the vocabulary, and each file's line
    count and corpus by name.
    """
    cache = _ChunkIds(load_stopwords(stopword_path))
    raw = {name: _read_ids(path, cache) for name, path in paths.items()}
    # a token first seen in another file has a document frequency of 0 in
    # vocab_from, below every min_df, so remap sends it to -1
    vocab, remap = _vocabulary(list(cache.ids_of), *raw[vocab_from], min_df)
    check_min_vocab(vocab, AllTokensPruned, f"min_df={min_df} keeps")
    lines = {name: len(lengths) for name, (lengths, _) in raw.items()}
    corpora = {name: _bow(name, lengths, remap[ids], vocab) for name, (lengths, ids) in raw.items()}
    return vocab, lines, corpora


def _report(
    vocab: Vocabulary,
    docs_in: dict[str, int],
    docs_dropped: dict[str, int],
    splits: dict[str, BowCorpus],
    min_df: int,
) -> IngestReport:
    """The report of an ingest that gave the three named splits."""
    kept = {name: len(c) for name, c in splits.items()}
    tokens = {name: c.total_tokens() for name, c in splits.items()}
    return IngestReport(vocab.V, docs_in, kept, docs_dropped, tokens, min_df)


def ingest_presplit(
    train_path: str | Path,
    valid_path: str | Path,
    test_path: str | Path,
    min_df: int,
    stopword_path: str | Path | None = None,
) -> tuple[Dataset, IngestReport]:
    """Ingest pre-split files; the vocabulary is built on the train split."""
    paths = dict(zip(SPLITS, (train_path, valid_path, test_path)))
    vocab, lines, splits = _ingest(paths, "train", min_df, stopword_path)
    for name, corpus in splits.items():
        if not len(corpus):
            raise EmptySplit(f"split {name!r} has no usable documents")
    dropped = {name: lines[name] - len(c) for name, c in splits.items()}
    return Dataset(vocab, **splits), _report(vocab, lines, dropped, splits, min_df)


def ingest_single(
    input_path: str | Path,
    min_df: int,
    fractions: tuple[float, float, float],
    seed: int,
    stopword_path: str | Path | None = None,
) -> tuple[Dataset, IngestReport]:
    """Ingest one unsplit file; vocabulary from the whole corpus, then split."""
    vocab, lines, read = _ingest({"all": input_path}, "all", min_df, stopword_path)
    splits = dict(zip(SPLITS, split_corpus(read["all"], fractions, seed)))
    dropped = {"all": lines["all"] - len(read["all"])}
    return Dataset(vocab, **splits), _report(vocab, lines, dropped, splits, min_df)


# ---------------------------------------------------------------------------
# on-disk formats


def write_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    rows = enumerate(zip(vocab.tokens, vocab.doc_freq.tolist()))
    lines = (f"{tok}\t{i}\t{df}\n" for i, (tok, df) in rows)
    write_text(path, "token\tid\tdoc_freq\n" + "".join(lines))


def read_vocabulary(path: str | Path) -> Vocabulary:
    """Load a vocabulary written by write_vocabulary.

    Raises VocabularyFormatError for text that is not UTF-8, a bad header,
    a line without exactly three tab-separated fields, an empty or repeated
    token, an id other than the line's position written as a plain decimal,
    a doc_freq that is not a nonnegative decimal integer, or < 2 tokens.
    """
    doc_freq: dict[str, int] = {}  # in file order
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
                if tok in doc_freq:
                    raise VocabularyFormatError(f"{where}: duplicate token {tok!r}")
                if idx != str(len(doc_freq)):
                    raise VocabularyFormatError(f"{where}: id {idx!r}, expected {len(doc_freq)}")
                if not (df.isascii() and df.isdigit()):
                    raise VocabularyFormatError(f"{where}: doc_freq {df!r} is not an integer >= 0")
                doc_freq[tok] = int(df)
    except UnicodeDecodeError as exc:
        raise VocabularyFormatError(f"{path}: not UTF-8 text ({exc})") from None
    vocab = Vocabulary(list(doc_freq), np.array(list(doc_freq.values()), dtype=np.int64))
    check_min_vocab(vocab, VocabularyFormatError, f"{path}: holds")
    return vocab


def write_corpus_cache(corpus: BowCorpus, vocab_size: int, path: str | Path) -> None:
    """Binary cache, little-endian: magic, version u32, V u32, N u32, then
    three u32 arrays in document order: the N pair counts, every word id
    (ascending within a document) and every count."""
    header = CACHE_MAGIC + struct.pack("<III", CACHE_VERSION, vocab_size, len(corpus))
    arrays = (np.diff(corpus.indptr), corpus.ids, corpus.counts)
    write_chunks(path, chain([header], (a.astype("<u4") for a in arrays)))


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
