import re
import string
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffetm import corpus as cp


def corpus_of(maps, split="train", vocab_ref="ref"):
    """A corpus through the CSR constructor: document d holds maps[d]."""
    rows = [sorted(m.items()) for m in maps]
    pairs = [pair for row in rows for pair in row]
    return cp.BowCorpus(
        split,
        np.cumsum([0, *map(len, rows)]),
        np.array([w for w, _ in pairs], dtype=np.int64),
        np.array([n for _, n in pairs], dtype=np.int64),
        vocab_ref,
    )


def _write(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def _vocabulary_of(tmp_path, token_docs, min_df):
    """The vocabulary ingest builds on the documents, given as token lists."""
    train = _write(tmp_path, "train.txt", map(" ".join, token_docs))
    return cp.ingest_presplit(train, train, train, min_df)[0].vocab


def _valid_split(tmp_path, token_docs, train_docs):
    """The documents, given as token lists, as the valid split of an ingest
    whose train split (and test split) is train_docs, at min_df=1."""
    train = _write(tmp_path, "train.txt", map(" ".join, train_docs))
    valid = _write(tmp_path, "valid.txt", map(" ".join, token_docs))
    return cp.ingest_presplit(train, valid, train, min_df=1)


def _tokens_read(tmp_path, line):
    """The tokens ingest reads from line, sorted, with multiplicity, checked
    against the oracle: line is the first document of the valid split, and
    the vocabulary's train text holds it too."""
    train = _write(tmp_path, "train.txt", [line, "zz yy"])
    valid = _write(tmp_path, "valid.txt", [line, "zz"])
    dataset, report = cp.ingest_presplit(train, valid, train, min_df=1)
    read = []
    if not report.docs_dropped["valid"]:
        for i, n in dataset.valid.docs[0].counts.items():
            read += [dataset.vocab.tokens[i]] * n
    assert sorted(read) == sorted(_oracle_tokenize(line))
    return sorted(read)


class TestTokenize:
    def test_lowercase_and_punctuation(self, tmp_path):
        assert _tokens_read(tmp_path, "The cat sat.") == ["cat", "sat", "the"]

    def test_empty(self, tmp_path):
        assert _tokens_read(tmp_path, "") == []

    def test_case_folding_preserves_multiplicity(self, tmp_path):
        assert _tokens_read(tmp_path, "A a A") == ["a", "a", "a"]

    def test_interior_punctuation_kept(self, tmp_path):
        assert _tokens_read(tmp_path, "don't stop!") == ["don't", "stop"]

    def test_pure_punctuation_dropped(self, tmp_path):
        assert _tokens_read(tmp_path, "... --- !!!") == []


class TestBuildVocabulary:
    # a vocabulary needs at least 2 tokens, so each case keeps a second one
    def test_min_df_two(self, tmp_path):
        vocab = _vocabulary_of(tmp_path, [["a", "b", "x"], ["a", "c", "x"], ["x"]], min_df=2)
        assert vocab.tokens == ["x", "a"]
        assert vocab.doc_freq[1] == 2

    def test_lexicographic_tie_break(self, tmp_path):
        vocab = _vocabulary_of(tmp_path, [["a"], ["b"]], min_df=1)
        assert vocab.tokens == ["a", "b"]

    def test_all_pruned(self, tmp_path):
        with pytest.raises(cp.AllTokensPruned):
            _vocabulary_of(tmp_path, [["a"], ["b"]], min_df=3)

    def test_ordered_by_descending_doc_freq(self, tmp_path):
        docs = [["x", "y"], ["y"], ["y", "x"], ["x"], ["x"]]
        vocab = _vocabulary_of(tmp_path, docs, min_df=1)
        assert vocab.tokens == ["x", "y"]
        assert list(vocab.doc_freq) == [4, 3]

    def test_df_counts_documents_not_tokens(self, tmp_path):
        vocab = _vocabulary_of(tmp_path, [["a", "a", "a", "b"]], min_df=1)
        assert vocab.tokens[0] == "a"
        assert vocab.doc_freq[0] == 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6), min_size=1, max_size=12),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_pruning_monotonicity(tmp_path_factory, docs, df1, df2):
    lo, hi = sorted((df1, df2))
    tmp_path = tmp_path_factory.mktemp("prune")
    try:
        big = set(_vocabulary_of(tmp_path, docs, lo).tokens)
    except cp.AllTokensPruned:
        big = set()
    try:
        small = set(_vocabulary_of(tmp_path, docs, hi).tokens)
    except cp.AllTokensPruned:
        small = set()
    assert small <= big


class TestVectorize:
    # the vocabulary is ["a", "b"]
    TRAIN = [["a", "b"], ["a", "b"]]

    def test_counts(self, tmp_path):
        dataset, _ = _valid_split(tmp_path, [["a", "a", "b"]], self.TRAIN)
        doc = dataset.valid.docs[0]
        assert doc.counts == {0: 2, 1: 1}
        assert doc.total == 3

    def test_fully_oov_dropped(self, tmp_path):
        dataset, report = _valid_split(tmp_path, [["z"], ["b"]], self.TRAIN)
        assert report.docs_dropped["valid"] == 1
        assert list(dataset.valid.docs) == [cp.BowDocument({1: 1}, 1)]
        with pytest.raises(cp.EmptySplit, match="split 'valid'"):
            _valid_split(tmp_path, [["z"]], self.TRAIN)

    def test_empty_dropped(self, tmp_path):
        dataset, report = _valid_split(tmp_path, [[], ["b"]], self.TRAIN)
        assert report.docs_dropped["valid"] == 1
        assert list(dataset.valid.docs) == [cp.BowDocument({1: 1}, 1)]
        with pytest.raises(cp.EmptySplit, match="split 'valid'"):
            _valid_split(tmp_path, [[]], self.TRAIN)

    def test_split_and_vocabulary_bound(self, tmp_path):
        dataset, _ = _valid_split(tmp_path, [["b"]], self.TRAIN)
        assert dataset.valid.split == "valid"
        assert dataset.valid.vocab_ref == dataset.vocab.ref_id


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from("abcz"), max_size=30))
def test_vectorize_roundtrip_counts(tmp_path_factory, tokens):
    in_vocab = sum(1 for t in tokens if t in "abc")
    tmp_path = tmp_path_factory.mktemp("roundtrip")
    try:
        dataset, _ = _valid_split(tmp_path, [tokens], [["a", "b", "c"]])
    except cp.EmptySplit:
        assert in_vocab == 0
    else:
        doc = dataset.valid.docs[0]
        assert doc.total == in_vocab
        assert all(n > 0 for n in doc.counts.values())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdz"), max_size=8), max_size=10))
def test_vectorize_matches_a_per_document_count(tmp_path_factory, token_docs):
    index_of = {"a": 0, "b": 1, "c": 2, "d": 3}
    expected = []
    for tokens in token_docs:
        counts: dict[int, int] = {}
        for tok in tokens:
            if tok in index_of:
                counts[index_of[tok]] = counts.get(index_of[tok], 0) + 1
        if counts:
            expected.append(cp.BowDocument(counts, sum(counts.values())))
    tmp_path = tmp_path_factory.mktemp("count")
    if not expected:
        with pytest.raises(cp.EmptySplit, match="split 'valid'"):
            _valid_split(tmp_path, token_docs, [["a", "b", "c", "d"]])
        return
    dataset, _ = _valid_split(tmp_path, token_docs, [["a", "b", "c", "d"]])
    assert dataset.vocab.tokens == list(index_of)
    corpus = dataset.valid
    assert list(corpus.docs) == expected
    # the CSR layout: every document nonempty, its ids ascending
    assert corpus.indptr[0] == 0 and (np.diff(corpus.indptr) > 0).all()
    for doc in corpus.docs:
        assert list(doc.counts) == sorted(doc.counts)


class TestIterBatches:
    def test_batches_cover_the_split_in_order(self):
        corpus = corpus_of([{i % 3: i + 1} for i in range(7)], "valid")
        batches = list(cp.iter_batches(corpus, 3, 3, np.float64))
        assert [b.shape for b in batches] == [(3, 3), (3, 3), (1, 3)]
        whole = cp.dense_counts(corpus, range(7), 3, np.float64)
        np.testing.assert_array_equal(
            np.concatenate([b.x_norm.toarray() for b in batches]), whole.x_norm.toarray()
        )
        np.testing.assert_array_equal(np.concatenate([b.counts for b in batches]), whole.counts)

    def test_empty_split_yields_nothing(self):
        assert list(cp.iter_batches(corpus_of([], "test"), 4, 2, np.float64)) == []


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.dictionaries(st.integers(0, 7), st.integers(1, 9), max_size=8), max_size=10),
    st.data(),
)
def test_dense_counts_matches_per_token_loop(maps, data):
    corpus = corpus_of(maps)
    indices = data.draw(st.lists(st.integers(0, len(maps) - 1), max_size=12)) if maps else []
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    expected = np.zeros((len(indices), 8))
    for row, i in enumerate(indices):
        for idx, n in maps[i].items():
            for _ in range(n):
                expected[row, idx] += 1.0
    totals = expected.sum(axis=1, keepdims=True)
    if (totals == 0).any():
        with pytest.raises(ValueError, match="^forward_batch: a document row has zero tokens$"):
            cp.dense_counts(corpus, indices, 8, dtype)
        return
    got = cp.dense_counts(corpus, indices, 8, dtype)
    assert got.shape == expected.shape
    assert got.x_norm.format == "csc" and got.x_norm.dtype == dtype
    assert got.x_norm.toarray().tobytes() == (expected / totals).astype(dtype).tobytes()
    rows, cols = np.nonzero(expected)
    np.testing.assert_array_equal(got.rows, rows)
    np.testing.assert_array_equal(got.cols, cols)
    np.testing.assert_array_equal(got.counts, expected[rows, cols])


class TestBowCorpus:
    DOCS = [cp.BowDocument({4: 1, 0: 2}, 3), cp.BowDocument({2: 5}, 5)]

    def test_stored_as_sorted_csr(self):
        corpus = corpus_of([{4: 1, 0: 2}, {2: 5}])
        np.testing.assert_array_equal(corpus.indptr, [0, 2, 3])
        np.testing.assert_array_equal(corpus.ids, [0, 4, 2])
        np.testing.assert_array_equal(corpus.counts, [2, 1, 5])
        assert len(corpus) == 2
        assert corpus.total_tokens() == 8

    def test_docs_view_yields_documents(self):
        corpus = corpus_of([{4: 1, 0: 2}, {2: 5}])
        assert list(corpus.docs) == self.DOCS
        assert corpus.docs[-1] == self.DOCS[1]
        assert corpus.docs[np.int64(0)] == self.DOCS[0]
        assert corpus.docs[:1] == self.DOCS[:1]
        with pytest.raises(IndexError):
            corpus.docs[2]

    def test_arrays_are_read_only(self):
        ids = np.array([1, 3])
        corpus = cp.BowCorpus("train", np.array([0, 2]), ids, np.array([1, 1]), "ref")
        with pytest.raises(ValueError):
            corpus.ids[0] = 2
        # the caller's array stays writable
        ids[0] = 0


class TestTake:
    CORPUS = corpus_of([{0: 1}, {1: 2, 3: 1}, {2: 4}], "all", "v1")

    def test_rows_in_the_given_order(self):
        got = self.CORPUS.take([2, 0, 1])
        assert [d.counts for d in got.docs] == [{2: 4}, {0: 1}, {1: 2, 3: 1}]
        np.testing.assert_array_equal(got.indptr, [0, 1, 2, 4])
        np.testing.assert_array_equal(got.ids, [2, 0, 1, 3])
        np.testing.assert_array_equal(got.counts, [4, 1, 2, 1])

    def test_repeats_and_empty(self):
        got = self.CORPUS.take([1, 1])
        assert [d.counts for d in got.docs] == [{1: 2, 3: 1}] * 2
        assert len(self.CORPUS.take([])) == 0
        assert self.CORPUS.take([]).total_tokens() == 0

    def test_split_name_and_vocabulary(self):
        assert self.CORPUS.take([0]).split == "all"
        got = self.CORPUS.take([0], "valid")
        assert (got.split, got.vocab_ref) == ("valid", "v1")

    def test_result_is_read_only(self):
        with pytest.raises(ValueError):
            self.CORPUS.take([1]).counts[0] = 9


def _docs(n):
    """n documents told apart by their count (and total) alone."""
    return corpus_of([{0: i + 1} for i in range(n)], "all", "x")


class TestSplitCorpus:
    def test_exact_fractions(self):
        train, valid, test = cp.split_corpus(_docs(10), (0.8, 0.1, 0.1), 7)
        assert (len(train), len(valid), len(test)) == (8, 1, 1)

    def test_rounding_within_one(self):
        train, valid, test = cp.split_corpus(_docs(3), (0.34, 0.33, 0.33), 0)
        assert (len(train), len(valid), len(test)) == (1, 1, 1)

    def test_empty_split(self):
        with pytest.raises(cp.EmptySplit):
            cp.split_corpus(_docs(2), (0.8, 0.1, 0.1), 0)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            cp.split_corpus(_docs(10), (0.5, 0.4, 0.2), 0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="split_seed"):
            cp.split_corpus(_docs(10), (0.8, 0.1, 0.1), -1)

    def test_same_seed_reproducible(self):
        corpus = _docs(20)
        a = cp.split_corpus(corpus, (0.6, 0.2, 0.2), 13)
        b = cp.split_corpus(corpus, (0.6, 0.2, 0.2), 13)
        for s1, s2 in zip(a, b):
            assert [d.total for d in s1.docs] == [d.total for d in s2.docs]

    def test_disjoint_and_exhaustive(self):
        corpus = _docs(23)
        splits = cp.split_corpus(corpus, (0.5, 0.25, 0.25), 4)
        seen = [d.total for s in splits for d in s.docs]
        assert sorted(seen) == [d.total for d in corpus.docs]

    def test_rows_follow_the_seeded_permutation(self):
        splits = cp.split_corpus(_docs(10), (0.6, 0.2, 0.2), 5)
        perm = np.random.default_rng(5).permutation(10)
        assert [d.total for s in splits for d in s.docs] == list(perm + 1)

    def test_splits_named_and_bound(self):
        splits = cp.split_corpus(_docs(10), (0.6, 0.2, 0.2), 1)
        assert [s.split for s in splits] == ["train", "valid", "test"]
        assert {s.vocab_ref for s in splits} == {"x"}


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 60), st.integers(0, 2 ** 31))
def test_split_sizes_within_one_of_exact(n, seed):
    fractions = (0.6, 0.2, 0.2)
    try:
        splits = cp.split_corpus(_docs(n), fractions, seed)
    except cp.EmptySplit:
        return
    for s, f in zip(splits, fractions):
        assert abs(len(s) - n * f) <= 1.0


class TestFileFormats:
    def test_vocabulary_tsv_roundtrip(self, tmp_path):
        vocab = cp.Vocabulary(["b", "a"], np.array([2, 1]))
        path = tmp_path / "vocab.tsv"
        cp.write_vocabulary(vocab, path)
        loaded = cp.read_vocabulary(path)
        assert loaded.tokens == ["b", "a"]
        assert (loaded.doc_freq == vocab.doc_freq).all()
        assert loaded.ref_id == vocab.ref_id

    def test_cache_roundtrip(self, tmp_path):
        vocab = cp.Vocabulary(["a", "b", "c"], np.ones(3, dtype=np.int64))
        maps = [{0: 2, 2: 1}, {1: 7}]
        corpus = corpus_of(maps, vocab_ref=vocab.ref_id)
        path = tmp_path / "train.corpus"
        cp.write_corpus_cache(corpus, vocab.V, path)
        loaded = cp.read_corpus_cache(path, "train", vocab)
        assert [d.counts for d in loaded.docs] == maps
        assert [d.total for d in loaded.docs] == [3, 7]

    def test_cache_bitwise_deterministic(self, tmp_path):
        vocab = cp.Vocabulary(["a", "b"], np.ones(2, dtype=np.int64))
        corpus = corpus_of([{1: 4, 0: 1}], vocab_ref=vocab.ref_id)
        p1, p2 = tmp_path / "one.corpus", tmp_path / "two.corpus"
        cp.write_corpus_cache(corpus, vocab.V, p1)
        cp.write_corpus_cache(corpus, vocab.V, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_cache_bad_magic(self, tmp_path):
        path = tmp_path / "bad.corpus"
        path.write_bytes(b"NOTACORP" + b"\x00" * 16)
        vocab = cp.Vocabulary(["a"], np.ones(1, dtype=np.int64))
        with pytest.raises(cp.CacheFormatError, match="magic"):
            cp.read_corpus_cache(path, "train", vocab)

    def test_cache_truncated(self, tmp_path):
        vocab = cp.Vocabulary(["a", "b"], np.ones(2, dtype=np.int64))
        corpus = corpus_of([{0: 1, 1: 2}], vocab_ref=vocab.ref_id)
        path = tmp_path / "train.corpus"
        cp.write_corpus_cache(corpus, vocab.V, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(cp.CacheFormatError):
            cp.read_corpus_cache(path, "train", vocab)


def _cache_bytes(V, docs):
    """A cache file built field by field: docs is a list of (id, count) lists."""
    pairs = [pair for doc in docs for pair in doc]
    return (
        cp.CACHE_MAGIC
        + struct.pack("<III", cp.CACHE_VERSION, V, len(docs))
        + struct.pack(f"<{len(docs)}I", *map(len, docs))
        + struct.pack(f"<{len(pairs)}I", *(w for w, _ in pairs))
        + struct.pack(f"<{len(pairs)}I", *(n for _, n in pairs))
    )


class TestCacheValidation:
    VOCAB = cp.Vocabulary(["a", "b", "c"], np.ones(3, dtype=np.int64))

    def _read(self, tmp_path, docs):
        path = tmp_path / "train.corpus"
        path.write_bytes(_cache_bytes(self.VOCAB.V, docs))
        return cp.read_corpus_cache(path, "train", self.VOCAB)

    def test_well_formed_cache_loads(self, tmp_path):
        loaded = self._read(tmp_path, [[(0, 1), (2, 3)], [(1, 1)]])
        assert [d.counts for d in loaded.docs] == [{0: 1, 2: 3}, {1: 1}]

    def test_word_id_at_vocabulary_size(self, tmp_path):
        with pytest.raises(cp.CacheFormatError, match="word id 3"):
            self._read(tmp_path, [[(0, 1)], [(1, 1), (3, 1)]])

    def test_zero_count(self, tmp_path):
        with pytest.raises(cp.CacheFormatError, match="zero count"):
            self._read(tmp_path, [[(0, 1), (1, 0)]])

    def test_unsorted_ids(self, tmp_path):
        with pytest.raises(cp.CacheFormatError, match="unsorted or duplicate"):
            self._read(tmp_path, [[(0, 1)], [(2, 1), (1, 1)]])

    def test_duplicate_ids(self, tmp_path):
        with pytest.raises(cp.CacheFormatError, match="unsorted or duplicate"):
            self._read(tmp_path, [[(1, 1), (1, 2)]])

    def test_document_without_pairs(self, tmp_path):
        with pytest.raises(cp.CacheFormatError, match="no \\(id, count\\) pairs"):
            self._read(tmp_path, [[(0, 1)], []])

    def test_no_documents(self, tmp_path):
        with pytest.raises(cp.CacheFormatError, match="no documents"):
            self._read(tmp_path, [])

    def test_version_1_is_refused_with_a_re_ingest_hint(self, tmp_path):
        # a version-1 file: per document a pair count, then its (id, count) pairs
        path = tmp_path / "train.corpus"
        path.write_bytes(cp.CACHE_MAGIC + struct.pack("<IIIIII", 1, self.VOCAB.V, 1, 1, 0, 1))
        with pytest.raises(cp.CacheFormatError, match="cache version 1, .*re-run diffetm ingest"):
            cp.read_corpus_cache(path, "train", self.VOCAB)

    @pytest.mark.parametrize("edit,named", [
        (lambda body: body[:-4], "truncated"),
        (lambda body: body + struct.pack("<I", 1), "4 trailing bytes"),
    ], ids=["one_word_short", "one_word_long"])
    def test_body_one_word_short_or_long(self, tmp_path, edit, named):
        path = tmp_path / "train.corpus"
        path.write_bytes(edit(_cache_bytes(self.VOCAB.V, [[(0, 1), (2, 3)], [(1, 1)]])))
        with pytest.raises(cp.CacheFormatError, match=named):
            cp.read_corpus_cache(path, "train", self.VOCAB)

    def test_writer_matches_the_field_by_field_format(self, tmp_path):
        corpus = corpus_of([{2: 1, 0: 4}, {1: 7}], vocab_ref=self.VOCAB.ref_id)
        path = tmp_path / "train.corpus"
        cp.write_corpus_cache(corpus, self.VOCAB.V, path)
        assert path.read_bytes() == _cache_bytes(self.VOCAB.V, [[(0, 4), (2, 1)], [(1, 7)]])


_VALID_CACHE = _cache_bytes(5, [[(0, 2), (3, 1)], [(1, 1)], [(0, 1), (2, 4), (4, 9)]])
_FUZZ_VOCAB = cp.Vocabulary(["a", "b", "c", "d", "e"], np.ones(5, dtype=np.int64))


def _load_or_reject(tmp_path, data):
    """Load data as a cache: it either raises CacheFormatError or gives a
    corpus that meets every check of the reader."""
    path = tmp_path / "fuzz.corpus"
    path.write_bytes(data)
    try:
        corpus = cp.read_corpus_cache(path, "train", _FUZZ_VOCAB)
    except cp.CacheFormatError:
        return
    lengths = np.diff(corpus.indptr)
    assert corpus.indptr[0] == 0 and (lengths >= 1).all()
    assert ((corpus.ids >= 0) & (corpus.ids < _FUZZ_VOCAB.V)).all()
    assert (corpus.counts > 0).all()
    for doc in corpus.docs:
        assert list(doc.counts) == sorted(set(doc.counts))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(_VALID_CACHE) - 1))
def test_truncated_cache_is_rejected(tmp_path_factory, cut):
    _load_or_reject(tmp_path_factory.mktemp("fuzz"), _VALID_CACHE[:cut])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(_VALID_CACHE) - 1), st.integers(1, 255))
def test_byte_flip_is_rejected_or_loads_a_valid_corpus(tmp_path_factory, at, mask):
    data = bytearray(_VALID_CACHE)
    data[at] ^= mask
    _load_or_reject(tmp_path_factory.mktemp("fuzz"), bytes(data))


class TestIngest:
    def test_presplit_builds_vocab_on_train(self, tmp_path):
        train = _write(tmp_path, "train.txt", ["apple banana", "apple cherry", "banana?"])
        valid = _write(tmp_path, "valid.txt", ["apple durian"])
        test = _write(tmp_path, "test.txt", ["banana apple"])
        dataset, report = cp.ingest_presplit(train, valid, test, min_df=2)
        assert set(dataset.vocab.tokens) == {"apple", "banana"}
        # durian is out of vocabulary but the document survives on "apple"
        assert len(dataset.valid) == 1
        assert report.vocab_size == 2

    def test_presplit_drops_oov_documents(self, tmp_path):
        train = _write(tmp_path, "train.txt", ["aa bb", "aa bb"])
        valid = _write(tmp_path, "valid.txt", ["zz", "aa"])
        test = _write(tmp_path, "test.txt", ["bb"])
        dataset, report = cp.ingest_presplit(train, valid, test, min_df=1)
        assert report.docs_dropped["valid"] == 1
        assert len(dataset.valid) == 1

    def test_stopwords_removed(self, tmp_path):
        train = _write(tmp_path, "train.txt", ["the cat", "the dog"])
        valid = _write(tmp_path, "valid.txt", ["the cat"])
        test = _write(tmp_path, "test.txt", ["the dog"])
        stops = _write(tmp_path, "stops.txt", ["the"])
        dataset, _ = cp.ingest_presplit(train, valid, test, min_df=1, stopword_path=stops)
        assert dataset.vocab.tokens == ["cat", "dog"]

    def test_stopwords_are_normalized_like_tokens(self, tmp_path):
        train = _write(tmp_path, "train.txt", ["The cat, and a dog.", "the (dog) AND cat"])
        valid = _write(tmp_path, "valid.txt", ["the cat"])
        test = _write(tmp_path, "test.txt", ["the dog"])
        stops = _write(tmp_path, "stops.txt", ["The.", "  (AND)  ", "...", "", "a"])
        assert cp.load_stopwords(stops) == {"the", "and", "a"}
        dataset, _ = cp.ingest_presplit(train, valid, test, min_df=1, stopword_path=stops)
        assert set(dataset.vocab.tokens) == {"cat", "dog"}

    def test_one_surviving_token_is_refused(self, tmp_path):
        lines = ["alpha beta", "alpha gamma", "alpha delta", "alpha"]
        train = _write(tmp_path, "train.txt", lines)
        with pytest.raises(cp.AllTokensPruned, match="min_df=2 keeps 1 token"):
            cp.ingest_presplit(train, train, train, min_df=2)
        with pytest.raises(cp.AllTokensPruned, match="min_df=2 keeps 1 token"):
            cp.ingest_single(train, 2, (0.5, 0.25, 0.25), seed=0)

    def test_single_file_splits(self, tmp_path):
        lines = [f"tok{i % 4} tok{(i + 1) % 4}" for i in range(20)]
        path = _write(tmp_path, "all.txt", lines)
        dataset, report = cp.ingest_single(path, 1, (0.6, 0.2, 0.2), seed=2)
        assert len(dataset.train) == 12
        assert len(dataset.valid) == 4
        assert len(dataset.test) == 4
        assert dataset.train.vocab_ref == dataset.vocab.ref_id


# ---------------------------------------------------------------------------
# ingest against the token-list pipeline it replaced: every line tokenized
# into a list, document frequencies from Counter(set(doc)), then one count
# per document


def _oracle_tokenize(text):
    out = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            out.append(tok)
    return out


def _oracle_docs(path, stopwords):
    with open(path, encoding="utf-8") as fh:
        return [[t for t in _oracle_tokenize(line) if t not in stopwords] for line in fh]


def _oracle_vocabulary(token_docs, min_df):
    df = Counter()
    for doc in token_docs:
        df.update(set(doc))
    kept = sorted(((t, n) for t, n in df.items() if n >= min_df), key=lambda kv: (-kv[1], kv[0]))
    if not kept:
        raise cp.AllTokensPruned(f"min_df={min_df} prunes every token ({len(df)} candidates)")
    if len(kept) < 2:
        raise cp.AllTokensPruned(f"min_df={min_df} keeps {len(kept)} token(s); a vocabulary needs at least 2")
    return cp.Vocabulary([t for t, _ in kept], np.array([n for _, n in kept]))


def _oracle_corpus(token_docs, vocab, split):
    index_of = {t: i for i, t in enumerate(vocab.tokens)}
    maps = [Counter(index_of[t] for t in doc if t in index_of) for doc in token_docs]
    return corpus_of([m for m in maps if m], split, vocab.ref_id)


def _oracle_presplit(paths, min_df, stopwords):
    raw = {name: _oracle_docs(path, stopwords) for name, path in zip(cp.SPLITS, paths)}
    vocab = _oracle_vocabulary(raw["train"], min_df)
    splits = {}
    for name, docs in raw.items():
        splits[name] = _oracle_corpus(docs, vocab, name)
        if not len(splits[name]):
            raise cp.EmptySplit(f"split {name!r} has no usable documents")
    report = cp.IngestReport(
        vocab.V,
        {n: len(raw[n]) for n in cp.SPLITS},
        {n: len(splits[n]) for n in cp.SPLITS},
        {n: len(raw[n]) - len(splits[n]) for n in cp.SPLITS},
        {n: splits[n].total_tokens() for n in cp.SPLITS},
        min_df,
    )
    return cp.Dataset(vocab, **splits), report


def _oracle_single(path, min_df, fractions, seed, stopwords):
    docs = _oracle_docs(path, stopwords)
    vocab = _oracle_vocabulary(docs, min_df)
    corpus = _oracle_corpus(docs, vocab, "all")
    splits = dict(zip(cp.SPLITS, cp.split_corpus(corpus, fractions, seed)))
    report = cp.IngestReport(
        vocab.V,
        {"all": len(docs)},
        {n: len(splits[n]) for n in cp.SPLITS},
        {"all": len(docs) - len(corpus)},
        {n: splits[n].total_tokens() for n in cp.SPLITS},
        min_df,
    )
    return cp.Dataset(vocab, **splits), report


def _outcome(ingest, *args):
    """What an ingest gives, in a form two implementations can be compared in."""
    try:
        dataset, report = ingest(*args)
    except (cp.AllTokensPruned, cp.EmptySplit) as exc:
        return type(exc), str(exc)
    vocab = dataset.vocab
    splits = {
        name: (c.split, c.vocab_ref, c.indptr.tolist(), c.ids.tolist(), c.counts.tolist())
        for name in cp.SPLITS
        for c in [dataset.split(name)]
    }
    return vocab.tokens, vocab.doc_freq.dtype, vocab.doc_freq.tolist(), splits, report


def _write_bytes(path, text):
    path.write_bytes(text.encode("utf-8"))  # no newline translation on the way out
    return path


def _assert_ingests_like_the_oracle(tmp_path, train, valid, test, min_df, stopwords=()):
    paths = [_write_bytes(tmp_path / f"{n}.txt", t) for n, t in zip(cp.SPLITS, (train, valid, test))]
    stop_path = _write_bytes(tmp_path / "stop.txt", "".join(f"{w}\n" for w in stopwords))
    stop = cp.load_stopwords(stop_path)
    got = _outcome(cp.ingest_presplit, *paths, min_df, stop_path)
    assert got == _outcome(_oracle_presplit, paths, min_df, stop)
    whole = _write_bytes(tmp_path / "all.txt", train + "\n" + valid + "\n" + test)
    fractions = (0.5, 0.25, 0.25)
    single = _outcome(cp.ingest_single, whole, min_df, fractions, 3, stop_path)
    assert single == _outcome(_oracle_single, whole, min_df, fractions, 3, stop)
    return got


# the line breaks, blank lines, punctuation, case and whitespace a line reader
# and tokenizer can get wrong; the last line of train has no newline.  One
# token comes in two raw forms in two files ("Cat." in train, "cat" in test),
# and "The," strips to the stopword "the"
EDGE_TRAIN = (
    "The cat, don't stop.\r\n"
    "ΟΔΟΣ İstanbul STRASSE straße\r"
    "cat\xa0dog bird\x1cfish don't\n"
    "\n"
    "... --- !!!\n"
    "the and a The,\n"
    "ΟΔΟΣ οδος Σ cat-dog 'quoted' (cat)\r\n"
    "\r\n"
    "dog bird ß İ fish Cat."
)
EDGE_VALID = "zebra quux\r\nCAT dog\n\nthe\n"
EDGE_TEST = "fish\rbird cat\r"


class TestIngestMatchesTheTokenListPipeline:
    @pytest.mark.parametrize("min_df", [1, 2])
    def test_edge_cases_with_stopwords(self, tmp_path, min_df):
        got = _assert_ingests_like_the_oracle(
            tmp_path, EDGE_TRAIN, EDGE_VALID, EDGE_TEST, min_df, stopwords=["The", "and", "A."]
        )
        report = got[-1]
        # blank lines, the punctuation-only line and the all-stopword line still count as read
        assert report.docs_in == {"train": 9, "valid": 4, "test": 2}
        # the out-of-vocabulary-only, blank and all-stopword valid lines are dropped
        assert report.docs_dropped["valid"] == 3

    def test_edge_cases_without_stopwords(self, tmp_path):
        got = _assert_ingests_like_the_oracle(tmp_path, EDGE_TRAIN, EDGE_VALID, EDGE_TEST, 1)
        tokens = got[0]
        for tok in ("don't", "οδος", "i̇stanbul", "straße", "strasse", "ß", "cat-dog", "quoted", "the"):
            assert tok in tokens
        assert "σ" in tokens and "ς" not in tokens  # a lone capital sigma is not word-final

    def test_all_tokens_pruned(self, tmp_path):
        got = _assert_ingests_like_the_oracle(tmp_path, EDGE_TRAIN, EDGE_VALID, EDGE_TEST, 50)
        assert got == (cp.AllTokensPruned, "min_df=50 prunes every token (18 candidates)")

    def test_empty_split(self, tmp_path):
        got = _assert_ingests_like_the_oracle(
            tmp_path, EDGE_TRAIN, EDGE_VALID, "zebra\n\nthe a\n", 1, stopwords=["the", "a"]
        )
        assert got == (cp.EmptySplit, "split 'test' has no usable documents")


# "\x85" and "\u2028" split a line for str.splitlines but not for a file's
# line iterator; "\r" is a line end for the file, not for str.split("\n")
_LINE_ALPHABET = ["a", "b", "A", ".", ",", "'", "-", " ", "\t", "\xa0", "\r", "\x85", "\u2028", "Σ"]
_LINES = st.lists(st.text(alphabet=_LINE_ALPHABET, max_size=10), max_size=6)


@settings(max_examples=60, deadline=None)
@given(_LINES, _LINES, _LINES, st.integers(1, 3), st.sampled_from([(), ("a",), ("σ", "b-")]))
def test_ingest_of_random_lines_matches_the_token_list_pipeline(
    tmp_path_factory, train, valid, test, min_df, stopwords
):
    _assert_ingests_like_the_oracle(
        tmp_path_factory.mktemp("ingest"), *("\n".join(lines) for lines in (train, valid, test)),
        min_df, stopwords,
    )


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_ingest_of_any_text_matches_the_loop_it_replaced(tmp_path_factory, text):
    # the fixed lines keep two tokens and every split non-empty, so that the
    # outcome compared is the documents, not an error
    _assert_ingests_like_the_oracle(
        tmp_path_factory.mktemp("text"), text + "\nzz yy", text + "\nzz", text + "\nyy", 1
    )


class TestVocabularyValidation:
    HEADER = "token\tid\tdoc_freq\n"

    def _read(self, tmp_path, body, header=HEADER):
        path = tmp_path / "vocab.tsv"
        path.write_bytes((header + body).encode("utf-8"))
        return cp.read_vocabulary(path)

    def test_well_formed_vocabulary_loads(self, tmp_path):
        vocab = self._read(tmp_path, "b\t0\t3\na\t1\t0\n")
        assert vocab.tokens == ["b", "a"]
        assert list(vocab.doc_freq) == [3, 0]

    def test_is_a_value_error(self):
        assert issubclass(cp.VocabularyFormatError, ValueError)

    @pytest.mark.parametrize("header", ["", "token\tid\n", "id\ttoken\tdoc_freq\n"])
    def test_bad_header(self, tmp_path, header):
        with pytest.raises(cp.VocabularyFormatError, match="header"):
            self._read(tmp_path, "a\t0\t1\n", header=header)

    @pytest.mark.parametrize("line", ["a\t0", "a\t0\t1\t2", "a 0 1", ""])
    def test_line_without_three_fields(self, tmp_path, line):
        with pytest.raises(cp.VocabularyFormatError, match=r"vocab.tsv:3: \d fields, expected 3"):
            self._read(tmp_path, f"z\t0\t1\n{line}\n")

    @pytest.mark.parametrize("idx", ["x", "1.0", "+0", "00", " 0"])
    def test_non_integer_id(self, tmp_path, idx):
        with pytest.raises(cp.VocabularyFormatError, match=f"id '{re.escape(idx)}', expected 0"):
            self._read(tmp_path, f"a\t{idx}\t1\n")

    @pytest.mark.parametrize("idx", ["2", "0", "-1"])
    def test_non_contiguous_id(self, tmp_path, idx):
        with pytest.raises(cp.VocabularyFormatError, match=f"vocab.tsv:3: id '{idx}', expected 1"):
            self._read(tmp_path, f"a\t0\t1\nb\t{idx}\t1\n")

    @pytest.mark.parametrize("df", ["1.5", "x", "", "٣"])
    def test_non_integer_doc_freq(self, tmp_path, df):
        with pytest.raises(cp.VocabularyFormatError, match="is not an integer >= 0"):
            self._read(tmp_path, f"a\t0\t{df}\n")

    def test_negative_doc_freq(self, tmp_path):
        with pytest.raises(cp.VocabularyFormatError, match="doc_freq '-1' is not an integer >= 0"):
            self._read(tmp_path, "a\t0\t-1\n")

    def test_empty_token(self, tmp_path):
        with pytest.raises(cp.VocabularyFormatError, match="vocab.tsv:2: empty token"):
            self._read(tmp_path, "\t0\t1\n")

    def test_duplicate_token(self, tmp_path):
        with pytest.raises(cp.VocabularyFormatError, match="vocab.tsv:3: duplicate token 'a'"):
            self._read(tmp_path, "a\t0\t2\na\t1\t1\n")

    @pytest.mark.parametrize("body,n", [("a\t0\t1\n", 1), ("", 0)])
    def test_fewer_than_two_tokens(self, tmp_path, body, n):
        with pytest.raises(cp.VocabularyFormatError, match=f"vocab.tsv: holds {n} token"):
            self._read(tmp_path, body)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_bytes(self.HEADER.encode() + b"\xff\t0\t1\n")
        with pytest.raises(cp.VocabularyFormatError, match="UTF-8"):
            cp.read_vocabulary(path)
