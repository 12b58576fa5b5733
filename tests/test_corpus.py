import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffetm import corpus as cp


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert cp.tokenize_line("The cat sat.") == ["the", "cat", "sat"]

    def test_empty(self):
        assert cp.tokenize_line("") == []

    def test_case_folding_preserves_multiplicity(self):
        assert cp.tokenize_line("A a A") == ["a", "a", "a"]

    def test_interior_punctuation_kept(self):
        assert cp.tokenize_line("don't stop!") == ["don't", "stop"]

    def test_pure_punctuation_dropped(self):
        assert cp.tokenize_line("... --- !!!") == []


class TestBuildVocabulary:
    def test_min_df_two(self):
        vocab = cp.build_vocabulary([["a", "b"], ["a", "c"]], min_df=2)
        assert vocab.tokens == ["a"]
        assert vocab.doc_freq[0] == 2

    def test_lexicographic_tie_break(self):
        vocab = cp.build_vocabulary([["a"], ["b"]], min_df=1)
        assert vocab.tokens == ["a", "b"]
        assert vocab.index_of == {"a": 0, "b": 1}

    def test_all_pruned(self):
        with pytest.raises(cp.AllTokensPruned):
            cp.build_vocabulary([["a"], ["b"]], min_df=3)

    def test_ordered_by_descending_doc_freq(self):
        docs = [["x", "y"], ["y"], ["y", "x"], ["x"], ["x"]]
        vocab = cp.build_vocabulary(docs, min_df=1)
        assert vocab.tokens == ["x", "y"]
        assert list(vocab.doc_freq) == [4, 3]

    def test_df_counts_documents_not_tokens(self):
        vocab = cp.build_vocabulary([["a", "a", "a"]], min_df=1)
        assert vocab.doc_freq[0] == 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6), min_size=1, max_size=12),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_pruning_monotonicity(docs, df1, df2):
    lo, hi = sorted((df1, df2))
    try:
        big = set(cp.build_vocabulary(docs, lo).tokens)
    except cp.AllTokensPruned:
        big = set()
    try:
        small = set(cp.build_vocabulary(docs, hi).tokens)
    except cp.AllTokensPruned:
        small = set()
    assert small <= big


class TestVectorize:
    VOCAB = cp.build_vocabulary([["a", "b"], ["a", "b"]], min_df=1)

    def test_counts(self):
        doc = cp.vectorize(["a", "a", "b"], self.VOCAB)
        assert doc.counts == {0: 2, 1: 1}
        assert doc.total == 3

    def test_fully_oov_dropped(self):
        assert cp.vectorize(["z"], self.VOCAB) is None

    def test_empty_dropped(self):
        assert cp.vectorize([], self.VOCAB) is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from("abcz"), max_size=30))
def test_vectorize_roundtrip_counts(tokens):
    vocab = cp.build_vocabulary([["a", "b", "c"]], min_df=1)
    in_vocab = sum(1 for t in tokens if t in vocab.index_of)
    doc = cp.vectorize(tokens, vocab)
    if doc is None:
        assert in_vocab == 0
    else:
        assert doc.total == in_vocab
        assert all(n > 0 for n in doc.counts.values())


class TestIterBatches:
    def test_batches_cover_the_split_in_order(self):
        docs = [cp.BowDocument({i % 3: i + 1}, i + 1) for i in range(7)]
        corpus = cp.BowCorpus("valid", docs, "ref")
        batches = list(cp.iter_batches(corpus, 3, 3))
        assert [b.shape for b in batches] == [(3, 3), (3, 3), (1, 3)]
        np.testing.assert_array_equal(
            np.concatenate(batches), cp.dense_counts(corpus, range(7), 3)
        )

    def test_empty_split_yields_nothing(self):
        assert list(cp.iter_batches(cp.BowCorpus("test", [], "ref"), 4, 2)) == []


def _docs(n):
    return [cp.BowDocument({0: i + 1}, i + 1) for i in range(n)]


class TestSplitCorpus:
    def test_exact_fractions(self):
        train, valid, test = cp.split_corpus(_docs(10), (0.8, 0.1, 0.1), 7, "x")
        assert (len(train), len(valid), len(test)) == (8, 1, 1)

    def test_rounding_within_one(self):
        train, valid, test = cp.split_corpus(_docs(3), (0.34, 0.33, 0.33), 0, "x")
        assert (len(train), len(valid), len(test)) == (1, 1, 1)

    def test_empty_split(self):
        with pytest.raises(cp.EmptySplit):
            cp.split_corpus(_docs(2), (0.8, 0.1, 0.1), 0, "x")

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            cp.split_corpus(_docs(10), (0.5, 0.4, 0.2), 0, "x")

    def test_same_seed_reproducible(self):
        docs = _docs(20)
        a = cp.split_corpus(docs, (0.6, 0.2, 0.2), 13, "x")
        b = cp.split_corpus(docs, (0.6, 0.2, 0.2), 13, "x")
        for s1, s2 in zip(a, b):
            assert [id(d) for d in s1.docs] == [id(d) for d in s2.docs]

    def test_disjoint_and_exhaustive(self):
        docs = _docs(23)
        splits = cp.split_corpus(docs, (0.5, 0.25, 0.25), 4, "x")
        seen = [id(d) for s in splits for d in s.docs]
        assert sorted(seen) == sorted(id(d) for d in docs)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 60), st.integers(0, 2 ** 31))
def test_split_sizes_within_one_of_exact(n, seed):
    fractions = (0.6, 0.2, 0.2)
    try:
        splits = cp.split_corpus(_docs(n), fractions, seed, "x")
    except cp.EmptySplit:
        return
    for s, f in zip(splits, fractions):
        assert abs(len(s) - n * f) <= 1.0


class TestFileFormats:
    def test_vocabulary_tsv_roundtrip(self, tmp_path):
        vocab = cp.build_vocabulary([["b", "a"], ["b"]], min_df=1)
        path = tmp_path / "vocab.tsv"
        cp.write_vocabulary(vocab, path)
        loaded = cp.read_vocabulary(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.index_of == vocab.index_of
        assert (loaded.doc_freq == vocab.doc_freq).all()
        assert loaded.ref_id == vocab.ref_id

    def test_cache_roundtrip(self, tmp_path):
        vocab = cp.build_vocabulary([["a", "b", "c"]], min_df=1)
        docs = [cp.BowDocument({0: 2, 2: 1}, 3), cp.BowDocument({1: 7}, 7)]
        corpus = cp.BowCorpus("train", docs, vocab.ref_id)
        path = tmp_path / "train.corpus"
        cp.write_corpus_cache(corpus, vocab.V, path)
        loaded = cp.read_corpus_cache(path, "train", vocab)
        assert [d.counts for d in loaded.docs] == [d.counts for d in docs]
        assert [d.total for d in loaded.docs] == [3, 7]

    def test_cache_bitwise_deterministic(self, tmp_path):
        vocab = cp.build_vocabulary([["a", "b"]], min_df=1)
        corpus = cp.BowCorpus("train", [cp.BowDocument({1: 4, 0: 1}, 5)], vocab.ref_id)
        p1, p2 = tmp_path / "one.corpus", tmp_path / "two.corpus"
        cp.write_corpus_cache(corpus, vocab.V, p1)
        cp.write_corpus_cache(corpus, vocab.V, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_cache_bad_magic(self, tmp_path):
        path = tmp_path / "bad.corpus"
        path.write_bytes(b"NOTACORP" + b"\x00" * 16)
        vocab = cp.build_vocabulary([["a"]], min_df=1)
        with pytest.raises(cp.CacheFormatError, match="magic"):
            cp.read_corpus_cache(path, "train", vocab)

    def test_cache_truncated(self, tmp_path):
        vocab = cp.build_vocabulary([["a", "b"]], min_df=1)
        corpus = cp.BowCorpus("train", [cp.BowDocument({0: 1, 1: 2}, 3)], vocab.ref_id)
        path = tmp_path / "train.corpus"
        cp.write_corpus_cache(corpus, vocab.V, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(cp.CacheFormatError):
            cp.read_corpus_cache(path, "train", vocab)


class TestIngest:
    def _write(self, tmp_path, name, lines):
        p = tmp_path / name
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p

    def test_presplit_builds_vocab_on_train(self, tmp_path):
        train = self._write(tmp_path, "train.txt", ["apple banana", "apple cherry", "banana?"])
        valid = self._write(tmp_path, "valid.txt", ["apple durian"])
        test = self._write(tmp_path, "test.txt", ["banana apple"])
        dataset, report = cp.ingest_presplit(train, valid, test, min_df=2)
        assert set(dataset.vocab.tokens) == {"apple", "banana"}
        # durian is out of vocabulary but the document survives on "apple"
        assert len(dataset.valid) == 1
        assert report.vocab_size == 2

    def test_presplit_drops_oov_documents(self, tmp_path):
        train = self._write(tmp_path, "train.txt", ["aa bb", "aa bb"])
        valid = self._write(tmp_path, "valid.txt", ["zz", "aa"])
        test = self._write(tmp_path, "test.txt", ["bb"])
        dataset, report = cp.ingest_presplit(train, valid, test, min_df=1)
        assert report.docs_dropped["valid"] == 1
        assert len(dataset.valid) == 1

    def test_stopwords_removed(self, tmp_path):
        train = self._write(tmp_path, "train.txt", ["the cat", "the dog"])
        valid = self._write(tmp_path, "valid.txt", ["the cat"])
        test = self._write(tmp_path, "test.txt", ["the dog"])
        stops = self._write(tmp_path, "stops.txt", ["the"])
        dataset, _ = cp.ingest_presplit(train, valid, test, min_df=1, stopword_path=stops)
        assert "the" not in dataset.vocab.index_of

    def test_single_file_splits(self, tmp_path):
        lines = [f"tok{i % 4} tok{(i + 1) % 4}" for i in range(20)]
        path = self._write(tmp_path, "all.txt", lines)
        dataset, report = cp.ingest_single(path, 1, (0.6, 0.2, 0.2), seed=2)
        assert len(dataset.train) == 12
        assert len(dataset.valid) == 4
        assert len(dataset.test) == 4
        assert dataset.train.vocab_ref == dataset.vocab.ref_id
