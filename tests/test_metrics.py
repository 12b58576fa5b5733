import math
import weakref
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import batch_of
from diffetm import metrics as mx
from diffetm.corpus import BowCorpus
from diffetm.model import MODES, init_params


def corpus_of(id_sets):
    """A corpus in which document d holds each word of id_sets[d] once."""
    rows = [sorted(set(ids)) for ids in id_sets]
    indptr = np.cumsum([0, *map(len, rows)])
    ids = [i for row in rows for i in row]
    return BowCorpus("train", indptr, ids, np.ones(len(ids), dtype=np.int64), "ref")


class TestTopWords:
    def test_descending_sort(self):
        beta = np.array([[0.1, 0.7, 0.2]])
        assert mx.top_words(beta, 2) == [[1, 2]]

    def test_uniform_ties_break_by_id(self):
        beta = np.full((1, 4), 0.25)
        assert mx.top_words(beta, 3) == [[0, 1, 2]]

    def test_n_larger_than_vocab_clamps(self):
        beta = np.array([[0.5, 0.3, 0.2]])
        assert mx.top_words(beta, 10) == [[0, 1, 2]]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            mx.top_words(np.array([[0.5, 0.5]]), -1)


def full_sort_top_words(beta, n):
    """The reference ranking: a full stable sort of each row of -beta."""
    return [[int(i) for i in np.argsort(-row, kind="stable")[:min(n, beta.shape[1])]] for row in beta]


# few distinct values, so that rows hold ties, signed zeros, infinities and NaN
TIED = st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5, 1.0, math.inf, -math.inf, math.nan])


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        st.sampled_from([np.float32, np.float64]),
        st.tuples(st.integers(1, 4), st.integers(1, 30)),
        elements=st.one_of(TIED, st.floats(width=32)),
    ),
    st.integers(0, 35),
)
def test_top_words_match_a_full_stable_sort(beta, n):
    assert mx.top_words(beta, n) == full_sort_top_words(beta, n)


class TestNpmi:
    def test_perfect_association(self):
        # both words in the same half of the documents
        stats = mx.build_cooccurrence(corpus_of([{0, 1}, {0, 1}, {2}, {2}]), 3)
        coh = mx.npmi_coherence([[0, 1]], stats)
        assert coh == pytest.approx(1.0)

    def test_perfect_association_stays_within_bounds(self):
        # log(p / p**2) / -log(p) rounds to 1 + 2**-52 at p = 5/8
        stats = mx.build_cooccurrence(corpus_of([set()] * 3 + [{0, 1}] * 5), 2)
        assert mx.npmi_coherence([[0, 1]], stats) == 1.0

    def test_independent_words(self):
        # p(0)=0.5, p(1)=0.5, p(0,1)=0.25 = p(0)p(1)
        stats = mx.build_cooccurrence(corpus_of([{0, 1}, {0}, {1}, set()]), 2)
        # an all-empty document still counts toward N
        assert mx.npmi_coherence([[0, 1]], stats) == pytest.approx(0.0)

    def test_four_document_hand_count(self):
        # docs {ab, ab, a, b}: p_a = p_b = 0.75, p_ab = 0.5
        stats = mx.build_cooccurrence(corpus_of([{0, 1}, {0, 1}, {0}, {1}]), 2)
        expected = math.log(0.5 / 0.5625) / (-math.log(0.5))
        assert mx.npmi_coherence([[0, 1]], stats) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.1699, abs=1e-4)

    def test_never_cooccurring_pair_scores_minus_one(self):
        stats = mx.build_cooccurrence(corpus_of([{0}, {1}]), 2)
        assert mx.npmi_coherence([[0, 1]], stats) == -1.0

    def test_always_present_pair_scores_zero(self):
        stats = mx.build_cooccurrence(corpus_of([{0, 1}, {0, 1}]), 2)
        assert mx.npmi_coherence([[0, 1]], stats) == 0.0

    def test_vocabulary_mismatch(self):
        stats = mx.build_cooccurrence(corpus_of([{0}]), 1)
        # V = 1, so -1 and 1 are the nearest ids outside on either side
        for bad in (5, -1, 1):
            with pytest.raises(mx.VocabularyMismatch, match=f"word id {bad} "):
                mx.npmi_coherence([[0, bad]], stats)

    def test_joint_bounded_by_marginals(self):
        stats = mx.build_cooccurrence(corpus_of([{0, 1}, {0}, {0, 1}, {1}, {0}]), 2)
        doc_freq = np.diff(stats.indptr)
        joint = mx.joint_counts(stats, [0, 1])
        assert joint[0, 1] <= min(doc_freq[0], doc_freq[1])
        assert joint[0, 1] == mx.joint_counts(stats, [1, 0])[1, 0]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sets(st.integers(0, 5)), min_size=1, max_size=12),
    st.lists(st.integers(0, 5), min_size=2, max_size=4, unique=True),
)
def test_npmi_values_bounded(id_sets, words):
    stats = mx.build_cooccurrence(corpus_of(id_sets), 6)
    coh = mx.npmi_coherence([words], stats)
    assert -1.0 <= coh <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.integers(0, 7)), max_size=12))
def test_postings_match_the_per_document_loop(id_sets):
    stats = mx.build_cooccurrence(corpus_of(id_sets), 8)
    assert stats.shape == (len(id_sets), 8)
    doc_freq = np.diff(stats.indptr)
    joint = mx.joint_counts(stats, list(range(8)))
    for w in range(8):
        expected = [d for d, ids in enumerate(id_sets) if w in ids]
        assert doc_freq[w] == len(expected)
        assert stats.indices[stats.indptr[w]:stats.indptr[w + 1]].tolist() == expected
        for w2 in range(8):
            both = sum(1 for ids in id_sets if w in ids and w2 in ids)
            assert joint[w, w2] == both


def intersect_coherence(id_sets, vocab_size, topics):
    """The coherence from sorted posting lists and one np.intersect1d per
    pair, the way joint counts were once taken."""
    n = len(id_sets)
    postings = [np.array([d for d, ids in enumerate(id_sets) if w in ids], dtype=np.int64)
                for w in range(vocab_size)]
    doc_freq = np.array([len(p) for p in postings], dtype=np.int64)
    per_topic = []
    for words in topics:
        scores = []
        for w1, w2 in combinations(words, 2):
            joint = int(np.intersect1d(postings[w1], postings[w2], assume_unique=True).size)
            scores.append(mx.npmi_pair(doc_freq[w1] / n, doc_freq[w2] / n, joint / n))
        per_topic.append(sum(scores) / len(scores))
    return float(sum(per_topic) / len(per_topic))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sets(st.integers(0, 9)), min_size=1, max_size=30),
    # repeated words within a topic included
    st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=10), min_size=1, max_size=5),
)
def test_coherence_matches_the_intersect_formula_bit_for_bit(id_sets, topics):
    stats = mx.build_cooccurrence(corpus_of(id_sets), 10)
    got = mx.npmi_coherence(topics, stats)
    assert got.hex() == intersect_coherence(id_sets, 10, topics).hex()


def test_cooccurrence_rejects_ids_outside_the_vocabulary():
    for bad in (3, 7, -1):
        with pytest.raises(mx.VocabularyMismatch, match=f"word id {bad} "):
            mx.build_cooccurrence(corpus_of([{0, 1}, {bad, 2}]), 3)


def test_out_of_range_ids_are_refused_before_scipy_sees_them(monkeypatch):
    class NoScipy:
        def __getattr__(self, name):
            raise AssertionError(f"scipy.sparse.{name} called on an unchecked corpus")

    monkeypatch.setattr(mx, "sparse", NoScipy())
    with pytest.raises(mx.VocabularyMismatch):
        mx.build_cooccurrence(corpus_of([{0, 1}, {5}]), 3)


class TestDiversity:
    def test_disjoint_lists(self):
        topics = [list(range(25)), list(range(25, 50))]
        assert mx.topic_diversity(topics) == 1.0

    def test_identical_lists(self):
        topics = [list(range(25)), list(range(25))]
        assert mx.topic_diversity(topics) == 0.5

    def test_single_topic_always_one(self):
        assert mx.topic_diversity([list(range(25))]) == 1.0
        assert mx.topic_diversity([[3, 1, 4]]) == 1.0

    def test_equals_one_iff_disjoint(self):
        assert mx.topic_diversity([[0, 1], [2, 3]]) == 1.0
        assert mx.topic_diversity([[0, 1], [1, 2]]) < 1.0


class TestQuality:
    def test_reference_spot_values(self):
        q = mx.topic_quality(0.2003, 0.7504)
        assert q == pytest.approx(0.2003 * 0.7504, abs=1e-12)
        assert round(q, 4) == 0.1503
        q2 = mx.topic_quality(0.1865, 0.4864)
        assert round(q2, 4) == 0.0907

    def test_absorbing_zero(self):
        assert mx.topic_quality(0.73, 0.0) == 0.0


def zero_store(config, v):
    store = init_params(config, v, np.random.default_rng(0))
    for _, t in store.items():
        t.data[:] = 0.0
    return store


def double_loop_perplexity(store, config, split, v):
    """exp(-sum(X log X') / sum(X)) one entry at a time, in float64."""
    from diffetm.model import predict_batch, store_dtype

    x = dense_of(split, v)
    *_, x_prime = predict_batch(batch_of(x, store_dtype(store)), store, config)
    num = 0.0
    den = 0.0
    for d in range(x.shape[0]):
        for j in range(v):
            num -= x[d, j] * math.log(x_prime[d, j])
            den += x[d, j]
    return math.exp(num / den)


class TestPerplexity:
    def test_zero_logit_model_gives_v(self, tiny_dataset, tiny_config, as_float64):
        v = tiny_dataset.vocab.V
        store = as_float64(zero_store(tiny_config, v))
        ppl = mx.perplexity(store, tiny_config, tiny_dataset.test)
        assert ppl == pytest.approx(v, rel=1e-9)

    def test_zero_logit_model_gives_v_float32(self, tiny_dataset, tiny_config):
        v = tiny_dataset.vocab.V
        ppl = mx.perplexity(zero_store(tiny_config, v), tiny_config, tiny_dataset.test)
        assert ppl == pytest.approx(v, rel=1e-6)

    def test_matches_double_loop_oracle(self, tiny_dataset, tiny_config, as_float64):
        v = tiny_dataset.vocab.V
        store = as_float64(init_params(tiny_config, v, np.random.default_rng(3)))
        split = tiny_dataset.test.take(range(3))
        expected = double_loop_perplexity(store, tiny_config, split, v)
        assert mx.perplexity(store, tiny_config, split) == pytest.approx(expected, rel=1e-9)

    def test_matches_double_loop_oracle_float32(self, tiny_dataset, tiny_config):
        v = tiny_dataset.vocab.V
        store = init_params(tiny_config, v, np.random.default_rng(3))
        split = tiny_dataset.test.take(range(3))
        expected = double_loop_perplexity(store, tiny_config, split, v)
        assert mx.perplexity(store, tiny_config, split) == pytest.approx(expected, rel=1e-6)

    def test_invariant_under_duplication(self, tiny_dataset, tiny_config):
        v = tiny_dataset.vocab.V
        store = init_params(tiny_config, v, np.random.default_rng(4))
        split = tiny_dataset.valid
        doubled = split.take(np.tile(np.arange(len(split)), 2))
        a = mx.perplexity(store, tiny_config, split)
        b = mx.perplexity(store, tiny_config, doubled)
        assert a == pytest.approx(b, abs=1e-9)

    def test_at_least_one(self, tiny_dataset, tiny_config):
        store = init_params(tiny_config, tiny_dataset.vocab.V, np.random.default_rng(5))
        assert mx.perplexity(store, tiny_config, tiny_dataset.valid) >= 1.0

    @pytest.mark.parametrize("mode", MODES)
    def test_holds_one_prediction_at_a_time(self, tiny_dataset, tiny_config, monkeypatch, mode):
        """A split of several evaluation batches drops each batch and its X'
        before the next prediction, with the bits of a pass that keeps them."""
        monkeypatch.setattr(mx, "EVAL_BATCH_SIZE", 2)
        config = replace(tiny_config, mode=mode)
        store = init_params(config, tiny_dataset.vocab.V, np.random.default_rng(6))
        split = tiny_dataset.valid
        predict = mx.predict_batch
        kept = []

        def keeping(batch, store, config):
            kept.append((batch, predict(batch, store, config)))
            return kept[-1][1]

        monkeypatch.setattr(mx, "predict_batch", keeping)
        expected = mx.perplexity_and_kl(store, config, split)
        alive = []

        def watched(batch, store, config):
            assert all(ref() is None for ref in alive)
            out = predict(batch, store, config)
            alive[:] = [weakref.ref(batch), weakref.ref(out[3])]
            return out

        monkeypatch.setattr(mx, "predict_batch", watched)
        ppl, kl, latents = mx.perplexity_and_kl(store, config, split)
        assert len(kept) > 2
        assert (ppl, kl) == expected[:2]
        for got, want in zip(latents, expected[2], strict=True):
            assert (got is None and want is None) or got.tobytes() == want.tobytes()

    def test_empty_split_rejected(self, tiny_dataset, tiny_config):
        store = init_params(tiny_config, tiny_dataset.vocab.V, np.random.default_rng(5))
        with pytest.raises(ValueError, match="empty"):
            mx.perplexity(store, tiny_config, tiny_dataset.test.take([]))


def dense_of(corpus, v):
    """The corpus's counts as a dense float64 array."""
    x = np.zeros((len(corpus), v))
    x[np.repeat(np.arange(len(corpus)), np.diff(corpus.indptr)), corpus.ids] = corpus.counts
    return x


class TestEvaluateModel:
    def test_report_quality_is_product(self, tiny_dataset, tiny_config):
        store = init_params(tiny_config, tiny_dataset.vocab.V, np.random.default_rng(6))
        report, beta = mx.evaluate_model(
            store, tiny_config, tiny_dataset.test, tiny_dataset.train, tiny_dataset.vocab.V
        )
        assert report.quality == pytest.approx(report.coherence * report.diversity, abs=1e-12)
        assert 0.0 <= report.diversity <= 1.0
        assert beta.shape == (tiny_config.num_topics, tiny_dataset.vocab.V)

    def test_pure_function(self, tiny_dataset, tiny_config):
        store = init_params(tiny_config, tiny_dataset.vocab.V, np.random.default_rng(6))
        r1, _ = mx.evaluate_model(
            store, tiny_config, tiny_dataset.test, tiny_dataset.train, tiny_dataset.vocab.V
        )
        r2, _ = mx.evaluate_model(
            store, tiny_config, tiny_dataset.test, tiny_dataset.train, tiny_dataset.vocab.V
        )
        assert r1.to_json() == r2.to_json()

    def test_ranks_the_topic_words_once(self, tiny_dataset, tiny_config, monkeypatch):
        store = init_params(tiny_config, tiny_dataset.vocab.V, np.random.default_rng(6))
        calls = []
        top_words = mx.top_words
        monkeypatch.setattr(mx, "top_words", lambda beta, n: calls.append(n) or top_words(beta, n))
        mx.evaluate_model(store, tiny_config, tiny_dataset.test, tiny_dataset.train, tiny_dataset.vocab.V)
        assert calls == [mx.N_DIVERSITY]

    def test_vocab_mismatch(self, tiny_dataset, tiny_config):
        store = init_params(tiny_config, tiny_dataset.vocab.V + 1, np.random.default_rng(6))
        with pytest.raises(mx.VocabularyMismatch):
            mx.evaluate_model(
                store, tiny_config, tiny_dataset.test, tiny_dataset.train, tiny_dataset.vocab.V
            )
