import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from conftest import batch_of, captured, finite_diff_check, graph_nodes
from diffetm import autodiff as ad
from diffetm import model as m
from diffetm.corpus import BowCorpus, dense_counts


class TestLinearSchedule:
    def test_reference_schedule_against_product_oracle(self):
        abar = m.final_alpha_bar(100, 0.0, 0.02)
        beta = np.linspace(0.0, 0.02, 100)
        assert abs(beta.sum() - 1.0) <= 1e-12
        # independent oracle: plain running product of (1 - beta_t)
        prod = 1.0
        for b in beta:
            prod *= 1.0 - b
        assert abs(abar - prod) <= 1e-12
        assert abar <= math.exp(-1.0)
        assert 0.36 < abar < 0.37

    def test_single_step(self):
        # one step uses beta_start alone
        assert m.final_alpha_bar(1, 0.0, 0.02) == 1.0
        assert m.final_alpha_bar(1, 0.3, 0.5) == 1.0 - 0.3

    def test_zero_steps(self):
        assert m.final_alpha_bar(0, 0.0, 0.02) == 1.0
        assert m.final_alpha_bar(0, 0.5, 0.9) == 1.0

    def test_invalid(self):
        with pytest.raises(m.InvalidSchedule):
            m.final_alpha_bar(10, 0.0, 1.0)
        with pytest.raises(m.InvalidSchedule):
            m.final_alpha_bar(10, -0.1, 0.5)
        with pytest.raises(m.InvalidSchedule):
            m.final_alpha_bar(10, 0.6, 0.5)
        with pytest.raises(m.InvalidSchedule):
            m.final_alpha_bar(-1, 0.0, 0.02)
        with pytest.raises(m.InvalidSchedule, match=str(m.MAX_DIFF_STEPS)):
            m.final_alpha_bar(m.MAX_DIFF_STEPS + 1, 0.0, 0.02)
        assert 0.0 < m.final_alpha_bar(m.MAX_DIFF_STEPS, 0.0, 1e-5) < 1.0

    @pytest.mark.parametrize("field,value", [
        ("beta_end", 1.0), ("beta_end", math.nan), ("diff_steps", -1),
        ("diff_steps", m.MAX_DIFF_STEPS + 1), ("diff_steps", 2952790116),
    ])
    def test_model_config_checks_the_schedule_rules(self, field, value):
        with pytest.raises(m.InvalidSchedule):
            replace(m.ModelConfig(), **{field: value}).validate()

    def test_no_diffusion_is_the_driver_rule_at_alpha_bar_one(self):
        cfg = m.ModelConfig(mode="no_diffusion")
        assert cfg.alpha_bar() == 1.0
        assert replace(cfg, mode="diffusion").alpha_bar() < 1.0
        # the schedule rules hold in every mode: a checkpoint header is checked by them
        with pytest.raises(m.InvalidSchedule):
            replace(cfg, diff_steps=m.MAX_DIFF_STEPS + 1).validate()

    @pytest.mark.parametrize("steps,b0,bt", [(1, 0.0, 0.02), (7, 0.001, 0.3), (100, 0.0, 0.02)])
    def test_alpha_bar_non_increasing_and_positive(self, steps, b0, bt):
        abar = [m.final_alpha_bar(t, b0, bt) for t in range(steps + 1)]
        assert abar[0] == 1.0
        assert (np.diff(abar) <= 0).all()
        assert (np.array(abar) > 0).all()
        # the running product over the schedule of each length
        for t, value in enumerate(abar):
            assert abs(value - math.prod(1.0 - b for b in np.linspace(b0, bt, t))) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.integers(0, m.MAX_DIFF_STEPS),
        ends=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=2),
    )
    def test_matches_the_per_step_schedule_bit_for_bit(self, steps, ends):
        b0, bt = sorted(ends)
        # the per-step construction final_alpha_bar replaced: the beta and
        # running-product arrays, read at their last entry
        if steps == 0:
            beta = np.zeros(0)
        elif steps == 1:
            beta = np.array([b0])
        else:
            beta = np.linspace(b0, bt, steps)
        alpha_bar = np.cumprod(1.0 - beta)
        expected = float(alpha_bar[-1]) if steps > 0 else 1.0
        assert m.final_alpha_bar(steps, b0, bt).hex() == expected.hex()


def test_nan_is_below_every_minimum():
    with pytest.raises(ValueError, match="kl_weight"):
        m.ModelConfig(kl_weight=math.nan).validate()
    with pytest.raises(ValueError, match="num_topics"):
        replace(m.ModelConfig(), num_topics=math.nan).validate()


def test_seed_fits_the_signed_64_bit_header_field():
    for seed in (0, 2**63 - 1):
        m.ModelConfig(seed=seed).validate()
    for seed in (-1, 2**63):
        with pytest.raises(ValueError, match="seed"):
            m.ModelConfig(seed=seed).validate()


def small_setup(seed=0, v=12, k=4, e=5, h=7, n=3, mode="diffusion"):
    cfg = m.ModelConfig(
        num_topics=k, embed_size=e, hidden_size=h, mode=mode, seed=seed,
        diff_steps=10, beta_start=0.0, beta_end=0.1,
    )
    store = m.init_params(cfg, v, np.random.default_rng(seed))
    x = np.random.default_rng(seed + 100).integers(1, 6, size=(n, v)).astype(float)
    return cfg, store, x


def wide_corpus(b, v):
    """b documents of 20-59 distinct words each over a vocabulary of v, with
    counts 1-4: at v in the thousands, the (b, v) arrays dwarf the rest."""
    rng = np.random.default_rng(8)
    lengths = rng.integers(20, 60, size=b)
    ids = np.concatenate([np.sort(rng.choice(v, size=n, replace=False)) for n in lengths])
    return BowCorpus("train", np.append(0, np.cumsum(lengths)), ids, rng.integers(1, 5, ids.size), "r")


def zero_store(cfg, v):
    store = m.init_params(cfg, v, np.random.default_rng(0))
    for _, t in store.items():
        t.data[:] = 0.0
    return store


class TestEncoders:
    def test_zero_weights_give_replicated_bias(self):
        cfg, _, x = small_setup()
        store = zero_store(cfg, 12)
        store["diff.b3"].data[:] = np.arange(4.0)
        x_norm = sparse.csc_array(x / x.sum(axis=1, keepdims=True))
        out = m.encode_x0(x_norm, store)
        np.testing.assert_array_equal(out.data, np.tile(np.arange(4.0), (3, 1)))

    def test_identical_rows_identical_outputs(self):
        cfg, store, _ = small_setup(seed=2)
        row = np.random.default_rng(5).uniform(size=(1, 12))
        row /= row.sum()
        x_norm = sparse.csc_array(np.tile(row, (3, 1)))
        out = m.encode_x0(x_norm, store)
        assert (out.data[0] == out.data[1]).all()
        assert (out.data[0] == out.data[2]).all()

    def test_mu_logvar_zero_weights(self):
        cfg, _, x = small_setup()
        store = zero_store(cfg, 12)
        x_norm = sparse.csc_array(x / x.sum(axis=1, keepdims=True))
        mu, logvar = m.encode_mu_logvar(x_norm, store)
        np.testing.assert_array_equal(mu.data, 0.0)
        np.testing.assert_array_equal(logvar.data, 0.0)
        # logvar 0 means unit standard deviation
        np.testing.assert_array_equal(np.exp(logvar.data / 2), 1.0)

    def test_encoder_gradients_match_finite_differences(self):
        cfg, store, x = small_setup(seed=3)

        def loss():
            x_norm = sparse.csc_array(x / x.sum(axis=1, keepdims=True))
            return ad.sum_all(m.encode_x0(x_norm, store))

        for name in ("diff.w1", "diff.b1", "diff.w2", "diff.w3"):
            assert finite_diff_check(store, name, loss, max_coords=5) <= 1e-4


class TestSampleEps:
    def test_empty_schedule_passes_x0_through_bitwise(self):
        x0 = ad.Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        abar = m.final_alpha_bar(0, 0.0, 0.02)
        out = m.sample_eps(x0, abar, np.random.default_rng(1), (4, 3), np.float64)
        assert out is x0

    def test_zero_beta_schedule_passes_x0_through_bitwise(self):
        x0 = ad.Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        abar = m.final_alpha_bar(5, 0.0, 0.0)
        out = m.sample_eps(x0, abar, np.random.default_rng(1), (4, 3), np.float64)
        assert out is x0

    def test_no_rng_gives_the_conditional_mean(self):
        x0 = ad.Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        abar = m.final_alpha_bar(100, 0.0, 0.02)
        out = m.sample_eps(x0, abar, None, (4, 3), np.float64)
        np.testing.assert_array_equal(out.data, math.sqrt(abar) * x0.data)
        no_diffusion = m.ModelConfig(mode="no_diffusion").alpha_bar()
        assert m.sample_eps(x0, no_diffusion, None, (4, 3), np.float64) is x0
        zeros = m.sample_eps(None, abar, None, (4, 3), np.float64)
        np.testing.assert_array_equal(zeros.data, np.zeros((4, 3)))

    def test_standard_mode_draws_the_given_shape(self):
        abar = m.final_alpha_bar(10, 0.0, 0.1)
        out = m.sample_eps(None, abar, np.random.default_rng(7), (5, 2), np.float64)
        np.testing.assert_array_equal(out.data, np.random.default_rng(7).standard_normal((5, 2)))

    def test_standard_mode_moments(self):
        abar = m.final_alpha_bar(10, 0.0, 0.1)
        out = m.sample_eps(None, abar, np.random.default_rng(7), (100_000, 4), np.float64)
        assert np.abs(out.data.mean(axis=0)).max() < 4e-2
        assert np.abs(out.data.var(axis=0) - 1.0).max() < 0.02

    def test_diffusion_mode_moments_match_closed_form(self):
        abar = m.final_alpha_bar(100, 0.0, 0.02)
        x0_row = np.array([[-1.0, 0.0, 0.5, 2.0]])
        x0 = ad.Tensor(np.tile(x0_row, (100_000, 1)))
        out = m.sample_eps(x0, abar, np.random.default_rng(9), (100_000, 4), np.float64)
        se = math.sqrt(1.0 - abar) / math.sqrt(100_000)
        assert np.abs(out.data.mean(axis=0) - math.sqrt(abar) * x0_row[0]).max() < 5 * se
        assert np.abs(out.data.var(axis=0) - (1.0 - abar)).max() < 0.02 * (1.0 - abar)

    def test_one_shot_matches_iterated_chain_distribution(self):
        # oracle: run the t = 1..T chain explicitly and compare moments
        beta = np.linspace(0.0, 0.3, 5)
        rng = np.random.default_rng(12)
        x0 = np.array([1.5, -0.7])
        n = 100_000
        x = np.tile(x0, (n, 1))
        for b in beta:
            x = math.sqrt(1.0 - b) * x + math.sqrt(b) * rng.standard_normal((n, 2))
        one_shot = m.sample_eps(
            ad.Tensor(np.tile(x0, (n, 1))), m.final_alpha_bar(5, 0.0, 0.3),
            np.random.default_rng(13), (n, 2), np.float64,
        ).data
        np.testing.assert_allclose(x.mean(axis=0), one_shot.mean(axis=0), atol=0.02)
        np.testing.assert_allclose(x.var(axis=0), one_shot.var(axis=0), rtol=0.02)


class TestReparameterize:
    def test_zero_eps_gives_mu(self):
        mu = ad.Tensor([[1.0, -2.0]])
        out = m.reparameterize(ad.Tensor([[0.0, 0.0]]), mu, ad.Tensor([[0.3, -0.4]]))
        np.testing.assert_array_equal(out.data, mu.data)

    def test_identity_noise_path(self):
        eps = ad.Tensor([[0.7, -1.1]])
        out = m.reparameterize(eps, ad.Tensor([[0.0, 0.0]]), ad.Tensor([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.data, eps.data)

    def test_hand_computed(self):
        out = m.reparameterize(
            ad.Tensor([[2.0]]), ad.Tensor([[1.0]]), ad.Tensor([[math.log(4.0)]])
        )
        np.testing.assert_allclose(out.data, [[5.0]])


class TestDistributions:
    def test_uniform_theta(self):
        out = m.doc_topic_dist(ad.Tensor(np.zeros((1, 5))))
        np.testing.assert_allclose(out.data, np.full((1, 5), 0.2))

    def test_theta_shift_invariance(self):
        z = np.random.default_rng(0).normal(size=(1, 6))
        a = m.doc_topic_dist(ad.Tensor(z)).data
        b = m.doc_topic_dist(ad.Tensor(z + 3.7)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_theta_closed_form(self):
        out = m.doc_topic_dist(ad.Tensor([[math.log(1.0), math.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]])

    def test_beta_uniform_for_zero_topic_embeddings(self):
        topic = ad.Tensor(np.zeros((3, 4)))
        word = ad.Tensor(np.random.default_rng(1).normal(size=(7, 4)))
        out = m.topic_word_dist(topic, word)
        np.testing.assert_allclose(out.data, np.full((3, 7), 1 / 7))

    def test_beta_closed_form(self):
        topic = ad.Tensor([[1.0]])
        word = ad.Tensor([[0.0], [math.log(3.0)]])
        out = m.topic_word_dist(topic, word)
        np.testing.assert_allclose(out.data, [[0.25, 0.75]])

    def test_beta_embedding_dim_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            m.topic_word_dist(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((5, 4))))

    def test_rescaling_one_word_changes_only_its_column(self):
        rng = np.random.default_rng(4)
        topic = rng.normal(size=(3, 4))
        word = rng.normal(size=(6, 4))
        logits_a = topic @ word.T
        word2 = word.copy()
        word2[2] *= 2.5
        logits_b = topic @ word2.T
        unchanged = [j for j in range(6) if j != 2]
        np.testing.assert_array_equal(logits_a[:, unchanged], logits_b[:, unchanged])
        assert not np.allclose(logits_a[:, 2], logits_b[:, 2])


class TestReconstruct:
    def test_one_hot_theta_selects_beta_row(self):
        beta = np.random.default_rng(0).dirichlet(np.ones(6), size=3)
        theta = np.zeros((1, 3))
        theta[0, 2] = 1.0
        out = m.reconstruct(ad.Tensor(theta), ad.Tensor(beta))
        np.testing.assert_allclose(out.data[0], beta[2])

    def test_uniform_theta_averages_rows(self):
        beta = np.random.default_rng(1).dirichlet(np.ones(5), size=2)
        out = m.reconstruct(ad.Tensor([[0.5, 0.5]]), ad.Tensor(beta))
        np.testing.assert_allclose(out.data[0], beta.mean(axis=0))

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(2)
        theta = rng.dirichlet(np.ones(4), size=8)
        beta = rng.dirichlet(np.ones(9), size=4)
        out = m.reconstruct(ad.Tensor(theta), ad.Tensor(beta))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


class TestLosses:
    def test_perfect_reconstruction_is_zero(self):
        x = np.zeros((1, 3))
        x[0, 1] = 1.0
        x_prime = ad.Tensor([[0.0, 1.0, 0.0]])
        out = m.reconstruction_loss(batch_of(x), x_prime)
        assert out.item() == 0.0

    def test_uniform_model_costs_tokens_times_log_v(self):
        v, n_tokens = 8, 13.0
        x = np.zeros((1, v))
        x[0, 3] = n_tokens
        out = m.reconstruction_loss(batch_of(x), ad.Tensor(np.full((1, v), 1 / v)))
        assert abs(out.item() - n_tokens * math.log(v)) < 1e-9

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 5, size=(4, 7)).astype(float)
        x_prime = rng.dirichlet(np.ones(7), size=4)
        expected = 0.0
        for d in range(4):
            for j in range(7):
                expected -= x[d, j] * math.log(x_prime[d, j])
        expected /= 4
        out = m.reconstruction_loss(batch_of(x), ad.Tensor(x_prime))
        assert abs(out.item() - expected) < 1e-9

    def test_no_domain_error_where_the_count_is_zero(self):
        x = np.array([[2.0, 0.0, 1.0]])
        out = m.reconstruction_loss(batch_of(x), ad.Tensor([[0.5, 0.0, 0.5]]))
        assert out.item() == pytest.approx(3 * math.log(2.0), rel=1e-15)

    @staticmethod
    def _sparse_batch(dtype, seed=12):
        rng = np.random.default_rng(seed)
        x = rng.integers(1, 6, size=(6, 40)) * (rng.random((6, 40)) < 0.15)
        x[:, 0] += 1  # no empty document
        x_prime = rng.dirichlet(np.ones(40), size=6)
        x_prime[1, 5] = 1e-14  # below the clamp
        return x.astype(float), x_prime.astype(dtype)

    @pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_matches_the_dense_oracle(self, dtype, rel):
        x, x_prime = self._sparse_batch(dtype)
        expected = -(x * np.log(np.maximum(x_prime.astype(np.float64), 1e-12))).sum() / 6
        out = m.reconstruction_loss(batch_of(x), ad.Tensor(x_prime))
        assert out.data.dtype == dtype
        assert out.item() == pytest.approx(expected, rel=rel)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gradient_is_the_dense_one_at_counts_and_zero_elsewhere(self, dtype):
        x, x_prime = self._sparse_batch(dtype)
        x[1, 5] = 3.0
        store = ad.ParamStore()
        p = store.add("x_prime", x_prime)
        ad.backward(m.reconstruction_loss(batch_of(x), p))
        xc = x.astype(dtype)
        mask = x_prime > 1e-12
        expected = ((dtype(-1.0 / 6) * xc) / np.maximum(x_prime, dtype(1e-12))) * mask
        nz = x != 0
        assert p.grad.dtype == dtype
        assert p.grad[nz].tobytes() == expected[nz].tobytes()
        assert not mask[1, 5] and p.grad[1, 5] == 0.0
        assert (p.grad[~nz] == 0.0).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_kl_gradient_adds_its_terms_one_at_a_time(self, dtype):
        # the order of the elementwise graph the KL node replaced: logvar
        # gets -g, mu gets g * mu twice, then logvar gets g * exp(logvar);
        # a gradient already in the buffers (as the reparameterization
        # leaves one in the model) makes the order visible in the bits
        rng = np.random.default_rng(13)
        store = ad.ParamStore()
        mu = store.add("mu", rng.normal(size=(5, 4)).astype(dtype))
        logvar = store.add("logvar", rng.normal(size=(5, 4)).astype(dtype))
        before_mu, before_logvar = (rng.normal(size=(5, 4)).astype(dtype) for _ in range(2))
        mu.grad, logvar.grad = before_mu, before_logvar
        ad.backward(m.kl_loss(mu, logvar))
        g = dtype(0.5 / 5)
        assert mu.grad.dtype == logvar.grad.dtype == dtype
        assert mu.grad.tobytes() == (before_mu + g * mu.data + g * mu.data).tobytes()
        assert logvar.grad.tobytes() == (before_logvar - g + g * np.exp(logvar.data)).tobytes()

    def test_loss_graph_has_two_nodes_for_reconstruction_and_three_for_kl(self):
        x, x_prime = self._sparse_batch(np.float32)
        store = ad.ParamStore()
        p = store.add("x_prime", x_prime)
        mu = store.add("mu", np.zeros((6, 3)))
        logvar = store.add("logvar", np.zeros((6, 3)))
        # the leaves count too
        assert len(graph_nodes(m.reconstruction_loss(batch_of(x), p))) == 1 + 2
        assert len(graph_nodes(m.kl_loss(mu, logvar))) == 2 + 3

    def test_nonzero_entries_in_row_major_order(self):
        batch = batch_of(np.array([[0.0, 2.0, 1.0], [3.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(batch.rows, [0, 0, 1])
        np.testing.assert_array_equal(batch.cols, [1, 2, 0])
        np.testing.assert_array_equal(batch.counts, [2, 1, 3])

    def test_kl_zero_for_standard_normal(self):
        out = m.kl_loss(ad.Tensor([[0.0]]), ad.Tensor([[0.0]]))
        assert out.item() == 0.0

    def test_kl_half_for_unit_mean(self):
        out = m.kl_loss(ad.Tensor([[1.0]]), ad.Tensor([[0.0]]))
        assert abs(out.item() - 0.5) < 1e-12

    def test_kl_closed_form_value(self):
        out = m.kl_loss(ad.Tensor([[0.0]]), ad.Tensor([[math.log(4.0)]]))
        assert abs(out.item() - 0.5 * (4.0 - math.log(4.0) - 1.0)) < 1e-12

    def test_total_loss(self):
        recon = ad.Tensor([[2.0]])
        kl = ad.Tensor([[3.0]])
        assert m.total_loss(recon, kl, 0.0).item() == 2.0
        assert m.total_loss(recon, kl, 1.0).item() == 5.0

    def test_total_loss_monotone_in_weight(self):
        recon = ad.Tensor([[2.0]])
        kl = ad.Tensor([[3.0]])
        values = [m.total_loss(recon, kl, w).item() for w in (0.0, 0.5, 1.0, 2.0)]
        assert values == sorted(values)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (2, 3), elements=st.floats(-5, 5)), arrays(np.float64, (2, 3), elements=st.floats(-4, 4)))
def test_kl_loss_nonnegative(mu, logvar):
    assert m.kl_loss(ad.Tensor(mu), ad.Tensor(logvar)).item() >= 0.0


class TestForwardBatch:
    @pytest.mark.parametrize("mode, nodes", [("diffusion", 47), ("no_diffusion", 45), ("standard_etm", 36)])
    def test_a_training_step_builds_a_fixed_graph(self, mode, nodes):
        # 20 parameters and 27 interior nodes, of which the loss builds 5;
        # no_diffusion has no noising (scale, add), and standard_etm has no
        # X0 encoder (6 parameters, 3 layers) either
        cfg, store, x = small_setup(mode=mode)
        result = m.forward_batch(batch_of(x, np.float32), store, cfg, np.random.default_rng(1))
        assert len(graph_nodes(result.total)) == nodes

    def test_standard_etm_deterministic_path_gives_z_equals_mu(self):
        cfg, store, x = small_setup(mode="standard_etm")
        x0, mu, _, x_prime = m.predict_batch(batch_of(x, np.float32), store, cfg)
        assert x0 is None
        with ad.no_grad():
            beta = m.topic_word_dist(store["topic_emb"], store["word_emb"])
            expected = m.reconstruct(m.doc_topic_dist(ad.Tensor(mu)), beta).data
        np.testing.assert_array_equal(x_prime, expected)

    def test_values_after_the_backward_of_the_total_raise_graph_consumed(self):
        cfg, store, x = small_setup()
        result = m.forward_batch(batch_of(x, np.float32), store, cfg, np.random.default_rng(1))
        result.values()
        ad.backward(result.total)
        with pytest.raises(ad.GraphConsumed):
            result.values()

    def test_bitwise_deterministic_given_seed(self, monkeypatch):
        cfg, store, x = small_setup()
        thetas = captured(monkeypatch, m, "doc_topic_dist")
        r1 = m.forward_batch(batch_of(x, np.float32), store, cfg, np.random.default_rng(42))
        r2 = m.forward_batch(batch_of(x, np.float32), store, cfg, np.random.default_rng(42))
        assert r1.total.item() == r2.total.item()
        assert r1.recon.item() == r2.recon.item()
        np.testing.assert_array_equal(thetas[0].data, thetas[1].data)

    def test_t_zero_diffusion_equals_no_diffusion_bitwise(self, monkeypatch):
        cfg, store, x = small_setup()
        cfg_t0 = replace(cfg, diff_steps=0)
        cfg_nd = replace(cfg, mode="no_diffusion")
        zs = captured(monkeypatch, m, "reparameterize")
        r1 = m.forward_batch(batch_of(x, np.float32), store, cfg_t0, np.random.default_rng(3))
        r2 = m.forward_batch(batch_of(x, np.float32), store, cfg_nd, np.random.default_rng(3))
        assert r1.total.item() == r2.total.item()
        assert r1.kl.item() == r2.kl.item()
        np.testing.assert_array_equal(zs[0].data, zs[1].data)

    @staticmethod
    def _gradient_parts(cfg, store, x):
        """Gradients of the reconstruction, KL and total losses, per parameter."""

        batch = batch_of(x, m.store_dtype(store))

        def part(which):
            store.zero_grads()
            res = m.forward_batch(batch, store, cfg, np.random.default_rng(21))
            ad.backward({"recon": res.recon, "kl": res.kl, "total": res.total}[which])
            return {name: store[name].grad.copy() for name in store.names()}

        parts = part("recon"), part("kl"), part("total")
        store.zero_grads()
        return parts

    def test_backward_releases_the_step_graph(self):
        # a latent wide enough that six (n, k) arrays would exceed the slack
        cfg, store, x = small_setup(v=300, k=100, h=64, n=120)
        batch = batch_of(x, m.store_dtype(store))
        params = {name: t.data for name, t in store.items()}
        # a first step, so that lazy imports and caches are not counted
        ad.backward(m.forward_batch(batch, store, cfg, np.random.default_rng(0)).total)
        store.zero_grads()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            result = m.forward_batch(batch, store, cfg, np.random.default_rng(0))
            ad.backward(result.total)
            kept = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        leaves = {id(t): name for name, t in store.items()}
        for t in graph_nodes(result.total):
            assert t._backward is None
            if id(t) in leaves:
                assert t.data is params[leaves[id(t)]]
            elif t is not result.total:
                assert t.data is None
        # what stays while result is alive: the gradients and the constant
        # inputs (the counts, the noise), no per-document array of the step
        grads = sum(t.grad.nbytes for _, t in store.items())
        counts = batch.counts.size * m.store_dtype(store).itemsize
        assert kept < grads + counts + 32 * 1024

    def test_total_gradient_is_linear_in_parts(self, as_float64):
        cfg, store, x = small_setup(seed=5)
        g_recon, g_kl, g_total = self._gradient_parts(cfg, as_float64(store), x)
        for name in g_total:
            np.testing.assert_allclose(
                g_total[name], g_recon[name] + cfg.kl_weight * g_kl[name], atol=1e-10
            )

    def test_total_gradient_is_linear_in_parts_float32(self):
        # float32 rounding scales with the gradient, so the error is taken
        # relative to each parameter's gradient norm
        cfg, store, x = small_setup(seed=5)
        g_recon, g_kl, g_total = self._gradient_parts(cfg, store, x)
        for name, g in g_total.items():
            assert g.dtype == np.float32
            err = np.linalg.norm(g - (g_recon[name] + cfg.kl_weight * g_kl[name]))
            assert err <= 1e-6 * np.linalg.norm(g), name

    def test_gradients_match_finite_differences_all_params(self):
        cfg, store, x = small_setup(seed=7)
        batch = batch_of(x)  # the check runs the loss in float64

        def loss():
            return m.forward_batch(batch, store, cfg, np.random.default_rng(99)).total

        for name in store.names():
            err = finite_diff_check(store, name, loss, max_coords=4, seed=1)
            assert err <= 1e-4, f"{name}: {err}"

    def test_no_rng_takes_the_conditional_mean_path(self, monkeypatch):
        cfg, store, x = small_setup()
        eps = captured(monkeypatch, m, "sample_eps")
        thetas = captured(monkeypatch, m, "doc_topic_dist")
        m.forward_batch(batch_of(x, np.float32), store, cfg)
        x0, _, _, _ = m.predict_batch(batch_of(x, np.float32), store, cfg)
        abar = cfg.alpha_bar()
        np.testing.assert_array_equal(eps[0].data, eps[1].data)
        np.testing.assert_array_equal(thetas[0].data, thetas[1].data)
        np.testing.assert_allclose(eps[0].data, math.sqrt(abar) * x0)

    def test_empty_document_rejected(self):
        cfg, store, x = small_setup()
        x[1] = 0.0
        with pytest.raises(ValueError, match="zero tokens"):
            m.forward_batch(batch_of(x, np.float32), store, cfg, np.random.default_rng(0))

    def test_batch_in_another_dtype_rejected(self):
        cfg, store, x = small_setup()
        with pytest.raises(ValueError, match="float64 batch for float32"):
            m.forward_batch(batch_of(x, np.float64), store, cfg)

    @pytest.mark.parametrize("mode", m.MODES)
    def test_stochastic_rows_sum_to_one(self, mode, monkeypatch):
        cfg, store, x = small_setup(mode=mode, seed=11)
        # X' as reconstruct returns it: the loss releases it before forward_batch returns
        x_primes = captured(monkeypatch, m, "reconstruct", values=True)
        m.forward_batch(batch_of(x, np.float32), store, cfg, np.random.default_rng(2))
        with ad.no_grad():
            beta = m.topic_word_dist(store["topic_emb"], store["word_emb"]).data
        np.testing.assert_allclose(beta.sum(axis=1), 1.0, atol=1e-6)
        (x_prime,) = x_primes
        np.testing.assert_allclose(x_prime.sum(axis=1), 1.0, atol=1e-6)
        assert (x_prime > 0).all()

    @pytest.mark.parametrize("mode", m.MODES)
    def test_a_training_step_releases_x_prime(self, mode, monkeypatch):
        cfg, store, x = small_setup(mode=mode)
        x_primes = captured(monkeypatch, m, "reconstruct")
        result = m.forward_batch(batch_of(x, np.float32), store, cfg, np.random.default_rng(1))
        (x_prime,) = x_primes
        # an interior node of the step's graph, still to be differentiated
        assert x_prime._parents and x_prime._backward is not None
        assert x_prime.data is None
        with pytest.raises(ad.GraphConsumed, match="released"):
            x_prime.rows
        result.values()  # the losses keep their values
        ad.backward(result.total)

    @pytest.mark.parametrize("mode", m.MODES)
    def test_a_training_step_never_holds_x_prime_and_its_gradient(self, mode):
        """At a shape where the (B, V) arrays dominate, the second step's
        traced peak stays below its graph plus one (B, V) array, X''s
        gradient.  At B=512, V=4096, float32 the (B, V) array is 8.4 MB and
        the rest of the bound about 2 MB, so holding X' too would exceed it."""
        b, v, k, e, h = 512, 4096, 4, 8, 8
        corpus = wide_corpus(b, v)
        cfg = m.ModelConfig(num_topics=k, embed_size=e, hidden_size=h, mode=mode)
        store = m.init_params(cfg, v, np.random.default_rng(1))
        state, noise = ad.AdamState(lr=0.01), np.random.default_rng(2)
        batch = dense_counts(corpus, range(b), v, np.float32)
        # a first step, so that the Adam moments, lazy imports and caches are not counted
        ad.backward(m.forward_batch(batch, store, cfg, noise).total, store, state)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            ad.backward(m.forward_batch(batch, store, cfg, noise).total, store, state)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        s, nnz = 4, batch.counts.size
        # the graph: per encoder two (B, H) and one (B, K) values, ten (B, K)
        # latent nodes with room to spare, the (K, V) logits and beta, and
        # the loss's gathers and float counts at the nonzero entries
        graph = b * (3 * (2 * h + k) + 16 * k) * s + 2 * k * v * s + 4 * nnz * s
        # the backward's transients beside X''s gradient: at most every
        # parameter gradient, the (K, V) and nonzero-entry temporaries, one
        # Adam block and the Python objects of the graph
        params = sum(t.data.nbytes for _, t in store.items())
        transients = params + 2 * k * v * s + 4 * nnz * s + ad.ADAM_BLOCK * s + 64 * 1024
        assert peak < graph + b * v * s + transients


class TestAdamInBackward:
    @pytest.mark.parametrize("mode", m.MODES)
    def test_matches_backward_then_adam_update_bit_for_bit(self, mode):
        cfg, store, x = small_setup(mode=mode, n=5)
        _, ref, _ = small_setup(mode=mode, n=5)
        init = {name: t.data.tobytes() for name, t in store.items()}
        batch = batch_of(x, np.float32)
        state, ref_state = ad.AdamState(lr=0.05), ad.AdamState(lr=0.05)
        rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(4):
            ad.backward(m.forward_batch(batch, ref, cfg, ref_rng).total)
            ad.adam_update(ref, ref_state)
            ad.backward(m.forward_batch(batch, store, cfg, rng).total, store, state)
            assert state.t == ref_state.t
            # the walk creates moments in its own order, not the store's
            assert set(state.m) == set(ref_state.m) == set(state.v) == set(ref_state.v)
            for name in state.m:
                assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
                assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name
            for name, t in store.items():
                assert t.data.tobytes() == ref[name].data.tobytes(), name
                assert ad._is_zero_grad(t.grad), name
        moved = {name for name, t in store.items() if t.data.tobytes() != init[name]}
        # only standard_etm's unreached X0 encoder stays where it started, without moments
        unreached = {n for n in store.names() if n.startswith("diff.")} if mode == "standard_etm" else set()
        assert moved == set(state.m) == set(store.names()) - unreached


class TestDtype:
    @pytest.mark.parametrize("mode", m.MODES)
    def test_training_step_stays_float32(self, mode, monkeypatch):
        cfg, store, x = small_setup(mode=mode)
        # X' as reconstruct returns it: the loss releases it before forward_batch returns
        x_primes = captured(monkeypatch, m, "reconstruct", values=True)
        result = m.forward_batch(batch_of(x, np.float32), store, cfg, np.random.default_rng(1))
        (x_prime,) = x_primes
        assert x_prime.dtype == np.float32
        seen, stack, released = set(), [result.total], 0
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t.data is None:
                released += 1
            else:
                assert t.data.dtype == np.float32, t
            stack.extend(t._parents)
        assert released == 1
        assert len(seen) > len(store)
        for array in m.predict_batch(batch_of(x, np.float32), store, cfg):
            assert array is None or array.dtype == np.float32
        ad.backward(result.total)
        state = ad.AdamState(lr=0.01)
        for name, t in store.items():
            assert t.data.dtype == t.grad.dtype == np.float32, name
        ad.adam_update(store, state)
        for name, t in store.items():
            assert t.data.dtype == t.grad.dtype == np.float32, name
        # standard_etm's graph never reaches diff.*, which Adam leaves without moments
        unreached = {n for n in store.names() if n.startswith("diff.")} if mode == "standard_etm" else set()
        assert set(state.m) == set(state.v) == set(store.names()) - unreached
        for name in state.m:
            assert state.m[name].dtype == state.v[name].dtype == np.float32, name

    def test_noise_is_drawn_in_float64_then_cast(self):
        abar = m.final_alpha_bar(10, 0.0, 0.1)
        x0 = ad.Tensor(np.ones((3, 2), dtype=np.float32))
        out = m.sample_eps(x0, abar, np.random.default_rng(4), (3, 2), np.float32)
        noise = math.sqrt(1.0 - abar) * np.random.default_rng(4).standard_normal((3, 2))
        expected = np.float32(math.sqrt(abar)) * x0.data + noise.astype(np.float32)
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(out.data, expected)
        etm = m.sample_eps(None, abar, np.random.default_rng(4), (3, 2), np.float32)
        np.testing.assert_array_equal(
            etm.data, np.random.default_rng(4).standard_normal((3, 2)).astype(np.float32)
        )


# one training step at the desk width (V=2070, H=800, B=1000, float32),
# whose (H, H) and (H, K) weight gradients go through a multi-threaded GEMM
_DESK_STEP = textwrap.dedent("""
    import hashlib
    import numpy as np
    from diffetm import autodiff as ad
    from diffetm import model as m
    from diffetm.corpus import BowCorpus, dense_counts

    rng = np.random.default_rng(0)
    b, v = 1000, 2070
    lengths = rng.integers(40, 100, size=b)
    ids = np.concatenate([np.sort(rng.choice(v, size=n, replace=False)) for n in lengths])
    corpus = BowCorpus("train", np.append(0, np.cumsum(lengths)), ids, rng.integers(1, 4, ids.size), "r")
    cfg = m.ModelConfig(num_topics=50, embed_size=300, hidden_size=800)
    store = m.init_params(cfg, v, np.random.default_rng([0, 0]))
    batch = dense_counts(corpus, range(b), v, np.float32)
    result = m.forward_batch(batch, store, cfg, np.random.default_rng([0, 2]))
    ad.backward(result.total)
    ad.adam_update(store, ad.AdamState(lr=0.005))
    digest = hashlib.sha256()
    for _, t in store.items():
        digest.update(t.data.tobytes())
    print(digest.hexdigest())
""")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_desk_width_train_step_repeats_bit_for_bit_at_one_blas_thread_count(threads):
    """README's contract: the same inputs, config and BLAS thread count give
    the same bits, here in two fresh processes.  Whether 1 and 2 threads
    agree is not promised, and not asserted."""
    src = str(Path(m.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    digests = {
        subprocess.run(
            [sys.executable, "-c", _DESK_STEP], env=env, capture_output=True, text=True, check=True
        ).stdout.strip()
        for _ in range(2)
    }
    assert len(digests) == 1


class TestPredictBatch:
    def test_no_graph_and_deterministic(self):
        cfg, store, x = small_setup()
        first = m.predict_batch(batch_of(x, np.float32), store, cfg)
        second = m.predict_batch(batch_of(x, np.float32), store, cfg)
        for a, b in zip(first, second, strict=True):
            assert isinstance(a, np.ndarray)
            np.testing.assert_array_equal(a, b)

    def test_beta_computed_once_and_no_loss(self, monkeypatch):
        cfg, store, x = small_setup()
        calls = []

        def counted(name):
            fn = getattr(m, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name in ("topic_word_dist", "reconstruction_loss", "kl_loss"):
            monkeypatch.setattr(m, name, counted(name))
        m.predict_batch(batch_of(x, np.float32), store, cfg)
        assert calls == ["topic_word_dist"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_and_prediction_hold_one_dense_array(self, dtype, as_float64):
        """Building a (B, V) batch, and predicting on it, each allocate one
        (B, V) array of the model's dtype and little more: no float64 count
        matrix on the way."""
        b, v = 256, 4096
        corpus = wide_corpus(b, v)
        cfg = m.ModelConfig(num_topics=4, embed_size=8, hidden_size=16)
        store = m.init_params(cfg, v, np.random.default_rng(1))
        if dtype == np.float64:
            store = as_float64(store)
        dense = b * v * np.dtype(dtype).itemsize
        tracemalloc.start()
        try:
            batch = dense_counts(corpus, range(b), v, dtype)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            m.predict_batch(batch, store, cfg)
            predict_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        entries = batch.rows.nbytes + batch.cols.nbytes + batch.counts.nbytes
        assert build_peak < 1.25 * dense + entries
        assert predict_peak < 1.25 * dense + entries

    def test_diffusion_deterministic_path_shrinks_x0(self, monkeypatch):
        cfg, store, x = small_setup()
        eps = captured(monkeypatch, m, "sample_eps")
        x0, _, _, _ = m.predict_batch(batch_of(x, np.float32), store, cfg)
        abar = cfg.alpha_bar()
        np.testing.assert_allclose(eps[0].data, math.sqrt(abar) * x0)


class TestCheckParamShapes:
    def test_roundtrip_passes(self):
        cfg, store, _ = small_setup()
        m.check_param_shapes(store, cfg, 12)

    def test_extra_parameter_fails(self):
        cfg, store, _ = small_setup()
        store.add("stray", np.zeros((1, 1)))
        with pytest.raises(ValueError, match="unexpected parameter 'stray'"):
            m.check_param_shapes(store, cfg, 12)

    def test_wrong_vocab_fails(self):
        cfg, store, _ = small_setup()
        with pytest.raises(ValueError, match="shape"):
            m.check_param_shapes(store, cfg, 13)


class TestParamShapes:
    def test_init_params_follows_the_table(self):
        cfg, store, _ = small_setup()
        shapes = m.param_shapes(cfg, 12)
        assert store.names() == list(shapes)
        assert {name: t.data.shape for name, t in store.items()} == shapes

    @pytest.mark.parametrize("v,h", [(12, 7), (1, 1)])
    def test_draws_the_weights_in_checkpoint_order(self, v, h):
        cfg = m.ModelConfig(num_topics=3, embed_size=4, hidden_size=h, seed=0)
        store = m.init_params(cfg, v, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        expected = {}
        for p in m.ENCODER_PREFIXES:
            expected[f"{p}.w1"] = m._glorot(rng, v, h)
            expected[f"{p}.b1"] = np.zeros((1, h), dtype=np.float32)
            expected[f"{p}.w2"] = m._glorot(rng, h, h)
            expected[f"{p}.b2"] = np.zeros((1, h), dtype=np.float32)
            expected[f"{p}.w3"] = m._glorot(rng, h, 3)
            expected[f"{p}.b3"] = np.zeros((1, 3), dtype=np.float32)
        expected["topic_emb"] = m._glorot(rng, 3, 4)
        expected["word_emb"] = m._glorot(rng, v, 4)
        assert store.names() == list(expected)
        for name, want in expected.items():
            assert store[name].data.dtype == np.float32
            assert store[name].data.tobytes() == want.tobytes(), name
