import hashlib
import json
import os
import re
import struct
import tracemalloc
from dataclasses import replace
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import captured
from diffetm import autodiff as ad
from diffetm import metrics, model
from diffetm import trainer as tr
from diffetm.corpus import BowCorpus, dense_counts
from diffetm.model import ModelConfig, forward_batch, init_params


def tiny_train_config(**kwargs):
    defaults = dict(epochs=3, batch_size=8, learning_rate=0.02, deterministic=True)
    defaults.update(kwargs)
    return tr.TrainConfig(**defaults)


class TestTrain:
    def test_zero_learning_rate_freezes_parameters(self, tiny_dataset, tiny_config):
        store_before = init_params(tiny_config, tiny_dataset.vocab.V, np.random.default_rng([3, 0]))
        report = tr.train(tiny_config, tiny_train_config(learning_rate=0.0), tiny_dataset)
        # retrain from the same seed and compare against the fresh init
        store_after = init_params(tiny_config, tiny_dataset.vocab.V, np.random.default_rng([3, 0]))
        for name, t in store_before.items():
            np.testing.assert_array_equal(t.data, store_after[name].data)
        assert len(report.train_total) == 3

    def test_loss_improves_on_tiny_corpus(self, tiny_dataset, tiny_config):
        report = tr.train(tiny_config, tiny_train_config(epochs=50), tiny_dataset)
        assert report.train_total[-1] < report.train_total[0]

    def test_same_seed_gives_identical_reports(self, tiny_dataset, tiny_config):
        cfg = tiny_train_config(epochs=4)
        r1 = tr.train(tiny_config, cfg, tiny_dataset)
        r2 = tr.train(tiny_config, cfg, tiny_dataset)
        assert r1.to_json() == r2.to_json()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_partial_report(self, tiny_dataset, tiny_config):
        # absurd learning rate forces non-finite loss quickly
        cfg = tiny_train_config(epochs=60, learning_rate=1e9)
        with pytest.raises(tr.Diverged) as excinfo:
            tr.train(tiny_config, cfg, tiny_dataset)
        assert excinfo.value.report is not None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_writes_the_partial_report(self, tiny_dataset, tiny_config, tmp_path):
        # an earlier train's epoch file and kl-test's output go; other files stay
        stale = ["kl_test.csv", "kl_test_manifest.json", "checkpoint_epoch0099.ckpt"]
        for name in [*stale, "notes.txt"]:
            (tmp_path / name).write_text("stale")
        with pytest.raises(tr.Diverged) as excinfo:
            tr.train(tiny_config, tiny_train_config(epochs=60, learning_rate=1e9), tiny_dataset, tmp_path)
        assert (tmp_path / "train_report.json").read_text() == excinfo.value.report.to_json()
        assert not [name for name in stale if (tmp_path / name).exists()]
        assert (tmp_path / "notes.txt").read_text() == "stale"

    @pytest.mark.parametrize(
        "ppl,kl,z_kl",
        [(np.nan, 1.0, 0.0), (np.inf, 1.0, 0.0), (5.0, np.inf, 0.0), (5.0, 1.0, np.inf)],
        ids=["ppl_nan", "ppl_inf", "kl_inf", "z_kl_inf"],
    )
    def test_non_finite_validation_raises_and_writes_the_report(
        self, tiny_dataset, tiny_config, tmp_path, monkeypatch, ppl, kl, z_kl
    ):
        validate, calls = tr.validate, count(1)
        monkeypatch.setattr(tr, "validate", lambda *a: (ppl, kl, z_kl) if next(calls) == 2 else validate(*a))
        with pytest.raises(
            tr.Diverged, match=f"non-finite validation at epoch 2: perplexity {ppl}, kl {kl}, z-KL {z_kl} "
        ) as excinfo:
            tr.train(tiny_config, tiny_train_config(), tiny_dataset, tmp_path)
        report = excinfo.value.report
        assert len(report.train_total) == len(report.val_perplexity) == 1  # nothing of epoch 2
        assert (tmp_path / "train_report.json").read_text() == report.to_json()
        assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == ["best.ckpt", "checkpoint_epoch0001.ckpt"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_huge_adam_step_diverges_at_validation(self, tiny_dataset, tiny_config):
        # one finite-loss step leaves parameters whose validation is not finite
        cfg = tiny_train_config(epochs=1, batch_size=1000, learning_rate=1e6)
        with pytest.raises(tr.Diverged, match="non-finite validation at epoch 1"):
            tr.train(tiny_config, cfg, tiny_dataset)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_run_diverging_before_any_selection_reports_null(self, tiny_dataset, tiny_config, tmp_path):
        cfg = tiny_train_config(epochs=1, batch_size=1000, learning_rate=1e6)
        with pytest.raises(tr.Diverged):
            tr.train(tiny_config, cfg, tiny_dataset, tmp_path)

        def refuse(constant):
            raise AssertionError(f"train_report.json holds {constant}")

        report = json.loads((tmp_path / "train_report.json").read_text(), parse_constant=refuse)
        assert report["best_epoch"] == 0
        assert report["best_val_perplexity"] is None

    def test_report_json_refuses_any_other_non_finite_value(self):
        report = tr.TrainReport(seed=0, epochs=1, val_z_kl=[np.inf], best_epoch=1, best_val_perplexity=5.0)
        with pytest.raises(ValueError, match="JSON compliant"):
            report.to_json()

    def test_best_checkpoint_is_a_link_to_the_best_epoch_file(self, tiny_dataset, tiny_config, tmp_path):
        report = tr.train(tiny_config, tiny_train_config(epochs=4), tiny_dataset, tmp_path)
        best, epoch_file = tmp_path / "best.ckpt", tmp_path / tr.checkpoint_name(report.best_epoch)
        assert best.read_bytes() == epoch_file.read_bytes()
        assert best.samefile(epoch_file)
        # no temp file is left behind
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]

    def test_best_checkpoint_is_a_copy_where_linking_fails(self, tiny_dataset, tiny_config, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError("no hard links here")

        monkeypatch.setattr(os, "link", refuse)
        report = tr.train(tiny_config, tiny_train_config(epochs=4), tiny_dataset, tmp_path)
        best, epoch_file = tmp_path / "best.ckpt", tmp_path / tr.checkpoint_name(report.best_epoch)
        assert best.read_bytes() == epoch_file.read_bytes()
        assert not best.samefile(epoch_file)

    def test_best_checkpoint_loads_after_pruning(self, tiny_dataset, tiny_config, tmp_path):
        report = tr.train(tiny_config, tiny_train_config(epochs=8, max_checkpoints=1), tiny_dataset, tmp_path)
        assert len((tmp_path / "kl_trajectory.csv").read_text().splitlines()) > 2  # so a file was pruned
        (kept,) = tmp_path.glob("checkpoint_epoch*.ckpt")
        assert kept.name == tr.checkpoint_name(report.best_epoch)
        assert (tmp_path / "best.ckpt").read_bytes() == kept.read_bytes()
        store, cfg = tr.load_checkpoint(tmp_path / "best.ckpt")
        ppl, _, _ = tr.validate(store, cfg, tiny_dataset.valid, np.random.default_rng(0))
        assert ppl == report.best_val_perplexity

    def test_writes_artifacts(self, tiny_dataset, tiny_config, tmp_path):
        tr.train(tiny_config, tiny_train_config(epochs=2), tiny_dataset, tmp_path)
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "train_report.json").exists()
        assert (tmp_path / "kl_trajectory.csv").exists()
        assert (tmp_path / "checkpoint_epoch0001.ckpt").exists()

    def test_best_checkpoint_matches_series_minimum(self, tiny_dataset, tiny_config, tmp_path):
        report = tr.train(tiny_config, tiny_train_config(epochs=6), tiny_dataset, tmp_path)
        observed = [p for p in report.val_perplexity if p is not None]
        assert report.best_val_perplexity == min(observed)
        store, cfg = tr.load_checkpoint(tmp_path / "best.ckpt")
        ppl, _, _ = tr.validate(store, cfg, tiny_dataset.valid, np.random.default_rng(0))
        # the model trains in float32, which the checkpoint stores exactly
        assert ppl == report.best_val_perplexity

    def test_eval_every_fills_gaps_with_none(self, tiny_dataset, tiny_config):
        report = tr.train(tiny_config, tiny_train_config(epochs=4, eval_every=2), tiny_dataset)
        assert len(report.val_perplexity) == 4
        assert report.val_perplexity[0] is None
        assert report.val_perplexity[1] is not None
        assert report.val_perplexity[2] is None

    @pytest.mark.parametrize("split", ["train", "valid"])
    def test_splits_not_bound_to_the_vocabulary_are_refused(self, tiny_dataset, tiny_config, split):
        c = tiny_dataset.split(split)
        stray = BowCorpus(split, c.indptr, c.ids, c.counts, "another")
        with pytest.raises(ValueError, match="not bound to the dataset vocabulary"):
            tr.train(tiny_config, tiny_train_config(), replace(tiny_dataset, **{split: stray}))

    def test_eval_every_beyond_epochs_is_rejected(self, tiny_dataset, tiny_config, tmp_path):
        tr.TrainConfig(epochs=3, eval_every=3).validate()
        with pytest.raises(ValueError, match="eval_every must be <= epochs"):
            tr.TrainConfig(epochs=3, eval_every=5).validate()
        with pytest.raises(ValueError, match="eval_every"):
            tr.train(tiny_config, tiny_train_config(epochs=3, eval_every=5), tiny_dataset, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_max_checkpoints_retention(self, tiny_dataset, tiny_config, tmp_path):
        tr.train(tiny_config, tiny_train_config(epochs=8, max_checkpoints=2), tiny_dataset, tmp_path)
        kept = sorted(tmp_path.glob("checkpoint_epoch*.ckpt"))
        assert len(kept) <= 2
        assert (tmp_path / "best.ckpt").exists()

    def test_one_list_of_improving_epochs_drives_the_files(self, tiny_dataset, tiny_config, tmp_path):
        cfg = tiny_train_config(epochs=12, eval_every=2, max_checkpoints=2)
        report = tr.train(tiny_config, cfg, tiny_dataset, tmp_path)
        evaluated = [
            (epoch, kl, ppl)
            for epoch, kl, ppl in zip(count(1), report.val_kl, report.val_perplexity)
            if ppl is not None
        ]
        points = tr.improving_trajectory(evaluated)
        assert len(points) > 2  # so the bound deletes an epoch file
        assert (tmp_path / "kl_trajectory.csv").read_text() == tr.trajectory_csv(points)
        kept = {p.name for p in tmp_path.glob("*.ckpt")}
        assert kept == {tr.checkpoint_name(epoch) for epoch, _, _ in points[-2:]} | {"best.ckpt"}

    def test_one_encoder_pass_per_validation(self, tiny_dataset, tiny_config, monkeypatch):
        rows = []
        encode = model.encode_mu_logvar

        def counted(x_norm, store):
            rows.append(x_norm.shape[0])
            return encode(x_norm, store)

        monkeypatch.setattr(model, "encode_mu_logvar", counted)
        tr.train(tiny_config, tiny_train_config(epochs=1, eval_every=1), tiny_dataset)
        assert sum(rows) == len(tiny_dataset.train) + len(tiny_dataset.valid)

    def test_clip_norm_caps_the_global_gradient_norm(self, tiny_dataset, tiny_config, monkeypatch):
        norms = []
        adam_update = ad.adam_update

        def recorded(store, state):
            norms.append(store.grad_global_norm())
            adam_update(store, state)

        monkeypatch.setattr(ad, "adam_update", recorded)
        tr.train(tiny_config, tiny_train_config(epochs=2, clip_norm=1e-3), tiny_dataset)
        assert len(norms) == 2 * -(-len(tiny_dataset.train) // 8)
        assert norms == pytest.approx([1e-3] * len(norms), rel=1e-5)

    def test_clip_norm_above_every_norm_changes_nothing(self, tiny_dataset, tiny_config):
        unclipped = tr.train(tiny_config, tiny_train_config(clip_norm=0.0), tiny_dataset)
        loose = tr.train(tiny_config, tiny_train_config(clip_norm=1e9), tiny_dataset)
        assert loose.to_json() == unclipped.to_json()

    def test_unclipped_training_steps_inside_backward_and_leaves_standard_etm_x0_as_drawn(
        self, tiny_dataset, tiny_config, tmp_path, monkeypatch
    ):
        states, backward = [], ad.backward

        def recorded(output, params=None, state=None):
            states.append(state)
            backward(output, params, state)

        monkeypatch.setattr(ad, "backward", recorded)
        cfg = replace(tiny_config, mode="standard_etm")
        tr.train(cfg, tiny_train_config(epochs=2), tiny_dataset, tmp_path)
        state = states[0]
        assert state is not None and all(s is state for s in states)
        assert state.t == len(states)
        drawn = init_params(cfg, tiny_dataset.vocab.V, np.random.default_rng([cfg.seed, 0]))
        best, _ = tr.load_checkpoint(tmp_path / "best.ckpt")
        x0_encoder = {n for n in drawn.names() if n.startswith("diff.")}
        assert x0_encoder
        for name in x0_encoder:
            assert best[name].data.tobytes() == drawn[name].data.tobytes(), name
        assert set(state.m) == set(state.v) == set(drawn.names()) - x0_encoder


@pytest.mark.parametrize("mode", model.MODES)
@pytest.mark.parametrize("name", ["word_emb", "mu.w1", "mu.w3"])
class TestNanParameter:
    def _poison(self, store, name):
        store[name].data[0, 0] = np.nan
        return store

    def test_forward_total_is_not_finite(self, tiny_dataset, tiny_config, mode, name):
        cfg = replace(tiny_config, mode=mode)
        store = self._poison(init_params(cfg, tiny_dataset.vocab.V, np.random.default_rng(1)), name)
        x = dense_counts(tiny_dataset.train, range(8), tiny_dataset.vocab.V, np.float32)
        total = forward_batch(x, store, cfg, np.random.default_rng(2)).total.item()
        assert not np.isfinite(total)

    def test_train_raises_diverged(self, tiny_dataset, tiny_config, mode, name, monkeypatch):
        init = tr.init_params
        monkeypatch.setattr(tr, "init_params", lambda *args: self._poison(init(*args), name))
        with pytest.raises(tr.Diverged, match="epoch 1"):
            tr.train(replace(tiny_config, mode=mode), tiny_train_config(), tiny_dataset)


def uniform_store(config, v):
    store = init_params(config, v, np.random.default_rng(0))
    for _, t in store.items():
        t.data[:] = 0.0
    return store


class TestValidate:
    def test_uniform_model_perplexity_equals_v(self, tiny_dataset, tiny_config, as_float64):
        store = as_float64(uniform_store(tiny_config, tiny_dataset.vocab.V))
        ppl, kl, _ = tr.validate(store, tiny_config, tiny_dataset.valid, np.random.default_rng(2))
        assert ppl == pytest.approx(tiny_dataset.vocab.V, rel=1e-9)
        assert kl == 0.0

    def test_uniform_model_perplexity_equals_v_float32(self, tiny_dataset, tiny_config):
        store = uniform_store(tiny_config, tiny_dataset.vocab.V)
        ppl, kl, _ = tr.validate(store, tiny_config, tiny_dataset.valid, np.random.default_rng(2))
        assert ppl == pytest.approx(tiny_dataset.vocab.V, rel=1e-6)
        assert kl == 0.0

    def test_invariant_to_document_order(self, tiny_dataset, tiny_config):
        store = init_params(tiny_config, tiny_dataset.vocab.V, np.random.default_rng(1))
        ppl1, kl1, _ = tr.validate(store, tiny_config, tiny_dataset.valid, np.random.default_rng(2))
        shuffled = tiny_dataset.valid.take(np.arange(len(tiny_dataset.valid))[::-1])
        ppl2, kl2, _ = tr.validate(store, tiny_config, shuffled, np.random.default_rng(2))
        assert ppl1 == pytest.approx(ppl2, rel=1e-12)
        assert kl1 == pytest.approx(kl2, rel=1e-12)

    def test_one_deterministic_pass_per_document(self, tiny_dataset, tiny_config, monkeypatch):
        monkeypatch.setattr(metrics, "EVAL_BATCH_SIZE", 3)
        store = init_params(tiny_config, tiny_dataset.vocab.V, np.random.default_rng(1))
        expected = tr.validate(store, tiny_config, tiny_dataset.valid, np.random.default_rng(2))
        rows, indices = [], []
        encode, densify = model.encode_mu_logvar, metrics.dense_counts

        def counted(x_norm, store):
            rows.append(x_norm.shape[0])
            return encode(x_norm, store)

        def recorded(corpus, idx, size, dtype):
            indices.extend(idx)
            return densify(corpus, idx, size, dtype)

        monkeypatch.setattr(model, "encode_mu_logvar", counted)
        monkeypatch.setattr(metrics, "dense_counts", recorded)
        got = tr.validate(store, tiny_config, tiny_dataset.valid, np.random.default_rng(2))
        assert got == expected
        assert sum(rows) == len(tiny_dataset.valid)
        assert max(rows) == 3
        assert indices == list(range(len(tiny_dataset.valid)))


class TestRealizedZKl:
    def test_builds_no_loss(self, tiny_dataset, tiny_config, monkeypatch):
        store = init_params(tiny_config, tiny_dataset.vocab.V, np.random.default_rng(1))

        def no_loss(*args):
            raise AssertionError("realized_z_kl built a loss")

        for name in ("reconstruction_loss", "kl_loss", "total_loss"):
            monkeypatch.setattr(model, name, no_loss)
        _, _, latents = metrics.perplexity_and_kl(store, tiny_config, tiny_dataset.valid)
        assert np.isfinite(tr.realized_z_kl(latents, tiny_config, np.random.default_rng(2)))

    def test_same_draws_as_the_training_forward_pass(self, tiny_dataset, tiny_config, monkeypatch):
        monkeypatch.setattr(metrics, "EVAL_BATCH_SIZE", 3)
        for mode in model.MODES:
            cfg = replace(tiny_config, mode=mode)
            store = init_params(cfg, tiny_dataset.vocab.V, np.random.default_rng(1))
            _, _, latents = metrics.perplexity_and_kl(store, cfg, tiny_dataset.valid)
            got = tr.realized_z_kl(latents, cfg, np.random.default_rng(2))
            rng = np.random.default_rng(2)
            with monkeypatch.context() as patch:
                zs = captured(patch, model, "reparameterize")
                n, v = len(tiny_dataset.valid), tiny_dataset.vocab.V
                for start in range(0, n, 3):
                    x = dense_counts(tiny_dataset.valid, range(start, min(start + 3, n)), v, np.float32)
                    forward_batch(x, store, cfg, rng)
            z = np.concatenate([t.data for t in zs])
            var = np.maximum(z.var(axis=0), 1e-12)
            mean = z.mean(axis=0)
            assert got == float(0.5 * (mean ** 2 + var - np.log(var) - 1.0).sum()), mode
            validated = tr.validate(store, cfg, tiny_dataset.valid, np.random.default_rng(2))
            assert validated[2] == got, mode


    def test_standard_etm_draws_z_from_mu_sigma_and_a_plain_normal_stream(self, tiny_dataset, tiny_config):
        cfg = replace(tiny_config, mode="standard_etm")
        store = init_params(cfg, tiny_dataset.vocab.V, np.random.default_rng(1))
        _, _, latents = metrics.perplexity_and_kl(store, cfg, tiny_dataset.valid)
        got = tr.realized_z_kl(latents, cfg, np.random.default_rng(4))
        _, mu, logvar = latents
        n = np.random.default_rng(4).standard_normal(mu.shape).astype(np.float32)
        z = n * np.exp(0.5 * logvar) + mu
        var = np.maximum(z.var(axis=0), 1e-12)
        assert got == float(0.5 * (z.mean(axis=0) ** 2 + var - np.log(var) - 1.0).sum())


class TestKlTrajectory:
    def _report(self, ppls, kls=None):
        r = tr.TrainReport(seed=0, epochs=len(ppls))
        r.val_perplexity = list(ppls)
        r.val_kl = list(kls or range(len(ppls)))
        r.val_z_kl = [0.0] * len(ppls)
        return r

    def _improving(self, report):
        """The improving points among the report's evaluated epochs."""
        return tr.improving_trajectory(
            (epoch, kl, ppl)
            for epoch, kl, ppl in zip(count(1), report.val_kl, report.val_perplexity)
            if ppl is not None
        )

    def test_single_epoch_single_point(self):
        assert self._improving(self._report([100.0])) == [(1, 0, 100.0)]

    def test_improvement_filter(self):
        traj = self._improving(self._report([100.0, 90.0, 95.0, 80.0]))
        assert [p[0] for p in traj] == [1, 2, 4]

    def test_perplexity_column_strictly_decreasing(self):
        traj = self._improving(self._report([50.0, 60.0, 45.0, 45.0, 20.0]))
        ppls = [p[2] for p in traj]
        assert all(a > b for a, b in zip(ppls, ppls[1:]))

    def test_filter_keeps_the_given_epochs(self):
        traj = tr.improving_trajectory([(3, 0.5, 90.0), (7, 0.4, 95.0), (12, 0.3, 80.0)])
        assert traj == [(3, 0.5, 90.0), (12, 0.3, 80.0)]

    def test_skips_unevaluated_epochs(self):
        traj = self._improving(self._report([None, 90.0, None, 85.0]))
        assert [p[0] for p in traj] == [2, 4]

    def test_csv_format(self):
        lines = tr.trajectory_csv(self._improving(self._report([70.0, 60.0]))).splitlines()
        assert lines[0] == "epoch,kl,perplexity"
        assert lines[1].startswith("1,")


class TestCheckpointName:
    def test_round_trip(self):
        assert tr.checkpoint_name(7) == "checkpoint_epoch0007.ckpt"
        for epoch in (1, 42, 9999, 10000, 123456):
            assert tr.checkpoint_epoch(tr.checkpoint_name(epoch)) == epoch

    @pytest.mark.parametrize("name", [
        "checkpoint_epoch0002-old.ckpt", "checkpoint_epoch2.ckpt", "checkpoint_epoch00002.ckpt",
        "checkpoint_epoch.ckpt", "checkpoint_epoch+002.ckpt", "checkpoint_epoch-001.ckpt",
        "checkpoint_epoch\u0660\u0660\u0660\u0662.ckpt", "checkpoint_epoch0002.ckpt.bak", "best.ckpt",
    ])
    def test_any_other_name_is_refused(self, name):
        with pytest.raises(ValueError, match="not an epoch checkpoint name"):
            tr.checkpoint_epoch(name)


class TestCheckpointIO:
    def test_roundtrip_loss_within_float32(self, tiny_dataset, tiny_config, tmp_path):
        v = tiny_dataset.vocab.V
        store = init_params(tiny_config, v, np.random.default_rng(5))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(store, tiny_config, path)
        loaded, loaded_cfg = tr.load_checkpoint(path)
        x = dense_counts(tiny_dataset.valid, range(4), v, np.float32)
        before = forward_batch(x, store, tiny_config).total.item()
        after = forward_batch(x, loaded, replace(loaded_cfg, mode=tiny_config.mode)).total.item()
        assert abs(after - before) / abs(before) <= 1e-5
        assert loaded_cfg.num_topics == tiny_config.num_topics
        assert loaded_cfg.seed == tiny_config.seed

    def test_roundtrip_is_bit_exact_at_float32(self, tiny_config, tmp_path):
        store = init_params(tiny_config, 9, np.random.default_rng(2))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(store, tiny_config, path)
        loaded, _ = tr.load_checkpoint(path)
        for name, t in store.items():
            np.testing.assert_array_equal(
                loaded[name].data, t.data.astype(np.float32).astype(np.float64)
            )

    def test_reload_is_the_float32_model_bit_for_bit(self, tiny_config, tmp_path):
        store = init_params(tiny_config, 9, np.random.default_rng(2))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(store, tiny_config, path)
        loaded, _ = tr.load_checkpoint(path)
        for name, t in store.items():
            assert loaded[name].data.dtype == np.float32
            assert loaded[name].data.tobytes() == t.data.tobytes()

    def test_load_reads_into_the_stores_buffers_and_digests_the_file(self, tmp_path):
        config = ModelConfig(num_topics=8, embed_size=16, hidden_size=64, seed=1)
        store = init_params(config, 3000, np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(store, config, path)
        size = path.stat().st_size
        digest = hashlib.sha256()
        tracemalloc.start()
        try:
            loaded, _ = tr.load_checkpoint(path, digest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
        # each array is read once, into the buffer the store keeps: no copy of the file
        assert peak < 1.25 * size
        for name, t in store.items():
            assert loaded[name].data.flags.owndata and loaded[name].data.flags.writeable
            assert loaded[name].data.tobytes() == t.data.tobytes()

    def test_extra_parameter(self, tiny_config, tmp_path):
        store = init_params(tiny_config, 9, np.random.default_rng(2))
        store.add("stray", np.ones((2, 3), dtype=np.float32))
        path, _ = self._saved(tmp_path, tiny_config, store)
        with pytest.raises(tr.CorruptCheckpoint, match="unexpected parameter 'stray'"):
            tr.load_checkpoint(path)

    def test_truncated_file(self, tiny_config, tmp_path):
        store = init_params(tiny_config, 9, np.random.default_rng(2))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(store, tiny_config, path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(tr.CorruptCheckpoint):
            tr.load_checkpoint(path)

    def test_version_bump_names_version(self, tiny_config, tmp_path):
        store = init_params(tiny_config, 9, np.random.default_rng(2))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(store, tiny_config, path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(tr.CorruptCheckpoint, match="version 99"):
            tr.load_checkpoint(path)

    def test_a_failed_save_leaves_the_old_file_and_no_temp(self, tiny_config, tmp_path, monkeypatch):
        store = init_params(tiny_config, 9, np.random.default_rng(2))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(store, tiny_config, path)
        before = path.read_bytes()

        def fail(store, config, tmp):
            tmp.write_bytes(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(tr, "_write_checkpoint", fail)
        with pytest.raises(OSError, match="disk full"):
            tr.save_checkpoint(store, tiny_config, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_float64_store_is_saved_as_float32(self, tiny_config, tmp_path):
        store = init_params(tiny_config, 9, np.random.default_rng(2))
        wide = ad.ParamStore()
        for name, t in store.items():
            wide.add(name, t.data.astype(np.float64))
        tr.save_checkpoint(store, tiny_config, tmp_path / "a.ckpt")
        tr.save_checkpoint(wide, tiny_config, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    NAME0 = 8 + 4 + struct.calcsize("<IIIIdddBq") + 4  # first name-length field

    def _saved(self, tmp_path, config, store=None):
        store = init_params(config, 9, np.random.default_rng(2)) if store is None else store
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(store, config, path)
        return path, bytearray(path.read_bytes())

    def test_name_length_checked_before_decoding(self, tiny_config, tmp_path):
        path, raw = self._saved(tmp_path, tiny_config)
        struct.pack_into("<I", raw, self.NAME0, len(raw))
        path.write_bytes(bytes(raw))
        with pytest.raises(tr.CorruptCheckpoint, match="truncated name block"):
            tr.load_checkpoint(path)

    def test_name_not_utf8(self, tiny_config, tmp_path):
        path, raw = self._saved(tmp_path, tiny_config)
        raw[self.NAME0 + 4] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(tr.CorruptCheckpoint, match="utf-8"):
            tr.load_checkpoint(path)

    def test_duplicate_name(self, tiny_config, tmp_path):
        path, raw = self._saved(tmp_path, tiny_config)
        # the second parameter, diff.b1, is renamed diff.w1
        second = self.NAME0 + 4 + len(b"diff.w1") + 8 + 4 * 9 * tiny_config.hidden_size
        assert raw[second + 4:second + 11] == b"diff.b1"
        raw[second + 4:second + 11] = b"diff.w1"
        path.write_bytes(bytes(raw))
        with pytest.raises(tr.CorruptCheckpoint, match="duplicate"):
            tr.load_checkpoint(path)

    def test_missing_parameter(self, tiny_config, tmp_path):
        full = init_params(tiny_config, 9, np.random.default_rng(2))
        store = ad.ParamStore()
        for name, t in full.items():
            if name != "topic_emb":
                store.add(name, t.data)
        path, _ = self._saved(tmp_path, tiny_config, store)
        with pytest.raises(tr.CorruptCheckpoint, match="topic_emb"):
            tr.load_checkpoint(path)

    def test_missing_word_emb(self, tiny_config, tmp_path):
        # the vocabulary size is read from word_emb, so it is checked before the shapes
        store = init_params(tiny_config, 9, np.random.default_rng(2))
        lean = ad.ParamStore()
        for name, t in store.items():
            if name != "word_emb":
                lean.add(name, t.data)
        path, _ = self._saved(tmp_path, tiny_config, lean)
        with pytest.raises(tr.CorruptCheckpoint, match="missing parameter 'word_emb'"):
            tr.load_checkpoint(path)

    MODE = 8 + 4 + struct.calcsize("<IIIIddd")  # the mode byte of the config block

    @pytest.mark.parametrize("code", [3, 255])
    def test_a_mode_code_past_the_modes_is_refused(self, tiny_config, tmp_path, code):
        path, raw = self._saved(tmp_path, tiny_config)
        assert raw[self.MODE] == model.MODES.index(tiny_config.mode)
        raw[self.MODE] = code
        path.write_bytes(bytes(raw))
        with pytest.raises(tr.CorruptCheckpoint, match=f"mode code {code} names no mode"):
            tr.load_checkpoint(path)

    def test_trailing_bytes_are_refused(self, tiny_config, tmp_path):
        path, raw = self._saved(tmp_path, tiny_config)
        path.write_bytes(bytes(raw) + b"\0\0\0")
        with pytest.raises(tr.CorruptCheckpoint, match="3 trailing bytes"):
            tr.load_checkpoint(path)

    def test_invalid_config(self, tiny_config, tmp_path):
        store = init_params(tiny_config, 9, np.random.default_rng(2))
        path, _ = self._saved(tmp_path, replace(tiny_config, beta_end=2.0), store)
        with pytest.raises(tr.CorruptCheckpoint, match="beta_end"):
            tr.load_checkpoint(path)

    def test_negative_seed(self, tiny_config, tmp_path):
        store = init_params(tiny_config, 9, np.random.default_rng(2))
        path, _ = self._saved(tmp_path, replace(tiny_config, seed=-1), store)
        with pytest.raises(tr.CorruptCheckpoint, match="seed"):
            tr.load_checkpoint(path)

    # every header field differs from its default, the seed fills all 63 bits
    # of its signed field; the hash pins the v1 bytes
    GOLDEN_CONFIG = ModelConfig(
        num_topics=2, embed_size=2, hidden_size=2, diff_steps=7, beta_start=0.01,
        beta_end=0.03, kl_weight=0.5, mode="standard_etm", seed=2**63 - 5,
    )
    GOLDEN_SHA256 = "92e41b4c792b868cef7384c60d15413b4aba2e4fe61adff2bb2bea87040a04f5"

    def test_golden_checkpoint(self, tmp_path):
        store = ad.ParamStore()
        for i, (name, shape) in enumerate(model.param_shapes(self.GOLDEN_CONFIG, 3).items()):
            store.add(name, (np.arange(shape[0] * shape[1], dtype=np.float32).reshape(shape) - i) / 8)
        path = tmp_path / "golden.ckpt"
        tr.save_checkpoint(store, self.GOLDEN_CONFIG, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN_SHA256
        loaded, config = tr.load_checkpoint(path)
        assert config == self.GOLDEN_CONFIG
        for name, t in store.items():
            assert loaded[name].data.tobytes() == t.data.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 40)
        with pytest.raises(tr.CorruptCheckpoint, match="magic"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_first_such_parameter(self, tiny_config, tmp_path, value):
        store = init_params(tiny_config, 9, np.random.default_rng(2))
        store["word_emb"].data[-1, -1] = value
        store["topic_emb"].data[0, 0] = value
        names = [name for name, _ in store.items()]
        first = min(("word_emb", "topic_emb"), key=names.index)
        path = tmp_path / "model.ckpt"
        # save_checkpoint refuses such a store, so the file is written directly
        tr._write_checkpoint(store, tiny_config, path)
        with pytest.raises(tr.CorruptCheckpoint, match=f"parameter '{first}' holds a non-finite value"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "f32-overflow"])
    def test_a_non_finite_store_is_refused_before_any_write(self, tiny_config, tmp_path, value):
        store = init_params(tiny_config, 9, np.random.default_rng(2))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(store, tiny_config, path)
        before = path.read_bytes()
        wide = ad.ParamStore()
        for name, t in store.items():
            wide.add(name, t.data.astype(np.float64))
        wide["word_emb"].data[-1, -1] = value
        wide["topic_emb"].data[0, 0] = value
        first = min(("word_emb", "topic_emb"), key=wide.names().index)
        # a float64 value beyond float32's range would be stored as inf
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=f"^{re.escape(str(path))}: parameter '{first}' holds a non-finite value$"
        ):
            tr.save_checkpoint(wide, tiny_config, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory) -> bytes:
    """The bytes of a small valid checkpoint: V=3, K=2, E=2, H=2."""
    config = ModelConfig(num_topics=2, embed_size=2, hidden_size=2, seed=1)
    path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    tr.save_checkpoint(init_params(config, 3, np.random.default_rng(0)), config, path)
    return path.read_bytes()


def _load_or_reject(tmp_path_factory, data: bytes) -> None:
    """Load data as a checkpoint: it either raises CorruptCheckpoint or
    gives a finite store whose shapes fit its config."""
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.ckpt"
    path.write_bytes(data)
    try:
        store, config = tr.load_checkpoint(path)
    except tr.CorruptCheckpoint:
        return
    model.check_param_shapes(store, config, model.store_vocab_size(store))
    assert all(np.isfinite(t.data).all() for _, t in store.items())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_truncated_checkpoint_is_rejected(tmp_path_factory, small_checkpoint, data):
    cut = data.draw(st.integers(0, len(small_checkpoint) - 1))
    _load_or_reject(tmp_path_factory, small_checkpoint[:cut])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_checkpoint_byte_flip_loads_or_is_rejected(tmp_path_factory, small_checkpoint, data):
    flipped = bytearray(small_checkpoint)
    flipped[data.draw(st.integers(0, len(flipped) - 1))] ^= data.draw(st.integers(1, 255))
    _load_or_reject(tmp_path_factory, bytes(flipped))


def test_checkpoint_step_count_above_the_bound_is_rejected(tmp_path, small_checkpoint):
    """The header that once sized a 22 GiB noise schedule: byte 27 is the
    high byte of diff_steps."""
    flipped = bytearray(small_checkpoint)
    flipped[27] ^= 0xB0
    assert struct.unpack_from("<I", flipped, 24) == (2952790116,)
    path = tmp_path / "steps.ckpt"
    path.write_bytes(bytes(flipped))
    with pytest.raises(tr.CorruptCheckpoint, match="steps"):
        tr.load_checkpoint(path)


def test_single_batch_isolation(tiny_dataset, tiny_config):
    """A parameter whose loss path a batch never touches must not move."""
    # standard_etm never routes gradients through the diffusion encoder
    cfg = replace(tiny_config, mode="standard_etm")
    v = tiny_dataset.vocab.V
    report_cfg = tiny_train_config(epochs=2)
    tr.train(cfg, report_cfg, tiny_dataset)  # smoke: runs
    store = init_params(cfg, v, np.random.default_rng([cfg.seed, 0]))
    frozen = {n: store[n].data.copy() for n in store.names() if n.startswith("diff.")}
    import diffetm.autodiff as ad

    x = dense_counts(tiny_dataset.train, range(6), v, np.float32)
    adam = ad.AdamState(lr=0.05)
    for _ in range(3):
        result = forward_batch(x, store, cfg, np.random.default_rng(0))
        ad.backward(result.total)
        ad.adam_update(store, adam)
    for name, before in frozen.items():
        np.testing.assert_array_equal(store[name].data, before)
    # while parameters on the loss path did move
    assert not np.array_equal(store["mu.w1"].data, init_params(cfg, v, np.random.default_rng([cfg.seed, 0]))["mu.w1"].data)
