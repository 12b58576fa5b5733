import struct
from dataclasses import replace

import numpy as np
import pytest

from diffetm import autodiff as ad
from diffetm import model
from diffetm import trainer as tr
from diffetm.corpus import dense_counts
from diffetm.model import ModelConfig, forward_batch, init_params


def tiny_train_config(tmp_path=None, **kwargs):
    defaults = dict(
        epochs=3, batch_size=8, learning_rate=0.02, deterministic=True,
        output_dir=None if tmp_path is None else str(tmp_path),
    )
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

    def test_divergence_raises_with_partial_report(self, tiny_dataset, tiny_config):
        # absurd learning rate forces non-finite loss quickly
        cfg = tiny_train_config(epochs=60, learning_rate=1e9)
        with pytest.raises(tr.Diverged) as excinfo:
            tr.train(tiny_config, cfg, tiny_dataset)
        assert excinfo.value.report is not None

    def test_writes_artifacts(self, tiny_dataset, tiny_config, tmp_path):
        tr.train(tiny_config, tiny_train_config(tmp_path, epochs=2), tiny_dataset)
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "train_report.json").exists()
        assert (tmp_path / "kl_trajectory.csv").exists()
        assert (tmp_path / "checkpoint_epoch0001.ckpt").exists()

    def test_best_checkpoint_matches_series_minimum(self, tiny_dataset, tiny_config, tmp_path):
        report = tr.train(tiny_config, tiny_train_config(tmp_path, epochs=6), tiny_dataset)
        observed = [p for p in report.val_perplexity if p is not None]
        assert report.best_val_perplexity == min(observed)
        store, cfg = tr.load_checkpoint(tmp_path / "best.ckpt")
        ppl, _ = tr.validate(store, cfg, tiny_dataset.valid)
        # float32 storage rounds the loaded parameters
        assert abs(ppl - report.best_val_perplexity) / report.best_val_perplexity < 1e-4

    def test_eval_every_fills_gaps_with_none(self, tiny_dataset, tiny_config):
        report = tr.train(tiny_config, tiny_train_config(epochs=4, eval_every=2), tiny_dataset)
        assert len(report.val_perplexity) == 4
        assert report.val_perplexity[0] is None
        assert report.val_perplexity[1] is not None
        assert report.val_perplexity[2] is None

    def test_max_checkpoints_retention(self, tiny_dataset, tiny_config, tmp_path):
        tr.train(tiny_config, tiny_train_config(tmp_path, epochs=8, max_checkpoints=2), tiny_dataset)
        kept = sorted(tmp_path.glob("checkpoint_epoch*.ckpt"))
        assert len(kept) <= 2
        assert (tmp_path / "best.ckpt").exists()


class TestValidate:
    def test_uniform_model_perplexity_equals_v(self, tiny_dataset, tiny_config):
        store = init_params(tiny_config, tiny_dataset.vocab.V, np.random.default_rng(0))
        for _, t in store.items():
            t.data[:] = 0.0
        ppl, kl = tr.validate(store, tiny_config, tiny_dataset.valid)
        assert ppl == pytest.approx(tiny_dataset.vocab.V, rel=1e-9)
        assert kl == 0.0

    def test_invariant_to_document_order(self, tiny_dataset, tiny_config):
        store = init_params(tiny_config, tiny_dataset.vocab.V, np.random.default_rng(1))
        ppl1, kl1 = tr.validate(store, tiny_config, tiny_dataset.valid)
        shuffled = replace_docs(tiny_dataset.valid, list(reversed(tiny_dataset.valid.docs)))
        ppl2, kl2 = tr.validate(store, tiny_config, shuffled)
        assert ppl1 == pytest.approx(ppl2, rel=1e-12)
        assert kl1 == pytest.approx(kl2, rel=1e-12)

    def test_one_deterministic_pass_per_document(self, tiny_dataset, tiny_config, monkeypatch):
        store = init_params(tiny_config, tiny_dataset.vocab.V, np.random.default_rng(1))
        expected = tr.validate(store, tiny_config, tiny_dataset.valid, batch_size=3)
        rows = []
        encode = model.encode_mu_logvar

        def counted(x_norm, store):
            rows.append(x_norm.rows)
            return encode(x_norm, store)

        monkeypatch.setattr(model, "encode_mu_logvar", counted)
        assert tr.validate(store, tiny_config, tiny_dataset.valid, batch_size=3) == expected
        assert sum(rows) == len(tiny_dataset.valid)


def replace_docs(corpus, docs):
    from diffetm.corpus import BowCorpus

    return BowCorpus(split=corpus.split, docs=docs, vocab_ref=corpus.vocab_ref)


class TestKlTrajectory:
    def _report(self, ppls, kls=None):
        r = tr.TrainReport(seed=0, epochs=len(ppls))
        r.val_perplexity = list(ppls)
        r.val_kl = list(kls or range(len(ppls)))
        r.val_z_kl = [0.0] * len(ppls)
        return r

    def test_single_epoch_single_point(self):
        traj = tr.log_kl_trajectory(self._report([100.0]))
        assert traj.points == [(1, 0, 100.0)]

    def test_improvement_filter(self):
        traj = tr.log_kl_trajectory(self._report([100.0, 90.0, 95.0, 80.0]))
        assert [p[0] for p in traj.points] == [1, 2, 4]

    def test_perplexity_column_strictly_decreasing(self):
        traj = tr.log_kl_trajectory(self._report([50.0, 60.0, 45.0, 45.0, 20.0]))
        ppls = [p[2] for p in traj.points]
        assert all(a > b for a, b in zip(ppls, ppls[1:]))

    def test_filter_keeps_the_given_epochs(self):
        traj = tr.improving_trajectory([(3, 0.5, 90.0), (7, 0.4, 95.0), (12, 0.3, 80.0)])
        assert traj.points == [(3, 0.5, 90.0), (12, 0.3, 80.0)]

    def test_skips_unevaluated_epochs(self):
        traj = tr.log_kl_trajectory(self._report([None, 90.0, None, 85.0]))
        assert [p[0] for p in traj.points] == [2, 4]

    def test_csv_format(self, tmp_path):
        path = tmp_path / "traj.csv"
        tr.log_kl_trajectory(self._report([70.0, 60.0]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,kl,perplexity"
        assert lines[1].startswith("1,")


class TestCheckpointIO:
    def test_roundtrip_loss_within_float32(self, tiny_dataset, tiny_config, tmp_path):
        v = tiny_dataset.vocab.V
        store = init_params(tiny_config, v, np.random.default_rng(5))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(store, tiny_config, path)
        loaded, loaded_cfg = tr.load_checkpoint(path)
        x = dense_counts(tiny_dataset.valid, range(4), v)
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

    def test_invalid_config(self, tiny_config, tmp_path):
        store = init_params(tiny_config, 9, np.random.default_rng(2))
        path, _ = self._saved(tmp_path, replace(tiny_config, beta_end=2.0), store)
        with pytest.raises(tr.CorruptCheckpoint, match="beta_end"):
            tr.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 40)
        with pytest.raises(tr.CorruptCheckpoint, match="magic"):
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

    x = dense_counts(tiny_dataset.train, range(6), v)
    adam = ad.AdamState(lr=0.05)
    for _ in range(3):
        result = forward_batch(x, store, cfg, np.random.default_rng(0))
        ad.backward(result.total)
        ad.adam_update(store, adam)
    for name, before in frozen.items():
        np.testing.assert_array_equal(store[name].data, before)
    # while parameters on the loss path did move
    assert not np.array_equal(store["mu.w1"].data, init_params(cfg, v, np.random.default_rng([cfg.seed, 0]))["mu.w1"].data)
