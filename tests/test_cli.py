import json
from pathlib import Path

import numpy as np
import pytest

from diffetm import cli
from diffetm.model import ModelConfig
from diffetm.trainer import TrainConfig
from diffetm.synth import write_split_files


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small ingestable corpus plus a base config file."""
    root = tmp_path_factory.mktemp("cli")
    write_split_files(
        root / "raw", 60, 15, 15, vocab_size=40, n_topics=4, seed=3,
        doc_len_range=(10, 30), topic_concentration=0.2,
    )
    cfg = {
        "train_file": str(root / "raw/train.txt"),
        "valid_file": str(root / "raw/valid.txt"),
        "test_file": str(root / "raw/test.txt"),
        "min_df": 2,
        "corpus_dir": str(root / "corpus"),
        "num_topics": 4,
        "embed_size": 6,
        "hidden_size": 12,
        "epochs": 3,
        "batch_size": 16,
        "learning_rate": 0.02,
        "deterministic": True,
        "output_dir": str(root / "runs"),
        "sweep_t_values": [0, 100],
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    run_dir = root / "runs" / cli.run_id_of(cli.load_config(str(cfg_path)))
    return {"root": root, "cfg": cfg, "cfg_path": cfg_path, "run_dir": run_dir}


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"number_of_topics": 5}))
        with pytest.raises(cli.ConfigError, match="number_of_topics"):
            cli.load_config(str(path))

    def test_type_error_names_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"min_df": "three"}))
        with pytest.raises(cli.ConfigError, match="min_df"):
            cli.load_config(str(path))

    def test_unknown_preset(self):
        with pytest.raises(cli.ConfigError, match="preset"):
            cli.load_config(preset="imaginary")

    def test_presets_carry_reference_hyperparameters(self):
        cfg = cli.load_config(preset="20ng-k50")
        assert cfg["num_topics"] == 50
        assert cfg["learning_rate"] == 0.008
        assert cfg["batch_size"] == 1000
        assert cfg["embed_size"] == 300
        assert cfg["diff_steps"] == 100
        assert cfg["beta_end"] == 0.02
        assert cfg["kl_weight"] == 1.0
        cfg = cli.load_config(preset="nyt-5000")
        assert cfg["min_df"] == 5000
        assert cfg["learning_rate"] == 0.007
        assert cfg["batch_size"] == 512

    def test_flag_overrides_config(self, workspace):
        cfg = cli.load_config(str(workspace["cfg_path"]), overrides={"seed": 9})
        assert cfg["seed"] == 9

    def test_run_id_stable_and_config_sensitive(self, workspace):
        cfg1 = cli.load_config(str(workspace["cfg_path"]))
        cfg2 = cli.load_config(str(workspace["cfg_path"]))
        assert cli.run_id_of(cfg1) == cli.run_id_of(cfg2)
        cfg2["seed"] += 1
        assert cli.run_id_of(cfg1) != cli.run_id_of(cfg2)

    def test_model_defaults_are_the_dataclass_defaults(self):
        assert cli.model_config_of(cli.load_config()) == ModelConfig()

    def test_train_defaults_are_the_dataclass_defaults(self):
        train_config = cli.train_config_of(cli.load_config(), Path("runs/x"))
        assert train_config == TrainConfig(output_dir="runs/x")

    def test_missing_config_file(self):
        with pytest.raises(cli.ConfigError, match="not found"):
            cli.load_config("/nonexistent/config.json")


class TestIngestCommand:
    def test_artifacts_written(self, workspace):
        corpus_dir = workspace["root"] / "corpus"
        for name in ("vocab.tsv", "train.corpus", "valid.corpus", "test.corpus",
                     "ingest_report.json", "manifest.json"):
            assert (corpus_dir / name).exists(), name

    def test_rerun_is_bitwise_identical(self, workspace, capsys):
        corpus_dir = workspace["root"] / "corpus"
        before = {p.name: p.read_bytes() for p in corpus_dir.iterdir()}
        assert cli.main(["ingest", "--config", str(workspace["cfg_path"])]) == 0
        after = {p.name: p.read_bytes() for p in corpus_dir.iterdir()}
        assert before == after

    def test_missing_input_fails_before_output(self, tmp_path):
        cfg = {"train_file": str(tmp_path / "nope.txt"), "valid_file": "x", "test_file": "y",
               "corpus_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["ingest", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_higher_min_df_gives_smaller_vocab(self, workspace, tmp_path):
        base = dict(workspace["cfg"])
        sizes = {}
        for min_df in (2, 6):
            cfg = dict(base, min_df=min_df, corpus_dir=str(tmp_path / f"c{min_df}"))
            p = tmp_path / f"cfg{min_df}.json"
            p.write_text(json.dumps(cfg))
            assert cli.main(["ingest", "--config", str(p)]) == 0
            report = json.loads((tmp_path / f"c{min_df}" / "ingest_report.json").read_text())
            sizes[min_df] = report["vocab_size"]
        assert sizes[6] < sizes[2]


class TestTrainCommand:
    def test_artifacts(self, workspace):
        run_dir = workspace["run_dir"]
        assert (run_dir / "best.ckpt").exists()
        assert (run_dir / "train_report.json").exists()
        assert (run_dir / "kl_trajectory.csv").exists()
        assert (run_dir / "manifest.json").exists()

    def test_manifest_hashes_artifacts(self, workspace):
        manifest = json.loads((workspace["run_dir"] / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert "train_report.json" in manifest["artifacts"]
        assert all(len(h) == 64 for h in manifest["artifacts"].values())
        assert manifest["config"]["num_topics"] == 4

    def test_deterministic_rerun_identical_artifacts(self, workspace):
        run_dir = workspace["run_dir"]
        report_before = (run_dir / "train_report.json").read_bytes()
        ckpt_before = (run_dir / "best.ckpt").read_bytes()
        assert cli.main(["train", "--config", str(workspace["cfg_path"])]) == 0
        assert (run_dir / "train_report.json").read_bytes() == report_before
        assert (run_dir / "best.ckpt").read_bytes() == ckpt_before


    def test_diverged_rerun_manifest_excludes_itself(self, workspace, tmp_path):
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps({
            **workspace["cfg"], "learning_rate": 1e9, "epochs": 60, "output_dir": str(tmp_path / "runs"),
        }))
        assert cli.main(["train", "--config", str(path)]) == 1
        assert cli.main(["train", "--config", str(path)]) == 1
        run_dir = tmp_path / "runs" / cli.run_id_of(cli.load_config(str(path)))
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "train_report.json" in manifest["artifacts"]
        assert "manifest.json" not in manifest["artifacts"]


class TestEvalCommand:
    def test_eval_and_quality_invariant(self, workspace):
        ckpt = workspace["run_dir"] / "best.ckpt"
        assert cli.main(["eval", "--config", str(workspace["cfg_path"]), "--checkpoint", str(ckpt)]) == 0
        out_dir = workspace["root"] / "runs" / f"eval_{cli.run_id_of(cli.load_config(str(workspace['cfg_path'])))}"
        report = json.loads((out_dir / "metrics_report.json").read_text())
        assert report["quality"] == pytest.approx(report["coherence"] * report["diversity"], abs=1e-12)
        words = (out_dir / "top_words.tsv").read_text().splitlines()
        assert words[0] == "topic_id\trank\ttoken\tprobability"
        vocab_size = len((workspace["root"] / "corpus" / "vocab.tsv").read_text().splitlines()) - 1
        n_topics = report["config"]["num_topics"]
        assert len(words) == 1 + n_topics * min(25, vocab_size)

    def test_same_checkpoint_twice_identical_report(self, workspace):
        ckpt = workspace["run_dir"] / "best.ckpt"
        args = ["eval", "--config", str(workspace["cfg_path"]), "--checkpoint", str(ckpt)]
        assert cli.main(args) == 0
        out_dir = workspace["root"] / "runs" / f"eval_{cli.run_id_of(cli.load_config(str(workspace['cfg_path'])))}"
        first = (out_dir / "metrics_report.json").read_bytes()
        assert cli.main(args) == 0
        assert (out_dir / "metrics_report.json").read_bytes() == first

    def test_vocabulary_mismatch_guard(self, workspace, tmp_path):
        # ingest a differently pruned corpus, then point eval at it
        cfg = dict(workspace["cfg"], min_df=6, corpus_dir=str(tmp_path / "other"))
        p = tmp_path / "other.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["ingest", "--config", str(p)]) == 0
        ckpt = workspace["run_dir"] / "best.ckpt"
        assert cli.main(["eval", "--config", str(p), "--checkpoint", str(ckpt)]) == 1

    def test_missing_checkpoint(self, workspace):
        rc = cli.main([
            "eval", "--config", str(workspace["cfg_path"]), "--checkpoint", "/nope.ckpt",
        ])
        assert rc == 2


class TestTopicsCommand:
    def test_writes_tsv(self, workspace):
        ckpt = workspace["run_dir"] / "best.ckpt"
        assert cli.main(["topics", "--config", str(workspace["cfg_path"]), "--checkpoint", str(ckpt)]) == 0
        out_dir = workspace["root"] / "runs" / f"topics_{cli.run_id_of(cli.load_config(str(workspace['cfg_path'])))}"
        lines = (out_dir / "top_words.tsv").read_text().splitlines()
        assert lines[0] == "topic_id\trank\ttoken\tprobability"
        assert len(lines) > 1


class TestSweepCommand:
    def test_sweep_rows_and_t0_equivalence(self, workspace):
        assert cli.main(["sweep-t", "--config", str(workspace["cfg_path"])]) == 0
        sweep_dir = workspace["root"] / "runs" / f"sweep_{cli.run_id_of(cli.load_config(str(workspace['cfg_path'])))}"
        lines = (sweep_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "T,coherence,diversity,quality,perplexity"
        assert len(lines) == 3  # T in {0, 100}
        assert lines[1].startswith("0,")
        assert lines[2].startswith("100,")

        # T=0 must equal a no_diffusion run with the same seed, bitwise
        nd_cfg = dict(workspace["cfg"], mode="no_diffusion",
                      output_dir=str(workspace["root"] / "runs_nd"))
        p = workspace["root"] / "nd.json"
        p.write_text(json.dumps(nd_cfg))
        assert cli.main(["train", "--config", str(p)]) == 0
        nd_run = workspace["root"] / "runs_nd" / cli.run_id_of(cli.load_config(str(p)))
        nd_report = json.loads((nd_run / "train_report.json").read_text())
        t0_report = json.loads((sweep_dir / "t0000" / "train_report.json").read_text())
        assert nd_report["train_total"] == t0_report["train_total"]
        assert nd_report["val_perplexity"] == t0_report["val_perplexity"]


class TestKlTestCommand:
    def test_trajectory_strictly_decreasing(self, workspace):
        rc = cli.main([
            "kl-test", "--config", str(workspace["cfg_path"]),
            "--run-dir", str(workspace["run_dir"]),
        ])
        assert rc == 0
        lines = (workspace["run_dir"] / "kl_test.csv").read_text().splitlines()
        assert lines[0] == "epoch,kl,perplexity"
        ppls = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(a > b for a, b in zip(ppls, ppls[1:]))

    def test_missing_run_dir(self, workspace):
        rc = cli.main([
            "kl-test", "--config", str(workspace["cfg_path"]), "--run-dir", "/nope",
        ])
        assert rc == 2
