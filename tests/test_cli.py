import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
import scipy

from diffetm import cli
from diffetm.model import ModelConfig
from diffetm.trainer import TrainConfig, _write_checkpoint, load_checkpoint
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


# one epoch of one batch: the loss is finite, but the Adam step leaves
# parameters whose validation perplexity and KL are not
ONE_HUGE_STEP = {"epochs": 1, "batch_size": 1000, "learning_rate": 1e6}


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
        assert cli.train_config_of(cli.load_config()) == TrainConfig()

    def test_every_dataclass_field_is_a_config_key_of_its_type_and_default(self, workspace, tmp_path, capsys):
        wrong = {int: 1.5, float: "0.5", str: 3, bool: 1}
        for cls in (ModelConfig, TrainConfig):
            hints = get_type_hints(cls)
            for f in fields(cls):
                assert cli.CONFIG_SCHEMA[f.name] == (hints[f.name], f.default)
                path = tmp_path / f"{f.name}.json"
                path.write_text(json.dumps({
                    **workspace["cfg"], "output_dir": str(tmp_path / "runs"), f.name: wrong[hints[f.name]],
                }))
                assert cli.main(["train", "--config", str(path)]) == 2
                assert f"config key {f.name!r}: expected" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_missing_config_file(self):
        with pytest.raises(cli.ConfigError, match="not found"):
            cli.load_config("/nonexistent/config.json")

    @pytest.mark.parametrize("key,value,named", [
        ("beta_end", 1.5, "beta_end"),
        ("diff_steps", -1, "steps"),
        ("epochs", 0, "epochs"),
        ("mode", "bogus", "mode"),
        ("num_topics", 1, "num_topics"),
        ("split_fractions", [0.5, 0.5, 0.5], "fractions"),
        ("split_fractions", [0.8, 0.2], "fractions"),
        ("split_fractions", [0.8, "a", 0.1], "fractions"),
        ("min_df", 0, "min_df"),
        ("eval_split", "dev", "eval_split"),
        ("top_words_export", -3, "top_words_export"),
        ("max_checkpoints", -1, "max_checkpoints"),
        ("clip_norm", -0.5, "clip_norm"),
        ("learning_rate", math.nan, "learning_rate"),
        ("kl_weight", math.nan, "kl_weight"),
        ("diff_steps", 3_000_000_000, "steps"),
        ("sweep_t_values", [0, 10_001], "sweep_t_values"),
        ("learning_rate", math.inf, "learning_rate"),
        ("kl_weight", math.inf, "kl_weight"),
        ("clip_norm", math.inf, "clip_norm"),
        ("beta_start", -math.inf, "beta_start"),
        ("eval_every", 5, "eval_every"),
        ("seed", -1, "seed"),
        ("seed", 2**63, "seed"),
        ("split_seed", -1, "split_seed"),
        ("split_fractions", 0.8, "'split_fractions': expected a list"),
        ("output_dir", None, "'output_dir': expected a directory, got null"),
    ])
    def test_bad_value_exits_2_before_any_directory(self, workspace, tmp_path, capsys, key, value, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**workspace["cfg"], "output_dir": str(tmp_path / "runs"), key: value}))
        with pytest.raises(cli.ConfigError, match=named):
            cli.load_config(str(path))
        assert cli.main(["train", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_negative_seed_flag_exits_2_before_any_directory(self, workspace, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**workspace["cfg"], "output_dir": str(tmp_path / "runs")}))
        assert cli.main(["train", "--config", str(path), "--seed", "-1"]) == 2
        assert "seed must be in [0, 2**63)" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("case,named", [
        ("config", "config file not found: ."),
        ("checkpoint", "checkpoint not found: ."),
        ("train_file", "config key 'train_file': file not found: ."),
        ("stopword_file", "config key 'stopword_file': file not found: stop.txt"),
        ("vocab.tsv", "no vocab.tsv under corpus; run ingest first"),
    ], ids=["config", "checkpoint", "train_file", "stopword_file", "vocab.tsv"])
    def test_a_path_that_names_no_file_exits_2_before_any_directory(
        self, workspace, tmp_path, monkeypatch, capsys, case, named
    ):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)  # "." is a directory; relative outputs would land here
        cfg = {**workspace["cfg"], "output_dir": "runs"}
        if case in ("train_file", "stopword_file"):
            cfg.update({"corpus_dir": "corpus", case: "." if case == "train_file" else "stop.txt"})
        if case == "vocab.tsv":  # a corpus directory whose vocab.tsv is a directory
            (cwd / "corpus" / "vocab.tsv").mkdir(parents=True)
            cfg["corpus_dir"] = "corpus"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = {
            "config": ["train", "--config", "."],
            "checkpoint": ["eval", "--config", str(path), "--checkpoint", "."],
            "vocab.tsv": ["train", "--config", str(path)],
        }.get(case, ["ingest", "--config", str(path)])
        assert cli.main(argv) == 2
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in cwd.iterdir()) == (["corpus"] if case == "vocab.tsv" else [])

    @pytest.mark.parametrize("body,named", [
        (b'{"min_df": 3,}', "is not valid JSON"),
        (b'{"min_df": 3\xff}', "is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
        (b"[3]", "must hold a JSON object"),
    ], ids=["syntax", "not-utf8", "array"])
    def test_a_config_file_without_a_json_object_exits_2_before_any_directory(
        self, tmp_path, monkeypatch, capsys, body, named
    ):
        monkeypatch.chdir(tmp_path)  # where the default output_dir, runs, would go
        (tmp_path / "cfg.json").write_bytes(body)
        assert cli.main(["train", "--config", "cfg.json"]) == 2
        assert f"error: config file cfg.json {named}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_a_command_without_corpus_dir_exits_2_before_any_directory(self, workspace, tmp_path, capsys):
        cfg = {k: v for k, v in workspace["cfg"].items() if k != "corpus_dir"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "output_dir": str(tmp_path / "runs")}))
        assert cli.main(["train", "--config", str(path)]) == 2
        assert "config key 'corpus_dir' is required for this command" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_integer_too_large_for_a_float_is_a_config_error(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"learning_rate": 1' + "0" * 400 + "}")
        with pytest.raises(cli.ConfigError, match="learning_rate"):
            cli.load_config(str(path))

    def test_null_output_dir_exits_2_without_a_traceback(self, workspace, tmp_path):
        path = tmp_path / "null.json"
        path.write_text(json.dumps({**workspace["cfg"], "output_dir": None}))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "diffetm.cli", "train", "--config", str(path)],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "output_dir" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(cwd.iterdir()) == []


def test_blas_threads_come_from_the_environment_else_the_cores(monkeypatch):
    for var in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert cli.numeric_environment()["blas_threads"] == len(os.sched_getaffinity(0))
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert cli.numeric_environment()["blas_threads"] == 3
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert cli.numeric_environment()["blas_threads"] == 1


def test_importing_synth_loads_neither_scipy_nor_the_model():
    # the benchmark's corpus generator imports diffetm.synth in a child process
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = "import sys, diffetm.synth; print([m for m in ('scipy', 'diffetm.model') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("kind", ["file", "dangling-symlink"])
@pytest.mark.parametrize("command", ["ingest", "train", "eval", "topics", "sweep-t"])
def test_an_output_path_that_names_a_file_exits_2_before_any_work(
    workspace, tmp_path, monkeypatch, capsys, command, kind
):
    afile = tmp_path / "afile"
    if kind == "file":
        afile.write_text("kept\n")
    else:
        afile.symlink_to(tmp_path / "nowhere")

    def no_work(*args, **kwargs):
        raise AssertionError("read its inputs before checking the output directory")

    for name in ("ingest_presplit", "ingest_single", "load_corpus"):
        monkeypatch.setattr(cli, name, no_work)
    args = [command, "--config", str(workspace["cfg_path"]), "--out", str(afile)]
    if command in ("eval", "topics"):
        args += ["--checkpoint", str(workspace["run_dir"] / "best.ckpt")]
    assert cli.main(args) == 2
    assert f"{afile} is not a directory" in capsys.readouterr().err
    assert kind != "file" or afile.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [afile]


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

    def test_one_word_vocabulary_exits_1_before_output(self, tmp_path, capsys):
        cfg = {"min_df": 2, "corpus_dir": str(tmp_path / "out")}
        for name in ("train", "valid", "test"):
            path = tmp_path / f"{name}.txt"
            path.write_text("alpha beta\nalpha gamma\nalpha\n")
            cfg[f"{name}_file"] = str(path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["ingest", "--config", str(path)]) == 1
        assert "min_df=2 keeps 1 token(s); a vocabulary needs at least 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad,body", [
        ("valid_file", b"alpha beta caf\xe9\n"),
        ("stopword_file", b"\xff\xfea\x00\n\x00"),
    ], ids=["valid.txt", "stop-words"])
    def test_a_file_that_is_not_utf8_exits_1_before_output(self, tmp_path, capsys, bad, body):
        cfg = {"min_df": 1, "corpus_dir": str(tmp_path / "out")}
        for name in ("train", "valid", "test"):
            cfg[f"{name}_file"] = str(tmp_path / f"{name}.txt")
            (tmp_path / f"{name}.txt").write_text("alpha beta\nalpha gamma\n")
        cfg["stopword_file"] = str(tmp_path / "stop.txt")
        (tmp_path / "stop.txt").write_text("the\n")
        Path(cfg[bad]).write_bytes(body)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["ingest", "--config", str(path)]) == 1
        assert f"error: {cfg[bad]}: not UTF-8 text" in capsys.readouterr().err
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

    def test_manifest_records_the_numeric_environment(self, workspace):
        env = json.loads((workspace["run_dir"] / "manifest.json").read_text())["environment"]
        assert env == cli.numeric_environment()
        assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
        assert env["blas"] and env["blas_threads"] >= 1

    def test_deterministic_rerun_identical_artifacts(self, workspace):
        run_dir = workspace["run_dir"]
        report_before = (run_dir / "train_report.json").read_bytes()
        ckpt_before = (run_dir / "best.ckpt").read_bytes()
        assert cli.main(["train", "--config", str(workspace["cfg_path"])]) == 0
        assert (run_dir / "train_report.json").read_bytes() == report_before
        assert (run_dir / "best.ckpt").read_bytes() == ckpt_before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_validation_exits_1_with_the_report(self, workspace, tmp_path, capsys):
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps({**workspace["cfg"], **ONE_HUGE_STEP, "output_dir": str(tmp_path / "runs")}))
        assert cli.main(["train", "--config", str(path)]) == 1
        assert "diverged: non-finite validation at epoch 1" in capsys.readouterr().err
        run_dir = tmp_path / "runs" / cli.run_id_of(cli.load_config(str(path)))
        assert json.loads((run_dir / "train_report.json").read_text())["val_perplexity"] == []
        assert not list(run_dir.glob("*.ckpt"))

    def test_non_finite_z_kl_exits_1_with_a_strict_json_report(self, workspace, tmp_path, capsys, monkeypatch):
        validate = cli.trainer_mod.validate
        monkeypatch.setattr(cli.trainer_mod, "validate", lambda *a: (*validate(*a)[:2], math.inf))
        path = tmp_path / "z_kl.json"
        path.write_text(json.dumps({**workspace["cfg"], "output_dir": str(tmp_path / "runs")}))
        assert cli.main(["train", "--config", str(path)]) == 1
        assert "diverged: non-finite validation at epoch 1:" in capsys.readouterr().err
        run_dir = tmp_path / "runs" / cli.run_id_of(cli.load_config(str(path)))

        def refuse(constant):
            raise AssertionError(f"train_report.json holds {constant}")

        report = json.loads((run_dir / "train_report.json").read_text(), parse_constant=refuse)
        assert report["val_z_kl"] == []
        assert not list(run_dir.glob("*.ckpt"))

    def test_manifest_hashes_each_inode_once(self, tmp_path, monkeypatch):
        (tmp_path / "a.ckpt").write_bytes(b"model")
        os.link(tmp_path / "a.ckpt", tmp_path / "best.ckpt")
        (tmp_path / "report.json").write_bytes(b"{}")
        hashed = []
        sha256 = cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda p: hashed.append(p.name) or sha256(p))
        cfg = cli.load_config()
        path = cli.write_manifest(tmp_path, "train", cfg, cli._run_artifacts(tmp_path))
        assert hashed == ["a.ckpt", "report.json"]
        artifacts = json.loads(path.read_text())["artifacts"]
        assert artifacts == {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("a.ckpt", "best.ckpt", "report.json")
        }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


    def test_a_retrain_after_a_reingest_leaves_none_of_the_earlier_runs_files(self, tmp_path):
        # the same config, so the same run id, on other text at the same
        # paths: the second run selects fewer epochs than the first
        cfg = {
            "train_file": "raw/train.txt", "valid_file": "raw/valid.txt", "test_file": "raw/test.txt",
            "min_df": 2, "corpus_dir": "corpus", "num_topics": 5, "embed_size": 8, "hidden_size": 8,
            "epochs": 6, "batch_size": 50, "learning_rate": 0.3, "deterministic": True, "output_dir": "runs",
        }
        cfg = {k: str(tmp_path / v) if k.endswith(("_file", "_dir")) else v for k, v in cfg.items()}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        run_dir = tmp_path / "runs" / cli.run_id_of(cli.load_config(str(path)))
        kl_test = ["kl-test", "--config", str(path), "--run-dir", str(run_dir)]
        epochs = []  # each train's selected epochs, as checkpoint names
        for seed, vocab_size in ((1, 120), (2, 80)):
            write_split_files(tmp_path / "raw", 200, 50, 50, vocab_size=vocab_size, n_topics=5, seed=seed)
            assert cli.main(["ingest", "--config", str(path)]) == 0
            assert cli.main(["train", "--config", str(path)]) == 0
            lines = (run_dir / "kl_trajectory.csv").read_text().splitlines()[1:]
            epochs.append({cli.trainer_mod.checkpoint_name(int(line.split(",")[0])) for line in lines})
            if seed == 1:
                assert cli.main(kl_test) == 0
        assert epochs[1] < epochs[0]
        assert {p.name for p in run_dir.iterdir()} == epochs[1] | {
            "best.ckpt", "kl_trajectory.csv", "train_report.json", "manifest.json",
        }
        artifacts = json.loads((run_dir / "manifest.json").read_text())["artifacts"]
        assert set(artifacts) == epochs[1] | {"best.ckpt", "kl_trajectory.csv", "train_report.json"}
        # kl-test reads this run's checkpoints alone
        assert cli.main(kl_test) == 0
        lines = (run_dir / "kl_test.csv").read_text().splitlines()
        assert {cli.trainer_mod.checkpoint_name(int(line.split(",")[0])) for line in lines[1:]} <= epochs[1]


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

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_garbled_vocabulary_exits_1(self, workspace, tmp_path, capsys, command):
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(workspace["root"] / "corpus", corpus_dir)
        lines = (corpus_dir / "vocab.tsv").read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace("\t", " ", 1)
        (corpus_dir / "vocab.tsv").write_text("".join(lines))
        p = tmp_path / "garbled.json"
        p.write_text(json.dumps(dict(
            workspace["cfg"], corpus_dir=str(corpus_dir), output_dir=str(tmp_path / "runs")
        )))
        args = [command, "--config", str(p)]
        if command == "eval":
            args += ["--checkpoint", str(workspace["run_dir"] / "best.ckpt")]
        assert cli.main(args) == 1
        assert "vocab.tsv:3: 2 fields, expected 3" in capsys.readouterr().err

    def test_one_word_vocabulary_file_exits_1(self, workspace, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(workspace["root"] / "corpus", corpus_dir)
        lines = (corpus_dir / "vocab.tsv").read_text().splitlines(keepends=True)
        (corpus_dir / "vocab.tsv").write_text("".join(lines[:2]))
        p = tmp_path / "one.json"
        p.write_text(json.dumps(dict(
            workspace["cfg"], corpus_dir=str(corpus_dir), output_dir=str(tmp_path / "runs")
        )))
        assert cli.main(["train", "--config", str(p)]) == 1
        assert "vocab.tsv: holds 1 token(s)" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["eval", "kl-test"])
    @pytest.mark.parametrize("version,named", [
        (1, "cache version 1, expected 2; re-run diffetm ingest"),
        (2, "cache holds no documents"),
    ], ids=["version_1", "no_documents"])
    def test_unreadable_test_cache_exits_1(self, workspace, tmp_path, capsys, command, version, named):
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(workspace["root"] / "corpus", corpus_dir)
        vocab_size = len((corpus_dir / "vocab.tsv").read_text().splitlines()) - 1
        # a header with no documents: version 1 is refused before N is read
        (corpus_dir / "test.corpus").write_bytes(b"DETMCORP" + struct.pack("<III", version, vocab_size, 0))
        p = tmp_path / "cache.json"
        p.write_text(json.dumps(dict(
            workspace["cfg"], corpus_dir=str(corpus_dir), output_dir=str(tmp_path / "runs")
        )))
        if command == "eval":
            args = ["eval", "--config", str(p), "--checkpoint", str(workspace["run_dir"] / "best.ckpt")]
        else:
            args = ["kl-test", "--config", str(p), "--run-dir", str(workspace["run_dir"])]
        assert cli.main(args) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "topics", "kl-test"])
    def test_non_finite_checkpoint_exits_1_before_any_output(self, workspace, tmp_path, capsys, command):
        store, config = load_checkpoint(workspace["run_dir"] / "best.ckpt")
        store["word_emb"].data[0, 0] = np.nan
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        ckpt = run_dir / "checkpoint_epoch0001.ckpt"
        # save_checkpoint refuses such a store, so the file is written directly
        _write_checkpoint(store, config, ckpt)
        p = tmp_path / "config.json"
        p.write_text(json.dumps(dict(workspace["cfg"], output_dir=str(tmp_path / "runs"))))
        if command == "kl-test":
            args = ["kl-test", "--config", str(p), "--run-dir", str(run_dir)]
        else:
            args = [command, "--config", str(p), "--checkpoint", str(ckpt)]
        assert cli.main(args) == 1
        assert f"error: {ckpt}: parameter 'word_emb' holds a non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        assert [f.name for f in run_dir.iterdir()] == [ckpt.name]

    def test_missing_checkpoint(self, workspace):
        rc = cli.main([
            "eval", "--config", str(workspace["cfg_path"]), "--checkpoint", "/nope.ckpt",
        ])
        assert rc == 2

    def test_checkpoint_id_is_the_files_sha256_prefix(self, workspace, tmp_path):
        ckpt = workspace["run_dir"] / "best.ckpt"
        p = tmp_path / "config.json"
        p.write_text(json.dumps(dict(workspace["cfg"], output_dir=str(tmp_path / "runs"))))
        assert cli.main(["eval", "--config", str(p), "--checkpoint", str(ckpt)]) == 0
        out_dir = tmp_path / "runs" / f"eval_{cli.run_id_of(cli.load_config(str(p)))}"
        report = json.loads((out_dir / "metrics_report.json").read_text())
        assert report["checkpoint_id"] == hashlib.sha256(ckpt.read_bytes()).hexdigest()[:12]


class TestTopicsCommand:
    def test_writes_tsv(self, workspace):
        ckpt = workspace["run_dir"] / "best.ckpt"
        assert cli.main(["topics", "--config", str(workspace["cfg_path"]), "--checkpoint", str(ckpt)]) == 0
        out_dir = workspace["root"] / "runs" / f"topics_{cli.run_id_of(cli.load_config(str(workspace['cfg_path'])))}"
        lines = (out_dir / "top_words.tsv").read_text().splitlines()
        assert lines[0] == "topic_id\trank\ttoken\tprobability"
        assert len(lines) > 1


    def test_probabilities_are_plain_decreasing_numbers(self, workspace):
        ckpt = workspace["run_dir"] / "best.ckpt"
        assert cli.main(["topics", "--config", str(workspace["cfg_path"]), "--checkpoint", str(ckpt)]) == 0
        out_dir = workspace["root"] / "runs" / f"topics_{cli.run_id_of(cli.load_config(str(workspace['cfg_path'])))}"
        by_topic = {}
        for line in (out_dir / "top_words.tsv").read_text().splitlines()[1:]:
            topic_id, rank, _, probability = line.split("\t")
            p = float(probability)
            assert 0.0 < p <= 1.0, line
            by_topic.setdefault(topic_id, []).append((int(rank), p))
        assert by_topic
        for rows in by_topic.values():
            probs = [p for _, p in sorted(rows)]
            assert all(a >= b for a, b in zip(probs, probs[1:]))


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


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_run_diverging_at_validation_is_a_nan_row(self, workspace, tmp_path, capsys):
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps({**workspace["cfg"], **ONE_HUGE_STEP, "output_dir": str(tmp_path / "runs")}))
        assert cli.main(["sweep-t", "--config", str(path)]) == 0
        assert "T=0 failed: non-finite validation at epoch 1" in capsys.readouterr().err
        sweep_dir = tmp_path / "runs" / f"sweep_{cli.run_id_of(cli.load_config(str(path)))}"
        lines = (sweep_dir / "sweep.csv").read_text().splitlines()
        assert lines[1:] == ["0,nan,nan,nan,nan", "100,nan,nan,nan,nan"]


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

    def test_leaves_the_training_manifest_as_train_wrote_it(self, workspace, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**workspace["cfg"], "output_dir": str(tmp_path / "runs")}))
        assert cli.main(["train", "--config", str(path)]) == 0
        run_dir = tmp_path / "runs" / cli.run_id_of(cli.load_config(str(path)))
        trained = (run_dir / "manifest.json").read_bytes()
        assert cli.main(["kl-test", "--config", str(path), "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "manifest.json").read_bytes() == trained
        kl_manifest = json.loads((run_dir / cli.KL_TEST_MANIFEST).read_text())
        assert (kl_manifest["command"], list(kl_manifest["artifacts"])) == ("kl-test", ["kl_test.csv"])
        # a rerun of train hashes the run's files but not kl-test's manifest
        assert cli.main(["train", "--config", str(path)]) == 0
        assert cli.KL_TEST_MANIFEST not in json.loads((run_dir / "manifest.json").read_text())["artifacts"]

    def _run_copy(self, workspace, tmp_path, names):
        """A run directory holding the workspace run's best.ckpt under each name."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for name in names:
            shutil.copy(workspace["run_dir"] / "best.ckpt", run_dir / name)
        return run_dir

    def test_checkpoints_are_read_in_epoch_order(self, workspace, tmp_path):
        # as strings, epoch 10000 sorts before 9999; equal perplexities keep only the first
        run_dir = self._run_copy(workspace, tmp_path, ["checkpoint_epoch9999.ckpt", "checkpoint_epoch10000.ckpt"])
        args = ["kl-test", "--config", str(workspace["cfg_path"]), "--run-dir", str(run_dir)]
        assert cli.main(args) == 0
        lines = (run_dir / "kl_test.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["9999"]

    def test_stray_checkpoint_name_exits_2(self, workspace, tmp_path, capsys):
        run_dir = self._run_copy(workspace, tmp_path, ["checkpoint_epoch0002.ckpt", "checkpoint_epoch0002-old.ckpt"])
        args = ["kl-test", "--config", str(workspace["cfg_path"]), "--run-dir", str(run_dir)]
        assert cli.main(args) == 2
        assert "'checkpoint_epoch0002-old.ckpt' is not an epoch checkpoint name" in capsys.readouterr().err
        assert not (run_dir / "kl_test.csv").exists()

    def test_a_run_dir_without_epoch_checkpoints_exits_2(self, workspace, tmp_path, capsys):
        shutil.copy(workspace["run_dir"] / "best.ckpt", tmp_path / "best.ckpt")
        args = ["kl-test", "--config", str(workspace["cfg_path"]), "--run-dir", str(tmp_path)]
        assert cli.main(args) == 2
        assert f"no epoch checkpoints under {tmp_path}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    def test_missing_run_dir(self, workspace):
        rc = cli.main([
            "kl-test", "--config", str(workspace["cfg_path"]), "--run-dir", "/nope",
        ])
        assert rc == 2


class TestSplitsRead:
    """Each command parses the caches of the splits it uses, each once."""

    def _run(self, workspace, tmp_path, monkeypatch, command, **keys):
        run_dir = tmp_path / "run"
        shutil.copytree(workspace["run_dir"], run_dir)
        p = tmp_path / "config.json"
        p.write_text(json.dumps({**workspace["cfg"], "output_dir": str(tmp_path / "runs"), **keys}))
        read, original = [], cli.read_corpus_cache

        def recording(path, split, vocab):
            read.append(split)
            return original(path, split, vocab)

        monkeypatch.setattr(cli, "read_corpus_cache", recording)
        args = {"eval": ["--checkpoint", str(run_dir / "best.ckpt")],
                "topics": ["--checkpoint", str(run_dir / "best.ckpt")],
                "kl-test": ["--run-dir", str(run_dir)]}.get(command, [])
        return cli.main([command, "--config", str(p), *args]), read

    @pytest.mark.parametrize("command,eval_split,expected", [
        ("train", "test", ["train", "valid", "test"]),
        ("sweep-t", "test", ["train", "valid", "test"]),
        ("eval", "test", ["train", "test"]),
        ("eval", "valid", ["train", "valid"]),
        ("eval", "train", ["train"]),
        ("kl-test", "test", ["test"]),
        ("kl-test", "valid", ["valid"]),
        ("topics", "test", []),
    ])
    def test_each_command_parses_the_splits_it_uses_once(
        self, workspace, tmp_path, monkeypatch, command, eval_split, expected
    ):
        keys = {"eval_split": eval_split}
        if command == "sweep-t":
            keys.update(sweep_t_values=[0], epochs=1)
        assert self._run(workspace, tmp_path, monkeypatch, command, **keys) == (0, expected)

    @pytest.mark.parametrize("command", ["topics", "kl-test", "eval"])
    def test_a_missing_cache_of_an_unused_split_is_still_a_config_error(
        self, workspace, tmp_path, monkeypatch, capsys, command
    ):
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(workspace["root"] / "corpus", corpus_dir)
        (corpus_dir / "valid.corpus").unlink()
        assert self._run(workspace, tmp_path, monkeypatch, command, corpus_dir=str(corpus_dir)) == (2, [])
        assert f"missing corpus cache {corpus_dir / 'valid.corpus'}; run ingest first" in capsys.readouterr().err


# Literal ingest inputs.  Each set has a line of out-of-vocabulary words
# only, an empty line, a line of stopwords only, and words that min_df=2
# prunes, so every drop rule of ingest shapes the artifacts.
GOLDEN_STOPWORDS = ["the", "A", "on", "and", ""]
GOLDEN_SPLITS = {
    "train": [
        "The cat sat on the mat.",
        "the dog sat on the log",
        "A cat and a dog!",
        "Zebra quagga okapi",
        "",
        "cat cat dog mat, mat; log",
        "the the a on",
        "sat sat sat dog",
    ],
    "valid": ["cat sat", "unknown words only", "", "dog dog log mat", "The and"],
    "test": ["mat cat dog sat log", "Sat!", "okapi"],
}
GOLDEN_INPUT = [
    "river bank water fish",
    "bank loan money interest",
    "",
    "water river stream fish fish",
    "money money bank",
    "the and a on",
    "aardvark",
    "interest rate loan bank money",
    "fish stream river, water!",
    "Loan? Bank. Money; rate",
    "river water bank",
    "stream fish",
    "rate interest",
    "unique singular words",
]
GOLDEN_ARTIFACTS = ("vocab.tsv", "train.corpus", "valid.corpus", "test.corpus", "ingest_report.json")
GOLDEN_PRESPLIT = {
    "vocab.tsv": "2c2316835a757e0382e4cf60397b4b4a244e2a09fb045c9e165b9023f5559238",
    "train.corpus": "bd8dccaa9e0b7db30429f9e35fdb1fdbc8cfc323a4a05144f8b4991558ef8aca",
    "valid.corpus": "727f81b1763d066b235233aef9f8b665c0c6d5494b25310a762fe7ac8c37451f",
    "test.corpus": "d9a616eb2fc18ca9233a19bc894aff0c8f040e44ab06a30ed9b7a6bbbe2e4ea3",
    "ingest_report.json": "388628363cfcd1b3b72edc7f7f9441cfe9ac6aa34e8e434a548d989f9588659f",
}
GOLDEN_SINGLE = {
    "vocab.tsv": "b618875478b6a173d3e6a8d9da7cde972c9376a22087a672043a031b2ce55c27",
    "train.corpus": "21858608eedec4cccc78139260b999cc1e76ffa1b01b2673c73d6d5f3ca28b88",
    "valid.corpus": "529a8bbb93b679d9af4feff4cb8673f77e4182a8762c17a4c8bf1fa2e1dc4387",
    "test.corpus": "29f276158199f11cf1abc43343ffef9ff1fb243e9dfecb776daf2eafdea39e6c",
    "ingest_report.json": "69127bc1a3c552bcc5b97c26cff6eb8380dd74d5e5b3fb5798e0cd553e031f9a",
}


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def golden_ingest_hashes(root, single: bool) -> dict[str, str]:
    """sha256 of each ingest artifact of the literal golden inputs."""
    cfg = {
        "min_df": 2,
        "stopword_file": _write_lines(root / "stop.txt", GOLDEN_STOPWORDS),
        "corpus_dir": str(root / "corpus"),
    }
    if single:
        cfg.update(input_file=_write_lines(root / "all.txt", GOLDEN_INPUT),
                   split_fractions=[0.6, 0.2, 0.2], split_seed=3)
    else:
        for name, lines in GOLDEN_SPLITS.items():
            cfg[f"{name}_file"] = _write_lines(root / f"{name}.txt", lines)
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
    return {
        name: hashlib.sha256((root / "corpus" / name).read_bytes()).hexdigest()
        for name in GOLDEN_ARTIFACTS
    }


class TestIngestGolden:
    def test_presplit_artifacts_are_pinned(self, tmp_path):
        assert golden_ingest_hashes(tmp_path, single=False) == GOLDEN_PRESPLIT

    def test_single_file_artifacts_are_pinned(self, tmp_path):
        assert golden_ingest_hashes(tmp_path, single=True) == GOLDEN_SINGLE
