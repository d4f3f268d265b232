import json
import os

import numpy as np
import pytest

from spikesparse.cli import (
    ConfigError,
    apply_env_overrides,
    config_hash,
    main,
    parse_config,
    serialize_config,
)

TINY = """
[data]
kind = synth
classes = 2
train_per_class = 3
test_per_class = 2
height = 16
width = 16
[model]
arch = 2sc3-2
[train]
t_train = 5
batch_size = 3
max_epochs = 1
dropout_p = 0.0
seed = 1
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(TINY)
    return str(path)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = parse_config("")
        text = serialize_config(cfg)
        again = serialize_config(parse_config(text))
        assert text == again
        assert cfg["train"]["lr0"] == 5e-3
        assert cfg["eval"]["t_list"] == [2, 5, 10, 20]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as e:
            parse_config("[train]\nlr = 0.1\n")
        assert any("train.lr" in p for p in e.value.problems)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[optimizer]\nlr0 = 0.1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError) as e:
            parse_config("[train]\nlr0 = fast\n")
        assert any("train.lr0" in p for p in e.value.problems)

    def test_env_override(self):
        cfg = parse_config("")
        before = config_hash(cfg)
        apply_env_overrides(cfg, {"SPIKESPARSE_TRAIN_LR0": "1e-2"})
        assert cfg["train"]["lr0"] == 1e-2
        assert config_hash(cfg) != before

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# top\n[train]\nseed = 7  # inline\n\n")
        assert cfg["train"]["seed"] == 7


class TestInitConfig:
    def test_prints_parseable_default(self, capsys):
        assert main(["init-config"]) == 0
        out = capsys.readouterr().out
        assert serialize_config(parse_config(out)) == out


class TestConvert:
    def test_portable_to_voxels(self, tmp_path, capsys):
        src = tmp_path / "a.events"
        src.write_text("16,16\n100,2,3,1\n5000,4,4,0\n25000,9,9,1\n")
        dst = tmp_path / "a.vox"
        rc = main(["convert", str(src), str(dst), "--dt", "10000", "--t", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events 3" in out and "nonzeros 2" in out
        from spikesparse.event_io import BinaryVoxelGrid
        grid = BinaryVoxelGrid.load(dst)
        assert grid.n_nonzero == 2  # the 25 ms event fell past the clip

    def test_missing_input_is_exit_2(self, tmp_path):
        assert main(["convert", str(tmp_path / "nope.events"),
                     str(tmp_path / "o.vox")]) == 2

    def test_malformed_input_is_exit_2(self, tmp_path):
        src = tmp_path / "bad.events"
        src.write_text("16,16\n1,2,3,9\n")
        assert main(["convert", str(src), str(tmp_path / "o.vox")]) == 2

    def test_wrong_clip_is_exit_2(self, tmp_path):
        src = tmp_path / "a.events"
        src.write_text("16,16\n100,2,3,1\n")
        assert main(["convert", str(src), str(tmp_path / "o.vox"),
                     "--dt", "1000", "--t", "5", "--clip", "400"]) == 2


class TestSynthCommand:
    def test_writes_indexed_dataset(self, tiny_cfg, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--config", tiny_cfg, "--out", str(out)]) == 0
        index = (out / "index.csv").read_text().splitlines()
        assert index[0].startswith("# config_hash=")
        rows = [l for l in index if l and not l.startswith(("#", "file,"))]
        assert len(rows) == 2 * 3 + 2 * 2
        name = rows[0].split(",")[0]
        assert (out / name).exists()


class TestTrainEvalPipeline:
    @pytest.fixture
    def run_dir(self, tiny_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", tiny_cfg, "--out", str(out)]) == 0
        return out

    def test_train_writes_reports(self, run_dir):
        history = (run_dir / "history.csv").read_text().splitlines()
        assert history[0].startswith("# config_hash=")
        assert history[1].startswith("epoch,lr,train_loss")
        assert len(history) == 3  # hash + header + one epoch
        assert (run_dir / "model.ckpt").exists()
        assert (run_dir / "config.resolved.ini").exists()

    def test_deterministic_history(self, tiny_cfg, tmp_path, run_dir):
        out2 = tmp_path / "run2"
        assert main(["train", "--config", tiny_cfg, "--out", str(out2)]) == 0

        def rows_without_timing(path):
            lines = path.read_text().splitlines()
            out = []
            for line in lines[2:]:
                cells = line.split(",")
                del cells[5]  # epoch_seconds is wall clock
                out.append(cells)
            return out

        assert (rows_without_timing(run_dir / "history.csv")
                == rows_without_timing(out2 / "history.csv"))

    def test_eval_sparsity_anytime(self, tiny_cfg, run_dir, tmp_path, capsys):
        ckpt = str(run_dir / "model.ckpt")
        out = str(tmp_path / "reports")
        assert main(["eval", "--config", tiny_cfg, "--checkpoint", ckpt,
                     "--out", out]) == 0
        report = json.loads((tmp_path / "reports" / "eval.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0 and report["config_hash"]

        assert main(["sparsity", "--config", tiny_cfg, "--checkpoint", ckpt,
                     "--out", out]) == 0
        assert (tmp_path / "reports" / "sparsity.csv").exists()
        payload = json.loads((tmp_path / "reports" / "sparsity.json").read_text())
        assert payload["config_hash"]

        assert main(["anytime", "--config", tiny_cfg, "--checkpoint", ckpt,
                     "--out", out, "--t-list", "2,5"]) == 0
        curve = (tmp_path / "reports" / "anytime.csv").read_text().splitlines()
        assert curve[1] == "t_eval,accuracy" and len(curve) == 4

    def test_missing_checkpoint_is_exit_2(self, tiny_cfg, tmp_path):
        assert main(["eval", "--config", tiny_cfg, "--checkpoint",
                     str(tmp_path / "none.ckpt")]) == 2

    @pytest.mark.parametrize("blob", [b"not a checkpoint",
                                      b"SPKCKPT1arch=2sc3-2\n",
                                      b"SPKCKPT1\xff\xfe\n"])
    def test_corrupt_checkpoint_is_exit_2(self, tiny_cfg, tmp_path, capsys, blob):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(blob)
        assert main(["eval", "--config", tiny_cfg, "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(ckpt) in err[0]

    @pytest.mark.parametrize("row", ["a.events,0", "a.events,zero,train",
                                     "a.events,0,validation"])
    def test_malformed_index_is_exit_2(self, tiny_cfg, tmp_path, capsys, row):
        data_dir = tmp_path / "files"
        data_dir.mkdir()
        (data_dir / "index.csv").write_text(f"file,label,split\n{row}\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY + f"\n[data]\nkind = events\npath = {data_dir}\n")
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(data_dir / "index.csv") in err[0] and "line 2" in err[0]

    def test_bad_config_is_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[train]\nlearning_rate = 5\n")
        assert main(["train", "--config", str(bad), "--out",
                     str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "train.learning_rate" in err

    def test_train_on_synth_files_dataset(self, tiny_cfg, tmp_path):
        data_dir = tmp_path / "files"
        assert main(["synth", "--config", tiny_cfg, "--out", str(data_dir)]) == 0
        cfg2 = tmp_path / "cfg2.ini"
        cfg2.write_text(TINY + f"\n[data]\nkind = events\npath = {data_dir}\n")
        # second [data] section reopens it; kind/path override the earlier ones
        out = tmp_path / "run3"
        assert main(["train", "--config", str(cfg2), "--out", str(out)]) == 0
        assert (out / "history.csv").exists()


class TestChanceLevel:
    def test_untrained_model_is_chance_on_balanced_data(self, tmp_path):
        from spikesparse.event_io import synth_dataset
        from spikesparse.training import TrainConfig, evaluate, init_model
        cfg = TrainConfig(arch="2sc3-4", in_height=16, in_width=16, t_train=5,
                          seed=123)
        model = init_model(cfg)
        _, test = synth_dataset(4, 20, 16, 16, 5, 10_000, seed=11)
        acc = evaluate(model, test, 5)
        assert abs(acc - 0.25) <= 0.15


class TestStudyCommand:
    def test_emits_comparison_csv(self, tiny_cfg, tmp_path):
        out = tmp_path / "study"
        assert main(["study-stride", "--config", tiny_cfg,
                     "--out", str(out)]) == 0
        lines = (out / "stride_vs_pool.csv").read_text().splitlines()
        assert lines[1] == "variant,accuracy,total_spikes,epochs"
        assert lines[2].startswith("stride,") and lines[3].startswith("pool,")
