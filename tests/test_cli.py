import builtins
import dataclasses
import json
import os
import re

import numpy as np
import pytest

from test_acceptance import ACCEPT_CFG
from test_event_io import ref_aedat, ref_polarity_packet
from spikesparse import cli, event_io
from spikesparse.cli import (
    ConfigError,
    apply_env_overrides,
    config_hash,
    load_config,
    load_dataset,
    main,
    parse_config,
    serialize_config,
    train_config_from,
)
from spikesparse.spiking import load_checkpoint, save_checkpoint
from spikesparse.training import DESK_CONFIG, TrainConfig, build_model, evaluate

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

TINY_END = TINY.count("\n")   # TINY's last line


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

    def test_default_config_is_the_desk_recipe(self):
        cfg = parse_config("")
        assert cfg["eval"]["batch"] == 32
        assert config_hash(cfg) == "10bae85aed7e"
        # the acceptance gate's recipe, which the library names once
        assert train_config_from(cfg) == TrainConfig(**ACCEPT_CFG) == DESK_CONFIG

    def test_defaults_are_not_shared_between_configs(self):
        parse_config("")["eval"]["t_list"].append(40)
        cfg = parse_config("")
        assert cfg["eval"]["t_list"] == [2, 5, 10, 20]
        assert config_hash(cfg) == "10bae85aed7e"

    def test_each_train_config_field_has_one_key(self):
        base = train_config_from(parse_config(""))
        texts = {"arch": "2sc3-4", "variant": "pool", "schedule": "cosine",
                 "kind": "events", "path": "elsewhere"}
        setters = {f.name: [] for f in dataclasses.fields(TrainConfig)}
        for sec, keys in parse_config("").items():
            for key, value in keys.items():
                cfg = parse_config("")
                if isinstance(value, bool):
                    cfg[sec][key] = not value
                elif isinstance(value, (int, float)):
                    cfg[sec][key] = (value + 1 if isinstance(value, int)
                                     else value / 2 or 0.5)
                elif isinstance(value, list):
                    cfg[sec][key] = value + [1]
                else:
                    cfg[sec][key] = texts[key]
                tc = train_config_from(cfg)
                for name, keys_of in setters.items():
                    if getattr(tc, name) != getattr(base, name):
                        keys_of.append(f"{sec}.{key}")
        assert all(len(keys_of) == 1 for keys_of in setters.values()), setters


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

    def test_overlong_field_is_exit_2_naming_its_line(self, tmp_path, capsys):
        src = tmp_path / "big.events"
        src.write_text("16,16\n10000000000000000000,2,3,1\n")
        assert main(["convert", str(src), str(tmp_path / "o.vox")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {src}: line 2: non-numeric field in "
            "'10000000000000000000,2,3,1'"]

    def test_extent_beyond_the_cache_records_is_exit_2(self, tmp_path, capsys):
        src = tmp_path / "two.events"
        src.write_text("16,16\n100,2,3,1\n5000,4,4,0\n")
        out = tmp_path / "t.vox"
        assert main(["convert", str(src), str(out), "--dt", "1",
                     "--t", "70000"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: grid extent 70000x16x16 beyond the records' u16 range"]
        assert sorted(os.listdir(tmp_path)) == ["two.events"]

    def test_clip_is_a_usage_error(self, tmp_path, capsys):
        # the clip horizon is always --t x --dt
        src = tmp_path / "a.events"
        src.write_text("16,16\n100,2,3,1\n")
        with pytest.raises(SystemExit) as e:
            main(["convert", str(src), str(tmp_path / "o.vox"),
                  "--dt", "1000", "--t", "5", "--clip", "5000"])
        assert e.value.code == 2
        assert "--clip" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "convert-into-dir", "convert-from-dir", "synth-over-file", "train-over-file",
    "init-config-into-dir"])
def test_unusable_path_is_exit_2(tiny_cfg, tmp_path, capsys, command):
    src = tmp_path / "a.events"
    src.write_text("16,16\n100,2,3,1\n")
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("not a directory\n")
    adir, afile = str(tmp_path / "adir"), str(tmp_path / "afile")
    argv, named = {
        "convert-into-dir": (["convert", str(src), adir], adir),
        "convert-from-dir": (["convert", adir, str(tmp_path / "x.vox")], adir),
        "synth-over-file": (["synth", "--config", tiny_cfg, "--out", afile], afile),
        "train-over-file": (["train", "--config", tiny_cfg, "--out", afile], afile),
        "init-config-into-dir": (["init-config", "--out", adir], adir),
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {named}: ")
    assert ".part" not in err[0] and "Errno" not in err[0]
    assert not list(tmp_path.rglob("*.part"))


@pytest.mark.parametrize("command", ["synth", "train"])
def test_out_over_a_file_fails_before_any_rendering(tiny_cfg, tmp_path, capsys,
                                                    monkeypatch, command):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    rendered = []
    monkeypatch.setattr(event_io, "_render_moving_edge",
                        lambda *a: rendered.append(a[1]))
    assert main([command, "--config", tiny_cfg, "--out", str(afile)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {afile}: not a directory"]
    assert rendered == []


@pytest.mark.parametrize("missing", ["config", "checkpoint", "input", "index"])
def test_missing_path_is_named(tiny_cfg, tmp_path, capsys, missing):
    gone = tmp_path / "gone"
    cfg = tmp_path / "events.ini"
    cfg.write_text(TINY + f"\n[data]\nkind = events\npath = {gone}\n")
    argv, named = {
        "config": (["train", "--config", str(gone)], gone),
        "checkpoint": (["eval", "--config", tiny_cfg, "--checkpoint", str(gone)],
                       gone),
        "input": (["convert", str(gone), str(tmp_path / "o.vox")], gone),
        "index": (["train", "--config", str(cfg)], gone / "index.csv"),
    }[missing]
    out = [] if missing == "input" else ["--out", str(tmp_path / "r")]
    assert main(argv + out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {named}: ")


@pytest.mark.parametrize("bad", ["events", "config", "index"])
def test_undecodable_text_names_the_file(tiny_cfg, tmp_path, capsys, bad):
    # a non-UTF-8 byte in a comment of the config or index, and in a record
    # of an events file; the config is exit 3, the data exit 2
    data_dir = tmp_path / "files"
    assert main(["synth", "--config", tiny_cfg, "--out", str(data_dir)]) == 0
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(TINY + f"\n[data]\nkind = events\npath = {data_dir}\n")
    path = {"events": data_dir / "class1_test001.events", "config": cfg,
            "index": data_dir / "index.csv"}[bad]
    path.write_bytes(path.read_bytes() + (b"5,\xff,1,0\n" if bad == "events"
                                          else b"# \xff\n"))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out",
                 str(tmp_path / "run")]) == (3 if bad == "config" else 2)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{path}: " in err[0] and "0xff" in err[0]


def test_no_subcommand_opens_a_file_for_writing(tiny_cfg, tmp_path, monkeypatch):
    # every output goes through event_io._write_whole, whose open is its own
    def read_only_open(file, mode="r", *args, **kwargs):
        assert not set(mode) & set("wax+"), f"{file} opened with mode {mode!r}"
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", read_only_open, raising=False)
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    reports = ["--config", tiny_cfg, "--checkpoint",
               os.path.join(run, "model.ckpt"), "--out", run]
    for argv in (["init-config", "--out", str(tmp_path / "default.ini")],
                 ["synth", "--config", tiny_cfg, "--out", data],
                 ["convert", os.path.join(data, "class0_train000.events"),
                  str(tmp_path / "o.vox")],
                 ["train", "--config", tiny_cfg, "--out", run],
                 ["eval"] + reports, ["sparsity"] + reports,
                 ["anytime", "--t-list", "2,5"] + reports,
                 ["study-stride", "--config", tiny_cfg, "--out", run]):
        assert main(argv) == 0, argv


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

    def test_eval_renders_only_the_test_split(self, tiny_cfg, run_dir, tmp_path,
                                              monkeypatch):
        ckpt = str(run_dir / "model.ckpt")
        rendered = []
        render = event_io._render_moving_edge
        monkeypatch.setattr(event_io, "_render_moving_edge",
                            lambda *a: rendered.append(a[1]) or render(*a))
        assert main(["eval", "--config", tiny_cfg, "--checkpoint", ckpt,
                     "--out", str(tmp_path / "r")]) == 0
        assert sorted(rendered) == [0, 0, 1, 1]  # 2 classes x test_per_class 2
        # the test half has its own seed stream: the full dataset's test half
        # gives the same accuracy under the same hash
        report = json.loads((tmp_path / "r" / "eval.json").read_text())
        cfg = load_config(tiny_cfg)
        _, test = load_dataset(cfg)
        assert report["samples"] == len(test) == 4
        assert report["accuracy"] == evaluate(load_checkpoint(ckpt), test, 5,
                                              batch_size=cfg["eval"]["batch"])
        assert report["config_hash"] == config_hash(cfg)

    def test_eval_on_events_parses_only_test_files(self, tiny_cfg, run_dir,
                                                   tmp_path, capsys):
        data_dir = tmp_path / "files"
        assert main(["synth", "--config", tiny_cfg, "--out", str(data_dir)]) == 0
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY + f"\n[data]\nkind = events\npath = {data_dir}\n")
        argv = ["eval", "--config", str(cfg), "--checkpoint",
                str(run_dir / "model.ckpt"), "--out", str(tmp_path / "r")]
        train_file = data_dir / "class0_train000.events"
        train_file.write_text("not an events file\n")
        assert main(argv) == 0
        report = json.loads((tmp_path / "r" / "eval.json").read_text())
        assert report["samples"] == 4
        # every index row still needs its file
        train_file.unlink()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(train_file) in err[0]

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

    def test_checkpoint_with_dropout_one_is_exit_2(self, tiny_cfg, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_model("2sc3-2", (16, 16), dropout_p=0.0), ckpt)
        blob = ckpt.read_bytes()
        assert b"dropout=0.0\n" in blob
        ckpt.write_bytes(blob.replace(b"dropout=0.0\n", b"dropout=1.0\n"))
        assert main(["eval", "--config", tiny_cfg, "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(ckpt) in err[0] and "dropout_p" in err[0]

    @pytest.mark.parametrize("size", [b"height=0;width=16",
                                      b"height=1000000;width=1000000"])
    def test_checkpoint_with_bad_input_size_is_exit_2(self, tiny_cfg, tmp_path,
                                                      capsys, size):
        # a size with no grid, and one whose parameters would take terabytes
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_model("2sc3-2", (16, 16)), ckpt)
        blob = ckpt.read_bytes()
        assert b";height=16;width=16;" in blob
        ckpt.write_bytes(blob.replace(b"height=16;width=16", size))
        assert main(["eval", "--config", tiny_cfg, "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: corrupt checkpoint {ckpt}: ")

    def test_checkpoint_with_unknown_variant_is_exit_2(self, tiny_cfg, tmp_path,
                                                      capsys):
        # same parameter sizes as a stride net: only the variant check stops it
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_model("2sc3-2", (16, 16)), ckpt)
        blob = ckpt.read_bytes()
        assert b";variant=stride;" in blob
        ckpt.write_bytes(blob.replace(b";variant=stride;", b";variant=strid3;"))
        assert main(["eval", "--config", tiny_cfg, "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(ckpt) in err[0] and "strid3" in err[0]

    @pytest.mark.parametrize("row, where", [
        pytest.param(row, "line 2", id=row)
        for row in ("a.events,0", "a.events,zero,train", "a.events,0,validation",
                    "missing.events,0,train")
    ] + [pytest.param("", "no train rows", id="no-train-rows")])
    def test_malformed_index_is_exit_2(self, tiny_cfg, tmp_path, capsys, row,
                                       where):
        data_dir = tmp_path / "files"
        data_dir.mkdir()
        (data_dir / "index.csv").write_text(f"file,label,split\n{row}\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY + f"\n[data]\nkind = events\npath = {data_dir}\n")
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(data_dir / "index.csv") in err[0] and where in err[0]

    @pytest.mark.parametrize("label", ["1_0", "+0"])
    def test_index_label_is_ascii_digits_only(self, tiny_cfg, tmp_path, capsys,
                                              label):
        # int() reads "1_0" as 10 and "+0" as 0
        data_dir = tmp_path / "files"
        assert main(["synth", "--config", tiny_cfg, "--out", str(data_dir)]) == 0
        index = data_dir / "index.csv"
        rows = index.read_text().splitlines()
        assert rows[2].endswith(",0,train")
        rows[2] = rows[2][:-len("0,train")] + f"{label},train"
        index.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY + f"\n[data]\nkind = events\npath = {data_dir}\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {index} line 3: expected file,label,")

    @pytest.mark.parametrize("corrupt, where", [
        ("event", "outside the 128x128 sensor"),
        ("label", "user01_led_labels.csv line 2"),
        ("recording", "missing AEDAT header"),
        ("class", "user01_led_labels.csv line 2: class 12 is outside 1..11"),
    ])
    def test_corrupt_dvs128_is_exit_2(self, tmp_path, capsys, corrupt, where):
        x = 200 if corrupt == "event" else 5
        row = {"label": "1,0,abc", "class": "12,0,100000"}.get(corrupt,
                                                               "1,0,100000")
        for name in ("user01_led.aedat", "user24_led.aedat"):
            blob = ref_aedat(ref_polarity_packet([(1000, x, 3, 1), (2000, 7, 8, 0)]))
            (tmp_path / name).write_bytes(
                b"not a recording\n" if corrupt == "recording" else blob)
            (tmp_path / name.replace(".aedat", "_labels.csv")).write_text(
                f"class,startTime_usec,endTime_usec\n{row}\n")
        (tmp_path / "trials_to_train.txt").write_text("user01_led.aedat\n")
        (tmp_path / "trials_to_test.txt").write_text("user24_led.aedat\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY + f"\n[data]\nkind = dvs128\npath = {tmp_path}\n"
                       "height = 128\nwidth = 128\n")
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and where in err[0]
        # the message names the file at fault
        bad = ("user01_led_labels.csv" if corrupt in ("label", "class")
               else "user01_led.aedat")
        assert str(tmp_path / bad) in err[0]

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_undecodable_trial_listing_is_exit_2(self, tmp_path, capsys, split):
        (tmp_path / "trials_to_train.txt").write_text("user01_led.aedat\n")
        (tmp_path / "trials_to_test.txt").write_text("user24_led.aedat\n")
        listing = tmp_path / f"trials_to_{split}.txt"
        listing.write_bytes(listing.read_bytes() + b"user\xff.aedat\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY + f"\n[data]\nkind = dvs128\npath = {tmp_path}\n"
                       "height = 128\nwidth = 128\n")
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {listing}: ")
        assert "0xff" in err[0]

    @pytest.mark.parametrize("corrupt, where", [
        ("header", "truncated voxel cache header"),
        ("record", "bad voxel record"),
        ("duplicate", "bad voxel record: duplicate grid cells"),
    ], ids=["header", "record", "duplicate"])
    def test_corrupt_voxel_cache_is_exit_2(self, tmp_path, capsys, corrupt, where):
        stream = event_io.EventStream([1000, 2000], [5, 7], [3, 8], [1, 0], 128, 128)
        for name in ("user01_led.aedat", "user24_led.aedat"):
            (tmp_path / name).write_bytes(event_io.encode_aedat(stream))
            (tmp_path / name.replace(".aedat", "_labels.csv")).write_text(
                "class,startTime_usec,endTime_usec\n1,0,100000\n")
        (tmp_path / "trials_to_train.txt").write_text("user01_led.aedat\n")
        (tmp_path / "trials_to_test.txt").write_text("user24_led.aedat\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY + f"\n[data]\nkind = dvs128\npath = {tmp_path}\n"
                       "height = 128\nwidth = 128\n")
        train = ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]
        assert main(train) == 0   # voxelizes both recordings into the cache
        cache = tmp_path / ".voxcache"
        bad = cache / sorted(os.listdir(cache))[0]
        blob = bad.read_bytes()
        # cut to 20 bytes, a width of 1 that puts the record x = 5 off it, or
        # three records (first, second, first) that hold one cell twice
        if corrupt == "header":
            blob = blob[:20]
        elif corrupt == "record":
            blob = blob[:20] + (1).to_bytes(4, "little") + blob[24:]
        else:
            blob = blob[:32] + (3).to_bytes(8, "little") + blob[40:54] + blob[40:47]
        bad.write_bytes(blob)
        capsys.readouterr()
        assert main(train) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: {where}")

    def test_eval_commands_load_each_cached_test_grid_once(self, tmp_path,
                                                          monkeypatch):
        # two recordings of two gestures each, one per split; training
        # voxelizes them into the cache, from which every evaluation reads
        stream = event_io.EventStream([1000, 2000], [5, 7], [3, 8], [1, 0], 128, 128)
        for name in ("user01_led.aedat", "user24_led.aedat"):
            (tmp_path / name).write_bytes(event_io.encode_aedat(stream))
            (tmp_path / name.replace(".aedat", "_labels.csv")).write_text(
                "class,startTime_usec,endTime_usec\n1,0,100000\n2,0,100000\n")
        (tmp_path / "trials_to_train.txt").write_text("user01_led.aedat\n")
        (tmp_path / "trials_to_test.txt").write_text("user24_led.aedat\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY + f"\n[data]\nkind = dvs128\npath = {tmp_path}\n"
                       "height = 128\nwidth = 128\n")
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        loads = []
        load = event_io.BinaryVoxelGrid.load
        monkeypatch.setattr(event_io.BinaryVoxelGrid, "load",
                            lambda path: loads.append(path) or load(path))
        common = ["--config", str(cfg), "--checkpoint", str(run / "model.ckpt"),
                  "--out", str(tmp_path / "r")]
        for argv in (["eval"], ["sparsity"], ["anytime", "--t-list", "2,5"]):
            loads.clear()
            assert main(argv + common) == 0
            assert len(loads) == len(set(loads)) == 2, argv[0]

    def test_bad_events_record_names_the_file(self, tiny_cfg, tmp_path, capsys):
        data_dir = tmp_path / "files"
        assert main(["synth", "--config", tiny_cfg, "--out", str(data_dir)]) == 0
        bad = data_dir / "class1_test001.events"
        bad.write_text("16,16\n0,1,1,0\n5,x,1,0\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY + f"\n[data]\nkind = events\npath = {data_dir}\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"{bad}: line 3: non-numeric field in '5,x,1,0'" in err[0]

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_label_outside_the_model_classes_is_exit_2(self, tiny_cfg, run_dir,
                                                       tmp_path, capsys, split):
        # the model has 2 classes; a label 2 on either split is refused by
        # train, and on the test split by eval, instead of failing in the loss
        # or being scored as a wrong prediction
        data_dir = tmp_path / "files"
        assert main(["synth", "--config", tiny_cfg, "--out", str(data_dir)]) == 0
        index = data_dir / "index.csv"
        rows = index.read_text().splitlines()
        at = next(i for i, row in enumerate(rows) if row.endswith(f",1,{split}"))
        rows[at] = rows[at].replace(f",1,{split}", f",2,{split}")
        index.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY + f"\n[data]\nkind = events\npath = {data_dir}\n")
        capsys.readouterr()
        commands = [["train", "--out", str(tmp_path / "run2")]]
        if split == "test":
            commands.append(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                             "--out", str(tmp_path / "r")])
        for argv in commands:
            assert main(argv + ["--config", str(cfg)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert "data label 2" in err[0] and "2 classes" in err[0]

    def test_anytime_rejects_single_horizon_option(self, tiny_cfg, tmp_path,
                                                   capsys):
        # anytime takes its horizons from --t-list; --t belongs to eval and
        # sparsity only
        with pytest.raises(SystemExit) as e:
            main(["anytime", "--config", tiny_cfg, "--checkpoint",
                  str(tmp_path / "model.ckpt"), "--t", "3"])
        assert e.value.code == 2
        assert "--t" in capsys.readouterr().err

    def test_bad_config_is_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[train]\nlearning_rate = 5\n")
        assert main(["train", "--config", str(bad), "--out",
                     str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "train.learning_rate" in err

    @pytest.mark.parametrize("extra, key, command", [
        ("[train]\nschedule = foo\n", "schedule", "train"),
        ("[model]\narch = 4xx5-4\n", "4xx5", "train"),
        ("[model]\narch = 0sc5-4\n", "0sc5", "train"),
        ("[model]\narch = 4sc5-0\n", "4sc5-0", "train"),
        ("[model]\narch = \u0664sc5-3\n", "\u0664sc5", "train"),
        ("[train]\ndropout_p = 1.0\n", "dropout_p", "train"),
        ("[train]\nstep_every = 0\n", "step_every", "train"),
        ("[train]\nschedule = cosine\ncosine_period = 0\n", "cosine_period",
         "train"),
        ("[train]\ngrad_clip_norm = -1\n", "grad_clip_norm", "train"),
        ("[train]\ngrad_clip_norm = 0\n", "grad_clip_norm", "train"),
        ("[train]\ntruncate_bptt = -2\n", "truncate_bptt", "train"),
        ("[train]\nbeta_init = 1.5\n", "beta_init", "train"),
        ("[train]\nbeta_init = -0.1\n", "beta_init", "train"),
        ("[train]\nb_init = -0.2\n", "b_init", "train"),
        ("[train]\nalpha = 0\n", "alpha", "train"),
        ("[train]\nalpha = -3\n", "alpha", "train"),
        ("[train]\nlr0 = -1\n", "lr0", "train"),
        ("[train]\nstep_factor = -2\n", "step_factor", "train"),
        ("[train]\nweight_decay = -5\n", "weight_decay", "train"),
        ("[train]\nlr0 = inf\n", "lr0", "train"),
        ("[train]\nweight_decay = inf\n", "weight_decay", "train"),
        ("[train]\nstep_factor = inf\n", "step_factor", "train"),
        ("[train]\nalpha = inf\n", "alpha", "train"),
        ("[train]\nb_init = inf\n", "b_init", "train"),
        ("[train]\nseed = -1\n", "seed", "train"),
        # the config's own grammar: the line after TINY's last is TINY_END + 1
        ("[model]\nreadout_bias = maybe\n",
         f"bad value for model.readout_bias in line {TINY_END + 2}: 'maybe'",
         "train"),
        ("[train]\nlr0\n", f"line {TINY_END + 2}: expected key = value", "train"),
        ("[data]\nkind = hdf5\n", "unknown data.kind 'hdf5'", "train"),
        ("[data]\nkind = hdf5\n", "unknown data.kind 'hdf5'", "eval"),
        ("[train]\nseed = -1\n", "seed", "synth"),
        ("[eval]\nbatch = 0\n", "eval_batch", "train"),
        ("[eval]\nbatch = 0\n", "eval_batch", "eval"),
        # [data] values
        ("[data]\nheight = 0\n", "in_height", "train"),
        ("[data]\nwidth = -4\n", "in_width", "train"),
        ("[data]\nclasses = 9\n", "classes", "train"),
        ("[data]\nclasses = 9\n", "classes", "synth"),
        ("[data]\nheight = 0\n", "height", "synth"),
        ("[data]\ntrain_per_class = 0\n", "train_per_class", "train"),
        # evaluation horizons against TINY's 5-bin grids
        ("", "horizon 9 ", "eval --t 9"),
        ("", "horizon 9 ", "sparsity --t 9"),
        ("", "horizon -3 ", "eval --t -3"),
        ("", "horizon 9 ", "anytime --t-list 2,9"),
        ("", "horizon 0 ", "anytime --t-list 2,0"),
        ("", "eval.t_list", "anytime --t-list 2,x"),
        ("[eval]\nt_eval = 9\n", "horizon 9 ", "eval"),
        ("[eval]\nt_eval = -3\n", "horizon -3 ", "sparsity"),
        ("[eval]\nt_list = 2,9\n", "horizon 9 ", "anytime"),
        ("[eval]\nt_list = 2,0\n", "horizon 0 ", "anytime"),
    ])
    def test_invalid_training_config_is_exit_3(self, tmp_path, capsys, extra, key,
                                               command):
        bad = tmp_path / "bad.ini"
        bad.write_text(TINY + extra, encoding="utf-8")
        argv = command.split() + ["--config", str(bad), "--out", str(tmp_path / "x")]
        if command.split()[0] in ("eval", "sparsity", "anytime"):
            ckpt = tmp_path / "model.ckpt"
            save_checkpoint(build_model("2sc3-2", (16, 16), dropout_p=0.0), ckpt)
            argv += ["--checkpoint", str(ckpt)]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert key in err[0]

    def test_non_finite_loss_is_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.ini"
        cfg.write_text(TINY + "lr0 = 1e8\n")
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: epoch 0, batch 1: ")

    @pytest.mark.parametrize("command, base, flag", [
        ("synth", [], ["--seed", "5"]),
        ("train", [], ["--seed", "5"]),
        ("eval", [], ["--t", "3"]),
        ("sparsity", [], ["--seed", "5"]),
        ("anytime", ["--t-list", "2,5"], ["--t-list", "2,3"]),
    ])
    def test_flags_enter_the_config_hash(self, tiny_cfg, tmp_path, command,
                                         base, flag):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_model("2sc3-2", (16, 16), dropout_p=0.0), ckpt)

        def report_hash(out, extra):
            argv = [command, "--config", tiny_cfg, "--out", str(out)] + extra
            if command in ("eval", "sparsity", "anytime"):
                argv += ["--checkpoint", str(ckpt)]
            assert main(argv) == 0
            text = "".join(p.read_text() for p in sorted(out.iterdir())
                           if p.suffix in (".csv", ".json"))
            return set(re.findall(r'config_hash"?[=:] ?"?([0-9a-f]{12})', text))

        plain = report_hash(tmp_path / "plain", base)
        flagged = report_hash(tmp_path / "flagged", base + flag)
        assert len(plain) == len(flagged) == 1 and plain != flagged

    def test_train_on_grids_of_another_size_is_exit_2(self, tiny_cfg, tmp_path,
                                                      capsys):
        data_dir = tmp_path / "files"
        assert main(["synth", "--config", tiny_cfg, "--out", str(data_dir)]) == 0
        for size in (32, 8):
            cfg = tmp_path / "cfg.ini"
            cfg.write_text(TINY + f"\n[data]\nkind = events\npath = {data_dir}\n"
                           f"height = {size}\nwidth = {size}\n")
            capsys.readouterr()
            assert main(["train", "--config", str(cfg), "--out",
                         str(tmp_path / "run")]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert "16x16" in err[0] and f"{size}x{size}" in err[0]

    def test_eval_on_grids_of_another_size_is_exit_2(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_model("2sc3-2", (16, 16), dropout_p=0.0), ckpt)
        for size in (32, 8):
            cfg = tmp_path / "cfg.ini"
            cfg.write_text(TINY + f"\n[data]\nheight = {size}\nwidth = {size}\n")
            assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert "16x16" in err[0] and f"{size}x{size}" in err[0]

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
