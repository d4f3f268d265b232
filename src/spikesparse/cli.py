"""Command-line entry point: data conversion, synthesis, training, and the
evaluation suites, driven by a sectioned key-value config file.

Config grammar: ``[section]`` headers over ``key = value`` lines; ``#``
starts a comment.  Sections and keys are fixed (unknown ones are rejected
with exit code 3); every key has a default, so an empty file is a valid
config.  Any key can be overridden through the environment as
``SPIKESPARSE_<SECTION>_<KEY>`` (e.g. ``SPIKESPARSE_TRAIN_LR0=1e-2``).

Every report written by a subcommand embeds the hash of the exact config it
ran under (``# config_hash=...`` comment line in CSVs, a ``config_hash`` key
in JSON), so results remain attributable.

Exit codes: 0 success, 2 missing or unreadable input, 3 config validation
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import event_io, training
from .event_io import (
    BinaryVoxelGrid,
    build_voxel_grid,
    load_dvs128,
    parse_aedat,
    parse_portable_events,
    serialize_portable_events,
    synth_dataset,
    synth_streams,
)
from .spiking import load_checkpoint
from .training import (
    TrainConfig,
    anytime_eval,
    evaluate,
    history_to_csv,
    sparsity_audit,
    stride_vs_pool_study,
    train,
)

__all__ = ["main", "parse_config", "serialize_config", "config_hash",
           "ConfigError", "InputError"]


class ConfigError(ValueError):
    """Config rejected; ``problems`` lists the offending keys/lines."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class InputError(ValueError):
    """An input file exists but cannot be used (exit code 2)."""


def _bool(s):
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _int_list(s):
    return [int(v) for v in s.split(",") if v.strip()]


# section -> key -> (parser, default)
_SCHEMA = {
    "data": {
        "kind": (str, "synth"),            # synth | events | dvs128
        "path": (str, ""),
        "classes": (int, 4),
        "train_per_class": (int, 50),
        "test_per_class": (int, 20),
        "height": (int, 64),
        "width": (int, 64),
    },
    "model": {
        "arch": (str, "2sc5-4sc3-4"),
        "variant": (str, "stride"),
        "readout_bias": (_bool, True),
    },
    "train": {
        "t_train": (int, 20),
        "dt_us": (int, 10_000),
        "lr0": (float, 5e-3),
        "weight_decay": (float, 1e-5),
        "batch_size": (int, 16),
        "schedule": (str, "step"),
        "step_factor": (float, 0.7),
        "step_every": (int, 2),
        "cosine_period": (int, 30),
        "grad_clip_norm": (float, 5.0),
        "alpha": (float, 3.0),
        "beta_init": (float, 0.7),
        "b_init": (float, 0.3),
        "dropout_p": (float, 0.5),
        "seed": (int, 0),
        "max_epochs": (int, 20),
        "detach_norm": (_bool, False),
        "truncate_bptt": (int, 0),
    },
    "eval": {
        "t_eval": (int, 0),                # 0 = use train.t_train
        "t_list": (_int_list, [2, 5, 10, 20]),
        "batch": (int, 0),                 # 0 = from --workers
    },
}


def parse_config(text) -> dict:
    """Parse config text into a fully-defaulted nested dict."""
    cfg = {sec: {k: default for k, (_, default) in keys.items()}
           for sec, keys in _SCHEMA.items()}
    problems = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                problems.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key = value")
            continue
        if section is None:
            problems.append(f"line {lineno}: key outside any section")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _SCHEMA[section]:
            problems.append(f"line {lineno}: unknown key {section}.{key}")
            continue
        parser = _SCHEMA[section][key][0]
        try:
            cfg[section][key] = parser(value)
        except ValueError:
            problems.append(f"line {lineno}: bad value for {section}.{key}: "
                            f"{value!r}")
    if problems:
        raise ConfigError(problems)
    return cfg


def apply_env_overrides(cfg, environ=None) -> dict:
    environ = os.environ if environ is None else environ
    problems = []
    for sec, keys in _SCHEMA.items():
        for key, (parser, _default) in keys.items():
            name = f"SPIKESPARSE_{sec.upper()}_{key.upper()}"
            if name in environ:
                try:
                    cfg[sec][key] = parser(environ[name])
                except ValueError:
                    problems.append(f"bad value in ${name}: {environ[name]!r}")
    if problems:
        raise ConfigError(problems)
    return cfg


def serialize_config(cfg) -> str:
    """Canonical text form: schema order, one key per line."""
    lines = []
    for sec, keys in _SCHEMA.items():
        lines.append(f"[{sec}]")
        for key in keys:
            value = cfg[sec][key]
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, list):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:12]


def load_config(path, environ=None, seed_override=None) -> dict:
    if path is None:
        cfg = parse_config("")
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        except OSError as e:
            raise FileNotFoundError(f"cannot read config {path}: {e}") from e
    apply_env_overrides(cfg, environ)
    if seed_override is not None:
        cfg["train"]["seed"] = int(seed_override)
    return cfg


def train_config_from(cfg) -> TrainConfig:
    t, m, d = cfg["train"], cfg["model"], cfg["data"]
    return TrainConfig(
        arch=m["arch"], in_height=d["height"], in_width=d["width"],
        t_train=t["t_train"], dt_us=t["dt_us"], lr0=t["lr0"],
        weight_decay=t["weight_decay"], batch_size=t["batch_size"],
        schedule=t["schedule"], step_factor=t["step_factor"],
        step_every=t["step_every"], cosine_period=t["cosine_period"],
        grad_clip_norm=t["grad_clip_norm"], alpha=t["alpha"],
        beta_init=t["beta_init"], b_init=t["b_init"],
        dropout_p=t["dropout_p"], seed=t["seed"],
        max_epochs=t["max_epochs"], variant=m["variant"],
        readout_bias=m["readout_bias"], detach_norm=t["detach_norm"],
        truncate_bptt=t["truncate_bptt"])


def load_dataset(cfg, workers):
    """(train, test) pairs per the [data] section."""
    d = cfg["data"]
    t_bins, dt_us = cfg["train"]["t_train"], cfg["train"]["dt_us"]
    if d["kind"] == "synth":
        return synth_dataset(d["classes"], d["train_per_class"], d["height"],
                             d["width"], t_bins, dt_us, cfg["train"]["seed"],
                             test_per_class=d["test_per_class"])
    if d["kind"] == "events":
        index = os.path.join(d["path"], "index.csv")
        if not os.path.exists(index):
            raise FileNotFoundError(f"no index.csv under {d['path']!r}")
        splits = {"train": [], "test": []}
        with open(index) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("file,"):
                    continue
                try:
                    name, label, split = line.split(",")
                    label, pairs = int(label), splits[split]
                except (ValueError, KeyError):
                    raise InputError(f"{index} line {lineno}: expected "
                                     f"file,label,train|test, got {line!r}") from None
                stream = parse_portable_events(os.path.join(d["path"], name))
                pairs.append((build_voxel_grid(stream, dt_us, t_bins), label))
        return splits["train"], splits["test"]
    if d["kind"] == "dvs128":
        cache = os.path.join(d["path"], ".voxcache") if d["path"] else None
        return load_dvs128(d["path"], dt_us=dt_us, n_timesteps=t_bins,
                           cache_dir=cache)
    raise ConfigError([f"unknown data.kind {d['kind']!r}"])


def _eval_batch(cfg, workers):
    batch = cfg["eval"]["batch"]
    return batch if batch > 0 else max(1, workers)


def _write(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# subcommands

def cmd_convert(args):
    path = args.input
    if not os.path.exists(path):
        print(f"error: no such input {path}", file=sys.stderr)
        return 2
    clip = args.clip if args.clip else None
    try:
        if path.endswith(".aedat"):
            stream = parse_aedat(path)
        else:
            stream = parse_portable_events(path)
        grid = build_voxel_grid(stream, args.dt, args.t, clip_us=clip)
    except (event_io.FormatError, event_io.EventParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    grid.save(args.output)
    print(f"events {len(stream)}")
    print(f"nonzeros {grid.n_nonzero}")
    print(f"sparsity {100.0 * grid.sparsity():.2f}%")
    return 0


def cmd_synth(args):
    cfg = load_config(args.config, seed_override=args.seed)
    d = cfg["data"]
    classes = args.classes or d["classes"]
    per_class = args.n or d["train_per_class"]
    train_s, test_s = synth_streams(classes, per_class, d["height"], d["width"],
                                    cfg["train"]["t_train"], cfg["train"]["dt_us"],
                                    cfg["train"]["seed"],
                                    test_per_class=d["test_per_class"])
    os.makedirs(args.out, exist_ok=True)
    lines = ["file,label,split"]
    for split, pairs in (("train", train_s), ("test", test_s)):
        counters = {}
        for stream, label in pairs:
            i = counters.get(label, 0)
            counters[label] = i + 1
            name = f"class{label}_{split}{i:03d}.events"
            with open(os.path.join(args.out, name), "w") as fh:
                fh.write(serialize_portable_events(stream))
            lines.append(f"{name},{label},{split}")
    _write(args.out, "index.csv", f"# config_hash={config_hash(cfg)}\n"
           + "\n".join(lines) + "\n")
    print(f"wrote {len(train_s)} train + {len(test_s)} test samples to {args.out}")
    return 0


def cmd_train(args):
    cfg = load_config(args.config, seed_override=args.seed)
    tc = train_config_from(cfg)
    dataset = load_dataset(cfg, args.workers)
    ckpt = os.path.join(args.out, "model.ckpt")
    os.makedirs(args.out, exist_ok=True)
    model, history = train(tc, dataset, checkpoint_path=ckpt, log=print)
    chash = config_hash(cfg)
    _write(args.out, "history.csv",
           f"# config_hash={chash}\n" + history_to_csv(history))
    _write(args.out, "config.resolved.ini", serialize_config(cfg))
    best = max(h["test_acc"] for h in history)
    print(f"best test accuracy {best:.4f}; checkpoint {ckpt}")
    return 0


def _load_model_and_data(args, need_checkpoint=True):
    cfg = load_config(args.config, seed_override=args.seed)
    if need_checkpoint:
        if not os.path.exists(args.checkpoint):
            raise FileNotFoundError(f"no checkpoint {args.checkpoint}")
        try:
            model = load_checkpoint(args.checkpoint)
        except (ValueError, KeyError) as e:
            raise InputError(f"corrupt checkpoint {args.checkpoint}: {e}") from e
    else:
        model = None
    dataset = load_dataset(cfg, args.workers)
    return cfg, model, dataset


def cmd_eval(args):
    cfg, model, dataset = _load_model_and_data(args)
    t_eval = args.t or cfg["eval"]["t_eval"] or cfg["train"]["t_train"]
    acc = evaluate(model, dataset[1], t_eval, batch_size=_eval_batch(cfg, args.workers))
    report = {"config_hash": config_hash(cfg), "t_eval": t_eval,
              "samples": len(dataset[1]), "accuracy": acc}
    _write(args.out, "eval.json", json.dumps(report, indent=2) + "\n")
    print(f"accuracy {acc:.4f} over {len(dataset[1])} samples at T={t_eval}")
    return 0


def cmd_sparsity(args):
    cfg, model, dataset = _load_model_and_data(args)
    t_eval = args.t or cfg["eval"]["t_eval"] or cfg["train"]["t_train"]
    audit = sparsity_audit(model, dataset[1], t_eval,
                           batch_size=_eval_batch(cfg, args.workers))
    chash = config_hash(cfg)
    _write(args.out, "sparsity.csv", f"# config_hash={chash}\n" + audit.to_csv())
    payload = json.loads(audit.to_json())
    payload["config_hash"] = chash
    _write(args.out, "sparsity.json", json.dumps(payload, indent=2) + "\n")
    print(audit.to_table(), end="")
    return 0


def cmd_anytime(args):
    cfg, model, dataset = _load_model_and_data(args)
    t_list = _int_list(args.t_list) if args.t_list else cfg["eval"]["t_list"]
    curve = anytime_eval(model, dataset[1], t_list,
                         batch_size=_eval_batch(cfg, args.workers))
    lines = [f"# config_hash={config_hash(cfg)}", "t_eval,accuracy"]
    for t, acc in curve:
        lines.append(f"{t},{acc!r}")
        print(f"T={t:4d}  accuracy {acc:.4f}")
    _write(args.out, "anytime.csv", "\n".join(lines) + "\n")
    return 0


def cmd_study_stride(args):
    cfg = load_config(args.config, seed_override=args.seed)
    tc = train_config_from(cfg)
    dataset = load_dataset(cfg, args.workers)
    rows = stride_vs_pool_study(tc, dataset, log=print)
    lines = [f"# config_hash={config_hash(cfg)}",
             "variant,accuracy,total_spikes,epochs"]
    for r in rows:
        lines.append(f"{r['variant']},{r['accuracy']!r},"
                     f"{r['total_spikes']!r},{r['epochs']}")
    _write(args.out, "stride_vs_pool.csv", "\n".join(lines) + "\n")
    return 0


def cmd_init_config(args):
    text = serialize_config(parse_config(""))
    if args.out == "-":
        print(text, end="")
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote default config to {args.out}")
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="spikesparse",
        description="Sparse spiking convolutional networks on event data")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="parallel width for evaluation batching")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, checkpoint=False, tlist=False):
        sp.add_argument("--config", default=None, help="run config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override train.seed")
        sp.add_argument("--out", default=".", help="output directory")
        if checkpoint:
            sp.add_argument("--checkpoint", required=True)
            sp.add_argument("--t", type=int, default=0,
                            help="evaluation timesteps (default from config)")
        if tlist:
            sp.add_argument("--t-list", default="",
                            help="comma-separated horizons, e.g. 5,50,150,300")

    sp = sub.add_parser("convert", help="events file -> voxel grid cache")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.add_argument("--dt", type=int, default=10_000, help="bin width (us)")
    sp.add_argument("--t", type=int, default=150, help="bin count")
    sp.add_argument("--clip", type=int, default=0,
                    help="clip horizon (us); must equal t*dt when given")
    sp.set_defaults(fn=cmd_convert)

    sp = sub.add_parser("synth", help="write a synthetic event dataset")
    common(sp)
    sp.add_argument("--classes", type=int, default=0)
    sp.add_argument("--n", type=int, default=0, help="train samples per class")
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("train", help="train per the config")
    common(sp)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="test accuracy of a checkpoint")
    common(sp, checkpoint=True)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("sparsity", help="per-layer spike audit")
    common(sp, checkpoint=True)
    sp.set_defaults(fn=cmd_sparsity)

    sp = sub.add_parser("anytime", help="accuracy vs evaluation horizon")
    common(sp, checkpoint=True, tlist=True)
    sp.set_defaults(fn=cmd_anytime)

    sp = sub.add_parser("study-stride", help="strided conv vs max-pool study")
    common(sp)
    sp.set_defaults(fn=cmd_study_stride)

    sp = sub.add_parser("init-config", help="write the default config")
    sp.add_argument("--out", default="-")
    sp.set_defaults(fn=cmd_init_config)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print("config error:", file=sys.stderr)
        for problem in e.problems:
            print(f"  {problem}", file=sys.stderr)
        return 3
    except (FileNotFoundError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (event_io.FormatError, event_io.EventParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
