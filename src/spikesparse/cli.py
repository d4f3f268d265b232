"""Command-line entry point: data conversion, synthesis, training, and the
evaluation suites, driven by a sectioned key-value config file.

Config grammar: ``[section]`` headers over ``key = value`` lines; ``#``
starts a comment.  Sections and keys are fixed (unknown ones are rejected
with exit code 3); every key has a default, so an empty file is a valid
config.  ``[model]`` and ``[train]`` hold the fields of ``TrainConfig``.
Any key can be overridden through the environment as
``SPIKESPARSE_<SECTION>_<KEY>`` (e.g. ``SPIKESPARSE_TRAIN_LR0=1e-2``), and
``--seed``, ``--t`` and ``--t-list`` set ``train.seed``, ``eval.t_eval`` and
``eval.t_list``; every override is parsed like a file value into the config
before anything reads or hashes it.

Every report written by a subcommand embeds the hash of the exact config it
ran under (``# config_hash=...`` comment line in CSVs, a ``config_hash`` key
in JSON), so results remain attributable.  A subcommand with ``--out``
checks its config, then makes that directory before it builds or reads any
data; it returns its reports and ``main`` writes them.  Every file written
goes through ``event_io._write_whole``: whole, or not at all.

Exit codes: 0 success, 2 missing or unreadable input or an unwritable
output, 3 config validation failure or a training run whose loss, gradient
or parameters stopped being finite.  Only ``main`` maps a failure to its
exit code and one stderr line: ``config error: <problems>`` for a config, and
``error: <message>`` otherwise, where a file that cannot be opened, read or
written reads ``error: <path as given>: <reason>`` and text that does not
decode is the reader's error naming the file.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import errno
import hashlib
import json
import os
import sys

from . import event_io
from .event_io import (
    _ascii_int,
    _write_whole,
    build_voxel_grid,
    load_dvs128,
    parse_aedat,
    parse_portable_events,
    serialize_portable_events,
    synth_dataset,
    synth_streams,
)
from .spiking import load_checkpoint, parse_architecture
from .training import (
    DESK_CONFIG,
    TrainConfig,
    _check_horizons,
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


# [model] and [train] keys: TrainConfig's fields but the three that [data]
# height/width and [eval] batch set, with the desk recipe's defaults
_MODEL_KEYS = ("arch", "variant", "readout_bias")
_TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig) if f.name
                    not in _MODEL_KEYS + ("in_height", "in_width", "eval_batch"))


def _field_keys(names):
    """Schema entries of TrainConfig fields: a parser of the default's type."""
    return {n: (_bool if isinstance(v, bool) else type(v), v)
            for n, v in ((n, getattr(DESK_CONFIG, n)) for n in names)}


# section -> key -> (parser, default)
_SCHEMA = {
    "data": {
        "kind": (str, "synth"),            # synth | events | dvs128
        "path": (str, ""),
        "classes": (int, 4),
        "train_per_class": (int, 50),
        "test_per_class": (int, 20),
        "height": (int, DESK_CONFIG.in_height),
        "width": (int, DESK_CONFIG.in_width),
    },
    "model": _field_keys(_MODEL_KEYS),
    "train": _field_keys(_TRAIN_KEYS),
    "eval": {
        "t_eval": (int, 0),                # 0 = use train.t_train
        "t_list": (_int_list, [2, 5, 10, 20]),
        "batch": (int, DESK_CONFIG.eval_batch),
    },
}
# command-line flag (argparse dest) -> the config key it sets
_FLAG_KEYS = {"seed": ("train", "seed"), "t": ("eval", "t_eval"),
              "t_list": ("eval", "t_list")}


def _set_values(cfg, items, problems=()):
    """Parse each ``(section, key, source, text)`` of ``items`` into ``cfg``;
    raise ConfigError over ``problems`` and the texts that do not parse."""
    problems = list(problems)
    for sec, key, source, text in items:
        try:
            cfg[sec][key] = _SCHEMA[sec][key][0](text)
        except ValueError:
            problems.append(f"bad value for {sec}.{key} in {source}: {text!r}")
    if problems:
        raise ConfigError(problems)
    return cfg


def parse_config(text) -> dict:
    """Parse config text into a fully-defaulted nested dict."""
    cfg = {sec: {k: copy.copy(default) for k, (_, default) in keys.items()}
           for sec, keys in _SCHEMA.items()}
    problems, values = [], []
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
        values.append((section, key, f"line {lineno}", value))
    return _set_values(cfg, values, problems)


def apply_env_overrides(cfg, environ=None) -> dict:
    environ = os.environ if environ is None else environ
    names = [(sec, key, f"SPIKESPARSE_{sec.upper()}_{key.upper()}")
             for sec, keys in _SCHEMA.items() for key in keys]
    return _set_values(cfg, [(sec, key, f"${name}", environ[name])
                             for sec, key, name in names if name in environ])


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


def load_config(path, environ=None, flags=None) -> dict:
    """The config at ``path`` (None: defaults), then the environment's and
    the command-line ``flags``' overrides ({argparse dest: text or None})."""
    if path is None:
        cfg = parse_config("")
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as e:
            raise ConfigError([f"{path}: {e}"]) from None
        cfg = parse_config(text)
    apply_env_overrides(cfg, environ)
    flags = flags or {}
    return _set_values(cfg, [(sec, key, "--" + dest.replace("_", "-"), flags[dest])
                             for dest, (sec, key) in _FLAG_KEYS.items()
                             if flags.get(dest) is not None])


def train_config_from(cfg) -> TrainConfig:
    try:
        return TrainConfig(in_height=cfg["data"]["height"],
                           in_width=cfg["data"]["width"],
                           eval_batch=cfg["eval"]["batch"],
                           **cfg["model"], **cfg["train"])
    except ValueError as e:
        raise ConfigError([str(e)]) from None


def load_dataset(cfg, with_train=True):
    """(train, test) pairs per the [data] section.

    With ``with_train=False``, ``synth`` and ``events`` data leave the train
    split empty and render or parse only the test samples; an events index
    is still checked row by row, train rows and their files included.
    """
    d = cfg["data"]
    t_bins, dt_us = cfg["train"]["t_train"], cfg["train"]["dt_us"]
    if d["kind"] == "synth":
        # the test half has its own seed stream: the train count moves no
        # test sample
        try:
            return synth_dataset(d["classes"],
                                 d["train_per_class"] if with_train else 0, d["height"],
                                 d["width"], t_bins, dt_us, cfg["train"]["seed"],
                                 test_per_class=d["test_per_class"])
        except ValueError as e:
            raise ConfigError([f"data: {e}"]) from None
    if d["kind"] == "events":
        index = os.path.join(d["path"], "index.csv")
        try:
            with open(index, encoding="utf-8") as fh:
                lines = fh.read().split("\n")
        except UnicodeDecodeError as e:
            raise InputError(f"{index}: {e}") from None
        splits = {"train": [], "test": []}
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("file,"):
                continue
            try:
                name, label, split = line.split(",")
                label, pairs = _ascii_int(label), splits[split]
            except (ValueError, KeyError):
                raise InputError(f"{index} line {lineno}: expected "
                                 f"file,label,train|test, got {line!r}") from None
            path = os.path.join(d["path"], name)
            if not os.path.isfile(path):
                raise InputError(f"{index} line {lineno}: no such events "
                                 f"file {path}")
            if with_train or split == "test":
                try:
                    stream = parse_portable_events(path)
                except event_io.EventParseError as e:
                    raise InputError(f"{path}: {e}") from None
                pairs.append((build_voxel_grid(stream, dt_us, t_bins), label))
        return splits["train"], splits["test"]
    if d["kind"] == "dvs128":
        cache = os.path.join(d["path"], ".voxcache") if d["path"] else None
        return load_dvs128(d["path"], dt_us=dt_us, n_timesteps=t_bins,
                           cache_dir=cache)
    raise ConfigError([f"unknown data.kind {d['kind']!r}"])


def _check_samples(dataset, height, width, num_classes):
    """Exit 2 unless every grid of ``dataset`` is the model's input size and
    every label one of its ``num_classes`` classes."""
    found, labels = set(), set()
    for pairs in dataset:
        for g, label in pairs:
            found.add((g.height, g.width))
            labels.add(label)
    if found - {(height, width)}:
        h, w = min(found - {(height, width)})
        raise InputError(f"data grids are {h}x{w} but the model takes "
                         f"{height}x{width}")
    outside = sorted(l for l in labels if not 0 <= l < num_classes)
    if outside:
        raise InputError(f"data label {outside[0]} is outside the model's "
                         f"{num_classes} classes 0..{num_classes - 1}")


def _load_run_config(args):
    """Checked config and training config of a run, whose ``--out``
    directory is then made before any data is built or read."""
    cfg = load_config(args.config, flags=vars(args))
    tc = train_config_from(cfg)
    try:
        os.makedirs(args.out, exist_ok=True)
    except FileExistsError:
        raise NotADirectoryError(errno.ENOTDIR, "not a directory", args.out) from None
    return cfg, tc


def _load_training_setup(args):
    """Config, training config and dataset (with train samples) of a run."""
    cfg, tc = _load_run_config(args)
    dataset, d = load_dataset(cfg), cfg["data"]
    if not dataset[0] and d["kind"] == "synth":
        raise ConfigError(["data.train_per_class must be positive"])
    if not dataset[0]:
        listing = "index.csv" if d["kind"] == "events" else "trials_to_train.txt"
        raise InputError(f"{os.path.join(d['path'], listing)}: no train rows")
    _check_samples(dataset, tc.in_height, tc.in_width,
                   parse_architecture(tc.arch)[1])
    return cfg, tc, dataset


# ---------------------------------------------------------------------------
# subcommands

def cmd_convert(args):
    read = parse_aedat if args.input.endswith(".aedat") else parse_portable_events
    try:
        stream = read(args.input)
        grid = build_voxel_grid(stream, args.dt, args.t)
    except ValueError as e:
        raise InputError(f"{args.input}: {e}") from None
    grid.save(args.output)
    print(f"events {len(stream)}")
    print(f"nonzeros {grid.n_nonzero}")
    print(f"sparsity {100.0 * grid.sparsity():.2f}%")
    return {}


def cmd_synth(args):
    cfg, tc = _load_run_config(args)
    d = cfg["data"]
    try:
        train_s, test_s = synth_streams(d["classes"], d["train_per_class"],
                                        d["height"], d["width"], tc.t_train,
                                        tc.dt_us, tc.seed,
                                        test_per_class=d["test_per_class"])
    except ValueError as e:
        raise ConfigError([f"data: {e}"]) from None
    files, lines = {}, [f"# config_hash={config_hash(cfg)}", "file,label,split"]
    for split, pairs in (("train", train_s), ("test", test_s)):
        counters = {}
        for stream, label in pairs:
            i = counters.get(label, 0)
            counters[label] = i + 1
            name = f"class{label}_{split}{i:03d}.events"
            files[name] = serialize_portable_events(stream)
            lines.append(f"{name},{label},{split}")
    print(f"{len(train_s)} train + {len(test_s)} test samples for {args.out}")
    return {**files, "index.csv": "\n".join(lines) + "\n"}


def cmd_train(args):
    cfg, tc, dataset = _load_training_setup(args)
    ckpt = os.path.join(args.out, "model.ckpt")
    model, history = train(tc, dataset, checkpoint_path=ckpt, log=print)
    best = max(h["test_acc"] for h in history)
    print(f"best test accuracy {best:.4f}; checkpoint {ckpt}")
    return {"history.csv": (f"# config_hash={config_hash(cfg)}\n"
                            + history_to_csv(history)),
            "config.resolved.ini": serialize_config(cfg)}


def _load_model_and_data(args, anytime=False):
    """Checked config, checkpoint model, test split and evaluation horizons
    (``eval.t_list`` for ``anytime``, else ``eval.t_eval`` or ``t_train``)."""
    cfg, tc = _load_run_config(args)
    try:
        model = load_checkpoint(args.checkpoint)
    except (ValueError, KeyError) as e:
        raise InputError(f"corrupt checkpoint {args.checkpoint}: {e}") from e
    # read once: a cached split loads each grid on every pass over it
    test = list(load_dataset(cfg, with_train=False)[1])
    _check_samples([test], model.in_height, model.in_width, model.num_classes)
    horizons = (cfg["eval"]["t_list"] if anytime
                else [cfg["eval"]["t_eval"] or tc.t_train])
    try:
        _check_horizons(test, horizons)
    except ValueError as e:
        raise ConfigError([str(e)]) from None
    return cfg, model, test, horizons


def cmd_eval(args):
    cfg, model, test, (t_eval,) = _load_model_and_data(args)
    acc = evaluate(model, test, t_eval, batch_size=cfg["eval"]["batch"])
    report = {"config_hash": config_hash(cfg), "t_eval": t_eval,
              "samples": len(test), "accuracy": acc}
    print(f"accuracy {acc:.4f} over {len(test)} samples at T={t_eval}")
    return {"eval.json": json.dumps(report, indent=2) + "\n"}


def cmd_sparsity(args):
    cfg, model, test, (t_eval,) = _load_model_and_data(args)
    audit = sparsity_audit(model, test, t_eval,
                           batch_size=cfg["eval"]["batch"])
    chash = config_hash(cfg)
    payload = json.loads(audit.to_json())
    payload["config_hash"] = chash
    print(audit.to_table(), end="")
    return {"sparsity.csv": f"# config_hash={chash}\n" + audit.to_csv(),
            "sparsity.json": json.dumps(payload, indent=2) + "\n"}


def cmd_anytime(args):
    cfg, model, test, t_list = _load_model_and_data(args, anytime=True)
    curve = anytime_eval(model, test, t_list,
                         batch_size=cfg["eval"]["batch"])
    lines = [f"# config_hash={config_hash(cfg)}", "t_eval,accuracy"]
    for t, acc in curve:
        lines.append(f"{t},{acc!r}")
        print(f"T={t:4d}  accuracy {acc:.4f}")
    return {"anytime.csv": "\n".join(lines) + "\n"}


def cmd_study_stride(args):
    cfg, tc, dataset = _load_training_setup(args)
    rows = stride_vs_pool_study(tc, dataset, log=print)
    lines = [f"# config_hash={config_hash(cfg)}",
             "variant,accuracy,total_spikes,epochs"]
    for r in rows:
        lines.append(f"{r['variant']},{r['accuracy']!r},"
                     f"{r['total_spikes']!r},{r['epochs']}")
    return {"stride_vs_pool.csv": "\n".join(lines) + "\n"}


def cmd_init_config(args):
    text = serialize_config(parse_config(""))
    if args.out == "-":
        print(text, end="")
    else:
        _write_whole(args.out, text.encode())
        print(f"wrote default config to {args.out}")
    return {}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="spikesparse",
        description="Sparse spiking convolutional networks on event data")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fn, checkpoint=False, horizon=None):
        sp.set_defaults(fn=fn)
        sp.add_argument("--config", default=None, help="run config file")
        sp.add_argument("--seed", help="sets train.seed")
        sp.add_argument("--out", default=".", help="output directory")
        if checkpoint:
            sp.add_argument("--checkpoint", required=True)
        if horizon == "t":
            sp.add_argument("--t", help="sets eval.t_eval (timesteps)")
        elif horizon == "t-list":
            sp.add_argument("--t-list", help="sets eval.t_list, e.g. 5,50,150,300")

    sp = sub.add_parser("convert", help="events file -> voxel grid cache")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.add_argument("--dt", type=int, default=10_000, help="bin width (us)")
    sp.add_argument("--t", type=int, default=150, help="bin count")
    sp.set_defaults(fn=cmd_convert)

    sp = sub.add_parser("synth", help="write a synthetic event dataset")
    common(sp, cmd_synth)

    sp = sub.add_parser("train", help="train per the config")
    common(sp, cmd_train)

    sp = sub.add_parser("eval", help="test accuracy of a checkpoint")
    common(sp, cmd_eval, checkpoint=True, horizon="t")

    sp = sub.add_parser("sparsity", help="per-layer spike audit")
    common(sp, cmd_sparsity, checkpoint=True, horizon="t")

    # no abbreviations: `--t` would otherwise stand for `--t-list`
    sp = sub.add_parser("anytime", help="accuracy vs evaluation horizon",
                        allow_abbrev=False)
    common(sp, cmd_anytime, checkpoint=True, horizon="t-list")

    sp = sub.add_parser("study-stride", help="strided conv vs max-pool study")
    common(sp, cmd_study_stride)

    sp = sub.add_parser("init-config", help="write the default config")
    sp.add_argument("--out", default="-")
    sp.set_defaults(fn=cmd_init_config)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a subcommand returns its reports: {file name under --out: text}
        for name, text in args.fn(args).items():
            _write_whole(os.path.join(args.out, name), text.encode())
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except FloatingPointError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        # the path the user gave and the reason, without errno's "[Errno N]"
        print(f"error: {e.filename}: {e.strerror}" if e.filename is not None
              else f"error: {e}", file=sys.stderr)
        return 2
    except (InputError, event_io.FormatError, event_io.EventParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
