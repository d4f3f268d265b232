"""Span tracing of the spikesparse layers from outside the package.

:func:`instrument` rebinds, in the module that looks a name up, the
functions that carry work from one layer to the next (for example
``training.backward`` or ``spiking._conv_sites``) to wrappers that record a
span around each call.  Nothing under ``src/`` changes, and :func:`instrument`
returns a function that restores every original binding.

A span is ``[id, name, start, end, parent id, operation id, attrs]`` with
times from ``time.perf_counter``; spans stay in memory until
:meth:`Tracer.dump`.  The operation id names the benchmark operation (one
``train()`` call, one ``evaluate`` call, one streamed sample, ...) that was
running.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from spikesparse import autograd, event_io, spiking, training
from spikesparse.sparse import SparseTensor2D


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def open(self, name, **attrs):
        span = [len(self.spans), name, time.perf_counter(), None,
                self._stack[-1][0] if self._stack else None, self.op, attrs]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span[3] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[1]} closed out of order")

    def unwind(self):
        """Close the spans an exception left open."""
        while self._stack:
            self.close(self._stack[-1])

    def parent(self):
        return self._stack[-1] if self._stack else None

    def dump(self, path, extra):
        keys = ("id", "name", "start", "end", "parent", "op", "attrs")
        with open(path, "w") as fh:
            json.dump({**extra, "spans": [dict(zip(keys, s)) for s in self.spans]},
                      fh, default=float)


def _wrap(tracer, name, fn, before=None, after=None):
    """Call ``fn`` inside a span; ``before(args, kwargs)`` and
    ``after(result, args, kwargs, span)`` fill the span's attributes."""

    def wrapper(*args, **kwargs):
        span = tracer.open(name, **(before(args, kwargs) if before else {}))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(result, args, kwargs, span)
        return result

    return wrapper


def tape_bytes(tape):
    """Bytes of the distinct arrays a gradient tape holds (views count their
    base array once)."""
    seen = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            seen[id(base)] = base.nbytes
        elif isinstance(obj, SparseTensor2D):
            visit(obj.coords)
            visit(obj.values)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)

    for entry in tape.entries:
        for value in entry.data.values():
            visit(value)
    return sum(seen.values())


def instrument(tracer):
    """Rebind the layer-boundary functions to traced wrappers; returns the
    function that undoes it."""
    saved = []

    def rebind(module, attr, wrapper_factory):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, wrapper_factory(original))

    def simple(name, before=None, after=None):
        return lambda fn: _wrap(tracer, name, fn, before, after)

    def set_attr(key, value_of):
        def after(result, args, kwargs, span):
            span[6][key] = value_of(result)
        return after

    # event_io: rendering and voxelization inside synth_dataset
    rebind(event_io, "_render_moving_edge",
           simple("event_io.render", after=set_attr("events", len)))
    rebind(event_io, "build_voxel_grid",
           simple("event_io.voxelize", after=set_attr("voxels", lambda g: g.n_nonzero)))

    # sparse: forward conv as called by spiking, conv adjoints as called by autograd
    def conv_after(result, args, kwargs, span):
        span[6]["in_sites"] = args[0].n_sites
        span[6]["out_sites"] = len(result[0])

    rebind(spiking, "_conv_sites", simple("sparse.conv", after=conv_after))
    rebind(autograd, "_conv_sites_grads", simple("sparse.conv_grad"))

    # spiking: the per-layer step and the pieces around it
    def layer_before(args, kwargs):
        return {"layer": args[0].index, "in_sites": args[1].n_sites
                if isinstance(args[1], SparseTensor2D) else None}

    def layer_after(result, args, kwargs, span):
        span[6]["spikes"] = result[1]

    rebind(spiking, "_layer_forward", simple("spiking.layer", layer_before, layer_after))

    def lazy_after(result, args, kwargs, span):
        state = args[0]
        batch, _, height, width = state.shape
        span[6]["touched"] = int(np.count_nonzero(state.last_touch == state.step))
        span[6]["sites"] = batch * height * width

    rebind(spiking, "_lif_step_lazy", simple("spiking.lif_lazy", after=lazy_after))
    rebind(spiking, "_batch_slice", simple("spiking.slice"))
    rebind(spiking, "_readout_batch", simple("spiking.readout"))
    rebind(spiking, "_dropout_recorded", simple("spiking.dropout"))

    # training: a step runs from its training forward to the projection
    def forward_factory(fn):
        forward = _wrap(tracer, "spiking.forward", fn)

        def wrapper(*args, **kwargs):
            if kwargs.get("training"):
                tracer.open("training.step")
            return forward(*args, **kwargs)
        return wrapper

    def project_factory(fn):
        project = _wrap(tracer, "training.optim", fn)

        def wrapper(*args, **kwargs):
            result = project(*args, **kwargs)
            step = tracer.parent()
            if step is not None and step[1] == "training.step":
                tracer.close(step)
            return result
        return wrapper

    def backward_before(args, kwargs):
        tape = args[0]
        return {"tape_entries": len(tape.entries), "tape_bytes": tape_bytes(tape)}

    rebind(training, "run_timesteps", forward_factory)
    rebind(training, "backward", simple("autograd.backward", before=backward_before))
    rebind(training, "clip_grad_norm", simple("training.optim"))
    rebind(training, "radam_step", simple("training.optim"))
    rebind(training, "project_params", project_factory)
    rebind(training, "evaluate", simple("training.eval"))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


def layer_metrics(spans, n_layers):
    """Per-layer metrics (value, unit) aggregated over all spans."""
    total = defaultdict(float)
    count = defaultdict(int)
    child = defaultdict(float)   # span id -> time covered by its children
    by_id = {s[0]: s for s in spans}
    attrs = defaultdict(float)
    per_layer = defaultdict(float)
    for sid, name, start, end, parent, _op, at in spans:
        dur = end - start
        total[name] += dur
        count[name] += 1
        if parent is not None:
            child[parent] += dur
        if name == "spiking.layer":
            i = at["layer"]
            per_layer[(i, "s")] += dur
            per_layer[(i, "spikes")] += at["spikes"]
            per_layer[(i, "in_sites")] += at["in_sites"] or 0
        elif name == "sparse.conv":
            attrs["in_sites"] += at["in_sites"]
            attrs["out_sites"] += at["out_sites"]
            owner = by_id.get(parent)
            if owner is not None and owner[1] == "spiking.layer":
                per_layer[(owner[6]["layer"], "out_sites")] += at["out_sites"]
        elif name == "spiking.lif_lazy":
            attrs["touched"] += at["touched"]
            attrs["lazy_sites"] += at["sites"]
        elif name == "event_io.render":
            attrs["events"] += at["events"]
        elif name == "event_io.voxelize":
            attrs["voxels"] += at["voxels"]
        elif name == "autograd.backward":
            attrs["tape_entries"] = max(attrs["tape_entries"], at["tape_entries"])
            attrs["tape_bytes"] = max(attrs["tape_bytes"], at["tape_bytes"])

    def self_time(name):
        return sum(s[3] - s[2] - child[s[0]] for s in spans if s[1] == name)

    out = {
        "event_io.render_s": (total["event_io.render"], "s"),
        "event_io.voxelize_s": (total["event_io.voxelize"], "s"),
        "event_io.events": (attrs["events"], "count"),
        "event_io.voxels": (attrs["voxels"], "count"),
        "sparse.conv_s": (total["sparse.conv"], "s"),
        "sparse.conv_calls": (count["sparse.conv"], "count"),
        "sparse.in_sites": (attrs["in_sites"], "count"),
        "sparse.out_sites": (attrs["out_sites"], "count"),
        "sparse.conv_grad_s": (total["sparse.conv_grad"], "s"),
        "spiking.forward_s": (total["spiking.forward"], "s"),
        "spiking.layer_self_s": (self_time("spiking.layer"), "s"),
        "spiking.lif_lazy_s": (total["spiking.lif_lazy"], "s"),
        "spiking.slice_s": (total["spiking.slice"], "s"),
        "spiking.readout_s": (total["spiking.readout"], "s"),
        "spiking.dropout_s": (total["spiking.dropout"], "s"),
        "spiking.lazy_touch_ratio": (attrs["touched"] / attrs["lazy_sites"]
                                     if attrs["lazy_sites"] else 0.0, "ratio"),
        "autograd.backward_s": (total["autograd.backward"], "s"),
        "autograd.self_s": (self_time("autograd.backward"), "s"),
        "autograd.tape_entries": (attrs["tape_entries"], "count"),
        "autograd.tape_mb": (attrs["tape_bytes"] / 2**20, "MB"),
        "training.step_s": (total["training.step"], "s"),
        "training.optim_s": (total["training.optim"], "s"),
        "training.eval_s": (total["training.eval"], "s"),
        "training.eval_calls": (count["training.eval"], "count"),
    }
    for i in range(n_layers):
        for key, unit in (("spikes", "count"), ("in_sites", "count"),
                          ("out_sites", "count"), ("s", "s")):
            out[f"spiking.conv{i}.{key}"] = (per_layer[(i, key)], unit)
    return out
