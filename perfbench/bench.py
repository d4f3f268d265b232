"""The spikesparse benchmark: workloads, timed phases and correctness checks.

One run builds a workload's synthetic data from ``--seed`` and then measures,
in one process with one closed-loop client, four phases of the program:

``train``    ``training.train`` on the workload's training samples;
``infer``    ``training.evaluate`` at the full horizon;
``anytime``  ``training.anytime_eval`` over the workload's horizon list;
``stream``   one sample fed one 10 ms bin at a time through
             ``spiking.network_forward(model, grid, 1, start=t)``.

Every workload runs every phase, because every run reports every end-to-end
metric; a workload sets the sizes and how many operations of each phase
make up one round.  Rounds repeat until ``--seconds`` have passed and at
least three rounds have run, so each phase's samples spread over the whole
run; further samples are then streamed until the stream has enough steps for
its 99th percentile.  Timings are medians.  ``tracemalloc`` runs in a
separate, untimed pass.

Timings are reported at a reference machine speed.  On a shared host the
speed of one core swings by up to 1.6x for tens of seconds at a time, as
long as a run, so a plain median follows the host rather than the program.
A fixed probe of interpreter and NumPy work (:func:`probe`) runs after
every operation, and each operation's time is scaled by ``PROBE_REF_S`` over
the median probe time around it.  The unscaled medians and the median speed
factor are printed in the report's notes.

The network weights come from a fixed seed, so ``--seed`` varies only the
data: with per-seed weights, the spikes of the first desk layer varied
twofold between seeds and with them every timing.

Outputs are checked outside the timed operations against the independent
dense reference in ``reference.py``: the logits, per-layer spike counts and
accuracies of every ``evaluate`` and ``anytime_eval`` call and of every
streamed sample, one batch's gradients, finite training losses, identical
data from repeated set-ups, and spikes in every conv layer.

A traced run (``profile``) runs one untraced and one traced operation of each
phase; the traced ones yield the per-layer metrics (see ``spans.py``), and
the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time
import traceback
import tracemalloc
from dataclasses import dataclass

import numpy as np

from spikesparse import event_io, spiking, training
from spikesparse.autograd import GradientTape, backward, softmax_xent

import reference
import spans

DT_US = 10_000           # one voxel bin: 10 ms, the real-time budget of a stream step
MODEL_SEED = 0
TOL = 1e-9               # logits and gradients against the dense reference
STREAM_MIN_STEPS = 1000  # at least ten samples beyond the 99th percentile
STREAM_PASSES = 3
MIN_ROUNDS = 3
PHASES = ("train", "infer", "anytime", "stream")
PROBE_REF_S = 0.005      # probe time that defines the reference machine speed
PROBE_WINDOW_S = 2.0
PROBES_PER_OP = 3
_PROBE_X = np.arange(4096, dtype=np.float64).reshape(64, 64)


def probe():
    """Seconds taken by a fixed mix of interpreter loops and small NumPy
    calls, the kind of work the program does."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(25000):
        acc += i * i
    keys = _PROBE_X.ravel()
    for _ in range(160):
        y = _PROBE_X * 0.5 + 1.0
        np.searchsorted(keys, y.ravel()[:256])
        _PROBE_X[:8] @ y[:, :8]
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    name: str
    arch: str
    hw: int                 # input height and width
    t: int                  # timesteps (bins) per sample
    b_init: float           # initial threshold of every layer
    dropout: float
    classes: int
    train_per_class: int
    test_per_class: int     # 0: train() gets no test split, the phases use the train split
    train_n: int            # samples per train() call, which trains one epoch
    batch: int              # train and evaluate batch size
    eval_n: int             # samples for evaluate, anytime_eval and streaming
    horizons: tuple
    grad_n: int             # samples in the gradient check's batch
    round: tuple            # operations per round, in PHASES order


PAPER_ARCH = "4sc5-8sc5-8sc3-16sc3-11"
# b_init 0.02 for the paper geometry: at the default 0.3 layers 2-4 never
# spike on synthetic data, and at 0.03 the last layer fell to 245 spikes over
# eight samples for one of ten seeds of data and weights; at 0.02 every layer
# fired at least 5654 times for each of them while no layer exceeded 1.7 %
# density.
PAPER_B_INIT = 0.02

WORKLOADS = {
    # The desk gate's geometry and recipe on a third of its samples (the
    # gate's 280 samples take 11 s to render, and a run sets up three
    # times): the per-tap kernel map dominates training, the tape is small,
    # and every train() epoch ends with an evaluate.
    "desk-train": Workload(
        "desk-train", "2sc5-4sc3-4", 64, 20, 0.15, 0.0, 4, 16, 8,
        train_n=64, batch=16, eval_n=32, horizons=(2, 5, 10, 20),
        grad_n=16, round=(1, 2, 2, 10)),
    # The paper geometry with untrained weights: the only workload with the
    # large per-timestep tape in training and with lazy LIF in inference;
    # B=1 streaming is bound by per-call overhead, B=8 calls by work volume.
    "paper": Workload(
        "paper", PAPER_ARCH, 128, 150, PAPER_B_INIT, 0.5, 8, 1, 0,
        train_n=8, batch=8, eval_n=8, horizons=(10, 50, 150),
        grad_n=1, round=(1, 1, 1, 2)),
}


def config_of(w: Workload) -> training.TrainConfig:
    return training.TrainConfig(
        arch=w.arch, in_height=w.hw, in_width=w.hw, t_train=w.t, dt_us=DT_US,
        batch_size=w.batch, b_init=w.b_init, dropout_p=w.dropout, seed=MODEL_SEED,
        max_epochs=1, eval_batch=w.batch)


def environment(seed):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "numpy": np.__version__, "blas": blas, "python": platform.python_version(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "seed": seed,
    }


class Ledger:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self, log):
        self.attempted = 0
        self.failures = []
        self.log = log

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}")
            self.log(f"FAILED {what}: {detail}")
        return ok

    def run(self, what, fn, *args):
        """Call ``fn``; an exception counts as a failed operation."""
        try:
            return fn(*args)
        except Exception:
            self.attempted += 1
            self.failures.append(f"{what}: raised")
            self.log(f"FAILED {what}: raised\n{traceback.format_exc()}")
            return None


def result(ledger, metrics):
    """The run's result object: the last line the benchmark prints."""
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _max_rel(a, b):
    scale = float(np.max(np.abs(b), initial=0.0))
    return float(np.max(np.abs(a - b), initial=0.0)) / (scale if scale else 1.0)


def _accuracy(logits, labels, horizon):
    pred = np.argmax(logits[:horizon].mean(axis=0), axis=1)
    return int((pred == labels).sum()) / len(labels)


class Run:
    def __init__(self, w: Workload, seed: int, seconds: float, log=print):
        self.w, self.seed, self.seconds = w, seed, seconds
        self.log = log
        self.ledger = Ledger(log)
        self.cfg = config_of(w)
        self.tracer = None
        self.notes = {}
        self.probes = []    # (time, probe seconds)
        self.ops = []       # (phase, start, end, timing samples)

    # --- set-up ------------------------------------------------------------
    def setup(self, reps):
        """Build data and model ``reps`` times, checking they agree."""
        w = self.w
        first = None
        for _ in range(reps):
            built = []

            def build():
                t0 = time.perf_counter()
                data = event_io.synth_dataset(w.classes, w.train_per_class, w.hw,
                                              w.hw, w.t, DT_US, self.seed,
                                              test_per_class=w.test_per_class)
                built.append((data, training.init_model(self.cfg)))
                return [time.perf_counter() - t0]

            self._record("setup", build)
            data, model = built[0]
            if first is None:
                first = (data, model)
                continue
            same = all(len(a) == len(b) and all(ga.equals(gb) and la == lb
                                                for (ga, la), (gb, lb) in zip(a, b))
                       for a, b in zip(first[0], data))
            same = same and all(np.array_equal(p.value, q.value) for p, q in
                                zip(first[1].parameters(), model.parameters()))
            self.ledger.check("set-up is deterministic", same, "data or weights differ")
        (train_pairs, test_pairs), self.model = first
        self.train_pairs = train_pairs
        self.eval_pairs = (test_pairs or train_pairs)[:w.eval_n]
        self.dataset = (train_pairs[:w.train_n], test_pairs)

    def _record(self, name, fn, *args):
        """Run an operation and probe the machine speed after it; keep the
        operation's timing samples and when it ran."""
        t0 = time.perf_counter()
        out = fn(*args)
        self.ops.append((name, t0, time.perf_counter(), out))
        for _ in range(PROBES_PER_OP):
            self.probes.append((time.perf_counter(), probe()))
        return out

    def _samples(self):
        """Each phase's samples, unscaled and at the reference speed.

        An operation's speed factor is ``PROBE_REF_S`` over the median of the
        probes within ``PROBE_WINDOW_S`` of it: single probes jitter by 10 %
        within 40 ms, while the swings the factor corrects last seconds to
        tens of seconds."""
        at = np.array([t for t, _ in self.probes])
        took = np.array([p for _, p in self.probes])
        raw = {name: [] for name in ("setup",) + PHASES}
        scaled = {name: [] for name in ("setup",) + PHASES}
        factors = []
        for name, t0, t1, out in self.ops:
            near = (at >= t0 - PROBE_WINDOW_S) & (at <= t1 + PROBE_WINDOW_S)
            factor = PROBE_REF_S / float(np.median(took[near]))
            factors.append(factor)
            raw[name] += out
            scaled[name] += [s * factor for s in out]
        return raw, scaled, factors

    # --- operations: each returns its timing samples -------------------------
    def op_train(self):
        t0 = time.perf_counter()
        _, history = training.train(self.cfg, self.dataset)
        dt = time.perf_counter() - t0
        losses = [row["train_loss"] for row in history]
        self.ledger.check("training losses are finite",
                          all(math.isfinite(x) for x in losses), str(losses))
        self.train_test_acc = history[-1]["test_acc"]
        return [dt]

    def _call(self, fn, *args):
        """Time ``fn`` with ``training.run_timesteps`` rebound to keep what
        each call returns: one extra Python call per batch."""
        original = training.run_timesteps
        outputs = []

        def keep(*a, **k):
            out = original(*a, **k)
            outputs.append(out)
            return out

        training.run_timesteps = keep
        try:
            t0 = time.perf_counter()
            value = fn(*args)
            dt = time.perf_counter() - t0
        finally:
            training.run_timesteps = original
        return value, dt, outputs

    def _check_batched(self, what, outputs, horizon):
        """The logits and spike counts of one evaluate call's batches."""
        logits = np.concatenate([stacked for stacked, _, _ in outputs], axis=1)
        counts = sum(c for _, _, c in outputs)
        err = _max_rel(logits, self.ref_logits[:horizon])
        self.ledger.check(f"{what} logits equal the dense reference", err <= TOL,
                          f"horizon {horizon}: relative error {err:.3e}")
        expect = self.ref_counts[:horizon].sum(axis=(0, 1))
        self.ledger.check(f"{what} spike counts equal the dense reference",
                          np.array_equal(counts, expect), f"{counts} != {expect}")

    def op_infer(self):
        acc, dt, outputs = self._call(training.evaluate, self.model, self.eval_pairs,
                                      self.w.t, self.w.batch)
        self._check_batched("evaluate", outputs, self.w.t)
        self.ledger.check("evaluate accuracy equals the reference",
                          acc == self.ref_acc, f"{acc} != {self.ref_acc}")
        return [dt]

    def op_anytime(self):
        curve, dt, outputs = self._call(training.anytime_eval, self.model,
                                        self.eval_pairs, self.w.horizons, self.w.batch)
        per_call = -(-len(self.eval_pairs) // self.w.batch)
        for k, h in enumerate(self.w.horizons):
            self._check_batched("anytime", outputs[k * per_call:(k + 1) * per_call], h)
        self.ledger.check("anytime accuracies equal the reference",
                          curve == self.ref_anytime, f"{curve} != {self.ref_anytime}")
        return [dt]

    def op_stream(self, i):
        """Stream evaluation sample ``i`` bin by bin, ``STREAM_PASSES`` times.
        A step's sample is the least of its passes: the host stalls single
        steps now and then, and a stall rarely hits the same step in every
        pass, while a step that is slow in the program is slow in all."""
        grid = self.eval_pairs[i][0]
        passes = []
        for _ in range(STREAM_PASSES):
            self.model.reset_state(1)
            steps, rows, counts = [], [], 0
            for t in range(self.w.t):
                span = self.tracer.open("spiking.forward") if self.tracer else None
                t0 = time.perf_counter()
                logits, _, c = spiking.network_forward(self.model, grid, 1, start=t)
                steps.append(time.perf_counter() - t0)
                if span is not None:
                    self.tracer.close(span)
                rows.append(logits[0])
                counts = counts + c
            err = _max_rel(np.array(rows), self.ref_logits[:, i, :])
            self.ledger.check("streamed logits equal the batched reference",
                              err <= TOL, f"sample {i}: relative error {err:.3e}")
            expect = self.ref_counts[:, i, :].sum(axis=0)
            self.ledger.check("streamed spike counts equal the reference",
                              np.array_equal(counts, expect), f"{counts} != {expect}")
            passes.append(steps)
        return np.min(passes, axis=0).tolist()

    def _op(self, name, n):
        """Operation ``n`` of a phase; an operation that raises yields nothing."""
        if self.tracer is not None:
            self.tracer.op = f"{name}#{n}"
        if name == "stream":
            out = self.ledger.run(name, self.op_stream, n % len(self.eval_pairs))
        else:
            out = self.ledger.run(name, getattr(self, "op_" + name))
        if self.tracer is not None:
            self.tracer.unwind()
        return out or []

    # --- checks --------------------------------------------------------------
    def prepare_reference(self):
        """Run the dense reference on the evaluation samples: the outputs that
        every timed call must reproduce.  A silent conv layer fails the run."""
        grids = [g for g, _ in self.eval_pairs]
        labels = np.array([l for _, l in self.eval_pairs])
        self.ref_logits, self.ref_counts = reference.forward(self.model, grids, self.w.t)
        spikes = self.ref_counts.sum(axis=(0, 1))
        self.ledger.check("every conv layer spikes", bool(np.all(spikes > 0)),
                          f"per-layer spikes {spikes.tolist()}")
        self.notes["spikes_per_layer"] = spikes.tolist()
        self.ref_acc = _accuracy(self.ref_logits, labels, self.w.t)
        self.ref_anytime = [(int(h), _accuracy(self.ref_logits, labels, h))
                            for h in self.w.horizons]

    def check_gradients(self):
        """One batch's gradients against the dense reference.  Dropout is
        off in both: the sparse and dense paths draw masks of different
        shapes, so they cannot share them."""
        model = self.model.clone()
        model.dropout_p = 0.0
        pairs = self.train_pairs[:self.w.grad_n]
        grids = [g for g, _ in pairs]
        labels = np.array([l for _, l in pairs])
        tape = GradientTape()
        model.reset_state(len(grids))
        _, mean, _ = spiking.run_timesteps(model, grids, self.w.t, training=True,
                                           recorder=tape)
        loss, probs = softmax_xent(mean, labels)
        tape.record_loss(probs, labels, mean)
        grads = backward(tape)
        del tape
        ref_loss, ref_grads = reference.gradients(model, grids, labels, self.w.t)
        self.ledger.check("gradient-check loss is finite", math.isfinite(loss), str(loss))
        worst = max(_max_rel(grads.get(p), ref_grads[p.name]) for p in model.parameters())
        worst = max(worst, abs(loss - ref_loss) / max(abs(ref_loss), 1.0))
        self.ledger.check("gradients equal the dense reference", worst <= TOL,
                          f"relative error {worst:.3e}")

    def test_acc(self):
        """Final test accuracy of train() where it has a test split, else the
        accuracy of the evaluated model on the evaluation samples."""
        return self.train_test_acc if self.dataset[1] else self.ref_acc

    # --- runs ------------------------------------------------------------------
    def measure(self):
        """Untraced run: the end-to-end metrics."""
        w = self.w
        self.setup(3)
        self.prepare_reference()
        ops = dict.fromkeys(PHASES, 0)
        start, rounds = time.perf_counter(), 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            for name, k in zip(PHASES, w.round):
                for _ in range(k):
                    self._record(name, self._op, name, ops[name])
                    ops[name] += 1
            rounds += 1
        while ops["stream"] * w.t < STREAM_MIN_STEPS:
            self._record("stream", self._op, "stream", ops["stream"])
            ops["stream"] += 1
        self.check_gradients()
        mem_mb, mem_s = self.peak_memory()
        raw, scaled, factors = self._samples()
        med = {name: statistics.median(s) for name, s in scaled.items()}
        stream_ms = np.array(scaled["stream"]) * 1e3
        p99 = float(np.percentile(stream_ms, 99))
        metrics = {
            "setup_s": (med["setup"], "s"),
            "train_samples_per_s": (w.train_n / med["train"], "1/s"),
            "infer_samples_per_s": (len(self.eval_pairs) / med["infer"], "1/s"),
            "anytime_s": (med["anytime"], "s"),
            "stream_step_ms_p50": (float(np.percentile(stream_ms, 50)), "ms"),
            "stream_step_ms_p99": (p99, "ms"),
            "peak_mem_mb": (mem_mb, "MB"),
        }
        raw_train = statistics.median(raw["train"])
        self.notes.update({
            "samples": {"rounds": rounds, **{name: len(s) for name, s in raw.items()},
                        "stream_steps_beyond_p99": int(np.sum(stream_ms > p99))},
            "unscaled_median_s": {name: statistics.median(s) for name, s in raw.items()},
            "speed_factor_median": statistics.median(factors),
            "test_acc": self.test_acc(),
            "tracemalloc_pass_s": mem_s,
            "tracemalloc_overhead_s": mem_s - raw_train,
        })
        return metrics

    def peak_memory(self):
        """tracemalloc peak of one train() call, and the call's time under
        tracemalloc."""
        tracemalloc.start()
        try:
            traced = self._op("train", "mem")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20, sum(traced)

    def profile(self):
        """Traced run: the per-layer metrics and the tracing overhead.

        Returns the metrics and the tracer holding the spans."""
        tracer = spans.Tracer()

        def traced(fn, *args):
            restore = spans.instrument(tracer)
            self.tracer = tracer
            try:
                return fn(*args)
            finally:
                self.tracer = None
                restore()

        tracer.op = "setup#0"
        traced(self.setup, 1)
        self.prepare_reference()
        plain_s, traced_s = {}, {}
        for name in PHASES:
            plain_s[name] = sum(self._op(name, 0))
            traced_s[name] = sum(traced(self._op, name, 0))
        self.check_gradients()
        metrics = spans.layer_metrics(tracer.spans, max_layers())
        metrics["training.test_acc"] = (self.test_acc(), "fraction")
        metrics["trace.overhead_s"] = (sum(traced_s.values()) - sum(plain_s.values()), "s")
        self.notes.update({"untraced_s": plain_s, "traced_s": traced_s,
                           "spans": len(tracer.spans)})
        return metrics, tracer


def max_layers():
    """Conv layers of the deepest workload; shallower ones report 0 beyond."""
    return max(len(w.arch.split("-")) - 1 for w in WORKLOADS.values())
