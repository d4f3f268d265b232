"""Reverse-mode differentiation through the timestep unrolling.

The forward pass records a :class:`GradientTape` of one run: its voxel
grids, first bin and step count, then one entry per operation (layer,
dropout, readout) in ``run_timesteps``' order, then the loss, each keeping
what backward cannot read from its layer again; a layer entry is a whole
layer step (conv, LIF and optional pool), replayed as pool, LIF, conv.  Layer
0's entries keep no copy of their input: backward slices bin ``start + t`` of
the run's grids again, as it reads the weights, leak and threshold from the
layer again, so none may change between the forward and the backward.
:func:`backward` walks the entries in reverse once from the loss, handing
one adjoint from each entry to the one before it (readout, top layer, ...,
layer 0 per step, as a dense BPTT does) and across all timesteps through the
membrane recurrence ``V[n] -> V[n+1]`` and the reset term's dependence on
the previous spikes, so the leak and threshold of every layer receive
gradients from every timestep.  It consumes the tape: nothing reads an entry
after its own step, so each entry is dropped once it is walked, and the tape
is empty when backward returns.

The tape is lean: a layer entry keeps the conv's current only at its output
sites, its input only above layer 0, and the dense potentials only at the
first step of each segment of ``_SEGMENT`` steps.  It copies no array: each
sparse tensor is kept as the forward's own arrays of flat int64 site keys
(see :mod:`spikesparse.sparse`) and values, ``bool`` for a hard step's 0/1
spikes, so a layer's spikes at step t are, by the same arrays, its previous
spikes at step t+1 and (pooled, with a pool) the next layer's input or the
readout's.  The conv's output sites are kept as the step's keys too, one
cached array per geometry at every site.  Backward indexes its rows by
those keys and decodes a record into a ``SparseTensor2D`` only for the conv
gradients, the pool adjoint and the readout.  It replays a segment's
potentials once, from that stored start, with the forward's recurrence,
and carries the recurrence adjoints of each layer from step t+1 to step t
(checkpointing over time: Chen et al., "Training deep nets with sublinear
memory cost", arXiv 1604.06174; Gruslys et al., "Memory-efficient
backpropagation through time", NeurIPS 2016).  The gradients are
bit-identical to storing every potential and every input.

Backward runs each layer's LIF adjoint on its support only.  Adjoints enter
a layer step at the sites it handed on (its spike tensor: the spiking sites
of an ``sc`` layer, every site of a ``c`` layer or a soft run), and the
reset and leak carry them back in time along one site, so at step t they
are exact zeros off the sites handed on at step t or later.  Ordered by the
last step that handed them on, those sites make each step's support a
prefix of one row order, and the replay, the surrogate and the reductions
run on that prefix (see ``_LayerReplay``; Perez-Nieves & Goodman, "Sparse
spiking gradient descent", NeurIPS 2021, restrict BPTT to active neurons
in the same way).  Walking back, supports only grow, so a layer's replay
buffers are sized to the support of the segment being replayed, and grow
with it, rather than to the first step's support for the whole run.

Wherever the forward applied the spike step, backward substitutes the
surrogate derivative evaluated at the normalized argument
``V / (|W|^2 + eps) - b``.  In soft-forward mode (:func:`soft_forward_mode`)
the forward itself uses the sigmoid whose derivative *is* that surrogate, the
network becomes a smooth function, and :func:`finite_diff_check` can compare
backward against central differences.

By default the squared weight norm inside the threshold and reset belongs to
the gradient graph (gradients flow into the weights through the
normalization); set ``model.detach_norm = True`` to treat it as a constant.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .sparse import (
    SparseTensor2D,
    _conv_sites_grads,
    _flat_sites,
    _grid_sites,
    _nonzero_rows,
    _pool_sites_grads,
)
from .spiking import (
    EPSILON,
    _batch_slice,
    _flat_indices,
    _lif_recurrence,
    _surrogate_into,
    run_timesteps,
)

__all__ = [
    "ParamGrads",
    "GradientTape",
    "backward",
    "soft_forward_mode",
    "softmax_xent",
    "central_difference",
    "finite_diff_check",
]


class ParamGrads:
    """Per-parameter gradient accumulators keyed by parameter name."""

    def __init__(self):
        self._grads = {}

    def add(self, param, g):
        if param.name in self._grads:
            self._grads[param.name] += g
        else:
            self._grads[param.name] = np.array(g, dtype=np.float64)

    def get(self, param):
        """Gradient for ``param`` (zeros when it never received one)."""
        g = self._grads.get(param.name)
        return np.zeros_like(param.value) if g is None else g.reshape(param.value.shape)

    def to_list(self, params):
        return [self.get(p) for p in params]


class _Entry:
    __slots__ = ("kind", "data")

    def __init__(self, kind, **data):
        self.kind = kind
        self.data = data


def _sites(keys, batch, height, width):
    """The ``(b, x, y)`` rows of canonical flat ``keys``; every site's are
    the cached ``_grid_sites``."""
    if len(keys) == batch * height * width:
        return _grid_sites(batch, height, width)
    return _flat_sites(keys, height, width)


class _Kept(NamedTuple):
    """A sparse tensor as the tape keeps it: the tensor's own arrays of flat
    site keys and ``[N, C]`` values (``bool`` for a hard step's spikes), and
    its grid ``(B, H, W)``."""
    keys: np.ndarray
    values: np.ndarray
    grid: tuple

    def tensor(self) -> SparseTensor2D:
        """The tensor again, its keys stored."""
        batch, height, width = self.grid
        return SparseTensor2D._canonical(
            _sites(self.keys, batch, height, width), self.values, batch, height,
            width, self.values.shape[1], self.keys)


def _keep(x: SparseTensor2D):
    """The record of ``x``: its own key and value arrays, no copy."""
    return _Kept(x.keys(), x.values, (x.batch_size, x.height, x.width))


# Steps per replay segment: a layer entry keeps its pre-step potentials only
# at the first step of a segment, and backward replays the rest from there.
_SEGMENT = 16


class GradientTape:
    """Ordered record of one forward run; replayable in reverse once.

    Implements the recorder protocol consumed by
    :func:`spikesparse.spiking.run_timesteps`, plus one :meth:`record_loss`,
    where :func:`backward` starts: the tape holds the run, exactly the
    entries of the forward driver, in its order, and the loss; each entry
    reads the output of the one before it, so backward hands one adjoint
    down them.  Backward consumes ``entries``, dropping each as it walks it:
    afterwards the list is empty.

    :meth:`record_run` names the run once, by its voxel grids, first bin and
    step count, and refuses a second run.  Layer 0's entries keep no input
    ``x``: backward slices it from the grids again.  The grids, like each
    layer's weights, leak and threshold, which backward reads from the
    layer, must therefore stay unchanged until :func:`backward` has run.
    """

    def __init__(self):
        self.entries = []
        self.used = False
        self.run = None   # (grids, first bin, step count) of the one run
        self._step = -1   # the step whose entries are being recorded

    # --- recorder protocol -------------------------------------------------
    def record_run(self, grids, start, steps):
        """The run: bins ``start .. start + steps - 1`` of the voxel
        ``grids``; raises ``RuntimeError`` for a second run."""
        if self.run is not None:
            raise RuntimeError("this tape already records a run")
        self.run = (grids, start, steps)

    def record_layer(self, layer, x, out_c, s_prev, spikes, **data):
        """One layer step: its input ``x``; the conv output, ``current`` rows
        at the flat site keys ``out_c``, and whether the conv ran at
        ``every_site``; the spikes before the step ``s_prev`` and the emitted
        ``spikes``, all sparse tensors; the pool's ``winners`` (``None``
        without a pool); and the potentials before the step ``v_prev``.

        The entry keeps ``out_c`` and each tensor's own arrays, as a
        :class:`_Kept` record, and ``v_prev`` only at the first step of a
        segment of ``_SEGMENT`` steps; backward replays the rest.  At layer
        0, the first entry of each step, it keeps no ``x`` (``None``), which
        backward slices from the grids."""
        i = layer.index
        if i == 0:
            self._step += 1
        if self._step % _SEGMENT:
            data["v_prev"] = None
        self.entries.append(_Entry(
            "layer", layer=layer, x=None if i == 0 else _keep(x), out_c=out_c,
            s_prev=_keep(s_prev), spikes=_keep(spikes), **data))

    def record_dropout(self, mask, p):
        self.entries.append(_Entry("dropout", mask=mask, p=p))

    def record_readout(self, readout, x):
        self.entries.append(_Entry("readout", readout=readout, x=_keep(x)))

    def record_loss(self, probs, labels, mean):
        self.entries.append(_Entry("loss", probs=probs, labels=labels))


class _LayerReplay:
    """Backward state of one layer on the sites its adjoint can reach.

    Adjoints enter a layer step only at the sites it handed on (its
    ``spikes``); the reset and the leak carry them only back in time, along
    one site.  So at step t they are exact zeros outside the sites handed on
    at some step >= t.  The replay orders those sites by the last step that
    handed them on, latest first, ties in canonical order:
    the support of step t is then the first ``n[t]`` rows, the same at any
    ``_SEGMENT``.  ``rank`` maps a canonical site key to its row, and a site
    never handed on to ``n[0]``.  When the last step's support is every
    site, the rows are in canonical order and every-site tensors are read
    as they are.

    It keeps the layer's entries by step up to the step being walked (see
    :meth:`step`), its leak, threshold and ``|W|^2 + eps``, the potentials
    of one segment replayed from the segment's stored start, the recurrence
    adjoints carried from step t+1 to step t, the adjoint ``g_w2`` of
    ``|W|^2``, and row buffers sized to the support of the segment's start
    (see :meth:`_size`); ``i``, ``s`` and ``tmp`` have one row more, a pad
    row that absent sites read."""

    def __init__(self, entries):
        self.entries = entries
        self.layer = layer = entries[0].data["layer"]
        self.beta, self.b = layer.beta.item(), layer.b.item()
        self.w2e = layer.kernel.wnorm2 + EPSILON
        self.g_w2 = 0.0
        batch, self.channels, height, width = entries[0].data["v_prev"].shape
        n_sites = batch * height * width
        last = np.full(n_sites, -1, np.int64)
        for t, e in enumerate(entries):
            last[e.data["spikes"].keys] = t
        # n[t]: the number of sites with last >= t
        self.n = np.cumsum(np.bincount(last + 1, minlength=len(entries) + 1)
                           [:0:-1])[::-1].tolist()
        n0 = self.n[0]
        order = np.argsort(-last, kind="stable")[:n0]
        self.rank = np.full(n_sites, n0, np.intp)
        self.rank[order] = np.arange(n0)
        self.canonical = self.n[-1] == n_sites
        self.sites = _flat_sites(order, height, width)   # (b, x, y) of each row
        self.start = None                # the step whose v_new is self.v[1]
        # row buffers, sized per segment by _size: v[0] the start's v_prev
        self.v = self.i = self.s = self.tmp = self.sur = self.g_v = self.g_s = None
        self._written = [None, None]     # rows the last scatter into i, s wrote
        self.carried = 0                 # rows of g_v, g_s holding step t+1's terms
        self._ranks = {}                 # step -> rows of out_c and s_prev sites

    def _size(self, rows, depth):
        """Buffers for a segment whose start has ``rows`` support rows and
        whose replay keeps ``depth`` potentials; walking back, supports only
        grow.  The old buffers are dropped before the new ones are made,
        ``g_v`` and ``g_s`` keep their carried rows, and ``i`` and ``s``
        start zero (see :meth:`_scatter`)."""
        shape = (depth, rows, self.channels)
        if self.v is not None and self.v.shape == shape:
            return
        self.v = self.i = self.s = self.tmp = self.sur = None
        g, c = np.empty((2,) + shape[1:]), self.carried
        if c:
            g[0, :c], g[1, :c] = self.g_v[:c], self.g_s[:c]
        self.g_v, self.g_s = g
        self.i, self.s = np.zeros((2, rows + 1, self.channels))
        self.tmp = np.empty((rows + 1, self.channels))
        self.sur = np.empty(shape[1:])
        self.v = np.empty(shape)
        self._written = [None, None]

    def dense_rows(self, dense, n):
        """The first ``n`` rows of a dense ``[B, C, H, W]`` array."""
        b, x, y = self.sites[:n].T
        return dense[b, :, y, x]

    def rows_of(self, keys, n):
        """The row of each site key, ``n`` for a site off the first ``n``
        rows; ``None`` when ``keys`` is every site and the rows are
        canonical, so that values at ``keys`` are rows as they are."""
        if self.canonical and len(keys) == len(self.rank):
            return None
        r = self.rank[keys]
        return np.minimum(r, n, out=r)

    def _scatter(self, k, r, values, n):
        """``values`` at the rows ``r`` (see :meth:`rows_of`) as the first
        ``n`` rows of buffer ``k`` (0: ``i``, 1: ``s``), zero at rows without
        a value.  The buffer is zero but at the rows its last scatter wrote,
        and only those are cleared: their pad row too, which a larger ``n``
        makes a real row."""
        if r is None:
            return values
        out, written = (self.i, self.s)[k], self._written[k]
        if written is not None:
            out[written] = 0.0
        out[r] = values
        self._written[k] = r
        return out[:n]

    def _inputs(self, t):
        """Step ``t``'s current and previous spikes on its first ``n[t]``
        rows.  The rows of their sites are kept until :meth:`gather`."""
        d, n = self.entries[t].data, self.n[t]
        s = d["s_prev"]
        if t not in self._ranks:
            self._ranks[t] = (self.rows_of(d["out_c"], n),
                              self.rows_of(s.keys, n))
        r_current, r_prev = self._ranks[t]
        return (self._scatter(0, r_current, d["current"], n),
                self._scatter(1, r_prev, s.values, n))

    def gather(self, t, g):
        """The rows ``g``, the first ``n[t]`` of ``tmp``, at the conv's
        output sites of step ``t``, zero off them."""
        r = self._ranks.pop(t)[0]
        if r is None:
            return g
        self.tmp[len(g)] = 0.0
        return self.tmp[r]

    def step(self, t):
        """``(v_prev, v_new, current, s_prev)`` of step ``t`` on its first
        ``n[t]`` rows, then the layer's entry of step ``t`` is dropped: steps
        walk back, and a replay reads no step after the one it replays to.
        The first call in a segment sizes the buffers to the segment's
        support and replays the segment up to ``t``."""
        if self.start is None or t < self.start:
            start = t
            while self.entries[start].data["v_prev"] is None:
                start -= 1
            n = self.n[start]
            self._size(n, t - start + 2)
            self.v[0] = self.dense_rows(self.entries[start].data["v_prev"], n)
            v = self.v[0]
            for j in range(start, t + 1):
                n = self.n[j]
                i, s = self._inputs(j)
                v = _lif_recurrence(v[:n], s, i, self.beta, self.b * self.w2e,
                                    out=self.v[j - start + 1, :n],
                                    tmp=self.tmp[:n])
            self.start = start
        else:
            i, s = self._inputs(t)
        self.entries.pop()
        k, n = t - self.start, self.n[t]
        return self.v[k, :n], self.v[k + 1, :n], i, s


def softmax_xent(logits, labels):
    """Softmax cross-entropy, averaged over the batch.

    ``logits``: ``[B, classes]`` (or ``[classes]`` for one sample).
    Returns ``(loss, probs)``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    squeeze = logits.ndim == 1
    if squeeze:
        logits = logits[None, :]
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[1]:
        raise IndexError("label out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):   # a zero probability: infinite loss
        nll = -np.log(probs[np.arange(len(labels)), labels])
    return float(nll.mean()), probs


def backward(tape: GradientTape, truncate=0) -> ParamGrads:
    """Propagate adjoints from the tape's loss through its forward pass.

    ``truncate > 0`` cuts the backward recurrence every that many timesteps
    (truncated BPTT); the default differentiates the full unrolling.  A tape
    can be consumed once: each entry leaves ``tape.entries`` as it is
    walked, so its arrays are freed while backward runs, and each layer's
    replay buffers hold only the support of the segment being replayed.
    """
    if tape.used:
        raise RuntimeError("backward already ran on this tape")
    if not tape.entries or tape.entries[-1].kind != "loss":
        raise RuntimeError("tape has no recorded loss")
    if tape.run is None:
        raise RuntimeError("tape has no recorded run")
    tape.used = True
    grids, start, steps = tape.run

    grads = ParamGrads()
    by_layer, replays = {}, {}  # layer index -> its entries in order, replay
    for entry in tape.entries:
        if entry.kind == "layer":
            by_layer.setdefault(entry.data["layer"].index, []).append(entry)

    # the adjoints of each step's logits and of the input of the entry just
    # walked (None where nothing reached it)
    g_logits = g = None
    entries = tape.entries
    while entries:   # each entry is dropped as it is walked
        entry = entries.pop()
        d = entry.data
        if entry.kind == "loss":   # through the mean over the run's steps
            probs, labels = d["probs"], d["labels"]
            g_logits = np.array(probs, dtype=np.float64)   # probs - one-hot
            g_logits[np.arange(len(labels)), labels] -= 1.0
            g_logits *= 1.0 / len(labels)
            g_logits /= steps

        elif entry.kind == "readout":
            readout, x = d["readout"], d["x"].tensor()
            g = None
            if readout.bias is not None:
                grads.add(readout.bias, g_logits.sum(axis=0))
            if x.n_sites:
                w, flat = readout.weight.value, _flat_indices(x).ravel()
                glr = g_logits[np.repeat(x.coords[:, 0], x.channels)]
                wcols = w[:, flat].T                       # (N*C, classes)
                g = (glr * wcols).sum(axis=1).reshape(x.values.shape)
                g_w = np.zeros_like(w.T)                   # (features, classes)
                np.add.at(g_w, flat, x.values.reshape(-1, 1) * glr)
                grads.add(readout.weight, g_w.T)

        elif entry.kind == "dropout":
            mask = d["mask"]   # shaped like the stored values
            g = ((np.zeros(mask.shape) if g is None else g) * mask
                 * (1.0 / (1.0 - d["p"])))

        elif entry.kind == "layer":
            layer, x = d["layer"], d["x"]
            rep = replays.get(layer.index)
            if rep is None:   # met at the layer's last step
                rep = replays[layer.index] = _LayerReplay(by_layer.pop(layer.index))
            t = len(rep.entries) - 1   # the step: its entry is the replay's last
            beta, b, w2e = rep.beta, rep.b, rep.w2e
            thr = b * w2e
            # all on the step's support rows, zero elsewhere (see _LayerReplay)
            v_prev, v_new, i_rows, s_prev = rep.step(t)
            n, carried = len(v_new), rep.carried
            # the spikes' adjoint: the reset term carried from step t+1, plus
            # what the pool, the next layer or the readout sent them
            g_s, spikes, winners = rep.g_s[:n], d["spikes"], d["winners"]
            g_s[carried:] = 0.0
            if winners is not None:   # the pooled scalars' adjoint
                g = _pool_sites_grads(spikes.tensor(), winners,
                                      np.zeros(winners.shape) if g is None else g)
            if g is not None:
                r = rep.rows_of(spikes.keys, n)
                if r is None:
                    g_s += g
                else:   # spike coordinates are unique sites: += cannot collide
                    g_s[r] += g
                g = None
            # LIF, in the layer's buffers: `tmp` holds u, then the products
            # that are summed, then g_i; `sur` turns into g_u
            tmp = rep.tmp[:n]
            tmp = np.subtract(np.divide(v_new, w2e, out=tmp), b, out=tmp)
            g_u = np.multiply(g_s, _surrogate_into(tmp, layer.alpha, rep.sur[:n],
                                                   tmp), out=rep.sur[:n])
            g_v = rep.g_v[:n]   # its first `carried` rows: beta * g_v of step t+1
            if carried:
                g_v[carried:] = 0.0
                np.add(g_v, np.divide(g_u, w2e, out=tmp), out=g_v)
            else:
                np.divide(g_u, w2e, out=g_v)
            np.multiply(thr, s_prev, out=tmp)
            np.subtract(v_prev, tmp, out=tmp)
            np.subtract(tmp, i_rows, out=tmp)
            grads.add(layer.beta, np.sum(np.multiply(tmp, g_v, out=tmp)))
            reset_flow = np.sum(np.multiply(s_prev, g_v, out=tmp)) * beta
            grads.add(layer.b, -np.sum(g_u) - w2e * reset_flow)
            if not layer.detach_norm:
                rep.g_w2 += (-np.sum(np.multiply(g_u, v_new, out=tmp)) / (w2e * w2e)
                             - b * reset_flow)
            g_i = np.multiply(1.0 - beta, g_v, out=tmp)
            cut = t == 0 or (truncate > 0 and t % truncate == 0)
            rep.carried = 0 if cut else n
            if rep.carried:
                np.multiply(-thr * beta, g_v, out=g_s)
                np.multiply(beta, g_v, out=g_v)
            # conv: the current's adjoint goes straight into its gradients.
            # At every site the forward read all rows of x, at the coordinate
            # map only x's nonzero rows (found again, not stored)
            g_out = rep.gather(t, g_i)
            if not g_out.any():   # an empty support or a zero adjoint (below
                continue          # silent layers): zero gradients
            # the step's network input sliced from the grids again, or the
            # record of what the layer below handed on
            x = _batch_slice(grids, start + t) if x is None else x.tensor()
            need_in = layer.index > 0
            xs, rows = (x, None) if d["every_site"] else _nonzero_rows(x)
            g_w, g_in = _conv_sites_grads(xs, layer.kernel,
                                          _sites(d["out_c"], *spikes.grid), g_out,
                                          need_input_grad=need_in)
            if need_in and rows is not None:   # back onto all rows of x
                g = np.zeros(x.values.shape)
                g[rows] = g_in
            else:
                g = g_in   # None at layer 0
            grads.add(layer.weight, g_w)

    # route each layer's norm adjoint into its weights: d|W|^2/dW = 2W
    for rep in replays.values():
        if not rep.layer.detach_norm:
            grads.add(rep.layer.weight, 2.0 * rep.g_w2 * rep.layer.kernel.weights)
    return grads


def soft_forward_mode(model, enabled: bool):
    """Replace the spike step by its sigmoid surrogate in the forward pass.

    With it on, activations are real-valued, every layer convolves and
    updates at every site, and the network is differentiable, so finite
    differences are meaningful.
    Turning it off restores the hard forward bit-exactly.
    """
    model.soft = bool(enabled)
    return model


def central_difference(f, x, h=1e-4) -> float:
    """Symmetric difference quotient ``(f(x+h) - f(x-h)) / 2h``."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def finite_diff_check(model, sample, h=1e-4, max_params=None, rng=None) -> float:
    """Max relative error between :func:`backward` and central differences.

    ``sample`` is a ``(grid, label)`` pair.  Requires soft-forward mode and a
    deterministic loss: refuses to run with dropout enabled.  When
    ``max_params`` is given, that many parameter coordinates are sampled with
    ``rng``; otherwise every coordinate is checked.  Relative error uses
    ``max(|analytic|, |numeric|, 1e-8)`` as the denominator.
    """
    if not model.soft:
        raise ValueError("enable soft_forward_mode(model, True) first")
    if model.dropout_p > 0.0:
        raise ValueError("dropout makes the loss nondeterministic; "
                         "set dropout_p to 0 for gradient checks")
    grid, label = sample
    t_eval = grid.n_timesteps
    labels = np.array([label])

    def loss_value():
        model.reset_state(1)
        _, mean, _ = run_timesteps(model, [grid], t_eval)
        loss, _ = softmax_xent(mean, labels)
        return loss

    tape = GradientTape()
    model.reset_state(1)
    _, mean, _ = run_timesteps(model, [grid], t_eval, recorder=tape)
    _, probs = softmax_xent(mean, labels)
    tape.record_loss(probs, labels, mean)
    grads = backward(tape)

    coords = [(p, i) for p in model.parameters() for i in range(p.value.size)]
    if max_params is not None and max_params < len(coords):
        if rng is None:
            rng = np.random.default_rng(0)
        picks = rng.choice(len(coords), size=max_params, replace=False)
        coords = [coords[i] for i in picks]

    worst = 0.0
    for p, i in coords:
        orig = p.value.flat[i]

        def at(theta):
            p.value.flat[i] = theta
            return loss_value()

        numeric = central_difference(at, orig, h)
        p.value.flat[i] = orig
        analytic = grads.get(p).flat[i]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
