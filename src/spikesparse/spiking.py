"""Leaky integrate-and-fire dynamics and spiking convolutional networks.

Each layer convolves the incoming spikes into a synaptic current, integrates
it into per-neuron membrane potentials, and emits binary spikes through a
normalized threshold:

    V[n] = beta * (V[n-1] - b * (|W|^2 + eps) * S_own[n-1]) + (1 - beta) * I[n]
    S[n] = step(V[n] / (|W|^2 + eps) - b)

with ``I[n]`` the convolution of the input spikes, ``beta`` the leak, ``b``
the threshold, and ``|W|^2`` the squared Frobenius norm of the layer's
weights.  The subtraction term resets neurons that spiked on the previous
step.  ``step(0) = 1``: a potential that just reaches the threshold spikes.

The network runs one timestep at a time: every layer's state is updated
before the next timestep is consumed, a final fully-connected readout emits
per-timestep logits, and the prediction is the mean of those logits, so a
usable output exists after any prefix of timesteps.

Execution modes
---------------
``dense``   potentials *and* currents live in dense arrays; convolution is
            evaluated everywhere.
``sparse``  currents exist only on the coordinate map of the incoming spikes;
            during inference, neurons that receive no current simply decay,
            which is applied lazily (see :func:`lazy_decay_advance`) -- a
            silent neuron below a positive threshold can never spike while
            decaying, so skipping it is exact.  At ``b <= 0`` a neuron at
            rest spikes, so such layers take the non-lazy step.

During training both modes keep potentials dense so gradients can flow
through non-spiking sites; the lazy path is used for inference only.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from .sparse import (
    ConvKernel2D,
    ShapeError,
    SparseTensor2D,
    _ceil_div,
    _conv_sites,
    _pool_sites,
    dense_conv2d,
    dense_max_pool2d,
    densify,
)

__all__ = [
    "EPSILON",
    "Param",
    "LIFParams",
    "LIFLayerState",
    "SpikingConvLayer",
    "ReadoutLayer",
    "SpikingNet",
    "heaviside_spike",
    "surrogate_grad",
    "lif_step",
    "lazy_decay_advance",
    "spiking_conv_forward",
    "dropout_per_timestep",
    "readout_forward",
    "run_timesteps",
    "network_forward",
    "parse_architecture",
    "save_checkpoint",
    "load_checkpoint",
]

EPSILON = 1e-8


class Param:
    """Named trainable array (0-d for scalars like the leak and threshold)."""

    __slots__ = ("name", "value")

    def __init__(self, name, value):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.value.shape})"


@dataclass
class LIFParams:
    """Neuron constants: leak ``beta`` in [0, 1], threshold ``b`` >= 0,
    surrogate steepness ``alpha``, and the norm guard ``eps``.

    ``beta = exp(-dt / tau_mem)`` discretizes the continuous leak of the
    membrane toward rest; ``b`` plays the role of the firing threshold after
    the potential is normalized by the squared weight norm.
    """

    beta: float
    b: float
    alpha: float = 3.0
    eps: float = EPSILON


def _sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def heaviside_spike(potential, wnorm2, b, eps=EPSILON):
    """Binary spike decision ``step(V / (wnorm2 + eps) - b)`` with step(0) = 1."""
    v = np.asarray(potential, dtype=np.float64)
    u = v / (wnorm2 + eps) - b
    out = (u >= 0).astype(np.float64)
    return float(out) if out.ndim == 0 else out


def surrogate_grad(x, alpha):
    """Surrogate derivative of the spike step: ``alpha * sig(a*x) * sig(-a*x)``.

    Even in ``x``, maximal at 0 (value ``alpha / 4``), and integrates to 1
    over the real line for any ``alpha > 0``.
    """
    z = np.multiply(alpha, x, dtype=np.float64)
    s = _sigmoid(z)
    out = alpha * s * (1.0 - s)
    return float(out) if np.ndim(out) == 0 else out


class LIFLayerState:
    """Membrane potentials and last-step spikes for one layer.

    ``potentials`` is dense ``[B, C, H, W]``.  ``prev_spikes_dense`` mirrors
    the last emitted spikes (real-valued in soft-forward mode).  For the lazy
    inference path, ``last_touch[b, y, x]`` records the step at which a
    site's potentials were last brought current and ``step`` the index of the
    last computed timestep.
    """

    __slots__ = ("potentials", "prev_spikes_dense", "prev_spike_coords",
                 "last_touch", "step")

    def __init__(self, batch_size, channels, height, width):
        self.potentials = np.zeros((batch_size, channels, height, width))
        self.prev_spikes_dense = np.zeros_like(self.potentials)
        self.prev_spike_coords = np.empty((0, 3), np.int64)
        self.last_touch = np.full((batch_size, height, width), -1, np.int64)
        self.step = -1

    @property
    def shape(self):
        return self.potentials.shape

    def reset(self):
        self.potentials = np.zeros_like(self.potentials)
        self.prev_spikes_dense = np.zeros_like(self.potentials)
        self.prev_spike_coords = np.empty((0, 3), np.int64)
        self.last_touch.fill(-1)
        self.step = -1


def _binary_spike_tensor(s_dense) -> SparseTensor2D:
    batch, channels, height, width = s_dense.shape
    b, y, x = np.nonzero(np.any(s_dense != 0.0, axis=1))
    coords = np.stack([b, x, y], axis=1)
    values = s_dense[b, :, y, x]
    return SparseTensor2D(coords, values, batch, height, width, channels,
                          validate=False, canonical=True, prune=False)


def lif_step(state: LIFLayerState, current, params: LIFParams, wnorm2):
    """One hard-threshold LIF update over dense state.

    ``current`` is the synaptic input for this step, either a
    :class:`SparseTensor2D` (absent sites contribute 0) or a dense
    ``[B, C, H, W]`` array.  Returns ``(spikes, state)`` where ``spikes`` is a
    pruned binary sparse tensor; the state is updated in place.
    """
    if isinstance(current, SparseTensor2D):
        i_dense = densify(current)
    else:
        i_dense = np.asarray(current, dtype=np.float64)
    if i_dense.shape != state.shape:
        raise ShapeError(f"current shape {i_dense.shape} != state {state.shape}")
    w2e = wnorm2 + params.eps
    thr = params.b * w2e
    v_new = params.beta * (state.potentials - thr * state.prev_spikes_dense) \
        + (1.0 - params.beta) * i_dense
    s_dense = ((v_new / w2e - params.b) >= 0).astype(np.float64)
    spikes = _binary_spike_tensor(s_dense)
    state.potentials = v_new
    state.prev_spikes_dense = s_dense
    state.prev_spike_coords = spikes.coords
    state.step += 1
    state.last_touch.fill(state.step)
    return spikes, state


def lazy_decay_advance(state: LIFLayerState, gap: int, params: LIFParams,
                       wnorm2=None):
    """Advance a layer through ``gap`` silent timesteps in one call.

    Valid when no neuron received input or spiked during the gap: each such
    step only multiplies the potential by ``beta``, and with a positive
    threshold (``b > 0``, ``wnorm2 + eps > 0``) a sub-threshold potential
    stays sub-threshold while decaying, so no spikes are skipped.  The decay
    is applied as ``gap`` successive multiplications so the result is
    bit-identical to explicit zero-input steps.
    """
    if gap < 0:
        raise ValueError("gap must be >= 0")
    for _ in range(gap):
        state.potentials = state.potentials * params.beta
    state.step += gap
    if gap:
        state.last_touch.fill(state.step)
    return state


def _lif_step_lazy(state: LIFLayerState, cur_coords, cur_vals, params, wnorm2):
    """Sparse-execution LIF update: touch only sites that can change.

    A site needs work this step iff it receives input current or spiked last
    step (its reset is pending); every other site decays lazily.  Returns the
    new spikes as a pruned binary sparse tensor.
    """
    n = state.step + 1
    batch, channels, height, width = state.shape
    w2e = wnorm2 + params.eps
    thr = params.b * w2e

    def keys_of(c):
        return (c[:, 0] * height + c[:, 2]) * width + c[:, 1]

    touched_keys = np.union1d(keys_of(cur_coords), keys_of(state.prev_spike_coords))
    if len(touched_keys) == 0:
        state.step = n
        return SparseTensor2D.empty(batch, height, width, channels)
    tx = touched_keys % width
    ty = (touched_keys // width) % height
    tb = touched_keys // (width * height)

    v_rows = state.potentials[tb, :, ty, tx]
    gaps = n - state.last_touch[tb, ty, tx] - 1
    max_gap = int(gaps.max(initial=0))
    for g in range(1, max_gap + 1):
        lagging = gaps >= g
        v_rows[lagging] = v_rows[lagging] * params.beta

    i_rows = np.zeros_like(v_rows)
    if len(cur_coords):
        pos = np.searchsorted(touched_keys, keys_of(cur_coords))
        i_rows[pos] = cur_vals
    s_prev_rows = state.prev_spikes_dense[tb, :, ty, tx]
    v_rows = params.beta * (v_rows - thr * s_prev_rows) + (1.0 - params.beta) * i_rows
    s_rows = ((v_rows / w2e - params.b) >= 0).astype(np.float64)

    state.potentials[tb, :, ty, tx] = v_rows
    if len(state.prev_spike_coords):
        pc = state.prev_spike_coords
        state.prev_spikes_dense[pc[:, 0], :, pc[:, 2], pc[:, 1]] = 0.0
    state.prev_spikes_dense[tb, :, ty, tx] = s_rows
    state.last_touch[tb, ty, tx] = n
    state.step = n

    spikes = SparseTensor2D(np.stack([tb, tx, ty], axis=1), s_rows, batch,
                            height, width, channels, validate=False,
                            canonical=True)
    state.prev_spike_coords = spikes.coords
    return spikes


class SpikingConvLayer:
    """A bias-free convolution feeding a grid of LIF neurons.

    ``mode`` selects sparse (coordinate-map) or dense convolution; with
    ``pool=True`` the emitted spikes additionally pass a 2x2 max pool before
    reaching the next layer (the stride-1-plus-pooling variant).
    """

    def __init__(self, index, kernel: ConvKernel2D, beta, b, alpha=3.0,
                 mode="sparse", pool=False):
        self.index = index
        self.kernel = kernel
        self.weight = Param(f"conv{index}.weight", kernel.weights)
        kernel._weights = self.weight.value  # shared storage
        kernel.refresh_norm()
        self.beta = Param(f"conv{index}.beta", beta)
        self.b = Param(f"conv{index}.b", b)
        self.alpha = alpha
        if mode not in ("sparse", "dense"):
            raise ValueError("mode must be 'sparse' or 'dense'")
        self.mode = mode
        self.pool = pool
        self.detach_norm = False
        self.state: LIFLayerState | None = None

    def lif_params(self) -> LIFParams:
        return LIFParams(self.beta.item(), self.b.item(), self.alpha)

    def state_geometry(self, in_h, in_w):
        """Geometry of the neuron grid (conv output, before any pooling)."""
        s = self.kernel.stride
        return self.kernel.out_channels, _ceil_div(in_h, s), _ceil_div(in_w, s)

    def out_geometry(self, in_h, in_w):
        c, h, w = self.state_geometry(in_h, in_w)
        if self.pool:
            h, w = _ceil_div(h, 2), _ceil_div(w, 2)
        return c, h, w

    def reset(self, batch_size, in_h, in_w):
        c, h, w = self.state_geometry(in_h, in_w)
        if self.state is not None and self.state.shape == (batch_size, c, h, w):
            self.state.reset()
        else:
            self.state = LIFLayerState(batch_size, c, h, w)


class ReadoutLayer:
    """Per-timestep fully-connected classifier over the flattened spike map."""

    def __init__(self, weights, bias=None):
        self.weight = Param("readout.weight", weights)
        self.bias = Param("readout.bias", bias) if bias is not None else None

    @property
    def num_classes(self) -> int:
        return self.weight.value.shape[0]

    @property
    def in_features(self) -> int:
        return self.weight.value.shape[1]


def spiking_conv_forward(layer: SpikingConvLayer, s_in: SparseTensor2D):
    """Sparse conv followed by the LIF update: one layer, one timestep."""
    out_c, out_v, h_out, w_out = _conv_sites(s_in, layer.kernel)
    current = SparseTensor2D(out_c, out_v, s_in.batch_size, h_out, w_out,
                             layer.kernel.out_channels, validate=False,
                             canonical=True, prune=False)
    spikes, _ = lif_step(layer.state, current, layer.lif_params(),
                         layer.kernel.wnorm2)
    return spikes


def dropout_per_timestep(x, p, rng, training):
    """Inverted dropout over every scalar; identity when not training.

    A fresh mask is drawn on every call, i.e. per timestep.
    """
    if not 0 <= p < 1:
        raise ValueError("p must be in [0, 1)")
    if not training or p == 0.0:
        return x
    scale = 1.0 / (1.0 - p)
    if isinstance(x, SparseTensor2D):
        mask = rng.random(x.values.shape) >= p
        return SparseTensor2D(x.coords, x.values * mask * scale, x.batch_size,
                              x.height, x.width, x.channels, validate=False,
                              canonical=True)
    mask = rng.random(x.shape) >= p
    return x * mask * scale


def _flat_indices(x: SparseTensor2D):
    """Flat feature index of every scalar of a sparse tensor, shape (N, C).

    Matches C-order flattening of the dense ``[C, H, W]`` view:
    ``(c * H + y) * W + x``.
    """
    c = np.arange(x.channels)
    return ((c[None, :] * x.height + x.coords[:, 2:3]) * x.width
            + x.coords[:, 1:2])


def _readout_batch(readout: ReadoutLayer, x, batch_size=None):
    w = readout.weight.value
    if isinstance(x, SparseTensor2D):
        logits = np.zeros((x.batch_size, readout.num_classes))
        if x.n_sites:
            flat = _flat_indices(x)
            contrib = w[:, flat.ravel()].T * x.values.reshape(-1, 1)
            np.add.at(logits, np.repeat(x.coords[:, 0], x.channels), contrib)
    else:
        flat = x.reshape(x.shape[0], -1)
        if flat.shape[1] != readout.in_features:
            raise ShapeError(
                f"{flat.shape[1]} features, readout expects {readout.in_features}")
        logits = flat @ w.T
    if readout.bias is not None:
        logits = logits + readout.bias.value
    return logits


def readout_forward(readout: ReadoutLayer, spikes_t) -> np.ndarray:
    """Logits for one timestep; accumulates only the weight columns at
    nonzero positions when the input is sparse.  Returns ``[num_classes]``
    for a single-sample input, else ``[B, num_classes]``."""
    if isinstance(spikes_t, SparseTensor2D):
        if spikes_t.n_sites:
            flat = _flat_indices(spikes_t)
            if flat.size and flat.max() >= readout.in_features:
                raise ShapeError("spike map larger than readout input")
        logits = _readout_batch(readout, spikes_t)
        return logits[0] if spikes_t.batch_size == 1 else logits
    logits = _readout_batch(readout, np.asarray(spikes_t, dtype=np.float64))
    return logits[0] if logits.shape[0] == 1 else logits


# ---------------------------------------------------------------------------
# the network

_ARCH_TOKEN = re.compile(r"^(\d+)(sc|c)(\d+)(do)?$")


def parse_architecture(arch: str):
    """Split an architecture string like ``4sc5-8sc5-8sc3-16sc3-11``.

    Every token but the last is ``<filters>(sc|c)<kernel>[do]``: filter
    count, sparse or dense convolution, odd kernel size, and an optional
    trailing ``do`` marking the dropout point (only valid on the last
    convolution).  The final token is the class count.
    """
    tokens = arch.split("-")
    if len(tokens) < 2:
        raise ValueError(f"architecture {arch!r} needs conv layers and a class count")
    try:
        num_classes = int(tokens[-1])
    except ValueError:
        raise ValueError(f"bad class count {tokens[-1]!r} in {arch!r}") from None
    layers = []
    for i, tok in enumerate(tokens[:-1]):
        m = _ARCH_TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad layer token {tok!r} in {arch!r}")
        filters, kind, k, do = int(m.group(1)), m.group(2), int(m.group(3)), m.group(4)
        if k % 2 == 0:
            raise ValueError(f"kernel size must be odd in {tok!r}")
        if do and i != len(tokens) - 2:
            raise ValueError("dropout marker only allowed on the last convolution")
        layers.append((filters, "sparse" if kind == "sc" else "dense", k, bool(do)))
    return layers, num_classes


class SpikingNet:
    """Stack of spiking conv layers plus a per-timestep readout.

    Build with :func:`spikesparse.training.init_model` or directly from
    parts.  ``soft`` switches the forward to the sigmoid surrogate (see
    :func:`spikesparse.autograd.soft_forward_mode`).
    """

    def __init__(self, arch, layers, readout, in_shape, variant="stride",
                 dropout_p=0.5, alpha=3.0):
        self.arch = arch
        self.layers = list(layers)
        self.readout = readout
        self.in_height, self.in_width = in_shape
        self.in_channels = 1
        self.variant = variant
        self.dropout_p = float(dropout_p)
        self.alpha = float(alpha)
        self.soft = False
        self._detach_norm = False

    @property
    def detach_norm(self) -> bool:
        return self._detach_norm

    @detach_norm.setter
    def detach_norm(self, value):
        self._detach_norm = bool(value)
        for layer in self.layers:
            layer.detach_norm = self._detach_norm

    @property
    def num_classes(self) -> int:
        return self.readout.num_classes

    def parameters(self):
        out = []
        for layer in self.layers:
            out += [layer.weight, layer.beta, layer.b]
        out.append(self.readout.weight)
        if self.readout.bias is not None:
            out.append(self.readout.bias)
        return out

    def num_parameters(self) -> int:
        return sum(p.value.size for p in self.parameters())

    def refresh_norms(self):
        for layer in self.layers:
            layer.kernel.refresh_norm()

    def reset_state(self, batch_size=1):
        h, w = self.in_height, self.in_width
        for layer in self.layers:
            layer.reset(batch_size, h, w)
            _, h, w = layer.out_geometry(h, w)

    def feature_geometry(self):
        h, w = self.in_height, self.in_width
        c = self.in_channels
        for layer in self.layers:
            c, h, w = layer.out_geometry(h, w)
        return c, h, w

    def clone(self) -> "SpikingNet":
        layers = []
        for l in self.layers:
            kern = ConvKernel2D(l.kernel.weights.copy(), l.kernel.stride)
            layers.append(SpikingConvLayer(l.index, kern, l.beta.value.copy(),
                                           l.b.value.copy(), l.alpha, l.mode,
                                           l.pool))
        bias = None if self.readout.bias is None else self.readout.bias.value.copy()
        readout = ReadoutLayer(self.readout.weight.value.copy(), bias)
        net = SpikingNet(self.arch, layers, readout,
                         (self.in_height, self.in_width), self.variant,
                         self.dropout_p, self.alpha)
        net.soft = self.soft
        net.detach_norm = self.detach_norm
        return net


def _batch_slice(grids, t) -> SparseTensor2D:
    """One timestep of a batch of voxel grids as a single sparse tensor."""
    height, width = grids[0].height, grids[0].width
    coords, values = [], []
    for b, grid in enumerate(grids):
        xs, ys, vs = grid.timestep_sites(t)
        if len(xs):
            c = np.empty((len(xs), 3), np.int64)
            c[:, 0] = b
            c[:, 1] = xs
            c[:, 2] = ys
            coords.append(c)
            values.append(vs.astype(np.float64).reshape(-1, 1))
    if not coords:
        return SparseTensor2D.empty(len(grids), height, width, 1)
    return SparseTensor2D(np.concatenate(coords), np.concatenate(values),
                          len(grids), height, width, 1, validate=False,
                          canonical=True, prune=False)


def _layer_forward(layer: SpikingConvLayer, x, soft, alpha, recorder, lazy):
    """Conv + LIF (+ optional pool) for one timestep.  Returns
    (next layer input, nonzero scalar count of the emitted spikes)."""
    state = layer.state
    kernel = layer.kernel
    beta, b = layer.beta.item(), layer.b.item()
    w2e = kernel.wnorm2 + EPSILON
    thr = b * w2e
    run_sparse = layer.mode == "sparse" and isinstance(x, SparseTensor2D) and not soft

    if run_sparse:
        out_c, out_v, h_out, w_out = _conv_sites(x, kernel)
        # at b <= 0 a silent site at V = 0 spikes, so no site may be skipped
        if lazy and recorder is None and b > 0:
            spikes = _lif_step_lazy(state, out_c, out_v,
                                    LIFParams(beta, b, alpha), kernel.wnorm2)
            count = int(np.count_nonzero(spikes.values))
            out = spikes
            if layer.pool:
                pc, pv, _, ph, pw = _pool_sites(spikes)
                out = SparseTensor2D(pc, pv, spikes.batch_size, ph, pw,
                                     spikes.channels, validate=False,
                                     canonical=True)
            return out, count
        i_dense = np.zeros(state.shape)
        if len(out_c):
            i_dense[out_c[:, 0], :, out_c[:, 2], out_c[:, 1]] = out_v
        conv_ctx = ("sparse", x, out_c, out_v)
    else:
        xd = densify(x) if isinstance(x, SparseTensor2D) else x
        i_dense = dense_conv2d(xd, kernel.weights, kernel.stride)
        conv_ctx = ("dense", x, None, i_dense)

    v_prev = state.potentials
    s_prev = state.prev_spikes_dense
    v_new = beta * (v_prev - thr * s_prev) + (1.0 - beta) * i_dense
    u = v_new / w2e - b
    if soft:
        s_dense = _sigmoid(alpha * u)
    else:
        s_dense = (u >= 0).astype(np.float64)
    count = int(np.count_nonzero(s_dense))

    spikes_sparse = None
    if layer.mode == "sparse" and not soft:
        spikes_sparse = _binary_spike_tensor(s_dense)
        out = spikes_sparse
    else:
        out = s_dense

    state.potentials = v_new
    state.prev_spikes_dense = s_dense
    state.prev_spike_coords = (spikes_sparse.coords if spikes_sparse is not None
                               else np.empty((0, 3), np.int64))
    state.step += 1
    state.last_touch.fill(state.step)

    if recorder is not None:
        recorder.record_conv(layer, conv_ctx)
        recorder.record_lif(layer, v_prev, v_new, s_prev, s_dense,
                            spikes_sparse, conv_ctx, w2e, soft)

    if layer.pool:
        if isinstance(out, SparseTensor2D):
            pc, pv, winners, ph, pw = _pool_sites(out)
            pooled = SparseTensor2D(pc, pv, out.batch_size, ph, pw,
                                    out.channels, validate=False, canonical=True,
                                    prune=False)
            if recorder is not None:
                recorder.record_pool(out, pooled, winners, None)
            out = pooled
        else:
            pooled, winners = dense_max_pool2d(out)
            if recorder is not None:
                recorder.record_pool(out, pooled, winners,
                                     (out.shape[2], out.shape[3]))
            out = pooled
    return out, count


def run_timesteps(model: SpikingNet, grids, t_eval, start=0, training=False,
                  rng=None, recorder=None, lazy=None):
    """Drive a batch of voxel grids through ``t_eval`` timesteps.

    States are *not* reset here, so consecutive calls continue a run.  With
    ``training=True`` a fresh dropout mask is drawn per timestep from ``rng``.
    Returns ``(per-timestep logits [T, B, classes], per-layer spike counts)``.
    """
    if t_eval < 1:
        raise ValueError("t_eval must be >= 1")
    for grid in grids:
        if start + t_eval > grid.n_timesteps:
            raise ValueError(
                f"need {start + t_eval} timesteps but grid has {grid.n_timesteps}; "
                "regenerate the grid with more bins")
    if lazy is None:
        lazy = not training and recorder is None
    batch = len(grids)
    counts = np.zeros(len(model.layers), dtype=np.int64)
    logits_seq = []
    dropout_on = training and model.dropout_p > 0.0
    if dropout_on and rng is None:
        raise ValueError("training with dropout needs an rng for the masks")
    for t in range(start, start + t_eval):
        x = _batch_slice(grids, t)
        if model.soft:
            x = densify(x)
        for li, layer in enumerate(model.layers):
            x, c = _layer_forward(layer, x, model.soft, model.alpha, recorder,
                                  lazy)
            counts[li] += c
        if dropout_on:
            x = _dropout_recorded(x, model.dropout_p, rng, recorder)
        logits = _readout_batch(model.readout, x)
        if recorder is not None:
            recorder.record_readout(model.readout, x, logits)
        logits_seq.append(logits)
    stacked = np.stack(logits_seq)
    mean = stacked.mean(axis=0)
    if recorder is not None:
        recorder.record_mean(logits_seq, mean)
    return stacked, mean, counts


def _dropout_recorded(x, p, rng, recorder):
    scale = 1.0 / (1.0 - p)
    if isinstance(x, SparseTensor2D):
        mask = rng.random(x.values.shape) >= p
        dropped = x.values * mask * scale
        out = SparseTensor2D(x.coords, dropped, x.batch_size, x.height,
                             x.width, x.channels, validate=False,
                             canonical=True, prune=False)
    else:
        mask = rng.random(x.shape) >= p
        out = x * mask * scale
    if recorder is not None:
        recorder.record_dropout(x, out, mask, p)
    return out


def network_forward(model: SpikingNet, grid, t_eval, start=0):
    """Run one grid for ``t_eval`` timesteps from ``start``.

    The caller resets states beforehand (or deliberately continues a run).
    Returns ``(per-timestep logits [T, classes], mean logits, per-layer spike
    counts)``; the mean is the network's prediction vector.
    """
    stacked, mean, counts = run_timesteps(model, [grid], t_eval, start=start)
    return stacked[:, 0, :], mean[0], counts


# ---------------------------------------------------------------------------
# checkpoint file: magic, ASCII header line, then float32 parameters in
# declared order (per layer: weights, beta, b; then readout weights, bias)

_CKPT_MAGIC = b"SPKCKPT1"


def save_checkpoint(model: SpikingNet, path):
    header = (f"arch={model.arch};height={model.in_height};"
              f"width={model.in_width};variant={model.variant};"
              f"bias={int(model.readout.bias is not None)};"
              f"alpha={model.alpha!r};dropout={model.dropout_p!r}\n")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(header.encode("ascii"))
        for p in model.parameters():
            fh.write(p.value.astype("<f4").tobytes())


def load_checkpoint(path) -> SpikingNet:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _CKPT_MAGIC:
        raise ValueError("not a spikesparse checkpoint")
    nl = blob.index(b"\n")
    fields = dict(kv.split("=", 1) for kv in blob[8:nl].decode("ascii").split(";"))
    from .training import build_model  # deferred: avoids a module cycle
    model = build_model(fields["arch"],
                        (int(fields["height"]), int(fields["width"])),
                        variant=fields["variant"],
                        readout_bias=bool(int(fields["bias"])),
                        alpha=float(fields["alpha"]),
                        dropout_p=float(fields["dropout"]),
                        rng=np.random.default_rng(0))
    off = nl + 1
    for p in model.parameters():
        n = p.value.size
        vals = np.frombuffer(blob, dtype="<f4", count=n, offset=off)
        p.value[...] = vals.reshape(p.value.shape)
        off += 4 * n
    if off != len(blob):
        raise ValueError("checkpoint size does not match architecture")
    model.refresh_norms()
    return model
