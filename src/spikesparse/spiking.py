"""Leaky integrate-and-fire dynamics and spiking convolutional networks.

Each layer convolves the incoming spikes into a synaptic current, integrates
it into per-neuron membrane potentials, and emits binary spikes through a
normalized threshold:

    V[n] = beta * (V[n-1] - b * (|W|^2 + eps) * S_own[n-1]) + (1 - beta) * I[n]
    S[n] = step(V[n] / (|W|^2 + eps) - b)

with ``I[n]`` the convolution of the input spikes, ``beta`` the leak, ``b``
the threshold, ``|W|^2`` the squared Frobenius norm of the layer's weights,
and ``eps`` the norm guard :data:`EPSILON`.  The subtraction term resets
neurons that spiked on the previous step.  ``step(0) = 1``: a potential that
just reaches the threshold spikes.

The network runs one timestep at a time: every layer's state is updated
before the next timestep is consumed, a final fully-connected readout emits
per-timestep logits, and the prediction is the mean of those logits, so a
usable output exists after any prefix of timesteps.

Execution
---------
Every layer step takes one path: the kernel-map conv at a list of output
sites, the LIF update (:func:`_lif_update`) at a list of sites, and one
:class:`SparseTensor2D` of spikes handed on.  The layer kind picks the sites.
``c`` layers and soft runs compute at every site (one cached, read-only site
array per grid geometry) and hand on every site, zero rows included, so that
adjoints reach every site.  A hard ``sc`` layer convolves on the coordinate
map of its input's nonzero rows and hands on its spiking sites; only the
sites with current or a pending reset get the full update, and all others
decay in one dense multiply by ``beta``, bit-identical to the full update
at ``I = 0``.  A silent neuron below a positive threshold never spikes while
decaying, so this is exact; at ``b <= 0`` a neuron at rest spikes, so such a
layer updates every site.  Each hard step builds one site index
(:func:`spikesparse.sparse._step_index`): the conv takes its output sites
and kernel map from it, and the LIF update its site list and their keys.

Potentials are always dense, and the last spikes are kept only as the tensor
the step emitted: ``bool`` values on a hard step (``float64`` in a soft
run) and their site keys, which the next step's index reads as its pending
resets and a tape keeps as they are.  Taped (training) and untaped forwards
take the same steps.  Backward replays the recurrence only on the sites a
layer's adjoint can reach, those it hands on at the step or later (every
site for ``c`` layers and soft runs); non-spiking neurons of those sites
still get gradients through the surrogate (see :mod:`spikesparse.autograd`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .event_io import _write_whole
from .sparse import (
    ConvKernel2D,
    ShapeError,
    SparseTensor2D,
    _ceil_div,
    _conv_sites,
    _grid_keys,
    _grid_sites,
    _nonzero_rows,
    _pool,
    _step_index,
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
    "run_timesteps",
    "network_forward",
    "parse_architecture",
    "build_model",
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
    """Neuron constants: leak ``beta`` in [0, 1] and threshold ``b`` >= 0.

    ``beta = exp(-dt / tau_mem)`` discretizes the continuous leak of the
    membrane toward rest; ``b`` plays the role of the firing threshold after
    the potential is normalized by the squared weight norm (plus
    :data:`EPSILON`).  The surrogate's steepness is the layer's ``alpha``.
    """

    beta: float
    b: float


def _sigmoid(z, out=None, tmp=None):
    """``1 / (1 + e^-z)`` for ``z >= 0`` and ``e^z / (1 + e^z)`` below, from
    one ``e^-|z|``, so the exponential never overflows.  ``out`` and ``tmp``
    are optional float buffers of ``z``'s shape; either may be ``z``, which
    is then overwritten."""
    pos = z >= 0
    out = np.exp(np.negative(np.abs(z, out=out), out=out), out=out)
    den = np.add(1.0, out, out=tmp)
    np.copyto(out, 1.0, where=pos)
    return np.divide(out, den, out=out)


def heaviside_spike(potential, wnorm2, b):
    """Binary spike decision ``step(V / (wnorm2 + EPSILON) - b)`` with
    step(0) = 1."""
    v = np.asarray(potential, dtype=np.float64)
    u = v / (wnorm2 + EPSILON) - b
    out = (u >= 0).astype(np.float64)
    return float(out) if out.ndim == 0 else out


def surrogate_grad(x, alpha):
    """Surrogate derivative of the spike step: ``alpha * sig(a*x) * sig(-a*x)``.

    Even in ``x``, maximal at 0 (value ``alpha / 4``), and integrates to 1
    over the real line for any ``alpha > 0``.
    """
    if np.ndim(x) == 0:
        return float(surrogate_grad(np.reshape(x, 1), alpha)[0])
    return _surrogate_into(x, alpha, None, None)


def _surrogate_into(x, alpha, out, tmp):
    """:func:`surrogate_grad` of an array, written into the float buffers
    ``out`` and ``tmp`` of its shape (``None`` allocates; ``tmp`` may be
    ``x``, which it then overwrites)."""
    z = np.multiply(alpha, x, out=tmp, dtype=np.float64)
    s = _sigmoid(z, out=z, tmp=out)
    out = np.multiply(alpha, s, out=out)
    return np.multiply(out, np.subtract(1.0, s, out=s), out=out)


class LIFLayerState:
    """Membrane potentials and last-step spikes for one layer.

    ``potentials`` is dense ``[B, C, H, W]``.  ``prev_spikes`` is the last
    emitted spike tensor, ``bool`` after a hard step and real-valued in
    soft-forward mode, with its site keys stored: the only record of the
    spikes whose reset is pending.  ``step`` is the index of the last
    computed timestep, and ``last_touch[b, y, x]`` the last step whose site
    list held the site.
    """

    __slots__ = ("potentials", "prev_spikes", "last_touch", "step")

    def __init__(self, batch_size, channels, height, width):
        self.potentials = np.zeros((batch_size, channels, height, width))
        self.prev_spikes = SparseTensor2D.empty(batch_size, height, width, channels)
        self.last_touch = np.full((batch_size, height, width), -1, np.int64)
        self.step = -1

    @property
    def shape(self):
        return self.potentials.shape


def _lif_recurrence(v_prev, s_prev, current, beta, thr, out=None, tmp=None):
    """``beta * (v_prev - thr * s_prev) + (1 - beta) * current``, the membrane
    recurrence with ``thr = b * (|W|^2 + eps)``, evaluated in that order.
    ``out`` and ``tmp`` are optional buffers of the result's shape."""
    out = np.multiply(thr, s_prev, out=out)
    np.subtract(v_prev, out, out=out)
    np.multiply(beta, out, out=out)
    return np.add(out, np.multiply(1.0 - beta, current, out=tmp), out=out)


def _lif_update(state: LIFLayerState, current, beta, b, w2e, sites, keys, prev_rows,
                soft_alpha=None, every_site=False):
    """The one LIF update: recurrence, spike decision and state commit.

    The canonical ``(b, x, y)`` ``sites``, whose flat site keys are ``keys``,
    get the full update, each from its ``[C]`` row of ``current``;
    ``prev_rows`` is the row in ``sites`` of each site of
    ``state.prev_spikes``.  Every other site must have neither input nor a
    pending reset (``I = 0``, ``S_own = 0``), so its update is exactly
    ``beta * V``, applied as one dense multiply.  ``soft_alpha`` replaces the
    hard step by ``sigmoid(soft_alpha * u)``.  Returns the spikes on all
    ``sites`` with ``every_site``, else on those that spike, with their keys
    stored: ``bool`` values for the hard step, ``float64`` for the soft one.
    Every step leaves new ``potentials`` (never written in place, so a tape
    may keep the old ones).
    """
    bi, xs, ys = sites.T
    v_prev = state.potentials[bi, :, ys, xs]
    s_prev = np.zeros_like(v_prev)
    s_prev[prev_rows] = state.prev_spikes.values
    v_new = _lif_recurrence(v_prev, s_prev, current, beta, b * w2e)
    u = v_new / w2e - b
    if soft_alpha is None:
        s_new = u >= 0
    else:
        s_new = _sigmoid(soft_alpha * u)
    state.step += 1
    batch, channels, height, width = state.shape
    keep = slice(None) if every_site else s_new.any(axis=1)   # hard: the spiking sites
    spikes = SparseTensor2D._canonical(sites[keep], s_new[keep], batch, height,
                                       width, channels, keys[keep])
    state.potentials = state.potentials * beta
    state.potentials[bi, :, ys, xs] = v_new
    state.last_touch[bi, ys, xs] = state.step
    state.prev_spikes = spikes
    return spikes


def lif_step(state: LIFLayerState, current, params: LIFParams, wnorm2):
    """One hard-threshold LIF update over dense state.

    ``current`` is the synaptic input for this step, either a
    :class:`SparseTensor2D` (absent sites contribute 0) or a dense
    ``[B, C, H, W]`` array.  Returns ``(spikes, state)`` where ``spikes`` is a
    pruned binary sparse tensor with ``bool`` values (``densify`` and
    ``np.array_equal`` read them as 0.0 and 1.0); the state is updated in
    place.
    """
    i_dense = (densify(current) if isinstance(current, SparseTensor2D)
               else np.asarray(current, dtype=np.float64))
    if i_dense.shape != state.shape:
        raise ShapeError(f"current shape {i_dense.shape} != state {state.shape}")
    batch, channels, height, width = state.shape
    rows = i_dense.transpose(0, 2, 3, 1).reshape(-1, channels)
    spikes = _lif_update(state, rows, params.beta, params.b,
                         wnorm2 + EPSILON, _grid_sites(batch, height, width),
                         _grid_keys(batch, height, width), state.prev_spikes.keys())
    return spikes, state


def lazy_decay_advance(state: LIFLayerState, gap: int, params: LIFParams):
    """Advance a layer through ``gap`` silent timesteps in one call.

    Valid when no neuron received input or spiked during the gap: each such
    step only multiplies the potential by ``beta``, and with a positive
    threshold (``b > 0``; ``|W|^2 + eps`` is positive) a sub-threshold potential
    stays sub-threshold while decaying, so no spikes are skipped.  The decay
    is applied as ``gap`` successive multiplications so the result is
    bit-identical to explicit zero-input steps.  A pending reset (a spike on
    the last step) or ``b <= 0`` breaks that and raises ``ValueError``.
    """
    if gap < 0:
        raise ValueError("gap must be >= 0")
    if params.b <= 0 or np.any(state.prev_spikes.values):
        raise ValueError("not a pure decay: b <= 0, or a reset is pending")
    for _ in range(gap):
        state.potentials = state.potentials * params.beta
    state.step += gap
    return state


def _lif_step_lazy(state: LIFLayerState, cur_coords, cur_vals, params, wnorm2,
                   index=None):
    """Sparse-execution LIF update: the full update only where it can matter.

    A site needs it iff it receives input current or spiked last step (its
    reset is pending); every other site only decays, which with ``b > 0``
    can never make it spike.  At ``b <= 0`` every site gets it.  The current
    ``cur_vals`` is given at the canonical sites ``cur_coords``.  The site
    list comes from ``index``, the step's :func:`_step_index`, built here
    from ``cur_coords`` when it is not given.  Returns the new spikes as a
    pruned binary sparse tensor.
    """
    batch, channels, height, width = state.shape
    if index is None:   # the output sites are those of the current
        cur = SparseTensor2D._canonical(cur_coords, cur_vals, batch, height,
                                        width, channels)
        index = _step_index(cur, resets=state.prev_spikes.keys(),
                            every_site=params.b <= 0)
    current = np.zeros((len(index.sites), channels))
    current[index.out_rows] = cur_vals
    return _lif_update(state, current, params.beta, params.b,
                       wnorm2 + EPSILON, index.sites, index.keys, index.reset_rows)


class SpikingConvLayer:
    """A bias-free convolution feeding a grid of LIF neurons.

    ``mode`` selects the sites it computes: ``"sparse"`` the coordinate map
    of its input, ``"dense"`` every site (see the module docstring); with
    ``pool=True`` the emitted spikes additionally pass a 2x2 max pool before
    reaching the next layer (the stride-1-plus-pooling variant).
    """

    def __init__(self, index, kernel: ConvKernel2D, beta, b, alpha=3.0,
                 mode="sparse", pool=False):
        self.index = index
        self.kernel = kernel
        self.weight = Param(f"conv{index}.weight", kernel.weights)
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
        return LIFParams(self.beta.item(), self.b.item())

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
        self.state = LIFLayerState(batch_size, *self.state_geometry(in_h, in_w))


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


def _flat_indices(x: SparseTensor2D):
    """Flat feature index of every scalar of a sparse tensor, shape (N, C).

    Matches C-order flattening of the dense ``[C, H, W]`` view:
    ``(c * H + y) * W + x``.
    """
    c = np.arange(x.channels)
    return ((c[None, :] * x.height + x.coords[:, 2:3]) * x.width
            + x.coords[:, 1:2])


def _readout_batch(readout: ReadoutLayer, x: SparseTensor2D):
    """Logits ``[B, num_classes]`` of one timestep's spike tensor, whose
    stored scalars each add one weight column; ``C * H * W`` must equal the
    readout's input size.
    """
    w = readout.weight.value
    features = x.channels * x.height * x.width
    if features != readout.in_features:
        raise ShapeError(
            f"{features} features, readout expects {readout.in_features}")
    logits = np.zeros((x.batch_size, readout.num_classes))
    if x.n_sites:
        contrib = w[:, _flat_indices(x).ravel()].T * x.values.reshape(-1, 1)
        np.add.at(logits, np.repeat(x.coords[:, 0], x.channels), contrib)
    if readout.bias is not None:
        logits = logits + readout.bias.value
    return logits


# ---------------------------------------------------------------------------
# the network

_ARCH_TOKEN = re.compile(r"([0-9]+)(sc|c)([0-9]+)(do)?")


def parse_architecture(arch: str):
    """Split an architecture string like ``4sc5-8sc5-8sc3-16sc3-11``.

    Every token but the last is ``<filters>(sc|c)<kernel>[do]``: filter
    count, sparse or dense convolution, odd kernel size, and an optional
    trailing ``do`` marking the dropout point (only valid on the last
    convolution).  The final token is the class count.  Filter and class
    counts are ASCII digits and must be positive.
    """
    tokens = arch.split("-")
    if len(tokens) < 2:
        raise ValueError(f"architecture {arch!r} needs conv layers and a class count")
    if not re.fullmatch(r"[0-9]+", tokens[-1]):
        raise ValueError(f"bad class count {tokens[-1]!r} in {arch!r}")
    num_classes = int(tokens[-1])
    if num_classes < 1:
        raise ValueError(f"class count must be positive in {arch!r}")
    layers = []
    for i, tok in enumerate(tokens[:-1]):
        m = _ARCH_TOKEN.fullmatch(tok)
        if not m:
            raise ValueError(f"bad layer token {tok!r} in {arch!r}")
        filters, kind, k, do = int(m.group(1)), m.group(2), int(m.group(3)), m.group(4)
        if filters < 1:
            raise ValueError(f"filter count must be positive in {tok!r}")
        if k % 2 == 0:
            raise ValueError(f"kernel size must be odd in {tok!r}")
        if do and i != len(tokens) - 2:
            raise ValueError("dropout marker only allowed on the last convolution")
        layers.append((filters, "sparse" if kind == "sc" else "dense", k, bool(do)))
    return layers, num_classes


def _arch_geometry(arch, in_hw):
    """Each conv layer's weight shape ``(filters, c_in, k, k)`` and mode, and
    the readout's ``(classes, features)``, of ``arch`` on an ``in_hw`` input."""
    h, w = in_hw
    if not (h > 0 and w > 0):
        raise ValueError(f"input size must be positive, got {h}x{w}")
    layer_specs, num_classes = parse_architecture(arch)
    convs, c_in = [], 1
    for filters, mode, k, _do in layer_specs:
        convs.append(((filters, c_in, k, k), mode))
        c_in = filters
        h, w = _ceil_div(h, 2), _ceil_div(w, 2)   # stride 2, or a 2x2 pool
    return convs, (num_classes, c_in * h * w)


def build_model(arch, in_hw, variant="stride", readout_bias=True, alpha=3.0,
                dropout_p=0.5, rng=None, beta_init=0.7, b_init=0.3) -> SpikingNet:
    """Instantiate a network from its architecture string.

    Conv and readout weights are drawn from uniform(-s, s) with
    ``s = sqrt(1 / fan_in)``; every layer starts at the same leak and
    threshold.  An arch token's ``do`` suffix forces the dropout point (it is
    always the last convolution's output, per the timestep-wise algorithm).
    """
    if variant not in ("stride", "pool"):
        raise ValueError(f"unknown variant {variant!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    convs, (num_classes, feat) = _arch_geometry(arch, in_hw)
    stride = 2 if variant == "stride" else 1
    layers = []
    for i, (shape, mode) in enumerate(convs):
        s = math.sqrt(1.0 / math.prod(shape[1:]))
        weights = rng.uniform(-s, s, size=shape)
        kern = ConvKernel2D(weights, stride)
        layers.append(SpikingConvLayer(i, kern, beta_init, b_init, alpha,
                                       mode, pool=(variant == "pool")))
    s = math.sqrt(1.0 / feat)
    weights = rng.uniform(-s, s, size=(num_classes, feat))
    readout = ReadoutLayer(weights, np.zeros(num_classes) if readout_bias else None)
    return SpikingNet(arch, layers, readout, in_hw, variant, dropout_p, alpha)


class SpikingNet:
    """Stack of spiking conv layers plus a per-timestep readout.

    Build with :func:`build_model` or directly from parts.  ``soft``
    switches the forward to the sigmoid surrogate (see
    :func:`spikesparse.autograd.soft_forward_mode`).  Raises ``ValueError``
    when the layers' channels do not chain: layer 0's kernel must take one
    channel, and each later kernel the output channels of the layer before.
    """

    def __init__(self, arch, layers, readout, in_shape, variant="stride",
                 dropout_p=0.5, alpha=3.0):
        self.arch = arch
        self.layers = list(layers)
        self.readout = readout
        self.in_height, self.in_width = in_shape
        self.in_channels = 1
        c_in = self.in_channels
        for i, layer in enumerate(self.layers):
            if layer.kernel.in_channels != c_in:
                raise ValueError(
                    f"layer {i} ({layer.weight.name}): kernel input channels "
                    f"{layer.kernel.in_channels}, layer input channels {c_in}")
            c_in = layer.kernel.out_channels
        self.variant = variant
        if not 0 <= dropout_p < 1:
            raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p!r}")
        self.dropout_p = float(dropout_p)
        self.alpha = alpha
        self.soft = False
        self._detach_norm = False

    @property
    def alpha(self) -> float:
        """Surrogate and soft-spike slope; every layer holds a copy, which
        the soft forward and the backward read."""
        return self._alpha

    @alpha.setter
    def alpha(self, value):
        self._alpha = float(value)
        for layer in self.layers:
            layer.alpha = self._alpha

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
        """A copy with its own parameters, built by :func:`build_model` from
        the fields a checkpoint header stores.  Raises ``ValueError`` when
        the built net's parameter names or shapes, or its layers' mode,
        stride or pool, differ from this net's."""
        net = build_model(self.arch, (self.in_height, self.in_width),
                          variant=self.variant,
                          readout_bias=self.readout.bias is not None,
                          alpha=self.alpha, dropout_p=self.dropout_p)
        if _structure(self) != _structure(net):
            raise ValueError(
                f"the net's layers or parameters do not match its arch {self.arch!r}")
        for src, dst in zip(self.parameters(), net.parameters()):
            dst.value[...] = src.value
        net.soft = self.soft
        net.detach_norm = self.detach_norm
        return net


def _structure(net: SpikingNet):
    """What :meth:`SpikingNet.clone` rebuilds from the arch string: each
    parameter's name and shape, and each layer's mode, stride and pool."""
    return ([(p.name, p.value.shape) for p in net.parameters()],
            [(layer.mode, layer.kernel.stride, layer.pool) for layer in net.layers])


def _batch_slice(grids, t) -> SparseTensor2D:
    """One timestep of a batch of voxel grids as a single sparse tensor,
    each grid's sites written into one block of its coordinates and values."""
    height, width = grids[0].height, grids[0].width
    sites = [grid.timestep_sites(t) for grid in grids]
    n = sum(len(xs) for xs, _, _ in sites)
    if not n:
        return SparseTensor2D.empty(len(grids), height, width, 1)
    coords = np.empty((n, 3), np.int64)
    values = np.empty((n, 1))
    lo = 0
    for b, (xs, ys, vs) in enumerate(sites):
        hi = lo + len(xs)
        coords[lo:hi, 0] = b
        coords[lo:hi, 1] = xs
        coords[lo:hi, 2] = ys
        values[lo:hi, 0] = vs
        lo = hi
    return SparseTensor2D._canonical(coords, values, len(grids), height, width, 1)


def _layer_forward(layer: SpikingConvLayer, x: SparseTensor2D, soft, recorder):
    """Conv + LIF (+ optional pool) for one timestep, at the sites that the
    layer kind picks (see the module docstring); a hard ``sc`` step builds
    one site index for its conv and :func:`_lif_step_lazy`, taped or not.
    Returns (next layer input, nonzero scalar count of the emitted spikes).
    A recorder gets the whole step as one entry, with the state before it
    (``v_prev``, ``s_prev``) and after, and the conv's output sites as flat
    keys."""
    state = layer.state
    kernel = layer.kernel
    w2 = kernel.wnorm2
    v_prev, s_prev = state.potentials, state.prev_spikes
    every_site = soft or layer.mode == "dense"
    if every_site:   # the spikes' sites and keys are the output's
        out_c, current, _, _ = _conv_sites(x, kernel, every_site)
        spikes = _lif_update(state, current, layer.beta.item(), layer.b.item(),
                             w2 + EPSILON, out_c,
                             _grid_keys(x.batch_size, *state.shape[2:]),
                             s_prev.keys(), layer.alpha if soft else None,
                             every_site=True)
    else:
        params = layer.lif_params()
        x_in = _nonzero_rows(x)[0]
        index = _step_index(x_in, kernel.k, kernel.stride, s_prev.keys(),
                            params.b <= 0)
        out_c, current, _, _ = _conv_sites(x_in, kernel, every_site, index=index)
        spikes = _lif_step_lazy(state, out_c, current, params, w2, index=index)
    count = int(np.count_nonzero(spikes.values))

    out, winners = _pool(spikes) if layer.pool else (spikes, None)
    if recorder is not None:
        recorder.record_layer(
            layer, x, spikes.keys() if every_site else index.keys[index.out_rows],
            s_prev, spikes, current=current, every_site=every_site,
            v_prev=v_prev, winners=winners)
    return out, count


def run_timesteps(model: SpikingNet, grids, t_eval, start=0, training=False,
                  rng=None, recorder=None):
    """Drive a batch of voxel grids through ``t_eval`` timesteps.

    States are *not* reset here, so consecutive calls continue a run.  With
    ``training=True`` a fresh dropout mask is drawn per timestep from ``rng``.
    Every layer keeps dense potentials and computes at the sites its kind
    picks (see the module docstring), with or without a ``recorder``.  A
    recorder gets the run as ``record_run(grids, start, t_eval)`` ahead of
    every step's entries and may slice the grids again later, so they must
    not change until it is done with them.
    Returns ``(per-timestep logits [T, B, classes], mean logits, per-layer
    spike counts)``.
    """
    if t_eval < 1:
        raise ValueError("t_eval must be >= 1")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if not grids:
        raise ValueError("run_timesteps needs at least one grid")
    for grid in grids:
        if (grid.height, grid.width) != (model.in_height, model.in_width):
            raise ValueError(
                f"grid is {grid.height}x{grid.width} but the model takes "
                f"{model.in_height}x{model.in_width}")
        if start + t_eval > grid.n_timesteps:
            raise ValueError(
                f"need {start + t_eval} timesteps but grid has {grid.n_timesteps}; "
                "regenerate the grid with more bins")
    counts = np.zeros(len(model.layers), dtype=np.int64)
    logits_seq = []
    dropout_on = training and model.dropout_p > 0.0
    if dropout_on and rng is None:
        raise ValueError("training with dropout needs an rng for the masks")
    if recorder is not None:
        recorder.record_run(grids, start, t_eval)
    for t in range(start, start + t_eval):
        x = _batch_slice(grids, t)
        for li, layer in enumerate(model.layers):
            x, c = _layer_forward(layer, x, model.soft, recorder)
            counts[li] += c
        if dropout_on:
            x = _dropout_recorded(x, model.dropout_p, rng, recorder)
        logits = _readout_batch(model.readout, x)
        if recorder is not None:
            recorder.record_readout(model.readout, x)
        logits_seq.append(logits)
    stacked = np.stack(logits_seq)
    return stacked, stacked.mean(axis=0), counts


def _dropout_recorded(x, p, rng, recorder):
    """Inverted dropout with a fresh mask per call (i.e. per timestep) over
    every stored scalar of ``x``, kept by probability ``1 - p`` with
    ``0 <= p < 1`` and scaled by ``1 / (1 - p)``; the mask goes on the tape
    when there is one."""
    mask = rng.random(x.values.shape) >= p
    out = SparseTensor2D._canonical(x.coords, x.values * mask * (1.0 / (1.0 - p)),
                                    x.batch_size, x.height, x.width, x.channels,
                                    x.keys())
    if recorder is not None:
        recorder.record_dropout(mask, p)
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
    _write_whole(path, b"".join([_CKPT_MAGIC, header.encode("ascii")]
                                + [p.value.astype("<f4").tobytes()
                                   for p in model.parameters()]))


def load_checkpoint(path) -> SpikingNet:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _CKPT_MAGIC:
        raise ValueError("not a spikesparse checkpoint")
    nl = blob.index(b"\n")
    fields = dict(kv.split("=", 1) for kv in blob[8:nl].decode("ascii").split(";"))
    in_hw = int(fields["height"]), int(fields["width"])
    bias = bool(int(fields["bias"]))
    # the header's float32 count, checked before any parameter is allocated
    convs, (classes, features) = _arch_geometry(fields["arch"], in_hw)
    count = (sum(f * c * k * k + 2 for (f, c, k, _), _ in convs)
             + classes * (features + bias))
    if 4 * count != len(blob) - (nl + 1):
        raise ValueError("checkpoint size does not match architecture")
    model = build_model(fields["arch"], in_hw, variant=fields["variant"],
                        readout_bias=bias, alpha=float(fields["alpha"]),
                        dropout_p=float(fields["dropout"]))
    vals = np.frombuffer(blob, dtype="<f4", offset=nl + 1)
    for p in model.parameters():
        p.value[...] = vals[:p.value.size].reshape(p.value.shape)
        vals = vals[p.value.size:]
    return model
