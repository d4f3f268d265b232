"""COO sparse 2D tensors and the strided sparse convolution built on them.

A :class:`SparseTensor2D` stores, for a batch of 2D grids, the set of
occupied sites ``(b, x, y)`` together with one channel vector per site,
``float64``, or ``bool`` for a hard step's 0/1 spikes and their pooling.
A site's flat key is ``(b * H + y) * W + x``, ascending in canonical order;
``_site_keys`` and ``_flat_sites`` alone encode and decode it.  A tensor
stores its keys, handed on by what built its site list from keys (the step
index, the LIF update, the pool) or encoded once by :meth:`~SparseTensor2D.keys`,
beside its coordinates, which the potentials and kernel maps read.
Convolution over such a tensor is evaluated only at the output coordinates
induced by the occupied input coordinates (the *coordinate map*): for a
stride ``s``, site ``(b, x, y)`` contributes the output site
``(b, x // s, y // s)``.  This is what makes a stride-1 sparse convolution
differ from its dense counterpart: output sites whose receptive field
touches a nonzero but which are not themselves in the coordinate map stay
empty, so spatial sparsity never grows through a convolution.  A dense
convolution is the same call at every output site (``_grid_sites``).  One
occupancy map (``_occupancy``) finds the sites of the coordinate map, of
pooling and of the sparse LIF step.  A hard ``sc`` layer step builds one
site index through it (``_step_index``), which its conv and its LIF update
share: the conv's output sites, the LIF site list (the output sites and
the pending resets, each marked with its own bit) with the row of each
output site and reset in it, and the output sites' ``[k*k, N]`` kernel map
(the "rulebook").  An every-site conv or pool takes its output sites from
the cached ``_grid_sites``.  Every kernel map is one gather (see
``_kernel_map``), for forward and backward alike; backward rebuilds it
rather than storing it.  The forward takes every tap's product, at every
row of a coordinate map and at the rows of an every-site output that some
tap reaches, absent taps reading one zero row appended to the input values,
and sums them over taps in tap order, so it needs no scatter (see
``_conv_sites``).  At one input channel, as layer 0 reads its events, the
products are one channels-first outer product of the tap weights and the
tap values, each an exact multiply; a wider input takes them in one stacked
matmul.  Backward builds its kernel map at
the output rows whose adjoint is nonzero, keeps those that some tap
reaches, gathers their input rows once, and takes every tap's weight
gradient in one matmul and every tap's input gradient in another, summed
onto the input rows in tap order (see ``_conv_sites_grads``).

``dense_conv2d`` and its adjoints share the sparse path's tap conventions;
they are the reference for the tests and ``perfbench/reference.py`` only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "ShapeError",
    "SparseTensor2D",
    "ConvKernel2D",
    "out_coords",
    "sparse_conv2d",
    "sparse_max_pool2d",
    "densify",
    "sparsify",
    "count_nonzero",
    "dense_conv2d",
    "dense_conv2d_grads",
]


class ShapeError(ValueError):
    """Incompatible tensor / kernel geometry."""


def _ceil_div(a: int, s: int) -> int:
    return -(-a // s)


class SparseTensor2D:
    """Batched COO sparse tensor over an ``H x W`` grid with C channels per site.

    Parameters
    ----------
    coords : (N, 3) int array
        Site coordinates ``(b, x, y)`` with ``x`` the column and ``y`` the row.
    values : (N, C) float array
        One channel vector per site, or an ``(N,)`` array when ``C == 1``;
        rows of another width raise :class:`ShapeError`.  All-zero vectors
        are pruned.
    batch_size, height, width : int
        Extent of the dense equivalent ``[B, C, H, W]``, each a positive
        whole number.
    channels : int, optional
        Required when ``values`` is empty and C cannot be inferred.

    Entries are kept in a canonical order sorted by ``(b, y, x)``, so two
    traversals of the same tensor always visit sites identically.  This
    constructor always refuses coordinates and extents that are not whole
    numbers and extents below 1, prunes, range-checks, sorts, rejects duplicates and
    stores ``float64`` values and the site keys; the library wraps what it
    built through :meth:`_canonical`, which checks nothing.
    """

    __slots__ = ("coords", "values", "batch_size", "height", "width", "channels",
                 "_keys")

    def __init__(self, coords, values, batch_size, height, width, channels=None):
        coords = np.asarray(coords)
        if coords.dtype.kind == "f" and not np.all(np.mod(coords, 1) == 0):
            raise ShapeError("site coordinates must be whole numbers")
        coords = coords.astype(np.int64).reshape(-1, 3)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1 and channels in (None, 1):
            values = values.reshape(-1, 1)
        if channels is None:
            if values.size == 0 and values.shape[-1] == 0:
                raise ShapeError("channel count cannot be inferred from empty values")
            channels = values.shape[-1]
        for name, n in (("batch_size", batch_size), ("height", height),
                        ("width", width), ("channels", channels)):
            if not (n >= 1 and float(n).is_integer()):
                raise ShapeError(f"{name} must be a positive whole number, got {n}")
        if values.size == 0:
            values = values.reshape(0, channels)
        elif values.ndim != 2 or values.shape[1] != channels:
            raise ShapeError(
                f"values of shape {values.shape} do not hold {channels}-channel rows")
        if coords.shape[0] != values.shape[0]:
            raise ShapeError(
                f"{coords.shape[0]} coordinates but {values.shape[0]} value rows")
        keep = np.any(values != 0.0, axis=1)
        coords, values = coords[keep], values[keep]
        if len(coords):
            b, x, y = coords[:, 0], coords[:, 1], coords[:, 2]
            if b.min() < 0 or b.max() >= batch_size:
                raise ShapeError("batch index out of range")
            if x.min() < 0 or x.max() >= width or y.min() < 0 or y.max() >= height:
                raise ShapeError("site coordinate out of range")
        order = np.lexsort((coords[:, 1], coords[:, 2], coords[:, 0]))
        self.coords, self.values = coords[order], values[order]
        self.batch_size, self.channels = int(batch_size), int(channels)
        self.height, self.width = int(height), int(width)
        self._keys = keys = _site_keys(self.coords, self.height, self.width)
        if np.any(keys[1:] == keys[:-1]):
            raise ShapeError("duplicate site coordinates")

    @classmethod
    def _canonical(cls, coords, values, batch_size, height, width, channels,
                   keys=None):
        """Wrap arrays the library built, as they are, checking nothing.  The
        caller holds them to the contract: ``coords`` unique int64 ``(N, 3)``
        rows in canonical order and in range, ``values`` C-contiguous ``[N, C]``
        (zero rows kept as given), ``bool`` for 0/1 spikes and ``float64``
        otherwise, int extents, and ``keys`` the rows' flat keys or ``None``."""
        self = cls.__new__(cls)
        self.coords, self.values, self.channels = coords, values, channels
        self.batch_size, self.height, self.width = batch_size, height, width
        self._keys = keys
        return self

    @classmethod
    def empty(cls, batch_size, height, width, channels):
        return cls._canonical(np.empty((0, 3), np.int64), np.empty((0, channels)),
                              batch_size, height, width, channels)

    @property
    def n_sites(self) -> int:
        return len(self.coords)

    @property
    def dense_size(self) -> int:
        return self.batch_size * self.channels * self.height * self.width

    def keys(self):
        """The stored site keys ``(b*H + y)*W + x``, ascending; the first call
        encodes them when the tensor's builder did not hand them on."""
        if self._keys is None:
            self._keys = _site_keys(self.coords, self.height, self.width)
        return self._keys

    def equals(self, other) -> bool:
        return (self.batch_size == other.batch_size
                and self.height == other.height and self.width == other.width
                and self.channels == other.channels
                and np.array_equal(self.coords, other.coords)
                and np.array_equal(self.values, other.values))

    def dump(self) -> str:
        """Text form ``(b,x,y): [v0, v1, ...]``, one site per line."""
        lines = []
        for (b, x, y), vec in zip(self.coords, self.values):
            body = ", ".join(repr(float(v)) for v in vec)
            lines.append(f"({b},{x},{y}): [{body}]")
        return "\n".join(lines)

    def __repr__(self):
        return (f"SparseTensor2D(B={self.batch_size}, C={self.channels}, "
                f"H={self.height}, W={self.width}, sites={self.n_sites})")


class ConvKernel2D:
    """Bias-free square convolution kernel.

    ``weights[c_out, c_in, dx, dy]`` is the tap at horizontal offset ``dx``
    and vertical offset ``dy`` (both in ``0..k-1``, centre at ``k // 2``).
    Every read of :attr:`wnorm2`, the squared Frobenius norm over all four
    axes, computes it from the weights as they are.
    """

    __slots__ = ("_weights", "stride")

    def __init__(self, weights, stride=1):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ShapeError("kernel weights must be [out][in][k][k]")
        if w.shape[2] % 2 != 1:
            raise ShapeError("kernel size must be odd")
        if stride not in (1, 2):
            raise ShapeError("stride must be 1 or 2")
        self._weights = w
        self.stride = int(stride)

    @property
    def weights(self):
        return self._weights

    @property
    def out_channels(self) -> int:
        return self._weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self._weights.shape[1]

    @property
    def k(self) -> int:
        return self._weights.shape[2]

    @property
    def wnorm2(self) -> float:
        w = self._weights
        return float((w * w).sum())   # np.sum's reduction, without its wrapper

    def set_weights(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != self._weights.shape:
            raise ShapeError("kernel shape cannot change")
        self._weights[...] = w


def _site_keys(coords, height, width, stride=1):
    """The flat key ``(b * H + y // s) * W + x // s`` of each ``(b, x, y)`` row
    of ``coords`` on a ``(B, H, W)`` grid, at a stride ``s`` of 1 or 2;
    ascending for canonical order."""
    b, x, y = coords.T
    if stride == 2:   # a shift: int64 floor division of a column is 4x slower
        x, y = x >> 1, y >> 1
    return (b * height + y) * width + x


def _occupancy(size, *keys):
    """The one occupancy map: a flat ``uint8`` map of ``size`` sites whose bit
    ``1 << i`` marks the sites of the flat keys ``keys[i]``.  Returns the
    flat keys of the marked sites, in canonical order, and the flags of each."""
    flags = np.zeros(size, np.uint8)
    flags[keys[0]] = 1
    for bit, site in enumerate(keys[1:], 1):
        flags[site] |= 1 << bit
    flat = np.flatnonzero(flags != 0)   # a bool scan: 4x faster than a uint8 one
    return flat, flags[flat]


def _flat_sites(flat, height, width):
    """The ``(b, x, y)`` rows of the flat site keys ``flat``."""
    sites = np.empty((len(flat), 3), np.intp)
    b, x, y = sites.T
    _, yx = np.divmod(flat, height * width, out=(b, None))
    np.divmod(yx, width, out=(y, x))
    return sites


@lru_cache(maxsize=32)
def _grid_sites(batch, height, width):
    """Every site of a ``(B, H, W)`` grid as canonical ``(b, x, y)`` rows: one
    cached, read-only array per geometry, shared by every-site tensors."""
    b, y, x = np.indices((batch, height, width)).reshape(3, -1)
    sites = np.stack([b, x, y], axis=1)
    sites.flags.writeable = False
    return sites


@lru_cache(maxsize=32)
def _grid_keys(batch, height, width):
    """The flat keys of ``_grid_sites``: one cached, read-only ``arange``
    per geometry, shared by every-site tensors."""
    keys = np.arange(batch * height * width, dtype=np.int64)
    keys.flags.writeable = False
    return keys


def out_coords(coords, stride):
    """Output coordinate set of a strided sparse convolution.

    Floor-divides the spatial part of each ``(b, x, y)`` by ``stride`` and
    deduplicates; for ``stride == 1`` this is the input set.  Result is in
    canonical ``(b, y, x)`` order.  Coordinates must be non-negative.
    """
    if stride < 1:
        raise ShapeError("stride must be >= 1")
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if coords.min(initial=0) < 0:
        raise ShapeError("site coordinates must be non-negative")
    b, w, h = coords.max(axis=0, initial=-1) // [1, stride, stride] + 1
    flat, _ = _occupancy(b * h * w, _site_keys(coords // (1, stride, stride), h, w))
    return _flat_sites(flat, h, w)


@lru_cache(maxsize=32)
def _tap_offsets(k, wp):
    """``[k * k, 1]``: the padded flat offset ``dy * wp + dx`` of tap
    ``t = dx * k + dy`` from tap ``(0, 0)``; cached, read-only."""
    taps = (np.arange(k)[:, None] + wp * np.arange(k)).reshape(-1, 1)
    taps.flags.writeable = False
    return taps


def _kernel_map(out_c, x: SparseTensor2D, k, stride):
    """Rulebook of a ``k x k`` convolution from the sites of ``x`` to ``out_c``.

    Returns the ``[k * k, len(out_c)]`` rows of ``x`` that tap
    ``t = dx * k + dy`` of each output site reads, ``x.n_sites`` where it
    reads no site.  All taps are looked up in one gather through a dense
    site->row index of ``x``, padded by ``k // 2`` so that out-of-grid taps
    read an absent site.  The forward keeps one product per tap and sums
    them in tap order: one GEMM over all taps (im2col) would change the
    reduction order, and so the rounding and the spikes.
    """
    pad = k // 2
    hp, wp = x.height + 2 * pad, x.width + 2 * pad
    site_row = np.full(x.batch_size * hp * wp, x.n_sites, np.int32)
    site_row[_site_keys(x.coords, hp, wp) + pad * (wp + 1)] = \
        np.arange(x.n_sites, dtype=np.int32)
    # padded flat index of tap (0, 0); tap (dx, dy) adds dy * wp + dx
    corner = out_c @ np.array((hp * wp, stride, stride * wp))
    return site_row[_tap_offsets(k, wp) + corner]


class _StepIndex(NamedTuple):
    """The site index of one hard layer step (see :func:`_step_index`)."""
    out_c: np.ndarray         # the conv's output sites, canonical (b, x, y) rows
    kmap: np.ndarray | None   # their [k * k, len(out_c)] kernel map
    sites: np.ndarray         # the LIF site list, canonical (b, x, y) rows
    keys: np.ndarray          # the flat key of each row of `sites`
    out_rows: np.ndarray      # the row in `sites` of each output site
    reset_rows: np.ndarray    # the row in `sites` of each pending reset


def _step_index(x: SparseTensor2D, k=None, stride=1, resets=None, every_site=False):
    """The one site index of a hard layer step: the conv's output sites, the
    LIF site list and the kernel map, built once and shared by the step's
    conv (:func:`_conv_sites`) and LIF update.

    The output sites are the coordinate map of ``x`` at ``stride``.  The LIF
    site list is the output sites plus ``resets``, the flat keys of the
    pending resets on the output grid (the keys of the layer's last spikes),
    or with ``every_site`` (a layer at ``b <= 0``) every output site.  One
    occupancy map over the output grid marks the output sites with bit 1
    and the resets with bit 2: its nonzero sites are the site list in
    canonical order, with their flat keys, and the flags of the list give
    the row of each output site and of each reset in it.  At stride 1 the
    output sites are the sites of ``x``, read by their stored keys.  With a
    kernel size ``k`` the index holds the output sites' kernel map.
    """
    batch = x.batch_size
    height, width = _ceil_div(x.height, stride), _ceil_div(x.width, stride)
    keys = [x.keys() if stride == 1 else _site_keys(x.coords, height, width, stride)]
    if resets is not None:
        keys.append(resets)
    flat, flags = _occupancy(batch * height * width, *keys)
    out_rows, reset_rows = np.flatnonzero(flags & 1), np.flatnonzero(flags & 2)
    if every_site:   # the list is every site, so a site's row is its key
        out_rows, reset_rows = flat[out_rows], flat[reset_rows]
        grid = batch, height, width
        sites, flat = _grid_sites(*grid), _grid_keys(*grid)
    else:
        sites = _flat_sites(flat, height, width)
    out_c = np.take(sites, out_rows, axis=0)   # 3x faster than sites[out_rows]
    kmap = None if k is None else _kernel_map(out_c, x, k, stride)
    return _StepIndex(out_c, kmap, sites, flat, out_rows, reset_rows)


def _conv_sites(x: SparseTensor2D, kernel: ConvKernel2D, every_site=False,
                index=None):
    """Unpruned convolution at the coordinate map of ``x``, or with
    ``every_site`` at every output site: (out coords, out values, extent).
    The coordinate map and its kernel map come from ``index``, the step's
    :func:`_step_index` of ``x``, built here when it is not given.

    The *live* output rows, every row of a coordinate map and the rows of an
    every-site output that some tap reaches, take every tap's product on
    ``padded[kmap[:, live]]``, the ``[k*k, N_live, C_in]`` rows that each tap
    reads (``padded`` is ``x.values`` with a zero row appended at
    ``x.n_sites``, the kernel map's absent tap), by ``w_taps``, whose
    ``w_taps[t]`` is the strided view ``w[:, :, dx, dy].T`` of tap
    ``t = dx * k + dy``.  The products are summed over taps in tap order from
    +0.0; the zero rows add exact zeros.

    When the input and the kernel both have one channel, each product has
    one term, a single exact multiply: the tap values are gathered as one
    ``[k*k, N_live]`` array and multiplied channels first,
    ``[k*k, C_out, 1] * [k*k, 1, N_live]``, and the ``[C_out, N_live]`` sum
    is written transposed, with no matmul.  Otherwise one stacked matmul
    takes every tap's product (a contiguous copy of ``w_taps`` can round
    otherwise: it does at 16 input channels), which NumPy rounds as the
    tap's own 2D product, save where that depends on the row count: a
    one-row product runs on gemv/dot rather than gemm, and with
    ``c_out == 1`` every product is a gemv.  So the taps that match one row
    take their products in one stacked ``[k*k, 1, C_in] @ w_taps`` matmul,
    which rounds as each one-row 2D product, and with ``c_out == 1`` each
    tap takes its product on its matched rows.  ``TestKernelMapMatchesTapLoop``
    holds the result bit-equal to the per-tap loop.
    """
    s, k = kernel.stride, kernel.k
    h_out, w_out = _ceil_div(x.height, s), _ceil_div(x.width, s)
    if every_site:
        out_c = _grid_sites(x.batch_size, h_out, w_out)
        kmap = _kernel_map(out_c, x, k, s)
    else:
        index = _step_index(x, k, s) if index is None else index
        out_c, kmap = index.out_c, index.kmap
    c_out, c_in = kernel.out_channels, kernel.in_channels
    out_v = np.zeros((len(out_c), c_out))
    # every row of a coordinate map takes the products: one that no tap
    # reaches (at k = 1 and stride 2 only) sums zero rows to +0.0
    live = (slice(None) if not every_site else
            np.flatnonzero(kmap.min(axis=0) < x.n_sites))
    rows_in = kmap[:, live]
    w_taps = kernel.weights.reshape(c_out, c_in, k * k).T
    one_channel = x.channels == c_in == 1
    if one_channel:
        # channels first: [k*k, C_out, 1] * [k*k, 1, N_live]
        vals = np.take(np.append(x.values, 0.0), rows_in)
        prods = w_taps[:, 0, :, None] * vals[:, None]
    else:
        padded = np.concatenate([x.values, np.zeros((1, x.channels))])
        prods = np.matmul(np.take(padded, rows_in, axis=0), w_taps)
        hit = rows_in < x.n_sites
        matched = hit.sum(axis=1)
        if c_out == 1:
            for t in np.flatnonzero(matched):
                rows = np.flatnonzero(hit[t])
                prods[t, rows] = x.values[rows_in[t, rows]] @ w_taps[t]
        elif (matched == 1).any():
            # [k*k, 1, C_in] @ w_taps, each tap at its first matched row
            first = hit.argmax(axis=1)
            single = np.matmul(padded[rows_in[np.arange(k * k), first], None], w_taps)
            one = np.flatnonzero(matched == 1)
            prods[one, first[one]] = single[one, 0]
    # NumPy sums a reduce over adjacent elements pairwise, not in tap order:
    # the taps' products are adjacent for one output element, and for one
    # live row of the channels-first products
    total = (np.add.reduce(prods, axis=0, initial=0.0)
             if prods.strides[0] != prods.itemsize
             else sum(prods, np.zeros(prods.shape[1:])))
    out_v[live] = total.T if one_channel else total
    return out_c, out_v, h_out, w_out


def _conv_sites_grads(x: SparseTensor2D, kernel: ConvKernel2D, out_c, g_out,
                      need_input_grad=True):
    """Adjoints of `_conv_sites`: gradient w.r.t. kernel weights and input values.

    ``g_out`` is aligned to the rows of ``out_c``.  The kernel map is rebuilt
    rather than saved: it is deterministic, and keeping it for every conv of
    the unrolling would cost more memory than the rebuild costs time.

    Only the *live* output rows carry gradient: those whose ``g_out`` row is
    nonzero (below an ``sc`` layer most rows are exact zeros off the
    adjoint's support) and that some tap reaches.  The kernel map is built
    at those rows only, and its ``[k*k, N_live, C_in]`` rows of ``padded``
    (``x.values`` with a zero row appended at ``x.n_sites``, the absent
    tap) are gathered once.  One matmul of ``g_out[live].T`` by that stack
    gives the ``[k*k, C_out, C_in]`` weight gradient of every tap
    ``t = dx * k + dy``; one matmul of ``g_out[live]`` by ``w_taps``, whose
    ``w_taps[t]`` is ``w[:, :, dx, dy]``, gives the input gradient of every
    (tap, row) pair, which ``np.bincount`` sums onto the input rows in tap
    order, as a per-tap loop would.  A product over rows some of which read
    the zero row need not round as one over the matched rows, so results
    may differ from the per-tap loop in the last bits
    (``TestKernelMapMatchesTapLoop`` bounds the difference).
    """
    w, k = kernel.weights, kernel.k
    n, c_in = x.n_sites, x.channels
    live = np.flatnonzero(g_out.any(axis=1))
    rows_in = _kernel_map(out_c[live], x, k, kernel.stride)
    reached = rows_in.min(axis=0) < n
    live, rows_in = live[reached], rows_in[:, reached]
    g_live = g_out[live]
    padded = np.concatenate([x.values, np.zeros((1, c_in))])
    g_taps = np.matmul(g_live.T, np.take(padded, rows_in, axis=0))
    g_w = g_taps.transpose(1, 2, 0).reshape(w.shape)
    if not need_input_grad:
        return g_w, None
    w_taps = w.reshape(kernel.out_channels, c_in, k * k).transpose(2, 0, 1)
    g_rows = np.matmul(g_live, w_taps).reshape(-1, c_in)
    rows = rows_in.ravel().astype(np.intp)   # tap-major: each row's sum in tap order
    g_in = np.empty(x.values.shape)
    for c in range(c_in):
        g_in[:, c] = np.bincount(rows, g_rows[:, c], n + 1)[:n]
    return g_w, g_in


def sparse_conv2d(x: SparseTensor2D, kernel: ConvKernel2D) -> SparseTensor2D:
    """Strided sparse convolution evaluated on the coordinate map.

    Output sites are exactly ``out_coords(x.coords, stride)``; at each one the
    usual zero-padded convolution sum is taken, with absent input sites (and
    out-of-bounds taps) reading 0.  The spatial extent becomes
    ``(ceil(H/s), ceil(W/s))``.
    """
    if x.channels != kernel.in_channels:
        raise ShapeError(
            f"input has {x.channels} channels, kernel expects {kernel.in_channels}")
    out_c, out_v, h_out, w_out = _conv_sites(x, kernel)
    return SparseTensor2D(out_c, out_v, x.batch_size, h_out, w_out,
                          kernel.out_channels)


def _pool(x: SparseTensor2D):
    """2x2/stride-2 max pooling over present entries, with argmax winners.

    Returns the pooled tensor, its keys stored and ``bool`` values pooled into
    ``bool``, and the winner row per output scalar.  Winners index rows of
    ``x.values``; ties go to the canonically first row.  An every-site ``x``
    pools onto every output site (the cached ``_grid_sites`` and
    ``_grid_keys``): its rows are the canonical grid, so each window is a
    slice of their ``[B, H, W, C]`` view, padded with ``False`` or ``-inf``
    at an odd edge.
    """
    batch, height, width, channels = x.batch_size, x.height, x.width, x.channels
    h_out, w_out = _ceil_div(height, 2), _ceil_div(width, 2)
    low = False if x.values.dtype == bool else -np.inf
    if x.n_sites == batch * height * width:
        grid = x.values.reshape(batch, height, width, channels)
        if height % 2 or width % 2:
            grid = np.full((batch, 2 * h_out, 2 * w_out, channels), low,
                           x.values.dtype)
            grid[:, :height, :width] = x.values.reshape(batch, height, width,
                                                        channels)
        # each window's four sites in canonical order: (dy, dx) row-major
        win = grid.reshape(batch, h_out, 2, w_out, 2, channels).transpose(
            0, 1, 3, 2, 4, 5).reshape(batch, h_out, w_out, 4, channels)
        out_v = win.max(axis=3)
        first = np.argmax(win == out_v[:, :, :, None], axis=3)
        b, oy, ox = np.indices((batch, h_out, w_out))[..., None]
        winners = (b * height + 2 * oy + first // 2) * width + 2 * ox + first % 2
        return SparseTensor2D._canonical(
            _grid_sites(batch, h_out, w_out), out_v.reshape(-1, channels), batch,
            h_out, w_out, channels, _grid_keys(batch, h_out, w_out)), \
            winners.reshape(-1, channels)
    keys = _site_keys(x.coords, h_out, w_out, 2)
    flat, _ = _occupancy(batch * h_out * w_out, keys)
    inv = np.searchsorted(flat, keys)
    out_v = np.full((len(flat), channels), low, x.values.dtype)
    np.maximum.at(out_v, inv, x.values)
    winners = np.full(out_v.shape, x.n_sites, np.int64)
    rows, cols = np.nonzero(x.values == out_v[inv])
    np.minimum.at(winners, (inv[rows], cols), rows)
    return SparseTensor2D._canonical(_flat_sites(flat, h_out, w_out), out_v, batch,
                                     h_out, w_out, channels, flat), winners


def _pool_sites(x: SparseTensor2D):
    """:func:`_pool` as (out coords, out values, winners, extents)."""
    out, winners = _pool(x)
    return out.coords, out.values, winners, out.height, out.width


def _pool_sites_grads(x: SparseTensor2D, winners, g_out):
    """Adjoint of `_pool_sites`: each pooled scalar's gradient goes to the
    ``x`` row that won it, a float64 array shaped like ``x.values``."""
    g_in = np.zeros(x.values.shape)
    np.add.at(g_in, (winners, np.arange(x.channels)), g_out)
    return g_in


def sparse_max_pool2d(x: SparseTensor2D) -> SparseTensor2D:
    """2x2, stride-2 max pooling: channel-wise max over the *present* entries
    of each window; windows with no present entry stay absent."""
    out_c, out_v, _, h_out, w_out = _pool_sites(x)
    return SparseTensor2D(out_c, out_v, x.batch_size, h_out, w_out, x.channels)


def densify(x: SparseTensor2D):
    """Dense ``[B, C, H, W]`` array with the tensor's entries scattered in."""
    out = np.zeros((x.batch_size, x.channels, x.height, x.width))
    if x.n_sites:
        out[x.coords[:, 0], :, x.coords[:, 2], x.coords[:, 1]] = x.values
    return out


def sparsify(dense) -> SparseTensor2D:
    """COO form of a dense ``[B, C, H, W]`` array; only exact zeros are pruned."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 4:
        raise ShapeError("expected a [B, C, H, W] array")
    batch, channels, height, width = dense.shape
    b, y, x = np.nonzero(np.any(dense != 0.0, axis=1))
    coords = np.stack([b, x, y], axis=1)
    values = dense[b, :, y, x]
    # np.nonzero yields (b, y, x) order and only the rows with a nonzero
    return SparseTensor2D._canonical(coords, values, batch, height, width, channels)


def _nonzero_rows(x: SparseTensor2D):
    """``x`` without its all-zero rows, and the rows of ``x`` it keeps
    (``None`` when it is ``x`` itself).  Of the tensors layers hand on, only an
    every-site one holds zero rows, so any other is returned without a scan."""
    if x.n_sites < x.batch_size * x.height * x.width:
        return x, None
    rows = np.flatnonzero(np.any(x.values != 0.0, axis=1))
    return SparseTensor2D._canonical(x.coords[rows], x.values[rows], x.batch_size,
                                     x.height, x.width, x.channels,
                                     x.keys()[rows]), rows


def count_nonzero(x: SparseTensor2D):
    """Number of nonzero scalar activations and their fraction of the dense size."""
    count = int(np.count_nonzero(x.values))
    return count, count / x.dense_size


# ---------------------------------------------------------------------------
# dense reference convolution (for tests and the benchmark's reference)

def _tap_slices(h_in, w_in, h_out, w_out, dx, dy, stride, pad):
    ox0 = max(0, _ceil_div(pad - dx, stride))
    ox1 = min(w_out - 1, (w_in - 1 - dx + pad) // stride)
    oy0 = max(0, _ceil_div(pad - dy, stride))
    oy1 = min(h_out - 1, (h_in - 1 - dy + pad) // stride)
    if ox0 > ox1 or oy0 > oy1:
        return None
    ix0 = stride * ox0 + dx - pad
    iy0 = stride * oy0 + dy - pad
    nx, ny = ox1 - ox0 + 1, oy1 - oy0 + 1
    sl_in = (slice(iy0, iy0 + stride * (ny - 1) + 1, stride),
             slice(ix0, ix0 + stride * (nx - 1) + 1, stride))
    sl_out = (slice(oy0, oy1 + 1), slice(ox0, ox1 + 1))
    return sl_in, sl_out


def dense_conv2d(xd, weights, stride=1):
    """Zero-padded strided convolution on a dense ``[B, C, H, W]`` array,
    using the same ``weights[co, ci, dx, dy]`` tap convention as the sparse path."""
    batch, c_in, h_in, w_in = xd.shape
    c_out, c_in_k, k, _ = weights.shape
    if c_in != c_in_k:
        raise ShapeError(f"input has {c_in} channels, kernel expects {c_in_k}")
    pad = k // 2
    h_out, w_out = _ceil_div(h_in, stride), _ceil_div(w_in, stride)
    out = np.zeros((batch, c_out, h_out, w_out))
    for dx in range(k):
        for dy in range(k):
            sl = _tap_slices(h_in, w_in, h_out, w_out, dx, dy, stride, pad)
            if sl is None:
                continue
            sl_in, sl_out = sl
            out[:, :, sl_out[0], sl_out[1]] += np.einsum(
                "oi,biyx->boyx", weights[:, :, dx, dy], xd[:, :, sl_in[0], sl_in[1]])
    return out


def dense_conv2d_grads(g_out, xd, weights, stride=1, need_input_grad=True):
    """Adjoints of :func:`dense_conv2d` w.r.t. the input array and the weights."""
    _, _, h_in, w_in = xd.shape
    k = weights.shape[2]
    pad = k // 2
    h_out, w_out = g_out.shape[2], g_out.shape[3]
    g_w = np.zeros_like(weights)
    g_x = np.zeros_like(xd) if need_input_grad else None
    for dx in range(k):
        for dy in range(k):
            sl = _tap_slices(h_in, w_in, h_out, w_out, dx, dy, stride, pad)
            if sl is None:
                continue
            sl_in, sl_out = sl
            go = g_out[:, :, sl_out[0], sl_out[1]]
            g_w[:, :, dx, dy] += np.einsum(
                "boyx,biyx->oi", go, xd[:, :, sl_in[0], sl_in[1]])
            if need_input_grad:
                g_x[:, :, sl_in[0], sl_in[1]] += np.einsum(
                    "oi,boyx->biyx", weights[:, :, dx, dy], go)
    return g_x, g_w

