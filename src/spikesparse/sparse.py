"""COO sparse 2D tensors and the strided sparse convolution built on them.

A :class:`SparseTensor2D` stores, for a batch of 2D grids, the set of
occupied sites ``(b, x, y)`` together with one channel vector per site.
Convolution over such a tensor is evaluated only at the output coordinates
induced by the occupied input coordinates (the *coordinate map*): for a
stride ``s``, site ``(b, x, y)`` contributes the output site
``(b, x // s, y // s)``.  This is what makes a stride-1 sparse convolution
differ from its dense counterpart: output sites whose receptive field
touches a nonzero but which are not themselves in the coordinate map stay
empty, so spatial sparsity never grows through a convolution.  Each call
builds one kernel map (the "rulebook" of every (tap, output, input) match)
in a single gather; backward rebuilds it rather than storing it.

Dense reference routines (``dense_conv2d``, ``dense_max_pool2d``) share the
tap conventions of the sparse path and back the dense execution mode of the
network layers.
"""

from __future__ import annotations

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
    "dense_max_pool2d",
    "dense_max_pool2d_backward",
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
        One channel vector per site.  All-zero vectors are pruned.
    batch_size, height, width : int
        Extent of the dense equivalent ``[B, C, H, W]``.
    channels : int, optional
        Required when ``values`` is empty and C cannot be inferred.

    Entries are kept in a canonical order sorted by ``(b, y, x)``, so two
    traversals of the same tensor always visit sites identically.
    """

    __slots__ = ("coords", "values", "batch_size", "height", "width", "channels")

    def __init__(self, coords, values, batch_size, height, width, channels=None,
                 *, validate=True, canonical=False, prune=True):
        coords = np.ascontiguousarray(np.asarray(coords, dtype=np.int64).reshape(-1, 3))
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if channels is None:
            if values.size == 0 and values.shape[-1] == 0:
                raise ShapeError("channel count cannot be inferred from empty values")
            channels = values.shape[1]
        values = values.reshape(-1, channels)
        if coords.shape[0] != values.shape[0]:
            raise ShapeError(
                f"{coords.shape[0]} coordinates but {values.shape[0]} value rows")
        if prune and len(values):
            keep = np.any(values != 0.0, axis=1)
            if not keep.all():
                coords, values = coords[keep], values[keep]
        if validate and len(coords):
            b, x, y = coords[:, 0], coords[:, 1], coords[:, 2]
            if b.min() < 0 or b.max() >= batch_size:
                raise ShapeError("batch index out of range")
            if x.min() < 0 or x.max() >= width or y.min() < 0 or y.max() >= height:
                raise ShapeError("site coordinate out of range")
        if not canonical and len(coords) > 1:
            order = np.lexsort((coords[:, 1], coords[:, 2], coords[:, 0]))
            coords, values = coords[order], values[order]
        if validate and len(coords) > 1:
            keys = (coords[:, 0] * height + coords[:, 2]) * width + coords[:, 1]
            if np.any(keys[1:] == keys[:-1]):
                raise ShapeError("duplicate site coordinates")
        self.coords = coords
        self.values = np.ascontiguousarray(values)
        self.batch_size = int(batch_size)
        self.height = int(height)
        self.width = int(width)
        self.channels = int(channels)

    @classmethod
    def empty(cls, batch_size, height, width, channels):
        return cls(np.empty((0, 3), np.int64), np.empty((0, channels)),
                   batch_size, height, width, channels, validate=False, canonical=True)

    @classmethod
    def from_dense(cls, dense):
        return sparsify(dense)

    @property
    def n_sites(self) -> int:
        return len(self.coords)

    @property
    def dense_size(self) -> int:
        return self.batch_size * self.channels * self.height * self.width

    def keys(self):
        """Canonical site keys ``(b*H + y)*W + x``; ascending for canonical order."""
        c = self.coords
        return (c[:, 0] * self.height + c[:, 2]) * self.width + c[:, 1]

    def to_dense(self):
        return densify(self)

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
    """Bias-free square convolution kernel with cached squared weight norm.

    ``weights[c_out, c_in, dx, dy]`` is the tap at horizontal offset ``dx``
    and vertical offset ``dy`` (both in ``0..k-1``, centre at ``k // 2``).
    The squared Frobenius norm over all four axes is cached; call
    :meth:`refresh_norm` after mutating ``weights`` in place.
    """

    __slots__ = ("_weights", "stride", "_wnorm2")

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
        self._wnorm2 = float(np.sum(w * w))

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
        return self._wnorm2

    def set_weights(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != self._weights.shape:
            raise ShapeError("kernel shape cannot change")
        self._weights = w
        self.refresh_norm()

    def refresh_norm(self) -> float:
        self._wnorm2 = float(np.sum(self._weights * self._weights))
        return self._wnorm2


def out_coords(coords, stride):
    """Output coordinate set of a strided sparse convolution.

    Floor-divides the spatial part of each ``(b, x, y)`` by ``stride`` and
    deduplicates; for ``stride == 1`` this is the input set.  Result is in
    canonical ``(b, y, x)`` order.
    """
    if stride < 1:
        raise ShapeError("stride must be >= 1")
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if len(coords) == 0:
        return coords.copy()
    out = coords.copy()
    out[:, 1] //= stride
    out[:, 2] //= stride
    out = np.unique(out, axis=0)
    order = np.lexsort((out[:, 1], out[:, 2], out[:, 0]))
    return out[order]


def _kernel_map(out_c, x: SparseTensor2D, k, stride):
    """Rulebook of a ``k x k`` convolution from the sites of ``x`` to ``out_c``.

    Returns ``(dx, dy, rows_out, rows_in)`` for each tap with a match, taps in
    ``dx, dy`` order: ``rows_out`` (ascending rows of ``out_c``) read the
    ``x`` rows ``rows_in``.  All taps are looked up in one gather through a
    dense site->row index of ``x``, padded by ``k // 2`` so that out-of-grid
    taps read the -1 of an absent site.
    """
    pad = k // 2
    hp, wp = x.height + 2 * pad, x.width + 2 * pad
    site_row = np.full((x.batch_size, hp, wp), -1, np.int32)
    site_row[x.coords[:, 0], x.coords[:, 2] + pad, x.coords[:, 1] + pad] = \
        np.arange(x.n_sites, dtype=np.int32)
    # padded flat index of tap (0, 0); tap (dx, dy) adds dy * wp + dx
    corner = (out_c[:, 0] * hp + stride * out_c[:, 2]) * wp + stride * out_c[:, 1]
    taps = (np.arange(k)[:, None] + wp * np.arange(k)).reshape(-1, 1)
    rows = site_row.ravel()[taps + corner]
    tap, rows_out = np.nonzero(rows >= 0)
    cuts = np.searchsorted(tap, np.arange(1, k * k))
    return [(t // k, t % k, o, i) for t, (o, i) in enumerate(zip(
        np.split(rows_out, cuts), np.split(rows[tap, rows_out], cuts))) if len(o)]


def _conv_sites(x: SparseTensor2D, kernel: ConvKernel2D):
    """Unpruned convolution at the coordinate map: (out coords, out values, extent)."""
    s, k = kernel.stride, kernel.k
    h_out, w_out = _ceil_div(x.height, s), _ceil_div(x.width, s)
    if x.n_sites == 0:
        return (np.empty((0, 3), np.int64), np.empty((0, kernel.out_channels)),
                h_out, w_out)
    okeys = np.unique((x.coords[:, 0] * h_out + x.coords[:, 2] // s) * w_out
                      + x.coords[:, 1] // s)
    ox = okeys % w_out
    oy = (okeys // w_out) % h_out
    ob = okeys // (w_out * h_out)
    out_c = np.stack([ob, ox, oy], axis=1)
    w = kernel.weights
    out_v = np.zeros((len(okeys), kernel.out_channels))
    for dx, dy, rows_out, rows_in in _kernel_map(out_c, x, k, s):
        out_v[rows_out] += x.values[rows_in] @ w[:, :, dx, dy].T
    return out_c, out_v, h_out, w_out


def _conv_sites_grads(x: SparseTensor2D, kernel: ConvKernel2D, out_c, g_out,
                      need_input_grad=True):
    """Adjoints of `_conv_sites`: gradient w.r.t. kernel weights and input values.

    ``g_out`` is aligned to the rows of ``out_c``.  The kernel map is rebuilt
    rather than saved: it is deterministic, and keeping it for every conv of
    the unrolling would cost more memory than the rebuild costs time.
    """
    w = kernel.weights
    g_w = np.zeros_like(w)
    g_in = np.zeros_like(x.values) if need_input_grad else None
    if x.n_sites == 0 or len(out_c) == 0:
        return g_w, g_in
    for dx, dy, rows_out, rows_in in _kernel_map(out_c, x, kernel.k, kernel.stride):
        g_rows = g_out[rows_out]
        g_w[:, :, dx, dy] += g_rows.T @ x.values[rows_in]
        if need_input_grad:
            g_in[rows_in] += g_rows @ w[:, :, dx, dy]
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
                          kernel.out_channels, validate=False, canonical=True)


def _pool_sites(x: SparseTensor2D):
    """2x2/stride-2 max pooling over present entries, with argmax winners.

    Returns (out coords, out values, winner row per output scalar, extents).
    Winners index rows of ``x.values``; ties go to the canonically first row.
    """
    h_out, w_out = _ceil_div(x.height, 2), _ceil_div(x.width, 2)
    if x.n_sites == 0:
        return (np.empty((0, 3), np.int64), np.empty((0, x.channels)),
                np.empty((0, x.channels), np.int64), h_out, w_out)
    okeys_all = (x.coords[:, 0] * h_out + x.coords[:, 2] // 2) * w_out + x.coords[:, 1] // 2
    okeys, inv = np.unique(okeys_all, return_inverse=True)
    m = len(okeys)
    out_v = np.full((m, x.channels), -np.inf)
    np.maximum.at(out_v, inv, x.values)
    winners = np.full((m, x.channels), x.n_sites, np.int64)
    rows, cols = np.nonzero(x.values == out_v[inv])
    np.minimum.at(winners, (inv[rows], cols), rows)
    ox = okeys % w_out
    oy = (okeys // w_out) % h_out
    ob = okeys // (w_out * h_out)
    return np.stack([ob, ox, oy], axis=1), out_v, winners, h_out, w_out


def sparse_max_pool2d(x: SparseTensor2D) -> SparseTensor2D:
    """2x2, stride-2 max pooling: channel-wise max over the *present* entries
    of each window; windows with no present entry stay absent."""
    out_c, out_v, _, h_out, w_out = _pool_sites(x)
    return SparseTensor2D(out_c, out_v, x.batch_size, h_out, w_out, x.channels,
                          validate=False, canonical=True)


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
    return SparseTensor2D(coords, values, batch, height, width, channels,
                          validate=False)


def count_nonzero(x: SparseTensor2D):
    """Number of nonzero scalar activations and their fraction of the dense size."""
    count = int(np.count_nonzero(x.values))
    return count, count / x.dense_size


# ---------------------------------------------------------------------------
# dense reference path (dense execution mode and soft-forward verification)

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


def dense_max_pool2d(xd):
    """2x2, stride-2 max pooling of ``[B, C, H, W]``; returns (out, winners).

    ``winners`` holds, per output cell, the flat in-window index (0..3, row
    major) of the maximum, with ties to the first; padding cells (odd extents)
    never win because they are filled with -inf.
    """
    batch, channels, h_in, w_in = xd.shape
    h_out, w_out = _ceil_div(h_in, 2), _ceil_div(w_in, 2)
    padded = np.full((batch, channels, 2 * h_out, 2 * w_out), -np.inf)
    padded[:, :, :h_in, :w_in] = xd
    win = padded.reshape(batch, channels, h_out, 2, w_out, 2)
    win = win.transpose(0, 1, 2, 4, 3, 5).reshape(batch, channels, h_out, w_out, 4)
    winners = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, winners[..., None], axis=-1)[..., 0]
    return out, winners


def dense_max_pool2d_backward(g_out, winners, h_in, w_in):
    """Route pooled gradients back to the winning input cells."""
    batch, channels, h_out, w_out = g_out.shape
    g_pad = np.zeros((batch, channels, 2 * h_out, 2 * w_out))
    oy, ox = np.meshgrid(np.arange(h_out), np.arange(w_out), indexing="ij")
    iy = 2 * oy[None, None] + winners // 2
    ix = 2 * ox[None, None] + winners % 2
    bb, cc = np.meshgrid(np.arange(batch), np.arange(channels), indexing="ij")
    np.add.at(g_pad, (bb[..., None, None], cc[..., None, None], iy, ix), g_out)
    return g_pad[:, :, :h_in, :w_in]
