"""Shared helpers for the test suite: random instance builders and naive oracles.

The oracles here are deliberately written as direct, per-site loops so they
stay independent of the library's vectorized paths.
"""

import numpy as np

from spikesparse.sparse import SparseTensor2D


def random_sparse(rng, batch=1, height=8, width=8, channels=1, density=0.1):
    """Random sparse tensor with ~density occupied sites and N(0,1) values."""
    mask = rng.random((batch, height, width)) < density
    b, y, x = np.nonzero(mask)
    values = rng.standard_normal((len(b), channels))
    values[np.all(values == 0.0, axis=1)] += 1.0  # keep rows present
    coords = np.stack([b, x, y], axis=1)
    return SparseTensor2D(coords, values, batch, height, width, channels)


def conv_oracle(xd, weights, stride):
    """Brute-force zero-padded strided convolution, one explicit gather per site.

    Tap convention matches the library contract: weights[o, i, dx, dy] reads
    the input at (x, y) = (s*ox + dx - pad, s*oy + dy - pad).
    """
    batch, c_in, h_in, w_in = xd.shape
    c_out, _, k, _ = weights.shape
    pad = k // 2
    h_out, w_out = -(-h_in // stride), -(-w_in // stride)
    padded = np.zeros((batch, c_in, h_in + 2 * pad, w_in + 2 * pad))
    padded[:, :, pad:pad + h_in, pad:pad + w_in] = xd
    out = np.zeros((batch, c_out, h_out, w_out))
    for b in range(batch):
        for oy in range(h_out):
            for ox in range(w_out):
                patch = padded[b, :, stride * oy:stride * oy + k,
                               stride * ox:stride * ox + k]
                out[b, :, oy, ox] = np.einsum("oixy,iyx->o", weights, patch)
    return out


def coord_map_mask(x, stride, h_out, w_out):
    """Dense 0/1 indicator of the output coordinate map of a sparse input."""
    mask = np.zeros((x.batch_size, 1, h_out, w_out))
    if x.n_sites:
        mask[x.coords[:, 0], 0, x.coords[:, 2] // stride, x.coords[:, 1] // stride] = 1.0
    return mask


def make_model(rng, in_hw, layer_specs, num_classes, variant="stride",
               dropout_p=0.0, alpha=3.0, beta=0.7, b=0.3, readout_bias=True,
               weight_scale=None):
    """Hand-built SpikingNet for unit tests.

    layer_specs: list of (filters, mode, k) tuples.  Strided variant uses
    stride 2 everywhere; pooled variant stride 1 + 2x2 max pool.
    """
    from spikesparse.sparse import ConvKernel2D
    from spikesparse.spiking import ReadoutLayer, SpikingConvLayer, SpikingNet

    h, w = in_hw
    c_in = 1
    layers = []
    arch_tokens = []
    for i, (filters, mode, k) in enumerate(layer_specs):
        stride = 2 if variant == "stride" else 1
        scale = weight_scale or (1.0 / (c_in * k * k)) ** 0.5
        weights = rng.uniform(-scale, scale, size=(filters, c_in, k, k))
        kern = ConvKernel2D(weights, stride)
        layers.append(SpikingConvLayer(i, kern, beta, b, alpha, mode,
                                       pool=(variant == "pool")))
        arch_tokens.append(f"{filters}{'sc' if mode == 'sparse' else 'c'}{k}")
        c_in = filters
        h, w = -(-h // 2), -(-w // 2)
    feat = c_in * h * w
    scale = (1.0 / feat) ** 0.5
    readout = ReadoutLayer(rng.uniform(-scale, scale, size=(num_classes, feat)),
                           np.zeros(num_classes) if readout_bias else None)
    arch = "-".join(arch_tokens + [str(num_classes)])
    return SpikingNet(arch, layers, readout, in_hw, variant, dropout_p, alpha)


def simulate_reference(model, grid, t_eval):
    """Independent dense simulation of the timestep-wise network.

    Convolutions via the brute-force oracle; sparse-mode layers mask the
    current to the floor-divided coordinate map of their input's nonzero
    sites; the LIF recurrence and threshold follow the update equations
    directly.  Returns (per-timestep logits, spike trains per layer per step).
    """
    height, width = grid.height, grid.width
    states = []
    hh, ww, cc = height, width, 1
    for layer in model.layers:
        c, h, w = layer.state_geometry(hh, ww)
        states.append({"V": np.zeros((1, c, h, w)), "S": np.zeros((1, c, h, w))})
        cc, hh, ww = layer.out_geometry(hh, ww)
    logits_seq, trains = [], [[] for _ in model.layers]
    for t in range(t_eval):
        xs, ys, vals = grid.timestep_sites(t)
        xd = np.zeros((1, 1, height, width))
        xd[0, 0, ys, xs] = vals
        for li, layer in enumerate(model.layers):
            st = states[li]
            cur = conv_oracle(xd, layer.kernel.weights, layer.kernel.stride)
            if layer.mode == "sparse":
                occ = np.any(xd != 0.0, axis=1)
                mask = np.zeros(cur.shape[2:])
                b_idx, y_idx, x_idx = np.nonzero(occ)
                s = layer.kernel.stride
                mask[y_idx // s, x_idx // s] = 1.0
                cur = cur * mask
            w2e = float(np.sum(layer.kernel.weights ** 2)) + 1e-8
            beta, b = float(layer.beta.value), float(layer.b.value)
            st["V"] = beta * (st["V"] - b * w2e * st["S"]) + (1 - beta) * cur
            st["S"] = (st["V"] / w2e - b >= 0).astype(float)
            trains[li].append(st["S"].copy())
            xd = st["S"]
            if layer.pool:
                b_, c_, h_, w_ = xd.shape
                pad = np.full((b_, c_, h_ + h_ % 2, w_ + w_ % 2), -np.inf)
                pad[:, :, :h_, :w_] = xd
                xd = pad.reshape(b_, c_, -1, 2, pad.shape[3] // 2, 2).max(axis=(3, 5))
        flat = xd.reshape(-1)
        logits = model.readout.weight.value @ flat
        if model.readout.bias is not None:
            logits = logits + model.readout.bias.value
        logits_seq.append(logits)
    return np.stack(logits_seq), trains


def every_site_forward(model, grids, t_eval):
    """Oracle for hard-threshold ``sc`` networks that updates every site.

    Each layer convolves on its input's coordinate map with the library's
    conv, and ``lif_step`` integrates the densified current into every site,
    so no site is skipped.  Returns (per-timestep logits [T, B, classes],
    per-layer spike counts); states advance as in ``run_timesteps``.
    """
    from spikesparse.sparse import SparseTensor2D, _conv_sites, _pool_sites
    from spikesparse.spiking import _batch_slice, _readout_batch, lif_step

    counts = np.zeros(len(model.layers), dtype=np.int64)
    logits = []
    for t in range(t_eval):
        x = _batch_slice(grids, t)
        for li, layer in enumerate(model.layers):
            assert layer.mode == "sparse" and not model.soft
            out_c, rows, _, _ = _conv_sites(x, layer.kernel)
            batch, channels, height, width = layer.state.shape
            current = SparseTensor2D(out_c, rows, batch, height, width, channels,
                                     prune=False)
            x, _ = lif_step(layer.state, current, layer.lif_params(),
                            layer.kernel.wnorm2)
            counts[li] += np.count_nonzero(x.values)
            if layer.pool:
                pc, pv, _, ph, pw = _pool_sites(x)
                x = SparseTensor2D(pc, pv, batch, ph, pw, channels, prune=False)
        logits.append(_readout_batch(model.readout, x))
    return np.stack(logits), counts
