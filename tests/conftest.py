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
            current = SparseTensor2D._canonical(out_c, rows, batch, height, width,
                                                channels)
            x, _ = lif_step(layer.state, current, layer.lif_params(),
                            layer.kernel.wnorm2)
            counts[li] += np.count_nonzero(x.values)
            if layer.pool:
                pc, pv, _, ph, pw = _pool_sites(x)
                x = SparseTensor2D._canonical(pc, pv, batch, ph, pw, channels)
        logits.append(_readout_batch(model.readout, x))
    return np.stack(logits), counts


def conv_oracle_grads(xd, weights, stride, g_out):
    """Adjoints of :func:`conv_oracle` by the same per-site gathers:
    ``(g_x, g_w)`` for the output adjoint ``g_out``."""
    batch, c_in, h_in, w_in = xd.shape
    _, _, k, _ = weights.shape
    pad = k // 2
    padded = np.zeros((batch, c_in, h_in + 2 * pad, w_in + 2 * pad))
    padded[:, :, pad:pad + h_in, pad:pad + w_in] = xd
    g_pad = np.zeros_like(padded)
    g_w = np.zeros_like(weights)
    for b in range(batch):
        for oy in range(g_out.shape[2]):
            for ox in range(g_out.shape[3]):
                window = (b, slice(None), slice(stride * oy, stride * oy + k),
                          slice(stride * ox, stride * ox + k))
                g = g_out[b, :, oy, ox]
                g_w += np.einsum("o,iyx->oixy", g, padded[window])
                g_pad[window] += np.einsum("o,oixy->iyx", g, weights)
    return g_pad[:, :, pad:pad + h_in, pad:pad + w_in], g_w


def _present_pool(s, present):
    """2x2/stride-2 max pool over the present sites of ``s`` ``[B, C, H, W]``
    (``present``: ``[B, H, W]``): the pooled array, its present sites, and
    per pooled scalar the ``(y, x)`` of the first present site of its
    window, in ``(y, x)`` order, that holds the maximum."""
    batch, channels, height, width = s.shape
    h_out, w_out = -(-height // 2), -(-width // 2)
    pooled = np.zeros((batch, channels, h_out, w_out))
    pooled_present = np.zeros((batch, h_out, w_out), bool)
    winners = {}
    for b in range(batch):
        for oy in range(h_out):
            for ox in range(w_out):
                sites = [(y, x) for y in (2 * oy, 2 * oy + 1)
                         for x in (2 * ox, 2 * ox + 1)
                         if y < height and x < width and present[b, y, x]]
                if not sites:
                    continue
                pooled_present[b, oy, ox] = True
                for c in range(channels):
                    vals = [s[b, c, y, x] for y, x in sites]
                    pooled[b, c, oy, ox] = max(vals)
                    winners[b, c, oy, ox] = sites[vals.index(max(vals))]
    return pooled, pooled_present, winners


def dense_bptt(model, grids, labels, t_eval, truncate=0, start=0):
    """Gradients of a hard-threshold network of ``sc`` and ``c`` layers by
    plain dense BPTT.

    Written from the update equations and the gradient rules, with dense
    ``[B, C, H, W]`` arrays and per-site conv loops, from reset states run
    untaped through bins ``0 .. start-1`` and differentiated over bins
    ``start .. start+t_eval-1``:

    - an ``sc`` layer reads only its input's nonzero sites (those with a
      nonzero channel), and its current is masked to their coordinate map;
      a ``c`` layer reads every site its input holds and computes at every
      output site;
    - a tensor holds its present sites, every channel of them: the input's
      nonzero sites, an ``sc`` layer's spiking sites, every site of a ``c``
      layer, zero ones included; the adjoint from the readout or the next
      conv reaches a tensor only at the sites that read it, and a pooled
      scalar's adjoint goes to the site that won it;
    - the spike step's derivative is the surrogate
      ``alpha * sig(alpha * u) * sig(-alpha * u)`` at ``u = V / w2e - b``,
      with ``w2e = |W|^2 + 1e-8`` in the gradient graph;
    - ``truncate > 0`` cuts the recurrence below every step t with
      ``t % truncate == 0``, counted from ``start``; the potentials and
      spikes of the warm-up are constants.

    The loss is the batch mean of the softmax cross-entropy of the mean
    logits.  Returns ``{parameter name: gradient}``.
    """
    batch = len(grids)
    layers = model.layers
    consts = []
    for layer in layers:
        assert not model.soft
        w = layer.kernel.weights
        consts.append((w, layer.kernel.stride, float(layer.beta.value),
                       float(layer.b.value), float(np.sum(w * w)) + 1e-8))
    w_r = model.readout.weight.value
    bias = (model.readout.bias.value if model.readout.bias is not None
            else np.zeros(w_r.shape[0]))

    # forward, keeping every intermediate
    shapes, hh, ww = [], model.in_height, model.in_width
    for layer in layers:
        c, h, w = layer.state_geometry(hh, ww)
        shapes.append((batch, c, h, w))
        _, hh, ww = layer.out_geometry(hh, ww)
    v_state = [np.zeros(sh) for sh in shapes]
    s_state = [np.zeros(sh) for sh in shapes]
    steps, logits = [], []
    for t in range(start + t_eval):
        x = np.zeros((batch, 1, model.in_height, model.in_width))
        for b, grid in enumerate(grids):
            xs, ys, vs = grid.timestep_sites(t)
            x[b, 0, ys, xs] = vs
        present = np.any(x != 0.0, axis=1)
        rec = []
        for li, layer in enumerate(layers):
            w, stride, beta, b_thr, w2e = consts[li]
            every = layer.mode == "dense"
            cmap = np.full((batch,) + shapes[li][2:], every)
            if not every:
                present = np.any(x != 0.0, axis=1)
                bb, yy, xx = np.nonzero(present)
                cmap[bb, yy // stride, xx // stride] = True
            cur = conv_oracle(x, w, stride) * cmap[:, None]
            v_prev, s_prev = v_state[li], s_state[li]
            v_new = beta * (v_prev - b_thr * w2e * s_prev) + (1.0 - beta) * cur
            spikes = (v_new / w2e - b_thr >= 0).astype(np.float64)
            r = dict(x=x, present=present, cmap=cmap, cur=cur, v_prev=v_prev,
                     s_prev=s_prev, v_new=v_new)
            v_state[li], s_state[li] = v_new, spikes
            x, present = spikes, np.any(spikes != 0.0, axis=1) | every
            r["spike_present"] = present
            if layer.pool:
                x, present, r["winners"] = _present_pool(spikes, present)
            rec.append(r)
        if t >= start:
            steps.append((rec, x, present))
            logits.append(x.reshape(batch, -1) @ w_r.T + bias)
    mean = np.mean(logits, axis=0)
    probs = np.exp(mean - mean.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    g_logits = (probs - np.eye(w_r.shape[0])[labels]) / batch / t_eval

    grads = {"readout.weight": np.zeros_like(w_r)}
    if model.readout.bias is not None:
        grads["readout.bias"] = g_logits.sum(axis=0) * t_eval
    g_w2 = [0.0] * len(layers)
    for li, layer in enumerate(layers):
        grads[layer.weight.name] = np.zeros_like(layer.kernel.weights)
        grads[layer.beta.name] = 0.0
        grads[layer.b.name] = 0.0
    carry_v = [np.zeros(sh) for sh in shapes]   # beta * g_V of step t+1
    carry_s = [np.zeros(sh) for sh in shapes]   # -b * w2e * beta * g_V of step t+1
    for t in reversed(range(t_eval)):
        rec, x, present = steps[t]
        grads["readout.weight"] += g_logits.T @ x.reshape(batch, -1)
        g_x = (g_logits @ w_r).reshape(x.shape) * present[:, None]
        for li in reversed(range(len(layers))):
            layer, r = layers[li], rec[li]
            w, stride, beta, b_thr, w2e = consts[li]
            if layer.pool:
                g_spikes = np.zeros(shapes[li])
                for (b, c, oy, ox), (y, xx) in r["winners"].items():
                    g_spikes[b, c, y, xx] += g_x[b, c, oy, ox]
            else:
                g_spikes = g_x
            g_s = carry_s[li] + g_spikes * r["spike_present"][:, None]
            z = layer.alpha * (r["v_new"] / w2e - b_thr)
            e = np.exp(-np.abs(z))
            g_u = g_s * layer.alpha * e / (1.0 + e) ** 2
            g_v = carry_v[li] + g_u / w2e
            thr = b_thr * w2e
            reset_flow = beta * np.sum(r["s_prev"] * g_v)
            grads[layer.beta.name] += np.sum(
                (r["v_prev"] - thr * r["s_prev"] - r["cur"]) * g_v)
            grads[layer.b.name] += -np.sum(g_u) - w2e * reset_flow
            g_w2[li] += (-np.sum(g_u * r["v_new"]) / w2e ** 2
                         - b_thr * reset_flow)
            g_i = (1.0 - beta) * g_v * r["cmap"][:, None]
            g_in, g_w = conv_oracle_grads(r["x"], w, stride, g_i)
            grads[layer.weight.name] += g_w
            g_x = g_in * r["present"][:, None]
            cut = truncate > 0 and t % truncate == 0
            carry_v[li] = np.zeros(shapes[li]) if cut else beta * g_v
            carry_s[li] = np.zeros(shapes[li]) if cut else -thr * beta * g_v
    for li, layer in enumerate(layers):
        grads[layer.weight.name] += 2.0 * g_w2[li] * layer.kernel.weights
    return grads
