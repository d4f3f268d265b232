"""Independent dense reference for the spiking network, forward and BPTT.

Every layer is simulated on dense ``[B, C, H, W]`` arrays with
:func:`spikesparse.sparse.dense_conv2d` and without lazy decay.  A sparse
(``sc``) layer evaluates its convolution only on the coordinate map of its
input, so the dense current is masked to the sites ``(b, x // s, y // s)`` of
the occupied input sites (the definition used by ``simulate_reference`` in
the test suite).  A dense ``c`` layer evaluates everywhere, so an ``sc``
model and the same weights run as ``c`` layers do not agree; the mask is what
makes this a reference for ``sc`` execution.

The backward pass restates the gradient rules of the program rather than
calling them.  Adjoints reach a sparse tensor only at its stored sites (all
channels of a site that holds any nonzero value), so the gradient that flows
into a layer's spikes from the next convolution, or from the readout, is
masked to the sites where that layer spiked; the reset term carries it
densely.
"""

from __future__ import annotations

import numpy as np

from spikesparse.sparse import dense_conv2d, dense_conv2d_grads

EPS = 1e-8


def _input_frame(grids, t):
    h, w = grids[0].height, grids[0].width
    x = np.zeros((len(grids), 1, h, w))
    for b, grid in enumerate(grids):
        xs, ys, vs = grid.timestep_sites(t)
        x[b, 0, ys, xs] = vs
    return x


def _site_mask(x):
    """[B, 1, H, W] indicator of sites where any channel is nonzero."""
    return np.any(x != 0.0, axis=1, keepdims=True)


def _coord_map(site_mask, stride, h_out, w_out):
    b, _, y, x = np.nonzero(site_mask)
    out = np.zeros((site_mask.shape[0], 1, h_out, w_out), bool)
    out[b, 0, y // stride, x // stride] = True
    return out


def _layer_constants(layer):
    if layer.mode != "sparse" or layer.pool:
        raise ValueError("the reference covers strided sparse layers only")
    w = layer.kernel.weights
    w2e = float(np.sum(w * w)) + EPS
    return w, layer.kernel.stride, float(layer.beta.value), float(layer.b.value), w2e


def _surrogate(u, alpha):
    sig = 0.5 * (1.0 + np.tanh(0.5 * alpha * u))
    return alpha * sig * (1.0 - sig)


def forward(model, grids, t_eval, keep=False):
    """Per-timestep logits ``[T, B, classes]`` and spike counts ``[T, B, layers]``.

    With ``keep=True`` also returns the per-timestep records that
    :func:`gradients` consumes.
    """
    batch = len(grids)
    consts = [_layer_constants(layer) for layer in model.layers]
    h, w = model.in_height, model.in_width
    v, s = [], []
    for layer in model.layers:
        c, h, w = layer.state_geometry(h, w)
        v.append(np.zeros((batch, c, h, w)))
        s.append(np.zeros((batch, c, h, w)))
    w_r = model.readout.weight.value
    bias = model.readout.bias.value if model.readout.bias is not None else 0.0
    logits = np.empty((t_eval, batch, model.num_classes))
    counts = np.zeros((t_eval, batch, len(model.layers)), np.int64)
    records = []
    for t in range(t_eval):
        x = _input_frame(grids, t)
        steps = []
        for li, (wts, stride, beta, b, w2e) in enumerate(consts):
            h_out, w_out = v[li].shape[2:]
            cmap = _coord_map(_site_mask(x), stride, h_out, w_out)
            cur = dense_conv2d(x, wts, stride) * cmap
            v_new = beta * (v[li] - b * w2e * s[li]) + (1.0 - beta) * cur
            s_new = (v_new / w2e - b >= 0).astype(np.float64)
            counts[t, :, li] = np.count_nonzero(s_new.reshape(batch, -1), axis=1)
            if keep:
                steps.append((x, cmap, v[li], s[li], v_new, cur))
            v[li], s[li] = v_new, s_new
            x = s_new
        logits[t] = x.reshape(batch, -1) @ w_r.T + bias
        if keep:
            records.append((steps, x))
    if keep:
        return logits, counts, records
    return logits, counts


def gradients(model, grids, labels, t_eval):
    """Loss and parameter gradients (by name) of the mean-logit softmax
    cross-entropy, through the full unrolling, without dropout."""
    logits, _, records = forward(model, grids, t_eval, keep=True)
    labels = np.asarray(labels)
    batch = len(labels)
    mean = logits.mean(axis=0)
    z = mean - mean.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    loss = float(-np.log(probs[np.arange(batch), labels]).mean())
    g_mean = probs.copy()
    g_mean[np.arange(batch), labels] -= 1.0
    g_logits = g_mean / batch / t_eval

    consts = [_layer_constants(layer) for layer in model.layers]
    alpha = model.alpha
    w_r = model.readout.weight.value
    grads = {p.name: np.zeros_like(p.value) for p in model.parameters()}
    g_w2 = [0.0] * len(consts)
    g_v_next = [0.0] * len(consts)   # adjoint reaching V[t] from V[t+1]
    g_s_next = [0.0] * len(consts)   # adjoint reaching S[t] from the reset at t+1
    for t in range(t_eval - 1, -1, -1):
        steps, x_top = records[t]
        grads["readout.weight"] += g_logits.T @ x_top.reshape(batch, -1)
        if model.readout.bias is not None:
            grads["readout.bias"] += g_logits.sum(axis=0)
        g_from_above = (g_logits @ w_r).reshape(x_top.shape) * _site_mask(x_top)
        for li in range(len(consts) - 1, -1, -1):
            wts, stride, beta, b, w2e = consts[li]
            x, cmap, v_prev, s_prev, v_new, cur = steps[li]
            thr = b * w2e
            g_s = g_from_above + g_s_next[li]
            u = v_new / w2e - b
            g_u = g_s * _surrogate(u, alpha)
            g_v = g_u / w2e + g_v_next[li]
            name = f"conv{li}"
            grads[name + ".beta"] += np.sum((v_prev - thr * s_prev - cur) * g_v)
            reset_flow = beta * np.sum(s_prev * g_v)
            grads[name + ".b"] += -np.sum(g_u) - w2e * reset_flow
            if not model.layers[li].detach_norm:
                g_w2[li] += -np.sum(g_u * v_new) / (w2e * w2e) - b * reset_flow
            g_cur = (1.0 - beta) * g_v * cmap
            g_x, g_w = dense_conv2d_grads(g_cur, x, wts, stride,
                                          need_input_grad=li > 0)
            grads[name + ".weight"] += g_w
            g_v_next[li] = beta * g_v
            g_s_next[li] = -thr * beta * g_v
            if li > 0:
                g_from_above = g_x * _site_mask(x)
    for li, (wts, *_rest) in enumerate(consts):
        grads[f"conv{li}.weight"] += 2.0 * g_w2[li] * wts
    return loss, grads
