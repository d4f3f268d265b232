"""Reverse-mode differentiation through the timestep unrolling.

The forward pass records a :class:`GradientTape`: one entry per executed
operation (conv, lif, pool, dropout, readout, mean, loss) holding the saved
intermediates backward needs.  :func:`backward` walks the entries in reverse
exactly once, propagating adjoints across all timesteps -- through the
membrane recurrence ``V[n] -> V[n+1]`` and through the reset term's
dependence on the previous spikes -- so the leak and threshold of every layer
receive gradients from every timestep.

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

import numpy as np

from .sparse import (
    SparseTensor2D,
    _conv_sites_grads,
    dense_conv2d_grads,
    dense_max_pool2d_backward,
    densify,
)
from .spiking import run_timesteps, surrogate_grad

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

    def global_norm(self, params) -> float:
        return float(np.sqrt(sum(float(np.sum(self.get(p) ** 2)) for p in params)))

    def dump_norms(self, params) -> str:
        lines = [f"{p.name} {np.linalg.norm(self.get(p)):.6e}" for p in params]
        return "\n".join(lines)


class _Entry:
    __slots__ = ("kind", "data")

    def __init__(self, kind, **data):
        self.kind = kind
        self.data = data


class GradientTape:
    """Ordered record of one forward pass; replayable in reverse once.

    Implements the recorder protocol consumed by
    :func:`spikesparse.spiking.run_timesteps`.
    """

    def __init__(self):
        self.entries = []
        self.used = False
        self._lif_counts = {}

    # --- recorder protocol -------------------------------------------------
    def record_conv(self, layer, conv_ctx):
        kind, x, out_c, out_v = conv_ctx
        self.entries.append(_Entry("conv", layer=layer, sparse=(kind == "sparse"),
                                   x=x, out_c=out_c, out_v=out_v,
                                   x_needs_grad=layer.index > 0))

    def record_lif(self, layer, v_prev, v_new, s_prev, s_new, s_new_sparse,
                   conv_ctx, w2e, soft):
        t = self._lif_counts.get(layer.index, 0)
        self._lif_counts[layer.index] = t + 1
        self.entries.append(_Entry(
            "lif", layer=layer, t=t, v_prev=v_prev, v_new=v_new, s_prev=s_prev,
            s_new=s_new, s_new_sparse=s_new_sparse, conv_ctx=conv_ctx, w2e=w2e,
            soft=soft, beta=layer.beta.item(), b=layer.b.item(),
            alpha=layer.alpha))

    def record_pool(self, x, out, winners, in_hw):
        self.entries.append(_Entry("pool", x=x, out=out, winners=winners,
                                   in_hw=in_hw))

    def record_dropout(self, x, out, mask, p):
        self.entries.append(_Entry("dropout", x=x, out=out, mask=mask, p=p))

    def record_readout(self, readout, x, logits):
        self.entries.append(_Entry("readout", readout=readout, x=x, logits=logits))

    def record_mean(self, logits_seq, mean):
        self.entries.append(_Entry("mean", logits_seq=list(logits_seq), mean=mean))

    def record_loss(self, probs, labels, mean):
        self.entries.append(_Entry("loss", probs=probs, labels=labels, mean=mean))

    def record_squared_loss(self, residual, mean):
        """Seed for ``0.5 * sum((mean - target)^2)``; residual = mean - target."""
        self.entries.append(_Entry("sqloss", residual=residual, mean=mean))

    def record_seed(self, ref, g):
        """Directly seed the adjoint of a recorded value (testing hook)."""
        self.entries.append(_Entry("seed", ref=ref, g=g))

    def branch(self, tail_entries):
        """A new tape sharing this tape's entries with a different tail.

        Entries are read-only during backward, so branches may each be
        consumed once.
        """
        t = GradientTape()
        t.entries = list(self.entries) + list(tail_entries)
        return t


class _AdjointStore:
    """Adjoints keyed by the identity of forward value objects.

    Sparse tensors carry value-row adjoints ``(N, C)``; plain arrays carry
    same-shape dense adjoints.
    """

    def __init__(self):
        self._acc = {}

    def add(self, obj, g):
        key = id(obj)
        if key in self._acc:
            self._acc[key] += g
        else:
            self._acc[key] = np.array(g, dtype=np.float64)

    def pop(self, obj, shape):
        g = self._acc.pop(id(obj), None)
        return np.zeros(shape) if g is None else g


def _one_hot(labels, n):
    out = np.zeros((len(labels), n))
    out[np.arange(len(labels)), labels] = 1.0
    return out


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
    nll = -np.log(probs[np.arange(len(labels)), labels])
    return float(nll.mean()), probs


def backward(tape: GradientTape, loss_grad=1.0, truncate=0) -> ParamGrads:
    """Propagate adjoints through a recorded forward pass.

    ``truncate > 0`` cuts the backward recurrence every that many timesteps
    (truncated BPTT); the default differentiates the full unrolling.  A tape
    can be consumed once.
    """
    if tape.used:
        raise RuntimeError("backward already ran on this tape")
    tape.used = True
    if not tape.entries or tape.entries[-1].kind not in ("loss", "sqloss", "seed"):
        raise RuntimeError("tape has no recorded loss")

    grads = ParamGrads()
    adj = _AdjointStore()
    norm_grads = {}  # layer index -> accumulated d(loss)/d(|W|^2)

    for entry in reversed(tape.entries):
        d = entry.data
        if entry.kind == "loss":
            probs, labels = d["probs"], d["labels"]
            g_mean = (probs - _one_hot(labels, probs.shape[1]))
            g_mean *= loss_grad / len(labels)
            adj.add(d["mean"], g_mean)

        elif entry.kind == "sqloss":
            adj.add(d["mean"], loss_grad * d["residual"])

        elif entry.kind == "seed":
            adj.add(d["ref"], loss_grad * d["g"])

        elif entry.kind == "mean":
            g_mean = adj.pop(d["mean"], d["mean"].shape)
            share = g_mean / len(d["logits_seq"])
            for lg in d["logits_seq"]:
                adj.add(lg, share)

        elif entry.kind == "readout":
            readout, x = d["readout"], d["x"]
            g_logits = adj.pop(d["logits"], d["logits"].shape)
            if readout.bias is not None:
                grads.add(readout.bias, g_logits.sum(axis=0))
            w = readout.weight.value
            if isinstance(x, SparseTensor2D):
                if x.n_sites:
                    from .spiking import _flat_indices
                    flat = _flat_indices(x)
                    b_rep = np.repeat(x.coords[:, 0], x.channels)
                    glr = g_logits[b_rep]                      # (N*C, classes)
                    wcols = w[:, flat.ravel()].T               # (N*C, classes)
                    g_vals = (glr * wcols).sum(axis=1).reshape(x.values.shape)
                    adj.add(x, g_vals)
                    g_w = np.zeros_like(w.T)                   # (features, classes)
                    np.add.at(g_w, flat.ravel(),
                              x.values.reshape(-1, 1) * glr)
                    grads.add(readout.weight, g_w.T)
            else:
                flat_x = x.reshape(x.shape[0], -1)
                grads.add(readout.weight, g_logits.T @ flat_x)
                adj.add(x, (g_logits @ w).reshape(x.shape))

        elif entry.kind == "dropout":
            x, out, mask, p = d["x"], d["out"], d["mask"], d["p"]
            scale = 1.0 / (1.0 - p)
            if isinstance(x, SparseTensor2D):
                g_out = adj.pop(out, out.values.shape)
                adj.add(x, g_out * mask * scale)
            else:
                g_out = adj.pop(out, out.shape)
                adj.add(x, g_out * mask * scale)

        elif entry.kind == "pool":
            x, out, winners = d["x"], d["out"], d["winners"]
            if isinstance(x, SparseTensor2D):
                g_out = adj.pop(out, out.values.shape)
                g_in = np.zeros_like(x.values)
                np.add.at(g_in, (winners, np.arange(x.channels)), g_out)
                adj.add(x, g_in)
            else:
                g_out = adj.pop(out, out.shape)
                h_in, w_in = d["in_hw"]
                adj.add(x, dense_max_pool2d_backward(g_out, winners, h_in, w_in))

        elif entry.kind == "lif":
            layer = d["layer"]
            beta, b, w2e, alpha = d["beta"], d["b"], d["w2e"], d["alpha"]
            thr = b * w2e
            v_prev, v_new = d["v_prev"], d["v_new"]
            s_prev, s_new = d["s_prev"], d["s_new"]
            g_s = adj.pop(s_new, s_new.shape)
            sp = d["s_new_sparse"]
            if sp is not None and sp.n_sites:
                rows = adj.pop(sp, sp.values.shape)
                # spike coordinates are unique sites, so += cannot collide
                g_s[sp.coords[:, 0], :, sp.coords[:, 2], sp.coords[:, 1]] += rows
            u = v_new / w2e - b
            sur = surrogate_grad(u, alpha)
            g_u = g_s * sur
            g_v = g_u / w2e + adj.pop(v_new, v_new.shape)

            kind, x, out_c, out_v = d["conv_ctx"]
            if kind == "sparse":
                i_dense = np.zeros(v_new.shape)
                if len(out_c):
                    i_dense[out_c[:, 0], :, out_c[:, 2], out_c[:, 1]] = out_v
            else:
                i_dense = out_v
            grads.add(layer.beta, np.sum((v_prev - thr * s_prev - i_dense) * g_v))
            reset_flow = np.sum(s_prev * g_v) * beta
            grads.add(layer.b, -np.sum(g_u) - w2e * reset_flow)
            if not layer.detach_norm:
                g_w2 = -np.sum(g_u * v_new) / (w2e * w2e) - b * reset_flow
                prev = norm_grads.get(layer.index)
                norm_grads[layer.index] = ((prev[0] if prev else 0.0) + g_w2, layer)
            g_i = (1.0 - beta) * g_v
            if kind == "sparse":
                if len(out_c):
                    adj.add(out_v, g_i[out_c[:, 0], :, out_c[:, 2], out_c[:, 1]])
            else:
                adj.add(out_v, g_i)
            cut = truncate > 0 and d["t"] % truncate == 0
            if not cut:
                adj.add(v_prev, beta * g_v)
                adj.add(s_prev, (-thr * beta) * g_v)

        elif entry.kind == "conv":
            layer, x = d["layer"], d["x"]
            if d["sparse"]:
                out_c, out_v = d["out_c"], d["out_v"]
                g_out = adj.pop(out_v, out_v.shape)
                g_w, g_in = _conv_sites_grads(x, layer.kernel, out_c, g_out,
                                              need_input_grad=d["x_needs_grad"])
                grads.add(layer.weight, g_w)
                if d["x_needs_grad"] and g_in is not None:
                    adj.add(x, g_in)
            else:
                out_dense = d["out_v"]
                g_out = adj.pop(out_dense, out_dense.shape)
                xd = densify(x) if isinstance(x, SparseTensor2D) else x
                g_x, g_w = dense_conv2d_grads(g_out, xd, layer.kernel.weights,
                                              layer.kernel.stride,
                                              need_input_grad=d["x_needs_grad"])
                grads.add(layer.weight, g_w)
                if d["x_needs_grad"]:
                    if isinstance(x, SparseTensor2D):
                        adj.add(x, g_x[x.coords[:, 0], :, x.coords[:, 2],
                                       x.coords[:, 1]])
                    else:
                        adj.add(x, g_x)

    # route the accumulated norm adjoints into the weights: d|W|^2/dW = 2W
    for g_w2, layer in norm_grads.values():
        grads.add(layer.weight, 2.0 * g_w2 * layer.kernel.weights)
    return grads


def soft_forward_mode(model, enabled: bool):
    """Replace the spike step by its sigmoid surrogate in the forward pass.

    With it on, activations are real-valued, sparse execution is bypassed,
    and the network is differentiable, so finite differences are meaningful.
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
            model.refresh_norms()
            return loss_value()

        numeric = central_difference(at, orig, h)
        p.value.flat[i] = orig
        model.refresh_norms()
        analytic = grads.get(p).flat[i]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
