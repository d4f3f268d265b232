"""Training loop, RAdam optimizer, schedules, and the evaluation suites.

The recipe: per batch, reset layer states, run the timestep-wise forward,
take softmax cross-entropy on the mean of the per-timestep logits, backprop
through the full unrolling, clip the global gradient norm, apply an RAdam
step with decoupled weight decay, then project the leak into [0, 1] and the
threshold into [0, inf).  The learning rate is scheduled per epoch, either
stepped (``lr0 * factor^(epoch // every)``) or cosine-annealed with warm
restarts.

Evaluation suites: plain accuracy, a per-layer spike/sparsity audit,
anytime-inference curves (accuracy as a function of how many timesteps the
network is given), and the strided-convolution versus max-pooling study.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .autograd import GradientTape, ParamGrads, backward, softmax_xent
from .spiking import (
    SpikingNet,
    build_model,
    parse_architecture,
    run_timesteps,
    save_checkpoint,
)

__all__ = [
    "TrainConfig",
    "DESK_CONFIG",
    "OptimizerState",
    "SparsityAudit",
    "loss_mean_logits",
    "radam_step",
    "schedule_lr",
    "project_params",
    "clip_grad_norm",
    "build_model",
    "init_model",
    "train",
    "evaluate",
    "sparsity_audit",
    "anytime_eval",
    "stride_vs_pool_study",
    "history_to_csv",
]


@dataclass
class TrainConfig:
    """Training hyperparameters and their defaults."""

    arch: str = "4sc5-8sc5-8sc3-16sc3-11"
    in_height: int = 128
    in_width: int = 128
    t_train: int = 150
    dt_us: int = 10_000
    lr0: float = 5e-3
    weight_decay: float = 1e-5
    batch_size: int = 16
    schedule: str = "step"              # step | cosine
    step_factor: float = 0.7
    step_every: int = 2
    cosine_period: int = 30
    grad_clip_norm: float = 5.0
    alpha: float = 3.0
    beta_init: float = 0.7
    b_init: float = 0.3
    dropout_p: float = 0.5
    seed: int = 0
    max_epochs: int = 30
    variant: str = "stride"             # stride | pool
    readout_bias: bool = True
    detach_norm: bool = False
    truncate_bptt: int = 0
    eval_batch: int = 32

    def __post_init__(self):
        if self.schedule not in ("step", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.variant not in ("stride", "pool"):
            raise ValueError(f"unknown variant {self.variant!r}")
        for name in ("in_height", "in_width", "t_train", "dt_us", "batch_size",
                     "max_epochs", "step_every", "cosine_period",
                     "grad_clip_norm", "alpha", "step_factor", "eval_batch"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("lr0", "weight_decay", "seed"):  # lr0 = 0: a frozen run
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        # grad_clip_norm may be inf: it then never clips
        for name in ("lr0", "weight_decay", "step_factor", "alpha", "b_init"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0 <= self.beta_init <= 1:
            raise ValueError(f"beta_init must be in [0, 1], got {self.beta_init!r}")
        if not self.b_init >= 0:
            raise ValueError(f"b_init must be >= 0, got {self.b_init!r}")
        if self.truncate_bptt < 0:
            raise ValueError("truncate_bptt must be >= 0 (0: full BPTT)")
        if not 0 <= self.dropout_p < 1:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p!r}")
        parse_architecture(self.arch)


# the desk recipe: the acceptance gate's run, the CLI's defaults, the demos' base
DESK_CONFIG = TrainConfig(arch="2sc5-4sc3-4", in_height=64, in_width=64,
                          t_train=20, max_epochs=20, dropout_p=0.0, b_init=0.15)


def loss_mean_logits(per_timestep_logits, label) -> float:
    """Softmax cross-entropy of the mean of the per-timestep logits."""
    logits = np.asarray(per_timestep_logits, dtype=np.float64)
    loss, _ = softmax_xent(logits.mean(axis=0), [int(label)])
    return loss


# ---------------------------------------------------------------------------
# RAdam (rectified Adam) with decoupled weight decay: moment decay rates and
# denominator guard as in Liu et al., ICLR 2020

RADAM_BETA1, RADAM_BETA2, RADAM_EPS = 0.9, 0.999, 1e-8


class OptimizerState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self, params):
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.value) for p in params}
        self.v = {p.name: np.zeros_like(p.value) for p in params}


def radam_step(params, grads, opt_state: OptimizerState, lr, weight_decay=0.0):
    """One RAdam update over all parameters, in place.

    Moments use decay rates (beta1, beta2); the adaptive step is rectified by
    r_t and taken only while the variance estimate is tractable (rho_t > 4);
    the first steps fall back to bias-corrected momentum.  Weight decay is
    decoupled: parameters shrink by (1 - lr * wd) before the update.
    """
    if isinstance(grads, ParamGrads):
        grads = grads.to_list(params)
    b1, b2, eps = RADAM_BETA1, RADAM_BETA2, RADAM_EPS
    opt_state.step_count += 1
    t = opt_state.step_count
    b1t, b2t = b1 ** t, b2 ** t
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    rho = rho_inf - 2.0 * t * b2t / (1.0 - b2t)
    rectified = rho > 4.0
    if rectified:
        r = math.sqrt(((rho - 4.0) * (rho - 2.0) * rho_inf)
                      / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho))
    for p, g in zip(params, grads):
        m = opt_state.m[p.name]
        v = opt_state.v[p.name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        if weight_decay:
            p.value *= 1.0 - lr * weight_decay
        m_hat = m / (1.0 - b1t)
        if rectified:
            p.value -= lr * r * m_hat * math.sqrt(1.0 - b2t) / (np.sqrt(v) + eps)
        else:
            p.value -= lr * m_hat
    return params, opt_state


def schedule_lr(config: TrainConfig, epoch: int) -> float:
    """Learning rate for an epoch (0-based)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if config.schedule == "step":
        return config.lr0 * config.step_factor ** (epoch // config.step_every)
    phase = (epoch % config.cosine_period) / config.cosine_period
    return config.lr0 / 2.0 * (1.0 + math.cos(math.pi * phase))


def project_params(model: SpikingNet):
    """Clamp each layer's leak into [0, 1] and threshold into [0, inf)."""
    for layer in model.layers:
        layer.beta.value[...] = np.clip(layer.beta.value, 0.0, 1.0)
        layer.b.value[...] = np.maximum(layer.b.value, 0.0)
    return model


def clip_grad_norm(grads, max_norm=5.0) -> float:
    """Clip the gradients' global L2 norm to ``max_norm``; return the unclipped norm."""
    if isinstance(grads, ParamGrads):
        arrays = list(grads._grads.values())
    else:
        arrays = list(grads)
    total = math.sqrt(sum(float(np.sum(g * g)) for g in arrays))
    if total > max_norm and 0.0 < total < math.inf:   # inf: left for train() to report
        scale = max_norm / total
        for g in arrays:
            g *= scale
    return total


# ---------------------------------------------------------------------------
# model construction

def init_model(config: TrainConfig, rng=None) -> SpikingNet:
    """Model per the config: trainable leak/threshold start at the configured
    initial values; weight draws are deterministic for a given seed."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    model = build_model(config.arch, (config.in_height, config.in_width),
                        variant=config.variant, readout_bias=config.readout_bias,
                        alpha=config.alpha, dropout_p=config.dropout_p, rng=rng,
                        beta_init=config.beta_init, b_init=config.b_init)
    model.detach_norm = config.detach_norm
    return model


# ---------------------------------------------------------------------------
# the epoch loop

def _batches(n, batch_size, order):
    for lo in range(0, n, batch_size):
        yield order[lo:lo + batch_size]


def train(config: TrainConfig, dataset, checkpoint_path=None, log=None):
    """Train on ``dataset = (train_pairs, test_pairs)``.

    Returns ``(best_model, history)``: the checkpointed model from the epoch
    with the best test accuracy, and one history row per epoch with keys
    epoch, lr, train_loss, train_acc, test_acc, epoch_seconds, spikes.
    Raises ``FloatingPointError`` naming the epoch and batch as soon as a
    batch's loss or global gradient norm is not finite, or its update
    leaves a parameter that is not, in the checkpoint's float32.
    """
    train_pairs, test_pairs = dataset
    if len(train_pairs) == 0:
        raise ValueError("empty training set")
    root = np.random.SeedSequence(config.seed)
    init_ss, shuffle_ss, dropout_ss = root.spawn(3)
    model = init_model(config, np.random.default_rng(init_ss))
    params = model.parameters()
    opt = OptimizerState(params)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dropout_rng = np.random.default_rng(dropout_ss)

    history = []
    best_acc, best_model = -1.0, model   # epoch 0 replaces it: accuracy >= 0
    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        lr = schedule_lr(config, epoch)
        order = shuffle_rng.permutation(len(train_pairs))
        total_loss, correct, spikes = 0.0, 0, 0
        for bi, idx in enumerate(_batches(len(train_pairs), config.batch_size,
                                          order)):
            pairs = [train_pairs[i] for i in idx]  # one load per lazy pair
            grids = [g for g, _ in pairs]
            labels = np.array([l for _, l in pairs])
            tape = GradientTape()
            model.reset_state(len(grids))
            _, mean, counts = run_timesteps(model, grids, config.t_train,
                                            training=True, rng=dropout_rng,
                                            recorder=tape)
            loss, probs = softmax_xent(mean, labels)
            tape.record_loss(probs, labels, mean)
            grads = backward(tape, truncate=config.truncate_bptt)
            norm = clip_grad_norm(grads, config.grad_clip_norm)
            if not (math.isfinite(loss) and math.isfinite(norm)):
                raise FloatingPointError(
                    f"epoch {epoch}, batch {bi}: non-finite training loss "
                    f"{loss!r} or gradient norm {norm!r}")
            radam_step(params, grads, opt, lr, config.weight_decay)
            project_params(model)
            # checkpoints hold float32: beyond its range a value saves as inf
            bad = [p.name for p in params
                   if not (np.abs(p.value) <= np.finfo(np.float32).max).all()]
            if bad:
                raise FloatingPointError(f"epoch {epoch}, batch {bi}: the update "
                                         f"left {bad[0]} non-finite in float32")
            total_loss += loss * len(grids)
            correct += int((np.argmax(mean, axis=1) == labels).sum())
            spikes += int(counts.sum())
        train_loss = total_loss / len(train_pairs)
        train_acc = correct / len(train_pairs)
        test_acc = evaluate(model, test_pairs, config.t_train,
                            batch_size=config.eval_batch)
        row = {"epoch": epoch, "lr": lr, "train_loss": train_loss,
               "train_acc": train_acc, "test_acc": test_acc,
               "epoch_seconds": time.perf_counter() - t0, "spikes": spikes}
        history.append(row)
        if log:
            log(f"epoch {epoch:3d}  lr {lr:.2e}  loss {train_loss:.4f}  "
                f"train {train_acc:.3f}  test {test_acc:.3f}")
        if test_acc > best_acc:
            best_acc = test_acc
            best_model = model.clone()
            if checkpoint_path is not None:
                save_checkpoint(best_model, checkpoint_path)
    return best_model, history


def _eval_pass(model: SpikingNet, pairs, t_eval, batch_size):
    """One untaped pass over ``pairs`` in batches, states reset per batch.

    Returns ``(correct, totals)``: the number of samples whose argmax of
    mean logits matches the label, and the per-layer spike totals.
    """
    batch_size = max(1, batch_size or 1)
    correct = 0
    totals = np.zeros(len(model.layers), dtype=np.float64)
    for lo in range(0, len(pairs), batch_size):
        chunk = [pairs[i] for i in range(lo, min(lo + batch_size, len(pairs)))]
        grids = [g for g, _ in chunk]
        labels = np.array([l for _, l in chunk])
        model.reset_state(len(grids))
        _, mean, counts = run_timesteps(model, grids, t_eval)
        correct += int((np.argmax(mean, axis=1) == labels).sum())
        totals += counts
    return correct, totals


def evaluate(model: SpikingNet, pairs, t_eval, batch_size=32) -> float:
    """Fraction of samples whose argmax of mean logits matches the label.

    States are reset per sample (samples in one batch never interact) and
    dropout is inactive.
    """
    correct, _ = _eval_pass(model, pairs, t_eval, batch_size)
    return correct / max(len(pairs), 1)


# ---------------------------------------------------------------------------
# evaluation suites

@dataclass
class SparsityAudit:
    """Per-layer mean nonzero activations per sample over ``t_eval`` steps."""

    layers: list      # (name, mean_count, percent)
    total: float
    t_eval: int

    def to_table(self) -> str:
        out = io.StringIO()
        out.write(f"{'layer':<8}{'spikes/sample':>16}{'density':>10}\n")
        for name, count, pct in self.layers:
            out.write(f"{name:<8}{count:>16.1f}{100 * pct:>9.2f}%\n")
        out.write(f"{'total':<8}{self.total:>16.1f}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        lines = ["layer,mean_spikes,percent"]
        for name, count, pct in self.layers:
            lines.append(f"{name},{count!r},{pct!r}")
        lines.append(f"total,{self.total!r},")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "t_eval": self.t_eval,
            "layers": [{"layer": n, "mean_spikes": c, "percent": p}
                       for n, c, p in self.layers],
            "total_mean_spikes": self.total,
        }, indent=2)


def sparsity_audit(model: SpikingNet, pairs, t_eval, batch_size=32) -> SparsityAudit:
    """Count nonzero activations (spikes) emitted by each layer.

    Counts are neuron firings, i.e. taken before any pooling stage; the
    percentage divides by the layer's neuron-grid size times ``t_eval``.
    """
    _, totals = _eval_pass(model, pairs, t_eval, batch_size)
    means = totals / max(len(pairs), 1)
    rows = []
    h, w = model.in_height, model.in_width
    for i, layer in enumerate(model.layers):
        c, sh, sw = layer.state_geometry(h, w)
        dense = t_eval * c * sh * sw
        rows.append((f"conv{i + 1}", float(means[i]), float(means[i]) / dense))
        _, h, w = layer.out_geometry(h, w)
    return SparsityAudit(rows, float(means.sum()), t_eval)


def anytime_eval(model: SpikingNet, pairs, t_values, batch_size=32):
    """Accuracy at several evaluation horizons, without retraining.

    Grids must hold at least ``max(t_values)`` bins; rebuild them from the
    original streams when a longer horizon is wanted.  Every horizon is
    checked before the first is evaluated.
    """
    _check_horizons(pairs, t_values)
    return [(int(t), evaluate(model, pairs, int(t), batch_size)) for t in t_values]


def _check_horizons(pairs, t_values):
    """Raise ValueError for a horizon outside 1..(bin count of the grids)."""
    bins = min((grid.n_timesteps for grid, _ in pairs), default=math.inf)
    for t in t_values:
        if not 1 <= t <= bins:
            raise ValueError(f"evaluation horizon {t} is not in 1..{bins}")


def stride_vs_pool_study(config: TrainConfig, dataset, log=None):
    """Train strided and pooled variants under identical seeds and budgets.

    Returns one report row per variant: the best test accuracy training
    recorded (that of the returned model) and the sparsity audit's total
    spike count per sample of that model on the test split.
    """
    rows = []
    for variant in ("stride", "pool"):
        cfg = replace(config, variant=variant)
        model, history = train(cfg, dataset, log=log)
        acc = max(h["test_acc"] for h in history)
        total = sparsity_audit(model, dataset[1], cfg.t_train, cfg.eval_batch).total
        rows.append({"variant": variant, "accuracy": acc,
                     "total_spikes": total, "epochs": len(history)})
        if log:
            log(f"{variant}: accuracy {acc:.4f}, "
                f"total spikes/sample {total:.1f}")
    return rows


def history_to_csv(history) -> str:
    cols = ["epoch", "lr", "train_loss", "train_acc", "test_acc",
            "epoch_seconds", "spikes"]
    lines = [",".join(cols)]
    for row in history:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"
