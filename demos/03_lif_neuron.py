#!/usr/bin/env python3
"""The leaky integrate-and-fire neuron, step by step.

    V[n] = beta * (V[n-1] - b * (|W|^2 + eps) * S[n-1]) + (1 - beta) * I[n]
    S[n] = step(V[n] / (|W|^2 + eps) - b)

The potential leaks by beta each step, integrates the input current, and
fires when the normalized potential reaches the threshold b; firing costs it
the threshold on the next step (soft reset).  While a neuron is silent and
unfed it only decays, so a sparse runtime may skip it and catch up later --
bit-exactly.
"""

import numpy as np

from spikesparse.spiking import (
    EPSILON,
    LIFLayerState,
    LIFParams,
    lazy_decay_advance,
    lif_step,
    surrogate_grad,
)

params = LIFParams(beta=0.7, b=0.3)
wnorm2 = 1.0 - EPSILON  # so the normalizer is exactly 1.0

state = LIFLayerState(1, 1, 1, 1)
drive = [0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]
print("step   input   V[n]    spike")
for n, i in enumerate(drive):
    spikes, _ = lif_step(state, np.full((1, 1, 1, 1), i), params, wnorm2)
    v = float(state.potentials[0, 0, 0, 0])
    print(f"{n:4d}   {i:5.2f}   {v:5.3f}   {'*' if spikes.n_sites else ''}")
print("-> integrates toward the drive, fires at 0.3, reset, then decays\n")

# lazy catch-up: five skipped silent steps equal five explicit ones, bitwise
a = LIFLayerState(1, 1, 1, 1)
a.potentials[:] = 0.25
b = LIFLayerState(1, 1, 1, 1)
b.potentials[:] = 0.25
lazy_decay_advance(a, 5, params)
for _ in range(5):
    lif_step(b, np.zeros((1, 1, 1, 1)), params, wnorm2)
assert np.array_equal(a.potentials, b.potentials)
print(f"lazy decay over 5 steps: V = {float(a.potentials[0,0,0,0]):.6f} "
      "(identical to stepping)\n")

# the surrogate that stands in for the step function's derivative
print("surrogate gradient (alpha = 3):")
for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
    bar = "#" * int(40 * surrogate_grad(x, 3.0))
    print(f"  x={x:+.0f}  {surrogate_grad(x, 3.0):.4f}  {bar}")
print("even, peaked at the threshold, zero far away: learning focuses on"
      " neurons near firing")
