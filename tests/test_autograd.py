import math
import zlib
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_bptt, make_model
from spikesparse import autograd
from spikesparse.autograd import (
    GradientTape,
    backward,
    central_difference,
    finite_diff_check,
    soft_forward_mode,
    softmax_xent,
)
from spikesparse import spiking
from spikesparse.event_io import EventStream, build_voxel_grid, synth_dataset
from spikesparse.sparse import SparseTensor2D, _site_keys, densify
from spikesparse.spiking import build_model, run_timesteps


def random_grid(rng, height=4, width=4, t_bins=3, density=0.3):
    n = max(1, int(density * height * width * t_bins))
    stream = EventStream(np.sort(rng.integers(0, t_bins * 100, n)),
                         rng.integers(0, width, n), rng.integers(0, height, n),
                         rng.integers(0, 2, n), width, height)
    return build_voxel_grid(stream, 100, t_bins)


def forward_with_tape(model, grid, label, t_eval=None):
    t_eval = t_eval or grid.n_timesteps
    tape = GradientTape()
    model.reset_state(1)
    _, mean, _ = run_timesteps(model, [grid], t_eval, recorder=tape)
    loss, probs = softmax_xent(mean, [label])
    tape.record_loss(probs, np.array([label]), mean)
    return tape, loss, mean


class TestSoftmaxXent:
    def test_uniform_logits_is_log_classes(self):
        loss, _ = softmax_xent(np.zeros(11), [4])
        assert abs(loss - np.log(11)) < 1e-12

    def test_dominant_correct_class_drives_loss_to_zero(self):
        logits = np.zeros(5)
        logits[2] = 1e9
        loss, _ = softmax_xent(logits, [2])
        assert loss == 0.0

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal(7)
        label = 3
        # oracle: direct softmax / log computation
        p = np.exp(logits) / np.exp(logits).sum()
        want = -np.log(p[label])
        got, probs = softmax_xent(logits, [label])
        assert abs(got - want) < 1e-12
        np.testing.assert_allclose(probs[0], p, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_xent(np.zeros(3), [3])


class TestCentralDifference:
    def test_exact_on_quadratics(self):
        f = lambda x: 3.0 * x * x + 2.0 * x - 1.0
        for x in [-2.0, 0.0, 0.5, 10.0]:
            got = central_difference(f, x, h=1e-4)
            assert abs(got - (6.0 * x + 2.0)) / max(abs(6 * x + 2), 1.0) < 1e-8


class TestClosedFormReadout:
    def test_squared_loss_least_squares_gradients(self):
        # freeze the conv stack's contribution by feeding one timestep and
        # reading the spikes it produces; the readout is then a plain linear
        # map, and the softmax cross-entropy's logit gradient is the residual
        # probs - onehot, as 0.5*||Wf + b - y||^2's is Wf + b - y: the
        # weights get outer(residual, f) and the bias the residual.
        rng = np.random.default_rng(1)
        model = make_model(rng, (4, 4), [(2, "sparse", 3)], 3, b=0.01,
                           weight_scale=1.0)
        grid = random_grid(rng, 4, 4, t_bins=1, density=0.5)
        tape, _, mean = forward_with_tape(model, grid, label=2)
        grads = backward(tape)
        _, probs = softmax_xent(mean, [2])
        residual = probs[0] - np.eye(3)[2]
        # the flattened feature vector the readout saw
        feats = densify(model.layers[0].state.prev_spikes)[0].reshape(-1)
        assert feats.any()
        np.testing.assert_allclose(grads.get(model.readout.weight),
                                   np.outer(residual, feats), atol=1e-12)
        np.testing.assert_allclose(grads.get(model.readout.bias), residual,
                                   atol=1e-12)

    def test_alpha_zero_blocks_everything_upstream_of_spikes(self):
        rng = np.random.default_rng(2)
        model = make_model(rng, (6, 6), [(2, "sparse", 3), (2, "sparse", 3)], 3,
                           alpha=0.0, b=0.01, weight_scale=1.0)
        grid = random_grid(rng, 6, 6, t_bins=3, density=0.4)
        tape, loss, _ = forward_with_tape(model, grid, label=1)
        grads = backward(tape)
        for layer in model.layers:
            assert not grads.get(layer.weight).any()
            assert float(grads.get(layer.beta)) == 0.0
            assert float(grads.get(layer.b)) == 0.0
        # the readout sits downstream of the spikes and still learns
        assert grads.get(model.readout.weight).any()


class TestFiniteDifferences:
    @pytest.mark.parametrize("mode,variant", [("sparse", "stride"),
                                              ("dense", "stride"),
                                              ("sparse", "pool"),
                                              ("dense", "pool")])
    def test_toy_models_match_central_differences(self, mode, variant):
        rng = np.random.default_rng(3)
        model = make_model(rng, (4, 4), [(2, mode, 3), (2, mode, 3)], 3,
                           variant=variant, weight_scale=0.9, b=0.2)
        soft_forward_mode(model, True)
        grid = random_grid(rng, 4, 4, t_bins=3, density=0.4)
        err = finite_diff_check(model, (grid, 1), max_params=40, rng=rng)
        assert err < 1e-4

    def test_matches_central_differences_after_setting_alpha(self):
        # the soft forward's slope and the backward's surrogate read one alpha
        rng = np.random.default_rng(3)
        model = make_model(rng, (4, 4), [(2, "sparse", 3), (2, "sparse", 3)], 3,
                           weight_scale=0.9, b=0.2)
        model.alpha = 6.0
        assert [layer.alpha for layer in model.layers] == [6.0, 6.0]
        soft_forward_mode(model, True)
        grid = random_grid(rng, 4, 4, t_bins=3, density=0.4)
        assert finite_diff_check(model, (grid, 1), max_params=40, rng=rng) < 1e-4

    def test_norm_participates_in_gradient_by_default(self):
        rng = np.random.default_rng(4)
        model = make_model(rng, (4, 4), [(2, "sparse", 3)], 3, weight_scale=0.9)
        grid = random_grid(rng, 4, 4, t_bins=2, density=0.4)
        soft_forward_mode(model, True)
        tape, _, _ = forward_with_tape(model, grid, 0)
        g_attached = backward(tape).get(model.layers[0].weight)
        model.detach_norm = True
        tape, _, _ = forward_with_tape(model, grid, 0)
        g_detached = backward(tape).get(model.layers[0].weight)
        assert np.abs(g_attached - g_detached).max() > 1e-12

    def test_refuses_without_soft_mode_or_with_dropout(self):
        rng = np.random.default_rng(5)
        model = make_model(rng, (4, 4), [(2, "sparse", 3)], 3)
        grid = random_grid(rng, 4, 4, t_bins=2)
        with pytest.raises(ValueError):
            finite_diff_check(model, (grid, 0))
        soft_forward_mode(model, True)
        model.dropout_p = 0.5
        with pytest.raises(ValueError):
            finite_diff_check(model, (grid, 0))

    def test_soft_mode_toggle_restores_hard_forward(self):
        rng = np.random.default_rng(6)
        model = make_model(rng, (6, 6), [(2, "sparse", 3)], 3, b=0.05)
        grid = random_grid(rng, 6, 6, t_bins=3)
        model.reset_state(1)
        hard1, _, _ = run_timesteps(model, [grid], 3)
        soft_forward_mode(model, True)
        model.reset_state(1)
        soft, _, _ = run_timesteps(model, [grid], 3)
        soft_forward_mode(model, False)
        model.reset_state(1)
        hard2, _, _ = run_timesteps(model, [grid], 3)
        assert np.array_equal(hard1, hard2)
        assert not np.array_equal(soft, hard1)

    def test_soft_approaches_hard_as_alpha_grows(self):
        rng = np.random.default_rng(7)
        grid = random_grid(rng, 6, 6, t_bins=3, density=0.4)
        gaps = []
        for alpha in [3.0, 30.0, 300.0]:
            model = make_model(rng.__class__(np.random.PCG64(11)), (6, 6),
                               [(2, "sparse", 3)], 3, alpha=alpha, b=0.05,
                               weight_scale=1.0)
            model.reset_state(1)
            hard, _, _ = run_timesteps(model, [grid], 3)
            soft_forward_mode(model, True)
            model.reset_state(1)
            soft, _, _ = run_timesteps(model, [grid], 3)
            gaps.append(np.abs(soft - hard).max())
        assert gaps[2] < gaps[1] < gaps[0]

    def test_soft_forward_is_continuous_in_weights(self):
        rng = np.random.default_rng(8)
        model = make_model(rng, (4, 4), [(2, "sparse", 3)], 3, weight_scale=0.9)
        soft_forward_mode(model, True)
        grid = random_grid(rng, 4, 4, t_bins=2, density=0.4)

        def out():
            model.reset_state(1)
            _, mean, _ = run_timesteps(model, [grid], 2)
            return mean.copy()

        base = out()
        w = model.layers[0].weight.value
        deltas = []
        for eps in [1e-3, 1e-4, 1e-5]:
            w.flat[0] += eps
            deltas.append(np.abs(out() - base).max())
            w.flat[0] -= eps
        # response shrinks proportionally with the perturbation: no jumps
        assert deltas[1] < deltas[0] * 0.2 and deltas[2] < deltas[1] * 0.2


class TestTapeInvariants:
    @pytest.mark.parametrize("steps", [0, 2])
    def test_tape_without_a_loss_is_refused(self, steps):
        tape = GradientTape()
        if steps:
            rng = np.random.default_rng(9)
            model = make_model(rng, (6, 6), [(2, "sparse", 3)], 4, b=0.05)
            model.reset_state(1)
            run_timesteps(model, [random_grid(rng, 6, 6)], steps, recorder=tape)
        with pytest.raises(RuntimeError, match="^tape has no recorded loss$"):
            backward(tape)

    def test_a_refused_backward_leaves_the_tape_usable(self):
        # backward checks the tape before it marks it used: after a refusal
        # for a missing loss, recording the loss makes the tape usable, with
        # the gradients of a tape that never was refused
        rng = np.random.default_rng(9)
        model = make_model(rng, (6, 6), [(2, "sparse", 3)], 4, b=0.05)
        grid = random_grid(rng, 6, 6)
        grads = []
        for refuse in (True, False):
            tape = GradientTape()
            model.reset_state(1)
            _, mean, _ = run_timesteps(model, [grid], 3, recorder=tape)
            if refuse:
                with pytest.raises(RuntimeError, match="^tape has no recorded loss$"):
                    backward(tape)
                assert not tape.used
            _, probs = softmax_xent(mean, [1])
            tape.record_loss(probs, np.array([1]), mean)
            grads.append(backward(tape).to_list(model.parameters()))
        for a, b in zip(*grads):
            assert np.array_equal(a, b)

    def test_tape_without_a_run_is_refused(self):
        tape = GradientTape()
        tape.record_loss(np.full((1, 2), 0.5), np.array([0]), np.zeros((1, 2)))
        with pytest.raises(RuntimeError, match="^tape has no recorded run$"):
            backward(tape)

    def test_gradient_shapes_match_parameters(self):
        rng = np.random.default_rng(9)
        model = make_model(rng, (6, 6), [(2, "sparse", 3), (3, "sparse", 3)], 4,
                           b=0.05)
        grid = random_grid(rng, 6, 6, t_bins=3, density=0.3)
        tape, _, _ = forward_with_tape(model, grid, 2)
        grads = backward(tape)
        for p in model.parameters():
            assert grads.get(p).shape == p.value.shape

    def test_silent_layer_calls_no_conv_gradient(self):
        # a layer that never spikes has an empty support at every step, and
        # the layer below it a support on which its adjoint is all zero; both
        # have all-zero conv gradients, which backward does not compute
        rng = np.random.default_rng(11)
        model = make_model(rng, (8, 8), [(2, "sparse", 3), (3, "sparse", 3)], 4,
                           b=0.05, weight_scale=1.0)
        model.layers[1].b.value[...] = 1e6
        grid = random_grid(rng, 8, 8, t_bins=4, density=0.3)
        tape, _, _ = forward_with_tape(model, grid, 2)
        handed = [sum(len(e.data["spikes"].keys) for e in tape.entries
                      if e.kind == "layer" and e.data["layer"] is layer)
                  for layer in model.layers]
        assert handed[0] > 0 and handed[1] == 0
        kernels, conv_grads = [], autograd._conv_sites_grads

        def spy(xs, kernel, *args, **kwargs):
            kernels.append(kernel)
            return conv_grads(xs, kernel, *args, **kwargs)

        with mock.patch.object(autograd, "_conv_sites_grads", spy):
            grads = backward(tape)
        assert not kernels
        for layer in model.layers:
            assert not np.any(grads.get(layer.weight))

    @pytest.mark.parametrize("modes, silent, truncate", [
        (("sparse", "sparse"), None, 0), (("sparse", "sparse"), None, 3),
        (("sparse", "sparse"), 1, 0), (("dense", "sparse"), None, 0),
        (("dense", "dense"), None, 0)],
        ids=["sc-sc", "sc-sc-truncate3", "sc-silent1", "c-sc", "c-c"])
    def test_backward_consumes_the_tape(self, modes, silent, truncate):
        # backward drops each entry as it walks it, from the tape and from
        # its layer's replay, and sizes a replay's buffers to the support of
        # the segment it replays: rows that only grow walking back
        rng = np.random.default_rng(15)
        model = make_model(rng, (12, 12), [(2, modes[0], 3), (3, modes[1], 3)],
                           3, variant="pool", dropout_p=0.5, b=0.05,
                           weight_scale=0.8)
        if silent is not None:
            model.layers[silent].b.value[...] = 1e6
        grids = [random_grid(rng, 12, 12, t_bins=23, density=0.2)
                 for _ in range(2)]
        labels = np.array([0, 2])
        model.reset_state(2)
        tape = GradientTape()
        _, mean, _ = run_timesteps(model, grids, 23, training=True,
                                   rng=np.random.default_rng(0), recorder=tape)
        _, probs = softmax_xent(mean, labels)
        tape.record_loss(probs, labels, mean)
        walk = list(tape.entries)
        # a layer's step is its entry's position among that layer's entries
        at = {(li, t): i for li in range(2) for t, i in enumerate(
            i for i, e in enumerate(walk)
            if e.kind == "layer" and e.data["layer"].index == li)}
        steps, rows = [], {}
        replay_step = autograd._LayerReplay.step

        def spy_step(rep, t):
            here = at[rep.layer.index, t]
            # the tape holds exactly the entries before the one walked
            assert len(tape.entries) == here
            assert all(a is b for a, b in zip(tape.entries, walk))
            got = replay_step(rep, t)
            # the replay holds its layer's steps before t only
            assert len(rep.entries) == t
            assert all(a is walk[at[rep.layer.index, s]]
                       for s, a in enumerate(rep.entries))
            n = rep.n[rep.start]
            assert rep.v.shape[1:] == (n, rep.channels)
            assert t - rep.start + 2 <= len(rep.v) <= autograd._SEGMENT + 1
            for buf in (rep.i, rep.s, rep.tmp):
                assert buf.shape == (n + 1, rep.channels)
            for buf in (rep.sur, rep.g_v, rep.g_s):
                assert buf.shape == (n, rep.channels)
            assert rows.setdefault(rep.layer.index, n) <= n
            rows[rep.layer.index] = n
            steps.append(here)
            return got

        live = []
        conv_grads = autograd._conv_sites_grads

        def spy_conv(*args, **kwargs):
            live.append(len(tape.entries))
            return conv_grads(*args, **kwargs)

        with mock.patch.object(autograd._LayerReplay, "step", spy_step), \
                mock.patch.object(autograd, "_conv_sites_grads", spy_conv):
            grads = backward(tape, truncate=truncate)
        assert tape.entries == []
        assert steps == sorted(at.values(), reverse=True)
        assert all(a > b for a, b in zip(live, live[1:]))
        assert bool(live) == bool(rows[1]) == (silent is None)
        model.reset_state(2)
        want = _taped_step(model, grids, labels, 23, truncate=truncate)
        for a, b in zip(want[2:], grads.to_list(model.parameters())):
            assert np.array_equal(a, b)

    def test_deterministic_gradients(self):
        rng = np.random.default_rng(11)
        model = make_model(rng, (6, 6), [(2, "sparse", 3)], 3, b=0.05)
        grid = random_grid(rng, 6, 6, t_bins=3, density=0.3)
        tape1, _, _ = forward_with_tape(model, grid, 0)
        g1 = backward(tape1)
        tape2, _, _ = forward_with_tape(model, grid, 0)
        g2 = backward(tape2)
        for p in model.parameters():
            assert np.array_equal(g1.get(p), g2.get(p))

    def test_backward_twice_is_an_error(self):
        rng = np.random.default_rng(12)
        model = make_model(rng, (4, 4), [(2, "sparse", 3)], 3)
        grid = random_grid(rng, 4, 4, t_bins=2)
        tape, _, _ = forward_with_tape(model, grid, 0)
        backward(tape)
        with pytest.raises(RuntimeError):
            backward(tape)

    def test_truncated_bptt_smoke(self):
        rng = np.random.default_rng(13)
        model = make_model(rng, (4, 4), [(2, "sparse", 3)], 3, b=0.05,
                           weight_scale=1.0)
        soft_forward_mode(model, True)
        grid = random_grid(rng, 4, 4, t_bins=4, density=0.4)
        tape, _, _ = forward_with_tape(model, grid, 0)
        g_full = backward(tape)
        tape2, _, _ = forward_with_tape(model, grid, 0)
        g_trunc = backward(tape2, truncate=2)
        diff = np.abs(g_full.get(model.layers[0].beta)
                      - g_trunc.get(model.layers[0].beta))
        assert diff > 0  # cutting the recurrence changes the leak gradient


def _taped_step(model, grids, labels, t_eval, start=0, truncate=0, seed=0):
    """One training forward (dropout masks from ``seed``) and its backward;
    returns the logits, spike counts and every parameter gradient."""
    tape = GradientTape()
    logits, mean, counts = run_timesteps(
        model, grids, t_eval, start=start, training=True,
        rng=np.random.default_rng(seed), recorder=tape)
    _, probs = softmax_xent(mean, labels)
    tape.record_loss(probs, labels, mean)
    grads = backward(tape, truncate=truncate)
    return [logits, counts] + grads.to_list(model.parameters())


class TestWrappedTensorContract:
    """``SparseTensor2D._canonical`` checks nothing, so every tensor the
    forward and backward wrap through it is held here to its contract: the
    keys it stores are its sites' keys, and its values are ``bool`` for the
    0/1 spikes of a hard run, ``float64`` otherwise."""

    @pytest.mark.parametrize("arch, variant, soft, dropout_p", [
        ("2sc5-4sc3-4", "stride", False, 0.0),
        ("2sc5-4sc3-4", "pool", False, 0.0),
        ("2c5-4c3-4", "pool", False, 0.0),
        ("2sc5-4sc3-4", "stride", True, 0.0),
        ("2sc5-4sc3-4", "stride", False, 0.5),
    ], ids=["desk-stride", "desk-pool", "c-pool", "soft", "dropout"])
    def test_wrapped_tensors_hold_the_contract(self, monkeypatch, arch, variant,
                                               soft, dropout_p):
        wrapped, hard_spikes, real = [], [], []
        wrap, lif_update = SparseTensor2D._canonical.__func__, spiking._lif_update

        def spy_wrap(cls, *args, **kwargs):
            wrapped.append(wrap(cls, *args, **kwargs))
            return wrapped[-1]

        def spy_real(fn):   # the tensors whose values are real: inputs, dropout
            def spy(*args):
                real.append(fn(*args))
                return real[-1]
            return spy

        def spy_lif_update(*args, every_site=False, **kwargs):
            spikes = lif_update(*args, every_site=every_site, **kwargs)
            if not every_site:
                hard_spikes.append(spikes)
            return spikes

        monkeypatch.setattr(SparseTensor2D, "_canonical", classmethod(spy_wrap))
        monkeypatch.setattr(spiking, "_lif_update", spy_lif_update)
        for module, name in ((spiking, "_batch_slice"), (autograd, "_batch_slice"),
                             (spiking, "_dropout_recorded")):
            monkeypatch.setattr(module, name, spy_real(getattr(module, name)))
        train, _ = synth_dataset(4, 1, 64, 64, 8, 10_000, 3)
        grids, labels = [g for g, _ in train], [label for _, label in train]
        model = build_model(arch, (64, 64), variant, dropout_p=dropout_p,
                            rng=np.random.default_rng(1), b_init=0.15)
        soft_forward_mode(model, soft)
        model.reset_state(len(grids))
        tape = GradientTape()
        _, mean, _ = run_timesteps(model, grids, 8, training=dropout_p > 0,
                                   rng=np.random.default_rng(2), recorder=tape)
        _, probs = softmax_xent(mean, labels)
        tape.record_loss(probs, np.array(labels), mean)
        backward(tape)

        assert wrapped and any(x.n_sites for x in wrapped)
        # the inputs have one channel, the dropout's outputs the top's four
        assert real and (dropout_p > 0) == any(x.values.shape[1] > 1 for x in real)
        real = [x.values for x in real]
        for x in wrapped:
            c, v = x.coords, x.values
            assert c.dtype == np.int64 and c.flags.c_contiguous
            assert c.ndim == 2 and c.shape[1] == 3
            keys = x.keys()
            assert keys.dtype == np.int64 and keys.shape == (x.n_sites,)
            assert np.array_equal(keys, _site_keys(c, x.height, x.width))
            assert np.all(np.diff(keys) > 0)
            assert np.all((c >= 0) & (c < [x.batch_size, x.width, x.height]))
            assert v.flags.c_contiguous and v.shape == (x.n_sites, x.channels)
            if x.n_sites:   # an empty tensor's values may be either
                spikes = not soft and not any(np.may_share_memory(v, r) for r in real)
                assert v.dtype == (bool if spikes else np.float64)
            assert all(type(n) is int for n in
                       (x.batch_size, x.height, x.width, x.channels))
        assert bool(hard_spikes) == (not soft and "sc" in arch)
        for spikes in hard_spikes:
            assert any(spikes is x for x in wrapped)
            assert spikes.values.dtype == bool
            assert spikes.values.any(axis=1).all()


class TestSegmentReplay:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
           modes=st.sampled_from([("sparse", "sparse"), ("dense", "dense"),
                                  ("dense", "sparse"), ("sparse", "dense")]),
           variant=st.sampled_from(["stride", "pool"]), soft=st.booleans(),
           truncate=st.sampled_from([0, 1, 2, 3]),
           dropout_p=st.sampled_from([0.0, 0.5]),
           zero_b=st.sampled_from([None, 0, 1]),
           t_eval=st.integers(1, 21), warmup=st.integers(0, 3),
           batch=st.integers(1, 2))
    def test_gradients_equal_full_storage(self, data, seed, modes, variant,
                                          soft, truncate, dropout_p, zero_b,
                                          t_eval, warmup, batch):
        """A segment length of 1 keeps the potentials of every step, so
        nothing is replayed; the default length, a short one and one longer
        than the run must give bit-identical logits, spikes and gradients,
        also for a taped run that continues an un-reset state."""
        rng = np.random.default_rng(seed)
        model = make_model(rng, (8, 8), [(2, modes[0], 3), (3, modes[1], 3)],
                           3, variant=variant, dropout_p=dropout_p, b=0.05,
                           weight_scale=0.8)
        soft_forward_mode(model, soft)
        if zero_b is not None:
            model.layers[zero_b].b.value[...] = 0.0
        grids = [random_grid(rng, 8, 8, t_bins=warmup + t_eval, density=0.3)
                 for _ in range(batch)]
        labels = rng.integers(0, 3, batch)
        short = data.draw(st.integers(2, 5))
        results = []
        for segment in (1, autograd._SEGMENT, short, t_eval + 1):
            with mock.patch.object(autograd, "_SEGMENT", segment):
                model.reset_state(batch)
                if warmup:
                    run_timesteps(model, grids, warmup)
                results.append(_taped_step(model, grids, labels, t_eval,
                                           start=warmup, truncate=truncate,
                                           seed=seed))
        for got in results[1:]:
            for a, b in zip(results[0], got):
                assert np.array_equal(a, b)

    def test_sparse_tape_keeps_no_dense_spikes_and_few_potentials(self):
        rng = np.random.default_rng(31)
        model = make_model(rng, (12, 12), [(2, "sparse", 3), (3, "sparse", 3)],
                           3, variant="pool", dropout_p=0.5, b=0.05,
                           weight_scale=0.8)
        t_eval = 37
        grids = [random_grid(rng, 12, 12, t_bins=t_eval, density=0.2)
                 for _ in range(2)]
        labels = np.array([0, 2])
        tape = GradientTape()
        model.reset_state(2)
        _, mean, counts = run_timesteps(model, grids, t_eval, training=True,
                                        rng=np.random.default_rng(0),
                                        recorder=tape)
        _, probs = softmax_xent(mean, labels)
        tape.record_loss(probs, labels, mean)
        assert np.all(counts > 0)
        # each entry keeps only what backward cannot read from its layer
        # again: no forward output kept to key an adjoint by, no pooled
        # output beside its winners, no copy of the layer's leak, threshold
        # or weight norm, and no copy of a step's network input: layer 0
        # keeps no x, which backward slices from the run's grids again
        assert tape.run == (grids, 0, t_eval) and tape.run[0] is grids
        kept = {"readout": {"readout", "x"}, "dropout": {"mask", "p"},
                "loss": {"probs", "labels"},
                "layer": {"layer", "x", "out_c", "current", "every_site",
                          "v_prev", "s_prev", "spikes", "winners"}}
        for e in tape.entries:
            assert set(e.data) == kept[e.kind], e.kind
            if e.kind == "layer":
                assert e.data["winners"] is not None
                assert (e.data["x"] is None) == (e.data["layer"].index == 0)
        assert {e.kind for e in tape.entries} == set(kept)
        for layer in model.layers:
            entries = [e.data for e in tape.entries
                       if e.kind == "layer" and e.data["layer"] is layer]
            assert len(entries) == t_eval
            potentials = 0
            for d in entries:
                assert isinstance(d["s_prev"], autograd._Kept)
                assert isinstance(d["spikes"], autograd._Kept)
                for key, value in d.items():
                    if (isinstance(value, np.ndarray)
                            and value.shape == layer.state.shape):
                        assert key == "v_prev"
                        potentials += 1
            assert potentials <= math.ceil(t_eval / autograd._SEGMENT)

    def test_a_second_run_on_one_tape_is_refused(self):
        # a tape records one run: a second is refused before any layer steps
        rng = np.random.default_rng(32)
        model = make_model(rng, (8, 8), [(2, "sparse", 3), (3, "sparse", 3)],
                           3, b=0.05, weight_scale=0.8)
        grids = [random_grid(rng, 8, 8, t_bins=20, density=0.3)]
        tape = GradientTape()
        model.reset_state(1)
        run_timesteps(model, grids, 10, recorder=tape)
        entries = list(tape.entries)

        def states():
            return [(l.state.potentials.copy(), l.state.prev_spikes,
                     l.state.prev_spikes.coords.copy(),
                     l.state.prev_spikes.values.copy(),
                     l.state.last_touch.copy(), l.state.step)
                    for l in model.layers]

        before = states()
        with pytest.raises(RuntimeError, match="already records a run"):
            run_timesteps(model, grids, 10, start=10, recorder=tape)
        for was, now in zip(before, states()):
            assert now[1] is was[1] and now[5] == was[5]
            for a, b in zip(was[:1] + was[2:5], now[:1] + now[2:5]):
                assert np.array_equal(a, b)
        assert tape.entries == entries and tape.run == (grids, 0, 10)


def _tape_bytes(entries):
    """Bytes of the distinct arrays that ``entries`` hold, counted as
    ``perfbench/spans.tape_bytes`` counts them (views count their base once)."""
    seen = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            seen[id(obj)] = obj.nbytes
        elif isinstance(obj, SparseTensor2D):
            visit(obj.coords)
            visit(obj.values)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)

    for entry in entries:
        for value in entry.data.values():
            visit(value)
    return sum(seen.values())


def _reachable(tape):
    """Every array and sparse tensor the tape holds, through its attributes,
    entries, dicts, lists, tuples and records, but not through the model's
    layers and readout, which the entries name."""
    found, stack = [], [vars(tape)]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (np.ndarray, SparseTensor2D)):
            found.append(obj)
            if isinstance(obj, SparseTensor2D):
                stack += [obj.coords, obj.values]
        elif isinstance(obj, dict):
            stack += list(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack += list(obj)
        elif isinstance(obj, autograd._Entry):
            stack.append(obj.data)
    return found


class TestCompactTape:
    """The tape keeps each sparse tensor of a run as the forward made it: a
    record of the tensor's own flat site keys and values, ``bool`` for a
    hard step's spikes, with no copy."""

    def taped(self, modes, variant, dropout_p, monkeypatch, batch=2, size=12,
              t_eval=20):
        """A taped hard run with its loss; the forward's spike tensors and
        the tensors its layers handed on."""
        spikes, handed = [], []
        lif_update, forward = spiking._lif_update, spiking._layer_forward

        def spy_lif_update(*args, **kwargs):
            spikes.append(lif_update(*args, **kwargs))
            return spikes[-1]

        def spy_forward(*args):
            out = forward(*args)
            handed.append(out[0])
            return out

        monkeypatch.setattr(spiking, "_lif_update", spy_lif_update)
        monkeypatch.setattr(spiking, "_layer_forward", spy_forward)
        rng = np.random.default_rng(41)
        model = make_model(rng, (size, size), [(2, modes[0], 3), (3, modes[1], 3)],
                           3, variant=variant, dropout_p=dropout_p, b=0.05,
                           weight_scale=0.8)
        grids = [random_grid(rng, size, size, t_bins=t_eval, density=0.2)
                 for _ in range(batch)]
        labels = np.arange(batch) % 3
        model.reset_state(batch)
        tape = GradientTape()
        _, mean, counts = run_timesteps(model, grids, t_eval, training=True,
                                        rng=np.random.default_rng(0),
                                        recorder=tape)
        _, probs = softmax_xent(mean, labels)
        tape.record_loss(probs, labels, mean)
        assert np.all(counts > 0)
        return tape, spikes, handed

    _CASES = pytest.mark.parametrize("modes, variant, dropout_p", [
        (("sparse", "sparse"), "stride", 0.0), (("sparse", "sparse"), "pool", 0.5),
        (("dense", "sparse"), "stride", 0.5), (("sparse", "dense"), "pool", 0.0)],
        ids=["sc-sc", "sc-sc-pool-dropout", "c-sc-dropout", "sc-c-pool"])

    @staticmethod
    def same(a, b):
        """Whether records ``a`` and ``b`` hold the very same arrays."""
        return a.keys is b.keys and a.values is b.values

    @_CASES
    def test_hard_records_hold_int64_keys_and_bool_values(self, monkeypatch, modes,
                                                         variant, dropout_p):
        tape, _, _ = self.taped(modes, variant, dropout_p, monkeypatch)
        layers = [[e.data for e in tape.entries
                   if e.kind == "layer" and e.data["layer"].index == li]
                  for li in range(2)]
        readouts = [e.data["x"] for e in tape.entries if e.kind == "readout"]
        for li, entries in enumerate(layers):
            for t, d in enumerate(entries):
                for kept in (d["spikes"], d["s_prev"]) + ((d["x"],) if li else ()):
                    assert isinstance(kept, autograd._Kept)
                    assert kept.keys.dtype == np.int64 and kept.keys.ndim == 1
                    assert kept.values.shape == (len(kept.keys), kept.values.shape[1])
                assert d["out_c"].dtype == np.int64 and d["out_c"].ndim == 1
                assert np.all(np.diff(d["out_c"]) > 0)
                assert d["spikes"].values.dtype == bool
                # one tensor's arrays: step t's s_prev is step t-1's spikes;
                # only step 0's, from before the run, is its own
                if t:
                    assert self.same(d["s_prev"], entries[t - 1]["spikes"])
                else:
                    assert d["s_prev"].values.dtype == np.float64
                if li:
                    x = d["x"]
                    assert x.values.dtype == bool
                    below = layers[0][t]["spikes"]
                    assert self.same(x, below) == (variant == "stride")
        for t, x in enumerate(readouts):
            top = layers[1][t]["spikes"]
            if dropout_p:   # the dropout's output: float64 on its input's keys
                assert x.values.dtype == np.float64
                assert (x.keys is top.keys) == (variant == "stride")
            elif variant == "stride":
                assert self.same(x, top)
            else:
                assert x.values.dtype == bool

    @_CASES
    def test_the_tape_copies_no_array(self, monkeypatch, modes, variant, dropout_p):
        # each layer record holds the very key and value arrays of the spikes
        # that the LIF update returned, and each input record those of the
        # tensor the layer below handed on
        tape, spikes, handed = self.taped(modes, variant, dropout_p, monkeypatch)
        layers = [e.data for e in tape.entries if e.kind == "layer"]
        assert len(layers) == len(spikes) == len(handed) == 40
        for d, s, out, below in zip(layers, spikes, handed, [None] + handed):
            assert d["spikes"].keys is s.keys() and d["spikes"].values is s.values
            assert (out is s) == (variant == "stride")
            if d["layer"].index:
                assert d["x"].keys is below.keys() and d["x"].values is below.values

    @pytest.mark.parametrize("variant, dropout_p", [("stride", 0.0), ("pool", 0.5)])
    def test_no_float64_hard_spikes_are_reachable(self, monkeypatch, variant,
                                                  dropout_p):
        tape, spikes, handed = self.taped(("sparse", "sparse"), variant, dropout_p,
                                          monkeypatch)
        found = _reachable(tape)
        assert not any(isinstance(x, SparseTensor2D) for x in found)
        floats = [a for a in found if a.dtype == np.float64 and a.size]
        hard = [x.values for x in spikes + handed if x.n_sites]
        assert floats and len(hard) > 40
        for a in floats:
            assert not any(np.shares_memory(a, v) for v in hard)

    def test_tape_bytes_fall_by_a_third(self, monkeypatch):
        # the bytes the same tape held when it kept each tensor as a
        # SparseTensor2D, (b, x, y) rows and float64 values, and out_c as
        # (b, x, y) rows, shared as the records' arrays are shared
        tape, _, _ = self.taped(("sparse", "sparse"), "stride", 0.0, monkeypatch,
                                size=32, t_eval=40)
        as_tensors = {}

        def old(value, grid=None):
            if isinstance(value, autograd._Kept):
                key = id(value.keys), id(value.values)
                if key not in as_tensors:
                    x = value.tensor()
                    as_tensors[key] = SparseTensor2D._canonical(
                        x.coords, x.values.astype(np.float64), x.batch_size,
                        x.height, x.width, x.channels)
                return as_tensors[key]
            if grid is not None:   # out_c
                return as_tensors.setdefault(id(value), autograd._sites(value, *grid))
            return value

        old_entries = [SimpleNamespace(data={
            k: old(v, e.data["spikes"].grid if k == "out_c" else None)
            for k, v in e.data.items()}) for e in tape.entries]
        compact, full = _tape_bytes(tape.entries), _tape_bytes(old_entries)
        assert compact <= full * 2 / 3, (compact, full)


_BPTT_CASES = [
    pytest.param("stride", 5, 0, None, None, 0, id="stride"),
    pytest.param("pool", 5, 0, None, None, 0, id="pool"),
    pytest.param("stride", 7, 3, None, None, 0, id="stride-truncate3"),
    pytest.param("pool", 7, 3, None, None, 0, id="pool-truncate3"),
    pytest.param("stride", 1, 0, None, None, 0, id="stride-T1"),
    pytest.param("pool", 1, 3, None, None, 0, id="pool-T1"),
    pytest.param("stride", 5, 0, 1, None, 0, id="stride-silent1"),
    pytest.param("pool", 5, 0, 1, None, 0, id="pool-silent1"),
    pytest.param("stride", 5, 3, None, 0, 0, id="stride-b0-truncate3"),
    pytest.param("pool", 5, 0, None, 1, 0, id="pool-b1zero"),
    # a taped run after an untaped warm-up: backward slices each step's
    # input again, at its own bin
    pytest.param("stride", 5, 0, None, None, 3, id="stride-start3"),
    pytest.param("pool", 6, 4, None, None, 2, id="pool-truncate4-start2"),
]
_MODES = {"sc": "sparse", "c": "dense"}


class TestDenseBpttOracle:
    """``backward`` on hard nets of ``sc`` and ``c`` layers against
    ``conftest.dense_bptt``."""

    # sc-sc cases keep their bare ids
    @pytest.mark.parametrize(
        "modes, variant, t_eval, truncate, silent, zero_b, start", [
            pytest.param(modes, *case.values,
                         id=case.id if modes == "sc-sc" else f"{modes}-{case.id}")
            for modes in ("sc-sc", "c-sc", "sc-c", "c-c") for case in _BPTT_CASES])
    def test_matches_dense_bptt(self, modes, variant, t_eval, truncate, silent,
                                zero_b, start):
        key = f"{variant}-{t_eval}-{truncate}-{silent}-{zero_b}"
        rng = np.random.default_rng(zlib.crc32(
            (key + (f"-{start}" if start else "")).encode()))
        first, second = (_MODES[m] for m in modes.split("-"))
        model = make_model(rng, (12, 12), [(2, first, 3), (3, second, 3)],
                           3, variant=variant, b=0.02, weight_scale=0.8)
        if silent is not None:   # a threshold this layer's potentials never reach
            model.layers[silent].b.value[...] = 50.0
        if zero_b is not None:
            model.layers[zero_b].b.value[...] = 0.0
        grids = [random_grid(rng, 12, 12, t_bins=start + t_eval, density=0.3)
                 for _ in range(2)]
        labels = rng.integers(0, 3, 2)
        model.reset_state(2)
        if start:
            run_timesteps(model, grids, start)
        tape = GradientTape()
        _, mean, counts = run_timesteps(model, grids, t_eval, start=start,
                                        recorder=tape)
        _, probs = softmax_xent(mean, labels)
        tape.record_loss(probs, labels, mean)
        got = backward(tape, truncate=truncate)
        for li in range(2):
            assert (counts[li] == 0) == (li == silent)
        want = dense_bptt(model, grids, labels, t_eval, truncate, start)
        for p in model.parameters():
            err = np.max(np.abs(got.get(p) - want[p.name]))
            assert err <= 1e-12 * np.max(np.abs(want[p.name])), p.name


def test_network_does_not_bind_the_dense_reference_conv():
    # the dense conv is the reference that perfbench/reference.py checks the
    # network against, so the network must not run it itself
    from spikesparse import spiking
    for module in (spiking, autograd):
        for name in ("dense_conv2d", "dense_conv2d_grads"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
