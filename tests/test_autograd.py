import math
import zlib
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
from spikesparse.sparse import SparseTensor2D, densify
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

    def test_gradient_shapes_match_parameters(self):
        rng = np.random.default_rng(9)
        model = make_model(rng, (6, 6), [(2, "sparse", 3), (3, "sparse", 3)], 4,
                           b=0.05)
        grid = random_grid(rng, 6, 6, t_bins=3, density=0.3)
        tape, _, _ = forward_with_tape(model, grid, 2)
        grads = backward(tape)
        for p in model.parameters():
            assert grads.get(p).shape == p.value.shape
        dump = grads.dump_norms(model.parameters())
        assert "conv0.weight" in dump and "readout.weight" in dump

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
        handed = [sum(e.data["spikes"].n_sites for e in tape.entries
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
    forward and backward wrap through it is held here to its contract."""

    @pytest.mark.parametrize("arch, variant, soft, dropout_p", [
        ("2sc5-4sc3-4", "stride", False, 0.0),
        ("2sc5-4sc3-4", "pool", False, 0.0),
        ("2c5-4c3-4", "pool", False, 0.0),
        ("2sc5-4sc3-4", "stride", True, 0.0),
        ("2sc5-4sc3-4", "stride", False, 0.5),
    ], ids=["desk-stride", "desk-pool", "c-pool", "soft", "dropout"])
    def test_wrapped_tensors_hold_the_contract(self, monkeypatch, arch, variant,
                                               soft, dropout_p):
        wrapped, hard_spikes = [], []
        wrap, lif_update = SparseTensor2D._canonical.__func__, spiking._lif_update

        def spy_wrap(cls, *args):
            wrapped.append(wrap(cls, *args))
            return wrapped[-1]

        def spy_lif_update(*args, every_site=False, **kwargs):
            spikes = lif_update(*args, every_site=every_site, **kwargs)
            if not every_site:
                hard_spikes.append(spikes)
            return spikes

        monkeypatch.setattr(SparseTensor2D, "_canonical", classmethod(spy_wrap))
        monkeypatch.setattr(spiking, "_lif_update", spy_lif_update)
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
        for x in wrapped:
            c, v = x.coords, x.values
            assert c.dtype == np.int64 and c.flags.c_contiguous
            assert c.ndim == 2 and c.shape[1] == 3
            assert np.all(np.diff(x.keys()) > 0)
            assert np.all((c >= 0) & (c < [x.batch_size, x.width, x.height]))
            assert v.dtype == np.float64 and v.flags.c_contiguous
            assert v.shape == (x.n_sites, x.channels)
            assert all(type(n) is int for n in
                       (x.batch_size, x.height, x.width, x.channels))
        assert bool(hard_spikes) == (not soft and "sc" in arch)
        for spikes in hard_spikes:
            assert any(spikes is x for x in wrapped)
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
        # or weight norm, and a step's input only as its grids and bin: the
        # layer entry after it keeps no copy, which backward slices again
        kept = {"input": {"grids", "t"}, "readout": {"readout", "x"},
                "dropout": {"mask", "p"}, "mean": {"steps", "shape"},
                "loss": {"probs", "labels"},
                "layer": {"layer", "t", "chained", "x", "out_c", "current",
                          "every_site", "v_prev", "s_prev", "spikes",
                          "winners"}}
        for before, e in zip([None] + tape.entries, tape.entries):
            assert set(e.data) == kept[e.kind], e.kind
            if e.kind == "layer":
                assert e.data["winners"] is not None
                assert (e.data["x"] is None) == (before.kind == "input")
        assert {e.kind for e in tape.entries} == set(kept)
        for layer in model.layers:
            entries = [e.data for e in tape.entries
                       if e.kind == "layer" and e.data["layer"] is layer]
            assert len(entries) == t_eval
            potentials = 0
            for d in entries:
                assert isinstance(d["s_prev"], SparseTensor2D)
                assert isinstance(d["spikes"], SparseTensor2D)
                for key, value in d.items():
                    if (isinstance(value, np.ndarray)
                            and value.shape == layer.state.shape):
                        assert key == "v_prev"
                        potentials += 1
            assert potentials <= math.ceil(t_eval / autograd._SEGMENT)

    def test_no_adjoint_crosses_a_reset_on_one_tape(self):
        # a state reset between two runs on one tape cuts the recurrence: the
        # loss of the second run gives the first run's steps no gradient
        rng = np.random.default_rng(32)
        model = make_model(rng, (8, 8), [(2, "sparse", 3), (3, "sparse", 3)],
                           3, b=0.05, weight_scale=0.8)
        grids = [random_grid(rng, 8, 8, t_bins=20, density=0.3)]
        labels = np.array([1])
        model.reset_state(1)
        want = _taped_step(model, grids, labels, 20)
        tape = GradientTape()
        model.reset_state(1)
        run_timesteps(model, grids, 20, recorder=tape)
        model.reset_state(1)
        _, mean, _ = run_timesteps(model, grids, 20, recorder=tape)
        _, probs = softmax_xent(mean, labels)
        tape.record_loss(probs, labels, mean)
        got = backward(tape).to_list(model.parameters())
        for a, b in zip(want[2:], got):
            assert np.array_equal(a, b)


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
