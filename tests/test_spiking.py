import math

import numpy as np
import pytest

from conftest import make_model, random_sparse, simulate_reference
from spikesparse.event_io import EventStream, build_voxel_grid
from spikesparse.sparse import ConvKernel2D, ShapeError, SparseTensor2D, densify
from spikesparse.spiking import (
    EPSILON,
    LIFLayerState,
    LIFParams,
    ReadoutLayer,
    dropout_per_timestep,
    heaviside_spike,
    lazy_decay_advance,
    lif_step,
    network_forward,
    parse_architecture,
    readout_forward,
    run_timesteps,
    spiking_conv_forward,
    surrogate_grad,
)


def random_grid(rng, height=8, width=8, t_bins=6, density=0.08):
    n = max(1, int(density * height * width * t_bins))
    ts = np.sort(rng.integers(0, t_bins * 1000, n))
    stream = EventStream(ts, rng.integers(0, width, n), rng.integers(0, height, n),
                         rng.integers(0, 2, n), width, height)
    return build_voxel_grid(stream, 1000, t_bins)


class TestHeaviside:
    def test_above_threshold_spikes(self):
        assert heaviside_spike(0.5, 1 - EPSILON, 0.3) == 1.0

    def test_below_threshold_silent(self):
        assert heaviside_spike(0.1, 1 - EPSILON, 0.3) == 0.0

    def test_boundary_spikes(self):
        # 0.6 / 2.0 - 0.3 is exactly 0.0 in binary floating point
        assert heaviside_spike(0.6, 2 - EPSILON, 0.3) == 1.0

    def test_vectorized(self):
        out = heaviside_spike(np.array([0.5, 0.1, 0.3]), 1 - EPSILON, 0.3)
        assert out.tolist() == [1.0, 0.0, 1.0]


class TestSurrogate:
    def test_value_at_zero(self):
        assert surrogate_grad(0.0, 3.0) == 0.75

    def test_alpha_zero_kills_gradient(self):
        xs = np.linspace(-5, 5, 11)
        assert np.all(surrogate_grad(xs, 0.0) == 0.0)

    def test_value_at_one(self):
        # oracle: direct evaluation of 3 * sigma(3) * sigma(-3)
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        want = 3.0 * sig(3.0) * sig(-3.0)
        assert abs(surrogate_grad(1.0, 3.0) - want) < 1e-15
        assert abs(want - 0.13552997919273643) < 1e-15

    def test_even_function(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal(10_000) * 10
        diff = np.abs(surrogate_grad(xs, 3.0) - surrogate_grad(-xs, 3.0))
        assert diff.max() < 1e-12

    def test_integrates_to_one(self):
        xs = np.linspace(-20, 20, 40_001)
        total = np.trapezoid(surrogate_grad(xs, 3.0), xs)
        assert abs(total - 1.0) < 1e-3

    def test_maximum_at_zero(self):
        xs = np.linspace(-4, 4, 801)
        vals = surrogate_grad(xs, 3.0)
        assert vals.argmax() == 400

    def test_no_overflow_for_large_arguments(self):
        assert surrogate_grad(500.0, 100.0) == 0.0


def fresh_state(batch=1, channels=1, height=1, width=1, v=0.0, s=0.0):
    st = LIFLayerState(batch, channels, height, width)
    st.potentials[:] = v
    st.prev_spikes_dense[:] = s
    if s:
        st.prev_spike_coords = np.array([[b, x, y] for b in range(batch)
                                         for y in range(height) for x in range(width)])
    return st


class TestLifStep:
    def test_integration_from_rest(self):
        st = fresh_state(v=0.5)
        current = np.full((1, 1, 1, 1), 1.0)
        lif_step(st, current, LIFParams(beta=0.7, b=10.0), wnorm2=1 - EPSILON)
        assert abs(st.potentials[0, 0, 0, 0] - 0.65) < 1e-12

    def test_reset_subtracts_threshold(self):
        st = fresh_state(v=0.9, s=1.0)
        lif_step(st, np.zeros((1, 1, 1, 1)), LIFParams(beta=0.7, b=0.3),
                 wnorm2=1 - EPSILON)
        assert abs(st.potentials[0, 0, 0, 0] - 0.42) < 1e-12

    def test_silent_neuron_stays_silent(self):
        st = fresh_state()
        spikes, _ = lif_step(st, np.zeros((1, 1, 1, 1)),
                             LIFParams(beta=0.7, b=0.3), wnorm2=1.0)
        assert spikes.n_sites == 0 and st.potentials[0, 0, 0, 0] == 0.0

    def test_sparse_current_input(self):
        st = LIFLayerState(1, 2, 4, 4)
        cur = SparseTensor2D(np.array([[0, 1, 2]]), np.array([[4.0, 0.5]]), 1, 4, 4, 2)
        spikes, _ = lif_step(st, cur, LIFParams(beta=0.5, b=0.3), wnorm2=1 - EPSILON)
        # V = 0.5 * 4.0 = 2.0 on channel 0 -> spike; 0.25 on channel 1 -> none
        assert spikes.coords.tolist() == [[0, 1, 2]]
        assert spikes.values.tolist() == [[1.0, 0.0]]

    def test_geometry_mismatch(self):
        st = LIFLayerState(1, 1, 2, 2)
        with pytest.raises(ShapeError):
            lif_step(st, np.zeros((1, 1, 3, 3)), LIFParams(0.5, 0.3), 1.0)


class TestLazyDecay:
    def test_two_steps(self):
        st = fresh_state(v=0.4)
        lazy_decay_advance(st, 2, LIFParams(beta=0.5, b=0.3))
        assert st.potentials[0, 0, 0, 0] == 0.4 * 0.5 * 0.5

    def test_gap_zero_is_identity(self):
        st = fresh_state(v=0.123)
        before = st.potentials.copy()
        lazy_decay_advance(st, 0, LIFParams(beta=0.9, b=0.3))
        assert np.array_equal(st.potentials, before)

    def test_equals_explicit_zero_input_steps(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            beta = float(rng.uniform(0.05, 0.99))
            b = float(rng.uniform(0.05, 1.0))
            w2 = float(rng.uniform(0.1, 4.0))
            params = LIFParams(beta, b)
            v0 = rng.standard_normal((2, 3, 4, 4)) * b * (w2 + EPSILON) * 0.99
            v0 = np.minimum(v0, b * (w2 + EPSILON) * 0.999)  # strictly sub-threshold
            lazy = LIFLayerState(2, 3, 4, 4)
            lazy.potentials = v0.copy()
            explicit = LIFLayerState(2, 3, 4, 4)
            explicit.potentials = v0.copy()
            gap = int(rng.integers(1, 8))
            lazy_decay_advance(lazy, gap, params)
            for _ in range(gap):
                spikes, _ = lif_step(explicit, np.zeros((2, 3, 4, 4)), params, w2)
                assert spikes.n_sites == 0  # silent-gap safety
            assert np.array_equal(lazy.potentials, explicit.potentials)


class TestSpikingConvForward:
    def make_layer(self, rng, mode="sparse", b=0.3):
        from spikesparse.spiking import SpikingConvLayer
        kern = ConvKernel2D(np.full((1, 1, 3, 3), 0.5), stride=1)
        layer = SpikingConvLayer(0, kern, beta=0.7, b=b, mode=mode)
        layer.reset(1, 6, 6)
        return layer

    def test_empty_input_empty_output(self):
        layer = self.make_layer(np.random.default_rng(0))
        out = spiking_conv_forward(layer, SparseTensor2D.empty(1, 6, 6, 1))
        assert out.n_sites == 0

    def test_supra_threshold_input_spikes_once(self):
        layer = self.make_layer(np.random.default_rng(0), b=0.1)
        # wnorm2 = 9 * 0.25 = 2.25; a lone +30 at the centre tap gives
        # V = 0.3 * 0.5 * 30 = 4.5, u = 4.5/2.25 - 0.1 > 0 -> spike at (2,2)
        x = SparseTensor2D(np.array([[0, 2, 2]]), np.array([[30.0]]), 1, 6, 6, 1)
        out = spiking_conv_forward(layer, x)
        assert out.coords.tolist() == [[0, 2, 2]]
        assert out.values.tolist() == [[1.0]]

    def test_integration_across_steps(self):
        layer = self.make_layer(np.random.default_rng(0), b=0.8)
        x = SparseTensor2D(np.array([[0, 2, 2]]), np.array([[10.0]]), 1, 6, 6, 1)
        first = spiking_conv_forward(layer, x)
        second = spiking_conv_forward(layer, x)
        # V after one step: 0.3*5 = 1.5 (u = 1.5/2.25 - 0.8 < 0); after two:
        # 0.7*1.5 + 1.5 = 2.55 (u = 2.55/2.25 - 0.8 > 0)
        assert first.n_sites == 0 and second.n_sites == 1


class TestDropout:
    def test_p_zero_and_eval_are_identity(self):
        rng = np.random.default_rng(0)
        x = random_sparse(rng, 1, 6, 6, 2, density=0.4)
        assert dropout_per_timestep(x, 0.0, rng, training=True) is x
        assert dropout_per_timestep(x, 0.5, rng, training=False) is x

    def test_kept_fraction(self):
        rng = np.random.default_rng(1)
        x = np.ones((1, 10, 100, 100))
        out = dropout_per_timestep(x, 0.5, rng, training=True)
        kept = np.count_nonzero(out) / out.size
        assert abs(kept - 0.5) < 0.01
        assert set(np.unique(out)) <= {0.0, 2.0}

    def test_sparse_masking(self):
        rng = np.random.default_rng(2)
        x = random_sparse(rng, 1, 32, 32, 4, density=0.5)
        out = dropout_per_timestep(x, 0.5, rng, training=True)
        assert out.n_sites <= x.n_sites
        dense_in, dense_out = densify(x), densify(out)
        changed = dense_out != 0
        np.testing.assert_allclose(dense_out[changed], 2.0 * dense_in[changed])


class TestReadout:
    def test_empty_spikes_give_bias(self):
        readout = ReadoutLayer(np.ones((3, 16)), np.array([1.0, 2.0, 3.0]))
        out = readout_forward(readout, SparseTensor2D.empty(1, 4, 4, 1))
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_single_spike_selects_column(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((5, 2 * 4 * 4))
        bias = rng.standard_normal(5)
        readout = ReadoutLayer(w, bias)
        # spike at (x=3, y=1), channel 1 -> flat index (1*4 + 1)*4 + 3 = 23
        x = SparseTensor2D(np.array([[0, 3, 1]]), np.array([[0.0, 1.0]]), 1, 4, 4, 2)
        np.testing.assert_allclose(readout_forward(readout, x), bias + w[:, 23])

    def test_matches_dense_matvec(self):
        rng = np.random.default_rng(4)
        x = random_sparse(rng, 2, 5, 6, 3, density=0.3)
        w = rng.standard_normal((7, 3 * 5 * 6))
        bias = rng.standard_normal(7)
        readout = ReadoutLayer(w, bias)
        got = readout_forward(readout, x)
        want = densify(x).reshape(2, -1) @ w.T + bias
        np.testing.assert_allclose(got, want, atol=1e-6)


class TestNetworkForward:
    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    @pytest.mark.parametrize("variant", ["stride", "pool"])
    def test_matches_reference_simulation(self, mode, variant):
        rng = np.random.default_rng(hash((mode, variant)) % 2 ** 31)
        for trial in range(5):
            model = make_model(rng, (8, 8), [(2, mode, 3), (3, mode, 3)], 4,
                               variant=variant, b=0.05, weight_scale=0.8)
            grid = random_grid(rng, 8, 8, t_bins=5, density=0.15)
            model.reset_state(1)
            logits, mean, counts = network_forward(model, grid, 5)
            ref_logits, _ = simulate_reference(model, grid, 5)
            assert np.max(np.abs(logits - ref_logits)) < 1e-6
            np.testing.assert_allclose(mean, logits.mean(axis=0))

    def test_empty_grid_returns_bias(self):
        rng = np.random.default_rng(9)
        model = make_model(rng, (8, 8), [(2, "sparse", 3)], 3)
        grid = build_voxel_grid(EventStream.empty(8, 8), 1000, 4)
        model.reset_state(1)
        logits, mean, counts = network_forward(model, grid, 4)
        np.testing.assert_array_equal(mean, model.readout.bias.value)
        assert counts.sum() == 0

    def test_t_eval_one_mean_is_single_step(self):
        rng = np.random.default_rng(10)
        model = make_model(rng, (8, 8), [(2, "sparse", 3)], 3, b=0.05)
        grid = random_grid(rng, 8, 8, t_bins=4)
        model.reset_state(1)
        logits, mean, _ = network_forward(model, grid, 1)
        np.testing.assert_array_equal(mean, logits[0])

    def test_t_eval_beyond_grid_rejected(self):
        rng = np.random.default_rng(11)
        model = make_model(rng, (8, 8), [(2, "sparse", 3)], 3)
        grid = random_grid(rng, 8, 8, t_bins=4)
        model.reset_state(1)
        with pytest.raises(ValueError):
            network_forward(model, grid, 5)

    def test_state_split_invariance(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            mode = "sparse" if trial % 2 == 0 else "dense"
            model = make_model(rng, (8, 8), [(2, mode, 3), (2, mode, 3)], 3,
                               b=0.05, weight_scale=0.8)
            grid = random_grid(rng, 8, 8, t_bins=6, density=0.2)
            model.reset_state(1)
            full, full_mean, _ = network_forward(model, grid, 6)
            j = int(rng.integers(1, 6))
            model.reset_state(1)
            head, _, _ = network_forward(model, grid, j)
            tail, _, _ = network_forward(model, grid, 6 - j, start=j)
            assert np.array_equal(np.concatenate([head, tail]), full)

    def test_sparse_lazy_matches_dense_state_execution(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            model = make_model(rng, (10, 10), [(2, "sparse", 3), (3, "sparse", 3)],
                               4, b=0.05, weight_scale=0.8)
            grid = random_grid(rng, 10, 10, t_bins=6, density=0.15)
            model.reset_state(1)
            lazy_logits, _, lazy_counts = run_timesteps(model, [grid], 6, lazy=True)
            model.reset_state(1)
            dense_logits, _, dense_counts = run_timesteps(model, [grid], 6, lazy=False)
            assert np.array_equal(lazy_logits, dense_logits)
            assert np.array_equal(lazy_counts, dense_counts)

    def test_lazy_matches_non_lazy_at_zero_threshold(self):
        # project_params lets b reach 0; then a silent site at V = 0 spikes,
        # so lazy execution may not skip it
        from spikesparse.event_io import synth_dataset
        from spikesparse.training import build_model
        model = build_model("2sc3-4sc3-4", (32, 32))
        for layer in model.layers:
            layer.b.value[...] = 0.0
        grids = [g for g, _ in synth_dataset(4, 1, 32, 32, 20, 10_000, seed=0)[0]]
        model.reset_state(len(grids))
        lazy_logits, _, lazy_counts = run_timesteps(model, grids, 20, lazy=True)
        model.reset_state(len(grids))
        ref_logits, _, ref_counts = run_timesteps(model, grids, 20, lazy=False)
        assert np.array_equal(lazy_counts, ref_counts)
        assert np.array_equal(lazy_logits, ref_logits)

    def test_spiking_outputs_are_binary(self):
        rng = np.random.default_rng(14)
        model = make_model(rng, (8, 8), [(2, "sparse", 3)], 3, b=0.01,
                           weight_scale=1.0)
        grid = random_grid(rng, 8, 8, t_bins=4, density=0.3)
        model.reset_state(1)
        x = None
        from spikesparse.spiking import _batch_slice, _layer_forward
        for t in range(4):
            x = _batch_slice([grid], t)
            x, _ = _layer_forward(model.layers[0], x, False, 3.0, None, False)
            if x.n_sites:
                assert set(np.unique(x.values)) <= {0.0, 1.0}


class TestParseArchitecture:
    def test_reference_architecture_string(self):
        layers, classes = parse_architecture("4sc5-8sc5-8sc3-16sc3-11")
        assert classes == 11
        assert layers == [(4, "sparse", 5, False), (8, "sparse", 5, False),
                          (8, "sparse", 3, False), (16, "sparse", 3, False)]

    def test_dense_and_dropout_tokens(self):
        layers, classes = parse_architecture("4c5-8c3do-11")
        assert layers[0][1] == "dense" and layers[1][3] is True

    def test_bad_strings(self):
        for bad in ["", "4sc5", "4xc5-11", "4sc4-11", "4sc5do-8sc3-11"]:
            with pytest.raises(ValueError):
                parse_architecture(bad)
