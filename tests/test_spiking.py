import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    every_site_forward,
    make_model,
    random_sparse,
    simulate_reference,
)
from spikesparse.autograd import GradientTape
from spikesparse.event_io import EventStream, build_voxel_grid
from spikesparse.sparse import (
    ConvKernel2D,
    ShapeError,
    SparseTensor2D,
    densify,
    sparsify,
)
from spikesparse.spiking import (
    EPSILON,
    LIFLayerState,
    LIFParams,
    ReadoutLayer,
    SpikingConvLayer,
    SpikingNet,
    _dropout_recorded,
    _layer_forward,
    _lif_step_lazy,
    _readout_batch,
    build_model,
    heaviside_spike,
    lazy_decay_advance,
    lif_step,
    network_forward,
    parse_architecture,
    run_timesteps,
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
        # numpy 2.0 renamed trapz to trapezoid; pyproject allows numpy >= 1.24
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        total = trapezoid(surrogate_grad(xs, 3.0), xs)
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
    st.prev_spikes = sparsify(np.full(st.shape, s))
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


class TestPendingReset:
    @pytest.mark.parametrize("b", [0.3, 0.0])
    def test_lazy_and_every_site_steps_alternate(self, b):
        # the last spikes are read at their rows of the site list: a lazy
        # step finds them through its site index, lif_step through their
        # keys; alternating the two on one state is a plain dense recurrence
        rng = np.random.default_rng(12)
        params, w2 = LIFParams(beta=0.5, b=b), 1.3
        w2e = w2 + EPSILON
        state = LIFLayerState(2, 3, 5, 6)
        v, s = np.zeros(state.shape), np.zeros(state.shape)
        pending = [0, 0]   # steps of each kind that met a pending reset
        for step in range(16):
            cur = random_sparse(rng, 2, 5, 6, 3, density=0.4)
            cur = SparseTensor2D(cur.coords, 2.0 * cur.values, 2, 5, 6, 3)
            pending[step % 2] += bool(s.any())
            v = params.beta * (v - b * w2e * s) + (1.0 - params.beta) * densify(cur)
            s = (v / w2e - b >= 0).astype(np.float64)
            if step % 2:
                spikes, _ = lif_step(state, cur, params, w2)
            else:
                spikes = _lif_step_lazy(state, cur.coords, cur.values, params, w2)
            assert np.array_equal(densify(spikes), s)
            assert np.array_equal(state.potentials, v)
        assert min(pending) >= 6


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

    def test_rejects_pending_reset(self):
        # after a spike the next step subtracts the threshold: a gap of 1
        # would leave 0.42 where the explicit step gives 0.21
        params = LIFParams(beta=0.7, b=0.3)
        st = fresh_state()
        lif_step(st, np.full((1, 1, 1, 1), 2.0), params, wnorm2=1 - EPSILON)
        assert st.prev_spikes.n_sites == 1
        before = st.potentials.copy()
        with pytest.raises(ValueError, match="reset"):
            lazy_decay_advance(st, 1, params)
        assert np.array_equal(st.potentials, before) and st.step == 0
        lif_step(st, np.zeros((1, 1, 1, 1)), params, wnorm2=1 - EPSILON)
        assert abs(st.potentials[0, 0, 0, 0] - 0.21) < 1e-12

    def test_rejects_nonpositive_threshold(self):
        # at b = 0 a neuron at rest spikes, which a pure decay would skip
        params = LIFParams(beta=0.7, b=0.0)
        st = fresh_state()
        with pytest.raises(ValueError, match="b <= 0"):
            lazy_decay_advance(st, 1, params)
        spikes, _ = lif_step(st, np.zeros((1, 1, 1, 1)), params, wnorm2=1.0)
        assert spikes.n_sites == 1


def _eight_by_eight(dropout_p):
    model = build_model("2sc3-2", (8, 8), dropout_p=dropout_p)
    model.reset_state(1)
    return model, [random_grid(np.random.default_rng(0))]


@pytest.mark.parametrize("call, message", [
    (lambda: lazy_decay_advance(LIFLayerState(1, 1, 2, 2), -1, LIFParams(0.5, 0.3)),
     "gap must be >= 0"),
    (lambda: SpikingConvLayer(0, ConvKernel2D(np.ones((1, 1, 3, 3))), 0.7, 0.3,
                              mode="lazy"),
     "mode must be 'sparse' or 'dense'"),
    (lambda: run_timesteps(*_eight_by_eight(0.0), 0), "t_eval must be >= 1"),
    (lambda: run_timesteps(*_eight_by_eight(0.5), 2, training=True),
     "training with dropout needs an rng for the masks"),
])
def test_input_checks_name_what_they_refuse(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message


class TestSpikingConvForward:
    """One sparse layer step, untaped (sparse LIF step) and taped (every
    site updated)."""

    def make_layer(self, rng, mode="sparse", b=0.3):
        from spikesparse.spiking import SpikingConvLayer
        kern = ConvKernel2D(np.full((1, 1, 3, 3), 0.5), stride=1)
        layer = SpikingConvLayer(0, kern, beta=0.7, b=b, mode=mode)
        layer.reset(1, 6, 6)
        return layer

    def test_empty_input_empty_output(self):
        for recorder in (None, GradientTape()):
            layer = self.make_layer(np.random.default_rng(0))
            out, count = _layer_forward(layer, SparseTensor2D.empty(1, 6, 6, 1),
                                        False, recorder)
            assert out.n_sites == 0 and count == 0

    def test_supra_threshold_input_spikes_once(self):
        # wnorm2 = 9 * 0.25 = 2.25; a lone +30 at the centre tap gives
        # V = 0.3 * 0.5 * 30 = 4.5, u = 4.5/2.25 - 0.1 > 0 -> spike at (2,2)
        x = SparseTensor2D(np.array([[0, 2, 2]]), np.array([[30.0]]), 1, 6, 6, 1)
        for recorder in (None, GradientTape()):
            layer = self.make_layer(np.random.default_rng(0), b=0.1)
            out, count = _layer_forward(layer, x, False, recorder)
            assert out.coords.tolist() == [[0, 2, 2]]
            assert out.values.tolist() == [[1.0]] and count == 1

    def test_integration_across_steps(self):
        # V after one step: 0.3*5 = 1.5 (u = 1.5/2.25 - 0.8 < 0); after two:
        # 0.7*1.5 + 1.5 = 2.55 (u = 2.55/2.25 - 0.8 > 0)
        x = SparseTensor2D(np.array([[0, 2, 2]]), np.array([[10.0]]), 1, 6, 6, 1)
        for recorder in (None, GradientTape()):
            layer = self.make_layer(np.random.default_rng(0), b=0.8)
            first, _ = _layer_forward(layer, x, False, recorder)
            second, _ = _layer_forward(layer, x, False, recorder)
            assert first.n_sites == 0 and second.n_sites == 1


class TestDropout:
    def test_p_zero_and_eval_are_identity(self):
        rng = np.random.default_rng(0)
        model = make_model(rng, (8, 8), [(2, "sparse", 3)], 3, b=0.05,
                           weight_scale=0.8, dropout_p=0.5)
        grid = random_grid(rng, 8, 8, t_bins=4, density=0.3)
        model.reset_state(1)
        evaluated, _, counts = run_timesteps(model, [grid], 4)
        assert counts.sum() > 0
        model.dropout_p = 0.0
        model.reset_state(1)
        trained, _, _ = run_timesteps(model, [grid], 4, training=True)
        assert np.array_equal(trained, evaluated)

    def test_kept_fraction(self):
        rng = np.random.default_rng(1)
        x = sparsify(np.ones((1, 10, 100, 100)))
        out = _dropout_recorded(x, 0.5, rng, None)
        kept = np.count_nonzero(out.values) / out.values.size
        assert abs(kept - 0.5) < 0.01
        assert set(np.unique(out.values)) <= {0.0, 2.0}

    def test_sparse_masking(self):
        rng = np.random.default_rng(2)
        x = random_sparse(rng, 1, 32, 32, 4, density=0.5)
        out = _dropout_recorded(x, 0.5, rng, None)
        assert out.n_sites <= x.n_sites
        dense_in, dense_out = densify(x), densify(out)
        changed = dense_out != 0
        np.testing.assert_allclose(dense_out[changed], 2.0 * dense_in[changed])


    @pytest.mark.parametrize("p", [1.0, 1.5, -0.1, float("nan")])
    def test_model_rejects_p_outside_unit_interval(self, p, tmp_path):
        from spikesparse.spiking import load_checkpoint, save_checkpoint
        from spikesparse.training import build_model
        with pytest.raises(ValueError, match="dropout_p"):
            build_model("2sc3-2", (16, 16), dropout_p=p)
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model("2sc3-2", (16, 16), dropout_p=0.0), path)
        blob = path.read_bytes().replace(b"dropout=0.0\n", f"dropout={p}\n".encode())
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="dropout_p"):
            load_checkpoint(path)

class TestReadout:
    def test_empty_spikes_give_bias(self):
        readout = ReadoutLayer(np.ones((3, 16)), np.array([1.0, 2.0, 3.0]))
        out = _readout_batch(readout, SparseTensor2D.empty(1, 4, 4, 1))
        assert out.tolist() == [[1.0, 2.0, 3.0]]

    def test_single_spike_selects_column(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((5, 2 * 4 * 4))
        bias = rng.standard_normal(5)
        readout = ReadoutLayer(w, bias)
        # spike at (x=3, y=1), channel 1 -> flat index (1*4 + 1)*4 + 3 = 23
        x = SparseTensor2D(np.array([[0, 3, 1]]), np.array([[0.0, 1.0]]), 1, 4, 4, 2)
        np.testing.assert_allclose(_readout_batch(readout, x)[0], bias + w[:, 23])

    def test_matches_dense_matvec(self):
        rng = np.random.default_rng(4)
        x = random_sparse(rng, 2, 5, 6, 3, density=0.3)
        w = rng.standard_normal((7, 3 * 5 * 6))
        bias = rng.standard_normal(7)
        readout = ReadoutLayer(w, bias)
        got = _readout_batch(readout, x)
        want = densify(x).reshape(2, -1) @ w.T + bias
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_geometry_mismatch(self):
        readout = ReadoutLayer(np.ones((3, 16)))
        for x in (SparseTensor2D.empty(1, 4, 2, 1),
                  SparseTensor2D(np.array([[0, 4, 0]]), np.ones((1, 1)), 1, 2, 5, 1)):
            with pytest.raises(ShapeError):
                _readout_batch(readout, x)


class TestNetworkForward:
    @pytest.mark.parametrize("mode", ["sparse", "dense", "mixed"])
    @pytest.mark.parametrize("variant", ["stride", "pool"])
    def test_matches_reference_simulation(self, mode, variant):
        rng = np.random.default_rng(zlib.crc32(f"{mode}-{variant}".encode()))
        first, second = ("dense", "sparse") if mode == "mixed" else (mode, mode)
        for trial in range(5):
            model = make_model(rng, (8, 8), [(2, first, 3), (3, second, 3)], 4,
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

    @pytest.mark.parametrize("height, width", [(8, 10), (16, 8), (4, 4)])
    def test_grid_of_another_size_rejected(self, height, width):
        rng = np.random.default_rng(11)
        model = make_model(rng, (8, 8), [(2, "sparse", 3)], 3)
        grids = [random_grid(rng, 8, 8, t_bins=4),
                 random_grid(rng, height, width, t_bins=4)]
        model.reset_state(2)
        with pytest.raises(ValueError, match=f"{height}x{width} .* 8x8"):
            run_timesteps(model, grids, 4)

    def test_empty_batch_rejected(self):
        model = make_model(np.random.default_rng(11), (8, 8),
                           [(2, "sparse", 3)], 3)
        with pytest.raises(ValueError, match="at least one grid"):
            run_timesteps(model, [], 4)

    @pytest.mark.parametrize("shapes, layer, kernel_c, input_c", [
        ([(2, 1), (4, 3)], 1, 3, 2),
        ([(2, 1), (4, 1)], 1, 1, 2),
        ([(2, 2)], 0, 2, 1),
    ], ids=["wider-kernel", "one-channel-kernel", "first-layer"])
    def test_layers_whose_channels_do_not_chain_rejected(self, shapes, layer,
                                                         kernel_c, input_c):
        # caught when the net is built, not as a matmul error at its first
        # forward, and never read as a one-channel conv of a wider input
        message = (rf"layer {layer} \(conv{layer}.weight\): kernel input channels "
                   rf"{kernel_c}, layer input channels {input_c}")
        rng = np.random.default_rng(13)
        layers = [SpikingConvLayer(i, ConvKernel2D(rng.standard_normal((c_out, c_in, 3, 3)),
                                                   2), 0.7, 0.3)
                  for i, (c_out, c_in) in enumerate(shapes)]
        arch = "-".join(f"{c}sc3" for c, _ in shapes) + "-3"
        with pytest.raises(ValueError, match=message):
            SpikingNet(arch, layers, ReadoutLayer(np.zeros((3, 1))), (8, 8))

    def test_negative_start_rejected(self):
        # bin -2 would read the grid's last bin, and bin -1 nothing
        rng = np.random.default_rng(11)
        model = make_model(rng, (8, 8), [(2, "sparse", 3)], 3)
        grid = random_grid(rng, 8, 8, t_bins=4)
        model.reset_state(1)
        with pytest.raises(ValueError, match="start must be >= 0"):
            network_forward(model, grid, 3, start=-2)

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
            for recorder in (None, GradientTape()):
                model.reset_state(1)
                lazy_logits, _, lazy_counts = run_timesteps(
                    model, [grid], 6, recorder=recorder)
                lazy_v = [layer.state.potentials for layer in model.layers]
                model.reset_state(1)
                dense_logits, dense_counts = every_site_forward(model, [grid], 6)
                assert np.array_equal(lazy_logits, dense_logits)
                assert np.array_equal(lazy_counts, dense_counts)
                for v, layer in zip(lazy_v, model.layers):
                    assert np.array_equal(v, layer.state.potentials)

    def test_lazy_matches_non_lazy_at_zero_threshold(self):
        # project_params lets b reach 0; then a silent site at V = 0 spikes,
        # so lazy execution may not skip it
        from spikesparse.event_io import synth_dataset
        from spikesparse.training import build_model
        model = build_model("2sc3-4sc3-4", (32, 32))
        for layer in model.layers:
            layer.b.value[...] = 0.0
        grids = [g for g, _ in synth_dataset(4, 1, 32, 32, 20, 10_000, seed=0)[0]]
        for recorder in (None, GradientTape()):
            model.reset_state(len(grids))
            lazy_logits, _, lazy_counts = run_timesteps(model, grids, 20,
                                                        recorder=recorder)
            lazy_v = [layer.state.potentials for layer in model.layers]
            model.reset_state(len(grids))
            ref_logits, ref_counts = every_site_forward(model, grids, 20)
            assert np.array_equal(lazy_counts, ref_counts)
            assert np.array_equal(lazy_logits, ref_logits)
            for v, layer in zip(lazy_v, model.layers):
                assert np.array_equal(v, layer.state.potentials)

    @pytest.mark.parametrize("threshold", [0.05, 0.0])
    def test_one_site_index_per_sc_layer_step(self, monkeypatch, threshold):
        # an `sc` step's conv and LIF update share one index, built once; a
        # `c` layer's step builds none
        from spikesparse import sparse, spiking
        from spikesparse.event_io import synth_dataset
        from spikesparse.training import build_model
        build, calls = sparse._step_index, []

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(sparse, "_step_index", counted)
        monkeypatch.setattr(spiking, "_step_index", counted)
        model = build_model("2c3-2sc3-4sc3-4", (32, 32), b_init=threshold)
        grids = [g for g, _ in synth_dataset(2, 1, 32, 32, 3, 10_000, seed=0)[0]]
        for recorder in (GradientTape(), None):
            model.reset_state(len(grids))
            calls.clear()
            _, _, counts = run_timesteps(model, grids, 3, recorder=recorder)
            assert counts[1:].all()   # the sc layers spike
            assert len(calls) == 2 * 3   # two sc layers, three steps

    @pytest.mark.parametrize("variant", ["stride", "pool"])
    def test_sparse_layer_after_dense_layer_keeps_coordinate_map(
            self, variant, monkeypatch):
        # a c layer hands on every site; the sc layer after it must still
        # convolve only on its nonzero rows, taped and untaped alike, so
        # it spikes only at sites that some step's coordinate map reached
        # (elsewhere the potential never leaves 0)
        from spikesparse import spiking
        from spikesparse.event_io import synth_dataset
        from spikesparse.sparse import out_coords
        from spikesparse.training import build_model
        grids = [g for g, _ in synth_dataset(2, 2, 32, 32, 6, 10_000, 0)[0][:2]]
        model = build_model("3c3-3sc3-2", (32, 32), variant=variant,
                            b_init=0.05, dropout_p=0)
        forward, steps = spiking._layer_forward, []

        def spy(layer, x, *args):
            out = forward(layer, x, *args)
            if layer.mode == "sparse":
                steps.append((x, layer.kernel.stride,
                              layer.state.prev_spikes.coords))
            return out

        monkeypatch.setattr(spiking, "_layer_forward", spy)
        logits = []
        for recorder in (None, GradientTape()):
            model.reset_state(2)
            logits.append(run_timesteps(model, grids, 6, recorder=recorder)[0])
        assert np.array_equal(logits[0], logits[1])
        assert len(steps) == 12 and sum(len(c) for _, _, c in steps) > 0
        for run in (steps[:6], steps[6:]):
            reached = set()
            for x, stride, spikes in run:
                assert isinstance(x, SparseTensor2D)
                spiking_sites = x.coords[np.any(x.values != 0, axis=1)]
                reached |= {tuple(c) for c in out_coords(spiking_sites, stride)}
                assert {tuple(c) for c in spikes} <= reached

    @pytest.mark.parametrize("mode, soft", [("dense", False), ("sparse", True)])
    def test_every_site_spikes_share_one_read_only_site_array(self, mode, soft):
        # a c layer or a soft step convolves and emits at every site; all its
        # steps' records on the tape share one cached key array per geometry
        rng = np.random.default_rng(33)
        model = make_model(rng, (8, 8), [(2, mode, 3), (3, mode, 3)], 3,
                           b=0.05, weight_scale=0.8)
        model.soft = soft
        tape = GradientTape()
        model.reset_state(2)
        run_timesteps(model, [random_grid(rng, 8, 8, t_bins=2)] * 2, 2,
                      recorder=tape)
        for layer in model.layers:
            entries = [e.data for e in tape.entries
                       if e.kind == "layer" and e.data["layer"] is layer]
            assert len(entries) == 2
            first = entries[0]["out_c"]
            assert len(first) == 2 * np.prod(layer.state.shape[2:])
            assert not first.flags.writeable
            for d in entries:
                for keys in (d["out_c"], d["spikes"].keys):
                    assert np.shares_memory(keys, first)
                    assert not keys.flags.writeable

    def test_spiking_outputs_are_binary(self):
        rng = np.random.default_rng(14)
        model = make_model(rng, (8, 8), [(2, "sparse", 3)], 3, b=0.01,
                           weight_scale=1.0)
        grid = random_grid(rng, 8, 8, t_bins=4, density=0.3)
        model.reset_state(1)
        x = None
        from spikesparse.spiking import _batch_slice
        for t in range(4):
            x = _batch_slice([grid], t)
            x, _ = _layer_forward(model.layers[0], x, False, None)
            if x.n_sites:
                assert set(np.unique(x.values)) <= {0.0, 1.0}


edge_beta = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
edge_b = st.one_of(st.just(0.0), st.floats(1e-3, 0.5))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       variant=st.sampled_from(["stride", "pool"]),
       active=st.lists(st.booleans(), min_size=6, max_size=6),
       batch=st.integers(1, 2))
def test_untaped_forward_equals_taped(data, seed, variant, active, batch):
    """The untaped and the taped forward (both take the sparse LIF step
    wherever b > 0) end in exactly the logits, spikes and potentials of an
    oracle that updates every site, at the leak and threshold values the
    projection can reach and across silent timesteps."""
    rng = np.random.default_rng(seed)
    specs = [(data.draw(st.integers(1, 3)), "sparse",
              data.draw(st.sampled_from([1, 3, 5])))
             for _ in range(data.draw(st.integers(2, 3)))]
    model = make_model(rng, (12, 12), specs, 3, variant=variant, weight_scale=0.8)
    for layer in model.layers:
        layer.beta.value[...] = data.draw(edge_beta)
        layer.b.value[...] = data.draw(edge_b)
    bins = np.flatnonzero(active)
    grids = []
    for _ in range(batch):
        n = 40 if len(bins) else 0
        ts = np.sort(rng.choice(bins, n) * 1000 + rng.integers(0, 1000, n))
        stream = EventStream(ts, rng.integers(0, 12, n), rng.integers(0, 12, n),
                             rng.integers(0, 2, n), 12, 12)
        grids.append(build_voxel_grid(stream, 1000, 6))
    model.reset_state(batch)
    ref_logits, ref_counts = every_site_forward(model, grids, 6)
    ref_v = [layer.state.potentials for layer in model.layers]
    for recorder in (None, GradientTape()):
        model.reset_state(batch)
        got_logits, _, got_counts = run_timesteps(model, grids, 6,
                                                  recorder=recorder)
        assert np.array_equal(got_counts, ref_counts)
        assert np.array_equal(got_logits, ref_logits)
        for ref, layer in zip(ref_v, model.layers):
            assert np.array_equal(layer.state.potentials, ref)


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
        # counts are ASCII digits only: no "_", sign, space, other script's
        # digit or trailing newline, all of which int() or "$" would take
        for bad in ["", "4sc5", "4xc5-11", "4sc4-11", "4sc5do-8sc3-11",
                    "0sc5-4", "4sc5-0", "4sc5-0sc3-4", "4sc5-1_1", "4sc5-+3",
                    "4sc5- 3", "\u0664sc5-3", "4sc\u0665-3", "4sc5\n-3",
                    "2sc3-3\n"]:
            with pytest.raises(ValueError):
                parse_architecture(bad)
