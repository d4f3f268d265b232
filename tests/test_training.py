import math

import numpy as np
import pytest

from conftest import make_model, simulate_reference
from spikesparse.autograd import ParamGrads
from spikesparse.event_io import BinaryVoxelGrid, LazyGridList, synth_dataset
from spikesparse.spiking import (
    Param,
    SpikingNet,
    load_checkpoint,
    run_timesteps,
    save_checkpoint,
)
from spikesparse.training import (
    OptimizerState,
    TrainConfig,
    _batches,
    anytime_eval,
    build_model,
    clip_grad_norm,
    evaluate,
    init_model,
    project_params,
    radam_step,
    schedule_lr,
    sparsity_audit,
    stride_vs_pool_study,
    train,
)


def tiny_config(**kw):
    base = dict(arch="2sc3-3", in_height=16, in_width=16, t_train=6,
                dt_us=10_000, lr0=5e-3, batch_size=4, max_epochs=2,
                dropout_p=0.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def tiny_dataset(seed=0, classes=3, per_class=3, hw=16, t=6):
    return synth_dataset(classes, per_class, hw, hw, t, 10_000, seed=seed,
                         test_per_class=2)


# --- independent RAdam reference: a scalar loop written directly from the
# optimizer's algorithm, with the usual epsilon guard on the denominator ----

def radam_oracle(theta0, grad_fn, lr, steps, wd=0.0, b1=0.9, b2=0.999, eps=1e-8):
    theta = [float(x) for x in theta0]
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    traj = []
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        rho = rho_inf - 2.0 * t * b2 ** t / (1.0 - b2 ** t)
        for i in range(len(theta)):
            m[i] = b1 * m[i] + (1.0 - b1) * g[i]
            v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i]
            theta[i] *= 1.0 - lr * wd
            m_hat = m[i] / (1.0 - b1 ** t)
            if rho > 4.0:
                r = math.sqrt((rho - 4.0) * (rho - 2.0) * rho_inf
                              / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho))
                theta[i] -= lr * r * m_hat * math.sqrt(1.0 - b2 ** t) \
                    / (math.sqrt(v[i]) + eps)
            else:
                theta[i] -= lr * m_hat
        traj.append(list(theta))
    return traj


class TestRadam:
    def test_rho_infinity(self):
        assert abs((2 / (1 - 0.999) - 1) - 1999.0) < 1e-9

    def test_unadapted_branch_boundary(self):
        rho_inf = 2 / (1 - 0.999) - 1
        rho = lambda t: rho_inf - 2 * t * 0.999 ** t / (1 - 0.999 ** t)
        for t in range(1, 5):
            assert rho(t) <= 4.0
        assert rho(5) > 4.0

    def test_quadratic_bowl_matches_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.5, 3.0, size=6)
        c = rng.standard_normal(6)
        theta0 = rng.standard_normal(6)

        params = [Param("theta", theta0.copy())]
        opt = OptimizerState(params)
        got = []
        for _ in range(100):
            grads = [a * (params[0].value - c)]
            radam_step(params, grads, opt, lr=0.05, weight_decay=1e-3)
            got.append(params[0].value.copy())

        want = radam_oracle(theta0, lambda th: (a * (np.array(th) - c)).tolist(),
                            lr=0.05, steps=100, wd=1e-3)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - np.array(w))) < 1e-6

    def test_accepts_param_grads_object(self):
        p = Param("x", np.array([1.0, 2.0]))
        g = ParamGrads()
        g.add(p, np.array([0.1, -0.2]))
        opt = OptimizerState([p])
        radam_step([p], g, opt, lr=0.1)
        assert not np.array_equal(p.value, np.array([1.0, 2.0]))

    def test_stepped_weights_reach_the_neuron(self):
        # the threshold and reset of the next forward read the norm of the
        # weights as stepped in place, as a clone built from them does
        grid = tiny_dataset()[0][0][0]
        for arch, variant, bias in (("2sc3-4sc3-3", "stride", True),
                                    ("2c3-4sc3-3", "pool", False)):
            rng = np.random.default_rng(3)
            model = build_model(arch, (16, 16), variant=variant,
                                readout_bias=bias, rng=rng, b_init=0.1)
            params = model.parameters()
            grads = [rng.normal(size=p.value.shape) for p in params]
            radam_step(params, grads, OptimizerState(params), lr=0.05)
            project_params(model)
            clone = model.clone()
            assert not any(np.shares_memory(p.value, q.value)
                           for p, q in zip(params, clone.parameters()))
            runs = []
            for net in (model, clone):
                net.reset_state(1)
                _, _, counts = run_timesteps(net, [grid], 6)
                assert counts.all()
                runs.append((counts, [layer.state.potentials
                                      for layer in net.layers]))
            (counts, finals), (cloned_counts, cloned_finals) = runs
            assert np.array_equal(counts, cloned_counts)
            for mine, cloned in zip(finals, cloned_finals):
                assert np.array_equal(mine, cloned)

    def test_clone_rejects_a_net_unlike_its_arch(self):
        # two layers under a one-layer arch string: a checkpoint of it could
        # not be loaded, and a clone must not copy only part of it
        full = build_model("2sc3-4sc3-3", (16, 16))
        net = SpikingNet("2sc3-3", full.layers, full.readout, (16, 16))
        with pytest.raises(ValueError, match="do not match its arch"):
            net.clone()

    def test_clone_rejects_a_layer_mode_unlike_its_arch(self):
        net = build_model("2sc3-3", (16, 16))
        net.layers[0].mode = "dense"
        with pytest.raises(ValueError, match="do not match its arch"):
            net.clone()

    def test_clone_rejects_a_pool_unlike_its_arch(self):
        net = build_model("2sc3-3", (16, 16))
        net.layers[0].pool = True
        with pytest.raises(ValueError, match="do not match its arch"):
            net.clone()


class TestSchedule:
    def test_step_decay(self):
        cfg = tiny_config(schedule="step", lr0=5e-3)
        assert abs(schedule_lr(cfg, 0) - 5e-3) < 1e-15
        assert abs(schedule_lr(cfg, 1) - 5e-3) < 1e-15
        assert abs(schedule_lr(cfg, 2) - 3.5e-3) < 1e-12
        assert abs(schedule_lr(cfg, 4) - 5e-3 * 0.49) < 1e-12

    def test_cosine_restarts(self):
        cfg = tiny_config(schedule="cosine", lr0=1e-2)
        assert abs(schedule_lr(cfg, 0) - 1e-2) < 1e-15
        assert abs(schedule_lr(cfg, 30) - 1e-2) < 1e-15
        assert abs(schedule_lr(cfg, 15) - 5e-3) < 1e-15
        assert schedule_lr(cfg, 29) < 1e-4


@pytest.mark.parametrize("call, message", [
    (lambda: schedule_lr(tiny_config(), -1), "epoch must be >= 0"),
    (lambda: tiny_config(variant="avgpool"), "unknown variant 'avgpool'"),
])
def test_input_checks_name_what_they_refuse(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message


class TestProjection:
    def test_clamps(self):
        rng = np.random.default_rng(1)
        model = make_model(rng, (8, 8), [(2, "sparse", 3)], 3)
        model.layers[0].beta.value[...] = 1.2
        model.layers[0].b.value[...] = -0.1
        project_params(model)
        assert model.layers[0].beta.item() == 1.0
        assert model.layers[0].b.item() == 0.0

    def test_in_range_untouched(self):
        rng = np.random.default_rng(2)
        model = make_model(rng, (8, 8), [(2, "sparse", 3)], 3)
        project_params(model)
        assert model.layers[0].beta.item() == 0.7
        assert model.layers[0].b.item() == 0.3


class TestClipGradNorm:
    def test_scales_when_over(self):
        grads = [np.array([6.0, 8.0])]  # norm 10
        clip_grad_norm(grads, 5.0)
        np.testing.assert_allclose(grads[0], [3.0, 4.0])

    def test_untouched_when_under(self):
        grads = [np.array([3.0])]
        clip_grad_norm(grads, 5.0)
        assert grads[0][0] == 3.0

    def test_returns_the_norm_before_clipping(self):
        assert clip_grad_norm([np.array([6.0, 8.0])], 5.0) == 10.0
        assert clip_grad_norm([np.array([3.0])], 5.0) == 3.0
        # train() checks this value: a non-finite entry makes it non-finite
        for bad in (np.nan, np.inf):
            grads = ParamGrads()
            grads.add(Param("w", np.zeros(2)), np.array([bad, 1.0]))
            assert not math.isfinite(clip_grad_norm(grads, 5.0))
            assert grads.get(Param("w", np.zeros(2)))[1] == 1.0   # not scaled

    def test_zero_grads_no_division(self):
        grads = [np.zeros(4)]
        clip_grad_norm(grads, 5.0)
        assert not grads[0].any()

    def test_norm_bound_and_direction(self):
        rng = np.random.default_rng(3)
        raw = [rng.standard_normal(17) * 10, rng.standard_normal(5) * 10]
        flat_before = np.concatenate(raw)
        grads = [g.copy() for g in raw]
        clip_grad_norm(grads, 5.0)
        flat = np.concatenate(grads)
        assert np.linalg.norm(flat) <= 5.0 + 1e-9
        cos = flat @ flat_before / (np.linalg.norm(flat)
                                    * np.linalg.norm(flat_before))
        assert abs(cos - 1.0) < 1e-12


class TestInitModel:
    def test_beta_b_defaults(self):
        model = init_model(tiny_config())
        for layer in model.layers:
            assert layer.beta.item() == 0.7 and layer.b.item() == 0.3

    def test_reference_architecture_parameter_count(self):
        cfg = TrainConfig(arch="4sc5-8sc5-8sc3-16sc3-11", in_height=128,
                          in_width=128)
        model = init_model(cfg)
        # independent summation: conv weights + (beta, b) per layer + readout
        convs = 4 * 1 * 5 * 5 + 8 * 4 * 5 * 5 + 8 * 8 * 3 * 3 + 16 * 8 * 3 * 3
        scalars = 2 * 4
        feat = 16 * 8 * 8  # 128 -> 64 -> 32 -> 16 -> 8 through four stride-2 convs
        readout = 11 * feat + 11
        want = convs + scalars + readout
        assert model.num_parameters() == want == 13911

    def test_same_seed_same_weights(self):
        a = init_model(tiny_config(seed=5))
        b = init_model(tiny_config(seed=5))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.value, pb.value)

    def test_weight_scale_is_fan_in(self):
        model = init_model(tiny_config(arch="2sc5-3", seed=1))
        w = model.layers[0].weight.value
        assert np.abs(w).max() <= math.sqrt(1 / 25)

    def test_bad_arch_rejected(self):
        with pytest.raises(ValueError):
            init_model(tiny_config(arch="nope"))


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_at_init(self):
        cfg = tiny_config(lr0=0.0, weight_decay=0.0, max_epochs=1)
        data = tiny_dataset()
        model, history = train(cfg, data)
        root = np.random.SeedSequence(cfg.seed)
        init_ss = root.spawn(3)[0]
        reference = init_model(cfg, np.random.default_rng(init_ss))
        for p, q in zip(model.parameters(), reference.parameters()):
            assert np.array_equal(p.value, q.value)

    def test_same_seed_identical_history(self):
        cfg = tiny_config(max_epochs=2)
        data = tiny_dataset()
        _, h1 = train(cfg, data)
        _, h2 = train(cfg, data)
        skip = {"epoch_seconds"}
        for r1, r2 in zip(h1, h2):
            for key in r1:
                if key not in skip:
                    assert r1[key] == r2[key], key

    def test_lazy_pairs_load_once_per_epoch(self, tmp_path, monkeypatch):
        # 4 cached train grids and 4 cached test grids: each loads once per
        # epoch, by the training batches or by the epoch's evaluate, and the
        # run is the same as from the grids held in memory
        train_pairs, test = tiny_dataset(classes=2, per_class=2)
        lazy = {}
        for split, pairs in (("train", train_pairs), ("test", test)):
            lazy[split] = []
            for i, (grid, label) in enumerate(pairs):
                grid.save(tmp_path / f"{split}{i}.vox")
                lazy[split].append((tmp_path / f"{split}{i}.vox", label))
        loads, load = [], BinaryVoxelGrid.load.__func__
        monkeypatch.setattr(BinaryVoxelGrid, "load", classmethod(
            lambda cls, path: loads.append(path) or load(cls, path)))
        cfg = tiny_config(max_epochs=2)
        lazy_model, lazy_history = train(cfg, (LazyGridList(lazy["train"]),
                                               LazyGridList(lazy["test"])))
        paths = [path for split in lazy.values() for path, _ in split]
        assert sorted(loads) == sorted(2 * paths)
        model, history = train(cfg, (train_pairs, test))
        for row, lazy_row in zip(history, lazy_history):
            del row["epoch_seconds"], lazy_row["epoch_seconds"]
        assert history == lazy_history
        for p, q in zip(model.parameters(), lazy_model.parameters()):
            assert np.array_equal(p.value, q.value)

    def test_history_rows_complete(self):
        cfg = tiny_config(max_epochs=2)
        model, history = train(cfg, tiny_dataset())
        assert len(history) == 2
        for row in history:
            assert set(row) >= {"epoch", "lr", "train_loss", "train_acc",
                                "test_acc", "epoch_seconds"}
            assert np.isfinite(row["train_loss"])

    def test_higher_initial_threshold_spikes_less_in_first_epoch(self):
        data = tiny_dataset(seed=2)
        low, _ = train(tiny_config(b_init=0.3, max_epochs=1), data)
        spikes = {}
        for b_init in (0.3, 0.6):
            _, history = train(tiny_config(b_init=b_init, max_epochs=1), data)
            spikes[b_init] = history[0]["spikes"]
        assert spikes[0.6] < spikes[0.3]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(tiny_config(), ([], []))

    def test_non_finite_loss_aborts_naming_epoch_and_batch(self):
        # after one update at lr0 = 1e8 the next batch's softmax gives its
        # labels probability 0: an infinite loss
        cfg = tiny_config(lr0=1e8, batch_size=3, max_epochs=3)
        with pytest.raises(FloatingPointError, match=r"^epoch 0, batch 1: "):
            train(cfg, tiny_dataset(per_class=2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rates", [
        # lr0 * weight_decay overflows to inf: the decoupled decay leaves the
        # weights infinite or nan from a finite loss and gradient norm
        dict(lr0=1e200, weight_decay=1e200),
        # finite weights near 1e308, which a float32 checkpoint saves as inf
        dict(lr0=1e308),
    ])
    def test_non_finite_update_aborts_before_a_checkpoint(self, tmp_path, rates):
        # the one batch is the epoch's last, so nothing else would notice
        cfg = tiny_config(batch_size=9, max_epochs=1, **rates)
        ckpt = tmp_path / "model.ckpt"
        with pytest.raises(FloatingPointError, match=r"^epoch 0, batch 0: the "
                           r"update left conv0\.weight non-finite in float32$"):
            train(cfg, tiny_dataset(), checkpoint_path=ckpt)
        assert not ckpt.exists()

    def test_infinite_clip_norm_is_valid_and_never_clips(self):
        cfg = tiny_config(grad_clip_norm=math.inf)
        g = np.array([30.0, 40.0])
        assert clip_grad_norm([g], cfg.grad_clip_norm) == 50.0
        assert g.tolist() == [30.0, 40.0]

    @pytest.mark.parametrize("bad", [dict(dropout_p=1.0), dict(dropout_p=-0.1),
                                     dict(arch="4xx5-4")])
    def test_config_validated_at_construction(self, bad):
        with pytest.raises(ValueError):
            tiny_config(**bad)


class TestBatches:
    def test_batches_follow_order_and_keep_the_tail(self):
        pairs = [(f"g{i}", i % 3) for i in range(7)]
        order = [6, 0, 5, 1, 4, 2, 3]
        got = list(_batches(pairs, 3, order))
        assert [grids for grids, _ in got] == [["g6", "g0", "g5"],
                                               ["g1", "g4", "g2"], ["g3"]]
        assert [labels.tolist() for _, labels in got] == [[0, 0, 2],
                                                          [1, 1, 2], [0]]


class TestEvaluate:
    def test_constant_predictor_on_its_class(self):
        rng = np.random.default_rng(4)
        model = make_model(rng, (16, 16), [(2, "sparse", 3)], 3, b=50.0)
        model.readout.bias.value[...] = np.array([0.0, 5.0, 0.0])
        _, test = tiny_dataset()
        pairs = [(g, 1) for g, _ in test]
        assert evaluate(model, pairs, 6) == 1.0

    def test_invariant_to_order_and_batching(self):
        rng = np.random.default_rng(5)
        model = make_model(rng, (16, 16), [(2, "sparse", 3)], 3, b=0.1,
                           weight_scale=0.5)
        _, test = tiny_dataset(seed=3)
        a = evaluate(model, test, 6, batch_size=2)
        b = evaluate(model, test, 6, batch_size=5)
        c = evaluate(model, list(reversed(test)), 6, batch_size=3)
        assert a == b == c


class TestSparsityAudit:
    def test_silent_network_counts_zero(self):
        rng = np.random.default_rng(6)
        model = make_model(rng, (16, 16), [(2, "sparse", 3), (2, "sparse", 3)],
                           3, b=100.0)
        _, test = tiny_dataset()
        audit = sparsity_audit(model, test, 6)
        assert audit.total == 0.0
        assert all(count == 0.0 for _, count, _ in audit.layers)

    def test_counts_match_dense_reference(self):
        rng = np.random.default_rng(7)
        model = make_model(rng, (16, 16), [(2, "sparse", 3), (3, "sparse", 3)],
                           3, b=0.05, weight_scale=0.8)
        _, test = tiny_dataset(seed=4)
        audit = sparsity_audit(model, test, 6, batch_size=4)
        want = np.zeros(2)
        for grid, _ in test:
            _, trains = simulate_reference(model, grid, 6)
            for li in range(2):
                want[li] += sum(int(np.count_nonzero(s)) for s in trains[li])
        want /= len(test)
        got = np.array([count for _, count, _ in audit.layers])
        np.testing.assert_allclose(got, want, atol=1e-9)
        assert abs(audit.total - want.sum()) < 1e-9

    def test_total_equals_sum_of_layers(self):
        rng = np.random.default_rng(8)
        model = make_model(rng, (16, 16), [(2, "sparse", 3), (3, "sparse", 3)],
                           3, b=0.05, weight_scale=0.8)
        _, test = tiny_dataset(seed=5)
        audit = sparsity_audit(model, test, 6)
        assert abs(audit.total - sum(c for _, c, _ in audit.layers)) < 1e-12


    def test_batch_size_zero_means_one(self):
        rng = np.random.default_rng(8)
        model = make_model(rng, (16, 16), [(2, "sparse", 3), (3, "sparse", 3)],
                           3, b=0.05, weight_scale=0.8)
        _, test = tiny_dataset(seed=5)
        zero = sparsity_audit(model, test, 6, batch_size=0)
        assert zero.layers == sparsity_audit(model, test, 6, batch_size=1).layers

class TestAnytime:
    def test_rejects_zero_horizon(self, monkeypatch):
        rng = np.random.default_rng(9)
        model = make_model(rng, (16, 16), [(2, "sparse", 3)], 3)
        test = tiny_dataset()[1]
        with pytest.raises(ValueError):
            anytime_eval(model, test, [0, 5])
        # every horizon is checked before the first evaluation (6-bin grids)
        monkeypatch.setattr("spikesparse.training.evaluate", None)
        with pytest.raises(ValueError, match="horizon 7 "):
            anytime_eval(model, test, [2, 7])

    def test_rejects_fractional_horizons(self, monkeypatch):
        # a horizon that operator.index refuses is refused by name, before
        # any evaluation, rather than rounded down to a row of its own
        rng = np.random.default_rng(9)
        model = make_model(rng, (16, 16), [(2, "sparse", 3)], 3)
        test = tiny_dataset()[1]
        monkeypatch.setattr("spikesparse.training.evaluate", None)
        for horizons, bad in (([2.5, 3.9], "2.5"), ([2, 3.0], "3.0")):
            with pytest.raises(ValueError,
                               match=f"^evaluation horizon {bad} is not an integer$"):
                anytime_eval(model, test, horizons)

    def test_curve_shape(self):
        rng = np.random.default_rng(10)
        model = make_model(rng, (16, 16), [(2, "sparse", 3)], 3, b=0.1,
                           weight_scale=0.5)
        curve = anytime_eval(model, tiny_dataset()[1], [2, 4, 6])
        assert [t for t, _ in curve] == [2, 4, 6]
        assert all(0.0 <= acc <= 1.0 for _, acc in curve)


class TestStudy:
    def test_emits_both_variants(self):
        cfg = tiny_config(max_epochs=1, batch_size=6)
        rows = stride_vs_pool_study(cfg, tiny_dataset(seed=6))
        assert [r["variant"] for r in rows] == ["stride", "pool"]
        for row in rows:
            assert 0.0 <= row["accuracy"] <= 1.0
            assert row["total_spikes"] >= 0.0

    def test_one_evaluation_pass_per_variant(self, monkeypatch):
        from spikesparse import training
        cfg = tiny_config(max_epochs=1, batch_size=6, eval_batch=4)
        data = tiny_dataset(seed=6)
        models, passes, in_train = [], [], [False]
        real_train, real_run = training.train, training.run_timesteps

        def train_spy(*args, **kwargs):
            in_train[0] = True
            model, history = real_train(*args, **kwargs)
            in_train[0] = False
            models.append(model)
            return model, history

        def run_spy(*args, **kwargs):
            if not in_train[0]:
                passes.append(len(models))
            return real_run(*args, **kwargs)

        monkeypatch.setattr(training, "train", train_spy)
        monkeypatch.setattr(training, "run_timesteps", run_spy)
        rows = training.stride_vs_pool_study(cfg, data)
        monkeypatch.undo()
        test = data[1]
        assert passes == [1, 1, 2, 2]   # 6 test samples in batches of 4
        for row, model in zip(rows, models):
            assert row["accuracy"] == evaluate(model, test, 6, batch_size=4)
            assert row["total_spikes"] == sparsity_audit(model, test, 6,
                                                         batch_size=4).total

    def test_variants_share_output_geometry(self):
        stride = init_model(tiny_config(variant="stride"))
        pool = init_model(tiny_config(variant="pool"))
        assert stride.feature_geometry() == pool.feature_geometry()


class TestCheckpoint:
    def test_round_trip_preserves_behavior(self, tmp_path):
        cfg = tiny_config(max_epochs=1)
        data = tiny_dataset(seed=7)
        model, _ = train(cfg, data)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == model.arch
        # float32 storage: parameters match to f32 precision
        for p, q in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_allclose(p.value, q.value, atol=1e-6, rtol=1e-6)
        a = evaluate(model, data[1], cfg.t_train)
        b = evaluate(loaded, data[1], cfg.t_train)
        assert abs(a - b) < 0.35  # same predictions up to f32 rounding

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model("2sc3-2", (16, 16)), path)
        saved = path.read_bytes()
        model = build_model("2sc3-2", (16, 16), rng=np.random.default_rng(1))

        def failing_parameters():   # raises after yielding its first array
            yield model.layers[0].weight
            raise OSError("write interrupted")

        model.parameters = failing_parameters
        with pytest.raises(OSError, match="interrupted"):
            save_checkpoint(model, path)
        assert path.read_bytes() == saved
        assert load_checkpoint(path).arch == "2sc3-2"

    def test_set_weights_reach_the_parameter_and_the_checkpoint(self, tmp_path):
        model = build_model("2sc3-2", (16, 16))
        layer = model.layers[0]
        w = np.full(layer.weight.value.shape, 0.25)
        layer.kernel.set_weights(w)
        assert np.array_equal(layer.weight.value, w)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        assert np.array_equal(load_checkpoint(path).layers[0].weight.value, w)
