from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conv_oracle, coord_map_mask, random_sparse
from spikesparse.sparse import (
    ConvKernel2D,
    ShapeError,
    SparseTensor2D,
    _conv_sites,
    _conv_sites_grads,
    _pool_sites,
    count_nonzero,
    dense_conv2d,
    dense_max_pool2d,
    dense_max_pool2d_backward,
    densify,
    out_coords,
    sparse_conv2d,
    sparse_max_pool2d,
    sparsify,
)


class TestOutCoords:
    def test_floor_division(self):
        out = out_coords(np.array([[0, 5, 3]]), 2)
        assert out.tolist() == [[0, 2, 1]]

    def test_merges_colliding_sites(self):
        out = out_coords(np.array([[0, 4, 4], [0, 5, 5]]), 2)
        assert out.tolist() == [[0, 2, 2]]

    def test_stride_one_is_identity(self):
        rng = np.random.default_rng(0)
        coords = np.unique(rng.integers(0, 10, size=(20, 3)), axis=0)
        out = out_coords(coords, 1)
        assert sorted(map(tuple, out)) == sorted(map(tuple, coords))


class TestSparseConv:
    def test_single_center_nonzero_reads_center_weight(self):
        x = SparseTensor2D(np.array([[0, 2, 2]]), np.array([[1.0]]), 1, 5, 5, 1)
        rng = np.random.default_rng(1)
        kern = ConvKernel2D(rng.standard_normal((3, 1, 3, 3)), stride=1)
        out = sparse_conv2d(x, kern)
        # only the centre tap of the only mapped output site lands on the nonzero
        assert out.coords.tolist() == [[0, 2, 2]]
        np.testing.assert_allclose(out.values[0], kern.weights[:, 0, 1, 1])

    def test_empty_input_gives_empty_output(self):
        x = SparseTensor2D.empty(1, 8, 8, 2)
        kern = ConvKernel2D(np.ones((4, 2, 3, 3)), stride=2)
        out = sparse_conv2d(x, kern)
        assert out.n_sites == 0
        assert (out.height, out.width) == (4, 4)

    def test_channel_mismatch_raises(self):
        x = SparseTensor2D(np.array([[0, 0, 0]]), np.array([[1.0, 2.0]]), 1, 4, 4, 2)
        kern = ConvKernel2D(np.ones((1, 3, 3, 3)))
        with pytest.raises(ShapeError):
            sparse_conv2d(x, kern)

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_masked_dense_oracle(self, k, stride):
        rng = np.random.default_rng(k * 10 + stride)
        for _ in range(25):
            h = int(rng.integers(3, 17))
            w = int(rng.integers(3, 17))
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            batch = int(rng.integers(1, 3))
            x = random_sparse(rng, batch, h, w, c_in, density=0.15)
            kern = ConvKernel2D(rng.standard_normal((c_out, c_in, k, k)), stride)
            got = densify(sparse_conv2d(x, kern))
            ref = conv_oracle(densify(x), kern.weights, stride)
            ref *= coord_map_mask(x, stride, ref.shape[2], ref.shape[3])
            assert np.max(np.abs(got - ref), initial=0.0) < 1e-6

    def test_output_sites_never_exceed_input_sites(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = random_sparse(rng, 2, 12, 12, 2, density=0.2)
            kern = ConvKernel2D(rng.standard_normal((3, 2, 3, 3)),
                                stride=int(rng.integers(1, 3)))
            assert sparse_conv2d(x, kern).n_sites <= x.n_sites

    def test_linear_in_values_on_shared_coordinates(self):
        rng = np.random.default_rng(8)
        x = random_sparse(rng, 1, 10, 10, 3, density=0.2)
        y_vals = rng.standard_normal(x.values.shape)
        y = SparseTensor2D(x.coords, y_vals, 1, 10, 10, 3)
        s = SparseTensor2D(x.coords, x.values + y_vals, 1, 10, 10, 3)
        kern = ConvKernel2D(rng.standard_normal((2, 3, 5, 5)), stride=2)
        lhs = densify(sparse_conv2d(s, kern))
        rhs = densify(sparse_conv2d(x, kern)) + densify(sparse_conv2d(y, kern))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestMaxPool:
    def test_window_max(self):
        x = SparseTensor2D(np.array([[0, 0, 0], [0, 1, 1]]),
                           np.array([[1.0], [3.0]]), 1, 2, 2, 1)
        out = sparse_max_pool2d(x)
        assert out.coords.tolist() == [[0, 0, 0]]
        assert out.values.tolist() == [[3.0]]

    def test_empty(self):
        out = sparse_max_pool2d(SparseTensor2D.empty(1, 4, 4, 2))
        assert out.n_sites == 0 and (out.height, out.width) == (2, 2)

    def test_matches_dense_oracle_on_occupied_windows(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            h = int(rng.integers(2, 13))
            w = int(rng.integers(2, 13))
            c = int(rng.integers(1, 4))
            x = random_sparse(rng, 2, h, w, c, density=0.25)
            out = sparse_max_pool2d(x)
            # oracle: absent entries are -inf so only present entries compete
            dense = np.full((2, c, h + h % 2, w + w % 2), -np.inf)
            dense[x.coords[:, 0], :, x.coords[:, 2], x.coords[:, 1]] = x.values
            ref = dense.reshape(2, c, -1, 2, dense.shape[3] // 2, 2).max(axis=(3, 5))
            occupied = set(map(tuple, out_coords(x.coords, 2).tolist()))
            assert set(map(tuple, out.coords.tolist())) <= occupied
            got = {tuple(cc): vv for cc, vv in zip(out.coords.tolist(), out.values)}
            for b, xx, yy in occupied:
                want = ref[b, :, yy, xx]
                have = got.get((b, xx, yy), np.zeros(c))
                # pruned rows must have been exactly zero vectors
                np.testing.assert_allclose(np.where(np.isinf(want), 0.0, want)
                                           if (b, xx, yy) not in got else want, have)


class TestDensifyRoundTrip:
    def test_empty_tensor_is_all_zeros(self):
        assert not densify(SparseTensor2D.empty(1, 3, 3, 2)).any()

    def test_single_entry(self):
        x = SparseTensor2D(np.array([[0, 1, 2]]), np.array([[5.0]]), 1, 4, 4, 1)
        d = densify(x)
        assert d[0, 0, 2, 1] == 5.0 and np.count_nonzero(d) == 1

    def test_round_trip_preserves_entries(self):
        rng = np.random.default_rng(3)
        x = random_sparse(rng, 3, 9, 7, 4, density=0.3)
        back = sparsify(densify(x))
        assert back.equals(x)


class TestCountNonzero:
    def test_empty(self):
        assert count_nonzero(SparseTensor2D.empty(1, 8, 8, 4)) == (0, 0.0)

    def test_per_scalar_not_per_site(self):
        x = SparseTensor2D(np.array([[0, 0, 0]]),
                           np.array([[1.0, 0.0, 2.0, 0.0]]), 1, 8, 8, 4)
        count, _ = count_nonzero(x)
        assert count == 2

    def test_dense_ones_fraction_is_one(self):
        x = sparsify(np.ones((1, 2, 3, 3)))
        assert count_nonzero(x) == (18, 1.0)


class TestTensorInvariants:
    def test_zero_vectors_are_pruned(self):
        x = SparseTensor2D(np.array([[0, 0, 0], [0, 1, 0]]),
                           np.array([[0.0, 0.0], [1.0, 0.0]]), 1, 2, 2, 2)
        assert x.n_sites == 1

    def test_canonical_iteration_order(self):
        coords = np.array([[1, 0, 1], [0, 3, 2], [0, 1, 0], [0, 2, 0]])
        x = SparseTensor2D(coords, np.ones((4, 1)), 2, 4, 4, 1)
        assert x.coords.tolist() == [[0, 1, 0], [0, 2, 0], [0, 3, 2], [1, 0, 1]]
        again = SparseTensor2D(coords[::-1], np.ones((4, 1)), 2, 4, 4, 1)
        assert np.array_equal(x.coords, again.coords)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ShapeError):
            SparseTensor2D(np.array([[0, 4, 0]]), np.array([[1.0]]), 1, 4, 4, 1)

    def test_duplicates_rejected(self):
        with pytest.raises(ShapeError):
            SparseTensor2D(np.array([[0, 1, 1], [0, 1, 1]]),
                           np.ones((2, 1)), 1, 4, 4, 1)

    def test_dump_format(self):
        x = SparseTensor2D(np.array([[0, 2, 1]]), np.array([[1.5, -2.0]]), 1, 4, 4, 2)
        assert x.dump() == "(0,2,1): [1.5, -2.0]"


class TestConvKernel:
    def test_validation(self):
        with pytest.raises(ShapeError):
            ConvKernel2D(np.ones((2, 1, 4, 4)))  # even k
        with pytest.raises(ShapeError):
            ConvKernel2D(np.ones((2, 1, 3, 3)), stride=3)

    def test_norm_cache_refresh(self):
        kern = ConvKernel2D(np.ones((1, 1, 3, 3)))
        assert kern.wnorm2 == 9.0
        kern.set_weights(2 * np.ones((1, 1, 3, 3)))
        assert kern.wnorm2 == 36.0
        kern.weights[:] = 0.0
        kern.refresh_norm()
        assert kern.wnorm2 == 0.0


class TestDensePath:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_dense_conv_matches_oracle(self, stride):
        rng = np.random.default_rng(21 + stride)
        for _ in range(10):
            xd = rng.standard_normal((2, 3, int(rng.integers(3, 12)),
                                      int(rng.integers(3, 12))))
            w = rng.standard_normal((4, 3, 5, 5))
            np.testing.assert_allclose(dense_conv2d(xd, w, stride),
                                       conv_oracle(xd, w, stride), atol=1e-10)

    def test_dense_pool_and_backward(self):
        rng = np.random.default_rng(30)
        xd = rng.standard_normal((2, 3, 6, 5))
        out, winners = dense_max_pool2d(xd)
        assert out.shape == (2, 3, 3, 3)
        # forward: plain window max
        for b in range(2):
            for c in range(3):
                for oy in range(3):
                    for ox in range(3):
                        window = xd[b, c, 2 * oy:2 * oy + 2, 2 * ox:2 * ox + 2]
                        assert out[b, c, oy, ox] == window.max()
        # backward routes each output gradient to exactly one input cell
        g = rng.standard_normal(out.shape)
        gx = dense_max_pool2d_backward(g, winners, 6, 5)
        assert gx.shape == xd.shape
        np.testing.assert_allclose(gx.sum(), g.sum())
        assert np.count_nonzero(gx) <= g.size


# ---------------------------------------------------------------------------
# kernel map vs the per-tap searchsorted loop it replaced (bit-identical)

def _loop_tap_matches(out_c, in_keys, height, width, dx, dy, stride, pad):
    ix = stride * out_c[:, 1] + dx - pad
    iy = stride * out_c[:, 2] + dy - pad
    valid = (ix >= 0) & (ix < width) & (iy >= 0) & (iy < height)
    if not valid.any():
        return None
    q = (out_c[valid, 0] * height + iy[valid]) * width + ix[valid]
    pos = np.searchsorted(in_keys, q)
    pos_c = np.minimum(pos, len(in_keys) - 1) if len(in_keys) else pos
    hit = (pos < len(in_keys)) & (in_keys[pos_c] == q) if len(in_keys) else np.zeros(len(q), bool)
    if not hit.any():
        return None
    return np.flatnonzero(valid)[hit], pos[hit]


def _loop_conv_values(x, kernel, out_c):
    k, s = kernel.k, kernel.stride
    w = kernel.weights
    out_v = np.zeros((len(out_c), kernel.out_channels))
    for dx in range(k):
        for dy in range(k):
            m = _loop_tap_matches(out_c, x.keys(), x.height, x.width, dx, dy, s, k // 2)
            if m is not None:
                out_v[m[0]] += x.values[m[1]] @ w[:, :, dx, dy].T
    return out_v


def _loop_conv_grads(x, kernel, out_c, g_out):
    k, s = kernel.k, kernel.stride
    w = kernel.weights
    g_w, g_in = np.zeros_like(w), np.zeros_like(x.values)
    for dx in range(k):
        for dy in range(k):
            m = _loop_tap_matches(out_c, x.keys(), x.height, x.width, dx, dy, s, k // 2)
            if m is not None:
                g_w[:, :, dx, dy] += g_out[m[0]].T @ x.values[m[1]]
                g_in[m[1]] += g_out[m[0]] @ w[:, :, dx, dy]
    return g_w, g_in


def _loop_pool_winners(x, out_v):
    okeys_all = (x.coords[:, 0] * -(-x.height // 2) + x.coords[:, 2] // 2) \
        * -(-x.width // 2) + x.coords[:, 1] // 2
    _, inv = np.unique(okeys_all, return_inverse=True)
    winners = np.full(out_v.shape, x.n_sites, np.int64)
    rows = np.arange(x.n_sites)
    for c in range(x.channels):
        is_max = x.values[:, c] == out_v[inv, c]
        np.minimum.at(winners[:, c], inv[is_max], rows[is_max])
    return winners


def _loop_pool_grad(x, winners, g_out):
    g_in = np.zeros_like(x.values)
    for c in range(x.channels):
        np.add.at(g_in[:, c], winners[:, c], g_out[:, c])
    return g_in


@st.composite
def _sparse_inputs(draw, values):
    batch = draw(st.integers(1, 3))
    height, width = draw(st.integers(1, 11)), draw(st.integers(1, 11))
    channels = draw(st.integers(1, 4))
    density = draw(st.sampled_from([0.0, 0.1, 0.4, 1.0]))
    border = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((batch, height, width)) < density
    if border:
        mask[:, [0, -1], :] = True
        mask[:, :, [0, -1]] = True
    b, y, x = np.nonzero(mask)
    if values == "normal":
        vals = rng.standard_normal((len(b), channels))
    else:  # few distinct levels, so pooling windows tie
        vals = rng.integers(0, 3, (len(b), channels)).astype(np.float64)
    return SparseTensor2D(np.stack([b, x, y], axis=1), vals, batch, height, width,
                          channels), rng


class TestKernelMapMatchesTapLoop:
    @settings(max_examples=150, deadline=None)
    @given(_sparse_inputs("normal"), st.sampled_from([1, 3, 5]),
           st.sampled_from([1, 2]), st.integers(1, 4))
    def test_conv_values_and_grads_bit_identical(self, drawn, k, stride, c_out):
        x, rng = drawn
        kernel = ConvKernel2D(rng.standard_normal((c_out, x.channels, k, k)), stride)
        out_c, out_v, h_out, w_out = _conv_sites(x, kernel)
        assert np.array_equal(out_c, out_coords(x.coords, stride))
        assert (h_out, w_out) == (-(-x.height // stride), -(-x.width // stride))
        assert np.array_equal(out_v, _loop_conv_values(x, kernel, out_c))
        g_out = rng.standard_normal(out_v.shape)
        g_w, g_in = _conv_sites_grads(x, kernel, out_c, g_out)
        ref_w, ref_in = _loop_conv_grads(x, kernel, out_c, g_out)
        assert np.array_equal(g_w, ref_w) and np.array_equal(g_in, ref_in)
        g_w_only, no_in = _conv_sites_grads(x, kernel, out_c, g_out,
                                            need_input_grad=False)
        assert np.array_equal(g_w_only, ref_w) and no_in is None

    @settings(max_examples=150, deadline=None)
    @given(_sparse_inputs("levels"))
    def test_pool_winners_and_grads_bit_identical(self, drawn):
        from spikesparse import autograd
        x, rng = drawn
        out_c, out_v, winners, _, _ = _pool_sites(x)
        assert np.array_equal(winners, _loop_pool_winners(x, out_v))
        # the pool branch of backward, observed through its adjoint store
        out = SparseTensor2D(out_c, out_v, x.batch_size, -(-x.height // 2),
                             -(-x.width // 2), x.channels, validate=False,
                             canonical=True, prune=False)
        g_out = rng.standard_normal(out_v.shape)
        seen = {}

        class Store(autograd._AdjointStore):
            def add(self, obj, g):
                if obj is x:
                    seen["g_in"] = np.array(g)
                super().add(obj, g)

        tape = autograd.GradientTape()
        tape.record_pool(x, out, winners, None)
        tape.record_seed(out, g_out)
        with patch.object(autograd, "_AdjointStore", Store):
            autograd.backward(tape)
        assert np.array_equal(seen["g_in"], _loop_pool_grad(x, winners, g_out))
