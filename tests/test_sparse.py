import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import conv_oracle, conv_oracle_grads, coord_map_mask, random_sparse
from spikesparse.sparse import (
    ConvKernel2D,
    ShapeError,
    SparseTensor2D,
    _conv_sites,
    _conv_sites_grads,
    _flat_sites,
    _grid_sites,
    _pool_sites,
    _pool_sites_grads,
    _site_keys,
    _step_index,
    count_nonzero,
    dense_conv2d,
    densify,
    out_coords,
    sparse_conv2d,
    sparse_max_pool2d,
    sparsify,
)


@st.composite
def _sparse_inputs(draw, values, max_channels=4):
    batch = draw(st.integers(1, 3))
    height, width = draw(st.integers(1, 11)), draw(st.integers(1, 11))
    channels = draw(st.integers(1, max_channels))
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


def _every_site(x):
    """``x`` stored at every site of its grid, absent sites as zero rows, as
    ``c`` layers and soft runs hand it on."""
    sites = _grid_sites(x.batch_size, x.height, x.width)
    return SparseTensor2D._canonical(
        sites, densify(x).transpose(0, 2, 3, 1).reshape(-1, x.channels),
        x.batch_size, x.height, x.width, x.channels)


def _unique_out_coords(coords, stride):
    """Output sites by hash deduplication and a lexsort into canonical
    ``(b, y, x)`` order, independent of the library's occupancy map."""
    out = np.asarray(coords, dtype=np.int64).reshape(-1, 3).copy()
    out[:, 1:] //= stride
    out = np.unique(out, axis=0)
    return out[np.lexsort((out[:, 1], out[:, 2], out[:, 0]))]


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

    def test_negative_coordinate_rejected(self):
        for bad in ([[0, -1, 2]], [[-1, 0, 0]], [[0, 3, -4], [0, 1, 1]]):
            with pytest.raises(ShapeError):
                out_coords(np.array(bad), 2)

    @settings(max_examples=100, deadline=None)
    @given(_sparse_inputs("levels"))
    def test_matches_unique_oracle(self, drawn):
        x, rng = drawn
        shuffled = rng.permutation(x.coords)
        for stride in (1, 2):
            assert np.array_equal(out_coords(shuffled, stride),
                                  _unique_out_coords(x.coords, stride))
        assert np.array_equal(_pool_sites(x)[0], _unique_out_coords(x.coords, 2))


def _separate_site_index(shape, *coords, stride=1):
    """The site index as separate builds made it: a bool occupancy map of
    the sites ``(b, x // stride, y // stride)`` of each ``(b, x, y)`` array,
    their union in canonical order, and an intp row map giving each array's
    rows in that union."""
    sites = [(c[:, 0], c[:, 2] // stride, c[:, 1] // stride) for c in coords]
    occupied = np.zeros(shape, bool)
    for site in sites:
        occupied[site] = True
    flat = np.flatnonzero(occupied)
    b, y, x = np.unravel_index(flat, shape)
    row = np.empty(shape, np.intp)
    row.reshape(-1)[flat] = np.arange(len(flat))
    return np.stack([b, x, y], axis=1), [row[site] for site in sites]


def _separate_kernel_map(out_c, x, k, stride):
    """The kernel map as a separate build made it, through a 3D padded
    site->row grid of ``x``."""
    pad = k // 2
    hp, wp = x.height + 2 * pad, x.width + 2 * pad
    site_row = np.full((x.batch_size, hp, wp), x.n_sites, np.int32)
    site_row[x.coords[:, 0], x.coords[:, 2] + pad, x.coords[:, 1] + pad] = \
        np.arange(x.n_sites, dtype=np.int32)
    corner = (out_c[:, 0] * hp + stride * out_c[:, 2]) * wp + stride * out_c[:, 1]
    taps = (np.arange(k)[:, None] + wp * np.arange(k)).reshape(-1, 1)
    return site_row.ravel()[taps + corner]


class TestStepIndex:
    """`_step_index` builds once what an `sc` step used to build three
    times: the conv's output sites, the LIF site list with the row of each
    output site and pending reset in it, and the kernel map."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9),
           st.sampled_from([0.0, 0.15, 0.5]), st.sampled_from([1, 3, 5]),
           st.sampled_from([1, 2]),
           st.sampled_from([None, "empty", "overlapping", "disjoint"]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_separate_builds(self, batch, height, width, density, k,
                                     stride, resets, every_site, seed):
        rng = np.random.default_rng(seed)
        b, y, xs = np.nonzero(rng.random((batch, height, width)) < density)
        x = SparseTensor2D(np.stack([b, xs, y], axis=1), np.ones((len(b), 1)),
                           batch, height, width)
        shape = (batch, -(-height // stride), -(-width // stride))
        out_c, _ = _separate_site_index(shape, x.coords, stride=stride)
        # pending resets on the output grid, canonical as a spike tensor's
        occupied = np.zeros(shape, bool)
        occupied[out_c[:, 0], out_c[:, 2], out_c[:, 1]] = True
        some = rng.random(shape) < 0.4
        marks = {None: None, "empty": np.zeros(shape, bool),
                 "overlapping": some | (occupied & (rng.random(shape) < 0.5)),
                 "disjoint": some & ~occupied}[resets]
        lists = [out_c]
        if marks is not None:
            rb, ry, rx = np.nonzero(marks)
            lists.append(np.stack([rb, rx, ry], axis=1))
        if every_site:   # a layer at b <= 0
            lists.append(_grid_sites(*shape))
        sites, rows = _separate_site_index(shape, *lists)

        resets = None if marks is None else _site_keys(lists[1], *shape[1:])
        index = _step_index(x, k, stride, resets, every_site)
        assert np.array_equal(index.out_c, out_c)
        assert np.array_equal(index.sites, sites)
        assert np.array_equal(index.keys, _site_keys(sites, *shape[1:]))
        assert np.array_equal(index.out_rows, rows[0])
        assert np.array_equal(index.reset_rows,
                              rows[1] if marks is not None else np.empty(0))
        kmap = _separate_kernel_map(out_c, x, k, stride)
        assert index.kmap.dtype == np.int32 and np.array_equal(index.kmap, kmap)
        assert _step_index(x, stride=stride).kmap is None


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


    @pytest.mark.parametrize("height, width", [(1, 1), (1, 4), (3, 5), (5, 4),
                                               (6, 7), (8, 8)])
    @pytest.mark.parametrize("values", ["normal", "levels"])
    def test_every_site_matches_window_loop(self, height, width, values):
        # an every-site input pools by windows of its canonical rows; odd
        # sides leave partial windows, and few value levels make ties
        rng = np.random.default_rng(7 * height + width)
        batch, channels = 2, 3
        shape = (batch * height * width, channels)
        vals = (rng.standard_normal(shape) if values == "normal"
                else rng.integers(0, 2, shape).astype(np.float64))
        x = SparseTensor2D._canonical(_grid_sites(batch, height, width), vals,
                                      batch, height, width, channels)
        out_c, out_v, winners, h_out, w_out = _pool_sites(x)
        assert out_c is _grid_sites(batch, h_out, w_out)
        want_v, want_w = _window_loop_pool(x)
        assert np.array_equal(out_v, want_v) and np.array_equal(winners, want_w)


def _window_loop_pool(x):
    """Max pool of an every-site tensor by a loop over the 2x2 windows: per
    channel, the largest value of the window's sites and the first of them,
    in canonical order, that holds it."""
    h_out, w_out = -(-x.height // 2), -(-x.width // 2)
    out_v = np.empty((x.batch_size * h_out * w_out, x.channels))
    winners = np.empty(out_v.shape, np.int64)
    for b in range(x.batch_size):
        for oy in range(h_out):
            for ox in range(w_out):
                o = (b * h_out + oy) * w_out + ox
                rows = [(b * x.height + y) * x.width + xx
                        for y in (2 * oy, 2 * oy + 1) if y < x.height
                        for xx in (2 * ox, 2 * ox + 1) if xx < x.width]
                for c in range(x.channels):
                    vals = [x.values[r, c] for r in rows]
                    out_v[o, c] = max(vals)
                    winners[o, c] = rows[vals.index(max(vals))]
    return out_v, winners


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


class TestSiteKeys:
    def test_flat_sites_decodes_site_keys(self):
        rng = np.random.default_rng(11)
        x = random_sparse(rng, 3, 9, 7, 1, density=0.4)
        keys = _site_keys(x.coords, 9, 7)
        assert np.all(np.diff(keys) > 0)
        assert np.array_equal(_flat_sites(keys, 9, 7), x.coords)

    def test_stride_two_keys_halve_the_columns(self):
        rng = np.random.default_rng(12)
        x = random_sparse(rng, 2, 10, 8, 1, density=0.5)
        halved = x.coords // (1, 2, 2)
        assert np.array_equal(_site_keys(x.coords, 5, 4, stride=2),
                              _site_keys(halved, 5, 4))


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

    def test_whole_float_coordinates_are_sites(self):
        x = SparseTensor2D([[1.0, 3.0, 0.0], [0.0, 1.0, 2.0]], [1.0, 2.0], 2, 4, 4)
        assert x.coords.dtype == np.int64
        assert x.coords.tolist() == [[0, 1, 2], [1, 3, 0]]
        assert x.keys() is x.keys()
        assert x.keys().tolist() == [9, 19]

    def test_dump_format(self):
        x = SparseTensor2D(np.array([[0, 2, 1]]), np.array([[1.5, -2.0]]), 1, 4, 4, 2)
        assert x.dump() == "(0,2,1): [1.5, -2.0]"


@pytest.mark.parametrize("call, message", [
    (lambda: SparseTensor2D([[1, 0, 0]], [[1.0]], 1, 4, 4), "batch index out of range"),
    (lambda: SparseTensor2D([[-1, 0, 0]], [[1.0]], 1, 4, 4), "batch index out of range"),
    (lambda: SparseTensor2D([[0, 0, 0], [0, 1, 0]], [[1.0]], 1, 4, 4),
     "2 coordinates but 1 value rows"),
    (lambda: SparseTensor2D(np.zeros((0, 3)), np.zeros((0, 0)), 1, 4, 4),
     "channel count cannot be inferred from empty values"),
    (lambda: SparseTensor2D([[0, 0, 0], [0, 1, 0]], np.arange(1., 9.).reshape(4, 2),
                            1, 2, 2, channels=4),
     "values of shape (4, 2) do not hold 4-channel rows"),
    (lambda: SparseTensor2D([[0, 0, 0]], [1.0, 2.0], 1, 2, 2, channels=2),
     "values of shape (2,) do not hold 2-channel rows"),
    (lambda: SparseTensor2D([[0, 1.7, 2]], [1.0], 1, 4, 4),
     "site coordinates must be whole numbers"),
    (lambda: SparseTensor2D([[0, np.nan, 2]], [1.0], 1, 4, 4),
     "site coordinates must be whole numbers"),
    (lambda: SparseTensor2D([[0, 0, 0]], [1.0], 0, 4, 4),
     "batch_size must be a positive whole number, got 0"),
    (lambda: SparseTensor2D([[0, 0, 0]], [1.0], -1, 4, 4),
     "batch_size must be a positive whole number, got -1"),
    (lambda: SparseTensor2D([[0, 0, 0]], [1.0], 1, 0, 4),
     "height must be a positive whole number, got 0"),
    (lambda: SparseTensor2D([[0, 0, 0]], [1.0], 1, 4, 0),
     "width must be a positive whole number, got 0"),
    # row 4 is below 4.5 but outside a grid of 4 rows
    (lambda: SparseTensor2D([[0, 3, 4]], [1.0], 1, 4.5, 4),
     "height must be a positive whole number, got 4.5"),
    (lambda: SparseTensor2D(np.zeros((0, 3)), np.zeros((0, 1)), 1, 4, 4, channels=0),
     "channels must be a positive whole number, got 0"),
    (lambda: ConvKernel2D(np.ones((1, 1, 3))), "kernel weights must be [out][in][k][k]"),
    (lambda: ConvKernel2D(np.ones((1, 1, 3, 5))), "kernel weights must be [out][in][k][k]"),
    (lambda: ConvKernel2D(np.ones((1, 1, 3, 3))).set_weights(np.ones((1, 1, 5, 5))),
     "kernel shape cannot change"),
    (lambda: out_coords(np.zeros((1, 3), np.int64), 0), "stride must be >= 1"),
    (lambda: sparsify(np.ones((1, 4, 4))), "expected a [B, C, H, W] array"),
    (lambda: dense_conv2d(np.ones((1, 2, 4, 4)), np.ones((1, 1, 3, 3))),
     "input has 2 channels, kernel expects 1"),
])
def test_input_checks_name_what_they_refuse(call, message):
    with pytest.raises(ShapeError) as e:
        call()
    assert str(e.value) == message


class TestConvKernel:
    def test_validation(self):
        with pytest.raises(ShapeError):
            ConvKernel2D(np.ones((2, 1, 4, 4)))  # even k
        with pytest.raises(ShapeError):
            ConvKernel2D(np.ones((2, 1, 3, 3)), stride=3)

    def test_norm_follows_weights(self):
        kern = ConvKernel2D(np.ones((1, 1, 3, 3)))
        assert kern.wnorm2 == 9.0
        w = kern.weights
        kern.set_weights(2 * np.ones((1, 1, 3, 3)))
        assert kern.weights is w and kern.wnorm2 == 36.0
        kern.weights[:] = 0.0
        assert kern.wnorm2 == 0.0
        kern.weights[0, 0, 1, 2] = -3.0
        assert kern.wnorm2 == 9.0


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


# the stacked conv gradients round otherwise than the per-tap loop in the last
# bits: a tap's product runs over rows some of which read the zero pad row
GRAD_RTOL = 1e-13


def _assert_near_loop(got, ref):
    """``got`` within ``GRAD_RTOL`` of the largest entry of ``ref``; exactly
    zero where ``ref`` is all zero."""
    assert got.shape == ref.shape
    bound = GRAD_RTOL * np.abs(ref).max(initial=0.0)
    assert np.abs(got - ref).max(initial=0.0) <= bound


def _tap_reach(x, k, stride, out_c):
    """Which rows of ``out_c`` some tap reaches, and which rows of ``x`` some
    tap of some output site reads."""
    out_reached, in_reached = np.zeros(len(out_c), bool), np.zeros(x.n_sites, bool)
    for dx in range(k):
        for dy in range(k):
            m = _loop_tap_matches(out_c, x.keys(), x.height, x.width, dx, dy,
                                  stride, k // 2)
            if m is not None:
                out_reached[m[0]] = in_reached[m[1]] = True
    return out_reached, in_reached


def _events(batch, hw, density, seed, unreached=False):
    """One bin of +-1 events, as layer 0 reads them, and an rng for the
    kernel; with ``unreached`` every grid's site (1, 1) holds an event and
    (0, 0) none, so a k = 1 stride-2 tap reaches no site of output (0, 0)."""
    rng = np.random.default_rng(seed)
    mask = rng.random((batch, hw, hw)) < density
    if unreached:
        mask[:, 1, 1], mask[:, 0, 0] = True, False
    b, y, x = np.nonzero(mask)
    return SparseTensor2D(np.stack([b, x, y], axis=1), rng.choice([-1.0, 1.0], len(b)),
                          batch, hw, hw, 1), rng


_INPUT_FORMS = (_sparse_inputs("normal", max_channels=8), st.sampled_from([1, 3, 5]),
                st.sampled_from([1, 2]), st.integers(1, 4), st.booleans(), st.booleans())


class TestKernelMapMatchesTapLoop:
    # the input form is drawn apart from the output sites, so an every-site
    # output is also computed over a sparse input, as a `c` layer after events
    # or after an `sc` layer does
    @settings(max_examples=150, deadline=None)
    @given(*_INPUT_FORMS)
    # layer 0 at one input channel: the desk geometry (B=16, 64x64, 2sc5), a
    # B=1 input, an every-site output over sparse events, k=1 at stride 2
    # (an output row that no tap reaches), one output row of one filter, and
    # one output row of two filters, whose channels-first products lie tap
    # after tap
    @example(_events(16, 64, 0.03, 1), 5, 2, 2, False, False)
    @example(_events(1, 128, 0.02, 2), 5, 2, 4, False, False)
    @example(_events(2, 32, 0.02, 3), 5, 2, 2, False, True)
    @example(_events(2, 16, 0.2, 4, unreached=True), 1, 2, 3, False, False)
    @example(_events(1, 4, 0.0, 5, unreached=True), 5, 2, 1, False, False)
    @example(_events(1, 2, 1.0, 7), 5, 2, 2, False, False)
    def test_conv_values_bit_identical(self, drawn, k, stride, c_out,
                                       every_site_in, every_site):
        # bytes, so that a -0.0 fails too
        x, rng = drawn
        if every_site_in:
            x = _every_site(x)
        kernel = ConvKernel2D(rng.standard_normal((c_out, x.channels, k, k)), stride)
        out_c, out_v, h_out, w_out = _conv_sites(x, kernel, every_site)
        if every_site:
            assert out_c is _grid_sites(x.batch_size, h_out, w_out)
        else:
            assert np.array_equal(out_c, out_coords(x.coords, stride))
        assert (h_out, w_out) == (-(-x.height // stride), -(-x.width // stride))
        assert out_v.tobytes() == _loop_conv_values(x, kernel, out_c).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(*_INPUT_FORMS, st.sampled_from([1.0, 0.3, 0.0]))
    def test_conv_grads_near_tap_loop(self, drawn, k, stride, c_out, every_site_in,
                                      every_site, g_density):
        # g_density < 1 leaves rows of g_out exactly zero, as off the support
        # of an `sc` layer's adjoint, and zeros single channels of others
        x, rng = drawn
        if every_site_in:
            x = _every_site(x)
        kernel = ConvKernel2D(rng.standard_normal((c_out, x.channels, k, k)), stride)
        out_c = _conv_sites(x, kernel, every_site)[0]
        g_out = rng.standard_normal((len(out_c), c_out))
        g_out[rng.random(len(out_c)) >= g_density] = 0.0
        if g_density < 1.0:
            g_out[rng.random(g_out.shape) < 0.3] = 0.0
        g_w, g_in = _conv_sites_grads(x, kernel, out_c, g_out)
        ref_w, ref_in = _loop_conv_grads(x, kernel, out_c, g_out)
        _assert_near_loop(g_w, ref_w)
        _assert_near_loop(g_in, ref_in)
        unreached = ~_tap_reach(x, k, stride, out_c)[1]
        assert g_in[unreached].tobytes() == np.zeros_like(g_in[unreached]).tobytes()
        g_w_only, no_in = _conv_sites_grads(x, kernel, out_c, g_out,
                                            need_input_grad=False)
        assert g_w_only.tobytes() == g_w.tobytes() and no_in is None

    @pytest.mark.parametrize("g_form", ["few_rows", "all_zero", "unreached_row"])
    @pytest.mark.parametrize("c_in, c_out, k, hw, density", [
        (16, 8, 3, 16, 0.3),    # a deep layer at the paper's widest, 16 channels
        (1, 4, 5, 32, 0.05),    # the first layer over sparse events
    ])
    def test_grads_on_support_rows(self, c_in, c_out, k, hw, density, g_form):
        # g_out nonzero on a few rows only, as below an `sc` layer, all zero, or
        # nonzero on an every-site output row that no tap reaches (its
        # receptive field holds no input site), which must add nothing
        rng = np.random.default_rng(c_in * 100 + k)
        x = random_sparse(rng, batch=2, height=hw, width=hw, channels=c_in,
                          density=density)
        if c_in == 1:
            x.values[:] = 1.0   # binary events
        kernel = ConvKernel2D(rng.standard_normal((c_out, c_in, k, k)), stride=2)
        out_c = _conv_sites(x, kernel, every_site=g_form == "unreached_row")[0]
        g_out = np.zeros((len(out_c), c_out))
        if g_form != "all_zero":
            reached = _tap_reach(x, k, 2, out_c)[0]
            rows = list(rng.choice(np.flatnonzero(reached), 3, replace=False))
            if g_form == "unreached_row":
                rows.append(np.flatnonzero(~reached)[0])
            g_out[rows] = rng.standard_normal((len(rows), c_out))
        g_w, g_in = _conv_sites_grads(x, kernel, out_c, g_out)
        ref_w, ref_in = _loop_conv_grads(x, kernel, out_c, g_out)
        _assert_near_loop(g_w, ref_w)
        _assert_near_loop(g_in, ref_in)
        g_dense = np.zeros((2, c_out, hw // 2, hw // 2))
        g_dense[out_c[:, 0], :, out_c[:, 2], out_c[:, 1]] = g_out
        oracle_x, oracle_w = conv_oracle_grads(densify(x), kernel.weights, 2, g_dense)
        _assert_near_loop(g_w, oracle_w)
        _assert_near_loop(g_in, oracle_x[x.coords[:, 0], :, x.coords[:, 2], x.coords[:, 1]])

    def test_every_site_output_over_sparse_input_stays_small(self):
        # 50 sites on a 2x128x128 grid convolved at every output site: only the
        # rows some tap reaches may be stacked, not all k * k * N_out of them
        rng = np.random.default_rng(18)
        flat = rng.choice(2 * 128 * 128, 50, replace=False)
        b, y, xs = np.unravel_index(flat, (2, 128, 128))
        x = SparseTensor2D(np.stack([b, xs, y], axis=1), rng.standard_normal((50, 1)),
                           2, 128, 128, 1)
        kernel = ConvKernel2D(rng.standard_normal((4, 1, 5, 5)), stride=2)
        _grid_sites(2, 64, 64)   # the cached output sites are not the call's
        tracemalloc.start()
        try:
            _conv_sites(x, kernel, every_site=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kmap_bytes = 5 * 5 * 2 * 64 * 64 * np.dtype(np.int32).itemsize
        assert peak < 4 * kmap_bytes

    @pytest.mark.parametrize("c_out", [1, 3])
    @pytest.mark.parametrize("c_in", [2, 3, 4, 8, 16])
    def test_tap_matching_one_row_bit_identical(self, c_in, c_out):
        # an L of three sites and one apart: six taps of a 3x3 kernel each
        # read a site for exactly one output row, a one-row product
        coords = np.array([[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 3, 3]])
        keys = SparseTensor2D(coords, np.ones(4), 1, 4, 4, 1).keys()
        matches = [_loop_tap_matches(coords, keys, 4, 4, dx, dy, 1, 1)
                   for dx in range(3) for dy in range(3)]
        assert sum(m is not None and len(m[0]) == 1 for m in matches) == 6
        rng = np.random.default_rng(10 * c_in + c_out)
        for _ in range(20):
            x = SparseTensor2D(coords, rng.standard_normal((4, c_in)), 1, 4, 4, c_in)
            kernel = ConvKernel2D(rng.standard_normal((c_out, c_in, 3, 3)))
            out_c, out_v, _, _ = _conv_sites(x, kernel)
            assert out_v.tobytes() == _loop_conv_values(x, kernel, out_c).tobytes()

    @pytest.mark.parametrize("c_in", [1, 2])
    def test_one_output_row_sums_taps_in_tap_order(self, c_in):
        # a 2x2 block at stride 2 reaches one output row through four taps of
        # a 5x5 kernel: with c_out == 1 the sum over taps has one element,
        # which a NumPy reduce would sum pairwise
        rng = np.random.default_rng(c_in)
        for _ in range(20):
            x = SparseTensor2D(np.array([[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]]),
                               rng.standard_normal((4, c_in)), 1, 2, 2, c_in)
            kernel = ConvKernel2D(rng.standard_normal((1, c_in, 5, 5)), stride=2)
            out_c, out_v, _, _ = _conv_sites(x, kernel)
            assert out_v.tobytes() == _loop_conv_values(x, kernel, out_c).tobytes()

    @pytest.mark.parametrize("every_site", [False, True])
    def test_wide_input_bit_identical(self, every_site):
        # at 16 input channels a contiguous copy of a tap's weights rounds
        # otherwise than the tap's strided view, which the loop multiplies by
        rng = np.random.default_rng(16)
        for _ in range(5):
            mask = rng.random((2, 9, 9)) < 0.4
            b, y, xs = np.nonzero(mask)
            x = SparseTensor2D(np.stack([b, xs, y], axis=1),
                               rng.standard_normal((len(b), 16)), 2, 9, 9, 16)
            kernel = ConvKernel2D(rng.standard_normal((4, 16, 3, 3)))
            out_c, out_v, _, _ = _conv_sites(x, kernel, every_site)
            assert out_v.tobytes() == _loop_conv_values(x, kernel, out_c).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(_sparse_inputs("levels"), st.booleans())
    def test_pool_winners_and_grads_bit_identical(self, drawn, every_site):
        x, rng = drawn
        if every_site:
            x = _every_site(x)
        out_c, out_v, winners, h_out, w_out = _pool_sites(x)
        if every_site:
            # every output site, on the cached coordinates; values by a dense max
            assert out_c is _grid_sites(x.batch_size, h_out, w_out)
            assert np.array_equal(out_c, _unique_out_coords(x.coords, 2))
            dense = np.full((x.batch_size, x.channels, 2 * h_out, 2 * w_out), -np.inf)
            dense[:, :, :x.height, :x.width] = densify(x)
            ref = dense.reshape(x.batch_size, x.channels, h_out, 2, w_out, 2).max(axis=(3, 5))
            assert np.array_equal(out_v, ref.transpose(0, 2, 3, 1).reshape(-1, x.channels))
        assert np.array_equal(winners, _loop_pool_winners(x, out_v))
        g_out = rng.standard_normal(out_v.shape)
        assert np.array_equal(_pool_sites_grads(x, winners, g_out),
                              _loop_pool_grad(x, winners, g_out))
