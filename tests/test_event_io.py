import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesparse import event_io
from spikesparse.event_io import (
    OFF,
    ON,
    BinaryVoxelGrid,
    DatasetIndexError,
    EventParseError,
    EventStream,
    FormatError,
    PartialReadError,
    build_voxel_grid,
    encode_aedat,
    load_dvs128,
    parse_aedat,
    parse_portable_events,
    serialize_portable_events,
    split_dvs128,
    synth_dataset,
    synth_streams,
)


# --- reference encoder (independent of the package serializer) -------------

def ref_polarity_packet(events, overflow=0, valid_bits=None):
    head = struct.pack("<hhiiiiii", 1, 0, 8, 4, overflow,
                       len(events), len(events), len(events))
    body = b""
    for i, (t, x, y, p) in enumerate(events):
        valid = 1 if valid_bits is None else valid_bits[i]
        data = (x << 17) | (y << 2) | (p << 1) | valid
        body += struct.pack("<Ii", data, t)
    return head + body


def ref_aedat(*packets):
    return b"#!AER-DAT3.1\r\n" + b"#!END-HEADER\r\n" + b"".join(packets)


# --- reference renderer (the per-pixel loop) -------------------------------

def loop_render_moving_edge(rng, cls, width, height, n_timesteps, dt_us):
    """Reference renderer: the per-pixel loop whose draws the library's
    vectorized renderer must reproduce one for one."""
    dx, dy = event_io._DIRECTIONS[cls % 4]
    speed_tier = 1 + cls // 4
    norm = (dx * dx + dy * dy) ** 0.5
    ux, uy = dx / norm, dy / norm
    extent = width * abs(ux) + height * abs(uy)
    speed = speed_tier * extent / (1.35 * n_timesteps) * rng.uniform(0.85, 1.15)
    delay = rng.uniform(0.0, 0.3) * n_timesteps
    length = rng.uniform(0.3, 0.45) * min(width, height)
    thickness = rng.uniform(6.0, 9.0)
    cap = int(0.05 * width * height)
    px, py = -uy, ux
    cx = width / 2 + rng.uniform(-0.15, 0.15) * width + px * rng.uniform(-0.1, 0.1) * width
    cy = height / 2 + rng.uniform(-0.15, 0.15) * height
    sx = cx - ux * (extent / 2 + 1 + speed * delay)
    sy = cy - uy * (extent / 2 + 1 + speed * delay)
    offs = np.arange(-length / 2, length / 2, 0.6)
    depth = np.arange(0.0, thickness, 0.6)
    events = []
    for t in range(n_timesteps):
        cells = {}
        fx, fy = sx + ux * speed * t, sy + uy * speed * t
        sweep = np.arange(0.0, speed, 0.6)
        for polarity, ox, oy in ((ON, fx, fy),
                                 (OFF, fx - ux * thickness, fy - uy * thickness)):
            for a in sweep:
                gx = np.rint(ox + ux * a + px * offs).astype(int)
                gy = np.rint(oy + uy * a + py * offs).astype(int)
                ok = (gx >= 0) & (gx < width) & (gy >= 0) & (gy < height)
                for xi, yi in zip(gx[ok], gy[ok]):
                    cells.setdefault((xi, yi, polarity), None)
        for d in depth:
            bx, by = fx - ux * d, fy - uy * d
            gx = np.rint(bx + px * offs).astype(int)
            gy = np.rint(by + py * offs).astype(int)
            ok = (gx >= 0) & (gx < width) & (gy >= 0) & (gy < height)
            flick = rng.random(ok.sum()) < 0.5
            for xi, yi, take in zip(gx[ok], gy[ok], flick):
                if take:
                    cells.setdefault((xi, yi, int(rng.integers(2))), None)
        sites = list(cells)
        if sites:
            pick = rng.random(len(sites)) < 0.9
            sites = [s for s, take in zip(sites, pick) if take]
        for _ in range(rng.poisson(0.004 * width * height)):
            sites.append((int(rng.integers(width)), int(rng.integers(height)),
                          int(rng.integers(2))))
        if len(sites) > cap:
            idx = rng.choice(len(sites), size=cap, replace=False)
            sites = [sites[i] for i in sorted(idx)]
        for xi, yi, pol in sites:
            events.append((t * dt_us + int(rng.integers(dt_us)), xi, yi, pol))
    t, x, y, p = zip(*events) if events else ([], [], [], [])
    return EventStream(t, x, y, p, width, height)


class TestParseAedat:
    def test_single_on_event(self):
        data = ref_aedat(ref_polarity_packet([(100, 5, 7, ON)]))
        stream = parse_aedat(data)
        assert len(stream) == 1
        ev = stream[0]
        # timestamps are rebased to the first event
        assert (ev.timestamp, ev.x, ev.y, ev.polarity) == (0, 5, 7, ON)

    def test_rebase_keeps_offsets(self):
        data = ref_aedat(ref_polarity_packet([(1000, 1, 1, ON), (1250, 2, 2, OFF)]))
        stream = parse_aedat(data)
        assert stream.timestamps.tolist() == [0, 250]
        raw = parse_aedat(data, rebase=False)
        assert raw.timestamps.tolist() == [1000, 1250]

    def test_header_only_is_empty_stream(self):
        stream = parse_aedat(ref_aedat())
        assert len(stream) == 0 and stream.duration == 0

    def test_out_of_order_packets_are_sorted(self):
        events = [(500, 1, 1, ON), (100, 2, 2, OFF), (300, 3, 3, ON), (200, 4, 4, ON)]
        data = ref_aedat(ref_polarity_packet(events[:2]),
                         ref_polarity_packet(events[2:]))
        stream = parse_aedat(data, rebase=False)
        # oracle: plain sort of the reference list
        want = sorted(t for t, *_ in events)
        assert stream.timestamps.tolist() == want

    def test_invalid_events_dropped(self):
        data = ref_aedat(ref_polarity_packet(
            [(10, 1, 1, ON), (20, 2, 2, ON)], valid_bits=[1, 0]))
        assert len(parse_aedat(data)) == 1

    def test_timestamp_overflow_field(self):
        data = ref_aedat(ref_polarity_packet([(7, 1, 1, ON)], overflow=1))
        stream = parse_aedat(data, rebase=False)
        assert stream.timestamps.tolist() == [(1 << 31) + 7]

    def test_bad_magic(self):
        with pytest.raises(FormatError) as e:
            parse_aedat(b"#!AER-DAT2.0\r\n")
        assert e.value.field == "version"
        with pytest.raises(FormatError):
            parse_aedat(b"RIFF....")

    def test_truncated_packet_header(self):
        data = ref_aedat()[:len(ref_aedat())] + b"\x01\x00"
        with pytest.raises(PartialReadError) as e:
            parse_aedat(data)
        assert e.value.byte_offset == len(ref_aedat())

    def test_truncated_payload(self):
        whole = ref_aedat(ref_polarity_packet([(1, 1, 1, ON), (2, 2, 2, ON)]))
        with pytest.raises(PartialReadError):
            parse_aedat(whole[:-4])

    def test_skips_unknown_packet_types(self):
        # special event packet (type 0), 8-byte records
        other = struct.pack("<hhiiiiii", 0, 0, 8, 4, 0, 1, 1, 1) + b"\x00" * 8
        data = ref_aedat(other, ref_polarity_packet([(5, 1, 2, ON)]))
        assert len(parse_aedat(data)) == 1

    def test_event_outside_sensor(self):
        data = ref_aedat(ref_polarity_packet([(5, 1, 2, ON), (6, 200, 3, ON)]))
        with pytest.raises(FormatError) as e:
            parse_aedat(data)
        assert e.value.field == "address"

    def test_negative_timestamp_overflow(self):
        data = ref_aedat(ref_polarity_packet([(7, 1, 1, ON)], overflow=-1))
        with pytest.raises(FormatError) as e:
            parse_aedat(data, rebase=False)
        assert e.value.field == "tsOverflow"


class TestAedatRoundTrip:
    def test_parse_serialize_parse_identity(self):
        rng = np.random.default_rng(0)
        n = 200
        stream = EventStream(np.sort(rng.integers(0, 10_000, n)),
                             rng.integers(0, 128, n), rng.integers(0, 128, n),
                             rng.integers(0, 2, n), 128, 128).rebased()
        once = parse_aedat(encode_aedat(stream))
        assert once.equals(stream)
        twice = parse_aedat(encode_aedat(once))
        assert twice.equals(once)


class TestPortableFormat:
    def test_single_on_event(self):
        stream = parse_portable_events("128,128\n100,5,7,1\n")
        assert len(stream) == 1 and stream[0] == stream[0].__class__(0, 5, 7, ON)

    def test_empty_body(self):
        stream = parse_portable_events("64,48\n")
        assert len(stream) == 0 and (stream.width, stream.height) == (64, 48)

    def test_bad_polarity_reports_line(self):
        with pytest.raises(EventParseError) as e:
            parse_portable_events("128,128\n1,2,3,1\n4,5,6,2\n")
        assert e.value.line == 3

    def test_non_numeric_field_reports_line(self):
        with pytest.raises(EventParseError) as e:
            parse_portable_events("128,128\n10,x,3,1\n")
        assert e.value.line == 2

    def test_out_of_bounds_rejected(self):
        with pytest.raises(EventParseError):
            parse_portable_events("16,16\n5,16,0,1\n")

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 64
        stream = EventStream(np.sort(rng.integers(0, 5_000, n)),
                             rng.integers(0, 32, n), rng.integers(0, 24, n),
                             rng.integers(0, 2, n), 32, 24).rebased()
        text = serialize_portable_events(stream)
        assert parse_portable_events(text).equals(stream)
        p = tmp_path / "events.txt"
        p.write_text(text)
        assert parse_portable_events(p).equals(stream)

    def test_missing_path_is_not_read_as_text(self):
        with pytest.raises(FileNotFoundError, match="no/such/file.events"):
            parse_portable_events("no/such/file.events")

    def test_loose_lines_parse_like_canonical_ones(self):
        # spaces, "\r\n", blank lines and a missing final newline leave the
        # array parser to the line-by-line one
        canonical = parse_portable_events("32,24\n5,3,23,1\n40,0,5,0\n")
        for text in ("32,24\r\n5,3,23,1\r\n40,0,5,0\r\n",
                     "32,24\n\n 5,3,23,1 \n\n40, 0,5,0",
                     "32,24\n5,3,23,1\n40,0,5,0"):
            assert parse_portable_events(text).equals(canonical)

    @pytest.mark.parametrize("text, line", [
        ("32,24\n1_0,3,23,1\n", 2),       # int() reads 1_0 as 10
        ("32,24\n5,3,23,1\n+5,3,23,1\n", 3),
        ("32,24\n\u0665,3,23,1\n", 2),    # ARABIC-INDIC DIGIT FIVE
        ("32,24\n5,3,23,1\n-5,3,23,1\n", 3),
        ("+32,24\n5,3,23,1\n", 1),
        ("32,2_4\n", 1),
        # 1 to 18 digits: 19 fit int64 but are refused like 20, which do not
        ("32,24\n5,3,23,1\n" + "1" + "0" * 18 + ",3,23,1\n", 3),
        ("32,24\n5,3,23,1\n" + "1" + "0" * 19 + ",3,23,1\n", 3),
        ("32," + "1" + "0" * 18 + "\n", 1),
        ("1" + "0" * 19 + ",24\n5,3,23,1\n", 1),
    ])
    def test_integers_are_ascii_digits_only(self, text, line):
        with pytest.raises(EventParseError) as e:
            parse_portable_events(text)
        assert e.value.line == line

    def test_undecodable_byte_reports_its_line(self, tmp_path):
        p = tmp_path / "bad.events"
        p.write_bytes(b"32,24\n5,3,23,1\n40,\xff,5,0\n")
        with pytest.raises(EventParseError) as e:
            parse_portable_events(p)
        assert e.value.line == 3 and "0xff" in str(e.value)

    def test_first_bad_line_after_many_good_ones(self):
        rng = np.random.default_rng(2)
        n = 500
        stream = EventStream(np.sort(rng.integers(0, 10**6, n)),
                             rng.integers(0, 32, n), rng.integers(0, 24, n),
                             rng.integers(0, 2, n), 32, 24)
        lines = serialize_portable_events(stream).splitlines()
        for bad, message in (("9,3,4,2", "polarity must be 0 or 1, got 2"),
                             ("9,32,4,1", "coordinate (32,4) outside sensor"),
                             ("9,3,4", "expected timestamp,x,y,polarity"),
                             ("9,3,x,1", "non-numeric field in '9,3,x,1'")):
            text = "\n".join(lines[:300] + [bad] + lines[300:] + ["1,1,1,7"]) + "\n"
            with pytest.raises(EventParseError) as e:
                parse_portable_events(text)
            assert e.value.line == 301 and str(e.value) == f"line 301: {message}"

    def test_serialized_text_by_hand(self):
        stream = EventStream([0, 40, 40], [3, 0, 31], [23, 5, 0], [ON, OFF, ON],
                             32, 24)
        assert serialize_portable_events(stream) == ("32,24\n0,3,23,1\n"
                                                     "40,0,5,0\n40,31,0,1\n")
        assert serialize_portable_events(EventStream.empty(7, 5)) == "7,5\n"


class TestBuildVoxelGrid:
    def test_bin_index_is_floor(self):
        stream = EventStream([25_000], [3], [4], [ON], 16, 16)
        grid = build_voxel_grid(stream, 10_000, 15)
        assert grid.n_nonzero == 1
        assert (grid.t[0], grid.x[0], grid.y[0], grid.values[0]) == (2, 3, 4, 1)

    def test_events_are_not_summed(self):
        stream = EventStream([3_000, 7_000], [5, 5], [5, 5], [ON, ON], 16, 16)
        grid = build_voxel_grid(stream, 10_000, 4)
        assert grid.n_nonzero == 1 and grid.values[0] == 1

    def test_off_event_is_minus_one(self):
        grid = build_voxel_grid(EventStream([0], [0], [0], [OFF], 8, 8), 1_000, 4)
        assert grid.values.tolist() == [-1]

    def test_collision_latest_polarity_wins(self):
        on_then_off = EventStream([100, 900], [2, 2], [2, 2], [ON, OFF], 8, 8)
        assert build_voxel_grid(on_then_off, 1_000, 2).values.tolist() == [-1]
        off_then_on = EventStream([100, 900], [2, 2], [2, 2], [OFF, ON], 8, 8)
        assert build_voxel_grid(off_then_on, 1_000, 2).values.tolist() == [1]

    def test_clip_drops_trailing_events(self):
        stream = EventStream([0, 19_999, 20_000, 30_000], [0, 1, 2, 3],
                             [0, 0, 0, 0], [ON] * 4, 8, 8)
        # T * dt_us = 20_000: the events at and past it are dropped
        grid = build_voxel_grid(stream, 10_000, 2)
        assert grid.n_nonzero == 2
        assert grid.timestep_sites(1)[0].tolist() == [1]

    def test_empty_stream(self):
        grid = build_voxel_grid(EventStream.empty(8, 8), 1_000, 4)
        assert grid.n_nonzero == 0 and grid.sparsity() == 1.0

    def test_duplicate_events_never_change_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            ts = rng.integers(0, 40_000, n)
            xs, ys = rng.integers(0, 8, n), rng.integers(0, 8, n)
            ps = rng.integers(0, 2, n)
            base = EventStream(ts, xs, ys, ps, 8, 8)
            grid = build_voxel_grid(base, 10_000, 4)
            i = int(rng.integers(n))
            dup = EventStream(np.r_[ts, ts[i]], np.r_[xs, xs[i]],
                              np.r_[ys, ys[i]], np.r_[ps, ps[i]], 8, 8)
            assert build_voxel_grid(dup, 10_000, 4).equals(grid)

    def test_nonzeros_bounded_by_clipped_events(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(0, 100))
            stream = EventStream(rng.integers(0, 50_000, n), rng.integers(0, 8, n),
                                 rng.integers(0, 8, n), rng.integers(0, 2, n), 8, 8)
            grid = build_voxel_grid(stream, 10_000, 3)
            assert grid.n_nonzero <= int((stream.timestamps < 30_000).sum())

    def test_every_nonzero_bin_backed_by_an_event(self):
        rng = np.random.default_rng(7)
        n = 200
        stream = EventStream(rng.integers(0, 40_000, n), rng.integers(0, 8, n),
                             rng.integers(0, 8, n), rng.integers(0, 2, n), 8, 8)
        grid = build_voxel_grid(stream, 10_000, 4)
        cells = {(int(t) * 100_000 + int(x) * 100 + int(y))
                 for t, x, y in zip(stream.timestamps // 10_000, stream.xs, stream.ys)}
        for t, x, y in zip(grid.t, grid.x, grid.y):
            assert int(t) * 100_000 + int(x) * 100 + int(y) in cells


class TestVoxelCacheFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 50
        stream = EventStream(rng.integers(0, 100_000, n), rng.integers(0, 32, n),
                             rng.integers(0, 32, n), rng.integers(0, 2, n), 32, 32)
        grid = build_voxel_grid(stream, 10_000, 10)
        assert BinaryVoxelGrid.from_bytes(grid.to_bytes()).equals(grid)
        p = tmp_path / "g.vox"
        grid.save(p)
        assert BinaryVoxelGrid.load(p).equals(grid)

    def test_bad_magic_and_truncation(self):
        grid = build_voxel_grid(EventStream([5], [1], [1], [ON], 8, 8), 1_000, 2)
        blob = grid.to_bytes()
        with pytest.raises(FormatError):
            BinaryVoxelGrid.from_bytes(b"XXXXXXXX" + blob[8:])
        with pytest.raises(PartialReadError):
            BinaryVoxelGrid.from_bytes(blob[:-3])

    @pytest.mark.parametrize("corrupt, error, message", [
        ("header", PartialReadError, "truncated voxel cache header"),
        ("record", FormatError, "bad voxel record: cell coordinate out of range"),
        ("extent", FormatError, "grid extent 2x8x4294967295"),
    ], ids=["header", "record", "extent"])
    def test_corrupt_file_names_itself(self, tmp_path, corrupt, error, message):
        grid = build_voxel_grid(EventStream([5], [6], [1], [ON], 8, 8), 1_000, 2)
        blob = bytearray(grid.to_bytes())
        if corrupt == "header":
            blob = blob[:20]
        else:   # the width field: 4 puts the record at x = 6 off the grid
            blob[20:24] = struct.pack("<I", 4 if corrupt == "record" else 2 ** 32 - 1)
        path = tmp_path / "g.vox"
        path.write_bytes(bytes(blob))
        with pytest.raises(error) as e:
            BinaryVoxelGrid.load(path)
        assert str(e.value).startswith(f"{path}: {message}")

    @staticmethod
    def _with_records(grid, order):
        """``grid``'s cache bytes with its 7-byte records in ``order``."""
        blob = grid.to_bytes()
        rec = [blob[40 + 7 * i:47 + 7 * i] for i in range(grid.n_nonzero)]
        return blob[:40] + b"".join(rec[i] for i in order)

    def test_disordered_records_load_sorted(self):
        grid = BinaryVoxelGrid([0, 1, 2, 3], [1, 2, 3, 4], [1, 1, 5, 2],
                               [1, -1, 1, -1], 4, 8, 8, 1_000)
        loaded = BinaryVoxelGrid.from_bytes(self._with_records(grid, [2, 0, 1, 3]))
        assert loaded.equals(grid)
        assert loaded.timestep_sites(2)[0].tolist() == [3]

    def test_duplicate_record_rejected(self):
        # the two copies of cell (0, 1, 1) are not neighbours in the file
        grid = BinaryVoxelGrid([0, 1, 2, 3], [1, 2, 3, 4], [1, 1, 5, 2],
                               [1, -1, 1, -1], 4, 8, 8, 1_000)
        with pytest.raises(FormatError) as e:
            BinaryVoxelGrid.from_bytes(self._with_records(grid, [0, 1, 0, 3]))
        assert e.value.field == "records"
        assert "duplicate grid cells" in str(e.value)

    @pytest.mark.parametrize("t_bins, height, width", [(70_000, 16, 16),
                                                       (2, 16, 70_000)])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, t_bins,
                                                    height, width):
        grid = BinaryVoxelGrid([1], [1], [1], [1], t_bins, height, width, 1)
        path = tmp_path / "g.vox"
        with pytest.raises(FormatError) as e:
            grid.save(path)
        assert e.value.field == "extent"
        assert str(e.value) == (f"grid extent {t_bins}x{height}x{width} "
                                "beyond the records' u16 range")
        assert os.listdir(tmp_path) == []

    def test_largest_extent_round_trips(self):
        grid = BinaryVoxelGrid([65_535], [65_535], [0], [-1], 1 << 16, 1,
                               1 << 16, 1)
        assert BinaryVoxelGrid.from_bytes(grid.to_bytes()).equals(grid)

    def test_save_replaces_the_file_whole(self, tmp_path):
        path = tmp_path / "g.vox"
        path.write_bytes(b"stale")
        grid = build_voxel_grid(EventStream([5], [6], [1], [ON], 8, 8), 1_000, 2)
        grid.save(path)
        assert BinaryVoxelGrid.load(path).equals(grid)
        assert os.listdir(tmp_path) == ["g.vox"]


class TestSplitDvs128:
    def test_boundary_subjects(self):
        idx = split_dvs128(["user23_led.aedat", "user24_fluorescent.aedat"])
        assert [r.subject for r in idx.train] == [23]
        assert [r.subject for r in idx.test] == [24]
        assert idx.train[0].illumination == "led"

    def test_unknown_subject_rejected(self):
        with pytest.raises(DatasetIndexError):
            split_dvs128(["user30_led.aedat"])
        with pytest.raises(DatasetIndexError):
            split_dvs128(["sample_led.aedat"])

    def test_missing_path_is_not_read_as_text(self):
        with pytest.raises(FileNotFoundError, match="no/such/index.csv"):
            split_dvs128("no/such/index.csv")

    def test_labels_and_comments(self):
        idx = split_dvs128("# index\nuser01_natural.aedat,3\n\nuser25_led.aedat,7,led\n")
        assert idx.train[0].label == 3 and idx.test[0].label == 7
        with pytest.raises(DatasetIndexError,
                           match="^line 2: label 'x' is not a non-negative integer$"):
            split_dvs128(["user02_led.aedat,1", "user01_led.aedat,x"])

    @pytest.mark.parametrize("line, message", [
        # the subject and the label take ASCII digits only: no other
        # script's digits, no sign, no space inside, no underscore
        ("user\u0660\u0662_fluorescent.aedat,-3", "no user<NN> subject id"),
        ("user02_led.aedat,-3", "label '-3' is not"),
        ("user25_led.aedat, +4", "label '\\+4' is not"),
        ("user03_x.aedat,1_0", "label '1_0' is not"),
        ("user03_x.aedat," + "1" * 19, f"label '{'1' * 19}' is not"),
    ])
    def test_non_digit_subject_or_label_rejected(self, line, message):
        with pytest.raises(DatasetIndexError, match=f"^line 2: {message}"):
            split_dvs128(["user01_led.aedat,1", line])


class TestSynthDataset:
    def test_deterministic_and_balanced(self):
        a_train, a_test = synth_dataset(4, 3, 32, 32, 10, 10_000, seed=9,
                                        test_per_class=2)
        b_train, b_test = synth_dataset(4, 3, 32, 32, 10, 10_000, seed=9,
                                        test_per_class=2)
        assert len(a_train) == 12 and len(a_test) == 8
        for (ga, la), (gb, lb) in zip(a_train + a_test, b_train + b_test):
            assert la == lb and ga.to_bytes() == gb.to_bytes()
        for cls in range(4):
            assert sum(1 for _, l in a_train if l == cls) == 3
            assert sum(1 for _, l in a_test if l == cls) == 2

    def test_train_and_test_are_disjoint_streams(self):
        train, test = synth_dataset(2, 2, 32, 32, 8, 10_000, seed=3)
        assert train[0][0].to_bytes() != test[0][0].to_bytes()

    def test_per_timestep_occupancy_cap(self):
        train, test = synth_dataset(4, 2, 64, 64, 20, 10_000, seed=1)
        cap = 0.05 * 64 * 64
        for grid, _ in train + test:
            assert grid.occupancy_per_timestep().max() <= cap

    def test_class_range_validated(self):
        with pytest.raises(ValueError):
            synth_dataset(1, 1, 16, 16, 4, 10_000, seed=0)

    @pytest.mark.parametrize("name, args, kwargs", [
        ("height", (2, 1, 0, 16, 4, 10_000, 0), {}),
        ("width", (2, 1, 16, -1, 4, 10_000, 0), {}),
        ("n_timesteps", (2, 1, 16, 16, 0, 10_000, 0), {}),
        ("dt_us", (2, 1, 16, 16, 4, 0, 0), {}),
        ("samples_per_class", (2, -1, 16, 16, 4, 10_000, 0), {}),
        ("test_per_class", (2, 1, 16, 16, 4, 10_000, 0), {"test_per_class": -1}),
    ])
    def test_grid_size_and_counts_validated(self, name, args, kwargs):
        with pytest.raises(ValueError, match=name):
            synth_streams(*args, **kwargs)

    def test_pinned_digest(self):
        # any change to the rendering, the seeding or the voxelization moves
        # this digest; all eight classes on a non-square grid
        train, test = synth_dataset(8, 2, 24, 40, 12, 10_000, 5, test_per_class=1)
        h = hashlib.sha256()
        for grid, label in train + test:
            h.update(grid.to_bytes())
            h.update(bytes([label]))
        assert h.hexdigest() == ("4e5acdf3452bde8a62ac1dc4c67133972d598764166373"
                                 "773852ac397fc08eb7")

    @pytest.mark.parametrize("args, digest", [
        # the grid digest's arguments, timestamps and order included
        ((8, 2, 24, 40, 12, 10_000, 5),
         "0a26df9176036683dc7d5549b70a9f58da3d473edcdc30df7cac0113b35c2ab6"),
        # odd sizes, whose timestamp draws reach Lemire rejection
        ((8, 2, 37, 53, 15, 7_777, 3),
         "7ae750aca3a0572568bebbee40c4867ddf9af866a20748fda118ca7a64bec5a8"),
    ])
    def test_pinned_stream_digest(self, args, digest):
        train, test = synth_streams(*args, test_per_class=1)
        h = hashlib.sha256()
        for stream, label in train + test:
            h.update(serialize_portable_events(stream).encode("ascii"))
            h.update(bytes([label]))
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("cls, width, height, n_timesteps, dt_us", [
        (0, 24, 40, 6, 10_000), (5, 37, 53, 5, 7_777), (6, 9, 6, 8, 3),
        (3, 1, 11, 7, 1), (7, 17, 1, 7, 2 ** 31 + 1), (2, 1, 1, 4, 1_000),
    ])
    def test_render_matches_per_pixel_loop(self, cls, width, height,
                                           n_timesteps, dt_us):
        # tiny grids take the cap path nearly every bin; 1-pixel sides draw
        # integers(1), which consumes nothing
        for seed in range(3):
            loop_rng = np.random.default_rng(seed)
            want = loop_render_moving_edge(loop_rng, cls, width, height,
                                           n_timesteps, dt_us)
            rng = np.random.default_rng(seed)
            got = event_io._render_moving_edge(rng, cls, width, height,
                                               n_timesteps, dt_us)
            assert got.equals(want)
            assert rng.bit_generator.state == loop_rng.bit_generator.state


# Highs at which a scalar integers(h) takes one 32-bit half-word per try:
# 1 draws nothing, 2**31 + 1 rejects about half the tries, 10_000 rarely.
_HIGHS = [1, 2, 3, 128, 10_000, 2 ** 31 + 1, 2 ** 32 - 1]


class TestBulkIntegerDraws:
    """The renderer replaces runs of scalar ``rng.integers`` calls by one
    call with a size or an array of highs; both must take the same draws
    and leave the same generator state."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), pending=st.booleans(),
           calls=st.lists(st.tuples(
               st.sampled_from(["highs", "size", "random", "choice"]),
               st.lists(st.sampled_from(_HIGHS), min_size=1, max_size=24)),
               max_size=6))
    def test_same_values_and_state_as_scalar_calls(self, seed, pending, calls):
        loop, bulk = np.random.default_rng(seed), np.random.default_rng(seed)
        if pending:  # a half-word left over at entry
            assert loop.integers(2) == bulk.integers(2)
        for kind, highs in calls:
            if kind == "highs":
                want = [int(loop.integers(h)) for h in highs]
                got = bulk.integers(np.array(highs, dtype=np.int64)).tolist()
            elif kind == "size":
                want = [int(loop.integers(highs[0])) for _ in highs]
                got = bulk.integers(highs[0], size=len(highs)).tolist()
            elif kind == "random":
                want, got = loop.random(len(highs)), bulk.random(len(highs))
            else:  # Floyd's sampling may take the pending half-word
                n = 3 * len(highs)
                want = loop.choice(n, size=len(highs), replace=False)
                got = bulk.choice(n, size=len(highs), replace=False)
            assert np.array_equal(want, got)
            assert loop.bit_generator.state == bulk.bit_generator.state


class TestLoadDvs128:
    @pytest.fixture
    def mini_root(self, tmp_path):
        rng = np.random.default_rng(11)
        for name, base in [("user01_led.aedat", 2_000_000),
                           ("user24_led.aedat", 5_000_000)]:
            events, labels = [], []
            for gi in range(2):
                start = base + gi * 3_000_000
                labels.append((gi + 1, start, start + 2_000_000))
                for _ in range(40):
                    events.append((start + int(rng.integers(0, 1_600_000)),
                                   int(rng.integers(0, 128)),
                                   int(rng.integers(0, 128)),
                                   int(rng.integers(0, 2))))
            events.sort()
            (tmp_path / name).write_bytes(ref_aedat(ref_polarity_packet(events)))
            lines = ["class,startTime_usec,endTime_usec"]
            lines += [f"{c},{s},{e}" for c, s, e in labels]
            (tmp_path / name.replace(".aedat", "_labels.csv")).write_text(
                "\n".join(lines) + "\n")
        (tmp_path / "trials_to_train.txt").write_text("user01_led.aedat\n")
        (tmp_path / "trials_to_test.txt").write_text("user24_led.aedat\n")
        return tmp_path

    def test_slices_gestures_by_annotation(self, mini_root):
        train, test = load_dvs128(mini_root, dt_us=100_000, n_timesteps=15)
        assert len(train) == 2 and len(test) == 2
        assert [l for _, l in train] == [0, 1]
        for grid, _ in train + test:
            assert grid.n_timesteps == 15 and grid.n_nonzero > 0

    def test_malformed_label_row(self, mini_root):
        labels = mini_root / "user01_led_labels.csv"
        labels.write_text(labels.read_text() + "1,0,abc\n")
        with pytest.raises(FormatError) as e:
            load_dvs128(mini_root, dt_us=100_000, n_timesteps=15)
        assert f"{labels} line 4" in str(e.value) and "'1,0,abc'" in str(e.value)

    @pytest.mark.parametrize("row", ["1_0,0,100", "+1,0,100", "1,0,1_00"])
    def test_label_integers_are_ascii_digits_only(self, mini_root, row):
        labels = mini_root / "user01_led_labels.csv"
        labels.write_text(labels.read_text() + row + "\n")
        with pytest.raises(FormatError) as e:
            load_dvs128(mini_root, dt_us=100_000, n_timesteps=15)
        assert f"{labels} line 4: expected class,start,end" in str(e.value)

    def test_undecodable_label_file_names_it(self, mini_root):
        labels = mini_root / "user01_led_labels.csv"
        labels.write_bytes(labels.read_bytes() + b"1,0,\xff\n")
        with pytest.raises(FormatError) as e:
            load_dvs128(mini_root, dt_us=100_000, n_timesteps=15)
        assert str(e.value).startswith(f"{labels}: ") and "0xff" in str(e.value)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_undecodable_trial_listing_names_it(self, mini_root, split):
        listing = mini_root / f"trials_to_{split}.txt"
        listing.write_bytes(listing.read_bytes() + b"user\xff.aedat\n")
        with pytest.raises(FormatError) as e:
            load_dvs128(mini_root, dt_us=100_000, n_timesteps=15)
        assert str(e.value).startswith(f"{listing}: ") and "0xff" in str(e.value)

    def test_truncated_recording_keeps_the_partial_read(self, mini_root):
        aedat = mini_root / "user01_led.aedat"
        aedat.write_bytes(aedat.read_bytes()[:-3])
        with pytest.raises(PartialReadError) as e:
            load_dvs128(mini_root, dt_us=100_000, n_timesteps=15)
        payload = len(ref_aedat()) + 28   # after the file and packet headers
        assert e.value.byte_offset == payload
        assert str(e.value) == f"{aedat}: truncated event payload at byte {payload}"

    @pytest.mark.parametrize("cls", [0, 12])
    def test_class_outside_the_gestures(self, mini_root, cls):
        labels = mini_root / "user24_led_labels.csv"
        labels.write_text(labels.read_text() + f"{cls},0,100\n")
        with pytest.raises(FormatError) as e:
            load_dvs128(mini_root, dt_us=100_000, n_timesteps=15)
        assert f"{labels} line 4" in str(e.value) and f"class {cls}" in str(e.value)

    def test_cache_round_trip(self, mini_root, tmp_path):
        cache = tmp_path / "cache"
        direct_train, _ = load_dvs128(mini_root, dt_us=100_000, n_timesteps=15)
        lazy_train, _ = load_dvs128(mini_root, dt_us=100_000, n_timesteps=15,
                                    cache_dir=cache)
        again_train, _ = load_dvs128(mini_root, dt_us=100_000, n_timesteps=15,
                                     cache_dir=cache)
        for (g0, l0), (g1, l1), (g2, l2) in zip(direct_train, lazy_train, again_train):
            assert l0 == l1 == l2
            assert g0.equals(g1) and g0.equals(g2)


# --- input checks: each names the field or line it refused -----------------

def _packet(esize=8, enum=0, payload=b""):
    return struct.pack("<hhiiiiii", 1, 0, esize, 4, 0, enum, enum, enum) + payload


def _vox_with_channels(c):
    blob = bytearray(build_voxel_grid(EventStream([5], [1], [1], [ON], 8, 8),
                                      1_000, 2).to_bytes())
    blob[8:12] = struct.pack("<I", c)
    return bytes(blob)


def _labels_file(tmp_path, text):
    path = tmp_path / "user01_led_labels.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, error, message, attrs", [
    (lambda tmp: EventStream([0, 1], [0], [0], [1], 4, 4), ValueError,
     "event columns have mismatched lengths", {}),
    (lambda tmp: EventStream([-1], [0], [0], [1], 4, 4), ValueError,
     "negative timestamp", {}),
    (lambda tmp: EventStream([0], [4], [0], [1], 4, 4), ValueError,
     "event coordinate outside sensor bounds", {}),
    (lambda tmp: EventStream([0], [0], [-1], [1], 4, 4), ValueError,
     "event coordinate outside sensor bounds", {}),
    (lambda tmp: EventStream([0], [0], [0], [2], 4, 4), ValueError,
     "polarity must be 0 or 1", {}),
    (lambda tmp: parse_aedat(b"#!AER-DAT3.1\r\n#!END-HEADER"), FormatError,
     "unterminated header line", {"field": "header"}),
    (lambda tmp: parse_aedat(ref_aedat(_packet(esize=0))), FormatError,
     "non-positive eventSize 0", {"field": "eventSize"}),
    (lambda tmp: parse_aedat(ref_aedat(_packet(enum=-1))), FormatError,
     "negative eventNumber -1", {"field": "eventNumber"}),
    (lambda tmp: parse_aedat(ref_aedat(_packet(4, 1, b"\1\0\0\0"))), FormatError,
     "polarity events must be 8 bytes, got 4", {"field": "eventSize"}),
    (lambda tmp: encode_aedat(EventStream([2 ** 31], [0], [0], [1], 4, 4)),
     ValueError, "timestamps beyond 2^31 us need overflow packets", {}),
    (lambda tmp: parse_portable_events("\n1,2,3,1\n"), EventParseError,
     "line 1: missing width,height header", {"line": 1}),
    (lambda tmp: parse_portable_events("32,24,2\n1,2,3,1\n"), EventParseError,
     "line 1: header must be 'width,height'", {"line": 1}),
    (lambda tmp: BinaryVoxelGrid([0, 1], [0], [0], [1], 2, 4, 4, 10), ValueError,
     "grid columns have mismatched lengths", {}),
    (lambda tmp: BinaryVoxelGrid([2], [0], [0], [1], 2, 4, 4, 10), ValueError,
     "bin index out of range", {}),
    (lambda tmp: BinaryVoxelGrid([0], [0], [0], [0], 2, 4, 4, 10), ValueError,
     "grid values must be +1 or -1", {}),
    (lambda tmp: BinaryVoxelGrid.from_bytes(_vox_with_channels(2)), FormatError,
     "unsupported channel count 2", {"field": "channels"}),
    (lambda tmp: build_voxel_grid(EventStream.empty(4, 4), 0, 2), ValueError,
     "dt_us and n_timesteps must be positive", {}),
    (lambda tmp: build_voxel_grid(EventStream.empty(4, 4), 10, -1), ValueError,
     "dt_us and n_timesteps must be positive", {}),
    (lambda tmp: event_io._read_gesture_labels(
        _labels_file(tmp, "label,start,end\n1,0,100\n")), FormatError,
     "{tmp}/user01_led_labels.csv: unexpected label header 'label,start,end'",
     {"field": "header"}),
    (lambda tmp: event_io.DatasetIndex([event_io.SampleRecord("user01_a", 1)],
                                       [event_io.SampleRecord("user01_b", 1)]),
     DatasetIndexError, "train and test subjects overlap", {}),
])
def test_input_checks_name_what_they_refuse(tmp_path, call, error, message, attrs):
    with pytest.raises(error) as e:
        call(tmp_path)
    assert type(e.value) is error
    assert str(e.value) == message.format(tmp=tmp_path)
    assert {k: getattr(e.value, k) for k in attrs} == attrs
