"""Event-camera recordings: parsing, binary voxelization, and datasets.

An event is a ``(timestamp_us, x, y, polarity)`` tuple emitted by one pixel of
the sensor when it sees a brightness change.  Streams of events are binned
into :class:`BinaryVoxelGrid` objects: for a bin width ``dt_us`` and ``T``
bins, a cell ``(t, x, y)`` holds +1 or -1 when at least one event fell into
it, regardless of how many did -- events are never summed and their precise
timestamps are not kept.

Two file formats are read and written:

* AEDAT 3.1 (header line ``#!AER-DAT3.1``, little-endian packet headers,
  8-byte polarity event records), the format the DVS128 Gesture recordings
  ship in.
* A portable plain-text format for fixtures and synthetic data: a header
  line ``width,height`` followed by one ``timestamp_us,x,y,polarity`` record
  per line with polarity 0 (OFF) or 1 (ON).

Voxel grids round-trip through a small binary cache file (see
:meth:`BinaryVoxelGrid.to_bytes`).
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ON", "OFF",
    "FormatError", "PartialReadError", "EventParseError", "DatasetIndexError",
    "Event", "EventStream", "BinaryVoxelGrid",
    "parse_aedat", "encode_aedat",
    "parse_portable_events", "serialize_portable_events",
    "build_voxel_grid",
    "SampleRecord", "DatasetIndex", "split_dvs128",
    "synth_streams", "synth_dataset",
    "load_dvs128",
]

ON = 1
OFF = 0

_AEDAT_MAGIC = b"#!AER-DAT3.1\r\n"
_PACKET_HEADER = struct.Struct("<hhiiiiii")  # type, source, size, tsOffset,
                                             # tsOverflow, capacity, number, valid
_POLARITY_EVENT = 1
# voxel cache file: magic, header (u32 C/T/H/W, u64 dt_us, u64 record count),
# then one record per cell in (t, y, x) order
_VOX_MAGIC = b"SPKVOX01"
_VOX_HEADER = struct.Struct("<IIIIQQ")
_VOX_RECORD = np.dtype([("t", "<u2"), ("x", "<u2"), ("y", "<u2"), ("v", "i1")])
_VOX_BODY = len(_VOX_MAGIC) + _VOX_HEADER.size   # where the records start
_MAX_DIGITS = 18   # an integer field of at most 18 digits fits int64
_GESTURE_WINDOW_US = 1_500_000   # what a DVS128 gesture gives from its start
_PORTABLE_SEPARATORS = np.frombuffer(b",,,\n", np.uint8)  # after t, x, y, p


class FormatError(ValueError):
    """Malformed binary input; ``field`` names the offending header field."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class PartialReadError(FormatError):
    """Input ended mid-structure; ``byte_offset`` is where the read began."""

    def __init__(self, message, byte_offset):
        super().__init__(message)
        self.byte_offset = byte_offset


class EventParseError(ValueError):
    """Bad record in a text event file; ``line`` is 1-based."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DatasetIndexError(ValueError):
    """Bad record in a dataset index."""


@dataclass(frozen=True)
class Event:
    timestamp: int  # microseconds since recording start
    x: int
    y: int
    polarity: int  # ON (1) or OFF (0)


class EventStream:
    """Time-ordered events from one recording, stored columnwise.

    Timestamps are microseconds, nondecreasing; coordinates lie inside
    ``width x height``.  The constructor sorts (stably) by timestamp.
    """

    __slots__ = ("timestamps", "xs", "ys", "polarities", "width", "height")

    def __init__(self, timestamps, xs, ys, polarities, width, height):
        t = np.asarray(timestamps, dtype=np.int64)
        x = np.asarray(xs, dtype=np.int32)
        y = np.asarray(ys, dtype=np.int32)
        p = np.asarray(polarities, dtype=np.int8)
        if not (len(t) == len(x) == len(y) == len(p)):
            raise ValueError("event columns have mismatched lengths")
        if len(t) and np.any(t[1:] < t[:-1]):
            order = np.argsort(t, kind="stable")
            t, x, y, p = t[order], x[order], y[order], p[order]
        if len(t):
            if t[0] < 0:
                raise ValueError("negative timestamp")
            if x.min() < 0 or x.max() >= width or y.min() < 0 or y.max() >= height:
                raise ValueError("event coordinate outside sensor bounds")
            if not np.isin(p, (ON, OFF)).all():
                raise ValueError("polarity must be 0 or 1")
        self.timestamps = t
        self.xs = x
        self.ys = y
        self.polarities = p
        self.width = int(width)
        self.height = int(height)

    @classmethod
    def empty(cls, width, height):
        return cls([], [], [], [], width, height)

    @property
    def duration(self) -> int:
        """Microseconds from the first event to the last (0 when empty)."""
        if len(self.timestamps) == 0:
            return 0
        return int(self.timestamps[-1] - self.timestamps[0])

    def rebased(self) -> "EventStream":
        """Copy with timestamps shifted so the first event is at 0."""
        if len(self.timestamps) == 0 or self.timestamps[0] == 0:
            return self
        return EventStream(self.timestamps - self.timestamps[0], self.xs,
                           self.ys, self.polarities, self.width, self.height)

    def __len__(self):
        return len(self.timestamps)

    def __getitem__(self, i) -> Event:
        return Event(int(self.timestamps[i]), int(self.xs[i]),
                     int(self.ys[i]), int(self.polarities[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def equals(self, other) -> bool:
        return (self.width == other.width and self.height == other.height
                and np.array_equal(self.timestamps, other.timestamps)
                and np.array_equal(self.xs, other.xs)
                and np.array_equal(self.ys, other.ys)
                and np.array_equal(self.polarities, other.polarities))


def _write_whole(path, data: bytes):
    """Write ``data`` to ``<path>.part``, then move it onto ``path``, so a
    failed or killed write leaves any earlier file at ``path`` whole; a
    failed write or move removes the ``.part`` file, and its ``OSError`` is
    raised again naming ``path``."""
    part = f"{path}.part"
    try:
        with open(part, "wb") as fh:
            fh.write(data)
        os.replace(part, path)
    except BaseException as e:
        with contextlib.suppress(OSError):
            os.remove(part)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror, path) from None
        raise


def _ascii_int(text) -> int:
    """``int(text)`` for 1 to ``_MAX_DIGITS`` ASCII digits, around which
    whitespace may stand; ``ValueError`` for anything else ``int`` would
    take: a sign, ``_``, a non-ASCII digit or a number beyond int64."""
    if not re.fullmatch(f"[0-9]{{1,{_MAX_DIGITS}}}", text.strip()):
        raise ValueError(f"not 1 to {_MAX_DIGITS} ASCII digits: {text!r}")
    return int(text)


def _refused(fields, noun) -> str:
    """What is wrong with the first of ``fields`` that :func:`_ascii_int`
    refuses, called a ``noun``: ``<noun> of more than 18 digits`` (see
    ``_MAX_DIGITS``) when it is ASCII digits only, else ``non-numeric
    <noun>``."""
    for v in fields:
        try:
            _ascii_int(v)
        except ValueError:
            if re.fullmatch("[0-9]+", v.strip()):
                return f"{noun} of more than {_MAX_DIGITS} digits"
            return f"non-numeric {noun}"


def _as_bytes(source) -> bytes:
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return fh.read()
    return source.read()


def parse_aedat(source, width=128, height=128, rebase=True) -> EventStream:
    """Parse an AEDAT 3.1 byte source into a time-ordered, rebased stream.

    Only polarity event packets contribute events; other packet types are
    skipped.  Invalid events (validity bit clear) are dropped.  Timestamps are
    rebased so the first event sits at 0; pass ``rebase=False`` to keep the
    recording's native time base (needed to align external annotations).
    """
    data = _as_bytes(source)
    if not data.startswith(b"#"):
        raise FormatError("missing AEDAT header", field="magic")
    if not data.startswith(_AEDAT_MAGIC):
        got = data.split(b"\r\n", 1)[0][:32]
        raise FormatError(f"unsupported AEDAT version line {got!r}", field="version")
    pos = 0
    while pos < len(data) and data[pos:pos + 1] == b"#":
        end = data.find(b"\r\n", pos)
        if end < 0:
            raise FormatError("unterminated header line", field="header")
        pos = end + 2

    chunks_t, chunks_d = [], []
    while pos < len(data):
        if len(data) - pos < _PACKET_HEADER.size:
            raise PartialReadError(
                f"truncated packet header at byte {pos}", byte_offset=pos)
        (etype, _src, esize, _tsoff, tsover, _cap, enum, _evalid) = \
            _PACKET_HEADER.unpack_from(data, pos)
        pos += _PACKET_HEADER.size
        if esize <= 0:
            raise FormatError(f"non-positive eventSize {esize}", field="eventSize")
        if enum < 0:
            raise FormatError(f"negative eventNumber {enum}", field="eventNumber")
        payload = esize * enum
        if len(data) - pos < payload:
            raise PartialReadError(
                f"truncated event payload at byte {pos}", byte_offset=pos)
        if etype == _POLARITY_EVENT:
            if esize != 8:
                raise FormatError(
                    f"polarity events must be 8 bytes, got {esize}", field="eventSize")
            raw = np.frombuffer(data, dtype="<u4", count=2 * enum, offset=pos)
            raw = raw.reshape(-1, 2)
            d, ts = raw[:, 0], raw[:, 1].astype(np.int64)
            ts = ts + (np.int64(tsover) << 31)
            valid = (d & 1) == 1
            chunks_d.append(d[valid])
            chunks_t.append(ts[valid])
        pos += payload

    if not chunks_t or sum(len(c) for c in chunks_t) == 0:
        return EventStream.empty(width, height)
    d = np.concatenate(chunks_d)
    ts = np.concatenate(chunks_t)
    xs = (d >> 17) & 0x7FFF
    ys = (d >> 2) & 0x7FFF
    ps = (d >> 1) & 1
    if ts.min() < 0:
        raise FormatError("negative event timestamp", field="tsOverflow")
    if xs.max() >= width or ys.max() >= height:
        raise FormatError(f"event address outside the {width}x{height} sensor",
                          field="address")
    stream = EventStream(ts, xs, ys, ps, width, height)
    return stream.rebased() if rebase else stream


def encode_aedat(stream: EventStream) -> bytes:
    """Serialize a stream as a minimal AEDAT 3.1 file (one polarity packet
    from source id 1)."""
    n = len(stream)
    if n and int(stream.timestamps[-1]) >= 2 ** 31:
        raise ValueError("timestamps beyond 2^31 us need overflow packets")
    out = io.BytesIO()
    out.write(_AEDAT_MAGIC)
    out.write(b"#!END-HEADER\r\n")
    out.write(_PACKET_HEADER.pack(_POLARITY_EVENT, 1, 8, 4, 0, n, n, n))
    if n:
        d = ((stream.xs.astype(np.uint32) << 17)
             | (stream.ys.astype(np.uint32) << 2)
             | (stream.polarities.astype(np.uint32) << 1) | 1)
        rec = np.empty((n, 2), dtype="<u4")
        rec[:, 0] = d
        rec[:, 1] = stream.timestamps.astype(np.uint32)
        out.write(rec.tobytes())
    return out.getvalue()


def _as_text(source) -> str:
    """A path-like object or a ``str`` without a newline names a file."""
    if isinstance(source, os.PathLike) or (
            isinstance(source, str) and "\n" not in source):
        with open(source, "r", encoding="ascii") as fh:
            return fh.read()
    return source if isinstance(source, str) else source.read()


def _portable_columns(body: str):
    """The ``[4, N]`` int64 fields of a body made only of ``t,x,y,p`` lines of
    1 to ``_MAX_DIGITS`` decimal digits per field, each ended by a newline
    (the last may lack it); ``None`` for any other body.  Such fields are
    nonnegative, fit int64 and read as :func:`_ascii_int` reads them."""
    if body and not body.endswith("\n"):
        body += "\n"
    if not body.isascii():
        return None
    b = np.frombuffer(body.encode("ascii"), np.uint8)
    ends = np.flatnonzero((b < ord("0")) | (b > ord("9")))
    if len(ends) % 4 or not (b[ends].reshape(-1, 4) == _PORTABLE_SEPARATORS).all():
        return None
    lengths = np.diff(ends, prepend=-1) - 1
    if len(ends) and not 1 <= lengths.min() <= lengths.max() <= _MAX_DIGITS:
        return None
    fields = np.fromstring(body.replace("\n", ","), np.int64, sep=",")
    return fields.reshape(-1, 4).T.copy()


def parse_portable_events(source) -> EventStream:
    """Parse the portable text event format; same contract as :func:`parse_aedat`."""
    try:
        text = _as_text(source)
    except UnicodeDecodeError as e:
        # decoded whole, so e.start counts from the file's first byte
        line = e.object.count(b"\n", 0, e.start) + 1
        raise EventParseError(str(e), line=line) from None
    # the first line, as text.splitlines() would give it
    first = (text.partition("\n")[0].splitlines() or [""])[0]
    if not first.strip():
        raise EventParseError("missing width,height header", line=1)
    head = first.split(",")
    if len(head) != 2:
        raise EventParseError("header must be 'width,height'", line=1)
    try:
        width, height = _ascii_int(head[0]), _ascii_int(head[1])
    except ValueError:
        raise EventParseError(_refused(head, "sensor size"), line=1) from None
    if text[len(first):len(first) + 1] == "\n":
        cols = _portable_columns(text[len(first) + 1:])
        if cols is not None:
            t, x, y, p = cols
            if np.isin(p, (ON, OFF)).all() and (x < width).all() and (y < height).all():
                return EventStream(t, x, y, p, width, height).rebased()
    # a body in any other form, or with a bad record: check line by line
    ts, xs, ys, ps = [], [], [], []
    for lineno, line in enumerate(text.splitlines()[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise EventParseError("expected timestamp,x,y,polarity", line=lineno)
        try:
            t, x, y, p = (_ascii_int(v) for v in parts)
        except ValueError:
            raise EventParseError(f"{_refused(parts, 'field')} in {line!r}",
                                  line=lineno) from None
        if p not in (ON, OFF):
            raise EventParseError(f"polarity must be 0 or 1, got {p}", line=lineno)
        if x >= width or y >= height:
            raise EventParseError(f"coordinate ({x},{y}) outside sensor", line=lineno)
        ts.append(t); xs.append(x); ys.append(y); ps.append(p)
    return EventStream(ts, xs, ys, ps, width, height).rebased()


def serialize_portable_events(stream: EventStream) -> str:
    rows = zip(stream.timestamps.tolist(), stream.xs.tolist(),
               stream.ys.tolist(), stream.polarities.tolist())
    return "".join([f"{stream.width},{stream.height}\n"]
                   + [f"{t},{x},{y},{p}\n" for t, x, y, p in rows])


def _check_bins(n_timesteps, dt_us):
    """Refuse a bin count outside 1..2**63-1 and a bin width below 1 us."""
    if not 1 <= n_timesteps < 1 << 63:
        raise ValueError(f"bin count {n_timesteps} is not in 1..2**63-1")
    if dt_us < 1:
        raise ValueError(f"bin width {dt_us} us is below 1")


class BinaryVoxelGrid:
    """Sparse binary ``C(=1) x T x H x W`` grid of event presence.

    Cells hold +1 (an ON event was latest in the bin) or -1 (OFF).  Entries
    are kept sorted by ``(t, y, x)`` -- the cache-file record order.  The
    constructor always checks, so a disordered cache file loads sorted and a
    duplicate cell is rejected.
    """

    __slots__ = ("t", "x", "y", "values", "n_timesteps", "height", "width",
                 "dt_us", "_t_starts")

    channels = 1

    def __init__(self, t, x, y, values, n_timesteps, height, width, dt_us):
        t = np.asarray(t, dtype=np.int32)
        x = np.asarray(x, dtype=np.int32)
        y = np.asarray(y, dtype=np.int32)
        v = np.asarray(values, dtype=np.int8)
        if not (len(t) == len(x) == len(y) == len(v)):
            raise ValueError("grid columns have mismatched lengths")
        _check_bins(n_timesteps, dt_us)
        if len(t):
            if t.min() < 0 or t.max() >= n_timesteps:
                raise ValueError("bin index out of range")
            if x.min() < 0 or x.max() >= width or y.min() < 0 or y.max() >= height:
                raise ValueError("cell coordinate out of range")
            if not np.isin(v, (-1, 1)).all():
                raise ValueError("grid values must be +1 or -1")
        keys = (t.astype(np.int64) * height + y) * width + x
        if np.any(keys[1:] < keys[:-1]):
            order = np.argsort(keys, kind="stable")
            t, x, y, v, keys = t[order], x[order], y[order], v[order], keys[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate grid cells")
        self.t, self.x, self.y, self.values = t, x, y, v
        self.n_timesteps = int(n_timesteps)
        self.height = int(height)
        self.width = int(width)
        self.dt_us = int(dt_us)
        self._t_starts = np.searchsorted(t, np.arange(n_timesteps + 1))

    @property
    def n_nonzero(self) -> int:
        return len(self.t)

    def sparsity(self) -> float:
        """Fraction of grid cells that are zero."""
        total = self.n_timesteps * self.height * self.width
        return 1.0 - self.n_nonzero / total if total else 1.0

    def occupancy_per_timestep(self):
        return np.diff(self._t_starts)

    def timestep_sites(self, t):
        """(xs, ys, values) of the cells occupied in bin ``t``."""
        lo, hi = self._t_starts[t], self._t_starts[t + 1]
        return self.x[lo:hi], self.y[lo:hi], self.values[lo:hi]

    def equals(self, other) -> bool:
        return (self.n_timesteps == other.n_timesteps
                and self.height == other.height and self.width == other.width
                and self.dt_us == other.dt_us
                and np.array_equal(self.t, other.t)
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.y, other.y)
                and np.array_equal(self.values, other.values))

    def to_bytes(self) -> bytes:
        _check_extent(self.n_timesteps, self.height, self.width)
        head = _VOX_MAGIC + _VOX_HEADER.pack(1, self.n_timesteps, self.height,
                                             self.width, self.dt_us, self.n_nonzero)
        rec = np.empty(self.n_nonzero, dtype=_VOX_RECORD)
        rec["t"], rec["x"], rec["y"], rec["v"] = self.t, self.x, self.y, self.values
        return head + rec.tobytes()

    @classmethod
    def from_bytes(cls, data) -> "BinaryVoxelGrid":
        at = len(_VOX_MAGIC)
        if data[:at] != _VOX_MAGIC:
            raise FormatError("bad voxel cache magic", field="magic")
        if len(data) < _VOX_BODY:
            raise PartialReadError("truncated voxel cache header", byte_offset=at)
        c, t_bins, height, width, dt_us, n = _VOX_HEADER.unpack_from(data, at)
        if c != 1:
            raise FormatError(f"unsupported channel count {c}", field="channels")
        for field, value in (("n_timesteps", t_bins), ("dt_us", dt_us)):
            if value < 1:
                raise FormatError(f"voxel cache {field} {value} is below 1",
                                  field=field)
        _check_extent(t_bins, height, width)
        body = data[_VOX_BODY:]
        if len(body) < _VOX_RECORD.itemsize * n:
            raise PartialReadError("truncated voxel records", byte_offset=_VOX_BODY)
        rec = np.frombuffer(body, dtype=_VOX_RECORD, count=n)
        try:
            return cls(rec["t"], rec["x"], rec["y"], rec["v"], t_bins, height,
                       width, dt_us)
        except ValueError as e:
            raise FormatError(f"bad voxel record: {e}", field="records") from None

    def save(self, path):
        with _naming(path):
            data = self.to_bytes()
        _write_whole(path, data)

    @classmethod
    def load(cls, path) -> "BinaryVoxelGrid":
        with open(path, "rb") as fh:
            data = fh.read()
        with _naming(path):
            return cls.from_bytes(data)


@contextlib.contextmanager
def _naming(path):
    """A ``FormatError`` raised inside names the file ``path`` first."""
    try:
        yield
    except FormatError as e:
        e.args = (f"{path}: {e}",)
        raise


def _check_extent(t_bins, height, width):
    """``FormatError`` unless the cache file's records can hold the grid."""
    if max(t_bins, height, width) > 1 << 16:   # records hold u16 t, x, y
        raise FormatError(f"grid extent {t_bins}x{height}x{width} beyond "
                          "the records' u16 range", field="extent")


def build_voxel_grid(stream: EventStream, dt_us: int,
                     n_timesteps: int) -> BinaryVoxelGrid:
    """Bin a stream into a binary voxel grid.

    Bin index is ``timestamp // dt_us``; events at or past ``T * dt_us`` are
    dropped.  A cell that received events holds a single +/-1 no matter how
    many arrived; when both polarities land in one cell the most recent event
    wins (ties toward ON).
    """
    if max(dt_us, n_timesteps) > np.iinfo(np.int64).max:   # bins are int64
        raise ValueError("dt_us and n_timesteps must fit int64")
    _check_bins(n_timesteps, dt_us)   # the grid's refusals, before any division
    ts = stream.timestamps
    keep = ts < dt_us * n_timesteps
    ts = ts[keep]
    if len(ts) == 0:
        return BinaryVoxelGrid([], [], [], [], n_timesteps, stream.height,
                               stream.width, dt_us)
    xs, ys, ps = stream.xs[keep], stream.ys[keep], stream.polarities[keep]
    bins = (ts // dt_us).astype(np.int64)
    keys = (bins * stream.height + ys) * stream.width + xs
    order = np.lexsort((ps, ts, keys))
    k_sorted = keys[order]
    last = np.flatnonzero(np.r_[k_sorted[1:] != k_sorted[:-1], True])
    rows = order[last]
    values = np.where(ps[rows] == ON, 1, -1).astype(np.int8)
    return BinaryVoxelGrid(bins[rows], xs[rows], ys[rows], values, n_timesteps,
                           stream.height, stream.width, dt_us)


# ---------------------------------------------------------------------------
# dataset indexing and the DVS128 Gesture subject split

@dataclass(frozen=True)
class SampleRecord:
    path: str
    subject: int
    label: int | None = None
    illumination: str | None = None


class DatasetIndex:
    """Sample records partitioned into subject-disjoint train/test splits."""

    def __init__(self, train, test):
        self.train = list(train)
        self.test = list(test)
        if {r.subject for r in self.train} & {r.subject for r in self.test}:
            raise DatasetIndexError("train and test subjects overlap")

    @property
    def records(self):
        return self.train + self.test


_SUBJECT_RE = re.compile(r"user([0-9]+)")


def _parse_index_line(line, lineno):
    parts = [p.strip() for p in line.split(",")]
    path = parts[0]
    m = _SUBJECT_RE.search(os.path.basename(path))
    if not m:
        raise DatasetIndexError(f"line {lineno}: no user<NN> subject id in {path!r}")
    subject = int(m.group(1))
    label = parts[1] if len(parts) > 1 and parts[1] else None
    if label is not None:
        try:
            label = _ascii_int(label)
        except ValueError:
            raise DatasetIndexError(f"line {lineno}: label {label!r} is not a "
                                    f"non-negative integer") from None
    illum = parts[2] if len(parts) > 2 and parts[2] else None
    if illum is None:
        stem = os.path.basename(path).split(".")[0]
        tail = stem[m.end(1):].lstrip("_")
        illum = tail or None
    return SampleRecord(path, subject, label, illum)


def split_dvs128(index_source) -> DatasetIndex:
    """Partition an index of DVS128 Gesture samples by subject.

    Subjects 1-23 train, 24-29 test.  ``index_source`` is a path, text
    holding a newline, or an iterable of lines ``path[,label[,illumination]]``
    where the file name contains ``user<NN>``.
    """
    if isinstance(index_source, (str, os.PathLike)):
        text = _as_text(index_source)
        lines = text.splitlines()
    else:
        lines = [str(l) for l in index_source]
    train, test = [], []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rec = _parse_index_line(line, lineno)
        if 1 <= rec.subject <= 23:
            train.append(rec)
        elif 24 <= rec.subject <= 29:
            test.append(rec)
        else:
            raise DatasetIndexError(
                f"line {lineno}: subject {rec.subject} outside 1..29")
    return DatasetIndex(train, test)


# ---------------------------------------------------------------------------
# synthetic moving-edge dataset

_DIRECTIONS = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)]


def _render_moving_edge(rng, cls, width, height, n_timesteps, dt_us) -> EventStream:
    """One sample: a textured bar sweeping the frame in a class direction.

    Event-camera-like rendering: ON events where the bar's leading edge
    arrives, OFF events where its trailing edge leaves, and a flickering
    interior texture while it moves, plus uniform Poisson noise.  Entry into
    the frame is delayed by a random number of bins, so short prefixes of a
    sample may show noise only.

    The output is pinned draw for draw to a per-pixel loop over each bin:
    ``rng.random(k)`` per texture depth over its in-frame pixels, one scalar
    ``rng.integers(2)`` per flickering pixel, ``rng.random(n)`` over the
    bin's distinct cells, ``rng.poisson`` for the noise count, scalar
    ``rng.integers(width)``, ``(height)``, ``(2)`` per noise event,
    ``rng.choice(n, cap, replace=False)`` when the bin exceeds the cap, and
    one scalar ``rng.integers(dt_us)`` per event.  Cells keep their first
    insertion order: leading edge, trailing edge, then texture, each swept
    offset by offset.  The geometry is array arithmetic, and each run of
    scalar ``integers`` calls is one call with a size or an array of highs,
    which NumPy serves with the same 32-bit draws (a test pins this).
    """
    dx, dy = _DIRECTIONS[cls % 4]
    speed_tier = 1 + cls // 4
    norm = (dx * dx + dy * dy) ** 0.5
    ux, uy = dx / norm, dy / norm
    extent = width * abs(ux) + height * abs(uy)
    speed = speed_tier * extent / (1.35 * n_timesteps) * rng.uniform(0.85, 1.15)
    delay = rng.uniform(0.0, 0.3) * n_timesteps
    length = rng.uniform(0.3, 0.45) * min(width, height)
    thickness = rng.uniform(6.0, 9.0)
    texture_p = 0.5
    keep_prob = 0.9
    noise_lambda = 0.004 * width * height
    cap = int(0.05 * width * height)
    # lateral placement of the bar along the perpendicular axis
    px, py = -uy, ux
    cx = width / 2 + rng.uniform(-0.15, 0.15) * width + px * rng.uniform(-0.1, 0.1) * width
    cy = height / 2 + rng.uniform(-0.15, 0.15) * height
    # the front starts just outside the frame and reaches it after `delay` bins
    sx = cx - ux * (extent / 2 + 1 + speed * delay)
    sy = cy - uy * (extent / 2 + 1 + speed * delay)

    offs = np.arange(-length / 2, length / 2, 0.6)
    depth = np.arange(0.0, thickness, 0.6)
    # leading edge sweeps [f, f + speed) each bin; the trailing edge is the
    # same band displaced backwards by the bar thickness
    sweep = np.arange(0.0, speed, 0.6)
    lat_x, lat_y = px * offs, py * offs
    sweep_x, sweep_y = ux * sweep, uy * sweep
    depth_x, depth_y = ux * depth, uy * depth
    noise_highs = np.array([width, height, 2])

    def on_grid(bx, by):
        """Pixels of the rows ``b + lateral offsets`` inside the frame, row
        by row, with the per-row counts."""
        gx = np.rint(bx[:, None] + lat_x).astype(int)
        gy = np.rint(by[:, None] + lat_y).astype(int)
        ok = (gx >= 0) & (gx < width) & (gy >= 0) & (gy < height)
        return gx[ok], gy[ok], ok.sum(axis=1)

    ts_all, xs_all, ys_all, ps_all = [], [], [], []
    for t in range(n_timesteps):
        fx, fy = sx + ux * speed * t, sy + uy * speed * t
        on_x, on_y, _ = on_grid(fx + sweep_x, fy + sweep_y)
        off_x, off_y, _ = on_grid((fx - ux * thickness) + sweep_x,
                                  (fy - uy * thickness) + sweep_y)
        # interior texture: covered pixels flicker while the bar moves
        tex_x, tex_y, per_depth = on_grid(fx - depth_x, fy - depth_y)
        flick, tex_p = [], []
        for k in per_depth.tolist():
            take = rng.random(k) < texture_p
            flick.append(take)
            tex_p.append(rng.integers(2, size=np.count_nonzero(take)))
        flick = np.concatenate(flick)
        xs = np.concatenate([on_x, off_x, tex_x[flick]])
        ys = np.concatenate([on_y, off_y, tex_y[flick]])
        ps = np.concatenate([np.full(len(on_x), ON), np.full(len(off_x), OFF)]
                            + tex_p)
        # one cell per (x, y, polarity), in first-insertion order
        _, first = np.unique((xs * height + ys) * 2 + ps, return_index=True)
        first.sort()
        first = first[rng.random(len(first)) < keep_prob]
        noise = rng.integers(np.tile(noise_highs, rng.poisson(noise_lambda)))
        noise = noise.reshape(-1, 3)
        xs = np.concatenate([xs[first], noise[:, 0]])
        ys = np.concatenate([ys[first], noise[:, 1]])
        ps = np.concatenate([ps[first], noise[:, 2]])
        if len(xs) > cap:
            idx = np.sort(rng.choice(len(xs), size=cap, replace=False))
            xs, ys, ps = xs[idx], ys[idx], ps[idx]
        ts_all.append(t * dt_us + rng.integers(dt_us, size=len(xs)))
        xs_all.append(xs)
        ys_all.append(ys)
        ps_all.append(ps)
    return EventStream(np.concatenate(ts_all), np.concatenate(xs_all),
                       np.concatenate(ys_all), np.concatenate(ps_all),
                       width, height)


def synth_streams(classes, samples_per_class, height, width, n_timesteps,
                  dt_us, seed, test_per_class=None):
    """Deterministic synthetic event streams of moving edges.

    Classes are direction/speed combinations: the first four are the cardinal
    sweep directions, classes 5-8 repeat them at double speed.  Train and
    test halves are generated from disjoint seed streams.

    Returns ``(train, test)`` lists of ``(EventStream, label)``.
    """
    if not 2 <= classes <= 8:
        raise ValueError("classes must be in 2..8")
    if test_per_class is None:
        test_per_class = samples_per_class
    for name, value in (("height", height), ("width", width),
                        ("n_timesteps", n_timesteps), ("dt_us", dt_us)):
        if not value > 0:
            raise ValueError(f"{name} must be positive")
    for name, value in (("samples_per_class", samples_per_class),
                        ("test_per_class", test_per_class)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0")
    root = np.random.SeedSequence(seed)
    train_ss, test_ss = root.spawn(2)

    def make(split_ss, per_class):
        streams = []
        children = split_ss.spawn(classes * per_class)
        i = 0
        for cls in range(classes):
            for _ in range(per_class):
                rng = np.random.default_rng(children[i])
                i += 1
                streams.append((_render_moving_edge(rng, cls, width, height,
                                                    n_timesteps, dt_us), cls))
        return streams

    return make(train_ss, samples_per_class), make(test_ss, test_per_class)


def synth_dataset(classes, samples_per_class, height, width, n_timesteps,
                  dt_us, seed, test_per_class=None):
    """Deterministic synthetic dataset of moving-edge voxel grids.

    Voxelized form of :func:`synth_streams`; every timestep of every grid is
    at least 95% sparse, and two calls with the same arguments produce
    byte-identical grids.  Returns ``(train, test)`` lists of
    ``(BinaryVoxelGrid, label)``.
    """
    train_s, test_s = synth_streams(classes, samples_per_class, height, width,
                                    n_timesteps, dt_us, seed, test_per_class)
    to_grid = lambda pairs: [(build_voxel_grid(s, dt_us, n_timesteps), cls)
                             for s, cls in pairs]
    return to_grid(train_s), to_grid(test_s)


# ---------------------------------------------------------------------------
# DVS128 Gesture loading (optional, large download; see README)

def _read_ascii(path) -> str:
    """The text of ``path``; ``FormatError`` naming the file if not ASCII."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: {e}", field="row") from None


def _read_gesture_labels(path):
    """``(class, start, end)`` rows of a ``*_labels.csv``; classes are 1..11."""
    header, *lines = _read_ascii(path).split("\n")
    if "class" not in header:
        raise FormatError(f"{path}: unexpected label header {header!r}",
                          field="header")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            cls, start, end = (_ascii_int(v) for v in line.split(","))
        except ValueError:
            raise FormatError(f"{path} line {lineno}: expected class,start,"
                              f"end, got {line!r}", field="row") from None
        if not 1 <= cls <= 11:
            raise FormatError(f"{path} line {lineno}: class {cls} is "
                              "outside 1..11", field="class")
        rows.append((cls, start, end))
    return rows


class LazyGridList:
    """Sequence of (grid, label) pairs loaded from cache files on access."""

    def __init__(self, entries):
        self._entries = list(entries)  # (path, label)

    def __len__(self):
        return len(self._entries)

    def __getitem__(self, i):
        path, label = self._entries[i]
        return BinaryVoxelGrid.load(path), label


def load_dvs128(root, dt_us=10_000, n_timesteps=150, cache_dir=None):
    """Load DVS128 Gesture as voxel grids, slicing each annotated gesture.

    ``root`` must contain the extracted dataset (``*.aedat``,
    ``*_labels.csv``, ``trials_to_train.txt``, ``trials_to_test.txt``).  Each
    gesture contributes the first 1.5 s (``_GESTURE_WINDOW_US``) of events
    from its annotated start, binned into ``n_timesteps`` bins of ``dt_us``.
    Labels are mapped to 0..10.  With ``cache_dir`` set, grids are voxelized
    once and then read back lazily from cache files named
    ``<trial>_g<NN>_<dt_us>_<n_timesteps>.vox``.
    """
    root = os.fspath(root)
    index = {}
    for split in ("train", "test"):
        text = _read_ascii(os.path.join(root, f"trials_to_{split}.txt"))
        index[split] = [l.strip() for l in text.split("\n") if l.strip()]

    def samples_for(split):
        out = []
        for name in index[split]:
            aedat = os.path.join(root, name)
            labels = os.path.join(root, name.replace(".aedat", "_labels.csv"))
            stream = None
            for gi, (cls, start, _end) in enumerate(_read_gesture_labels(labels)):
                label = cls - 1
                if cache_dir is not None:
                    cpath = os.path.join(
                        cache_dir, f"{name[:-6]}_g{gi:02d}_{dt_us}_{n_timesteps}.vox")
                    if os.path.exists(cpath):
                        out.append((cpath, label))
                        continue
                if stream is None:
                    # label times are in the recording's native time base
                    try:
                        stream = parse_aedat(aedat, rebase=False)
                    except FormatError as e:   # the message names the file
                        e.args = (f"{aedat}: {e}",)
                        raise
                lo, hi = np.searchsorted(stream.timestamps,
                                         [start, start + _GESTURE_WINDOW_US])
                sl = EventStream(stream.timestamps[lo:hi] - start,
                                 stream.xs[lo:hi], stream.ys[lo:hi],
                                 stream.polarities[lo:hi],
                                 stream.width, stream.height)
                grid = build_voxel_grid(sl, dt_us, n_timesteps)
                if cache_dir is not None:
                    os.makedirs(cache_dir, exist_ok=True)
                    grid.save(cpath)
                    out.append((cpath, label))
                else:
                    out.append((grid, label))
        if cache_dir is not None:
            return LazyGridList(out)
        return out

    return samples_for("train"), samples_for("test")
