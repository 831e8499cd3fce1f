"""The .rpme1 container as properties: any record round-trips, a record
streamed frame by frame, alone or beside the other records of its chunk,
has the bytes of the whole-record encoding, and every truncation is
refused."""
import hashlib
import struct
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rpmelab import pathfile
from rpmelab.grid import build_grid
from rpmelab.pathfile import (
    DerivativePair,
    FormatError,
    PathRecord,
    RecordWriter,
    read_record,
)

SETTINGS = settings(max_examples=30, deadline=None)
F64 = st.floats(width=64, allow_nan=True, allow_infinity=True)


@st.composite
def records(draw, small=False):
    dim = draw(st.integers(1, 1 if small else 3))
    grid = build_grid(dim, draw(st.integers(2, 3 if small else {1: 6, 2: 3, 3: 2}[dim])))
    n_snap = draw(st.integers(0, 2 if small else 4))

    def field(n=None):
        shape = grid.shape if n is None else (n,) + grid.shape
        return draw(arrays(np.float64, shape, elements=F64))

    pairs = tuple(
        DerivativePair(draw(F64), draw(F64), field(), field())
        for _ in range(draw(st.integers(0, 1 if small else 3)))
    )
    return PathRecord(
        grid, draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**64 - 1)), draw(F64),
        draw(arrays(np.float64, (n_snap,), elements=F64)), field(n_snap), field(n_snap), pairs,
    )


def encoded(rec):
    """The layout of the module docstring, packed value by value."""
    g = rec.grid
    out = [b"RPME1", struct.pack("<III QQ d", g.dim, g.cells_per_axis, len(rec.times),
                                 rec.seed, rec.path_id, rec.dt)]
    for t, c, y in zip(rec.times, rec.c, rec.y):
        out += [struct.pack("<d", t), c.astype("<f8").tobytes(), y.astype("<f8").tobytes()]
    out.append(struct.pack("<I", len(rec.pairs)))
    for p in rec.pairs:
        out += [struct.pack("<dd", p.r, p.t), p.drc.astype("<f8").tobytes(), p.dry.astype("<f8").tobytes()]
    return b"".join(out)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@SETTINGS
@given(records())
def test_any_record_round_trips(tmp_path_factory, rec):
    path = tmp_path_factory.mktemp("rt") / "run.rpme1"
    stream(path, rec)
    back = read_record(path)
    assert back.grid == rec.grid and (back.seed, back.path_id) == (rec.seed, rec.path_id)
    assert same_bits(back.dt, rec.dt)
    for name in ("times", "c", "y"):
        assert same_bits(getattr(back, name), getattr(rec, name))
    assert len(back.pairs) == len(rec.pairs)
    for p, q in zip(back.pairs, rec.pairs):
        assert all(same_bits(getattr(p, n), getattr(q, n)) for n in ("r", "t", "drc", "dry"))


@SETTINGS
@given(records())
def test_streamed_record_has_the_bytes_of_the_whole_one(tmp_path_factory, rec):
    path = tmp_path_factory.mktemp("stream") / "streamed.rpme1"
    # frames arrive one at a time, in any memory layout
    out = RecordWriter([path], rec.grid, rec.seed, [rec.path_id], rec.dt, len(rec.times))
    for t, c, y in zip(rec.times, rec.c, rec.y):
        out.frame(float(t), np.asfortranarray(c), y[::-1][::-1])
    out.finish(rec.pairs)
    assert path.read_bytes() == encoded(rec)


def layouts(a, kind):
    """``a`` as an array of the same values in another memory layout."""
    every = (slice(None, None, -1),) * a.ndim
    return {
        "C": lambda: np.ascontiguousarray(a),
        "F": lambda: np.asfortranarray(a),
        "reversed": lambda: np.ascontiguousarray(a[every])[every],  # negative strides
        "strided": lambda: np.stack([a, a], axis=-1)[..., 1],
    }[kind]()


@SETTINGS
@given(records(), st.data())
def test_frames_of_any_layout_in_tables_of_any_size_have_the_bytes_of_the_whole_record(
    tmp_path_factory, rec, data
):
    path = tmp_path_factory.mktemp("layouts") / "layouts.rpme1"
    frame_bytes = 8 + 16 * rec.grid.n_nodes
    buffer = data.draw(st.sampled_from([2, 2 * frame_bytes + 1, 3 * frame_bytes, pathfile._WRITE_BUFFER]))
    kinds = st.sampled_from(["C", "F", "reversed", "strided"])
    with mock.patch.object(pathfile, "_WRITE_BUFFER", buffer):
        out = RecordWriter([path], rec.grid, rec.seed, [rec.path_id], rec.dt, len(rec.times))
        for t, c, y in zip(rec.times, rec.c, rec.y):
            out.frame(t, layouts(c, data.draw(kinds)), layouts(y, data.draw(kinds)))
        out.finish(rec.pairs)
    assert path.read_bytes() == encoded(rec)


def test_frames_hold_to_the_announced_frame_count_and_the_grid(tmp_path):
    # two records: c and y a record each, or one frame for both
    grid = build_grid(2, 2)
    c, y = np.random.default_rng(0).standard_normal((2, 2, 2) + grid.shape)
    paths = [tmp_path / "a.rpme1", tmp_path / "b.rpme1"]
    out = RecordWriter(paths, grid, 1, [2, 3], 0.5, 2)
    # a refused frame writes nothing
    for bad in ((c[0, :, :3], y[0]), (c[0], y[0, :1, :3]), (np.stack([c[0]] * 3), y[0]), (c[0, 0, 0], y[0])):
        with pytest.raises(ValueError, match="do not match the grid"):
            out.frame(0.0, *bad)
    out.frame(0.0, c[0, 0], y[0])
    with pytest.raises(ValueError, match="1 announced snapshots were not written"):
        out.finish()
    out.frame(0.5, c[1, :1], y[1])
    with pytest.raises(ValueError, match="more snapshots"):
        out.frame(1.0, c[1], y[1])
    out.finish()
    for i, path in enumerate(paths):
        c_i = np.stack([c[0, 0], c[1, 0]])
        assert path.read_bytes() == encoded(PathRecord(grid, 1, 2 + i, 0.5, np.array([0.0, 0.5]), c_i, y[:, i], ()))


def test_writing_a_record_holds_one_table_not_its_frames(tmp_path, monkeypatch):
    # the frames gather in one table, written out each time it is full;
    # tables of 256 KiB keep the record more than ten tables long
    monkeypatch.setattr(pathfile, "_WRITE_BUFFER", 2**18)
    grid = build_grid(2, 16)
    n = 601  # c and y over 601 frames of 18^2 nodes: 3 MiB, the last table part full
    rng = np.random.default_rng(1)
    rec = PathRecord(grid, 0, 0, 0.1, np.arange(n) * 0.1, rng.random((n,) + grid.shape),
                     rng.random((n,) + grid.shape), ())
    stream(tmp_path / "warm.rpme1", rec)
    tracemalloc.start()
    try:
        stream(tmp_path / "run.rpme1", rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.c.nbytes + rec.y.nbytes > 10 * pathfile._WRITE_BUFFER
    assert peak < 2 * pathfile._WRITE_BUFFER, peak
    assert (tmp_path / "run.rpme1").read_bytes() == encoded(rec)


@settings(max_examples=15, deadline=None)
@given(records(small=True))
def test_every_truncation_raises_format_error(tmp_path_factory, rec):
    d = tmp_path_factory.mktemp("cut")
    raw = encoded(rec)
    cut = d / "cut.rpme1"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        try:
            read_record(cut)
        except FormatError:
            continue
        raise AssertionError(f"a record cut to {n} of {len(raw)} bytes was read")


def test_writer_holds_to_the_announced_frame_count(tmp_path):
    grid = build_grid(1, 2)
    zero = np.zeros(grid.shape)
    out = RecordWriter([tmp_path / "short.rpme1"], grid, 0, [0], 0.1, 2)
    out.frame(0.0, zero, zero)
    with pytest.raises(ValueError, match="not written"):
        out.finish(())
    out = RecordWriter([tmp_path / "long.rpme1"], grid, 0, [0], 0.1, 1)
    out.frame(0.0, zero, zero)
    with pytest.raises(ValueError, match="more snapshots"):
        out.frame(0.1, zero, zero)


class OpenFiles:
    """``open`` for the pathfile module that counts the files open at once."""

    def __init__(self):
        self.now = self.most = 0

    def __call__(self, *args):
        fh, count = open(*args), self

        class Counted:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()

            def write(self, data):
                return fh.write(data)

            def close(self):
                count.now -= 1
                fh.close()

        self.now += 1
        self.most = max(self.most, self.now)
        return Counted()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_records_written_side_by_side_have_the_bytes_of_each_alone(tmp_path_factory, data):
    # a chunk's records in one writer: their own path ids, frames and pairs, or
    # one c for them all (the shared c of a wave), in one table, two or many;
    # one record file is open at a time
    draw = data.draw
    grid = build_grid(1, draw(st.integers(2, 4)))
    k, n = draw(st.integers(1, 4)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = rng.standard_normal(n)
    shared = draw(st.sampled_from([None, (1,) + grid.shape, grid.shape]))
    c = rng.standard_normal((n, k) + grid.shape)
    if shared is not None:
        c[...] = rng.standard_normal((n, 1) + grid.shape)
    y = rng.standard_normal((n, k) + grid.shape)
    pairs = [tuple(DerivativePair(float(r), 1.0, *rng.standard_normal((2,) + grid.shape))
                   for r in range(draw(st.integers(0, 2)))) for _ in range(k)]
    ids = draw(st.lists(st.integers(0, 2**64 - 1), min_size=k, max_size=k))
    recs = [PathRecord(grid, 9, pid, 0.1, times, c[:, i], y[:, i], own) for i, (pid, own) in enumerate(zip(ids, pairs))]
    handed = c if shared is None else c[:, 0].reshape((n,) + shared)
    buffer = draw(st.sampled_from([1, 2 * k * (8 + 16 * grid.n_nodes) + 1, pathfile._WRITE_BUFFER]))
    d = tmp_path_factory.mktemp("side")
    paths = [d / f"{i}.rpme1" for i in range(k)]
    files = OpenFiles()
    with mock.patch.object(pathfile, "_WRITE_BUFFER", buffer), mock.patch.object(pathfile, "open", files, create=True):
        out = RecordWriter(paths, grid, 9, ids, 0.1, n)
        for i in range(n):
            out.frame(times[i], handed[i], y[i])
        out.finish(*pairs if any(pairs) or draw(st.booleans()) else ())
    assert files.most == 1 and files.now == 0
    for path, rec, digest in zip(paths, recs, out.digests):
        data = path.read_bytes()
        assert data == encoded(rec)
        assert digest == hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# the digest taken as the record is written, on the caller's thread


@st.composite
def streams(draw):
    """A record on a small grid and a write buffer giving its frames one
    table, two or many."""
    grid = build_grid(1, draw(st.integers(2, 4)))
    n = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = tuple(DerivativePair(float(r), 1.0, *rng.standard_normal((2,) + grid.shape))
                  for r in range(draw(st.integers(0, 2))))
    rec = PathRecord(grid, 3, 4, 0.1, rng.standard_normal(n), rng.standard_normal((n,) + grid.shape),
                     rng.standard_normal((n,) + grid.shape), pairs)
    tables = draw(st.sampled_from(["one", "two", "many"]))
    rows = {"one": max(n, 1), "two": max(1, -(-n // 2)), "many": draw(st.integers(1, max(1, n // 3)))}[tables]
    return rec, rows * (8 + 16 * grid.n_nodes)


def stream(path, rec):
    """``rec`` streamed to ``path`` frame by frame.  Returns the writer."""
    out = RecordWriter([path], rec.grid, rec.seed, [rec.path_id], rec.dt, len(rec.times))
    for frame in zip(rec.times, rec.c, rec.y):
        out.frame(*frame)
    out.finish(rec.pairs)
    return out


def failing_at(write, fails_at, threads):
    """``RecordWriter._write`` that notes the thread of each write in
    ``threads`` and raises at the ``fails_at``-th write (counted from 0)."""

    def patched(self, *blocks):
        threads.append(threading.current_thread())
        if len(threads) > fails_at:
            raise OSError("disk full")
        return write(self, *blocks)

    return patched


@settings(max_examples=60, deadline=None)
@given(streams(), st.integers(0, 3))
def test_the_streamed_digest_is_that_of_the_file_and_no_writer_starts_a_thread(tmp_path_factory, case, fails_at):
    rec, buffer = case
    rows = buffer // (8 + 16 * rec.grid.n_nodes)  # frames a table holds
    written_full = max(0, -(-len(rec.times) // rows) - 1)  # full tables followed by another frame
    d = tmp_path_factory.mktemp("digest")
    before, started = set(threading.enumerate()), []
    start = threading.Thread.start
    with mock.patch.object(pathfile, "_WRITE_BUFFER", buffer), \
            mock.patch.object(threading.Thread, "start", lambda self: started.append(self) or start(self)):
        out = stream(d / "whole.rpme1", rec)
        data = (d / "whole.rpme1").read_bytes()
        assert data == encoded(rec)
        assert out.digests == [hashlib.sha256(data).hexdigest()]

        # a write error surfaces at the write that failed: the frame after a
        # full table, or finish
        threads = []
        out = RecordWriter([d / "fails.rpme1"], rec.grid, rec.seed, [rec.path_id], rec.dt, len(rec.times))
        with mock.patch.object(RecordWriter, "_write", failing_at(RecordWriter._write, fails_at, threads)):
            failed_at = None
            for k, frame in enumerate(zip(rec.times, rec.c, rec.y)):
                try:
                    out.frame(*frame)
                except OSError:
                    failed_at = k
                    break
            else:
                try:
                    out.finish(rec.pairs)
                except OSError:
                    failed_at = "finish"
    assert not started and set(threading.enumerate()) == before
    assert set(threads) == {threading.current_thread()}
    # each full table is written by the frame after it, the rest by finish
    expected = (fails_at + 1) * rows if fails_at < written_full else "finish" if fails_at == written_full else None
    assert failed_at == expected
