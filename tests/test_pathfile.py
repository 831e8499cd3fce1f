"""The .rpme1 container as properties: any record round-trips, a record
streamed frame by frame or in blocks has the bytes of the whole-record
encoding, and every truncation is refused."""
import struct
import tracemalloc

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
    write_record,
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
    write_record(path, rec)
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
    d = tmp_path_factory.mktemp("stream")
    write_record(d / "whole.rpme1", rec)
    # frames arrive one at a time, in any memory layout
    with RecordWriter(d / "streamed.rpme1", rec.grid, rec.seed, rec.path_id, rec.dt, len(rec.times)) as out:
        for t, c, y in zip(rec.times, rec.c, rec.y):
            out.frame(float(t), np.asfortranarray(c), y[::-1][::-1])
        out.finish(rec.pairs)
    expected = encoded(rec)
    assert (d / "whole.rpme1").read_bytes() == expected
    assert (d / "streamed.rpme1").read_bytes() == expected


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
def test_blocks_of_any_size_and_layout_have_the_bytes_of_the_whole_record(tmp_path_factory, rec, data):
    path = tmp_path_factory.mktemp("blocks") / "blocks.rpme1"
    n = len(rec.times)
    # repeated cuts give empty blocks; a small buffer splits a block's table
    cuts = [0, *sorted(data.draw(st.lists(st.integers(0, n), max_size=4), label="cuts")), n]
    frame_bytes = 8 + 16 * rec.grid.n_nodes
    buffer = data.draw(st.sampled_from([2, 2 * frame_bytes + 1, 3 * frame_bytes, pathfile._WRITE_BUFFER]))
    kinds = st.sampled_from(["C", "F", "reversed", "strided"])
    default, pathfile._WRITE_BUFFER = pathfile._WRITE_BUFFER, buffer
    try:
        with RecordWriter(path, rec.grid, rec.seed, rec.path_id, rec.dt, n) as out:
            for lo, hi in zip(cuts, cuts[1:]):
                t, c, y = rec.times[lo:hi], rec.c[lo:hi], rec.y[lo:hi]
                out.frames(layouts(t, data.draw(kinds)), layouts(c, data.draw(kinds)),
                           layouts(y, data.draw(kinds)))
            out.finish(rec.pairs)
    finally:
        pathfile._WRITE_BUFFER = default
    assert path.read_bytes() == encoded(rec)


def test_blocks_hold_to_the_announced_frame_count_and_the_grid(tmp_path):
    grid = build_grid(2, 2)
    rng = np.random.default_rng(0)
    c, y = rng.standard_normal((2, 3) + grid.shape)
    t = np.array([0.0, 0.5, 1.0])
    path = tmp_path / "blocks.rpme1"
    with RecordWriter(path, grid, 1, 2, 0.5, 2) as out:
        # a refused block writes nothing
        with pytest.raises(ValueError, match="more snapshots"):
            out.frames(t, c, y)
        for bad in ((t[:1], c[0], y[0]), (t[:2], c[:1], y[:1]), (t[:1], c[:1], y[:1, :3])):
            with pytest.raises(ValueError, match="do not match the grid"):
                out.frames(*bad)
        out.frames(t[:1], c[:1], y[:1])
        with pytest.raises(ValueError, match="1 announced snapshots were not written"):
            out.finish(())
        out.frames(t[1:1], c[1:1], y[1:1])
        out.frames(t[1:2], c[1:2], y[1:2])
        with pytest.raises(ValueError, match="more snapshots"):
            out.frame(1.0, c[2], y[2])
        out.finish(())
    rec = PathRecord(grid, 1, 2, 0.5, t[:2], c[:2], y[:2], ())
    assert path.read_bytes() == encoded(rec)


def test_writing_a_record_holds_one_table_block_not_its_frames(tmp_path):
    grid = build_grid(2, 16)
    n = 601  # c and y over 601 frames of 18^2 nodes: 3 MiB, the last table block part full
    rng = np.random.default_rng(1)
    rec = PathRecord(grid, 0, 0, 0.1, np.arange(n) * 0.1, rng.random((n,) + grid.shape),
                     rng.random((n,) + grid.shape), ())
    write_record(tmp_path / "warm.rpme1", rec)
    tracemalloc.start()
    try:
        write_record(tmp_path / "run.rpme1", rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.c.nbytes + rec.y.nbytes > 10 * pathfile._WRITE_BUFFER
    assert peak < 3 * pathfile._WRITE_BUFFER, peak
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
    with RecordWriter(tmp_path / "short.rpme1", grid, 0, 0, 0.1, 2) as out:
        out.frame(0.0, zero, zero)
        with pytest.raises(ValueError, match="not written"):
            out.finish(())
    with RecordWriter(tmp_path / "long.rpme1", grid, 0, 0, 0.1, 1) as out:
        out.frame(0.0, zero, zero)
        with pytest.raises(ValueError, match="more snapshots"):
            out.frame(0.1, zero, zero)
