"""The .rpme1 container as properties: any record round-trips, a record
streamed frame by frame has the bytes of the whole-record encoding, and every
truncation is refused."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
