"""Flat little-endian binary container for stored trajectories.

Layout, all integers unsigned little-endian, all floats IEEE f64:

    magic   5 bytes  b"RPME1"
    u32     dim
    u32     cells_per_axis
    u32     n_snapshots
    u64     seed
    u64     path_id
    f64     dt
    n_snapshots times:
        f64 t, then c then y, each row-major over all (M+2)**dim nodes
    u32     derivative pair count
    per pair:
        f64 r, f64 t, then drc then dry, row-major over all nodes

The frame count comes first and the pairs last, so ``RecordWriter`` can
stream a record frame by frame as a run produces it.  Readers validate the
magic and sizes and refuse anything inconsistent.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, build_grid

MAGIC = b"RPME1"
_HEAD = struct.Struct("<III QQ d")
# bytes buffered before a write reaches the file, so a record of many small
# frames goes out in large blocks
_WRITE_BUFFER = 2**18


@dataclass(frozen=True)
class DerivativePair:
    """One stored Malliavin slice: differentiation time r, evaluation time t,
    concentration derivative and state derivative over all nodes."""

    r: float
    t: float
    drc: np.ndarray
    dry: np.ndarray


@dataclass(frozen=True)
class PathRecord:
    grid: GridSpec
    seed: int
    path_id: int
    dt: float
    times: np.ndarray
    c: np.ndarray  # (n_snapshots, *grid.shape)
    y: np.ndarray
    pairs: tuple[DerivativePair, ...]


class FormatError(ValueError):
    pass


def _fields(grid: GridSpec, *names: str) -> np.dtype:
    """One snapshot (t, c, y) or one pair (r, t, drc, dry) as it is stored:
    scalars first, then the arrays over all nodes."""
    return np.dtype([(n, "<f8", () if n in ("r", "t") else grid.shape) for n in names])


class RecordWriter:
    """Streams one record to ``path``: the header when opened, then
    ``n_snapshots`` calls of ``frame``, then ``finish`` with the derivative
    pairs.  Arrays go to the file through the buffer protocol, and memory
    stays that of one frame.  Use it in a ``with`` block, which closes the
    file."""

    def __init__(self, path, grid: GridSpec, seed: int, path_id: int, dt: float, n_snapshots: int):
        self._grid, self._left = grid, n_snapshots
        self._fh = open(path, "wb", buffering=_WRITE_BUFFER)
        self._fh.write(MAGIC + _HEAD.pack(grid.dim, grid.cells_per_axis, n_snapshots, seed, path_id, dt))

    def __enter__(self) -> RecordWriter:
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _write(self, head: bytes, a: np.ndarray, b: np.ndarray) -> None:
        if a.shape != self._grid.shape or b.shape != self._grid.shape:
            raise ValueError("arrays do not match the grid")
        self._fh.write(head)
        self._fh.write(np.ascontiguousarray(a, dtype="<f8"))
        self._fh.write(np.ascontiguousarray(b, dtype="<f8"))

    def frame(self, t: float, c: np.ndarray, y: np.ndarray) -> None:
        if self._left == 0:
            raise ValueError("more snapshots than the header announced")
        self._write(struct.pack("<d", t), c, y)
        self._left -= 1

    def finish(self, pairs) -> None:
        if self._left:
            raise ValueError(f"{self._left} announced snapshots were not written")
        self._fh.write(struct.pack("<I", len(pairs)))
        for pair in pairs:
            self._write(struct.pack("<dd", pair.r, pair.t), pair.drc, pair.dry)


def write_record(path, record: PathRecord) -> None:
    g, n_snap = record.grid, len(record.times)
    if record.c.shape != (n_snap,) + g.shape or record.y.shape != (n_snap,) + g.shape:
        raise ValueError("snapshot arrays do not match the grid")
    with RecordWriter(path, g, record.seed, record.path_id, record.dt, n_snap) as out:
        for t, c, y in zip(record.times, record.c, record.y):
            out.frame(t, c, y)
        out.finish(record.pairs)


def _take(buf: memoryview, offset: int, n_bytes: int, what: str) -> tuple[memoryview, int]:
    if offset + n_bytes > len(buf):
        raise FormatError(f"truncated file while reading {what}")
    return buf[offset : offset + n_bytes], offset + n_bytes


def _table(buf: memoryview, offset: int, dtype: np.dtype, count: int, what: str):
    raw, offset = _take(buf, offset, dtype.itemsize * count, what)
    return np.frombuffer(raw, dtype), offset


def read_record(path) -> PathRecord:
    with open(path, "rb") as fh:
        buf = memoryview(fh.read())
    head, off = _take(buf, 0, len(MAGIC), "magic")
    if bytes(head) != MAGIC:
        raise FormatError(f"bad magic {bytes(head)!r}")
    head, off = _take(buf, off, _HEAD.size, "header")
    dim, m, n_snap, seed, path_id, dt = _HEAD.unpack(head)
    try:
        grid = build_grid(int(dim), int(m))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    frames, off = _table(buf, off, _fields(grid, "t", "c", "y"), n_snap, "snapshots")
    raw, off = _take(buf, off, 4, "pair count")
    pairs, off = _table(buf, off, _fields(grid, "r", "t", "drc", "dry"), *struct.unpack("<I", raw), "pairs")
    if off != len(buf):
        raise FormatError(f"{len(buf) - off} trailing bytes")
    c, y = frames["c"].copy(), frames["y"].copy()
    pairs = tuple(DerivativePair(float(p["r"]), float(p["t"]), p["drc"].copy(), p["dry"].copy()) for p in pairs)
    return PathRecord(grid, seed, path_id, dt, frames["t"].copy(), c, y, pairs)
