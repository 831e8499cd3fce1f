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
stream a record block by block as a run produces it.  Readers validate the
magic and sizes and refuse anything inconsistent.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, build_grid

MAGIC = b"RPME1"
_HEAD = struct.Struct("<III QQ d")
# bytes of frames gathered before a write reaches the file, so a record of
# many small frames goes out in large blocks
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


@lru_cache(maxsize=32)
def _fields(grid: GridSpec, *names: str) -> np.dtype:
    """One snapshot (t, c, y) or one pair (r, t, drc, dry) as it is stored:
    scalars first, then the arrays over all nodes."""
    return np.dtype([(n, "<f8", () if n in ("r", "t") else grid.shape) for n in names])


class RecordWriter:
    """Streams one record to ``path``: the header when opened, then
    ``n_snapshots`` frames in blocks of any size, then ``finish`` with the
    derivative pairs.  Frames gather as rows of the table that
    ``read_record`` reads, which goes to the file each time its
    ``_WRITE_BUFFER`` bytes fill, so memory stays that of one such table.
    Use it in a ``with`` block, which closes the file."""

    def __init__(self, path, grid: GridSpec, seed: int, path_id: int, dt: float, n_snapshots: int):
        self._grid, self._shape, self._left, self._held = grid, grid.shape, n_snapshots, 0
        frame = _fields(grid, "t", "c", "y")
        self._frames = np.empty(min(n_snapshots, max(1, _WRITE_BUFFER // frame.itemsize)), frame)
        self._fh = open(path, "wb")
        self._fh.write(MAGIC + _HEAD.pack(grid.dim, grid.cells_per_axis, n_snapshots, seed, path_id, dt))

    def __enter__(self) -> RecordWriter:
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _put(self, table: np.ndarray, *columns) -> None:
        """Rows from columns of any layout after those ``table`` holds."""
        n, a, b = len(columns[0]), columns[-2], columns[-1]  # (t, c, y) or (r, t, drc, dry)
        if a.shape != (n,) + self._shape or b.shape != a.shape:
            raise ValueError("arrays do not match the grid")
        done = 0
        while done < n:
            k = min(n - done, len(table) - self._held)
            rows = table[self._held : self._held + k]
            for name, col in zip(table.dtype.names, columns):
                rows[name] = col[done : done + k]
            done, self._held = done + k, self._held + k
            if self._held == len(table):
                self._fh.write(table)
                self._held = 0

    def frames(self, t, c: np.ndarray, y: np.ndarray) -> None:
        """The next ``len(t)`` frames: times ``t``, c and y frame by frame."""
        if len(t) > self._left:
            raise ValueError("more snapshots than the header announced")
        self._put(self._frames, t, c, y)
        self._left -= len(t)

    def frame(self, t: float, c: np.ndarray, y: np.ndarray) -> None:
        self.frames((t,), c[None], y[None])

    def finish(self, pairs) -> None:
        if self._left:
            raise ValueError(f"{self._left} announced snapshots were not written")
        self._fh.write(self._frames[: self._held])
        self._held = 0
        self._fh.write(struct.pack("<I", len(pairs)))
        table = np.empty(1, _fields(self._grid, "r", "t", "drc", "dry"))
        for p in pairs:
            self._put(table, (p.r,), (p.t,), p.drc[None], p.dry[None])


def write_record(path, record: PathRecord) -> None:
    with RecordWriter(path, record.grid, record.seed, record.path_id, record.dt, len(record.times)) as out:
        out.frames(record.times, record.c, record.y)
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
