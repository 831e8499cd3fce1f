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
stream a record block by block as a run produces it.  Records are hashed as
they are written: the writer's SHA-256 of its bytes is the record's digest,
and nothing is read back to get it.  Readers validate the magic and sizes
and refuse anything inconsistent.
"""
from __future__ import annotations

import concurrent.futures
import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, build_grid

MAGIC = b"RPME1"
_HEAD = struct.Struct("<III QQ d")
MAX_FRAMES = 2**32 - 1  # the most frames a record holds: its header counts them in a u32
# bytes of frames gathered before a write reaches the file, so a record of
# many small frames goes out in large blocks; each table a record hands to
# its writer thread costs the caller about 0.1 ms of waiting for the GIL
# (2D 32^2 malliavin on a 2-vCPU host: 6 ms a run at 256 KiB, 2 ms at 1 MiB)
_WRITE_BUFFER = 2**20


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


def _columns(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """A table of frames and its t, c and y columns."""
    return table, table["t"], table["c"], table["y"]


class RecordWriter:
    """Streams one record to ``path``: the header when opened, then
    ``n_snapshots`` frames in blocks of any size, then ``finish`` with the
    derivative pairs; ``digest`` is then the SHA-256 of every byte written.
    Frames gather as rows of the table that ``read_record`` reads, of
    ``_WRITE_BUFFER`` bytes.  A record of one such table is written by
    ``finish``.  In a longer one each full table goes to a writer thread,
    which writes and hashes it while the caller fills a second table, so
    memory stays that of two tables.  The thread starts at the first full
    table and is joined by ``finish`` or on leaving the ``with`` block,
    which closes the file; an error it raised surfaces there, or at the
    next full table."""

    def __init__(self, path, grid: GridSpec, seed: int, path_id: int, dt: float, n_snapshots: int):
        self._grid, self._shape, self._left, self._held = grid, grid.shape, n_snapshots, 0
        frame = _fields(grid, "t", "c", "y")
        self._tables = [_columns(np.empty(min(n_snapshots, max(1, _WRITE_BUFFER // frame.itemsize)), frame))]
        self._sha, self._pool, self._flight = hashlib.sha256(), None, None
        self._fh = open(path, "wb")
        self._write(MAGIC + _HEAD.pack(grid.dim, grid.cells_per_axis, n_snapshots, seed, path_id, dt))

    def __enter__(self) -> RecordWriter:
        return self

    def __exit__(self, exc_type, *exc) -> None:
        try:
            self._join()
        except Exception:
            if exc_type is None:  # else the error that left the block is the one raised
                raise
        finally:
            self._fh.close()

    @property
    def digest(self) -> str:
        """Hex SHA-256 of the bytes written so far: the record's after ``finish``."""
        return self._sha.hexdigest()

    def _write(self, data) -> None:
        self._fh.write(data)
        self._sha.update(data)

    def _join(self) -> None:
        """Waits for the table in flight and joins the writer thread; raises its error."""
        pool, self._pool = self._pool, None
        if pool is not None:
            with pool:
                self._flight.result()

    def _room(self) -> tuple[np.ndarray, ...]:
        """The table to fill, with room for a row, and its columns: a full
        one goes to the writer thread (started here for the first) once the
        one before it is written, and the other table is filled."""
        if self._held < len(self._tables[0][0]):
            return self._tables[0]
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(1)
            self._tables.append(_columns(np.empty_like(self._tables[0][0])))
        else:
            self._flight.result()
        self._flight = self._pool.submit(self._write, self._tables[0][0])
        self._tables.reverse()
        self._held = 0
        return self._tables[0]

    def frames(self, t, c: np.ndarray, y: np.ndarray) -> None:
        """The next ``len(t)`` frames: times ``t``, c and y frame by frame."""
        n = len(t)
        if n > self._left:
            raise ValueError("more snapshots than the header announced")
        if c.shape != (n,) + self._shape or y.shape != c.shape:
            raise ValueError("arrays do not match the grid")
        done = 0
        while done < n:
            table = self._room()[0]
            k = min(n - done, len(table) - self._held)
            rows = table[self._held : self._held + k]
            rows["t"], rows["c"], rows["y"] = t[done : done + k], c[done : done + k], y[done : done + k]
            done, self._held = done + k, self._held + k
        self._left -= n

    def frame(self, t: float, c: np.ndarray, y: np.ndarray) -> None:
        """The next frame, written into its table row."""
        if not self._left:
            raise ValueError("more snapshots than the header announced")
        if c.shape != self._shape or y.shape != self._shape:
            raise ValueError("arrays do not match the grid")
        _, t_col, c_col, y_col = self._room()
        t_col[self._held], c_col[self._held], y_col[self._held] = t, c, y
        self._held += 1
        self._left -= 1

    def finish(self, pairs) -> None:
        if self._left:
            raise ValueError(f"{self._left} announced snapshots were not written")
        self._join()
        self._write(self._tables[0][0][: self._held])
        self._held = 0
        self._write(struct.pack("<I", len(pairs)))
        row = np.empty(1, _fields(self._grid, "r", "t", "drc", "dry"))
        for p in pairs:
            if p.drc.shape != self._shape or p.dry.shape != self._shape:
                raise ValueError("arrays do not match the grid")
            row["r"], row["t"], row["drc"], row["dry"] = p.r, p.t, p.drc, p.dry
            self._write(row)


def write_record(path, record: PathRecord) -> str:
    """Writes ``record`` to ``path`` and returns the hex SHA-256 of its bytes."""
    with RecordWriter(path, record.grid, record.seed, record.path_id, record.dt, len(record.times)) as out:
        out.frames(record.times, record.c, record.y)
        out.finish(record.pairs)
    return out.digest


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
