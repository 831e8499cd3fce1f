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
stream a record frame by frame as a run produces it.  Records are hashed as
they are written: the writer's SHA-256 of its bytes is the record's digest,
and nothing is read back to get it.  Readers validate the magic and sizes
and refuse anything inconsistent.
"""
from __future__ import annotations

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
# many small frames goes out in large blocks: few opens and writes a record
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


class RecordWriter:
    """Streams the records of a chunk of paths side by side, record i to
    ``paths[i]`` with path id ``path_ids[i]``: ``n_snapshots`` frames of
    every record, then ``finish`` with each record's derivative pairs;
    ``digests`` are then the SHA-256 of each record's bytes.  Frames gather
    as rows of the tables that ``read_record`` reads, a table a record, in
    one array of ``_WRITE_BUFFER`` bytes (at least a row a record).  A frame
    that finds the array full, and ``finish``, first append each record's
    rows to its file (the first write makes it, header first) and hash
    them, on the caller's thread: memory stays that of one array, one
    record file is open at a time, and a write error is raised by the call
    that made the write."""

    def __init__(self, paths, grid: GridSpec, seed: int, path_ids, dt: float, n_snapshots: int):
        self._paths, self._grid, self._left, self._held = list(paths), grid, n_snapshots, 0
        # a frame of every record, or one frame for them all
        self._shapes = {(len(self._paths),) + grid.shape, (1,) + grid.shape, grid.shape}
        frame = _fields(grid, "t", "c", "y")
        rows = min(n_snapshots, max(1, _WRITE_BUFFER // (frame.itemsize * len(self._paths))))
        self._table = np.empty((len(self._paths), rows), frame)
        self._shas = [hashlib.sha256() for _ in self._paths]
        self._heads = [MAGIC + _HEAD.pack(grid.dim, grid.cells_per_axis, n_snapshots, seed, int(pid), dt)
                       for pid in path_ids]

    @property
    def digests(self) -> list[str]:
        """Hex SHA-256 of the bytes written so far, record by record: the records' after ``finish``."""
        return [sha.hexdigest() for sha in self._shas]

    def _write(self, *blocks) -> None:
        """Appends item i of each of ``blocks`` to record i and its hash, on the first write after its header."""
        heads, self._heads = self._heads, [b""] * len(self._paths)
        for path, sha, head, *data in zip(self._paths, self._shas, heads, *blocks, strict=True):
            with open(path, "wb" if head else "ab") as fh:
                for block in (head, *data):
                    fh.write(block)
                    sha.update(block)

    def frame(self, t: float, c: np.ndarray, y: np.ndarray) -> None:
        """The next frame of every record, into its row: c and y in any layout, a record each or one for all."""
        if not self._left:
            raise ValueError("more snapshots than the header announced")
        if c.shape not in self._shapes or y.shape not in self._shapes:
            raise ValueError("arrays do not match the grid")
        table = self._table
        if self._held == table.shape[1]:
            self._write(table)
            self._held = 0
        table["t"][:, self._held], table["c"][:, self._held], table["y"][:, self._held] = t, c, y
        self._held, self._left = self._held + 1, self._left - 1

    def finish(self, *pairs) -> None:
        """Ends the records: the last frames, then the derivative pairs ``pairs[i]`` of record i (default none)."""
        if self._left:
            raise ValueError(f"{self._left} announced snapshots were not written")
        row, tails = np.empty(1, _fields(self._grid, "r", "t", "drc", "dry")), []
        for own in pairs or [()] * len(self._paths):
            tails.append(struct.pack("<I", len(own)))
            for p in own:
                if p.drc.shape != self._grid.shape or p.dry.shape != self._grid.shape:
                    raise ValueError("arrays do not match the grid")
                row["r"], row["t"], row["drc"], row["dry"] = p.r, p.t, p.drc, p.dry
                tails[-1] += row.tobytes()
        self._write(self._table[:, : self._held], tails)
        self._held = 0


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
