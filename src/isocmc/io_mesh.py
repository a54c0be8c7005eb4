"""Disk formats: grid text files, Wavefront OBJ meshes, JSON reports.

Everything written here is deterministic.  Floats go out with 17
significant digits, which round-trips doubles exactly, so
write -> read -> write reproduces a grid file byte for byte and repeated
identical invocations produce identical reports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import mmap
import operator
import os
import shutil
import signal
import tempfile
import threading
from enum import Enum
from pathlib import Path
from typing import Union

import numpy as np

from .graphgeo import Rect, ScalarField
from .weierstrass import SurfaceSample

GRID_MAGIC = "# cmcgrid v1"
REPORT_SCHEMA_VERSION = "2"
# Nodes per block of records that the reader parses with one numpy.loadtxt call.
_BLOCK_NODES = 1 << 13
# Fewest nodes per process for which a parallel body read repays its fork and skip.
_PARALLEL_NODES = 1 << 15
_FILE_IDENTITY = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")
# A record with x and y as text in bytes 0-24 and 25-49 (%.17g writes <= 24).
_TEXT_RECORD = np.dtype([("x", "S25"), ("y", "S25"), ("ell", "f8")])


class GridFormatError(ValueError):
    """Grid file text violates the format or its invariants."""


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _records(x: np.ndarray, y: np.ndarray, ell: np.ndarray):
    """Yield the "x y ell" lines (as _fmt formats them) one lattice row at a time.

    A graph lattice (x rows equal row 0, y rows constant, bit for bit) puts row
    0's x texts, formatted once, in each row's template; others use all-%.17g rows.
    """
    xb, yb = (np.asarray(a, dtype=np.float64).view(np.uint64) for a in (x, y))
    if np.all(xb == xb[:1]) and np.all(yb == yb[:, :1]):
        x_texts = [_fmt(v) for v in x[0].tolist()]
        for yj, er in zip(y[:, 0].tolist(), ell):
            sep = f" {yj:.17g} %.17g\n"
            yield (sep.join(x_texts) + sep) % tuple(er.tolist())
    else:
        template = "%.17g %.17g %.17g\n" * ell.shape[1]
        for row in np.stack((x, y, ell), axis=-1).reshape(len(ell), -1):
            yield template % tuple(row.tolist())


def _vertices(records: str) -> str:
    """The OBJ "v x y ell" lines of a run of grid record lines."""
    return "v " + records[:-1].replace("\n", "\nv ") + "\n"


def _header_value(lines: list[str], idx: int, key: str) -> str:
    if not lines[idx].startswith(key + " "):
        raise GridFormatError(f"malformed header: expected '{key} ...' on line {idx + 1}")
    return lines[idx][len(key) + 1 :]


def _body_lines(fh, expected: int):
    """Yield the `expected` record lines left in fh; blank lines may only trail."""
    found = 0
    for line in fh:
        if line.isspace():
            break
        found += 1
        yield line
    if any(not rest.isspace() for rest in fh):
        raise GridFormatError("malformed record: blank line inside the body")
    if found != expected:
        raise GridFormatError(f"record count mismatch: expected {expected}, found {found}")


def _loadtxt(lines, dtype=float) -> np.ndarray:
    """numpy.loadtxt of record lines, or of single texts; floats come back 2-D."""
    try:
        return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2 if dtype is float else 1)
    except GridFormatError:
        raise
    except ValueError as exc:
        raise GridFormatError(f"malformed record: {exc}") from None


def _body_values(fh, n_u: int, n_v: int, as_text: bool = True, out=None) -> np.ndarray | None:
    """x, y and ell of the records left in fh, shape (3, n_v, n_u), in `out` if
    given; None if a text filled its 25 bytes, since it may have been cut short."""
    body, values = _body_lines(fh, n_u * n_v), np.empty((3, n_v, n_u)) if out is None else out
    step, x0 = max(1, _BLOCK_NODES // n_u), None  # row 0's x (bytes, values)
    for j in range(0, n_v, step):
        block = values[:, j : j + step]
        records = itertools.islice(body, block[0].size)
        if as_text:  # until a block's x rows differ from row 0 or a y row varies
            rec = _loadtxt(records, _TEXT_RECORD).reshape(block[0].shape)
            raw = rec.view(np.uint8).reshape(*rec.shape, -1)
            if raw[..., 24].any() or raw[..., 49].any():
                return None
            x, y = raw[..., :25], raw[..., 25:50]
            x0 = x0 or (x[0], _loadtxt(rec["x"][0])[:, 0])
            as_text = bool(np.all(x == x0[0]) and np.all(y == y[:, :1]))
            if as_text:
                block[0], block[1] = x0[1], _loadtxt(rec["y"][:, 0])
            else:
                block[0], block[1] = (_loadtxt(rec[k].ravel()).reshape(rec.shape) for k in "xy")
            block[2] = rec["ell"]
        else:
            flat = _loadtxt(records)
            if flat.shape[1] != 3:
                raise GridFormatError("malformed record: expected three numbers per line")
            block[:] = flat.T.reshape(block.shape)
        if not np.all(np.isfinite(block)):
            raise GridFormatError("non-finite value in records")
    list(body)  # runs the blank-line and record-count checks to the end
    return values


def _forked_ranges(n_u: int, n_v: int, prepare):
    """Run a range function on W contiguous row ranges at once, W <= the usable CPUs.

    prepare(rows), given the bounds 0 = rows[0] < ... < rows[W] = n_v, returns
    (run, result) before any fork.  Forked children run run(k), k = 1..W-1, and
    end through os._exit; this process runs run(0).  result if every run(k)
    returned True; None if that does not pay or fails in any way."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, n_u * n_v // _PARALLEL_NODES, n_v) if hasattr(os, "fork") else 1
    if workers < 2 or threading.active_count() != 1:
        return None
    rows, pids, ok = [k * n_v // workers for k in range(workers + 1)], [], False
    try:
        run, result = prepare(rows)
        for k in range(1, workers):
            # On Python >= 3.12 fork warns (DeprecationWarning) in a process with other
            # threads, and numpy's BLAS pool is one.  A child only parses or formats
            # text, never calls BLAS, and OpenBLAS shuts its pool down across a fork.
            pids.append(os.fork())
            if pids[-1] == 0:
                try:
                    ok = run(k)
                finally:
                    os._exit(0 if ok else 1)
        ok = run(0)
    except Exception:  # the serial path repeats the work and raises its own error
        pass
    finally:
        for pid in pids:
            if not ok:
                os.kill(pid, signal.SIGKILL)
            ok = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0 and ok
    return result if ok else None


def _parallel_values(path: str | Path, fh, n_u: int, n_v: int) -> np.ndarray | None:
    """The body as _body_values gives it, parsed in row ranges into one shared
    array, a child's range from its own handle.  None if that does not pay or fails."""

    def prepare(rows):
        values = np.frombuffer(mmap.mmap(-1, 24 * n_u * n_v)).reshape(3, n_v, n_u)
        ident = _FILE_IDENTITY(os.fstat(fh.fileno()))

        def run(k: int) -> bool:  # the last range reads to the end
            lo, hi, skip = rows[k], rows[k + 1], 7 + rows[k] * n_u if k else 0
            with open(path) if k else contextlib.nullcontext(fh) as own:  # a child's own handle
                lines = itertools.islice(own, skip, skip + (hi - lo) * n_u if hi < n_v else None)
                same = _FILE_IDENTITY(os.fstat(own.fileno())) == ident
                return same and _body_values(lines, n_u, hi - lo, out=values[:, lo:hi]) is not None

        return run, values

    return _forked_ranges(n_u, n_v, prepare)


def read_grid(path: str | Path) -> Union[SurfaceSample, ScalarField]:
    """Parse a grid file back into a sample or height field.

    Validates the header shape, the record count, and finiteness of every
    value.  Surface files come back as SurfaceSample without a curvature
    potential; field files additionally check that the stored (x, y) match
    the header lattice.  The body is parsed by numpy.loadtxt; on a repeating
    lattice (x repeats row 0's texts, y one text per row) x and y stay text
    and each distinct text is converted once.
    """
    with open(path) as fh:
        lines = [fh.readline().rstrip("\n") for _ in range(7)]
        if lines[0] != GRID_MAGIC:
            raise GridFormatError(f"not a grid file: expected leading '{GRID_MAGIC}'")
        kind = _header_value(lines, 1, "kind")
        if kind not in ("surface", "field"):
            raise GridFormatError(f"unknown grid kind {kind!r}")
        try:
            dom_vals = [float(t) for t in _header_value(lines, 2, "domain").split()]
            n_u, n_v = (int(t) for t in _header_value(lines, 3, "shape").split())
            h = float(_header_value(lines, 4, "H"))
        except (ValueError, GridFormatError) as exc:
            raise GridFormatError(f"malformed header: {exc}") from None
        if len(dom_vals) != 4:
            raise GridFormatError("malformed header: domain needs 4 numbers")
        _header_value(lines, 5, "provenance")
        if lines[6] != "end_header":
            raise GridFormatError("malformed header: missing end_header")
        if n_u < 2 or n_v < 2:
            raise GridFormatError(f"grid needs at least 2 nodes per axis, got {n_u} x {n_v}")
        if not np.isfinite(h):
            raise GridFormatError("non-finite H in header")
        try:
            domain = Rect(*dom_vals)
        except ValueError as exc:
            raise GridFormatError(f"bad domain: {exc}") from None
        left = os.fstat(fh.fileno()).st_size - fh.tell()  # a record takes >= 6 bytes, "0 0 0\n"
        if left < 6 * n_u * n_v - 1:  # the last one may lack its newline
            fits = (left + 1) // 6
            raise GridFormatError(
                f"record count mismatch: expected {n_u * n_v}, but {left} bytes hold at most {fits}"
            )
        values = _parallel_values(path, fh, n_u, n_v)
    for as_text in (True, False):  # serial: as text, then as floats if a text was cut
        if values is None:
            with open(path) as fh:
                values = _body_values(itertools.islice(fh, 7, None), n_u, n_v, as_text)
    xs, ys, ells = values
    if kind == "field":
        xx, yy = domain.mesh(n_u, n_v)
        lattice_gap = max(np.max(np.abs(xs - xx)), np.max(np.abs(ys - yy)))
        if lattice_gap > 1e-9 * (1.0 + float(np.max(np.abs(xx)))):
            raise GridFormatError("field records do not sit on the header lattice")
        return ScalarField(domain, ells)
    return SurfaceSample(domain=domain, H=h, x=xs, y=ys, ell=ells)


def _faces(n_u: int, n_v: int, lo: int = 0, hi: int | None = None):
    """The OBJ "f" lines of cell rows [lo, hi) (default: all) of an n_u x n_v lattice,
    one row at a time: a fixed list of separators whose slots take the index texts
    of lattice rows j and j + 1, so each index is formatted once."""
    if n_u < 2 or n_v < 2:
        raise ValueError("OBJ export needs at least a 2 x 2 grid")
    # per cell "f a b c\nf a c d\n", a the 1-based index of its (i, j) corner
    parts = ["f "] + ["", " ", "", " ", "", "\nf ", "", " ", "", " ", "", "\nf "] * (n_u - 1)
    parts[-1] = "\n"

    def rows(above: list[str]):
        for j in range(lo, n_v - 1 if hi is None else hi):
            below, above = above, list(map(str, range((j + 1) * n_u + 1, (j + 2) * n_u + 1)))
            parts[1::12] = parts[7::12] = below[:-1]
            parts[3::12] = below[1:]
            parts[5::12] = parts[9::12] = above[1:]
            parts[11::12] = above[:-1]
            yield "".join(parts)

    return rows(list(map(str, range(lo * n_u + 1, (lo + 1) * n_u + 1))))


def _append(dst, src) -> None:
    """Append all of the flushed file src to dst, within the kernel where it can."""
    dst.flush()
    done = 0
    with contextlib.suppress(OSError):
        while n := os.copy_file_range(src.fileno(), dst.fileno(), 1 << 30, done):
            done += n
    src.seek(done)
    shutil.copyfileobj(src, dst)  # what copy_file_range left, if anything


def write_surface(
    sample: SurfaceSample, grid_path: str | Path | None, obj_path: str | Path, provenance: str = "-"
) -> None:
    """Write the sample's grid file and OBJ mesh in one pass, formatting each record once;
    with grid_path None, the mesh alone.

    Grid header:  magic line, "kind surface", domain rectangle, shape
    (n_u n_v), H, one free-form provenance line, end marker.  Body: one record
    per node in row major order (v outermost, u fastest), each a triple
    "x y ell" with 17 significant digits.  The OBJ vertices are the same
    records with "v " in front, and every grid cell becomes two triangles split
    along the (i, j) -> (i+1, j+1) diagonal, with 1-based vertex indices.  Where
    it pays, forked children format row ranges 1..W-1 into unnamed temp files
    that are then appended in order; any failure writes the files again,
    serially, with the same bytes.
    """
    if "\n" in provenance or not provenance:
        raise ValueError("provenance must be one non-empty line")
    dom, (n_v, n_u) = sample.domain, sample.ell.shape
    header = "\n".join([
        GRID_MAGIC,
        "kind surface",
        f"domain {_fmt(dom.x_min)} {_fmt(dom.x_max)} {_fmt(dom.y_min)} {_fmt(dom.y_max)}",
        f"shape {n_u} {n_v}",
        f"H {_fmt(sample.H)}",
        f"provenance {provenance}",
        "end_header\n",
    ])
    _faces(n_u, n_v)  # rejects a lattice too small for a mesh before a file opens

    def write(rows, files, k: int) -> bool:  # files[k] takes range k's records, "v", "f" lines
        (lo, hi), (grid, obj, faces) = rows[k : k + 2], files[k]
        if grid and not lo:  # range 0 starts the grid file
            grid.write(header)
        for records in _records(sample.x[lo:hi], sample.y[lo:hi], sample.ell[lo:hi]):
            if grid:
                grid.write(records)
            obj.write(_vertices(records))
        faces.writelines(_faces(n_u, n_v, lo, min(hi, n_v - 1)))
        for fh in filter(None, files[k]):  # a child ends through os._exit, which flushes nothing
            fh.flush()
        return True

    with contextlib.ExitStack() as stack:
        obj = stack.enter_context(open(obj_path, "w"))
        grid = None if grid_path is None else stack.enter_context(open(grid_path, "w"))

        def prepare(rows):
            def temp(path):
                return stack.enter_context(tempfile.TemporaryFile("w+", dir=Path(path).parent))

            files = [[grid, obj, temp(obj_path)]]
            files += [[grid and temp(grid_path), temp(obj_path), temp(obj_path)] for _ in rows[2:]]
            return (lambda k: write(rows, files, k)), files

        files = _forked_ranges(n_u, n_v, prepare)
        if files is not None:
            with contextlib.suppress(OSError):
                for dst, i, ranges in ((grid, 0, files[1:]), (obj, 1, files[1:]), (obj, 2, files)):
                    for range_files in ranges if dst else ():
                        _append(dst, range_files[i])
                return
        for fh in filter(None, (grid, obj)):  # the serial write, also after a failed parallel one
            fh.seek(0)
            fh.truncate()
        write([0, n_v], [[grid, obj, obj]], 0)


def _plain(obj):
    """A report value json cannot write itself: a dataclass as its fields in
    order, an Enum as its value, a complex number as [real, imag]."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} has no report form")


def write_report(path: str | Path, inputs: dict, **sections) -> None:
    """Write a run's JSON report: the version, the inputs, then the curvature,
    classification and vdist sections (null where the run has none), then any
    other section in the order given.  Non-finite numbers are an error."""
    from isocmc import __version__

    doc = {"version": {"schema": REPORT_SCHEMA_VERSION, "tool": __version__}, "input": inputs}
    doc |= {"curvature": None, "classification": None, "vdist": None} | sections
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False, default=_plain) + "\n")
