"""Disk formats: grid text files and their binary twins, Wavefront OBJ meshes, JSON reports.

Everything written here is deterministic.  Floats go out with 17 significant digits, which
round-trips doubles exactly, so write -> read -> write reproduces a grid file byte for byte
and repeated identical invocations produce identical reports.  Beside each grid file G,
write_surface writes a twin G.bin: the SHA-256 of G, then x, y and ell as little-endian
float64 in (n_v, n_u) order.  read_grid takes the values from a twin of the right size whose
digest is that of G as read, and parses G's text otherwise, to the same values.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import operator
import os
import shutil
import signal
import tempfile
import threading
import warnings
from enum import Enum
from pathlib import Path

import numpy as np

from .graphgeo import Rect
from .weierstrass import SurfaceSample

GRID_MAGIC = "# cmcgrid v1"
REPORT_SCHEMA_VERSION = "4"
# Nodes per block of records that the reader parses with one numpy.loadtxt call.
_BLOCK_NODES = 1 << 13
# Fewest nodes per process for which a forked write_surface pass repays its fork.
_PARALLEL_NODES = 1 << 14
# Most samples whose files one write_surface pass holds open; a forked pass adds about as
# many temp files per extra CPU.  A longer family is written in runs of this many.
_FAMILY_RUN = 8
_FILE_IDENTITY = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")


class GridFormatError(ValueError):
    """Grid file text violates the format or its invariants."""


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _records(x: np.ndarray, y: np.ndarray, ells: list[np.ndarray]):
    """Yield, one lattice row at a time, the "x y ell" lines (as _fmt formats them) of
    each height array of ells over the shared (x, y), as a list of one text per array.

    A row's x and y texts are formatted once, into a template that takes each array's
    ell values.  A graph lattice (x rows equal row 0, y rows constant, bit for bit)
    builds each row's template from row 0's x texts, formatted once for all rows.
    """
    xb, yb = (np.asarray(a, dtype=np.float64).view(np.uint64) for a in (x, y))
    graph = np.all(xb == xb[:1]) and np.all(yb == yb[:, :1])
    x_texts = [_fmt(v) for v in x[0].tolist()] if graph else None
    for j in range(len(x)):
        if graph:
            sep = f" {y[j, 0]:.17g} %.17g\n"
            template = sep.join(x_texts) + sep
        else:  # "%%" formats to "%", so the x y texts come with a slot for each ell
            pairs = np.stack((x[j], y[j]), axis=-1).ravel().tolist()
            template = "%.17g %.17g %%.17g\n" * len(x[j]) % tuple(pairs)
        yield [template % tuple(ell[j].tolist()) for ell in ells]


def _header_value(lines: list[str], idx: int, key: str) -> str:
    if not lines[idx].startswith(key + " "):
        raise GridFormatError(f"malformed header: expected '{key} ...' on line {idx + 1}")
    return lines[idx][len(key) + 1 :]


def _body_values(fh, n_u: int, n_v: int) -> np.ndarray:
    """x, y and ell of the n_u x n_v records, shape (3, n_v, n_u), parsed off the binary handle
    fh from the first record line, a block of rows per numpy.loadtxt call.  Only blank lines may
    end the body."""
    values, expected, rest = np.empty((3, n_v, n_u)), n_u * n_v, b""
    found, step = expected, max(1, _BLOCK_NODES // n_u)
    for j in range(0, n_v, step):
        block, start = values[:, j : j + step], fh.tell()
        try:  # a record of three fields: any other count of numbers on a line is an error
            with warnings.catch_warnings():  # loadtxt warns as it skips a line with no data
                warnings.simplefilter("error", UserWarning)
                rec = np.loadtxt(fh, "f8,f8,f8", comments=None, max_rows=block[0].size,
                                 encoding="utf-8", ndmin=1)
        except (UserWarning, ValueError) as exc:  # at a line that fh has just read
            size = fh.tell() - start
            fh.seek(start)
            data = fh.read(size)
            found = j * n_u + data.count(b"\n", 0, size - 1)  # the records before it
            if isinstance(exc, ValueError):
                numbers = len(data.split(b"\n")[found - j * n_u].split())
                why = f"expected three numbers, found {numbers}"
                if numbers == 3:  # a text that is no float: numpy's words, without its row count
                    why = str(exc).split(" at row ")[0]
                raise GridFormatError(f"malformed record on line {8 + found}: {why}") from None
            rest = b"\n"  # the line had no data
            break
        if len(rec) < block[0].size:
            found = j * n_u + len(rec)
            break
        block[:] = rec.view(np.float64).reshape(-1, 3).T.reshape(block.shape)
        if not np.all(np.isfinite(block)):
            raise GridFormatError("non-finite value in records")
    rest += fh.read()  # what follows the last record or blank line
    if found < expected or rest.strip():  # lines up to a blank one count as records
        lines = rest.splitlines()
        blank = next((i for i, line in enumerate(lines) if not line.strip()), len(lines))
        if b"".join(lines[blank:]).strip():
            raise GridFormatError("malformed record: blank line inside the body")
        raise GridFormatError(f"record count mismatch: expected {expected}, found {found + blank}")
    return values


def _forked(workers: int, run) -> bool:
    """Run run(k) in forked children, k = 1..workers-1, that end through os._exit, and
    run(0) in this process.  True if every run(k) returned True; a failure of any kind kills
    the children, and every child is reaped."""
    pids, ok = [], False
    try:
        for k in range(1, workers):
            # On Python >= 3.12 fork warns (DeprecationWarning) in a process with other
            # threads, and numpy's BLAS pool is one.  A child only formats text, never
            # calls BLAS, and OpenBLAS shuts its pool down across a fork.
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
    return ok


def _digest(fh) -> bytes:
    """SHA-256 of the whole file open as the binary handle fh, read 1 MiB at a time."""
    import hashlib  # here, not at the top: a run that writes and reads no grid never loads it

    fh.seek(0)
    sha = hashlib.sha256()
    while chunk := fh.read(1 << 20):
        sha.update(chunk)
    return sha.digest()


def _twin_values(path, fh, stat, n_u: int, n_v: int) -> np.ndarray | None:
    """x, y and ell from the twin path.bin beside the grid file open as fh (fstat stat), or None
    unless it is 32 + 24 n_u n_v bytes long and starts with that unchanged file's SHA-256."""
    values = np.empty((3, n_v, n_u), "<f8")
    with contextlib.suppress(OSError), open(f"{path}.bin", "rb") as twin:
        fits = os.fstat(twin.fileno()).st_size == 32 + values.nbytes
        if fits and twin.read(32) == _digest(fh) and twin.readinto(values) == values.nbytes:
            if _FILE_IDENTITY(os.fstat(fh.fileno())) == _FILE_IDENTITY(stat):  # not changed since
                if not np.all(np.isfinite(values)):
                    raise GridFormatError("non-finite value in records")
                return values
    return None


def read_grid(path: str | Path) -> SurfaceSample:
    """Parse a grid file into a sample with no curvature potential (H None for a `field` grid,
    whose (x, y) must sit on the header lattice).  Checks the header, the record count and
    that every value is finite.  The body is read from the grid's twin file if that holds it
    (_twin_values), else parsed from the text on the handle the header came from."""
    with open(path, "rb") as fh:
        raw = [fh.readline().rstrip(b"\r\n") for _ in range(7)]
        if raw[0] != GRID_MAGIC.encode():
            raise GridFormatError(f"not a grid file: expected leading '{GRID_MAGIC}'")
        try:
            lines = [line.decode() for line in raw]  # UnicodeDecodeError is a ValueError
            kind = _header_value(lines, 1, "kind")
            if kind not in ("surface", "field"):
                raise GridFormatError(f"unknown grid kind {kind!r}")
            dom_vals = [float(t) for t in _header_value(lines, 2, "domain").split()]
            n_u, n_v = (int(t) for t in _header_value(lines, 3, "shape").split())
            h = float(_header_value(lines, 4, "H"))
        except GridFormatError:  # a fault named already
            raise
        except ValueError as exc:
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
        stat, body = os.fstat(fh.fileno()), fh.tell()
        left = stat.st_size - body  # a record takes >= 6 bytes ("0 0 0\n"), the last >= 5
        if (fits := (left + 1) // 6) < n_u * n_v:
            msg = f"expected {n_u * n_v}, but {left} bytes hold at most {fits}"
            raise GridFormatError(f"record count mismatch: {msg}")

        values = _twin_values(path, fh, stat, n_u, n_v)
        if values is None:
            fh.seek(body)
            values = _body_values(fh, n_u, n_v)
    xs, ys, ells = values
    if kind == "field":
        xx, yy = domain.mesh(n_u, n_v)
        lattice_gap = max(np.max(np.abs(xs - xx)), np.max(np.abs(ys - yy)))
        if lattice_gap > 1e-9 * (1.0 + float(np.max(np.abs(xx)))):
            raise GridFormatError("field records do not sit on the header lattice")
        return SurfaceSample(domain, None, xx, yy, ells)
    return SurfaceSample(domain, h, xs, ys, ells)


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
    """Append all of the text file src to the text file dst, byte for byte."""
    dst.flush()
    src.seek(0)
    shutil.copyfileobj(src.buffer, dst.buffer)


def write_surface(
    family: list[SurfaceSample],
    grid_paths: list[str | Path] | None,
    obj_paths: list[str | Path],
    provenance: str = "-",
) -> None:
    """Write the grid file (then its twin) and OBJ mesh of every sample of a family on one
    (x, y) lattice in one pass, formatting each x, y record text and each face line once for
    all of them; with grid_paths None, the meshes alone.

    Grid header:  magic line, "kind surface", domain rectangle, shape
    (n_u n_v), H, one free-form provenance line, end marker.  Body: one record
    per node in row major order (v outermost, u fastest), each a triple
    "x y ell" with 17 significant digits.  The OBJ vertices are the same
    records with "v " in front, and every grid cell becomes two triangles split
    along the (i, j) -> (i+1, j+1) diagonal, with 1-based vertex indices.  Where
    it pays, forked children format row ranges 1..W-1 into unnamed temp files
    that are then appended in order; any failure writes the files again,
    serially, with the same bytes.  A family longer than _FAMILY_RUN is
    written in runs of that many samples, so few files are open at once.
    """
    if "\n" in provenance or not provenance:
        raise ValueError("provenance must be one non-empty line")
    grid_paths = [None] * len(family) if grid_paths is None else list(grid_paths)
    if not 0 < len(family) == len(grid_paths) == len(obj_paths):
        raise ValueError("a family needs a sample or more, one path per sample for each file")
    if any(s.H is None for s in family):
        raise ValueError("a plain field (H None) is no surface to write")
    base, (n_v, n_u) = family[0], family[0].ell.shape
    for s in family[1:]:
        if not (s.ell.shape == base.ell.shape and s.x.tobytes() == base.x.tobytes()
                and s.y.tobytes() == base.y.tobytes()):
            raise ValueError("the samples of a family must share one (x, y) lattice")
    if len(family) > _FAMILY_RUN:
        for lo in range(0, len(family), _FAMILY_RUN):
            run = slice(lo, lo + _FAMILY_RUN)
            write_surface(family[run], grid_paths[run], obj_paths[run], provenance)
        return

    def header(s: SurfaceSample) -> str:
        d = s.domain
        return "\n".join([
            GRID_MAGIC,
            "kind surface",
            f"domain {_fmt(d.x_min)} {_fmt(d.x_max)} {_fmt(d.y_min)} {_fmt(d.y_max)}",
            f"shape {n_u} {n_v}",
            f"H {_fmt(s.H)}",
            f"provenance {provenance}",
            "end_header\n",
        ])

    _faces(n_u, n_v)  # rejects a lattice too small for a mesh before a file opens
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    forks = hasattr(os, "fork") and threading.active_count() == 1
    workers = min(cpus, n_u * n_v // _PARALLEL_NODES, n_v) if forks else 1

    def write(rows, files, k: int) -> bool:
        """files[k] takes range k's records (grids), "v" lines (objs) and "f" lines (faces)."""
        (lo, hi), (grids, objs, faces) = rows[k : k + 2], files[k]
        ells = [s.ell[lo:hi] for s in family]
        for grid, s in zip(grids, family):
            if grid and not lo:  # range 0 starts the grid file
                grid.write(header(s))
        for texts in _records(base.x[lo:hi], base.y[lo:hi], ells):
            for records, grid, obj in zip(texts, grids, objs):
                if grid:
                    grid.write(records)
                obj.write("v " + records[:-1].replace("\n", "\nv ") + "\n")  # "v x y ell" lines
        for row in _faces(n_u, n_v, lo, min(hi, n_v - 1)):
            for fh in faces:
                fh.write(row)
        # a child ends through os._exit, which flushes nothing
        for fh in filter(None, (*grids, *objs, *faces)):
            fh.flush()
        return True

    with contextlib.ExitStack() as stack:
        objs = [stack.enter_context(open(path, "w")) for path in obj_paths]
        for path in filter(None, grid_paths):  # so a failed write leaves no twin of an old grid
            Path(f"{path}.bin").unlink(missing_ok=True)
        grids = [path and stack.enter_context(open(path, "w")) for path in grid_paths]

        appended = False
        if workers > 1:  # any OSError of the forked write ends in the serial one
            with contextlib.suppress(OSError), contextlib.ExitStack() as temps:

                def temp(path):
                    return path and temps.enter_context(
                        tempfile.TemporaryFile("w+", dir=Path(path).parent)
                    )

                rows = [k * n_v // workers for k in range(workers + 1)]
                files = [(grids, objs, [temp(obj_paths[0])])]
                for _ in rows[2:]:
                    range_grids = [temp(p) for p in grid_paths]
                    files.append((range_grids, [temp(p) for p in obj_paths], [temp(obj_paths[0])]))
                if _forked(workers, lambda k: write(rows, files, k)):
                    for i, (grid, obj) in enumerate(zip(grids, objs)):
                        for range_grids, range_objs, _ in files[1:]:
                            if grid:
                                _append(grid, range_grids[i])
                            _append(obj, range_objs[i])
                        for *_, (faces,) in files:
                            _append(obj, faces)
                    appended = True
        if not appended:  # the serial write, also after a failed parallel one
            for fh in filter(None, (*grids, *objs)):
                fh.seek(0)
                fh.truncate()
            write([0, n_v], [(grids, objs, objs)], 0)
    for path, s in zip(grid_paths, family):  # each finished grid's twin
        if path:
            with open(path, "rb") as grid, open(f"{path}.bin", "wb") as twin:
                twin.write(_digest(grid))
                twin.writelines(np.ascontiguousarray(a, "<f8") for a in (s.x, s.y, s.ell))


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
    """Write a run's JSON report: the version, the inputs, then the run's own
    sections in the order given.  Non-finite numbers are an error."""
    from isocmc import __version__

    doc = {"version": {"schema": REPORT_SCHEMA_VERSION, "tool": __version__}, "input": inputs}
    doc |= sections
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False, default=_plain) + "\n")
