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
import mmap
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
REPORT_SCHEMA_VERSION = "2"
# Nodes per block of records that the reader parses with one numpy.loadtxt call.
_BLOCK_NODES = 1 << 13
# Fewest nodes per process for which a parallel body read repays its fork.
_PARALLEL_NODES = 1 << 14
# Most samples whose files one write_surface pass holds open; a forked pass adds about as
# many temp files per extra CPU.  A longer family is written in runs of this many.
_FAMILY_RUN = 8
_FILE_IDENTITY = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")
# A record with x and y as text in bytes 0-24 and 25-49 (%.17g writes <= 24).
_TEXT_RECORD = np.dtype([("x", "S25"), ("y", "S25"), ("ell", "f8")])


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


def _loadtxt(source, dtype=float) -> np.ndarray:
    """numpy.loadtxt, 2-D, of an array of texts or of source = (fh, n), the next n lines of a
    binary handle; a line with no data, which loadtxt would skip, raises UserWarning."""
    lines, n = (source, None) if isinstance(source, np.ndarray) else source
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        return np.loadtxt(lines, dtype, comments=None, ndmin=2, max_rows=n, encoding="utf-8")


def _body_values(fh, n_u: int, rows: list, k=0, as_text=True, out=None) -> np.ndarray | None:
    """x, y and ell of lattice rows rows[k] to rows[k + 1] - 1, shape (3, rows[k + 1] - rows[k],
    n_u), in `out` if given, parsed off the binary handle fh from the first line of row rows[k];
    None if a text filled its 25 bytes or does not convert.  Only blank lines may end the body."""
    lo, hi, expected = rows[k], rows[k + 1], n_u * rows[-1]
    values, found, rest = np.empty((3, hi - lo, n_u)) if out is None else out, n_u * hi, b""
    step, x0 = max(1, _BLOCK_NODES // n_u), None  # row 0's x (bytes, values)
    for j in range(lo, hi, step):
        block, start = values[:, j - lo : j - lo + step], fh.tell()
        try:
            rec = _loadtxt((fh, block[0].size), _TEXT_RECORD if as_text else float)
        except (UserWarning, ValueError) as exc:  # at a line that fh has just read
            size = fh.tell() - start
            fh.seek(start)
            found = j * n_u + fh.read(size).count(b"\n", 0, size - 1)  # the records before it
            if isinstance(exc, ValueError):
                why = str(exc).split(" at row ")[0]  # numpy counts rows from the block's first
                raise GridFormatError(f"malformed record on line {8 + found}: {why}") from None
            rest = b"\n"  # the line had no data
            break
        if len(rec) < block[0].size:
            found = j * n_u + len(rec)
            break
        if as_text:  # until a block's x rows differ from row 0 or a y row varies
            rec = rec.reshape(block[0].shape)
            raw = rec.view(np.uint8).reshape(*rec.shape, -1)
            if raw[..., 24].any() or raw[..., 49].any():
                return None
            x, y = raw[..., :25], raw[..., 25:50]
            try:
                x0 = x0 or (x[0], _loadtxt(rec["x"][0])[:, 0])
                as_text = bool(np.all(x == x0[0]) and np.all(y == y[:, :1]))
                if as_text:
                    block[0], block[1] = x0[1], _loadtxt(rec["y"][:, 0])
                else:
                    block[0], block[1] = (_loadtxt(rec[c].ravel()).reshape(rec.shape) for c in "xy")
            except ValueError:
                return None
            block[2] = rec["ell"]
        else:
            if rec.shape[1] != 3:
                raise GridFormatError("malformed record: expected three numbers per line")
            block[:] = rec.T.reshape(block.shape)
        if not np.all(np.isfinite(block)):
            raise GridFormatError("non-finite value in records")
    rest += fh.read() if hi == rows[-1] else b""  # what follows the last record or blank line
    if found < n_u * hi or rest.strip():  # lines up to a blank one count as records
        lines = rest.splitlines()
        blank = next((i for i, line in enumerate(lines) if not line.strip()), len(lines))
        if b"".join(lines[blank:]).strip():
            raise GridFormatError("malformed record: blank line inside the body")
        raise GridFormatError(f"record count mismatch: expected {expected}, found {found + blank}")
    return values


def _line_start(fh, count: int) -> int:
    """Seek fh just past the count-th newline ahead, count > 0, counted 1 MiB at a time."""
    while (chunk := fh.read(1 << 20)) and chunk.count(b"\n") < count:
        count -= chunk.count(b"\n")
    newlines = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
    return fh.seek(int(newlines[count - 1]) + 1 - len(chunk), os.SEEK_CUR)  # IndexError at EOF


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
    (_twin_values), else parsed as one row range of _body_values, or one per CPU."""
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

        def prepare(rows):  # range k opens the file at the first line of row rows[k]
            values = np.frombuffer(mmap.mmap(-1, 24 * n_u * n_v)).reshape(3, n_v, n_u)
            starts = [body, *(_line_start(fh, n_u * (b - a)) for a, b in zip(rows, rows[1:-1]))]

            def run(k: int) -> bool:
                with open(path, "rb") as own:
                    own.seek(starts[k])
                    same = _FILE_IDENTITY(os.fstat(own.fileno())) == _FILE_IDENTITY(stat)
                    out = values[:, rows[k] : rows[k + 1]]
                    return same and _body_values(own, n_u, rows, k, out=out) is not None

            return run, values

        values = _twin_values(path, fh, stat, n_u, n_v)
        if values is None:
            fh.seek(body)
            values = _forked_ranges(n_u, n_v, prepare)
    for as_text in (True, False):  # serial: as text, then as floats if a text was cut
        if values is None:
            with open(path, "rb") as fh:
                fh.seek(body)
                values = _body_values(fh, n_u, [0, n_v], as_text=as_text)
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
    """Append all of the flushed file src to dst, within the kernel where it can."""
    dst.flush()
    done = 0
    with contextlib.suppress(OSError):
        while n := os.copy_file_range(src.fileno(), dst.fileno(), 1 << 30, done):
            done += n
    src.seek(done)
    shutil.copyfileobj(src, dst)  # what copy_file_range left, if anything


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

        with contextlib.ExitStack() as temps:  # the temp files, closed before a serial write

            def prepare(rows):
                def temp(path):
                    return path and temps.enter_context(
                        tempfile.TemporaryFile("w+", dir=Path(path).parent)
                    )

                files = [(grids, objs, [temp(obj_paths[0])])]
                for _ in rows[2:]:
                    range_grids = [temp(p) for p in grid_paths]
                    files.append((range_grids, [temp(p) for p in obj_paths], [temp(obj_paths[0])]))
                return (lambda k: write(rows, files, k)), files

            files, appended = _forked_ranges(n_u, n_v, prepare), False
            if files is not None:
                with contextlib.suppress(OSError):
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
    """Write a run's JSON report: the version, the inputs, then the curvature,
    classification and vdist sections (null where the run has none), then any
    other section in the order given.  Non-finite numbers are an error."""
    from isocmc import __version__

    doc = {"version": {"schema": REPORT_SCHEMA_VERSION, "tool": __version__}, "input": inputs}
    doc |= {"curvature": None, "classification": None, "vdist": None} | sections
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False, default=_plain) + "\n")
