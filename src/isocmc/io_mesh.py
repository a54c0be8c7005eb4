"""Disk formats: grid text files, Wavefront OBJ meshes, JSON reports.

Everything written here is deterministic.  Floats go out with 17
significant digits, which round-trips doubles exactly, so
write -> read -> write reproduces a grid file byte for byte and repeated
identical invocations produce identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .graphgeo import Rect, ScalarField
from .weierstrass import SurfaceSample

GRID_MAGIC = "# cmcgrid v1"
REPORT_SCHEMA_VERSION = "2"


class GridFormatError(ValueError):
    """Grid file text violates the format or its invariants."""


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _records(prefix: str, x: np.ndarray, y: np.ndarray, ell: np.ndarray):
    """Yield the "x y ell" lines (as _fmt formats them) one lattice row at a time."""
    n_v, n_u = ell.shape
    template = (prefix + "%.17g %.17g %.17g\n") * n_u
    for row in np.stack((x, y, ell), axis=-1).reshape(n_v, 3 * n_u):
        yield template % tuple(row.tolist())


def _grid_parts(obj: Union[SurfaceSample, ScalarField], provenance: str):
    """The header text and the record rows of a grid file."""
    if "\n" in provenance or not provenance:
        raise ValueError("provenance must be one non-empty line")
    if isinstance(obj, SurfaceSample):
        kind, dom, h = "surface", obj.domain, obj.H
        xs, ys, ells = obj.x, obj.y, obj.ell
    elif isinstance(obj, ScalarField):
        kind, dom, h = "field", obj.domain, 0.0
        xs, ys = obj.meshgrid()
        ells = obj.values
    else:
        raise TypeError("expected a SurfaceSample or ScalarField")
    n_v, n_u = ells.shape
    header = [
        GRID_MAGIC,
        f"kind {kind}",
        f"domain {_fmt(dom.x_min)} {_fmt(dom.x_max)} {_fmt(dom.y_min)} {_fmt(dom.y_max)}",
        f"shape {n_u} {n_v}",
        f"H {_fmt(h)}",
        f"provenance {provenance}",
        "end_header",
    ]
    return "\n".join(header) + "\n", _records("", xs, ys, ells)


def grid_text(obj: Union[SurfaceSample, ScalarField], provenance: str = "-") -> str:
    """Render a sample or height field in the grid text format.

    Header:  magic line, kind (surface | field), domain rectangle, shape
    (n_u n_v), H, one free-form provenance line, end marker.  Body: one
    record per node in row major order (v outermost, u fastest), each a
    triple "x y ell" with 17 significant digits.
    """
    header, rows = _grid_parts(obj, provenance)
    return header + "".join(rows)


def write_grid(
    obj: Union[SurfaceSample, ScalarField], path: str | Path, provenance: str = "-"
) -> None:
    header, rows = _grid_parts(obj, provenance)
    with open(path, "w") as fh:
        fh.write(header)
        fh.writelines(rows)


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


def read_grid(path: str | Path) -> Union[SurfaceSample, ScalarField]:
    """Parse a grid file back into a sample or height field.

    Validates the header shape, the record count, and finiteness of every
    value.  Surface files come back as SurfaceSample without a curvature
    potential; field files additionally check that the stored (x, y) match
    the header lattice.  The body is parsed by numpy.loadtxt.
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
        try:
            flat = np.loadtxt(_body_lines(fh, n_u * n_v), comments=None, ndmin=2)
        except GridFormatError:
            raise
        except ValueError as exc:
            raise GridFormatError(f"malformed record: {exc}") from None
    if flat.shape[1] != 3:
        raise GridFormatError("malformed record: expected three numbers per line")
    if not np.all(np.isfinite(flat)):
        raise GridFormatError("non-finite value in records")
    xs, ys, ells = flat.T.reshape(3, n_v, n_u)
    if kind == "field":
        xx, yy = domain.mesh(n_u, n_v)
        lattice_gap = max(np.max(np.abs(xs - xx)), np.max(np.abs(ys - yy)))
        if lattice_gap > 1e-9 * (1.0 + float(np.max(np.abs(xx)))):
            raise GridFormatError("field records do not sit on the header lattice")
        return ScalarField(domain, ells)
    return SurfaceSample(domain=domain, n_u=n_u, n_v=n_v, H=h, x=xs, y=ys, ell=ells)


def export_obj(sample: SurfaceSample, path: str | Path) -> None:
    """Write the sample as a triangulated Wavefront OBJ mesh.

    Vertices appear in row major order (v outermost, u fastest) as
    "v x y ell"; every grid cell becomes two triangles split along the
    (i, j) -> (i+1, j+1) diagonal, with 1-based vertex indices.
    """
    n_v, n_u = sample.ell.shape
    if n_u < 2 or n_v < 2:
        raise ValueError("OBJ export needs at least a 2 x 2 grid")
    a = np.arange(1, n_u)  # 1-based index of the (i, j) corner of each cell, j = 0
    corners = np.stack((a, a + 1, a + n_u + 1, a, a + n_u + 1, a + n_u), axis=1).ravel()
    template = "f %d %d %d\nf %d %d %d\n" * (n_u - 1)
    with open(path, "w") as fh:
        fh.writelines(_records("v ", sample.x, sample.y, sample.ell))
        fh.writelines(template % tuple((corners + j * n_u).tolist()) for j in range(n_v - 1))


@dataclass
class ReportDoc:
    """Analysis report; sections absent from a run stay None (JSON null)."""

    inputs: dict
    curvature: dict | None = None
    classification: dict | None = None
    vdist: dict | None = None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        from isocmc import __version__

        doc = {
            "version": {"schema": REPORT_SCHEMA_VERSION, "tool": __version__},
            "input": self.inputs,
            "curvature": self.curvature,
            "classification": self.classification,
            "vdist": self.vdist,
        }
        doc.update(self.extra)
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_report(report: ReportDoc, path: str | Path) -> None:
    Path(path).write_text(report.to_json())


def classification_block(result) -> dict:
    return {
        "label": result.label.value,
        "alpha": result.alpha,
        "beta": result.beta,
        "H": result.H,
        "K": result.K,
        "rotation_angle": result.rotation_angle,
    }


def vdist_block(report) -> dict:
    return {
        "H": report.H,
        "sup_bound": report.sup_bound,
        "radii": report.radii,
        "k_min": report.k_min,
        "k_max": report.k_max,
        "umbilic_points": [[z.real, z.imag] for z in report.umbilic_points],
        "verdict": report.verdict.value,
        "const_tol": report.const_tol,
        "margin": report.margin,
    }
