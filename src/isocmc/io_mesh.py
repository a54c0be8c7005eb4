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


def grid_text(
    obj: Union[SurfaceSample, ScalarField], provenance: str = "-"
) -> str:
    """Render a sample or height field in the grid text format.

    Header:  magic line, kind (surface | field), domain rectangle, shape
    (n_u n_v), H, one free-form provenance line, end marker.  Body: one
    record per node in row major order (v outermost, u fastest), each a
    triple "x y ell" with 17 significant digits.
    """
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
    lines = [
        GRID_MAGIC,
        f"kind {kind}",
        f"domain {_fmt(dom.x_min)} {_fmt(dom.x_max)} {_fmt(dom.y_min)} {_fmt(dom.y_max)}",
        f"shape {n_u} {n_v}",
        f"H {_fmt(h)}",
        f"provenance {provenance}",
        "end_header",
    ]
    for j in range(n_v):
        for i in range(n_u):
            lines.append(f"{_fmt(xs[j, i])} {_fmt(ys[j, i])} {_fmt(ells[j, i])}")
    return "\n".join(lines) + "\n"


def write_grid(
    obj: Union[SurfaceSample, ScalarField],
    path: str | Path,
    provenance: str = "-",
) -> None:
    Path(path).write_text(grid_text(obj, provenance))


def _header_value(lines: list[str], idx: int, key: str) -> str:
    if idx >= len(lines) or not lines[idx].startswith(key + " "):
        raise GridFormatError(f"malformed header: expected '{key} ...' on line {idx + 1}")
    return lines[idx][len(key) + 1 :]


def read_grid(path: str | Path) -> Union[SurfaceSample, ScalarField]:
    """Parse a grid file back into a sample or height field.

    Validates the header shape, the record count, and finiteness of every
    value.  Surface files come back as SurfaceSample without a curvature
    potential; field files additionally check that the stored (x, y) match
    the header lattice.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or lines[0] != GRID_MAGIC:
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
    provenance = _header_value(lines, 5, "provenance")
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

    records = lines[7:]
    while records and not records[-1].strip():
        records.pop()
    expected = n_u * n_v
    if len(records) != expected:
        raise GridFormatError(
            f"record count mismatch: expected {expected}, found {len(records)}"
        )
    try:
        flat = np.array([[float(t) for t in line.split()] for line in records])
    except ValueError:
        raise GridFormatError("malformed record: expected three numbers per line") from None
    if flat.ndim != 2 or flat.shape[1] != 3:
        raise GridFormatError("malformed record: expected three numbers per line")
    if not np.all(np.isfinite(flat)):
        raise GridFormatError("non-finite value in records")
    xs = flat[:, 0].reshape(n_v, n_u)
    ys = flat[:, 1].reshape(n_v, n_u)
    ells = flat[:, 2].reshape(n_v, n_u)
    if kind == "field":
        xx, yy = np.meshgrid(domain.x_nodes(n_u), domain.y_nodes(n_v))
        lattice_gap = max(
            float(np.max(np.abs(xs - xx))), float(np.max(np.abs(ys - yy)))
        )
        if lattice_gap > 1e-9 * (1.0 + float(np.max(np.abs(xx)))):
            raise GridFormatError("field records do not sit on the header lattice")
        return ScalarField(domain, ells)
    return SurfaceSample(
        domain=domain, n_u=n_u, n_v=n_v, H=h, x=xs, y=ys, ell=ells,
        phi=None, data=None,
    )


def export_obj(sample: SurfaceSample, path: str | Path) -> None:
    """Write the sample as a triangulated Wavefront OBJ mesh.

    Vertices appear in row major order (v outermost, u fastest) as
    "v x y ell"; every grid cell becomes two triangles split along the
    (i, j) -> (i+1, j+1) diagonal, with 1-based vertex indices.
    """
    n_v, n_u = sample.ell.shape
    if n_u < 2 or n_v < 2:
        raise ValueError("OBJ export needs at least a 2 x 2 grid")
    lines = []
    for j in range(n_v):
        for i in range(n_u):
            lines.append(
                f"v {_fmt(sample.x[j, i])} {_fmt(sample.y[j, i])} {_fmt(sample.ell[j, i])}"
            )
    for j in range(n_v - 1):
        for i in range(n_u - 1):
            a = j * n_u + i + 1
            b = j * n_u + (i + 1) + 1
            c = (j + 1) * n_u + (i + 1) + 1
            d = (j + 1) * n_u + i + 1
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    Path(path).write_text("\n".join(lines) + "\n")


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
