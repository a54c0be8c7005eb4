"""Per-value reference writers of the grid and OBJ text formats, and det J of a chart.

The writers format every number on its own, node by node, so the tests can
check the package's row-template writers byte for byte against them and write
fixture files, `field` grids among them, that no subcommand writes.
"""

from __future__ import annotations

import numpy as np


def interior_det_j(s):
    """det J = d(x, y)/d(u, v) of the chart of a SurfaceSample at its interior nodes, by
    central differences along the rows (u) and columns (v) of its parameter lattice."""
    n_v, n_u = np.shape(s.ell)
    d = s.domain
    hu, hv = (d.x_max - d.x_min) / (n_u - 1), (d.y_max - d.y_min) / (n_v - 1)
    x_u, y_u = ((a[1:-1, 2:] - a[1:-1, :-2]) / (2.0 * hu) for a in (s.x, s.y))
    x_v, y_v = ((a[2:, 1:-1] - a[:-2, 1:-1]) / (2.0 * hv) for a in (s.x, s.y))
    return x_u * y_v - x_v * y_u


def _ref_fmt(v):
    return f"{float(v):.17g}"


def reference_grid_text(s, provenance="-"):
    """A SurfaceSample in the grid text format: a plain field (H None) as a `field` grid."""
    kind, h = ("field", 0.0) if s.H is None else ("surface", s.H)
    dom, xs, ys, ells = s.domain, s.x, s.y, s.ell
    n_v, n_u = ells.shape
    f = _ref_fmt
    lines = [
        "# cmcgrid v1",
        f"kind {kind}",
        f"domain {f(dom.x_min)} {f(dom.x_max)} {f(dom.y_min)} {f(dom.y_max)}",
        f"shape {n_u} {n_v}",
        f"H {f(h)}",
        f"provenance {provenance}",
        "end_header",
    ]
    for j in range(n_v):
        for i in range(n_u):
            lines.append(f"{f(xs[j, i])} {f(ys[j, i])} {f(ells[j, i])}")
    return "\n".join(lines) + "\n"


def reference_obj_text(s):
    """A SurfaceSample as a triangulated OBJ mesh."""
    n_v, n_u = s.ell.shape
    lines = []
    for j in range(n_v):
        for i in range(n_u):
            lines.append(f"v {_ref_fmt(s.x[j, i])} {_ref_fmt(s.y[j, i])} {_ref_fmt(s.ell[j, i])}")
    for j in range(n_v - 1):
        for i in range(n_u - 1):
            a = j * n_u + i + 1
            b = j * n_u + (i + 1) + 1
            c = (j + 1) * n_u + (i + 1) + 1
            d = (j + 1) * n_u + i + 1
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return "\n".join(lines) + "\n"
