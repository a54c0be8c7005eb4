"""Grid text format, OBJ export, JSON reports."""

import dataclasses
import json

import numpy as np
import pytest

from isocmc import weierstrass
from isocmc.graphgeo import Rect, ScalarField
from isocmc.io_mesh import (
    GridFormatError,
    ReportDoc,
    classification_block,
    export_obj,
    grid_text,
    read_grid,
    vdist_block,
    write_grid,
    write_report,
)

SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)


def sample(n=7, H=0.5):
    return weierstrass.synthesize(
        weierstrass.enneper_data(3), weierstrass.LiftParams(H, SQUARE, n, n)
    )


def a_field(n=5):
    x, y = np.meshgrid(SQUARE.x_nodes(n), SQUARE.y_nodes(n))
    return ScalarField(SQUARE, x * x - y)


# ---------------------------------------------------------------------------
# grid files


def test_surface_roundtrip_is_bitwise(tmp_path):
    s = sample()
    path = tmp_path / "s.grid"
    write_grid(s, path, provenance="roundtrip check")
    back = read_grid(path)
    assert isinstance(back, weierstrass.SurfaceSample)
    assert back.H == s.H and back.domain == s.domain
    assert np.array_equal(back.x, s.x)
    assert np.array_equal(back.y, s.y)
    assert np.array_equal(back.ell, s.ell)
    assert back.phi is None and back.data is None
    # write -> read -> write is byte identical
    assert grid_text(back, provenance="roundtrip check") == path.read_text()


def test_field_roundtrip(tmp_path):
    f = a_field()
    path = tmp_path / "f.grid"
    write_grid(f, path)
    back = read_grid(path)
    assert isinstance(back, ScalarField)
    assert back.domain == f.domain
    assert np.array_equal(back.values, f.values)


def test_provenance_must_be_one_line():
    with pytest.raises(ValueError):
        grid_text(a_field(), provenance="two\nlines")
    with pytest.raises(ValueError):
        grid_text(a_field(), provenance="")


def test_truncated_body_is_a_count_error(tmp_path):
    path = tmp_path / "t.grid"
    write_grid(sample(), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(GridFormatError, match="record"):
        read_grid(path)


def test_bad_headers_are_rejected(tmp_path):
    good = grid_text(sample())
    cases = [
        good.replace("# cmcgrid v1", "# othergrid v9"),
        good.replace("kind surface", "kind blob"),
        good.replace("shape 7 7", "shape 1 7"),
        "".join(good.splitlines(keepends=True)[:6]),  # no end_header line
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.grid"
        path.write_text(text)
        with pytest.raises(GridFormatError):
            read_grid(path)


def test_malformed_records_are_rejected(tmp_path):
    good = grid_text(sample()).splitlines()
    path = tmp_path / "m.grid"
    path.write_text("\n".join(good[:7] + ["1 2"] + good[8:]) + "\n")
    with pytest.raises(GridFormatError):
        read_grid(path)
    path.write_text("\n".join(good[:7] + ["1 2 nan"] + good[8:]) + "\n")
    with pytest.raises(GridFormatError):
        read_grid(path)


def body_with(lines, edit):
    """A 7x7 surface grid file whose record lines went through `edit`."""
    return "\n".join(lines[:7] + edit(lines[7:])) + "\n"


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda r: ["1 2", "3 4 5 6"] + r[2:], id="two-then-four-numbers"),
        pytest.param(lambda r: r[:-1] + [r[-1] + " # c"], id="trailing-comment"),
        pytest.param(lambda r: ["# c " + r[0]] + r[1:], id="leading-comment"),
        pytest.param(lambda r: r[:20] + [""] + r[20:], id="blank-line-inside"),
        pytest.param(lambda r: r[:20] + ["  \t"] + r[20:], id="whitespace-line-inside"),
        pytest.param(lambda r: [""] + r, id="blank-line-first"),
        pytest.param(lambda r: r[:3] + ["1 2 inf"] + r[4:], id="inf"),
        pytest.param(lambda r: r[:3] + ["-inf 0 0"] + r[4:], id="minus-inf"),
        pytest.param(lambda r: [], id="header-only"),
        pytest.param(lambda r: ["", ""], id="header-and-blank-lines"),
        pytest.param(lambda r: r + r[:1], id="one-record-too-many"),
        pytest.param(lambda r: [" ".join(["1_0"] + x.split()[1:]) for x in r], id="underscore"),
        pytest.param(lambda r: [x.split()[0] for x in r], id="one-column"),
        pytest.param(lambda r: [x + " 0" for x in r], id="four-columns"),
    ],
)
def test_reader_rejects_malformed_bodies(tmp_path, edit):
    path = tmp_path / "m.grid"
    path.write_text(body_with(grid_text(sample()).splitlines(), edit))
    with pytest.raises(GridFormatError):
        read_grid(path)


def test_reader_accepts_crlf_and_trailing_blank_lines(tmp_path):
    s = sample()
    lines = grid_text(s).splitlines()
    for name, data in [
        ("crlf", ("\r\n".join(lines) + "\r\n").encode()),
        ("trailing", ("\n".join(lines) + "\n\n  \n\t\n").encode()),
        ("no-final-newline", "\n".join(lines).encode()),
        ("crlf-trailing", ("\r\n".join(lines) + "\r\n\r\n").encode()),
    ]:
        path = tmp_path / f"{name}.grid"
        path.write_bytes(data)
        back = read_grid(path)
        assert np.array_equal(back.x, s.x), name
        assert np.array_equal(back.y, s.y), name
        assert np.array_equal(back.ell, s.ell), name


def test_field_kind_must_stay_on_its_lattice(tmp_path):
    text = grid_text(a_field()).splitlines()
    # perturb the x coordinate of the first record
    first = text[7].split()
    first[0] = repr(float(first[0]) + 0.5)
    text[7] = " ".join(first)
    path = tmp_path / "off.grid"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(GridFormatError, match="lattice"):
        read_grid(path)


def test_missing_file_is_an_error(tmp_path):
    with pytest.raises(OSError):
        read_grid(tmp_path / "nope.grid")


# ---------------------------------------------------------------------------
# OBJ export


def obj_lines(tmp_path, s, name="m.obj"):
    path = tmp_path / name
    export_obj(s, path)
    return path.read_text().splitlines()


def test_obj_counts_one_quad(tmp_path):
    lines = obj_lines(tmp_path, sample(n=2))
    assert sum(l.startswith("v ") for l in lines) == 4
    assert sum(l.startswith("f ") for l in lines) == 2


def test_obj_counts_four_quads(tmp_path):
    lines = obj_lines(tmp_path, sample(n=3))
    assert sum(l.startswith("v ") for l in lines) == 9
    assert sum(l.startswith("f ") for l in lines) == 8
    faces = [l for l in lines if l.startswith("f ")]
    assert faces[0] == "f 1 2 5"
    assert faces[1] == "f 1 5 4"
    idx = [int(n) for face in faces for n in face.split()[1:]]
    assert min(idx) == 1 and max(idx) == 9


def test_obj_vertices_reimport_to_the_saddle(tmp_path):
    s = weierstrass.synthesize(
        weierstrass.enneper_data(2), weierstrass.LiftParams(0.0, SQUARE, 9, 9)
    )
    lines = obj_lines(tmp_path, s)
    verts = np.array(
        [[float(t) for t in l.split()[1:]] for l in lines if l.startswith("v ")]
    )
    x, y, ell = verts.T
    assert np.max(np.abs(ell - 0.5 * (x * x - y * y))) < 1e-12


def test_obj_needs_a_real_grid():
    s = sample(n=3)
    tiny = weierstrass.SurfaceSample(
        domain=s.domain,
        n_u=3,
        n_v=1,
        H=s.H,
        x=s.x[:1],
        y=s.y[:1],
        ell=s.ell[:1],
    )
    with pytest.raises(ValueError):
        export_obj(tiny, "/dev/null")


# ---------------------------------------------------------------------------
# byte identity against the per-value writers the row templates replaced


def _ref_fmt(v):
    return f"{float(v):.17g}"


def reference_grid_text(obj, provenance="-"):
    if isinstance(obj, weierstrass.SurfaceSample):
        kind, dom, h = "surface", obj.domain, obj.H
        xs, ys, ells = obj.x, obj.y, obj.ell
    else:
        kind, dom, h = "field", obj.domain, 0.0
        xs, ys = obj.meshgrid()
        ells = obj.values
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


PLANTED = [-0.0, 5e-324, 1e308, 1e16, 0.1, 1 / 3, -2.5e-7]


def planted(values):
    """A copy of `values` with the PLANTED numbers at spread-out entries."""
    out = np.array(values, dtype=float)
    out.flat[np.linspace(0, out.size - 1, len(PLANTED)).astype(int)] = PLANTED
    return out


def plant(s):
    """The sample with PLANTED spread over its x, y and ell nodes together."""
    x, y, ell = planted(np.stack((s.x, s.y, s.ell)))
    return dataclasses.replace(s, x=x, y=y, ell=ell)


def lifted(n_u, n_v, H=-0.75):
    rect = Rect(-1.0, 0.5, -0.25, 2.0)
    return weierstrass.synthesize(
        weierstrass.exp_data(), weierstrass.LiftParams(H, rect, n_u, n_v)
    )


def identity_cases():
    s53, s22, f, wide = lifted(5, 3), lifted(2, 2), a_field(6), lifted(9, 5)
    strided = dataclasses.replace(  # non-contiguous views of a larger lattice
        wide, n_u=5, n_v=3, x=wide.x[::2, ::2], y=wide.y[::2, ::2], ell=wide.ell[::2, ::2]
    )
    cases = {
        "5x3": s53,
        "2x2": s22,
        "field": f,
        "5x3-planted": plant(s53),
        "2x2-planted": plant(s22),
        "5x3-strided": strided,
        "field-planted": ScalarField(f.domain, planted(f.values)),
    }
    return [pytest.param(obj, id=name) for name, obj in cases.items()]


@pytest.mark.parametrize("obj", identity_cases())
def test_grid_writer_matches_the_per_value_writer(tmp_path, obj):
    want = reference_grid_text(obj, provenance="ref check")
    assert grid_text(obj, provenance="ref check") == want
    write_grid(obj, tmp_path / "g.grid", provenance="ref check")
    assert (tmp_path / "g.grid").read_bytes() == want.encode()


@pytest.mark.parametrize(
    "obj", [c for c in identity_cases() if not isinstance(c.values[0], ScalarField)]
)
def test_obj_writer_matches_the_per_value_writer(tmp_path, obj):
    export_obj(obj, tmp_path / "m.obj")
    assert (tmp_path / "m.obj").read_bytes() == reference_obj_text(obj).encode()


def test_planted_values_survive_the_roundtrip(tmp_path):
    s = plant(lifted(5, 3))
    write_grid(s, tmp_path / "p.grid")
    back = read_grid(tmp_path / "p.grid")
    for got, want in ((back.x, s.x), (back.y, s.y), (back.ell, s.ell)):
        assert got.tobytes() == want.tobytes()  # bitwise: -0.0 keeps its sign


# ---------------------------------------------------------------------------
# reports


def test_report_nulls_for_absent_sections():
    doc = json.loads(ReportDoc(inputs={"seed": 0}).to_json())
    assert doc["curvature"] is None
    assert doc["classification"] is None
    assert doc["vdist"] is None
    assert doc["version"]["schema"] == "2"
    assert doc["input"] == {"seed": 0}


def test_report_classification_only():
    from isocmc import classify

    block = classification_block(classify.label_from_constants(1.0, -1.0))
    doc = json.loads(ReportDoc(inputs={}, classification=block).to_json())
    assert doc["classification"]["label"] == "HyperbolicParaboloid"
    assert doc["vdist"] is None


def test_report_vdist_block_shape():
    from isocmc.vdist import sample_k_image

    rep = sample_k_image(
        weierstrass.enneper_data(3), 1.0, [1.0], samples_per_radius=500
    )
    block = vdist_block(rep)
    assert block["verdict"] == "ClosedAtSup"
    assert block["umbilic_points"] == [[pytest.approx(0.0, abs=1e-9)] * 2]
    assert len(block["k_min"]) == 1


def test_report_determinism(tmp_path):
    def make():
        return ReportDoc(
            inputs={"h2": "z^2", "H": 1.0},
            curvature={"K": {"min": -3.0, "max": 1.0}},
        ).to_json()

    assert make() == make()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(ReportDoc(inputs={"x": 1}), p1)
    write_report(ReportDoc(inputs={"x": 1}), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_rejects_non_finite_numbers():
    with pytest.raises(ValueError):
        ReportDoc(inputs={"bad": float("inf")}).to_json()
