"""Grid text format, OBJ export, JSON reports."""

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
