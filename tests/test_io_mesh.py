"""Grid text format, OBJ export, JSON reports."""

import dataclasses
import errno
import functools
import gc
import hashlib
import json
import os
import shutil
import signal
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isocmc
from isocmc import holo, io_mesh, weierstrass
from isocmc.graphgeo import Rect
from isocmc.io_mesh import GridFormatError, read_grid, write_report, write_surface

from util_expr import enneper_data, exp_data, lift_one
from util_grid import reference_grid_text, reference_obj_text

SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)


def sample(n=7, H=0.5):
    return lift_one(enneper_data(3), H, SQUARE, n, n)


def a_field(n=5):
    x, y = np.meshgrid(SQUARE.x_nodes(n), SQUARE.y_nodes(n))
    return weierstrass.SurfaceSample(SQUARE, None, x, y, x * x - y)


# ---------------------------------------------------------------------------
# grid files


def test_surface_roundtrip_is_bitwise(tmp_path):
    s = sample()
    path = tmp_path / "s.grid"
    write_surface([s], [path], [tmp_path / "s.obj"], provenance="roundtrip check")
    back = read_grid(path)
    assert isinstance(back, weierstrass.SurfaceSample)
    assert back.H == s.H and back.domain == s.domain
    assert np.array_equal(back.x, s.x)
    assert np.array_equal(back.y, s.y)
    assert np.array_equal(back.ell, s.ell)
    assert back.phi is None
    # write -> read -> write is byte identical
    write_surface([back], [tmp_path / "t.grid"], [tmp_path / "t.obj"], provenance="roundtrip check")
    assert (tmp_path / "t.grid").read_bytes() == path.read_bytes()


def test_field_roundtrip(tmp_path):
    f = a_field()
    path = tmp_path / "f.grid"
    path.write_text(reference_grid_text(f))
    back = read_grid(path)
    assert isinstance(back, weierstrass.SurfaceSample) and back.H is None
    assert back.domain == f.domain
    assert np.array_equal(back.ell, f.ell)


def test_a_field_grid_reads_back_as_a_plain_sample_on_its_lattice(tmp_path):
    # the chart of a `field` grid is its header lattice, bit for bit, whatever the
    # records hold within the lattice tolerance
    domain = Rect(-0.3, 1.7, 2.0, 2.5)
    x, y = domain.mesh(7, 5)
    text = reference_grid_text(weierstrass.SurfaceSample(domain, None, x + 1e-12, y, x - y * y))
    (tmp_path / "f.grid").write_text(text)
    back = read_grid(tmp_path / "f.grid")
    assert back.H is None and back.phi is None and back.domain == domain
    assert all(a.tobytes() == b.tobytes() for a, b in zip((back.x, back.y), domain.mesh(7, 5)))
    assert back.ell.tobytes() == (x - y * y).tobytes()


def test_provenance_must_be_one_line(tmp_path):
    paths = [tmp_path / "s.grid"], [tmp_path / "s.obj"]
    for provenance in ("two\nlines", ""):
        with pytest.raises(ValueError, match="provenance"):
            write_surface([sample()], *paths, provenance=provenance)


def test_a_plain_field_is_no_surface_to_write(tmp_path):
    # its header would need an H; it is refused before any file opens
    paths = [tmp_path / "f.grid"], [tmp_path / "f.obj"]
    with pytest.raises(ValueError, match="plain field"):
        write_surface([a_field(7)], *paths)
    assert not list(tmp_path.iterdir())


def test_truncated_body_is_a_count_error(tmp_path):
    path = tmp_path / "t.grid"
    write_surface([sample()], [path], [tmp_path / "t.obj"])
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(GridFormatError, match="record"):
        read_grid(path)


def test_a_body_too_small_for_its_header_is_rejected_by_its_size(tmp_path):
    head = "".join(reference_grid_text(sample()).splitlines(keepends=True)[:7])
    path = tmp_path / "z.grid"
    path.write_text(head.replace("shape 7 7", "shape 2 2") + "0 0 0\n" * 3 + "0 0 0")
    assert read_grid(path).ell.tolist() == [[0.0, 0.0], [0.0, 0.0]]  # the fewest bytes: 23
    path.write_text(head.replace("shape 7 7", "shape 2 2") + "0 0 0\n" * 3 + "0 0")
    with pytest.raises(GridFormatError, match="expected 4, but 21 bytes hold at most 3"):
        read_grid(path)


def test_bad_headers_are_rejected(tmp_path):
    good = reference_grid_text(sample())
    cases = [
        good.replace("# cmcgrid v1", "# othergrid v9"),
        good.replace("kind surface", "kind blob"),
        good.replace("shape 7 7", "shape 1 7"),
        "".join(good.splitlines(keepends=True)[:6]),  # no end_header line
        bytes(range(167, 256)) + bytes(range(167)),  # binary, as a grid's twin
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.grid"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(GridFormatError):
            read_grid(path)


@pytest.mark.parametrize(
    "old, new, message",
    [
        (b"# cmcgrid v1", b"\xa7 cmcgrid v1", "not a grid file: expected leading '# cmcgrid v1'"),
        (b"provenance -", b"provenance \xa7", "malformed header: 'utf-8' codec can't decode byte "
         "0xa7 in position 11: invalid start byte"),
    ],
    ids=["first-line", "provenance-line"],
)
def test_an_undecodable_header_line_is_a_format_error(tmp_path, old, new, message):
    path = tmp_path / "u.grid"
    path.write_bytes(reference_grid_text(sample()).encode().replace(old, new, 1))
    with pytest.raises(GridFormatError) as err:
        read_grid(path)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("kind surface", "knid surface", "malformed header: expected 'kind ...' on line 2"),
        ("domain ", "domian ", "malformed header: expected 'domain ...' on line 3"),
        ("shape 7 7", "shape 7", "malformed header: not enough values to unpack (expected 2, got 1)"),
        ("H ", "h ", "malformed header: expected 'H ...' on line 5"),
        ("provenance ", "origin ", "malformed header: expected 'provenance ...' on line 6"),
    ],
)
def test_a_malformed_header_names_its_fault_once(tmp_path, old, new, message):
    path = tmp_path / "h.grid"
    path.write_text(reference_grid_text(sample()).replace(old, new, 1))
    with pytest.raises(GridFormatError) as err:
        read_grid(path)
    assert str(err.value) == message


def test_malformed_records_are_rejected(tmp_path):
    good = reference_grid_text(sample()).splitlines()
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


MALFORMED_BODIES = [
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
]


@pytest.mark.parametrize("edit", MALFORMED_BODIES)
def test_reader_rejects_malformed_bodies(tmp_path, edit):
    path = tmp_path / "m.grid"
    path.write_text(body_with(reference_grid_text(sample()).splitlines(), edit))
    with pytest.raises(GridFormatError):
        read_grid(path)


@pytest.mark.parametrize("action", ["ignore", "always"])
def test_a_blank_line_is_an_error_under_any_warning_filter(tmp_path, action):
    # numpy.loadtxt only warns when it skips a line with no data
    path = tmp_path / "b.grid"
    lines = reference_grid_text(sample()).splitlines()
    path.write_text(body_with(lines, lambda r: r[:20] + ["  \t"] + r[20:]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(GridFormatError, match="^malformed record: blank line inside the body$"):
            read_grid(path)
    assert not caught


def test_reader_accepts_crlf_and_trailing_blank_lines(tmp_path):
    s = sample()
    lines = reference_grid_text(s).splitlines()
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
    text = reference_grid_text(a_field()).splitlines()
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
    write_surface([s], None, [path])
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
    s = lift_one(enneper_data(2), 0.0, SQUARE, 9, 9)
    lines = obj_lines(tmp_path, s)
    verts = np.array(
        [[float(t) for t in l.split()[1:]] for l in lines if l.startswith("v ")]
    )
    x, y, ell = verts.T
    assert np.max(np.abs(ell - 0.5 * (x * x - y * y))) < 1e-12


def test_obj_needs_a_real_grid():
    s = sample(n=3)
    tiny = weierstrass.SurfaceSample(domain=s.domain, H=s.H, x=s.x[:1], y=s.y[:1], ell=s.ell[:1])
    with pytest.raises(ValueError):
        write_surface([tiny], None, ["/dev/null"])


# ---------------------------------------------------------------------------
# byte identity against the per-value writers of util_grid


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
    return lift_one(exp_data(), H, rect, n_u, n_v)


def graph(n_u, n_v):
    """A lift with omega = 1: x repeats row 0 and y is constant along each row."""
    return lift_one(enneper_data(3), 0.5, SQUARE, n_u, n_v)


def signed_zeros(s):
    """The sample with 0.0 and -0.0 in one x column and in one y column."""
    x, y = s.x.copy(), s.y.copy()
    x[:2, 1], y[1:3, 3] = (0.0, -0.0), (-0.0, 0.0)
    return dataclasses.replace(s, x=x, y=y)


def near_graphs():
    """Graph lattices one bit away from the graph template: the sign of one zero
    x node flipped, and one y node one ulp off the rest of its row."""
    flipped, bent = graph(5, 3), graph(5, 3)
    assert flipped.x[1, 2] == 0.0
    flipped.x[1, 2] = -flipped.x[1, 2]
    bent.y[1, 3] = np.nextafter(bent.y[1, 3], 2.0)
    return flipped, bent


def identity_cases():
    s53, s22, wide = lifted(5, 3), lifted(2, 2), lifted(9, 5)
    strided = dataclasses.replace(  # non-contiguous views of a larger lattice
        wide, x=wide.x[::2, ::2], y=wide.y[::2, ::2], ell=wide.ell[::2, ::2]
    )
    flipped, bent = near_graphs()
    cases = {
        "graph-5x3": graph(5, 3),
        "graph-5x3-one-x-sign-flipped": flipped,
        "graph-5x3-one-y-one-ulp-off": bent,
        "5x3": s53,
        "2x2": s22,
        "5x3-planted": plant(s53),
        "2x2-planted": plant(s22),
        "5x3-strided": strided,
        "5x3-signed-zeros": signed_zeros(s53),
    }
    return [pytest.param(obj, id=name) for name, obj in cases.items()]


@pytest.mark.parametrize("obj", identity_cases())
def test_grid_writer_matches_the_per_value_writer(tmp_path, obj):
    # and a read of the file writes the same bytes back
    want = reference_grid_text(obj, provenance="ref check").encode()
    write_surface([obj], [tmp_path / "g.grid"], [tmp_path / "g.obj"], provenance="ref check")
    assert (tmp_path / "g.grid").read_bytes() == want
    back = read_grid(tmp_path / "g.grid")
    write_surface([back], [tmp_path / "h.grid"], [tmp_path / "h.obj"], provenance="ref check")
    assert (tmp_path / "h.grid").read_bytes() == want


@pytest.mark.parametrize("obj", identity_cases())
def test_obj_writer_matches_the_per_value_writer(tmp_path, obj):
    write_surface([obj], None, [tmp_path / "m.obj"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.obj"]
    assert (tmp_path / "m.obj").read_bytes() == reference_obj_text(obj).encode()


@pytest.mark.parametrize("obj", identity_cases())
def test_one_pass_writer_matches_the_per_value_writers(tmp_path, obj):
    write_surface([obj], [tmp_path / "s.grid"], [tmp_path / "s.obj"], provenance="ref check")
    want_grid = reference_grid_text(obj, provenance="ref check")
    assert (tmp_path / "s.grid").read_bytes() == want_grid.encode()
    assert (tmp_path / "s.obj").read_bytes() == reference_obj_text(obj).encode()


def test_one_pass_writer_validates_before_writing(tmp_path):
    s = sample(n=3)
    paths = [tmp_path / "s.grid"], [tmp_path / "s.obj"]
    with pytest.raises(ValueError, match="provenance"):
        write_surface([s], *paths, provenance="two\nlines")
    one_row = dataclasses.replace(s, x=s.x[:1], y=s.y[:1], ell=s.ell[:1])
    with pytest.raises(ValueError, match="2 x 2"):
        write_surface([one_row], *paths)
    assert not any(p.exists() for p in sum(paths, []))


def test_writers_match_on_wide_rows_with_signed_zeros(tmp_path):
    # 2100 nodes, 6300 floats, per row template; 0.0 and -0.0 in adjacent rows
    s = lifted(2100, 7)
    s.x[2:4, 5], s.y[2:4, 9] = (0.0, -0.0), (-0.0, 0.0)
    write_surface([s], [tmp_path / "s.grid"], [tmp_path / "s.obj"])
    assert (tmp_path / "s.grid").read_bytes() == reference_grid_text(s).encode()
    assert (tmp_path / "s.obj").read_bytes() == reference_obj_text(s).encode()


def test_planted_values_survive_the_roundtrip(tmp_path):
    s = plant(lifted(5, 3))
    write_surface([s], [tmp_path / "p.grid"], [tmp_path / "p.obj"])
    back = read_grid(tmp_path / "p.grid")
    for got, want in ((back.x, s.x), (back.y, s.y), (back.ell, s.ell)):
        assert got.tobytes() == want.tobytes()  # bitwise: -0.0 keeps its sign


# ---------------------------------------------------------------------------
# bit identity against the one-call numpy.loadtxt reader the blocks replaced


def _ref_body_lines(fh, expected):
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


def reference_read_grid(path):
    with open(path) as fh:
        lines = [fh.readline().rstrip("\n") for _ in range(7)]
        if lines[0] != "# cmcgrid v1" or lines[6] != "end_header":
            raise GridFormatError("malformed header")
        fields = [line.split(" ", 1)[1] for line in lines[1:6]]
        kind, dom_vals = fields[0], [float(t) for t in fields[1].split()]
        n_u, n_v = (int(t) for t in fields[2].split())
        h, domain = float(fields[3]), Rect(*dom_vals)
        try:
            flat = np.loadtxt(_ref_body_lines(fh, n_u * n_v), comments=None, ndmin=2)
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
        return weierstrass.SurfaceSample(domain, None, xx, yy, ells)
    return weierstrass.SurfaceSample(domain=domain, H=h, x=xs, y=ys, ell=ells)


def non_graph(n_u, n_v):
    z = holo.Variable("z")
    data = weierstrass.WeierstrassData(z, holo.Exp(z))
    return lift_one(data, 0.5, SQUARE, n_u, n_v)


def with_tokens(text, edits):
    """Grid text whose record k has its field c replaced, for each (k, c, token)."""
    lines = text.splitlines()
    for k, c, token in edits:
        fields = lines[7 + k].split()
        fields[c] = token
        lines[7 + k] = " ".join(fields)
    return "\n".join(lines) + "\n"


def in_column(n_u, n_v, i, c, token):
    """Edits that put `token` into field c of column i on every row."""
    return [(j * n_u + i, c, token) for j in range(n_v)]


def assert_bitwise(got, want):
    assert isinstance(got, weierstrass.SurfaceSample)
    assert (got.domain, got.H) == (want.domain, want.H)
    pairs = [(got.x, want.x), (got.y, want.y), (got.ell, want.ell)]
    for g, w in pairs:
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


# A valid x or y token longer than any that %.17g writes (24 bytes at most).
LONG = "0.000000000000000000000000001"


GOLDEN = Path(__file__).parent / "data"


def reader_cases():
    tall, wide = graph(3, 6000), graph(2500, 5)  # 2730 and 3 rows per block
    broken = dataclasses.replace(tall, x=tall.x.copy())
    broken.x[3000, 1] = np.nextafter(broken.x[3000, 1], 2.0)  # in the second block
    bent = graph(5, 4)
    bent.y[2, 3] = np.nextafter(bent.y[2, 3], 2.0)  # x still repeats, row 2's y does not
    signed = graph(5, 4)
    signed.x[:, 2], signed.y[3] = -0.0, -0.0
    long_x = in_column(5, 4, 1, 0, LONG)  # every x row still repeats row 0's texts
    long_y = [(2 * 5 + i, 1, "-" + LONG) for i in range(5)]  # row 2's y is one text
    cases = {
        "graph-3x6000": reference_grid_text(tall),
        "graph-2500x5": reference_grid_text(wide),
        "graph-breaks-in-block-2": reference_grid_text(broken),
        "non-graph": reference_grid_text(non_graph(40, 30)),
        "y-varies-along-a-row": reference_grid_text(bent),
        "field": reference_grid_text(a_field(6)),
        "signed-zeros-mixed": reference_grid_text(signed_zeros(graph(5, 4))),
        "signed-zeros-repeating": reference_grid_text(signed),
        "long-x-token": with_tokens(reference_grid_text(graph(5, 4)), long_x),
        "long-y-token": with_tokens(reference_grid_text(graph(5, 4)), long_y),
        # the golden lifts' grids, copied without their twins
        "golden-graph-lift": (GOLDEN / "graph_lift.grid").read_text(),
        "golden-chart-lift": (GOLDEN / "chart_lift.grid").read_text(),
    }
    return [pytest.param(text, id=name) for name, text in cases.items()]


@pytest.mark.parametrize("text", reader_cases())
def test_reader_matches_the_one_call_reader(tmp_path, text):
    path = tmp_path / "r.grid"
    path.write_text(text)
    assert_bitwise(read_grid(path), reference_read_grid(path))


def test_long_tokens_are_not_cut(tmp_path):
    path = tmp_path / "l.grid"
    path.write_text(with_tokens(reference_grid_text(graph(5, 4)), in_column(5, 4, 1, 0, LONG)))
    assert np.all(read_grid(path).x[:, 1] == 1e-27)


MALFORMED_TEXTS = [
    pytest.param([(7, 0, "١")], id="non-ascii-digit-in-one-x"),
    pytest.param(in_column(5, 4, 0, 0, "١"), id="non-ascii-digit-in-x-column"),
    pytest.param([(3 * 5 + 2, 0, "1_0")], id="underscore-in-one-x-of-row-3"),
    pytest.param([(3 * 5 + i, 0, "1_0") for i in range(5)], id="underscore-in-row-3-x"),
]


@pytest.mark.parametrize("edits", MALFORMED_TEXTS)
def test_reader_rejects_malformed_texts(tmp_path, edits):
    path = tmp_path / "m.grid"
    path.write_text(with_tokens(reference_grid_text(graph(5, 4)), edits))
    for read in (read_grid, reference_read_grid):
        with pytest.raises(GridFormatError, match="malformed record"):
            read(path)


INF_IN_A_LATER_BLOCK = [
    pytest.param([(5000 * 3 + 1, 1, "inf")], id="one-y-of-row-5000"),
    pytest.param([(5000 * 3 + i, 1, "inf") for i in range(3)], id="every-y-of-row-5000"),
]


@pytest.mark.parametrize("edits", INF_IN_A_LATER_BLOCK)
def test_reader_rejects_inf_in_a_later_block(tmp_path, edits):
    path = tmp_path / "inf.grid"
    path.write_text(with_tokens(reference_grid_text(graph(3, 6000)), edits))
    for read in (read_grid, reference_read_grid):
        with pytest.raises(GridFormatError, match="non-finite"):
            read(path)


# ---------------------------------------------------------------------------
# reads on a host of 1 to 3 CPUs on which write_surface would fork for any lattice: the
# read still parses in this process alone, to the one-call reader's values and the errors
# pinned below


@pytest.fixture
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def force_parallel(monkeypatch, workers):
    """Offer `workers` CPUs and make a forked write_surface pass pay on any lattice.

    Returns the forks made by this process.
    """
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(io_mesh, "_PARALLEL_NODES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    monkeypatch.setattr(os, "fork", counted_fork)
    assert threading.active_count() == 1
    return forks


def parallel_inputs():
    """The file bytes of every reader case, and of a CRLF grid with trailing blank lines."""
    params = [pytest.param(p.values[0].encode(), id=p.id) for p in reader_cases()]
    lines = reference_grid_text(graph(7, 9)).splitlines()
    crlf = ("\r\n".join(lines) + "\r\n\r\n \t\r\n").encode()
    return params + [pytest.param(crlf, id="crlf-trailing-blank-lines")]


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("data", parallel_inputs())
def test_a_read_on_many_cpus_forks_nothing_and_matches_the_one_call_reader(
    tmp_path, monkeypatch, data, workers
):
    path = tmp_path / "p.grid"
    path.write_bytes(data)
    forks = force_parallel(monkeypatch, workers)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = read_grid(path)
        gc.collect()
    assert not forks
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert_bitwise(got, reference_read_grid(path))


def bad_lines():
    """{case: (grid text with "x1" in one field of one record, the file line of the record)}"""
    tall = reference_grid_text(graph(3, 6000))  # record 15000 is in block 2 of 8190
    big = reference_grid_text(graph(3, 22000))  # record 60000 is in block 8 of 9
    return {
        "x1-in-the-ell-of-record-15000": (with_tokens(tall, [(15000, 2, "x1")]), 15008),
        "x1-in-the-x-of-record-60000": (with_tokens(big, [(60000, 0, "x1")]), 60008),
    }


BAD_LINES = bad_lines()


def columns(count, line):
    return f"malformed record on line {line}: expected three numbers, found {count}"


def not_a_float(token, line):
    return f"malformed record on line {line}: could not convert string '{token}' to float64"


# The message each malformed file raises: a line that is not three numbers, or that holds
# a text that is no float, is named by its line in the file.
MALFORMED_MESSAGES = {
    "two-then-four-numbers": columns(2, 8),
    "trailing-comment": columns(5, 56),
    "leading-comment": columns(5, 8),
    "blank-line-inside": "malformed record: blank line inside the body",
    "whitespace-line-inside": "malformed record: blank line inside the body",
    "blank-line-first": "malformed record: blank line inside the body",
    "inf": "non-finite value in records",
    "minus-inf": "non-finite value in records",
    "header-only": "record count mismatch: expected 49, but 0 bytes hold at most 0",
    "header-and-blank-lines": "record count mismatch: expected 49, but 2 bytes hold at most 0",
    "one-record-too-many": "record count mismatch: expected 49, found 50",
    "underscore": not_a_float("1_0", 8),
    "one-column": columns(1, 8),
    "four-columns": columns(4, 8),
    "non-ascii-digit-in-one-x": not_a_float("١", 15),
    "non-ascii-digit-in-x-column": not_a_float("١", 8),
    "underscore-in-one-x-of-row-3": not_a_float("1_0", 25),
    "underscore-in-row-3-x": not_a_float("1_0", 23),
    "one-y-of-row-5000": "non-finite value in records",
    "every-y-of-row-5000": "non-finite value in records",
    "truncated-body": "record count mismatch: expected 49, found 48",
    "x1-in-the-ell-of-record-15000": not_a_float("x1", 15008),
    "x1-in-the-x-of-record-60000": not_a_float("x1", 60008),
    "shape-beyond-the-file": "record count mismatch: expected 10000000000, but 25 bytes hold "
    "at most 4",
}


def malformed_files():
    good, small = reference_grid_text(sample()), reference_grid_text(graph(5, 4))
    tall = reference_grid_text(graph(3, 6000))
    files = [
        pytest.param(body_with(good.splitlines(), p.values[0]), id=p.id) for p in MALFORMED_BODIES
    ]
    files += [pytest.param(with_tokens(small, p.values[0]), id=p.id) for p in MALFORMED_TEXTS]
    files += [pytest.param(with_tokens(tall, p.values[0]), id=p.id) for p in INF_IN_A_LATER_BLOCK]
    files += [pytest.param("".join(good.splitlines(keepends=True)[:-1]), id="truncated-body")]
    files += [pytest.param(text, id=name) for name, (text, _) in BAD_LINES.items()]
    huge = "".join(small.replace("shape 5 4", "shape 100000 100000").splitlines(keepends=True)[:8])
    files += [pytest.param(huge, id="shape-beyond-the-file")]
    return [pytest.param(*p.values, MALFORMED_MESSAGES[p.id], id=p.id) for p in files]


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("text, message", malformed_files())
def test_parallel_read_raises_the_serial_error(tmp_path, monkeypatch, text, message, workers):
    path = tmp_path / "m.grid"
    path.write_text(text)
    forks = force_parallel(monkeypatch, workers)
    with pytest.raises(GridFormatError) as got:
        read_grid(path)
    assert not forks
    assert (type(got.value), str(got.value)) == (GridFormatError, message)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("text, line", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_a_malformed_record_names_its_file_line(tmp_path, monkeypatch, text, line, workers):
    path = tmp_path / "m.grid"
    path.write_text(text)
    forks = force_parallel(monkeypatch, workers)  # a read forks no worker, however many CPUs
    with pytest.raises(GridFormatError) as got:
        read_grid(path)
    assert not forks
    want = f"malformed record on line {line}: could not convert string 'x1' to float64"
    assert str(got.value) == want


def test_a_grid_replaced_while_it_is_read_gives_the_first_files_values(tmp_path, monkeypatch):
    # the body is parsed off the handle the header was read from, not the path reopened
    first, second = (lift_one(enneper_data(3), h, SQUARE, 9, 7) for h in (0.25, 0.75))
    for name, s in (("a", first), ("b", second)):
        write_surface([s], [tmp_path / f"{name}.grid"], [tmp_path / f"{name}.obj"])
    twin_of(tmp_path / "a.grid").unlink()
    twin_values, second_text = io_mesh._twin_values, (tmp_path / "b.grid").read_bytes()

    def replaced(*args):
        os.replace(tmp_path / "b.grid", tmp_path / "a.grid")
        return twin_values(*args)

    monkeypatch.setattr(io_mesh, "_twin_values", replaced)
    assert_bitwise(read_grid(tmp_path / "a.grid"), first)
    assert (tmp_path / "a.grid").read_bytes() == second_text  # replaced during the read


# ---------------------------------------------------------------------------
# generative: small graph and chart grids, each with one edit of EDITS, against the
# one-call reader


@functools.lru_cache
def small_grid_lines(chart, n_u, n_v):
    return tuple(reference_grid_text((non_graph if chart else graph)(n_u, n_v)).splitlines())


EDITS = ["none", "blank-line", "drop", "duplicate", "bad-token", "long-token", "crlf", "no-eol"]
BAD_TOKENS = ["x1", "1_0", "nan", "-inf", "1e400", "--1", "0x1p3", "١"]


@st.composite
def edited_grids(draw, edit):
    """The bytes of a small surface grid file whose body went through one edit of EDITS."""
    chart, n_u, n_v = draw(st.booleans()), draw(st.integers(2, 6)), draw(st.integers(2, 6))
    lines = list(small_grid_lines(chart, n_u, n_v))
    records, at = lines[7:], draw(st.integers(0, n_u * n_v - 1))
    if edit == "blank-line":  # inside the body or after it
        records.insert(draw(st.integers(0, len(records))), draw(st.text(" \t\f\v", max_size=3)))
    elif edit == "drop":
        del records[at]
    elif edit == "duplicate":
        records.insert(at, records[at])
    elif edit in ("bad-token", "long-token"):  # a long token is a number text of 25+ bytes
        fields, c = records[at].split(), draw(st.integers(0, 2))
        long = f"{float(fields[c]):.40e}"
        fields[c] = draw(st.sampled_from(BAD_TOKENS)) if edit == "bad-token" else long
        records[at] = " ".join(fields)
    text = "\n".join(lines[:7] + records) + ("" if edit == "no-eol" else "\n")
    return (text.replace("\n", "\r\n") if edit == "crlf" else text).encode()


@pytest.fixture(scope="module")
def generated_path(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "g.grid"


@pytest.mark.parametrize("edit", EDITS)
@given(data=st.data(), block=st.sampled_from([1, 5, io_mesh._BLOCK_NODES]))
@settings(max_examples=12, deadline=None)
def test_reader_agrees_with_the_one_call_reader(generated_path, edit, data, block):
    generated_path.write_bytes(data.draw(edited_grids(edit)))
    try:
        want = reference_read_grid(generated_path)
    except GridFormatError as exc:
        want = exc
    with mock.patch.object(io_mesh, "_BLOCK_NODES", block):  # 1 and 5: a row or two per block
        got = read_or_error(generated_path)
    if " at row " in str(want):  # numpy's conversion error, at a row counted from 0
        row = int(str(want).split(" at row ")[1].split(",")[0])
        assert isinstance(got, GridFormatError)
        assert str(got).startswith(f"malformed record on line {8 + row}: could not convert")
    elif isinstance(want, GridFormatError):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert_bitwise(got, want)


# ---------------------------------------------------------------------------
# grid twins: write_surface's binary copy of a grid's values, bound to the finished
# grid file by its SHA-256; read_grid reads a valid twin and parses the text otherwise


def twin_of(path):
    return path.with_name(path.name + ".bin")


def read_or_error(path):
    try:
        return read_grid(path)
    except GridFormatError as exc:
        return exc


def text_read(path):
    """read_grid(path) or its GridFormatError, with the twin of path moved aside."""
    twin, aside = twin_of(path), path.with_name("aside")
    twin.rename(aside)
    try:
        return read_or_error(path)
    finally:
        aside.rename(twin)


def assert_same_outcome(got, want):
    if isinstance(want, GridFormatError):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert_bitwise(got, want)


@pytest.mark.parametrize("obj", identity_cases())
def test_a_twin_reads_as_the_text_of_its_grid(tmp_path, obj):
    grid = tmp_path / "g.grid"
    write_surface([obj], [grid], [tmp_path / "g.obj"], provenance="twin check")
    assert twin_of(grid).stat().st_size == 32 + 24 * obj.ell.size
    got = read_grid(grid)
    assert all(a.flags.writeable for a in (got.x, got.y, got.ell))
    assert_bitwise(got, obj)  # signed zeros and planted values keep their bits
    twin_of(grid).unlink()
    assert_bitwise(got, read_grid(grid))  # the text read


def test_a_valid_twin_is_read_without_a_parse_or_a_fork(tmp_path, monkeypatch, no_child_left):
    grid, s = tmp_path / "g.grid", plant(lifted(6, 12))
    write_surface([s], [grid], [tmp_path / "g.obj"])
    forks = force_parallel(monkeypatch, 2)
    body_values = mock.Mock(side_effect=AssertionError("parsed"))
    monkeypatch.setattr(io_mesh, "_body_values", body_values)
    assert_bitwise(read_grid(grid), s)
    assert not forks and not body_values.called


def first_ell_digit_changed(grid, twin):  # of the last record, to another digit
    data = grid.read_bytes()
    at = data.rindex(b" ") + 1
    at += data[at : at + 1] == b"-"
    grid.write_bytes(data[:at] + str((data[at] - ord("0") + 1) % 10).encode() + data[at + 1 :])


def last_digit_to_a_letter(grid, twin):  # the last record ends in a digit, then "\n"
    grid.write_bytes(grid.read_bytes()[:-2] + b"x\n")


def other_twin(grid, twin):  # the twin of another grid on the same lattice
    s = read_grid(grid)
    other = grid.with_name("o.grid")
    write_surface([dataclasses.replace(s, ell=s.ell + 1.0)], [other], [grid.with_name("o.obj")])
    twin.write_bytes(twin_of(other).read_bytes())


TAMPERED = {
    "grid-edited-to-the-same-length": first_ell_digit_changed,
    "grid-edited-to-a-bad-token": last_digit_to_a_letter,
    "twin-of-another-grid": other_twin,
    "twin-truncated": lambda grid, twin: twin.write_bytes(twin.read_bytes()[:-1]),
    "twin-one-byte-too-long": lambda grid, twin: twin.write_bytes(twin.read_bytes() + b"\0"),
    "twin-a-directory": lambda grid, twin: (twin.unlink(), twin.mkdir()),
}


@pytest.mark.parametrize("tamper", TAMPERED.values(), ids=TAMPERED.keys())
def test_a_twin_that_does_not_match_is_ignored(tmp_path, tamper):
    grid, s = tmp_path / "g.grid", lifted(5, 3)
    write_surface([s], [grid], [tmp_path / "g.obj"])
    tamper(grid, twin_of(grid))
    want = text_read(grid)
    got = read_or_error(grid)
    assert_same_outcome(got, want)
    if tamper is first_ell_digit_changed:
        assert got.ell[-1, -1] != s.ell[-1, -1]


def test_a_grid_changed_while_it_is_hashed_is_parsed(tmp_path, monkeypatch):
    # the header-time fstat no longer matches once the digest is taken: the text decides
    grid, s = tmp_path / "g.grid", graph(5, 4)
    write_surface([s], [grid], [tmp_path / "g.obj"])
    digest, body_values = io_mesh._digest, mock.Mock(side_effect=io_mesh._body_values)
    monkeypatch.setattr(io_mesh, "_body_values", body_values)

    def touched(fh):
        os.utime(grid, ns=(1, 1))
        return digest(fh)

    monkeypatch.setattr(io_mesh, "_digest", touched)
    assert_bitwise(read_grid(grid), s)
    assert body_values.called


def test_a_twin_holding_inf_is_rejected(tmp_path):
    grid = tmp_path / "g.grid"
    write_surface([graph(5, 4)], [grid], [tmp_path / "g.obj"])
    twin = twin_of(grid)
    twin.write_bytes(twin.read_bytes()[:-8] + np.array([np.inf], "<f8").tobytes())
    with pytest.raises(GridFormatError, match="non-finite value in records"):
        read_grid(grid)


def test_a_field_grid_with_a_twin_keeps_the_lattice_check(tmp_path):
    # write_surface writes no field grid, but a twin with the right digest is read for one too
    grid, f = tmp_path / "f.grid", a_field(6)
    grid.write_text(reference_grid_text(f))
    for x, want in ((f.x, None), (f.x + 1e-6, "field records do not sit on the header lattice")):
        digest = hashlib.sha256(grid.read_bytes()).digest()
        twin_of(grid).write_bytes(digest + np.stack((x, f.y, f.ell)).astype("<f8").tobytes())
        if want is None:
            assert_bitwise(read_grid(grid), text_read(grid))
        else:
            with pytest.raises(GridFormatError, match=want):
                read_grid(grid)


def test_a_new_write_removes_the_old_twin_first(tmp_path, monkeypatch):
    # a write that fails leaves no twin beside a grid the twin no longer describes
    grid = tmp_path / "g.grid"
    write_surface([graph(5, 4)], [grid], [tmp_path / "g.obj"])
    monkeypatch.setattr(io_mesh, "_records", mock.Mock(side_effect=KeyboardInterrupt))
    with pytest.raises(KeyboardInterrupt):
        write_surface([graph(5, 4)], [grid], [tmp_path / "g.obj"])
    assert not twin_of(grid).exists()


# ---------------------------------------------------------------------------
# the parallel write, forced on small lattices: the per-value writers' bytes


def force_parallel_write(monkeypatch, workers):
    """force_parallel for write_surface.

    Returns the forks made by this process and the row counts of the
    _records calls it made; a serial write formats every lattice row in one call.
    """
    forks = force_parallel(monkeypatch, workers)
    rows, parent, records = [], os.getpid(), io_mesh._records

    def spied_records(x, y, ells):
        if os.getpid() == parent:
            rows.append(len(x))
        return records(x, y, ells)

    monkeypatch.setattr(io_mesh, "_records", spied_records)
    return forks, rows


def write_checked(s, out_dir, raises=None, grid=True):
    """write_surface(s) into out_dir, the mesh alone if not grid; no
    ResourceWarning and no file but the ones written."""
    paths = ([out_dir / "s.grid"] if grid else None, [out_dir / "s.obj"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if raises is None:
            write_surface([s], *paths, provenance="ref check")
        else:
            with pytest.raises(raises):
                write_surface([s], *paths, provenance="ref check")
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    twin = ["s.grid.bin"] if grid and raises is None else []  # a failed write leaves no twin
    assert sorted(p.name for p in out_dir.iterdir()) == ["s.grid", *twin, "s.obj"][not grid :]


def assert_reference_bytes(s, out_dir):
    assert (out_dir / "s.grid").read_bytes() == reference_grid_text(s, "ref check").encode()
    assert (out_dir / "s.obj").read_bytes() == reference_obj_text(s).encode()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("obj", identity_cases() + [pytest.param(graph(7, 12), id="graph-7x12")])
def test_parallel_write_matches_the_per_value_writers(
    tmp_path, monkeypatch, no_child_left, obj, workers
):
    n_v = obj.ell.shape[0]
    forks, rows = force_parallel_write(monkeypatch, workers)
    write_checked(obj, tmp_path)
    assert len(forks) == min(workers, n_v) - 1 and n_v not in rows
    assert_reference_bytes(obj, tmp_path)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("obj", identity_cases())
def test_parallel_mesh_only_write_matches_the_per_value_writer(
    tmp_path, monkeypatch, no_child_left, obj, workers
):
    n_v = obj.ell.shape[0]
    forks, rows = force_parallel_write(monkeypatch, workers)
    write_checked(obj, tmp_path, grid=False)
    assert len(forks) == min(workers, n_v) - 1 and n_v not in rows
    assert (tmp_path / "s.obj").read_bytes() == reference_obj_text(obj).encode()


def family_of(s, shifts=(-1.0, 0.25, 2.0)):
    """Samples on s's (x, y) lattice with heights and H of their own, as a sweep makes."""
    return [dataclasses.replace(s, H=s.H + h, ell=s.ell + h) for h in shifts]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("grid", [True, False], ids=["grids", "meshes-only"])
@pytest.mark.parametrize(
    "obj",
    [pytest.param(graph(7, 12), id="graph-7x12"), pytest.param(plant(lifted(6, 12)), id="6x12")],
)
def test_family_write_matches_the_per_value_writers(
    tmp_path, monkeypatch, no_child_left, obj, grid, workers
):
    # one call writes every sample's files, with the bytes of each written alone
    family, names = family_of(obj), ["a", "b", "c"]
    forks, rows = force_parallel_write(monkeypatch, workers)
    grids = [tmp_path / f"{n}.grid" for n in names] if grid else None
    write_surface(family, grids, [tmp_path / f"{n}.obj" for n in names], provenance="ref check")
    assert len(forks) == workers - 1 and (12 in rows) == (workers == 1)
    for name, s in zip(names, family):
        assert (tmp_path / f"{name}.obj").read_bytes() == reference_obj_text(s).encode()
        if grid:
            want = reference_grid_text(s, "ref check").encode()
            assert (tmp_path / f"{name}.grid").read_bytes() == want
    assert len(list(tmp_path.iterdir())) == len(names) * (1 + 2 * grid)


def test_a_long_family_keeps_few_files_open(tmp_path, monkeypatch, no_child_left):
    # 3 runs of _FAMILY_RUN samples and one more, forked on 2 CPUs, under a limit on
    # open files that the whole family's files alone would pass
    resource = pytest.importorskip("resource")
    family = family_of(graph(7, 12), shifts=[0.5 * k for k in range(3 * io_mesh._FAMILY_RUN + 1)])
    names = [f"s{k}" for k in range(len(family))]
    forks, _ = force_parallel_write(monkeypatch, 2)
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (len(os.listdir("/dev/fd")) + 48, hard))
    try:
        write_surface(
            family,
            [tmp_path / f"{n}.grid" for n in names],
            [tmp_path / f"{n}.obj" for n in names],
            provenance="ref check",
        )
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    assert len(forks) == 4  # one per run
    for name, s in zip(names, family):
        assert (tmp_path / f"{name}.obj").read_bytes() == reference_obj_text(s).encode()
        want = reference_grid_text(s, "ref check").encode()
        assert (tmp_path / f"{name}.grid").read_bytes() == want


def test_family_write_validates_before_writing(tmp_path):
    s = sample(n=5)
    paths = [tmp_path / "a.obj", tmp_path / "b.obj"]
    for other in (dataclasses.replace(s, x=s.x + 1.0), signed_zeros(s)):
        with pytest.raises(ValueError, match=r"share one \(x, y\) lattice"):
            write_surface([s, other], None, paths)
    with pytest.raises(ValueError, match="one path per sample"):
        write_surface([s, s], None, paths[:1])
    with pytest.raises(ValueError, match="one path per sample"):
        write_surface([s, s], [tmp_path / "a.grid"], paths)
    with pytest.raises(ValueError, match="a sample or more"):
        write_surface([], None, [])
    assert not list(tmp_path.iterdir())


def fail_in_range(monkeypatch, failure):
    """Make a range write fail, through _faces: a child's range raises
    ("child-raises"), a child is SIGKILLed ("child-killed"), or this
    process's range is interrupted ("parent-interrupted")."""
    parent, faces = os.getpid(), io_mesh._faces

    def failing(n_u, n_v, *rows):
        if rows and os.getpid() != parent and failure == "child-raises":
            raise ValueError("a range failed")
        if rows and os.getpid() != parent and failure == "child-killed":
            os.kill(os.getpid(), signal.SIGKILL)
        if rows and os.getpid() == parent and failure == "parent-interrupted":
            raise KeyboardInterrupt
        return faces(n_u, n_v, *rows)

    monkeypatch.setattr(io_mesh, "_faces", failing)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("failure", ["child-raises", "child-killed"])
def test_a_failed_range_ends_in_the_serial_bytes(
    tmp_path, monkeypatch, no_child_left, failure, workers
):
    s = plant(lifted(6, 12))
    forks, rows = force_parallel_write(monkeypatch, workers)
    fail_in_range(monkeypatch, failure)
    write_checked(s, tmp_path)
    assert len(forks) == workers - 1 and 12 in rows  # the serial write ran
    assert_reference_bytes(s, tmp_path)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("failure", ["child-raises", "child-killed"])
def test_a_failed_range_of_a_mesh_only_write_ends_in_the_serial_bytes(
    tmp_path, monkeypatch, no_child_left, failure, workers
):
    s = plant(lifted(6, 12))
    forks, rows = force_parallel_write(monkeypatch, workers)
    fail_in_range(monkeypatch, failure)
    write_checked(s, tmp_path, grid=False)
    assert len(forks) == workers - 1 and 12 in rows  # the serial write ran
    assert (tmp_path / "s.obj").read_bytes() == reference_obj_text(s).encode()


def no_room(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("workers", [2, 3])
def test_a_failed_append_ends_in_the_serial_bytes(tmp_path, monkeypatch, no_child_left, workers):
    s = plant(lifted(6, 12))
    forks, rows = force_parallel_write(monkeypatch, workers)
    monkeypatch.setattr(shutil, "copyfileobj", no_room)  # the copy inside io_mesh._append
    write_checked(s, tmp_path)
    assert len(forks) == workers - 1 and 12 in rows  # the serial write ran
    assert_reference_bytes(s, tmp_path)


@pytest.mark.parametrize("workers", [2, 3])
def test_an_interrupted_parallel_write_reaps_its_children(
    tmp_path, monkeypatch, no_child_left, workers
):
    forks, rows = force_parallel_write(monkeypatch, workers)
    fail_in_range(monkeypatch, "parent-interrupted")
    write_checked(graph(5, 12), tmp_path, raises=KeyboardInterrupt)
    assert len(forks) == workers - 1 and 12 not in rows


def reference_faces(n_u, n_v):
    """The %d-template face formatter that _faces replaced, one row of cells at a time."""
    a = np.arange(1, n_u)  # 1-based index of the (i, j) corner of each cell, j = 0
    corners = np.stack((a, a + 1, a + n_u + 1, a, a + n_u + 1, a + n_u), axis=1).ravel()
    template = "f %d %d %d\nf %d %d %d\n" * (n_u - 1)
    return [template % tuple((corners + j * n_u).tolist()) for j in range(n_v - 1)]


@pytest.mark.parametrize("n_u, n_v", [(2, 2), (7, 2), (2, 9), (5, 3), (11, 11)])
def test_faces_match_the_template_formatter(n_u, n_v):
    want = reference_faces(n_u, n_v)  # at 11 x 11 the indices cross from 2 to 3 digits
    assert list(io_mesh._faces(n_u, n_v)) == want
    for lo in range(n_v):
        for hi in range(lo, n_v):
            assert list(io_mesh._faces(n_u, n_v, lo, hi)) == want[lo:hi]


# ---------------------------------------------------------------------------
# reports


def report(tmp_path, inputs, **sections):
    path = tmp_path / "r.json"
    write_report(path, inputs, **sections)
    return path.read_text()


def test_report_omits_absent_sections(tmp_path):
    doc = json.loads(report(tmp_path, {"seed": 0}))
    assert doc == {"version": {"schema": "3", "tool": isocmc.__version__}, "input": {"seed": 0}}


def test_report_classification_only(tmp_path):
    from isocmc import classify

    result = classify.label_from_constants(1.0, -1.0)
    doc = json.loads(report(tmp_path, {}, classification=result))
    assert doc["classification"]["label"] == "HyperbolicParaboloid"
    assert list(doc["classification"]) == ["label", "alpha", "beta", "H", "K", "rotation_angle"]
    assert list(doc) == ["version", "input", "classification"]


def test_report_vdist_block_shape(tmp_path):
    from isocmc.vdist import sample_k_image

    rep = sample_k_image(
        enneper_data(3), 1.0, [1.0], samples_per_radius=500
    )
    block = json.loads(report(tmp_path, {}, vdist=rep))["vdist"]
    assert block["verdict"] == "ClosedAtSup"
    assert block["umbilic_points"] == [[pytest.approx(0.0, abs=1e-9)] * 2]
    assert len(block["k_min"]) == 1
    assert list(block) == [
        "H", "sup_bound", "radii", "k_min", "k_max", "umbilic_points", "verdict", "const_tol",
        "margin",
    ]


def test_report_sections_follow_the_fixed_ones_in_order(tmp_path):
    doc = json.loads(report(tmp_path, {}, sweep={"a": 1}, curvature={"K": 0.0}, pde={}))
    assert list(doc) == ["version", "input", "sweep", "curvature", "pde"]
    assert doc["curvature"] == {"K": 0.0}


def test_report_determinism(tmp_path):
    def make(name):
        path = tmp_path / name
        write_report(path, {"h2": "z^2", "H": 1.0}, curvature={"K": {"min": -3.0, "max": 1.0}})
        return path.read_bytes()

    assert make("a.json") == make("b.json")


def test_report_rejects_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        write_report(tmp_path / "bad.json", {"bad": float("inf")})
