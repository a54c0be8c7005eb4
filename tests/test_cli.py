"""Command-line interface: exit codes, outputs, determinism."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from isocmc import graphgeo, holo, io_mesh, weierstrass
from isocmc.cli import main
from isocmc.graphgeo import Rect, ScalarField

from util_expr import exp_data, lift_one
from util_grid import reference_grid_text, reference_obj_text


def run(tmp_path, *argv):
    return main([argv[0], "--out-dir", str(tmp_path), *argv[1:]])


def load_report(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


# ---------------------------------------------------------------------------
# happy paths


def test_lift_writes_mesh_grid_and_report(tmp_path, capsys):
    code = run(
        tmp_path, "lift", "--h2", "z", "--omega", "1", "--H", "1", "--grid", "21x21"
    )
    assert code == 0
    assert (tmp_path / "lift.obj").exists()
    assert (tmp_path / "lift.grid").exists()
    doc = load_report(tmp_path, "lift.json")
    assert doc["curvature"]["H_input"] == 1.0
    assert doc["curvature"]["K_analytic"]["max"] == pytest.approx(0.0, abs=1e-12)
    assert doc["curvature"]["umbilic_count"] == 0
    assert "lift: wrote" in capsys.readouterr().out


def test_lift_then_analyze_roundtrip(tmp_path):
    assert (
        run(tmp_path, "lift", "--h2", "z^2", "--omega", "1", "--H", "0.5",
            "--grid", "41x41", "-o", "cubic")
        == 0
    )
    code = run(tmp_path, "analyze", "--grid-file", str(tmp_path / "cubic.grid"))
    assert code == 0
    doc = load_report(tmp_path, "analyze.json")
    assert doc["curvature"]["max_dev_H"] < 1e-9
    # a stored grid has no curvature potential to compare against
    assert doc["curvature"]["K_analytic"] is None


def test_analyze_from_generators_reports_deviation(tmp_path, capsys):
    code = run(
        tmp_path, "analyze", "--h2", "exp(z)", "--omega", "1", "--H", "0.5",
        "--grid", "101x101",
    )
    assert code == 0
    doc = load_report(tmp_path, "analyze.json")
    assert doc["curvature"]["max_dev_K"] < 1e-3
    assert doc["curvature"]["umbilic_count"] == 0
    assert "max |K_fd - K|" in capsys.readouterr().out


@pytest.mark.parametrize("h2, omega", [("z", "exp(z)"), ("z^2", "1/(z+4)")])
def test_analyze_checks_curved_charts_at_second_order(tmp_path, capsys, h2, omega):
    # omega = 1/(z+4) has no closed-form integral, so that lift runs on quadrature
    devs = []
    for grid in ("101x101", "201x201"):
        argv = ("analyze", "--h2", h2, "--omega", omega, "--grid", grid, "-o", grid)
        assert run(tmp_path, *argv) == 0
        devs.append(load_report(tmp_path, f"{grid}.json")["curvature"]["max_dev_K"])
    assert devs[0] < 1e-2
    assert 3.5 <= devs[0] / devs[1] <= 4.5
    assert "max |K_fd - K|" in capsys.readouterr().out


def test_analyze_grid_file_of_a_curved_chart(tmp_path):
    argv = ("--h2", "z", "--omega", "exp(z)", "--H", "0.5", "--grid", "41x41")
    assert run(tmp_path, "lift", *argv, "-o", "curved") == 0
    with pytest.raises(weierstrass.NonGraphSampleError):
        io_mesh.read_grid(tmp_path / "curved.grid").as_height_field()
    assert run(tmp_path, "analyze", "--grid-file", str(tmp_path / "curved.grid")) == 0
    doc = load_report(tmp_path, "analyze.json")
    assert doc["curvature"]["max_dev_H"] < 1e-2
    assert doc["curvature"]["max_dev_K"] is None


def test_classify_and_pde_accept_curved_charts(tmp_path, capsys):
    # ell = Re W over the chart W = exp(z) - 1 is the plane ell = x
    assert run(tmp_path, "classify", "--h2", "1", "--omega", "exp(z)", "--grid", "41x41") == 0
    assert capsys.readouterr().out.startswith("classify: Plane ")
    laplacians = []
    for grid in ("101x101", "201x201"):
        lift = ("lift", "--h2", "z", "--omega", "exp(z)", "--H", "0.5", "--grid", grid)
        assert run(tmp_path, *lift, "-o", grid) == 0
        assert run(tmp_path, "pde", "--grid-file", str(tmp_path / f"{grid}.grid"), "-o", grid) == 0
        laplacians.append(load_report(tmp_path, f"{grid}.json")["pde"]["laplacian"])
    # 2H = 1, to second order in the spacing
    devs = [max(abs(lap["min"] - 1.0), abs(lap["max"] - 1.0)) for lap in laplacians]
    assert devs[0] < 1e-3
    assert 3.5 <= devs[0] / devs[1] <= 4.5


GOLDEN = Path(__file__).parent / "data"
GOLDEN_SOURCES = {
    "cubic": ("--h2", "z^3 - 0.5*i*z", "--omega", "1", "--H", "-0.75", "--grid", "23x17"),
    "quadric": ("--f", "0.5*x^2 + x*y - y^2 + 0.3*x - 2", "--grid", "19x15"),
}


@pytest.mark.parametrize(
    "source, command",
    [("cubic", "analyze"), ("cubic", "classify"), ("cubic", "pde"),
     ("quadric", "classify"), ("quadric", "pde")],
)
def test_graph_mode_reports_match_the_golden_files(tmp_path, source, command):
    name = f"{source}_{command}"
    assert run(tmp_path, command, *GOLDEN_SOURCES[source], "-o", name) == 0
    assert (tmp_path / f"{name}.json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


GOLDEN_RUNS = {
    # omega = 1: the graph template of the writers
    "graph-lift": (("lift", "--h2", "z^2", "--omega", "1", "--grid", "9x7", "-o", "graph_lift"),
                   ("graph_lift.grid", "graph_lift.obj", "graph_lift.json")),
    # omega = exp(z): a curved chart, in closed form
    "chart-lift": (("lift", "--h2", "1", "--omega", "exp(z)", "--grid", "9x7", "-o", "chart_lift"),
                   ("chart_lift.grid", "chart_lift.obj", "chart_lift.json")),
    "sweep": (("sweep", "--h2", "z^2", "--omega", "1", "--H-list=0,1", "--grid", "5x5"),
              ("sweep_H0.obj", "sweep_H1.obj", "sweep.json")),
    # an umbilic at 0 realizes sup K = H^2: ClosedAtSup
    "vdist": (("vdist", "--h2", "z^3", "--omega", "1", "--H", "1", "--samples", "400",
               "-o", "z3_vdist"), ("z3_vdist.json",)),
    "classify-constants": (("classify", "--H", "1", "--K", "-1", "-o", "constants_classify"),
                           ("constants_classify.json",)),
}


@pytest.mark.parametrize("argv, files", GOLDEN_RUNS.values(), ids=GOLDEN_RUNS.keys())
def test_written_files_match_the_golden_files(tmp_path, argv, files):
    assert run(tmp_path, *argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for name in files:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_classify_constants(tmp_path, capsys):
    assert run(tmp_path, "classify", "--H", "1", "--K", "-1") == 0
    assert "HyperbolicParaboloid" in capsys.readouterr().out
    doc = load_report(tmp_path, "classify.json")
    assert doc["classification"]["label"] == "HyperbolicParaboloid"
    assert doc["input"]["K"] == -1.0


def test_classify_height_expression(tmp_path, capsys):
    code = run(
        tmp_path, "classify", "--f", "x^2 + y^2", "--grid", "21x21", "-o", "bowl"
    )
    assert code == 0
    assert "CircularParaboloid" in capsys.readouterr().out
    doc = load_report(tmp_path, "bowl.json")
    assert doc["classification"]["H"] == pytest.approx(2.0, abs=1e-8)


def test_classify_grid_file(tmp_path, capsys):
    run(tmp_path, "lift", "--h2", "z", "--omega", "1", "--H", "1", "--grid", "21x21")
    code = run(tmp_path, "classify", "--grid-file", str(tmp_path / "lift.grid"))
    assert code == 0
    assert "Cylinder" in capsys.readouterr().out


def test_sweep_reports_isometry(tmp_path):
    code = run(
        tmp_path, "sweep", "--h2", "z^2", "--omega", "1",
        "--H-list", "0,1.5,10", "--grid", "21x21",
    )
    assert code == 0
    doc = load_report(tmp_path, "sweep.json")
    sweep = doc["sweep"]
    assert sweep["planar_map_identical"] is True
    assert sweep["max_height_shift_residual"] <= 1e-12
    assert [s["H"] for s in sweep["surfaces"]] == [0.0, 1.5, 10.0]
    for h_tag in ("0", "1.5", "10"):
        assert (tmp_path / f"sweep_H{h_tag}.obj").exists()


def test_lift_writes_what_the_separate_writers_write(tmp_path):
    argv = ("--h2", "z^3 - 0.5*i*z", "--omega", "1", "--H", "-0.75", "--grid", "23x17")
    assert run(tmp_path, "lift", *argv, "-o", "one") == 0
    data = weierstrass.WeierstrassData(holo.parse(argv[1]), holo.parse(argv[3]))
    sample = lift_one(data, -0.75, Rect(-1.0, 1.0, -1.0, 1.0), 23, 17)
    io_mesh.write_surface(sample, None, tmp_path / "two.obj")
    assert (tmp_path / "one.obj").read_bytes() == (tmp_path / "two.obj").read_bytes()
    assert (tmp_path / "one.obj").read_text() == reference_obj_text(sample)
    assert (tmp_path / "one.grid").read_text() == reference_grid_text(sample, "lift H=-0.75")


@pytest.mark.parametrize("h_list", ["0.1,0.1000001", "1,1", "2,-1,2.0000001"])
def test_sweep_rejects_h_values_with_one_file_name(tmp_path, capsys, h_list):
    code = run(tmp_path, "sweep", "--h2", "z^2", "--omega", "1",
               f"--H-list={h_list}", "--grid", "11x11", "-o", "s")
    assert code == 2
    err = capsys.readouterr().err
    clashing = [h for h in h_list.split(",") if h != "-1"]
    assert "--H-list" in err and all(repr(float(h)) in err for h in clashing)
    assert "-1.0" not in err
    assert not list(tmp_path.iterdir())


def test_vdist_verdict(tmp_path, capsys):
    code = run(
        tmp_path, "vdist", "--h2", "z^2", "--omega", "1", "--H", "1",
        "--radii", "1,2,4", "--samples", "600",
    )
    assert code == 0
    assert "ClosedAtSup" in capsys.readouterr().out
    doc = load_report(tmp_path, "vdist.json")
    assert doc["vdist"]["verdict"] == "ClosedAtSup"
    assert len(doc["vdist"]["umbilic_points"]) == 1


def test_pde_expression(tmp_path, capsys):
    code = run(tmp_path, "pde", "--f", "x^2 + y^2", "--grid", "21x21")
    assert code == 0
    doc = load_report(tmp_path, "pde.json")
    assert doc["pde"]["is_constant_laplacian"] is True
    assert doc["pde"]["is_quadratic"] is True
    assert doc["pde"]["laplacian"]["mean"] == pytest.approx(4.0, abs=1e-10)
    assert "quadratic: True" in capsys.readouterr().out


def test_pde_from_generators(tmp_path):
    code = run(
        tmp_path, "pde", "--h2", "z^2", "--omega", "1", "--H", "1.5",
        "--grid", "41x41",
    )
    assert code == 0
    doc = load_report(tmp_path, "pde.json")
    assert doc["pde"]["is_constant_laplacian"] is True
    assert doc["pde"]["is_quadratic"] is False
    lo, hi = doc["pde"]["hessian_interval"]
    assert lo < hi  # unbounded-K family: the determinant genuinely varies


@pytest.mark.parametrize("tol, quadratic", [((), False), (("--tol", "fit=1e-2"), True)])
def test_classify_and_pde_read_the_same_fit_tolerance(tmp_path, capsys, tol, quadratic):
    source = ("--f", "x^2 + 0.001*x^3", "--grid", "41x41", *tol)
    assert run(tmp_path, "classify", *source) == 0
    assert run(tmp_path, "pde", *source) == 0
    classified, pde = capsys.readouterr().out.splitlines()
    assert ("NonQuadric" not in classified) is quadratic
    assert pde.endswith(f"quadratic: {quadratic}")
    label = load_report(tmp_path, "classify.json")["classification"]["label"]
    assert (label != "NonQuadric") is load_report(tmp_path, "pde.json")["pde"]["is_quadratic"]


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "isocmc" in capsys.readouterr().out


def test_help_prints_the_usage_of_its_level(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: isocmc [-h] [--version] {lift,")
    assert main(["lift", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: isocmc lift [-h]") and "--grid GRID" in out and not err


def test_tolerance_overrides_are_echoed(tmp_path):
    code = run(
        tmp_path, "lift", "--h2", "z", "--omega", "1", "--grid", "21x21",
        "--tol", "umbilic=1e-6", "--tol", "quadrature=1e-8",
    )
    assert code == 0
    tols = load_report(tmp_path, "lift.json")["input"]["tolerances"]
    assert tols["umbilic"] == 1e-6
    assert tols["quadrature"] == 1e-8


DETERMINISM_RUNS = [
    ("lift", "--h2", "z", "--omega", "1", "--H", "2", "--grid", "21x21"),
    ("analyze", "--h2", "exp(z)", "--omega", "1", "--H", "0.5", "--grid", "21x21"),
    ("classify", "--f", "x^2 + x*y - 0.5*y^2", "--grid", "21x21"),
    ("sweep", "--h2", "z^2", "--omega", "1/(z+4)", "--H-list", "0,1.5", "--grid", "21x21"),
    ("vdist", "--h2", "z^3", "--omega", "1", "--H", "1", "--samples", "400"),
    ("pde", "--h2", "z^2", "--omega", "exp(z)", "--H", "0.5", "--grid", "21x21"),
]


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        for argv in DETERMINISM_RUNS:
            assert main([argv[0], "--out-dir", str(d), *argv[1:]]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted([
        "lift.grid", "lift.obj", "lift.json", "analyze.json", "classify.json",
        "sweep_H0.obj", "sweep_H1.5.obj", "sweep.json", "vdist.json", "pde.json",
    ])
    assert sorted(p.name for p in b.iterdir()) == names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


LIFT_31X21 = ("--h2", "z^2", "--omega", "1", "--H", "0.5", "--grid", "31x21")
NOT_READ = (None, None, None)


@pytest.mark.parametrize(
    "command, argv, echoed",
    [
        pytest.param("lift", LIFT_31X21, (0.5, "-1:1:-1:1", "31x21"), id="lift"),
        pytest.param("analyze", ("--grid-file", "lift.grid"), NOT_READ, id="analyze-grid-file"),
        pytest.param("classify", ("--grid-file", "lift.grid"), NOT_READ, id="classify-grid-file"),
        pytest.param("pde", ("--grid-file", "lift.grid", "--H", "2", "--grid", "5x5"), NOT_READ,
                     id="pde-grid-file"),
        pytest.param("classify", ("--H", "1", "--K", "-1", "--grid", "5x5"), (1.0, None, None),
                     id="classify-constants"),
        pytest.param("classify", ("--f", "x^2", "--H", "2", "--grid", "9x7"),
                     (None, "-1:1:-1:1", "9x7"), id="classify-f"),
        pytest.param("pde", ("--f", "x^2", "--grid", "9x7"), (None, "-1:1:-1:1", "9x7"),
                     id="pde-f"),
        pytest.param("sweep", ("--h2", "z", "--omega", "1", "--H-list", "0,1", "--grid", "5x5"),
                     (None, "-1:1:-1:1", "5x5"), id="sweep"),
        pytest.param("vdist", ("--h2", "z^2", "--omega", "1", "--H", "1", "--samples", "400"),
                     (1.0, None, None), id="vdist"),
    ],
)
def test_inputs_echo_null_for_options_the_run_did_not_read(
    tmp_path, monkeypatch, command, argv, echoed
):
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, "lift", *LIFT_31X21) == 0
    assert run(tmp_path, command, *argv, "-o", "echo") == 0
    inputs = load_report(tmp_path, "echo.json")["input"]
    assert (inputs["H"], inputs["domain"], inputs["grid"]) == echoed


# ---------------------------------------------------------------------------
# failure modes


def test_missing_generators_is_a_usage_error(tmp_path):
    assert run(tmp_path, "lift", "--h2", "z") == 2
    assert run(tmp_path, "sweep", "--H-list", "1") == 2
    assert run(tmp_path, "vdist", "--omega", "1") == 2
    for command in ("analyze", "classify", "pde"):
        assert run(tmp_path, command, "--h2", "z") == 2
        assert run(tmp_path, command, "--omega", "1") == 2


def test_unknown_tolerance_key_is_a_usage_error(tmp_path):
    code = run(
        tmp_path, "lift", "--h2", "z", "--omega", "1", "--tol", "bogus=1"
    )
    assert code == 2
    code = run(
        tmp_path, "lift", "--h2", "z", "--omega", "1", "--tol", "umbilic=-3"
    )
    assert code == 2


@pytest.mark.parametrize("tol", ["umbilic=inf", "quadrature=nan", "margin=inf", "const=nan"])
def test_non_finite_tolerance_is_a_usage_error(tmp_path, capsys, tol):
    assert run(tmp_path, "lift", "--h2", "z", "--omega", "1", "--grid", "5x5", "--tol", tol) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_classify_needs_exactly_one_source(tmp_path):
    assert run(tmp_path, "classify") == 2
    assert run(tmp_path, "classify", "--K", "0", "--f", "x^2") == 2


@pytest.mark.parametrize(
    "command, source",
    [
        ("pde", ("--f", "x^2")),
        ("analyze", ("--h2", "z^2", "--omega", "1")),
        ("classify", ("--omega", "1")),
    ],
)
def test_a_second_height_source_is_a_usage_error(tmp_path, capsys, command, source):
    assert run(tmp_path, "lift", "--h2", "z", "--omega", "1", "--grid", "11x11") == 0
    capsys.readouterr()
    grid = ("--grid-file", str(tmp_path / "lift.grid"))
    assert run(tmp_path, command, *source, *grid, "--grid", "11x11") == 2
    assert f"{command} needs exactly one of" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


def usage_error_cases():
    lift = ("--h2", "z", "--omega", "1")
    return [
        pytest.param("lift", (), id="lift-without-generators"),
        pytest.param("lift", (*lift, "--tol", "bogus=1"), id="lift-unknown-tolerance"),
        pytest.param("pde", ("--f", "x^2", "--grid-file", "surface.grid"), id="pde-two-sources"),
        pytest.param("analyze", ("--grid-file", "field.grid"), id="analyze-field-grid"),
        pytest.param("sweep", (*lift, "--H-list", ","), id="sweep-empty-H-list"),
        pytest.param("lift", (*lift, "--bogus", "1"), id="lift-unknown-option"),
        pytest.param("vdist", (*lift, "--grid", "5x5"), id="vdist-lattice-option"),
    ]


@pytest.mark.parametrize("command, argv", usage_error_cases())
def test_usage_errors_print_the_subcommand_usage(tmp_path, monkeypatch, capsys, command, argv):
    rect = Rect(-1, 1, -1, 1)
    x, y = np.meshgrid(rect.x_nodes(5), rect.y_nodes(5))
    (tmp_path / "field.grid").write_text(reference_grid_text(ScalarField(rect, x + y)))
    assert run(tmp_path, "lift", "--h2", "z", "--omega", "1", "--grid", "5x5", "-o", "surface") == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, command, *argv) == 2
    assert capsys.readouterr().err.startswith(f"usage: isocmc {command} ")


def test_analyze_rejects_plain_field_grids(tmp_path):
    rect = Rect(-1, 1, -1, 1)
    x, y = np.meshgrid(rect.x_nodes(5), rect.y_nodes(5))
    (tmp_path / "flat.grid").write_text(reference_grid_text(ScalarField(rect, x + y)))
    assert run(tmp_path, "analyze", "--grid-file", str(tmp_path / "flat.grid")) == 2


def test_singular_generator_is_a_runtime_error(tmp_path, capsys):
    code = run(
        tmp_path, "lift", "--h2", "1", "--omega", "z", "--grid", "5x5"
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_corrupt_grid_file_is_a_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.grid"
    bad.write_text("not a grid at all\n")
    assert run(tmp_path, "analyze", "--grid-file", str(bad)) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option, message",
    [
        ("lift", "--grid=1x5", "grid needs at least 2 nodes per axis"),
        ("lift", "--H=nan", "H must be finite"),
        ("sweep", "--H-list=1,nan", "H must be finite"),
    ],
)
def test_lift_checks_end_the_run_before_any_file(tmp_path, capsys, command, option, message):
    assert run(tmp_path, command, "--h2", "z", "--omega", "1", option) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_a_scalar_power_overflow_is_a_named_error(tmp_path, capsys):
    # the constant (40^12)^40 is a Python complex, whose ** raises OverflowError
    argv = ("lift", "--h2", "1", "--omega", "((40)^12)^40", "--grid", "5x5")
    assert run_quietly(tmp_path, *argv) == (1, [])
    assert capsys.readouterr().err == "error: evaluation overflowed to a non-finite value\n"
    assert not list(tmp_path.iterdir())


def test_vdist_curvature_overflow_is_a_named_error(tmp_path, capsys):
    # |exp(z)|^2 at radius 400 is e^800, past the float range
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(
            tmp_path, "vdist", "--h2", "exp(z)", "--omega", "1", "--H", "1",
            "--radii", "1,10,400",
        )
    assert code == 1
    err = capsys.readouterr().err
    assert "overflow" in err and "radius 400" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


OVERFLOW_GEN = ("--h2", "exp(z)", "--omega", "1", "--H", "1",
                "--domain", "390:400:-1:1", "--grid", "11x11")


def run_quietly(tmp_path, *argv):
    """(exit code, RuntimeWarnings raised while running)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(tmp_path, *argv)
    return code, [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_lift_curvature_overflow_writes_nothing(tmp_path, capsys):
    # |exp(z)|^2 near Re z = 400 is e^800, past the float range
    code, runtime_warnings = run_quietly(tmp_path, "lift", *OVERFLOW_GEN)
    assert code == 1 and not runtime_warnings
    err = capsys.readouterr().err
    assert "error:" in err and "overflows the float range" in err
    assert "RuntimeWarning" not in err and "JSON" not in err
    assert not list(tmp_path.iterdir())


def test_analyze_curvature_overflow_is_a_named_error(tmp_path, capsys):
    sample = lift_one(exp_data(), 1.0, Rect(390.0, 400.0, -1.0, 1.0), 11, 11)
    io_mesh.write_surface(sample, tmp_path / "huge.grid", tmp_path / "huge.obj")
    for argv in (OVERFLOW_GEN, ("--grid-file", str(tmp_path / "huge.grid"))):
        code, runtime_warnings = run_quietly(tmp_path, "analyze", *argv)
        assert code == 1 and not runtime_warnings
        err = capsys.readouterr().err
        assert "finite-difference" in err and "overflows the float range" in err
        assert "RuntimeWarning" not in err and "JSON" not in err
    assert not (tmp_path / "analyze.json").exists()


# K = -|exp(z)|^2 is about -5e307 per node: finite, but its sum is not
EXTREME_K = ("--h2", "exp(z)", "--omega", "1", "--domain=354:354.5:-0.1:0.1", "--grid", "11x11")


def assert_mean_of(stats, values):
    want = math.fsum((values / values.size).ravel())
    assert stats["min"] <= stats["mean"] <= stats["max"]
    assert abs(stats["mean"] - want) <= 1e-12 * abs(want)


def test_a_mean_whose_sum_overflows_is_reported(tmp_path, capsys):
    for command in ("lift", "analyze"):
        assert run_quietly(tmp_path, command, *EXTREME_K) == (0, [])
    grid_file = ("--grid-file", str(tmp_path / "lift.grid"))
    assert run_quietly(tmp_path, "pde", *grid_file) == (0, [])
    sample = lift_one(exp_data(), 0.0, Rect(354.0, 354.5, -0.1, 0.1), 11, 11)
    k = sample.analytic_gauss()
    with np.errstate(over="ignore"):
        assert np.isinf(np.sum(k))
    k_fd = graphgeo.pde_analyze(*sample.height_chart()).hessian_det
    stored = graphgeo.pde_analyze(*io_mesh.read_grid(tmp_path / "lift.grid").height_chart())
    assert_mean_of(load_report(tmp_path, "lift.json")["curvature"]["K_analytic"], k)
    assert_mean_of(load_report(tmp_path, "analyze.json")["curvature"]["K_analytic"], k)
    assert_mean_of(load_report(tmp_path, "analyze.json")["curvature"]["K_fd"], k_fd)
    assert_mean_of(load_report(tmp_path, "pde.json")["pde"]["hessian_det"], stored.hessian_det)
    assert "RuntimeWarning" not in capsys.readouterr().err


@pytest.mark.parametrize("H, K", [("nan", "0"), ("inf", "1"), ("0", "nan")])
def test_classify_rejects_non_finite_constants(tmp_path, capsys, H, K):
    assert run(tmp_path, "classify", "--H", H, "--K", K) == 1
    err = capsys.readouterr().err
    assert "error: H and K must be finite" in err and "JSON" not in err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("H", ["nan", "inf"])
def test_vdist_rejects_a_non_finite_h(tmp_path, capsys, H):
    assert run(tmp_path, "vdist", "--h2", "z^2", "--omega", "1", "--H", H) == 1
    err = capsys.readouterr().err
    assert "error: H must be finite" in err and "overflow" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("option", ["--domain=-2:2:-2:2", "--grid=11x11"])
def test_vdist_takes_no_lattice_options(tmp_path, capsys, option):
    assert run(tmp_path, "vdist", "--h2", "z^2", "--omega", "1", option) == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("radii", ["nan", "1,inf"])
def test_vdist_rejects_non_finite_radii(tmp_path, capsys, radii):
    argv = ("vdist", "--h2", "z^2", "--omega", "1", "--radii", radii)
    assert run_quietly(tmp_path, *argv) == (1, [])
    err = capsys.readouterr().err
    assert "error: radii must be positive and finite" in err and "overflow" not in err
    assert not list(tmp_path.iterdir())


def test_lift_of_a_binomial_power_keeps_its_digits(tmp_path):
    # ell = Re ((z+1)^256 - 1) / 256, and |z+1| <= 0.71 on this square
    argv = ("--h2", "(z+1)^255", "--omega", "1", "--domain=-1.5:-0.5:-0.5:0.5", "--grid", "21x21")
    assert run(tmp_path, "lift", *argv) == 0
    ell = io_mesh.read_grid(tmp_path / "lift.grid").ell
    assert np.max(np.abs(ell + 1 / 256)) <= 1e-12


@pytest.mark.parametrize(
    "h2, exact",
    [
        # ell = Re 2((z+1)^256 - 1) / 256 and Re ((z+1)^256 - 1) / 256 + x
        pytest.param("2*(z+1)^255", lambda s: np.full_like(s.x, -2 / 256), id="multiple"),
        pytest.param("(z+1)^255 + 1", lambda s: s.x - 1 / 256, id="sum"),
        pytest.param(
            "-(z+1)^255/2 - 3*(z+1)^255", lambda s: np.full_like(s.x, 3.5 / 256), id="combination"
        ),
    ],
)
def test_lift_of_a_combination_of_binomial_powers_keeps_its_digits(tmp_path, h2, exact):
    argv = ("--h2", h2, "--omega", "1", "--domain=-1.5:-0.5:-0.5:0.5", "--grid", "21x21")
    assert run(tmp_path, "lift", *argv) == 0
    s = io_mesh.read_grid(tmp_path / "lift.grid")
    assert np.max(np.abs(s.ell - exact(s))) <= 1e-12


@pytest.mark.parametrize(
    "h2, code, message",
    [
        # |z+1|^1101 passes the float range on the square
        ("(z+1)^1100", 1, "error: evaluation overflowed to a non-finite value"),
        ("(z/2+0.5)^1100", 0, "lift: wrote"),
        # about 1e105 on the square: converges on the relative panel tolerance
        ("(z^2+1)^300", 0, "lift: wrote"),
    ],
)
def test_lift_of_a_power_past_the_term_cap(tmp_path, capsys, h2, code, message):
    argv = ("lift", "--h2", h2, "--omega", "1", "--grid", "11x11")
    assert run_quietly(tmp_path, *argv) == (code, [])
    out, err = capsys.readouterr()
    assert message in out + err
    assert "recursion" not in err and "RuntimeWarning" not in err


def test_pde_rejects_complex_height_expressions(tmp_path, capsys):
    assert run(tmp_path, "pde", "--f", "z^2", "--grid", "21x21") == 1
    assert "x and y" in capsys.readouterr().err


def test_bad_domain_or_grid_spec(tmp_path):
    # a value that parses but is invalid is a runtime error; text that does not
    # parse is a usage error (see test_malformed_option_text_is_a_usage_error)
    assert (
        run(tmp_path, "lift", "--h2", "z", "--omega", "1", "--domain", "1:0:0:1") == 1
    )
    assert (
        run(tmp_path, "lift", "--h2", "z", "--omega", "1", "--grid", "5by5") == 2
    )
    assert (
        run(tmp_path, "lift", "--h2", "z", "--omega", "1", "--grid", "1x5") == 1
    )


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("lift", "--grid", "5x"),
        ("lift", "--grid", "ax5"),
        ("lift", "--grid", "5x5x5"),
        ("lift", "--grid", "5.0x5"),
        ("lift", "--domain", "1:2:3"),
        ("lift", "--domain", "-1:1::1"),
        ("sweep", "--H-list", "1,x"),
        ("sweep", "--H-list", "1,,2"),
        ("sweep", "--H-list", ""),
        ("vdist", "--radii", "1,,10"),
        ("vdist", "--radii", "1,ten"),
    ],
)
def test_malformed_option_text_is_a_usage_error(tmp_path, capsys, command, option, value):
    argv = (command, "--h2", "z", "--omega", "1", "--grid", "5x5", f"{option}={value}")
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert f"isocmc {command}: error: argument {option}: expected" in err and repr(value) in err
    assert "invalid literal" not in err and "could not convert" not in err
    assert not list(tmp_path.iterdir())

