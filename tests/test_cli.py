"""Command-line interface: exit codes, outputs, determinism."""

import json
import warnings

import pytest

from isocmc import holo, io_mesh, weierstrass
from isocmc.cli import main
from isocmc.graphgeo import Rect


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
    sample = weierstrass.synthesize(
        weierstrass.WeierstrassData(holo.parse(argv[1]), holo.parse(argv[3])),
        weierstrass.LiftParams(-0.75, Rect(-1.0, 1.0, -1.0, 1.0), 23, 17),
    )
    io_mesh.write_grid(sample, tmp_path / "two.grid", provenance="lift H=-0.75")
    io_mesh.export_obj(sample, tmp_path / "two.obj")
    for ext in ("grid", "obj"):
        assert (tmp_path / f"one.{ext}").read_bytes() == (tmp_path / f"two.{ext}").read_bytes()


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


def test_tolerance_overrides_are_echoed(tmp_path):
    code = run(
        tmp_path, "lift", "--h2", "z", "--omega", "1", "--grid", "21x21",
        "--tol", "umbilic=1e-6", "--tol", "quadrature=1e-8",
    )
    assert code == 0
    tols = load_report(tmp_path, "lift.json")["input"]["tolerances"]
    assert tols["umbilic"] == 1e-6
    assert tols["quadrature"] == 1e-8


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert (
            main(["lift", "--out-dir", str(d), "--h2", "z", "--omega", "1",
                  "--H", "2", "--grid", "21x21"])
            == 0
        )
    assert (a / "lift.json").read_bytes() == (b / "lift.json").read_bytes()
    assert (a / "lift.grid").read_bytes() == (b / "lift.grid").read_bytes()
    assert (a / "lift.obj").read_bytes() == (b / "lift.obj").read_bytes()


# ---------------------------------------------------------------------------
# failure modes


def test_missing_generators_is_a_usage_error(tmp_path):
    assert run(tmp_path, "lift", "--h2", "z") == 2
    assert run(tmp_path, "sweep", "--H-list", "1") == 2
    assert run(tmp_path, "vdist", "--omega", "1") == 2


def test_unknown_tolerance_key_is_a_usage_error(tmp_path):
    code = run(
        tmp_path, "lift", "--h2", "z", "--omega", "1", "--tol", "bogus=1"
    )
    assert code == 2
    code = run(
        tmp_path, "lift", "--h2", "z", "--omega", "1", "--tol", "umbilic=-3"
    )
    assert code == 2


def test_classify_needs_exactly_one_source(tmp_path):
    assert run(tmp_path, "classify") == 2
    assert run(tmp_path, "classify", "--K", "0", "--f", "x^2") == 2


def test_analyze_rejects_plain_field_grids(tmp_path):
    import numpy as np

    from isocmc.graphgeo import Rect, ScalarField

    rect = Rect(-1, 1, -1, 1)
    x, y = np.meshgrid(rect.x_nodes(5), rect.y_nodes(5))
    io_mesh.write_grid(ScalarField(rect, x + y), tmp_path / "flat.grid")
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
    sample = weierstrass.synthesize(
        weierstrass.exp_data(),
        weierstrass.LiftParams(1.0, Rect(390.0, 400.0, -1.0, 1.0), 11, 11),
    )
    io_mesh.write_grid(sample, tmp_path / "huge.grid")
    for argv in (OVERFLOW_GEN, ("--grid-file", str(tmp_path / "huge.grid"))):
        code, runtime_warnings = run_quietly(tmp_path, "analyze", *argv)
        assert code == 1 and not runtime_warnings
        err = capsys.readouterr().err
        assert "finite-difference" in err and "overflows the float range" in err
        assert "RuntimeWarning" not in err and "JSON" not in err
    assert not (tmp_path / "analyze.json").exists()


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
    assert (
        run(tmp_path, "lift", "--h2", "z", "--omega", "1", "--domain", "1:0:0:1") == 1
    )
    assert (
        run(tmp_path, "lift", "--h2", "z", "--omega", "1", "--grid", "5by5") == 1
    )
