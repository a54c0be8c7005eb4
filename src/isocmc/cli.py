"""Command line driver.

Subcommands: lift, analyze, classify, sweep, vdist, pde.  Exit codes:
0 success, 1 runtime or validation failure, 2 usage error.  Every run is
deterministic, so identical invocations write identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, classify, graphgeo, holo, io_mesh, vdist, weierstrass
from .graphgeo import Rect, ScalarField

_TOL_DEFAULTS = {
    "quadrature": holo.DEFAULT_QUAD_TOL,
    "umbilic": weierstrass.UMBILIC_TOL,
    "zero": classify.DEFAULT_CLASSIFY_TOL,
    "fit": graphgeo.DEFAULT_QUAD_FIT_TOL,
    "const": None,   # resolved to 1e-6 * (1 + |H|) once H is known
    "margin": None,  # resolved inside vdist to 1e-3 * (1 + H^2)
}


def _parse_domain(text: str) -> Rect:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError("domain must be umin:umax:vmin:vmax")
    return Rect(*(float(p) for p in parts))


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError("grid must be NxM")
    n_u, n_v = int(parts[0]), int(parts[1])
    return n_u, n_v


def _parse_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _resolve_tols(args, parser) -> dict:
    tols = dict(_TOL_DEFAULTS)
    for item in args.tol or []:
        if "=" not in item:
            parser.error(f"--tol expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        if key not in tols:
            parser.error(f"unknown tolerance {key!r}; choose from {sorted(tols)}")
        try:
            value = float(raw)
        except ValueError:
            parser.error(f"tolerance {key!r} needs a number, got {raw!r}")
        if value <= 0:
            parser.error(f"tolerance {key!r} must be positive")
        tols[key] = value
    return tols


def _const_tol(tols: dict, h: float) -> float:
    if tols["const"] is not None:
        return tols["const"]
    return 1e-6 * (1.0 + abs(h))


def _data_from_args(args) -> weierstrass.WeierstrassData:
    return weierstrass.WeierstrassData(holo.parse(args.h2), holo.parse(args.omega))


def _field_from_args(args) -> ScalarField:
    """The --f height expression sampled on the --domain/--grid lattice."""
    rect = _parse_domain(args.domain)
    n_x, n_y = _parse_grid(args.grid)
    expr = holo.parse(args.f)
    if "z" in holo.variables(expr):
        raise ValueError("a height expression must use x and y, not z")
    xx, yy = rect.mesh(n_x, n_y)
    vals = holo.evaluate(expr, {"x": xx, "y": yy})
    worst_imag = float(np.max(np.abs(vals.imag)))
    if worst_imag > 1e-12 * (1.0 + float(np.max(np.abs(vals.real)))):
        raise ValueError("height expression is not real-valued")
    return ScalarField(rect, vals.real)


def _inputs_block(args, tols: dict, **extra) -> dict:
    keys = ("h2", "omega", "f", "grid_file", "H", "domain", "grid")
    block = {key: getattr(args, key, None) for key in keys}
    block["tolerances"] = {k: tols[k] for k in sorted(tols)}
    block.update(extra)
    return block


def _out_path(args, name: str) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _stats(values: np.ndarray) -> dict:
    return {
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "mean": float(np.mean(values)),
    }


def _synthesize(args, tols) -> weierstrass.SurfaceSample:
    data = _data_from_args(args)
    rect = _parse_domain(args.domain)
    n_u, n_v = _parse_grid(args.grid)
    params = weierstrass.LiftParams(args.H, rect, n_u, n_v)
    return weierstrass.synthesize(data, params, tol=tols["quadrature"])


def _height_source(args, tols) -> weierstrass.SurfaceSample | ScalarField:
    """What --f, --grid-file or --h2/--omega names, looked up in that order."""
    if args.f:
        return _field_from_args(args)
    if args.grid_file:
        return io_mesh.read_grid(args.grid_file)
    return _synthesize(args, tols)


# ---------------------------------------------------------------------------
# subcommands


def cmd_lift(args, parser, tols: dict) -> int:
    sample = _synthesize(args, tols)
    k = sample.analytic_gauss()  # before any file is written: K may overflow
    report = io_mesh.ReportDoc(
        inputs=_inputs_block(args, tols),
        curvature={
            "H_input": float(args.H),
            "K_analytic": _stats(k),
            "umbilic_count": int(np.count_nonzero(sample.umbilic_flags(tols["umbilic"]))),
        },
    )
    obj_path = _out_path(args, f"{args.out}.obj")
    grid_path = _out_path(args, f"{args.out}.grid")
    io_mesh.write_surface(sample, grid_path, obj_path, provenance=f"lift H={args.H:g}")
    io_mesh.write_report(report, _out_path(args, f"{args.out}.json"))
    print(f"lift: wrote {obj_path}, {grid_path}; K in [{k.min():g}, {k.max():g}]")
    return 0


def cmd_analyze(args, parser, tols: dict) -> int:
    if args.grid_file:
        sample = io_mesh.read_grid(args.grid_file)
        if isinstance(sample, ScalarField):
            parser.error("analyze expects a surface grid file; use pde for plain fields")
    else:
        if not (args.h2 and args.omega):
            parser.error("analyze needs --h2 and --omega, or --grid-file")
        sample = _synthesize(args, tols)
    try:
        field = sample.as_height_field()
    except weierstrass.NonGraphSampleError:  # a curved chart: differentiate over (u, v)
        ell = ScalarField(sample.domain, sample.ell)
        lap, k_fd, _ = graphgeo.fd_chart_curvature(ell, sample.x, sample.y)
    else:
        pde = graphgeo.pde_analyze(field)
        lap, k_fd = pde.laplacian.values, pde.hessian_det.values
    h_fd = 0.5 * lap
    block = {
        "H_input": float(sample.H),
        "H_fd": _stats(h_fd),
        "K_fd": _stats(k_fd),
        "K_analytic": None,
        "max_dev_H": float(np.max(np.abs(h_fd - sample.H))),
        "max_dev_K": None,
        "umbilic_count": None,
    }
    if sample.phi is not None:
        k_true = sample.analytic_gauss()
        interior = k_true[1:-1, 1:-1]
        block["K_analytic"] = _stats(k_true)
        block["max_dev_K"] = float(np.max(np.abs(k_fd - interior)))
        block["umbilic_count"] = int(
            np.count_nonzero(sample.umbilic_flags(tols["umbilic"]))
        )
    report = io_mesh.ReportDoc(inputs=_inputs_block(args, tols), curvature=block)
    io_mesh.write_report(report, _out_path(args, f"{args.out}.json"))
    dev = block["max_dev_K"]
    dev_note = f", max |K_fd - K| = {dev:.3e}" if dev is not None else ""
    print(
        f"analyze: H_fd in [{h_fd.min():g}, {h_fd.max():g}], "
        f"K_fd in [{k_fd.min():g}, {k_fd.max():g}]{dev_note}"
    )
    return 0


def cmd_classify(args, parser, tols: dict) -> int:
    sources = [args.K is not None, bool(args.grid_file), bool(args.f), bool(args.h2)]
    if sum(sources) != 1:
        parser.error("classify needs exactly one of --K, --grid-file, --f, or --h2/--omega")
    extra: dict = {}
    if args.K is not None:
        result = classify.label_from_constants(args.H, args.K, tols["zero"])
        extra = {"K": args.K}
    else:
        if args.h2 and not args.omega:
            parser.error("--h2 needs --omega")
        result = classify.classify_sample(_height_source(args, tols), tols["zero"], tols["fit"])
    report = io_mesh.ReportDoc(
        inputs=_inputs_block(args, tols, **extra),
        classification=io_mesh.classification_block(result),
    )
    io_mesh.write_report(report, _out_path(args, f"{args.out}.json"))
    if result.label is classify.SurfaceClass.NON_QUADRIC:
        print(f"classify: {result.label.value}")
    else:
        print(
            f"classify: {result.label.value} "
            f"(H = {result.H:g}, K = {result.K:g}, rotation = {result.rotation_angle:g})"
        )
    return 0


def cmd_sweep(args, parser, tols: dict) -> int:
    h_values = _parse_floats(args.H_list)
    if not h_values:
        parser.error("--H-list needs at least one value")
    names = [f"{args.out}_H{h:g}.obj" for h in h_values]
    clashes = [h for h, name in zip(h_values, names) if names.count(name) > 1]
    if clashes:
        parser.error(f"--H-list values {clashes} would write the same {args.out}_H*.obj file")
    data = _data_from_args(args)
    rect = _parse_domain(args.domain)
    n_u, n_v = _parse_grid(args.grid)
    samples = weierstrass.synthesize_family(
        data, h_values, rect, n_u, n_v, tol=tols["quadrature"]
    )
    base = samples[0]
    planar_identical = all(
        np.array_equal(s.x, base.x) and np.array_equal(s.y, base.y) for s in samples
    )
    shift = 0.5 * (base.x * base.x + base.y * base.y)
    residuals = [
        float(np.max(np.abs(s.ell - base.ell - (s.H - base.H) * shift)))
        for s in samples
    ]
    per_h = []
    for s, name, resid in zip(samples, names, residuals):
        io_mesh.export_obj(s, _out_path(args, name))
        per_h.append({"H": float(s.H), "obj": name, "height_shift_residual": resid})
    report = io_mesh.ReportDoc(
        inputs=_inputs_block(args, tols, H_list=h_values),
        extra={
            "sweep": {
                "planar_map_identical": bool(planar_identical),
                "max_height_shift_residual": max(residuals),
                "surfaces": per_h,
            }
        },
    )
    io_mesh.write_report(report, _out_path(args, f"{args.out}.json"))
    print(
        f"sweep: {len(samples)} surfaces, planar map identical: {planar_identical}, "
        f"max height-shift residual {max(residuals):.3e}"
    )
    return 0


def cmd_vdist(args, parser, tols: dict) -> int:
    data = _data_from_args(args)
    radii = _parse_floats(args.radii)
    rep = vdist.sample_k_image(
        data,
        args.H,
        radii,
        samples_per_radius=args.samples,
        margin=tols["margin"],
        umbilic_tol=tols["umbilic"],
    )
    report = io_mesh.ReportDoc(
        inputs=_inputs_block(args, tols, radii=radii, samples=args.samples),
        vdist=io_mesh.vdist_block(rep),
    )
    io_mesh.write_report(report, _out_path(args, f"{args.out}.json"))
    print(
        f"vdist: {rep.verdict.value}; K_max = {rep.k_max[-1]:g} vs sup H^2 = "
        f"{rep.sup_bound:g}; {len(rep.umbilic_points)} umbilic(s)"
    )
    return 0


def cmd_pde(args, parser, tols: dict) -> int:
    if not (args.f or args.grid_file or (args.h2 and args.omega)):
        parser.error("pde needs --f, --grid-file, or --h2/--omega")
    source = _height_source(args, tols)
    if isinstance(source, ScalarField):
        field, h_for_tol = source, 0.0
    else:
        field, h_for_tol = source.as_height_field(), source.H
    rep = graphgeo.pde_analyze(field, _const_tol(tols, h_for_tol))
    is_quad, _ = graphgeo.quadratic_test(field, tols["fit"])
    report = io_mesh.ReportDoc(
        inputs=_inputs_block(args, tols),
        extra={
            "pde": {
                "laplacian": _stats(rep.laplacian.values),
                "hessian_det": _stats(rep.hessian_det.values),
                "is_constant_laplacian": rep.is_constant_laplacian,
                "const_tol": rep.const_tol,
                "hessian_interval": list(rep.hessian_interval),
                "is_quadratic": bool(is_quad),
            }
        },
    )
    io_mesh.write_report(report, _out_path(args, f"{args.out}.json"))
    print(
        f"pde: laplacian in [{rep.laplacian.min:g}, {rep.laplacian.max:g}] "
        f"(constant: {rep.is_constant_laplacian}), hessian det in "
        f"[{rep.hessian_det.min:g}, {rep.hessian_det.max:g}], quadratic: {is_quad}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isocmc",
        description="Constant mean curvature graphs in the isotropic 3-space.",
    )
    parser.add_argument("--version", action="version", version=f"isocmc {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="directory for output files")
    common.add_argument(
        "--tol",
        action="append",
        metavar="KEY=VALUE",
        help=f"tolerance override, KEY in {sorted(_TOL_DEFAULTS)}",
    )
    gen = argparse.ArgumentParser(add_help=False)
    gen.add_argument("--h2", help="generator expression h2(z)")
    gen.add_argument("--omega", help="generator expression omega(z), nowhere zero")
    gen.add_argument("--domain", default="-1:1:-1:1", help="umin:umax:vmin:vmax")
    gen.add_argument("--grid", default="201x201", help="nodes per axis, NxM")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lift", parents=[common, gen], help="synthesize one surface")
    p.add_argument("--H", type=float, default=0.0, help="mean curvature")
    p.add_argument("-o", "--out", default="lift", help="output base name")
    p.set_defaults(func=cmd_lift, required_gen=True)

    p = sub.add_parser(
        "analyze", parents=[common, gen], help="finite-difference curvature check"
    )
    p.add_argument("--H", type=float, default=0.0)
    p.add_argument("--grid-file", help="analyze a stored surface instead")
    p.add_argument("-o", "--out", default="analyze")
    p.set_defaults(func=cmd_analyze, required_gen=False)

    p = sub.add_parser(
        "classify", parents=[common, gen], help="name the quadric, if it is one"
    )
    p.add_argument("--H", type=float, default=0.0)
    p.add_argument("--K", type=float, default=None, help="classify the pair (H, K)")
    p.add_argument("--grid-file", help="classify a stored grid")
    p.add_argument("--f", help="height expression in x and y")
    p.add_argument("-o", "--out", default="classify")
    p.set_defaults(func=cmd_classify, required_gen=False)

    p = sub.add_parser(
        "sweep", parents=[common, gen], help="one family, several H values"
    )
    p.add_argument("--H-list", dest="H_list", required=True, help="comma separated")
    p.add_argument("-o", "--out", default="sweep")
    p.set_defaults(func=cmd_sweep, required_gen=True)

    p = sub.add_parser(
        "vdist", parents=[common, gen], help="K image over growing disks"
    )
    p.add_argument("--H", type=float, default=0.0)
    p.add_argument("--radii", default="1,10,100", help="comma separated, increasing")
    p.add_argument("--samples", type=int, default=10_000, help="samples per radius")
    p.set_defaults(func=cmd_vdist, required_gen=True)
    p.add_argument("-o", "--out", default="vdist")

    p = sub.add_parser(
        "pde", parents=[common, gen], help="laplacian / hessian determinant view"
    )
    p.add_argument("--H", type=float, default=0.0)
    p.add_argument("--grid-file")
    p.add_argument("--f", help="height expression in x and y")
    p.add_argument("-o", "--out", default="pde")
    p.set_defaults(func=cmd_pde, required_gen=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "required_gen", False) and not (args.h2 and args.omega):
            parser.error("this command requires --h2 and --omega")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, parser, _resolve_tols(args, parser))
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code or 0)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
