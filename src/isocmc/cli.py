"""Command line driver.

Subcommands: lift, analyze, classify, sweep, vdist, pde.  Exit codes:
0 success, 1 runtime or validation failure, 2 usage error.  Every run is
deterministic, so identical invocations write identical files.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

import numpy as np

from . import __version__, classify, graphgeo, holo, io_mesh, vdist, weierstrass
from .graphgeo import Rect

_TOL_DEFAULTS = {
    "quadrature": holo.DEFAULT_QUAD_TOL,
    "umbilic": weierstrass.UMBILIC_TOL,
    "zero": classify.DEFAULT_CLASSIFY_TOL,
    "fit": graphgeo.DEFAULT_QUAD_FIT_TOL,
    "const": None,   # resolved to 1e-6 * (1 + |H|) once H is known
    "margin": None,  # resolved inside vdist to 1e-3 * (1 + H^2)
}


def _syntax(form: str, sep: str, count: int = 0, kind=float):
    """argparse type for an option of `count` (or any number of) sep-separated
    numbers, none empty; it keeps the text, which later parses and is echoed."""

    def check(text: str) -> str:
        parts = text.lower().split(sep)
        try:
            if all(p.strip() for p in parts) and len(parts) == (count or len(parts)):
                list(map(kind, parts))
                return text
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")

    return check


def _parse_domain(text: str) -> Rect:
    return Rect(*(float(p) for p in text.split(":")))


def _parse_grid(text: str) -> tuple[int, int]:
    return tuple(int(p) for p in text.lower().split("x"))


def _parse_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


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
        if not 0 < value < np.inf:
            parser.error(f"tolerance {key!r} must be positive and finite")
        tols[key] = value
    return tols


def _data_from_args(args) -> weierstrass.WeierstrassData:
    return weierstrass.WeierstrassData(holo.parse(args.h2), holo.parse(args.omega))


def _field_from_args(args) -> weierstrass.SurfaceSample:
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
    return weierstrass.SurfaceSample(rect, None, xx, yy, vals.real)


def _out_path(args, name: str) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _stats(values: np.ndarray) -> dict:
    with np.errstate(over="ignore"):
        mean = np.mean(values)
    if not np.isfinite(mean):  # the sum overflowed; the mean of finite values is finite
        mean = np.sum(values / values.size)
    return {"min": float(np.min(values)), "max": float(np.max(values)), "mean": float(mean)}


def _report(args, tols: dict, inputs: dict | None = None, **sections) -> None:
    """Write the run's .json report: the options it echoes, its tolerances and
    any further inputs, then its sections (see io_mesh.write_report)."""
    keys = ("h2", "omega", "f", "grid_file", "H", "domain", "grid")
    block = {key: getattr(args, key, None) for key in keys}
    block["tolerances"] = {k: tols[k] for k in sorted(tols)}
    io_mesh.write_report(_out_path(args, f"{args.out}.json"), block | (inputs or {}), **sections)


def _synthesize(args, tols, h_values: list[float]) -> list[weierstrass.SurfaceSample]:
    """One sample per H of the --h2/--omega pair on the --domain/--grid lattice."""
    data = _data_from_args(args)
    rect = _parse_domain(args.domain)
    n_u, n_v = _parse_grid(args.grid)
    return weierstrass.synthesize_family(data, h_values, rect, n_u, n_v, tol=tols["quadrature"])


def _height_source(args, parser, tols) -> weierstrass.SurfaceSample | None:
    """The one source of heights the arguments name, read or synthesized.

    The sources are --f, --grid-file and --h2/--omega, plus --K in classify,
    as far as the subcommand has them.  None or two of them are a usage
    error.  --K names constants, not heights, and gives None.  Of --H,
    --domain and --grid, those the source does not read become None, so the
    report echoes them as null.
    """
    sources = {"--grid-file": args.grid_file, "--h2/--omega": args.h2 or args.omega}
    if hasattr(args, "f"):
        sources["--f"] = args.f
    if hasattr(args, "K"):
        sources["--K"] = args.K is not None
    if sum(bool(named) for named in sources.values()) != 1:
        parser.error(f"{args.command} needs exactly one of {', '.join(sources)}")
    if sources["--h2/--omega"]:
        if not (args.h2 and args.omega):
            parser.error("--h2 and --omega go together")
        return _synthesize(args, tols, [args.H])[0]
    if sources.get("--K"):
        args.domain = args.grid = None
        return None
    args.H = None  # --f has no H, and a grid file's header holds its own
    if sources.get("--f"):
        return _field_from_args(args)
    args.domain = args.grid = None
    return io_mesh.read_grid(args.grid_file)


# ---------------------------------------------------------------------------
# subcommands


def cmd_lift(args, parser, tols: dict) -> int:
    (sample,) = _synthesize(args, tols, [args.H])
    k = sample.analytic_gauss()  # before any file is written: K may overflow
    curvature = {
        "H_input": float(args.H),
        "K_analytic": _stats(k),
        "umbilic_count": int(np.count_nonzero(sample.umbilic_flags(tols["umbilic"]))),
    }
    obj_path = _out_path(args, f"{args.out}.obj")
    grid_path = _out_path(args, f"{args.out}.grid")
    io_mesh.write_surface([sample], [grid_path], [obj_path], provenance=f"lift H={args.H:g}")
    _report(args, tols, curvature=curvature)
    print(f"lift: wrote {obj_path}, {grid_path}; K in [{k.min():g}, {k.max():g}]")
    return 0


def cmd_analyze(args, parser, tols: dict) -> int:
    sample = _height_source(args, parser, tols)
    if sample.H is None:
        parser.error("analyze expects a surface grid file; use pde for plain fields")
    laplacian, k_fd = graphgeo.pde_analyze(sample)
    h_fd = 0.5 * laplacian
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
        block["K_analytic"] = _stats(k_true)
        block["max_dev_K"] = float(np.max(np.abs(k_fd - k_true[1:-1, 1:-1])))
        block["umbilic_count"] = int(np.count_nonzero(sample.umbilic_flags(tols["umbilic"])))
    _report(args, tols, curvature=block)
    dev = block["max_dev_K"]
    dev_note = f", max |K_fd - K| = {dev:.3e}" if dev is not None else ""
    print(
        f"analyze: H_fd in [{h_fd.min():g}, {h_fd.max():g}], "
        f"K_fd in [{k_fd.min():g}, {k_fd.max():g}]{dev_note}"
    )
    return 0


def cmd_classify(args, parser, tols: dict) -> int:
    source = _height_source(args, parser, tols)
    if source is None:
        result, inputs = classify.label_from_constants(args.H, args.K, tols["zero"]), {"K": args.K}
    else:
        result, inputs = classify.classify_sample(source, tols["zero"], tols["fit"]), None
    _report(args, tols, inputs, classification=result)
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
    names = [f"{args.out}_H{h:g}.obj" for h in h_values]
    clashes = [h for h, name in zip(h_values, names) if names.count(name) > 1]
    if clashes:
        parser.error(f"--H-list values {clashes} would write the same {args.out}_H*.obj file")
    samples = _synthesize(args, tols, h_values)
    base = samples[0]
    planar_identical = all(
        np.array_equal(s.x, base.x) and np.array_equal(s.y, base.y) for s in samples
    )
    shift = 0.5 * (base.x * base.x + base.y * base.y)
    with np.errstate(all="ignore"):  # a residual beyond the float range is named below
        residuals = [float(abs(s.ell - base.ell - (s.H - base.H) * shift).max()) for s in samples]
    if not np.all(np.isfinite(residuals)):
        raise ValueError("height-shift residual leaves the float range; narrow --H-list")
    io_mesh.write_surface(samples, None, [_out_path(args, name) for name in names])
    per_h = [
        {"H": float(s.H), "obj": name, "height_shift_residual": resid}
        for s, name, resid in zip(samples, names, residuals)
    ]
    sweep = {
        "planar_map_identical": bool(planar_identical),
        "max_height_shift_residual": max(residuals),
        "surfaces": per_h,
    }
    _report(args, tols, {"H_list": h_values}, sweep=sweep)
    print(
        f"sweep: {len(samples)} surfaces, planar map identical: {planar_identical}, "
        f"max height-shift residual {max(residuals):.3e}"
    )
    return 0


def cmd_vdist(args, parser, tols: dict) -> int:
    data = _data_from_args(args)
    radii = _parse_floats(args.radii)
    rep = vdist.sample_k_image(
        data, args.H, radii, args.samples, margin=tols["margin"], umbilic_tol=tols["umbilic"]
    )
    _report(args, tols, {"radii": radii, "samples": args.samples}, vdist=rep)
    print(
        f"vdist: {rep.verdict.value}; K_max = {rep.k_max[-1]:g} vs sup H^2 = "
        f"{rep.sup_bound:g}; {len(rep.umbilic_points)} umbilic(s)"
    )
    return 0


def cmd_pde(args, parser, tols: dict) -> int:
    source = _height_source(args, parser, tols)
    const_tol = tols["const"] or 1e-6 * (1.0 + abs(source.H or 0.0))
    laplacian, hessian_det = graphgeo.pde_analyze(source)
    is_quad, _ = graphgeo.quadratic_test(source, tols["fit"])
    lap, hess = _stats(laplacian), _stats(hessian_det)
    constant = float(laplacian.max() - laplacian.min()) < const_tol
    pde = {
        "laplacian": lap,
        "hessian_det": hess,
        "is_constant_laplacian": constant,
        "const_tol": const_tol,
        "hessian_interval": [hess["min"], hess["max"]],
        "is_quadratic": bool(is_quad),
    }
    _report(args, tols, pde=pde)
    print(
        f"pde: laplacian in [{lap['min']:g}, {lap['max']:g}] "
        f"(constant: {constant}), hessian det in "
        f"[{hess['min']:g}, {hess['max']:g}], quadratic: {is_quad}"
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
    lattice = argparse.ArgumentParser(add_help=False)  # every subcommand but vdist
    domain, grid = _syntax("umin:umax:vmin:vmax", ":", 4), _syntax("NxM", "x", 2, int)
    lattice.add_argument("--domain", default="-1:1:-1:1", type=domain, help="umin:umax:vmin:vmax")
    lattice.add_argument("--grid", default="201x201", type=grid, help="nodes per axis, NxM")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lift", parents=[common, gen, lattice], help="synthesize one surface")
    p.add_argument("--H", type=float, default=0.0, help="mean curvature")
    p.add_argument("-o", "--out", default="lift", help="output base name")
    p.set_defaults(func=cmd_lift, required_gen=True)

    p = sub.add_parser(
        "analyze", parents=[common, gen, lattice], help="finite-difference curvature check"
    )
    p.add_argument("--H", type=float, default=0.0)
    p.add_argument("--grid-file", help="analyze a stored surface instead")
    p.add_argument("-o", "--out", default="analyze")
    p.set_defaults(func=cmd_analyze, required_gen=False)

    p = sub.add_parser(
        "classify", parents=[common, gen, lattice], help="name the quadric, if it is one"
    )
    p.add_argument("--H", type=float, default=0.0)
    p.add_argument("--K", type=float, default=None, help="classify the pair (H, K)")
    p.add_argument("--grid-file", help="classify a stored grid")
    p.add_argument("--f", help="height expression in x and y")
    p.add_argument("-o", "--out", default="classify")
    p.set_defaults(func=cmd_classify, required_gen=False)

    p = sub.add_parser(
        "sweep", parents=[common, gen, lattice], help="one family, several H values"
    )
    numbers = _syntax("comma separated numbers", ",")
    p.add_argument("--H-list", dest="H_list", required=True, type=numbers, help="comma separated")
    p.add_argument("-o", "--out", default="sweep")
    p.set_defaults(func=cmd_sweep, required_gen=True)

    p = sub.add_parser(
        "vdist", parents=[common, gen], help="K image over growing disks"
    )
    p.add_argument("--H", type=float, default=0.0)
    p.add_argument("--radii", default="1,10,100", type=numbers, help="comma separated, increasing")
    p.add_argument("--samples", type=int, default=10_000, help="samples per radius")
    p.set_defaults(func=cmd_vdist, required_gen=True)
    p.add_argument("-o", "--out", default="vdist")

    p = sub.add_parser(
        "pde", parents=[common, gen, lattice], help="laplacian / hessian determinant view"
    )
    p.add_argument("--H", type=float, default=0.0)
    p.add_argument("--grid-file")
    p.add_argument("--f", help="height expression in x and y")
    p.add_argument("-o", "--out", default="pde")
    p.set_defaults(func=cmd_pde, required_gen=False)

    for p in sub.choices.values():  # later usage errors print the subcommand's usage
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:  # the subcommand's usage line, where parse_args would print the top level's
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.required_gen and not (args.h2 and args.omega):
            args.parser.error("this command requires --h2 and --omega")
        return args.func(args, args.parser, _resolve_tols(args, args.parser))
    except SystemExit as exc:  # a usage error, --help or --version
        return int(exc.code or 0)
    except RecursionError:  # only expression trees and their parser recurse this deep
        print("error: expression nested too deeply", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    code = main()
    # every file is closed by now: freezing what the run left behind spares the
    # interpreter's exit a garbage collection that would walk all of it
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
