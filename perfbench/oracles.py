"""Output checks for benchmark jobs, written against numpy alone.

Nothing here imports isocmc.  Each check recomputes what a job should have
written from the job's spec (the seeded generator pair, H, grid) and
returns a list of problems; an empty list means the outputs are right.

The closed forms used:

* omega = 1: W = z, height (H/2)|z|^2 + Re P(z) with P' = h2, K = H^2 - |h2'|^2.
* omega = 1/(z+a), |a| >= 3: W = log1p(z/a).  Dividing h2 by (z + a) gives
  h2 = q (z + a) + h2(-a), so the height integral is Q(z) + h2(-a) log1p(z/a)
  with Q' = q, and phi = h2' (z + a).
* Second differences on a grid of spacing h are exact for the quintic
  heights omega = 1 produces from h2 of degree <= 4, up to the h^2/12 term:
  f_xx^h = H + Re h2' + h^2/12 Re h2''', f_yy^h = H - Re h2' + h^2/12 Re h2''',
  f_xy^h = -Im h2' (the h^2 terms of the mixed stencil cancel for a
  harmonic function).  So the finite-difference H and K are predicted to
  rounding, not merely bounded.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import DOMAIN, Job

EPS = float(np.finfo(float).eps)
ZERO_TOL = 1e-8  # the CLI's default classification zero test
QUAD_TOL = 1e-10  # the CLI's default quadrature tolerance per integral
UMBILIC_TOL = 1e-9  # the CLI's default umbilic threshold on |phi|
NON_QUADRIC = "NonQuadric"


def sign_rule(H: float, K: float, tol: float = ZERO_TOL) -> str:
    """Quadric label from the signs of (H, K), boundary cases refined."""
    if abs(K) < tol:
        return "Plane" if abs(H) < tol else "Cylinder"
    if K < 0:
        return "RectangularHyperbolicParaboloid" if abs(H) < tol else "HyperbolicParaboloid"
    return "CircularParaboloid" if abs(H * H - K) < tol else "EllipticParaboloid"


# ---------------------------------------------------------------------------
# closed forms


def _polyval(coeffs, z):
    """sum(coeffs[k] z^k) by Horner's rule."""
    out = np.zeros_like(z) + 0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _polyder(coeffs, times=1):
    for _ in range(times):
        coeffs = [k * c for k, c in enumerate(coeffs)][1:] or [0j]
    return coeffs


def _polyint(coeffs):
    return [0j] + [c / (k + 1) for k, c in enumerate(coeffs)]


def _divide_linear(coeffs, a):
    """(q, r) with sum(coeffs z^k) = q(z) (z + a) + r, by synthetic division."""
    q, acc = [], 0j
    for c in reversed(coeffs):
        acc = acc * (-a) + c
        q.append(acc)
    r = q.pop()
    return list(reversed(q)), r


def parameter_grid(n: int) -> np.ndarray:
    u = np.linspace(DOMAIN[0], DOMAIN[1], n)
    v = np.linspace(DOMAIN[2], DOMAIN[3], n)
    uu, vv = np.meshgrid(u, v)
    return uu + 1j * vv


def surface(spec: dict, H: float):
    """(W, ell, phi) on the spec's grid: planar map, height, potential."""
    z = parameter_grid(spec["n"])
    h2, a = spec["h2"], spec["pole"]
    if a is None:
        w = z
        t = _polyval(_polyint(h2), z)
        phi = _polyval(_polyder(h2), z)
    else:
        w = np.log1p(z / a)
        q, r = _divide_linear(h2, a)
        t = _polyval(_polyint(q), z) + r * w
        phi = _polyval(_polyder(h2), z) * (z + a)
    ell = 0.5 * H * (w.real ** 2 + w.imag ** 2) + t.real
    return w, ell, phi


def _value_tol(spec: dict, w, H: float) -> tuple[float, float]:
    """Absolute error allowed in (x, y) and in ell.

    Closed forms allow rounding only.  Quadrature gets its stated
    tolerance once per segment on the path from the base point, which
    crosses at most 2n + 1 segments.
    """
    if spec["pole"] is None:
        return 1e-12, 1e-11
    xy = QUAD_TOL * (2 * spec["n"] + 1)
    return xy, xy * (1.0 + abs(H) * float(np.max(np.abs(w))))


# ---------------------------------------------------------------------------
# file readers


def _report(out: Path, name: str) -> dict:
    return json.loads((out / f"{name}.json").read_text())


def _numbers(text: bytes, dtype, per_row: int) -> np.ndarray:
    values = np.fromstring(text, dtype=dtype, sep=" ")
    if values.size % per_row:
        raise ValueError(f"{values.size} numbers do not make rows of {per_row}")
    return values.reshape(-1, per_row)


def read_grid(path: Path) -> tuple[dict, np.ndarray]:
    """Header fields and the (n_v, n_u, 3) records of a .grid file."""
    lines = path.read_bytes().split(b"\n", 7)
    if len(lines) < 8 or lines[0] != b"# cmcgrid v1" or lines[6] != b"end_header":
        raise ValueError("not a grid file")
    header = dict(line.decode().split(" ", 1) for line in lines[1:6])
    n_u, n_v = (int(t) for t in header["shape"].split())
    records = _numbers(lines[7], np.float64, 3)
    if len(records) != n_u * n_v or lines[7].count(b"\n") != n_u * n_v:
        raise ValueError(f"{len(records)} records for a {n_u} x {n_v} grid")
    return header, records.reshape(n_v, n_u, 3)


def read_obj(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Vertex rows (x, y, ell) and 1-based triangle rows of an OBJ file."""
    data = path.read_bytes()
    split = data.find(b"\nf ") + 1
    if split <= 0:
        raise ValueError("no faces")
    verts = _numbers(data[:split].replace(b"v ", b" "), np.float64, 3)
    faces = _numbers(data[split:].replace(b"f ", b" "), np.int64, 3)
    if len(verts) != data.count(b"v ", 0, split) or len(faces) != data.count(b"f ", split):
        raise ValueError("records do not match their v / f markers")
    return verts, faces


def expected_faces(n: int) -> np.ndarray:
    """Two triangles per cell, split along the (i, j) -> (i+1, j+1) diagonal."""
    j, i = np.meshgrid(np.arange(n - 1), np.arange(n - 1), indexing="ij")
    a = (j * n + i + 1).ravel()
    b, c, d = a + 1, a + n + 1, a + n
    return np.stack([np.stack([a, b, c], 1), np.stack([a, c, d], 1)], 1).reshape(-1, 3)


# ---------------------------------------------------------------------------
# comparisons


def _close(problems, what, got, want, tol):
    got_a, want_a = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got_a.shape != want_a.shape:
        problems.append(f"{what}: shape {got_a.shape} != {want_a.shape}")
        return
    err = float(np.max(np.abs(got_a - want_a))) if got_a.size else 0.0
    if not err <= tol:  # also catches nan
        problems.append(f"{what}: off by {err:.3e} > {tol:.3e}")


def _equal(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: {got!r} != {want!r}")


def _stats_close(problems, what, block, values, tol):
    for key, want in (("min", values.min()), ("max", values.max()), ("mean", values.mean())):
        _close(problems, f"{what}.{key}", (block or {}).get(key, math.nan), want, tol)


def _check_mesh(problems, path: Path, n: int, xyz: np.ndarray, tol_xy, tol_ell):
    try:
        verts, faces = read_obj(path)
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return
    want = xyz.reshape(-1, 3)
    if verts.shape != want.shape:
        problems.append(f"{path.name}: {verts.shape[0]} vertices, want {want.shape[0]}")
        return
    _close(problems, f"{path.name} x, y", verts[:, :2], want[:, :2], tol_xy)
    _close(problems, f"{path.name} ell", verts[:, 2], want[:, 2], tol_ell)
    if not np.array_equal(faces, expected_faces(n)):
        problems.append(f"{path.name}: faces differ from the grid triangulation")


# ---------------------------------------------------------------------------
# per-command checks


def check_lift(job: Job, out: Path) -> list[str]:
    spec, H, n = job.spec, job.spec["H"], job.spec["n"]
    problems: list[str] = []
    w, ell, phi = surface(spec, H)
    tol_xy, tol_ell = _value_tol(spec, w, H)
    k = H * H - (phi.real ** 2 + phi.imag ** 2)
    curv = _report(out, job.name)["curvature"]
    k_tol = 1e-9 * (1.0 + float(np.max(np.abs(k))))
    _close(problems, "K_analytic.min", curv["K_analytic"]["min"], k.min(), k_tol)
    _close(problems, "K_analytic.max", curv["K_analytic"]["max"], k.max(), k_tol)
    _equal(problems, "umbilic_count", curv["umbilic_count"],
           int(np.count_nonzero(np.abs(phi) < UMBILIC_TOL)))
    xyz = np.stack([w.real, w.imag, ell], axis=-1)
    try:
        header, values = read_grid(out / f"{job.name}.grid")
    except (OSError, ValueError) as exc:
        return problems + [f"grid: {exc}"]
    _equal(problems, "grid shape", header["shape"], f"{n} {n}")
    _equal(problems, "grid kind", header["kind"], "surface")
    _close(problems, "grid H", float(header["H"]), H, 0.0)
    if values.shape != xyz.shape:
        return problems + [f"grid: shape {values.shape} != {xyz.shape}"]
    _close(problems, "grid x, y", values[..., :2], xyz[..., :2], tol_xy)
    _close(problems, "grid ell", values[..., 2], xyz[..., 2], tol_ell)
    # The mesh carries the same nodes; compare it with the checked grid.
    _check_mesh(problems, out / f"{job.name}.obj", n, values, 0.0, 0.0)
    return problems


def check_sweep(job: Job, out: Path) -> list[str]:
    spec, n = job.spec, job.spec["n"]
    problems: list[str] = []
    sweep = _report(out, job.name)["sweep"]
    _equal(problems, "planar_map_identical", sweep["planar_map_identical"], True)
    _close(problems, "max_height_shift_residual", sweep["max_height_shift_residual"], 0.0, 1e-9)
    surfaces = sweep["surfaces"]
    _equal(problems, "H values", [s["H"] for s in surfaces], spec["H_list"])
    for H, entry in zip(spec["H_list"], surfaces):
        _equal(problems, "obj name", entry["obj"], f"{job.name}_H{H:g}.obj")
        w, ell, _ = surface(spec, H)
        tol_xy, tol_ell = _value_tol(spec, w, H)
        xyz = np.stack([w.real, w.imag, ell], axis=-1)
        _check_mesh(problems, out / entry["obj"], n, xyz, tol_xy, tol_ell)
    return problems


def fd_prediction(spec: dict, H: float):
    """Finite-difference (H, K) on the interior nodes, from the closed form."""
    n = spec["n"]
    h = (DOMAIN[1] - DOMAIN[0]) / (n - 1)
    z = parameter_grid(n)[1:-1, 1:-1]
    p1 = _polyval(_polyder(spec["h2"], 1), z)
    shift = h * h / 12.0 * _polyval(_polyder(spec["h2"], 3), z).real
    f_xx, f_yy, f_xy = H + p1.real + shift, H - p1.real + shift, -p1.imag
    _, ell, _ = surface(spec, H)
    # Rounding of the stored heights, amplified by the 1/h^2 stencils.
    tol_h = 32.0 * EPS * (1.0 + float(np.max(np.abs(ell)))) / (h * h)
    tol_k = 4.0 * tol_h * (1.0 + abs(H) + float(np.max(np.abs(p1))))
    return 0.5 * (f_xx + f_yy), f_xx * f_yy - f_xy * f_xy, tol_h, tol_k


def check_analyze(job: Job, out: Path) -> list[str]:
    H = job.spec["H"]
    problems: list[str] = []
    curv = _report(out, job.name)["curvature"]
    h_fd, k_fd, tol_h, tol_k = fd_prediction(job.spec, H)
    _close(problems, "H_input", curv["H_input"], H, 0.0)
    _stats_close(problems, "H_fd", curv["H_fd"], h_fd, tol_h)
    _stats_close(problems, "K_fd", curv["K_fd"], k_fd, tol_k)
    _close(problems, "max_dev_H", curv["max_dev_H"], np.max(np.abs(h_fd - H)), tol_h)
    # A stored grid carries no curvature potential, so these stay null.
    for key in ("K_analytic", "max_dev_K", "umbilic_count"):
        _equal(problems, key, curv[key], None)
    return problems


def check_pde_grid(job: Job, out: Path) -> list[str]:
    H = job.spec["H"]
    problems: list[str] = []
    pde = _report(out, job.name)["pde"]
    h_fd, k_fd, tol_h, tol_k = fd_prediction(job.spec, H)
    lap = 2.0 * h_fd
    const_tol = 1e-6 * (1.0 + abs(H))
    _stats_close(problems, "laplacian", pde["laplacian"], lap, 2.0 * tol_h)
    _stats_close(problems, "hessian_det", pde["hessian_det"], k_fd, tol_k)
    _close(problems, "const_tol", pde["const_tol"], const_tol, 1e-12 * const_tol)
    spread = float(lap.max() - lap.min())
    if abs(spread - const_tol) > 2.0 * tol_h + 0.1 * const_tol:  # else too close to call
        _equal(problems, "is_constant_laplacian", pde["is_constant_laplacian"], spread < const_tol)
    _close(problems, "hessian_interval", pde["hessian_interval"], [k_fd.min(), k_fd.max()], tol_k)
    _equal(problems, "is_quadratic", pde["is_quadratic"], len(job.spec["h2"]) == 2)
    return problems


def _check_label(problems, block, H, K):
    label = sign_rule(H, K)
    _equal(problems, "label", block["label"], label)
    if block["label"] == label:
        _close(problems, "H", block["H"], H, 1e-6 * (1.0 + abs(H)))
        _close(problems, "K", block["K"], K, 1e-6 * (1.0 + abs(K)))


def check_classify_grid(job: Job, out: Path) -> list[str]:
    H, h2 = job.spec["H"], job.spec["h2"]
    problems: list[str] = []
    block = _report(out, job.name)["classification"]
    if len(h2) == 2:  # h2 linear: the height is a quadric with phi = h2'
        _check_label(problems, block, H, H * H - abs(h2[1]) ** 2)
    else:
        _equal(problems, "label", block["label"], NON_QUADRIC)
    return problems


def check_classify_hk(job: Job, out: Path) -> list[str]:
    H, K = job.spec["H"], job.spec["K"]
    problems: list[str] = []
    block = _report(out, job.name)["classification"]
    _equal(problems, "label", block["label"], sign_rule(H, K))
    root = math.sqrt(max(H * H - K, 0.0))
    _close(problems, "alpha", block["alpha"], 0.5 * (H + root), 1e-12)
    _close(problems, "beta", block["beta"], 0.5 * (H - root), 1e-12)
    return problems


def _quadric_hk(q: dict) -> tuple[float, float]:
    return q["d"] + q["g"], 4.0 * q["d"] * q["g"] - q["e"] * q["e"]


def check_classify_f(job: Job, out: Path) -> list[str]:
    problems: list[str] = []
    _check_label(problems, _report(out, job.name)["classification"], *_quadric_hk(job.spec["quadric"]))
    return problems


def check_pde_f(job: Job, out: Path) -> list[str]:
    H, K = _quadric_hk(job.spec["quadric"])
    problems: list[str] = []
    pde = _report(out, job.name)["pde"]
    for key, want in (("laplacian", 2.0 * H), ("hessian_det", K)):
        for stat in ("min", "max", "mean"):
            _close(problems, f"{key}.{stat}", pde[key][stat], want, 1e-6)
    _equal(problems, "is_constant_laplacian", pde["is_constant_laplacian"], True)
    _equal(problems, "is_quadratic", pde["is_quadratic"], True)
    return problems


# ---------------------------------------------------------------------------
# vdist


def true_umbilics(spec: dict) -> list[complex]:
    """Zeros of phi = h2' in the largest disk, for each family."""
    r = max(spec["radii"])
    family = spec["family"]
    if family == "power":
        return [0j]
    if family == "sin":  # phi = cos z, zeros at pi/2 + k pi, all real
        k_max = math.floor(r / math.pi - 0.5)
        return [complex(math.pi / 2 + k * math.pi) for k in range(-k_max - 1, k_max + 1)]
    return []  # a*z: phi = a; exp(z): phi = exp(z), no zeros


def true_verdict(spec: dict) -> str:
    if spec["family"] == "linear":
        return "ConstantK"
    return "OpenBelowSup" if spec["family"] == "exp" else "ClosedAtSup"


def _k_inf(spec: dict, r: float) -> float:
    """inf of K = H^2 - |phi|^2 over the disk of radius r."""
    H2, family = spec["H"] ** 2, spec["family"]
    if family == "linear":
        return H2 - abs(spec["a"]) ** 2
    if family == "power":
        n = spec["n"]
        return H2 - n * n * r ** (2 * (n - 1))
    if family == "exp":
        return H2 - math.exp(2 * r)
    return H2 - math.cosh(r) ** 2  # max |cos z| on |z| <= r is at z = +-i r


def check_vdist(job: Job, out: Path) -> list[str]:
    spec = job.spec
    problems: list[str] = []
    rep = _report(out, job.name)["vdist"]
    H2 = spec["H"] ** 2
    _equal(problems, "verdict", rep["verdict"], true_verdict(spec))
    found = [complex(*p) for p in rep["umbilic_points"]]
    truth = true_umbilics(spec)
    _equal(problems, "umbilic count", len(found), len(truth))
    for z in found:
        if not truth or min(abs(z - t) for t in truth) > 1e-4:
            problems.append(f"umbilic at {z:.6g} is not a zero of phi")
    for r, lo, hi in zip(spec["radii"], rep["k_min"], rep["k_max"]):
        inf = _k_inf(spec, r)
        if lo < inf - 1e-9 * (1.0 + abs(inf)) or hi > H2 + 1e-12:
            problems.append(f"K range [{lo:g}, {hi:g}] at r={r:g} leaves [{inf:g}, {H2:g}]")
    if sorted(rep["k_min"], reverse=True) != rep["k_min"] or sorted(rep["k_max"]) != rep["k_max"]:
        problems.append("K extremes are not cumulative over the radii")
    return problems


def known_defect(job: Job, out: Path) -> str | None:
    """Name the known vdist defect a failed job shows, if it is one of them.

    Both are defects of the umbilic scan under the default radii:
    exp-false-umbilic: exp(z) reported ClosedAtSup because |phi| = e^-100
    at z = -100 falls below the umbilic tolerance; sin-missed-umbilics:
    sin(z) reports some, but not all 64, zeros of cos z in |z| <= 100.
    """
    if job.command != "vdist":
        return None
    try:
        rep = _report(out, job.name)["vdist"]
    except (OSError, ValueError, KeyError):
        return None
    found = [complex(*p) for p in rep["umbilic_points"]]
    family = job.spec["family"]
    # |exp(z)| < 1e-9 needs Re z < -20.7.
    if (family == "exp" and rep["verdict"] == "ClosedAtSup" and found
            and all(z.real < -20.0 for z in found)):
        return "exp-false-umbilic"
    truth = true_umbilics(job.spec)
    if (family == "sin" and rep["verdict"] == "ClosedAtSup" and 0 < len(found) < len(truth)
            and all(min(abs(z - t) for t in truth) <= 1e-4 for z in found)):
        return "sin-missed-umbilics"
    return None


CHECKS = {
    "lift": check_lift,
    "sweep": check_sweep,
    "analyze_grid": check_analyze,
    "classify_grid": check_classify_grid,
    "pde_grid": check_pde_grid,
    "vdist": check_vdist,
    "classify_hk": check_classify_hk,
    "classify_f": check_classify_f,
    "pde_f": check_pde_f,
}


def check(job: Job, out: Path) -> list[str]:
    """Problems with the outputs of one job that exited 0."""
    try:
        return CHECKS[job.check](job, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
