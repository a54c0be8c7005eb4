"""Seeded job lists for the benchmark workloads.

A job is one ``isocmc`` invocation: the subcommand, its argv, and a spec of
the mathematics behind it that ``oracles.py`` checks the outputs against.
Every number in an argv is drawn from ``random.Random`` seeded with the
workload name, the workload seed and the iteration index, so one seed
always yields the same argv lists.

Each iteration is a fixed composition of jobs with seeded parameters, so a
run's per-subcommand medians do not depend on which job kinds the seed
happened to draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("grid1001-io", "quadrature", "short-jobs")

# Grid sizes per scale: "full" is what the benchmark measures, "tiny" is
# what the self-tests run.  "big" is the grid1001-io lift, "default" the
# CLI's default 201 x 201, "sweep" the quadrature sweep.
SIZES = {
    "full": {"big": 1001, "default": 201, "sweep": 101},
    "tiny": {"big": 21, "default": 21, "sweep": 11},
}

DOMAIN = (-1.0, 1.0, -1.0, 1.0)  # the CLI default, which every job uses
VDIST_RADII = (1.0, 10.0, 100.0)  # the CLI default, written out explicitly
VDIST_FAMILIES = ("linear", "power", "exp", "sin")
QUADRIC_CLASSES = (
    "Plane",
    "Cylinder",
    "RectangularHyperbolicParaboloid",
    "HyperbolicParaboloid",
    "EllipticParaboloid",
    "CircularParaboloid",
)


@dataclass(frozen=True)
class Job:
    name: str  # output base name, unique within one iteration
    command: str  # the isocmc subcommand
    check: str  # which oracle in oracles.CHECKS judges the outputs
    argv: tuple[str, ...]  # everything after the program name
    spec: dict = field(compare=False)  # what the oracle expects


def _num(v: float) -> str:
    return f"{v:.3f}"


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform draw rounded to three decimals, the precision argv carries."""
    return float(_num(rng.uniform(lo, hi)))


def _coef(rng: random.Random) -> complex:
    """Complex coefficient with modulus in [0.5, 1.5], three decimals each part."""
    mod = rng.uniform(0.5, 1.5)
    re, im = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
    scale = mod / max((re * re + im * im) ** 0.5, 1e-12)
    return complex(float(_num(re * scale)), float(_num(im * scale)))


def _complex_text(c: complex) -> str:
    return f"({_num(c.real)}{'+' if c.imag >= 0 else '-'}{_num(abs(c.imag))}*i)"


def poly_text(coeffs: list[complex]) -> str:
    """Generator text for sum(coeffs[k] * z^k) in the isocmc grammar."""
    terms = []
    for k, c in enumerate(coeffs):
        power = "" if k == 0 else ("*z" if k == 1 else f"*z^{k}")
        terms.append(_complex_text(c) + power)
    return " + ".join(reversed(terms))


def _poly(rng: random.Random, degree: int) -> list[complex]:
    return [_coef(rng) for _ in range(degree + 1)]


def _grid(n: int) -> str:
    return f"{n}x{n}"


def _lift(name, h2, pole, H, n, out_dir) -> Job:
    omega = "1" if pole is None else _pole_text(pole)
    argv = ("lift", "--h2", poly_text(h2), "--omega", omega, "--H", _num(H),
            "--grid", _grid(n), "--out-dir", out_dir, "-o", name)
    return Job(name, "lift", "lift", argv, {"h2": h2, "pole": pole, "H": H, "n": n})


def _closed_lift(name, rng, n, out_dir) -> Job:
    h2 = _poly(rng, rng.randint(1, 4))
    return _lift(name, h2, None, _draw(rng, -1.5, 1.5), n, out_dir)


def _grid_file_job(command, lift: Job, out_dir) -> Job:
    argv = (command, "--grid-file", f"{out_dir}/{lift.name}.grid",
            "--out-dir", out_dir, "-o", command)
    return Job(command, command, f"{command}_grid", argv, dict(lift.spec))


def _sweep(name, rng, h2, pole, n, out_dir) -> Job:
    h_list = sorted({_draw(rng, -1.5, 1.5) for _ in range(3)})
    while len(h_list) < 3:  # three distinct values, however unlikely a tie
        h_list = sorted(set(h_list) | {_draw(rng, -1.5, 1.5)})
    omega = "1" if pole is None else _pole_text(pole)
    argv = ("sweep", "--h2", poly_text(h2), "--omega", omega,
            # "=" keeps a leading minus from reading as an option
            "--H-list=" + ",".join(_num(h) for h in h_list),
            "--grid", _grid(n), "--out-dir", out_dir, "-o", name)
    spec = {"h2": h2, "pole": pole, "H_list": h_list, "n": n}
    return Job(name, "sweep", "sweep", argv, spec)


def _pole_text(a: float) -> str:
    """omega = 1/(z + a)."""
    return f"1/(z{'+' if a >= 0 else '-'}{_num(abs(a))})"


def _grid1001_io(rng, size, out_dir) -> list[Job]:
    lift = _closed_lift("lift", rng, size["big"], out_dir)
    return [lift] + [
        _grid_file_job(cmd, lift, out_dir) for cmd in ("analyze", "classify", "pde")
    ]


def _quadrature(rng, size, out_dir) -> list[Job]:
    a = _draw(rng, 3.0, 6.0) * rng.choice((-1.0, 1.0))
    h2 = _poly(rng, rng.randint(1, 2))
    lift = _lift("lift", h2, a, _draw(rng, -1.5, 1.5), size["default"], out_dir)
    return [lift, _sweep("sweep", rng, h2, a, size["sweep"], out_dir)]


def _vdist(name, rng, family, out_dir) -> Job:
    H = _draw(rng, 0.2, 1.5)
    spec = {"family": family, "H": H, "radii": list(VDIST_RADII)}
    if family == "linear":
        a = _coef(rng)
        h2, spec["a"] = _complex_text(a) + "*z", a
    elif family == "power":
        spec["n"] = rng.randint(2, 4)
        h2 = f"z^{spec['n']}"
    else:
        h2 = f"{family}(z)"
    argv = ("vdist", "--h2", h2, "--omega", "1", "--H", _num(H),
            "--radii", ",".join(f"{r:g}" for r in VDIST_RADII),
            "--out-dir", out_dir, "-o", name)
    return Job(name, "vdist", "vdist", argv, spec)


def _curvature_pair(rng, label) -> tuple[float, float]:
    """(H, K) on the given label's stratum, exactly representable in argv."""
    if label == "Plane":
        return 0.0, 0.0
    if label == "CircularParaboloid":
        h = rng.choice((-1, 1)) * rng.randint(1, 12) / 8.0  # H^2 exact in binary and decimal
        return h, h * h
    h = 0.0 if label == "RectangularHyperbolicParaboloid" else _draw(rng, 0.2, 1.5) * rng.choice((-1, 1))
    if label == "Cylinder":
        return h, 0.0
    if label == "EllipticParaboloid":
        return h, float(_num(h * h * rng.uniform(0.1, 0.9)))
    return h, -_draw(rng, 0.1, 2.0)


def _quadric(rng) -> dict:
    """Seeded quadric f = d x^2 + e xy + g y^2 + b x + c y + c0 on one stratum."""
    label = rng.choice(QUADRIC_CLASSES)
    d = e = g = 0.0
    if label == "Cylinder":
        d = _draw(rng, 0.2, 1.5) * rng.choice((-1, 1))
    elif label == "RectangularHyperbolicParaboloid":
        d, e = _draw(rng, -1.5, 1.5), _draw(rng, -1.5, 1.5)
        g = -d
    elif label == "HyperbolicParaboloid":
        d, g = _draw(rng, 0.2, 1.5), -_draw(rng, 0.2, 1.5)
        while d + g == 0.0:
            g = -_draw(rng, 0.2, 1.5)
        e = _draw(rng, -1.5, 1.5)
    elif label == "EllipticParaboloid":
        d, g = _draw(rng, 0.2, 1.5), _draw(rng, 0.2, 1.5)
        e = float(_num(rng.uniform(0.05, 0.95) * 2.0 * (d * g) ** 0.5))
    elif label == "CircularParaboloid":
        d = g = _draw(rng, 0.2, 1.5)
    if rng.random() < 0.5:
        d, e, g = -d, -e, -g
    lin = [_draw(rng, -1.0, 1.0) for _ in range(3)]
    return {"d": d, "e": e, "g": g, "b": lin[0], "c": lin[1], "c0": lin[2]}


def quadric_text(q: dict) -> str:
    terms = [("x^2", q["d"]), ("x*y", q["e"]), ("y^2", q["g"]), ("x", q["b"]), ("y", q["c"])]
    text = _num(q["c0"])
    for mono, c in terms:
        if c != 0.0:
            text += f" {'+' if c >= 0 else '-'} {_num(abs(c))}*{mono}"
    return text


def _short_jobs(rng, size, out_dir) -> list[Job]:
    families = list(VDIST_FAMILIES)
    rng.shuffle(families)
    jobs = [_vdist(f"vdist_{fam}", rng, fam, out_dir) for fam in families]
    H, K = _curvature_pair(rng, rng.choice(QUADRIC_CLASSES))
    jobs.append(Job("classify_hk", "classify", "classify_hk",
                    ("classify", "--H", repr(H), "--K", repr(K), "--out-dir", out_dir,
                     "-o", "classify_hk"),
                    {"H": H, "K": K}))
    q = _quadric(rng)
    n = size["default"]
    for cmd in ("classify", "pde"):
        jobs.append(Job(f"{cmd}_f", cmd, f"{cmd}_f",
                        (cmd, "--f", quadric_text(q), "--grid", _grid(n),
                         "--out-dir", out_dir, "-o", f"{cmd}_f"),
                        {"quadric": q, "n": n}))
    jobs.append(_closed_lift("lift", rng, n, out_dir))
    jobs.append(_sweep("sweep", rng, _poly(rng, rng.randint(1, 4)), None, n, out_dir))
    return jobs


_BUILDERS = {
    "grid1001-io": _grid1001_io,
    "quadrature": _quadrature,
    "short-jobs": _short_jobs,
}


def jobs(workload: str, seed: int, iteration: int, out_dir: str, scale: str = "full") -> list[Job]:
    """The job list of one pass over the workload, in the order it runs."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}:{iteration}")
    return _BUILDERS[workload](rng, SIZES[scale], out_dir)
