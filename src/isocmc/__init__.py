"""Constant mean curvature surfaces in the isotropic 3-space.

Builds spacelike graphs ell = f(x, y) from holomorphic generator pairs
(h2, omega), verifies their curvatures by independent finite differences,
classifies the quadric members of the family, and probes the value
distribution of the Gauss curvature on growing disks.

`import isocmc` loads none of the modules named in `__all__`; import the one
you use, as in `from isocmc import holo`.
"""

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "classify",
    "graphgeo",
    "holo",
    "io_mesh",
    "vdist",
    "weierstrass",
]
