"""geomflow: a desk-scale numerical laboratory for three geometric flows.

Subpackages:

- ``numerics``: shared kernels (adaptive DOP853 with dense output, elliptic K, bracketed root
  finding, de-singularized quadrature, spectral periodic primitive and
  interpolation).
- ``csf``: curve-shortening flow on immersed plane curves, with the
  figure-eight diagnostics and the affine bow-tie rescaling.
- ``torsionflow``: the curvature-preserving flow on space curves — ETDRK4
  torsion evolution, stationary profiles, linearized solver, variable-change round
  trip, and Frenet-Serret curve reconstruction.
- ``geoflow``: the one-parameter solvable-group family — curvature data,
  structure field, geodesics, period functions, symmetric/variational flowline systems,
  and the boundary-curve scans.
- ``cli``: batch experiment runner with machine-readable CSV/JSON output.
"""

__version__ = "0.1.0"
