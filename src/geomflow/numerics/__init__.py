"""Shared numerical kernels: ODE integration (``numerics.ode``), the ETDRK4
stepper of the spectral flows (``numerics.etd``), the elliptic integral K
(``numerics.special``), root finding (``numerics.roots``), quadrature with
endpoint singularities (``numerics.quadrature``) and periodic (spectral)
calculus, interpolation and monotone inversion (``numerics.periodic``).

The package re-exports nothing: each caller imports the module it uses, so
a command loads only the kernels it runs.
"""
