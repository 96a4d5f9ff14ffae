"""Variable-change chain from torsion to the semilinear equation's variables.

Forward chain: v = sqrt(tau); w(s) = integral of v from 0 (strictly
increasing, w(2*pi) = M); hodograph inversion eta = w^{-1} on [0, M];
z = eta_xi = 1/v(eta); u = log z; q = sinh(z/2). All reported grids carry
their right endpoint so the periodicity identities (u(0) = u(M)) can be
read off directly. The inverse chain reconstructs tau from z and the
round-trip sup error is the fidelity measure of the whole construction.

Inversions seed each point by linear interpolation of the sampled monotone
map and polish it with ``NEWTON_ITERS`` Newton steps on the trigonometric
representation (exact for band-limited data), which is what pushes the round
trip to 1e-10 territory instead of the seed's own h^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PositivityError
from ..numerics.periodic import periodic_grid, periodic_primitive, trig_interpolant
from .core import TWO_PI, TorsionField

NEWTON_ITERS = 4  # Newton steps that polish each seeded inversion


@dataclass
class TransformRecord:
    """Grids of the transformation chain; all include the right endpoint."""

    v: np.ndarray        # sqrt(tau) on the s grid
    w: np.ndarray        # primitive of v, w[0] = 0, w[-1] = M
    M: float             # domain endpoint of the hodograph image
    xi: np.ndarray       # uniform grid on [0, M]
    eta: np.ndarray      # inverse of w on the xi grid
    z: np.ndarray        # eta_xi = 1/v(eta)
    u: np.ndarray        # log z
    q: np.ndarray        # sinh(z/2)

    def __post_init__(self):
        if np.min(self.v) <= 0.0:
            raise PositivityError("v must be positive")
        if np.any(np.diff(self.w) <= 0.0):
            raise ValueError("w must be strictly increasing")
        if np.min(self.z) <= 0.0:
            raise PositivityError("z must be positive")
        if abs(self.w[-1] - self.M) > 1e-10 * max(1.0, self.M):
            raise ValueError("w(2*pi) must equal M")

    @property
    def u_periodicity_defect(self) -> float:
        return float(abs(self.u[0] - self.u[-1]))


def _invert_monotone(sample_x: np.ndarray, sample_y: np.ndarray, targets: np.ndarray,
                     fwd, fwd_deriv) -> np.ndarray:
    """Solve fwd(y) = x for each target x.

    ``sample_x``/``sample_y`` are strictly increasing samples of the map,
    interpolated linearly for the seed; ``fwd``/``fwd_deriv`` evaluate the
    map and its derivative anywhere (spectral representation).
    """
    y = np.interp(targets, sample_x, sample_y)
    lo, hi = sample_y[0], sample_y[-1]
    for _ in range(NEWTON_ITERS):
        y = y - (fwd(y) - targets) / fwd_deriv(y)
        y = np.clip(y, lo, hi)
    return y


def cdf_transform_roundtrip(tau0: TorsionField) -> tuple[TransformRecord, float]:
    """Build the full forward chain and measure the reconstruction sup error."""
    n = tau0.n
    s = np.concatenate([periodic_grid(n), [TWO_PI]])
    v_per = np.sqrt(tau0.samples)
    v = np.concatenate([v_per, [v_per[0]]])

    mean_v, osc_v = periodic_primitive(v_per)
    osc_full = np.concatenate([osc_v, [osc_v[0]]])
    w = mean_v * s + osc_full
    M = mean_v * TWO_PI

    osc_v_of = trig_interpolant(osc_v)
    v_of = trig_interpolant(v_per)

    def w_of(sv):
        return mean_v * sv + osc_v_of(sv)

    xi = np.linspace(0.0, M, n + 1)
    eta = _invert_monotone(w, s, xi, w_of, v_of)
    eta[0], eta[-1] = 0.0, TWO_PI
    z = 1.0 / v_of(eta)
    u = np.log(z)
    q = np.sinh(0.5 * z)

    record = TransformRecord(v=v, w=w, M=M, xi=xi, eta=eta, z=z, u=u, q=q)

    # Inverse chain: eta_hat = primitive of z on [0, M], then s -> w -> tau.
    z_per = z[:-1]
    mean_z, osc_z = periodic_primitive(z_per, period=M)

    osc_z_of = trig_interpolant(osc_z, period=M)
    z_of = trig_interpolant(z_per, period=M)

    def eta_of(xiv):
        return mean_z * xiv + osc_z_of(xiv)

    eta_hat = eta_of(xi)
    s_per = s[:-1]
    w_back = _invert_monotone(eta_hat, xi, s_per, eta_of, z_of)
    v_back = 1.0 / z_of(w_back)
    tau_back = v_back * v_back
    err = float(np.max(np.abs(tau_back - tau0.samples)))
    return record, err
