"""Variable-change chain from torsion to the semilinear equation's variables.

Forward chain: v = sqrt(tau); w(s) = integral of v from 0 (strictly
increasing, w(2*pi) = M); hodograph inversion eta = w^{-1} on [0, M];
z = eta_xi = 1/v(eta); u = log z; q = sinh(z/2). All reported grids carry
their right endpoint so the periodicity identities (u(0) = u(M)) can be
read off directly. The inverse chain reconstructs tau from z and the
round-trip sup error is the fidelity measure of the whole construction.

Each leg of the chain is one ``numerics.periodic.PeriodicPrimitive``: w of v,
then the primitive of z on [0, M]. Its ``inverse`` seeds each point by linear
interpolation of the primitive's nodes and polishes it with Newton steps on
the trigonometric representation (exact for band-limited data), which is
what pushes the round trip to 1e-10 territory instead of the seed's own h^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PositivityError
from ..numerics.periodic import PeriodicPrimitive
from .core import TWO_PI, TorsionField


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


def cdf_transform_roundtrip(tau0: TorsionField) -> tuple[TransformRecord, float]:
    """Build the full forward chain and measure the reconstruction sup error."""
    n = tau0.n
    v_per = np.sqrt(tau0.samples)
    w_of = PeriodicPrimitive(v_per)
    M = w_of.total
    xi = np.linspace(0.0, M, n + 1)
    eta = w_of.inverse(xi)
    eta[0], eta[-1] = 0.0, TWO_PI
    z = 1.0 / w_of(eta)[1]
    record = TransformRecord(v=np.append(v_per, v_per[0]), w=np.append(w_of.nodes, M), M=M,
                             xi=xi, eta=eta, z=z, u=np.log(z), q=np.sinh(0.5 * z))

    # Inverse chain: eta_hat = primitive of z on [0, M], then s -> xi -> tau.
    eta_of = PeriodicPrimitive(z[:-1], period=M)
    v_back = 1.0 / eta_of(eta_of.inverse(w_of.grid))[1]
    err = float(np.max(np.abs(v_back * v_back - tau0.samples)))
    return record, err
