"""Method-of-lines evolution of the torsion field, and the derived experiments:
helix perturbation stability and quasi-period detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DetectionError, IntegrationError, PositivityError
from ..numerics import StepControl, integrate_ode, periodic_grid
from .core import (TWO_PI, CurvatureProfile, TorsionField, UNIT_CURVATURE,
                   l2_norm, make_torsion_rhs)

POSITIVITY_FLOOR = 0.1  # initial data this close to zero is numerically fragile


def _stability_step(tau0: np.ndarray, kappa: float, n: int) -> float:
    """Step cap from the linearized dispersion at the largest mesh wavenumber.

    The third-derivative term of the right-hand side carries the coefficient
    tau^{-3/2} / (2 kappa); explicit RK4(5) is stable for imaginary
    eigenvalues up to about 2.8 in magnitude. The floor factor 0.7 leaves
    headroom for the torsion dipping below its initial minimum.
    """
    kmax = n // 2
    c3 = float(np.max((0.7 * np.minimum(tau0, 4.0 * np.mean(tau0))) ** -1.5) / (2.0 * kappa))
    c1 = float(np.max(0.5 * tau0 ** -1.5 + 1.5 * np.sqrt(tau0)))
    lam = kmax ** 3 * c3 + kmax * c1
    return 2.8 / lam


def default_control(tau0: TorsionField,
                    kappa: CurvatureProfile = UNIT_CURVATURE) -> StepControl:
    """The step control ``torsion_evolve`` uses when it is given none: steps
    capped at the explicit stability limit of ``tau0``'s mesh."""
    n = tau0.n
    cap = _stability_step(tau0.samples, kappa.constant, n)
    return StepControl(initial_step=cap, abs_tol=1e-10, rel_tol=1e-9,
                       max_steps=50_000_000, max_step=cap)


def torsion_evolve(tau0: TorsionField, kappa: CurvatureProfile = UNIT_CURVATURE,
                   T: float = 1.0, output_times=None,
                   ctrl: StepControl | None = None,
                   min_initial: float = POSITIVITY_FLOOR) -> list[TorsionField]:
    """Evolve the torsion field to time T, sampling at ``output_times``.

    Positivity is monitored at every right-hand-side evaluation (nonpositive
    trial states force step rejection); a genuine loss of positivity aborts
    with the failure time. Initial data below ``min_initial`` is refused up
    front (pass a smaller floor explicitly to experiment anyway). Without
    ``ctrl`` the step control is ``default_control(tau0, kappa)``.
    """
    if float(np.min(tau0.samples)) < min_initial:
        raise PositivityError(
            f"initial torsion minimum {np.min(tau0.samples):.3g} is below the "
            f"safety floor {min_initial}")
    rhs = make_torsion_rhs(kappa, tau0.n)
    if output_times is None:
        output_times = [T]
    output_times = np.asarray(output_times, dtype=float)
    if ctrl is None:
        ctrl = default_control(tau0, kappa)
    try:
        traj = integrate_ode(rhs, tau0.samples, (0.0, T), ctrl,
                             output_times=output_times)
    except IntegrationError as exc:
        raise PositivityError(f"torsion evolution failed ({exc}); the usual cause "
                              "is torsion approaching zero") from exc
    fields = []
    for row in traj.states:
        if np.min(row) <= 0.0:
            raise PositivityError("torsion positivity lost in an output frame")
        fields.append(TorsionField(row.copy()))
    return fields


@dataclass
class StabilitySeries:
    """Deviation-from-helix norm S(t) = ||tau(., t) - 1||_2 over an interval."""

    amplitude: float
    times: np.ndarray
    values: np.ndarray

    @property
    def initial(self) -> float:
        return float(self.values[0])

    @property
    def peak(self) -> float:
        return float(np.max(self.values))


def helix_stability(amplitude: float = 0.01, T: float = 50.0, n: int = 32,
                    n_frames: int = 1001, ctrl: StepControl | None = None) -> StabilitySeries:
    """Evolve tau0 = 1 + amplitude*sin(s) at unit curvature and record S(t).

    The default mesh of 32 points fully resolves a single-mode perturbation
    of this size: nonlinearity feeds harmonic k at roughly amplitude^k, which
    is below double precision by k = 9.
    """
    s = periodic_grid(n)
    tau0 = TorsionField(1.0 + amplitude * np.sin(s))
    times = np.linspace(0.0, T, n_frames)
    fields = torsion_evolve(tau0, UNIT_CURVATURE, T, output_times=times[1:], ctrl=ctrl)
    values = [l2_norm(tau0.samples - 1.0)]
    values.extend(l2_norm(f.samples - 1.0) for f in fields)
    return StabilitySeries(amplitude=amplitude, times=times, values=np.array(values))


@dataclass
class QuasiPeriodResult:
    t_star: float
    stationary: bool
    times: np.ndarray
    distances: np.ndarray


def quasi_period(times, fields: list[TorsionField], window_start: float = 0.5) -> QuasiPeriodResult:
    """First near-recurrence time of the evolved torsion.

    t* minimizes ||tau(., t) - tau(., 0)||_2 over sampled times beyond
    ``window_start``, refined by a parabola through the discrete minimum. A
    run whose distance series never leaves the noise floor is reported as
    stationary with t* at the window start.
    """
    times = np.asarray(times, dtype=float)
    if len(fields) != times.size or times.size < 5:
        raise ValueError("need matching times/fields with at least 5 frames")
    base = fields[0].samples
    dists = np.array([l2_norm(f.samples - base) for f in fields])

    osc = l2_norm(base - float(np.mean(base)))
    noise = max(1e-3 * osc, 1e-8 * l2_norm(base))
    if float(np.max(dists)) < noise:
        return QuasiPeriodResult(t_star=float(window_start), stationary=True,
                                 times=times, distances=dists)

    mask = times >= window_start
    if not np.any(mask):
        raise DetectionError("no frames beyond the search window start")
    idx_window = np.nonzero(mask)[0]
    i = idx_window[int(np.argmin(dists[idx_window]))]
    if i == 0 or i == times.size - 1 or i == idx_window[0]:
        raise DetectionError("distance minimum sits at the window edge; "
                             "extend the run or the frame range")
    # parabolic refinement through the three points around the discrete minimum
    t0, t1, t2 = times[i - 1:i + 2]
    d0, d1, d2 = dists[i - 1:i + 2]
    denom = (d0 - 2.0 * d1 + d2)
    if denom <= 0.0:
        t_star = float(times[i])
    else:
        t_star = float(t1 + 0.5 * (t1 - t0) * (d0 - d2) / denom)
    return QuasiPeriodResult(t_star=t_star, stationary=False, times=times, distances=dists)
