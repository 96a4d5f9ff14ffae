"""Symmetric flowlines, their endpoint curves, and the derivative scans.

The canonical parametrization starts at the flat point p0 = (x0, sqrt(1-x0^2), 0)
of a loop level set, with x0 in the open interval (sqrt(a/(1+a)), 1), and flows
*backwards* along the structure field:

    (x', y', z') = (-xz, +a yz, x^2 - a y^2),

carrying along the endpoint coordinates of the associated symmetric geodesic,

    a' = 2x + az,    b' = 2y - a b z.

The first return of z to zero happens at the half period rho = P/2; the point
(a(rho), b(rho), 0) traces the boundary curve of perfect symmetric endpoints
as x0 varies. The endpoint equations are linear, with integrating factors x
and y, so ``boundary_curve`` takes a(rho) and b(rho) by quadrature over the
half orbit instead of integrating the system. The variational system
appends the derivatives of all five quantities with respect to x0
("barred" variables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DetectionError, SetupError
from ..numerics.ode import SolverStats, Trajectory, integrate_ode
from ..numerics.quadrature import integrate_singular
from .group import check_alpha
from .periods import orbit_terms, orbit_times, period
from .structure import (TIGHT, VARIATIONAL_CONTROL, _sigma, admissible_x0_interval,
                        beta_from_x0)

PASS_FLOOR = -1e-10  # a bounding-box scan passes when min a' and min b' exceed this
FD_STEP = 1e-5       # first step of the Richardson difference of the period in x0
SLOPE_TOL = 1e-9     # largest rise of b between grid points that still counts as nonincreasing
RHO_TOL = 1e-4       # largest relative gap between the detected and predicted half period
BOX_SAMPLES = 2000   # samples over [0, rho] of each bounding-box run


def _sym_rhs(alpha: float, with_quadrature: bool = False):
    """Right-hand side of the 5-system (6 with the y^2 quadrature) on one
    state or on a batch of rows."""
    def rhs(t, u):
        x, y, z, a, b = u.T[:5]
        sx, sy, sz = _sigma(x, y, z, alpha)
        out = [-sx, -sy, -sz, 2.0 * x + a * z, 2.0 * y - alpha * b * z]
        if with_quadrature:
            out.append(y * y)
        return np.array(out).T
    return rhs


def _var_rhs(alpha: float):
    """Right-hand side of the 10-system with x0-derivatives, on one state or
    on a batch of rows."""
    def rhs(t, u):
        x, y, z, a, b, xb, yb, zb, ab, bb = u.T
        sx, sy, sz = _sigma(x, y, z, alpha)
        return np.array([
            -sx, -sy, -sz,
            2.0 * x + a * z,
            2.0 * y - alpha * b * z,
            -x * zb - z * xb,
            alpha * (y * zb + z * yb),
            2.0 * x * xb - 2.0 * alpha * y * yb,
            2.0 * xb + a * zb + z * ab,
            2.0 * yb - alpha * (b * zb + z * bb),
        ]).T
    return rhs


@dataclass
class SymmetricRun:
    """Solution of a (possibly augmented) symmetric flowline system on [0, rho].

    Runs integrated in one batch share their step sequence, so a run's
    trajectory may extend past its own rho up to the batch's latest return.
    """

    alpha: float
    x0: float
    beta: float
    rho: float
    predicted_rho: float
    trajectory: Trajectory

    def sample(self, t):
        return self.trajectory.sample(t)

    @property
    def end_state(self) -> np.ndarray:
        return self.trajectory.event_state


def _predicted_half_period(x0: float, alpha: float) -> tuple[float, float]:
    beta = beta_from_x0(x0, alpha)
    return beta, 0.5 * period(alpha, beta).period


def _integrate_to_return(rhs, y0s, alpha, x0s, ctrl) -> list[SymmetricRun]:
    """Integrate the rows ``y0s`` (one per x0 in ``x0s``) as one batch to
    their first z-returns, each row checked against its own P(beta)/2; every
    run's ``trajectory.stats`` is the batch's.

    A lone row is integrated as a plain (d,) state: the same bits as its
    one-row batch, at less than half the cost per step (scalar arithmetic
    in the right-hand side instead of length-1 arrays).
    """
    betas, predicted = zip(*(_predicted_half_period(x0, alpha) for x0 in x0s))
    predicted = np.array(predicted)
    lone = len(x0s) == 1
    traj = integrate_ode(rhs, y0s[0] if lone else y0s, (0.0, 10.0 * predicted.max()), ctrl,
                         event=lambda t, u: u[..., 2], event_min_time=0.05 * predicted)
    rows = [traj] if lone else [traj.row(r) for r in range(len(x0s))]
    runs = []
    for x0, beta, pred, row in zip(x0s, betas, predicted, rows):
        rho = row.event_time
        if rho is None or rho > 10.0 * pred:
            raise DetectionError(f"no z-return within 10x the predicted half period "
                                 f"(x0={x0}, alpha={alpha})")
        if abs(rho - pred) > RHO_TOL * max(1.0, pred):
            raise DetectionError(
                f"detected half period {rho} disagrees with P(beta)/2 = {pred} (x0={x0})")
        runs.append(SymmetricRun(alpha=alpha, x0=float(x0), beta=beta, rho=rho,
                                 predicted_rho=float(pred), trajectory=row))
    return runs


def _check_x0(x0s, alpha: float) -> np.ndarray:
    check_alpha(alpha, 0.0, 1.0, open_lo=True)
    lo, hi = admissible_x0_interval(alpha)
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    for x0 in x0s:
        if not lo < x0 < hi:
            raise SetupError(f"x0={x0} outside the admissible interval ({lo:.6f}, {hi})")
    return x0s


def _symmetric_runs(x0s, alpha: float, with_quadrature: bool = False) -> list[SymmetricRun]:
    """The 5-system (6 with ``with_quadrature``) from (x0, sqrt(1-x0^2), 0, 0, 0)
    for every x0 of ``x0s``, integrated as one batch at ``TIGHT`` by
    ``_integrate_to_return``."""
    x0s = _check_x0(x0s, alpha)
    y0s = np.zeros((x0s.size, 6 if with_quadrature else 5))
    y0s[:, 0] = x0s
    y0s[:, 1] = np.sqrt(1.0 - x0s * x0s)
    return _integrate_to_return(_sym_rhs(alpha, with_quadrature), y0s, alpha, x0s, TIGHT)


def symmetric_system(x0: float, alpha: float) -> SymmetricRun:
    """Integrate the 5-system from (x0, sqrt(1-x0^2), 0, 0, 0) to the z-return,
    at ``TIGHT``."""
    return _symmetric_runs([x0], alpha)[0]


def variational_system(x0: float, alpha: float) -> SymmetricRun:
    """The 10-system with x0-derivatives, at ``VARIATIONAL_CONTROL``; bars
    start at d/dx0 of the initial point."""
    (x0,) = _check_x0(x0, alpha)
    y0 = np.array([[
        x0, math.sqrt(1.0 - x0 * x0), 0.0, 0.0, 0.0,
        1.0, -x0 / math.sqrt(1.0 - x0 * x0), 0.0, 0.0, 0.0,
    ]])
    return _integrate_to_return(_var_rhs(alpha), y0, alpha, [x0], VARIATIONAL_CONTROL)[0]


def variational_residuals(run: SymmetricRun) -> dict:
    """Max residuals of the three algebraic identities along a variational
    run, over 1200 samples of [0, rho]."""
    ts = np.linspace(0.0, run.rho, 1200)
    u = run.sample(ts)
    x, y, z, a, b = (u[:, i] for i in range(5))
    xb, yb, zb, ab, bb = (u[:, i] for i in range(5, 10))
    return {
        "sphere_orthogonality": float(np.max(np.abs(x * xb + y * yb + z * zb))),
        "endpoint_identity": float(np.max(np.abs(a * x - run.alpha * b * y - 2.0 * z))),
        "bar_orthogonality": float(np.max(np.abs(x * ab + y * bb))),
    }


@dataclass
class BoxScanRecord:
    alpha: float
    x0: float
    admissible: bool
    rho: float = math.nan
    min_a_prime: float = math.nan
    min_b_prime: float = math.nan
    b_integral_residual: float = math.nan
    passed: bool | None = None


def bounding_box_scan(alpha: float, x0_grid) -> tuple[list[BoxScanRecord], SolverStats]:
    """Check min a' and min b' at the ``BOX_SAMPLES - 1`` points of
    linspace(0, rho, BOX_SAMPLES) after 0 for each admissible x0, all of them
    integrated as one batch; returns the records and the batch's solver
    statistics (empty when no row is admissible).

    Grid points at or below the equilibrium abscissa sqrt(a/(1+a)) are
    reported as inadmissible and skipped rather than failing the scan: the
    canonical parametrization only covers the open interval above it.
    """
    check_alpha(alpha, 0.0, 1.0, open_lo=True)
    lo, _ = admissible_x0_interval(alpha)
    grid = np.atleast_1d(np.asarray(x0_grid, dtype=float))
    admissible = (grid > lo + 1e-9) & (grid < 1.0)
    runs = (_symmetric_runs(grid[admissible], alpha, with_quadrature=True)
            if admissible.any() else [])
    stats = runs[0].trajectory.stats if runs else SolverStats()
    pending = iter(runs)
    records = []
    for x0, ok in zip(grid, admissible):
        if not ok:
            records.append(BoxScanRecord(alpha=alpha, x0=float(x0), admissible=False))
            continue
        run = next(pending)
        ts = np.linspace(0.0, run.rho, BOX_SAMPLES)[1:]
        u = run.sample(ts)
        x, y, z, a, b, q = u.T
        a_prime = 2.0 * x + a * z
        b_prime = 2.0 * y - alpha * b * z
        residual = float(np.max(np.abs(b - 2.0 * q / y)))
        rec = BoxScanRecord(
            alpha=alpha, x0=float(x0), admissible=True, rho=run.rho,
            min_a_prime=float(np.min(a_prime)), min_b_prime=float(np.min(b_prime)),
            b_integral_residual=residual,
        )
        rec.passed = rec.min_a_prime > PASS_FLOOR and rec.min_b_prime > PASS_FLOOR
        records.append(rec)
    return records, stats


@dataclass
class BoundaryPoint:
    x0: float
    a_end: float
    b_end: float
    da_dx0: float
    db_dx0: float


@dataclass
class BoundaryCurve:
    alpha: float
    points: list
    a_increasing: bool
    b_nonincreasing: bool
    nodes: int  # quadrature nodes at which the two integrands were evaluated


def boundary_curve(alpha: float, x0_grid) -> BoundaryCurve:
    """Endpoints (a(rho), b(rho)) over the grid, plus monotonicity verdicts
    and the quadrature's node count; b may rise by up to ``SLOPE_TOL``
    between grid points and still count as nonincreasing.

    Along the symmetric system x' = -xz and y' = a yz, so (a x)' = 2 x^2 and
    (b y)' = 2 y^2, and the endpoints are a(rho) = (2/x(rho)) int x^2 dtau
    and b(rho) = (2/y(rho)) int y^2 dtau over the half orbit. In the
    period's time t, where dtau = dt/sqrt(R), the integrals run from -t1 to
    t0 over a c e^{2t}/sqrt(R) and c e^{-2at}/sqrt(R), c = beta^2/(a+1), and
    the orbit ends at x(rho) = sqrt(a c) e^{-t1}, y(rho) = sqrt(c) e^{a t1}.
    Every row's two integrals are taken in one ``integrate_singular`` pass,
    to ``QUAD_TOL``. A grid of fewer than two points raises ``SetupError``.
    """
    xs = _check_x0(x0_grid, alpha)
    if xs.size < 2:
        raise SetupError("the boundary curve needs at least two x0 points for its slopes")
    betas = np.array([beta_from_x0(x0, alpha) for x0 in xs])
    t0, t1 = np.array([orbit_times(alpha, beta) for beta in betas]).T
    c = betas * betas / (alpha + 1.0)
    nodes = 0

    def integrand(t, c, t0, t1):
        nonlocal nodes
        nodes += t.size
        ex, ey, r = orbit_terms(alpha, c, t0, t1, t)
        w = c / np.sqrt(r)
        return np.array([alpha * ex * w, ey * w])

    int_x, int_y = integrate_singular(integrand, -t1, t0, c, t0, t1)
    a_vals = 2.0 * int_x / (np.sqrt(alpha * c) * np.exp(-t1))
    b_vals = 2.0 * int_y / (np.sqrt(c) * np.exp(alpha * t1))
    return BoundaryCurve(
        alpha=alpha,
        points=[BoundaryPoint(*map(float, row)) for row in
                zip(xs, a_vals, b_vals, np.gradient(a_vals, xs), np.gradient(b_vals, xs))],
        a_increasing=bool(np.all(np.diff(a_vals) > 0.0)),
        b_nonincreasing=bool(np.all(np.diff(b_vals) <= SLOPE_TOL)),
        nodes=nodes,
    )


@dataclass
class GCheckPoint:
    x0: float
    dP_dx0: float
    envelope: float
    g_value: float
    fd_error_estimate: float
    conclusive: bool


def _period_of_x0(x0: float, alpha: float) -> float:
    return period(alpha, beta_from_x0(x0, alpha)).period


def dP_dx0(x0: float) -> tuple[float, float]:
    """Richardson-extrapolated central difference of P(x0) at alpha = 1/2 with
    steps ``FD_STEP`` and ``FD_STEP / 2``; returns (value, error est)."""
    def central(h):
        return (_period_of_x0(x0 + h, 0.5) - _period_of_x0(x0 - h, 0.5)) / (2.0 * h)

    d1 = central(FD_STEP)
    d2 = central(FD_STEP / 2.0)
    richardson = (4.0 * d2 - d1) / 3.0
    return richardson, abs(richardson - d2)


def g_function_check(x0_grid=None) -> list[GCheckPoint]:
    """Evaluate G(x0) = dP/dx0 - pi (1/(2 sqrt(x0)) + 2 x0 sqrt(x0)/(1-x0^2)).

    Only defined for alpha = 1/2, where the closed-form period makes the
    envelope bound meaningful. A point is flagged inconclusive (never a
    silent pass) when the finite-difference noise is within a decade of |G|.
    An empty grid, or one with a point outside (lo + ``FD_STEP``,
    1 - ``FD_STEP``), where the differences would leave the admissible
    interval (lo, 1), raises ``SetupError``.
    """
    grid = np.atleast_1d(np.asarray(
        np.linspace(0.59, 0.995, 28) if x0_grid is None else x0_grid, dtype=float))
    lo, hi = admissible_x0_interval(0.5)
    if grid.size == 0 or not np.all((grid > lo + FD_STEP) & (grid < hi - FD_STEP)):
        raise SetupError(f"the x0 grid must be non-empty and inside ({lo + FD_STEP:.6g}, "
                         f"{hi - FD_STEP:.6g}), where the differences of step {FD_STEP:g} "
                         f"stay admissible")
    out = []
    for x0 in grid:
        d, err = dP_dx0(float(x0))
        envelope = math.pi * (0.5 / math.sqrt(x0) + 2.0 * x0 * math.sqrt(x0) / (1.0 - x0 * x0))
        g = d - envelope
        out.append(GCheckPoint(
            x0=float(x0), dP_dx0=d, envelope=envelope, g_value=g,
            fd_error_estimate=err,
            conclusive=bool(abs(g) > 10.0 * max(err, 1e-12)),
        ))
    return out
