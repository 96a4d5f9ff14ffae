"""Evolution of the torsion field, and the derived experiments: helix
perturbation stability and quasi-period detection.

``torsion_evolve`` steps the flow with the ETDRK4 stepper of
``numerics.etd``. In Fourier space the flow is v_t = A u^ + B p^ with
u = tau^{-1/2}, p = tau^{3/2} and the multipliers (A, B) of
``flux_multipliers``. About the mean tau_bar it splits into the diagonal
dispersion

    L = -tau_bar^{-3/2} / 2 * A + (3/2) sqrt(tau_bar) * B
      = -ik (kappa tau_bar^{-3/2} / 2 + (3/2) sqrt(tau_bar) / kappa
             - k^2 tau_bar^{-3/2} / (2 kappa)),

zero at k = 0 and at the Nyquist mode, which ETDRK4 integrates exactly, and
the remainder N(v) = A u^ + B p^ - L v, which limits its step. L is
imaginary, so the contour means of its coefficients run over the full
circle. The mode k = 0 has L = 0 and N = 0, so the mean of tau is conserved
to roundoff and a constant tau is a fixed point.

From the time t of the last accepted step, the next step goes to the
furthest output time within the step bound; when even the next output lies
farther, its interval is split into the fewest equal steps the bound allows.
The outputs strictly inside a step are single ETDRK4 steps from that step's
start state and its remainder, taken as one stacked pass with a row per
output (``Etdrk4.coefficient_stack``), and each row is checked positive at
its own time. Rejections, the budget projection and the step-doubling checks
act on the steps alone. The bound is the smaller of two:

- stability: h <= ``ETD_SAFETY`` / rho(tau), where the remainder about the
  mean has rate at most

      rho(tau) = k_max^3 max|c3(tau) - c3(tau_bar)| + k_max max|c1(tau) - c1(tau_bar)|,

  with c3 = tau^{-3/2} / (2 kappa), c1 = kappa tau^{-3/2} / 2 + (3/2) sqrt(tau) / kappa
  and k_max = N / 2, taken from the current tau at each plan: before a step
  to an output or an interval of equal steps, and after each check;
- accuracy: the stepper's step-doubling check (``numerics.etd``), whose
  difference of the two results estimates the local error of one step h to
  within 1/16 and must stay below ``ABS_TOL + REL_TOL |tau|``; it sets the
  accuracy bound (a failed check is redone with the smaller step). A check
  on a step under a fifth of the bound, cut short to land on an output,
  cannot confirm the bound, which a check raises at most fivefold
  (``MAX_GROWTH``): the bound is kept, and the next step is checked.

The accuracy check also catches the slow growth ETDRK4 shows on dispersive
problems: on the imaginary axis its amplification factor exceeds 1 by about
0.02 (h mu)^5 for a remainder rate mu of the same sign as L, which took
2 + sin(s)/2 at N = 128 nonpositive at t = 1.62 under the stability bound
alone. A run projected above ``STEP_BUDGET`` steps fails before it takes them.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import BudgetError, DetectionError, PositivityError, SetupError
from ..numerics.etd import CHECK_STEPS, MAX_GROWTH, Etdrk4
from ..numerics.periodic import irfft, periodic_grid, rfft
from .core import (CurvatureProfile, TorsionField, UNIT_CURVATURE, flux_multipliers, l2_norm,
                   spectral_flux)

POSITIVITY_FLOOR = 0.1  # initial data this close to zero is numerically fragile
# C in the stability bound C / rho: twice it loses positivity on 2 + sin(s)/2
# at N = 128 within 1,000 steps.
ETD_SAFETY = 2.0
# Local error target of one step: at these values the default `torsion
# evolve` run (N = 128, T = 5) ends 1.2e-8 from DOP853 at tolerance 1e-13.
REL_TOL = 1e-9
ABS_TOL = 1e-10
# Most steps one evolution may take: about three minutes at N = 256 on a
# 2-vCPU host.
STEP_BUDGET = 1_000_000
# Earliest time ``quasi_period`` searches for a recurrence: the start of the
# run, where the distance to tau(., 0) is also small, lies before it.
RECURRENCE_WINDOW_START = 0.5


def remainder_rate(tau: np.ndarray, kappa: float, tau_bar: float) -> float:
    """rho(tau): the bound on the remainder about the mean ``tau_bar``
    (module docstring)."""
    kmax = tau.size // 2

    def c3(x):
        return x ** -1.5 / (2.0 * kappa)

    def c1(x):
        return 0.5 * kappa * x ** -1.5 + 1.5 * np.sqrt(x) / kappa

    return float(kmax ** 3 * np.max(np.abs(c3(tau) - c3(tau_bar)))
                 + kmax * np.max(np.abs(c1(tau) - c1(tau_bar))))


def _output_times(T: float, output_times) -> np.ndarray:
    times = np.asarray([T] if output_times is None else output_times, dtype=float)
    if not (math.isfinite(T) and T > 0.0):
        raise SetupError(f"evolution time must be finite and positive, got {T}")
    if times.size == 0 or not (0.0 <= times[0] and np.all(np.diff(times) >= 0.0)
                               and times[-1] <= T):
        raise SetupError("output times must be sorted and lie in [0, T]")
    return times


def _positive(tau: np.ndarray, t) -> np.ndarray:
    """``tau``, one field or a stack of them, checked positive; ``t`` is its
    time, or the times of the stacked fields as an array of one per row."""
    if not tau.min() > 0.0:  # also catches NaN
        low = tau.min(axis=-1).ravel()
        row = int(np.argmin(low > 0.0))  # the first row that failed
        t = np.ravel(t)[row] if np.ndim(t) else t
        raise PositivityError(f"torsion positivity lost at t={t:.6g} (minimum {low[row]:.3g})")
    return tau


def torsion_stepper(kappa: CurvatureProfile, n: int, tau_bar: float):
    """The ETDRK4 stepper about the mean ``tau_bar`` on an ``n``-point mesh,
    whose states are the rfft of the samples, and the flux A u^ + B p^ of
    samples. A stage that goes nonpositive or non-finite raises
    ``PositivityError`` with its time (a stacked stage, that of the first
    row that failed)."""
    mult_u, mult_p = flux_multipliers(kappa, n)
    L = (-0.5 * tau_bar ** -1.5) * mult_u + (1.5 * math.sqrt(tau_bar)) * mult_p
    flux = spectral_flux(mult_u, mult_p)

    def remainder(t: float, v: np.ndarray) -> np.ndarray:
        return flux(_positive(irfft(v, n), t)) - L * v

    return Etdrk4(L, remainder), flux


def _etdrk4_run(samples: np.ndarray, kappa: CurvatureProfile,
                times: np.ndarray) -> tuple[np.ndarray, dict]:
    """Samples at each output time stacked as rows (F, n), and the record of
    the steps taken."""
    n = samples.size
    tau_bar = float(np.mean(samples))
    stepper, flux = torsion_stepper(kappa, n, tau_bar)
    tau = np.array(samples, dtype=float)
    v = rfft(tau)
    Nv = None  # the remainder at v, from the samples of v once a step needs it
    rho0 = remainder_rate(tau, kappa.constant, tau_bar)
    rec = {"scheme": "etdrk4", "safety": ETD_SAFETY, "rel_tol": REL_TOL,
           "abs_tol": ABS_TOL, "rho0": rho0, "rho_max": rho0, "steps": 0,
           "checks": 0, "rejected": 0, "remainder_calls": 0, "remainder_rows": 0,
           "stacked_outputs": 0, "step_min": math.inf, "step_max": 0.0}
    t = 0.0
    i = 0  # the first output not yet taken
    bound = math.inf  # the step bound of the last plan
    rows = np.empty((times.size, n))

    def error(fine: np.ndarray, coarse: np.ndarray) -> float:
        fine, coarse = irfft(fine, n), irfft(coarse, n)
        return float(np.max(np.abs(fine - coarse) / (ABS_TOL + REL_TOL * np.abs(fine))))

    def plan() -> tuple[float, int, int]:
        """The step from t, the steps left to the output they end on, and
        that output's index: one step to the furthest output within the
        bound, or equal steps to the next output when it lies farther."""
        nonlocal bound
        rho = remainder_rate(tau, kappa.constant, tau_bar)
        rec["rho_max"] = max(rec["rho_max"], rho)
        bound = min(ETD_SAFETY / rho if rho > 0.0 else math.inf, stepper.h_acc)
        reach = (times[i:] - t) / bound
        j = i + max(0, int(np.searchsorted(reach, 1.0, side="right")) - 1)
        left = max(1, math.ceil(reach[0])) if j == i else 1
        projected = stepper.steps + left + math.ceil((times[-1] - times[j]) / bound)
        if projected > STEP_BUDGET:
            raise BudgetError(f"ETDRK4 would take {projected:.3g} steps, over the "
                              f"budget of {STEP_BUDGET}; shorten T or coarsen the mesh")
        return (times[j] - t) / left, left, j

    while i < times.size:
        if times[i] <= t:
            rows[i] = tau
            i += 1
            continue
        h, left, j = plan()
        while left:
            if Nv is None:
                Nv = flux(tau) - stepper.L * v
            h_acc = stepper.h_acc
            stepped = stepper.advance(v, t, h, Nv, error)
            if stepped is None:
                h, left, j = plan()
                continue
            if stepper.since_check == 0 and MAX_GROWTH * h < bound:
                # a check on a step cut short to land on an output cannot
                # confirm the bound: keep it, and check the next step
                stepper.h_acc, stepper.since_check = h_acc, CHECK_STEPS
            start, Nstart, t_start = v, Nv, t
            v, Nv = stepped, None
            rec["step_min"] = min(rec["step_min"], float(h))
            rec["step_max"] = max(rec["step_max"], float(h))
            t += h
            tau = _positive(irfft(v, n), t)
            left -= 1
            if left and stepper.since_check == 0:  # shorten the rest after a check
                shorter, more, ends = plan()
                if shorter < h:
                    h, left, j = shorter, more, ends
        # the outputs strictly inside the last step, as one stacked pass
        inside = times[i:j][times[i:j] < times[j]]
        if inside.size:
            offsets = inside - t_start
            stack = stepper.step(start, t_start, offsets[:, None],
                                 stepper.coefficient_stack(offsets), Nstart)
            rows[i:i + inside.size] = _positive(irfft(stack, n), inside)
            rec["stacked_outputs"] += inside.size
            i += inside.size
        t = float(times[j])
    rec.update(steps=stepper.steps, checks=stepper.checks, rejected=stepper.rejected,
               remainder_calls=stepper.calls, remainder_rows=stepper.rows)
    if rec["steps"] == 0:
        rec["step_min"] = 0.0
    return rows, rec


class EvolvedFields(Sequence):
    """The fields ``torsion_evolve`` returns, in output order: ``samples``
    is their stack (F, n), and item k a ``TorsionField`` of a copy of row
    k. ``record`` says how the run was stepped: scheme, tolerances, rho at
    t = 0 and its largest value, steps taken, checks, rejected checks, the
    stepper's remainder calls and the state rows they carried, the outputs
    taken from stacked passes inside a step, and the smallest and largest
    step."""

    def __init__(self, samples: np.ndarray, record: dict):
        self.samples = samples
        self.record = record

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, k: int) -> TorsionField:
        return TorsionField(self.samples[operator.index(k)].copy())


def torsion_evolve(tau0: TorsionField, kappa: CurvatureProfile = UNIT_CURVATURE,
                   T: float = 1.0, output_times=None) -> EvolvedFields:
    """Evolve the torsion field to time T, sampling at ``output_times``.

    The steps are ETDRK4's under the stability and accuracy bounds of the
    module docstring. Initial data below ``POSITIVITY_FLOOR`` is refused up
    front, and so is a run projected over ``STEP_BUDGET`` steps
    (``BudgetError``). A stage or an output that goes nonpositive raises
    ``PositivityError`` with its time.
    """
    if float(np.min(tau0.samples)) < POSITIVITY_FLOOR:
        raise PositivityError(
            f"initial torsion minimum {np.min(tau0.samples):.3g} is below the "
            f"safety floor {POSITIVITY_FLOOR}")
    return EvolvedFields(*_etdrk4_run(tau0.samples, kappa, _output_times(T, output_times)))


@dataclass
class StabilitySeries:
    """Deviation-from-helix norm S(t) = ||tau(., t) - 1||_2 over an interval,
    and the ``record`` of the run's steps (``EvolvedFields``)."""

    amplitude: float
    times: np.ndarray
    values: np.ndarray
    record: dict

    @property
    def initial(self) -> float:
        return float(self.values[0])

    @property
    def peak(self) -> float:
        return float(np.max(self.values))


def helix_stability(amplitude: float = 0.01, T: float = 50.0, n: int = 32) -> StabilitySeries:
    """Evolve tau0 = 1 + amplitude*sin(s) at unit curvature and record S(t)
    at 1001 equally spaced times of [0, T].

    The default mesh of 32 points fully resolves a single-mode perturbation
    of this size: nonlinearity feeds harmonic k at roughly amplitude^k, which
    is below double precision by k = 9.
    """
    s = periodic_grid(n)
    tau0 = TorsionField(1.0 + amplitude * np.sin(s))
    times = np.linspace(0.0, T, 1001)
    fields = torsion_evolve(tau0, UNIT_CURVATURE, T, output_times=times)
    values = l2_norm(fields.samples - 1.0)
    return StabilitySeries(amplitude=amplitude, times=times, values=values,
                           record=fields.record)


@dataclass
class QuasiPeriodResult:
    t_star: float
    stationary: bool
    times: np.ndarray
    distances: np.ndarray


def quasi_period(times, samples: np.ndarray) -> QuasiPeriodResult:
    """First near-recurrence time of the evolved torsion, from its samples
    at ``times`` stacked as rows (F, n).

    t* minimizes ||tau(., t) - tau(., 0)||_2 over sampled times from
    ``RECURRENCE_WINDOW_START`` on, refined by a parabola through the
    discrete minimum. A run whose distance series never leaves the noise
    floor is reported as stationary with t* at the window start.
    """
    times = np.asarray(times, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if len(samples) != times.size or times.size < 5:
        raise ValueError("need matching times/samples with at least 5 frames")
    base = samples[0]
    dists = l2_norm(samples - base)

    osc = l2_norm(base - float(np.mean(base)))
    noise = max(1e-3 * osc, 1e-8 * l2_norm(base))
    if float(np.max(dists)) < noise:
        return QuasiPeriodResult(t_star=RECURRENCE_WINDOW_START, stationary=True,
                                 times=times, distances=dists)

    mask = times >= RECURRENCE_WINDOW_START
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
