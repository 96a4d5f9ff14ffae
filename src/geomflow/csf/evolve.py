"""Curve-shortening flow in tangent-angle/length form, stepped by ETDRK4.

The curve is carried as in Hou, Lowengrub & Shelley (J. Comput. Phys. 114,
1994): its tangent angle theta on an equal-arclength parameter alpha in
[0, 2 pi), its length L, the time t and its centroid c. The tangential
velocity that keeps the parametrisation equal in arc length is part of the
flow. With theta = m alpha + phi (m the turning number, phi periodic) and
time rescaled by d tau = (2 pi / L)^2 dt,

    phi_tau   = phi_alpha_alpha + W theta_alpha,
    (ln L)_tau = -mean(theta_alpha^2),
    t_tau     = (L / 2 pi)^2,
    c_tau     = (L / 2 pi) mean((i theta_alpha + W) e^{i theta}),

where W is the zero-mean primitive of theta_alpha^2 - mean(theta_alpha^2).
The points are X = c + (L / 2 pi) times the zero-mean primitive of
e^{i theta}. The time is carried as q = t + L^2 / (8 pi^2), whose rate
(L / 2 pi)^2 (1 - mean(theta_alpha^2)) vanishes on a circle, so the circle's
L^2 = L0^2 - 8 pi^2 t holds to roundoff.

Each step is one step of the ETDRK4 scheme of Cox & Matthews (J. Comput.
Phys. 176, 2002) in tau, with the coefficients of ``numerics.etd``: the
stiff part -k^2 of phi is exact, W theta_alpha is the remainder, and the
same stages advance ln L, q and c with multiplier 0. After every step two
projections keep the discrete curve on its constraints:

- closure: the exact flow conserves the gap L mean(e^{i theta}), so its
  relative size would grow like L0 / L; Newton steps along
  a cos(theta) + b sin(theta), the least-norm correction, put the mean
  back at zero;
- symmetry: theta is averaged over the reflections and half-turn that the
  initial samples have (``detect_symmetries``). The symmetric eight's
  collapse amplifies any asymmetry like (L0 / L)^2 (Grayson, Invent.
  Math. 96, 1989), so roundoff alone would otherwise unbalance its lobes
  near extinction on fine meshes.

Steps are powers 2^(j / ``LADDER``) in tau, so the coefficients of each
step are computed once. The first step and one in every ``CHECK_STEPS``
after it are also taken as two half steps, which the run keeps; their
difference bounds the local error of phi and ln L by ``TOL`` and sets the
next steps. Every step is further capped so that it advances t by about one
frame stride and L by at most ``MAX_LENGTH_DROP``. A run to a fixed time
sizes its last step off the ladder to end exactly there.

Frames are recorded whenever the frame stride in time has passed or the
length has shrunk by ``RECORD_SHRINK`` since the last frame, and at the
stop. A run ends at its time, when the largest turning per sample
max|theta_alpha| 2 pi / n passes ``StopRule.kmax_spacing``, or when the
curve has lost seven decades of length (``LENGTH_FLOOR``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..errors import IntegrationError
from ..numerics import PeriodicCubicSpline, cyclic_shift
from ..numerics.etd import etdrk4_coefficients
from ..numerics.interpolation import REFINE
from .curve import PlaneCurve, curve_geometry, edge_lengths, row_lengths, turning_number

TWO_PI = 2.0 * math.pi
RECORD_SHRINK = 0.93  # a frame is recorded once the length shrinks by this factor
LENGTH_FLOOR = 1e-7  # every run stops once its length falls below this share of the initial
TOL = 1e-8  # bound on the step-doubling error of phi and ln L
LADDER = 8  # steps per octave: every ladder step is 2 ** (j / LADDER)
CHECK_STEPS = 8  # steps between two step-doubling checks
MAX_LENGTH_DROP = 0.07  # largest share of its length a curve may lose in one step
SYMMETRY_TOL = 1e-9  # a symmetry of the initial samples holds to this share of L
MAX_STEPS = 2_000_000
# Reflections and half-turn about the centroid that ``detect_symmetries``
# tries, as the signs they put on (x, y).
SYMMETRY_CANDIDATES = {"conj": (1.0, -1.0), "neg_conj": (-1.0, 1.0), "neg": (-1.0, -1.0)}


@dataclass
class StopRule:
    """Stopping policy: fixed time and curvature-resolution threshold, on
    top of the length floor ``LENGTH_FLOOR`` that ends every run.

    ``kmax_spacing`` stops the run once the largest curvature times the
    sample spacing, max|theta_alpha| 2 pi / n on the equal-arclength mesh,
    exceeds the threshold: past that point the samples can no longer
    resolve the blowup and continuing would only manufacture noise.
    """

    time: float | None = None
    kmax_spacing: float | None = 0.5


@dataclass
class CsfRun:
    """Recorded frames and how the run was stepped: accepted steps,
    step-doubling checks and rejected checks, the names of the symmetries
    it held, and ``seconds`` spent in the steps, the projections (with the
    equal-arclength start) and the frame diagnostics."""

    times: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    stop_reason: str = ""
    steps: int = 0
    checks: int = 0
    rejected: int = 0
    symmetries: list = field(default_factory=list)
    seconds: dict = field(default_factory=lambda: dict.fromkeys(
        ("steps", "projections", "diagnostics"), 0.0))

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(d, name) for d in self.diagnostics])


def step_control() -> dict:
    """The step-control constants of ``csf_evolve``, as the manifests record them."""
    return {"scheme": "etdrk4 theta-L", "tol": TOL, "ladder_steps_per_octave": LADDER,
            "check_steps": CHECK_STEPS, "max_length_drop": MAX_LENGTH_DROP,
            "symmetry_tol": SYMMETRY_TOL, "record_shrink": RECORD_SHRINK}


def resample_uniform(P: np.ndarray) -> np.ndarray:
    """Redistribute polygon samples uniformly in arc length.

    Fits one periodic cubic spline to both coordinates in index space,
    measures arc length on a refined polyline, anchors the new mesh half a
    cell past the rightmost x-axis crossing (falling back to the old first
    point when the curve does not cross), and evaluates the spline at the
    inverted arc positions. A curve symmetric about an axis through its
    crossing keeps a symmetric sample set.
    """
    n = P.shape[0]
    spline = PeriodicCubicSpline(P, period=float(n))
    fine = spline.refined()
    seg = edge_lengths(fine)
    s_cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = s_cum[-1]

    y = fine[:, 1]
    y_next = cyclic_shift(y, 1)
    crossing = np.nonzero(((y > 0.0) & (y_next <= 0.0)) | ((y >= 0.0) & (y_next < 0.0)))[0]
    if crossing.size:
        fracs = y[crossing] / (y[crossing] - y_next[crossing])
        x_cross = fine[crossing, 0] + fracs * (fine[(crossing + 1) % fine.shape[0], 0]
                                               - fine[crossing, 0])
        best = int(np.argmax(x_cross))
        s_anchor = s_cum[crossing[best]] + fracs[best] * seg[crossing[best]]
    else:
        s_anchor = 0.0

    h_new = total / n
    targets = (s_anchor + (np.arange(n) + 0.5) * h_new) % total
    u_targets = np.interp(targets, s_cum, np.arange(n * REFINE + 1) / REFINE)
    return spline(u_targets)


@dataclass
class Symmetry:
    """A symmetry of the samples: the map named ``name`` sends point j to
    point ``perm[j]``, so the tangent angles satisfy
    theta_j = sign * theta[perm[j]] + offset_j with offset a multiple of pi."""

    name: str
    perm: np.ndarray
    sign: float
    offset: np.ndarray

    def average(self, theta: np.ndarray) -> np.ndarray:
        return 0.5 * (theta + (self.sign * theta[self.perm] + self.offset))


def detect_symmetries(P: np.ndarray, theta: np.ndarray) -> list[Symmetry]:
    """The candidate maps (``SYMMETRY_CANDIDATES``) about the centroid that
    carry the sample set onto itself with an index map j -> +-j + c, to
    ``SYMMETRY_TOL`` times the length. ``theta`` are the tangent angles at
    the samples."""
    n = P.shape[0]
    Q = P - P.mean(axis=0)
    tol = SYMMETRY_TOL * float(np.sum(edge_lengths(P)))
    j = np.arange(n)
    found = []
    for name, signs in SYMMETRY_CANDIDATES.items():
        image = Q * np.array(signs)
        start = int(np.argmin(row_lengths(Q - image[0])))
        for direction in (1, -1):
            perm = (direction * j + start) % n
            if float(np.max(row_lengths(Q[perm] - image))) <= tol:
                sign = signs[0] * signs[1]
                offset = math.pi * np.round((theta - sign * theta[perm]) / math.pi)
                found.append(Symmetry(name, perm, sign, offset))
                break
    return found


def close_angles(theta: np.ndarray) -> np.ndarray:
    """theta moved along a cos(theta) + b sin(theta) by Newton steps until
    mean(e^{i theta}) = 0, the closure of the curve it describes."""
    n = theta.size
    for _ in range(4):
        c, s = np.cos(theta), np.sin(theta)
        gx, gy = c.sum() / n, s.sum() / n
        if math.hypot(gx, gy) <= 1e-16:
            break
        cc, ss, cs = (c @ c) / n, (s @ s) / n, (c @ s) / n
        det = cc * ss - cs * cs
        a = -(gx * cs + gy * ss) / det
        b = (gx * cc + gy * cs) / det
        theta = theta + a * c + b * s
        if math.hypot(gx, gy) < 1e-8:  # Newton leaves a residual of order |g|^2: below roundoff
            break
    return theta


class ThetaLengthFlow:
    """The flow on an n-point equal-arclength mesh: the state is the complex
    vector [rfft(phi), ln L, q, c], with the linear multipliers -k^2 of phi
    and 0 of the scalars."""

    def __init__(self, P: np.ndarray):
        n = P.shape[0]
        self.n = n
        self.M = M = n // 2 + 1
        self.alpha = TWO_PI * np.arange(n) / n
        k = np.arange(M, dtype=float)
        self.linear = np.concatenate([-k * k, np.zeros(3)])
        self.ik = 1j * k
        self.inv_ik = np.zeros(M, dtype=complex)
        self.inv_ik[1:] = 1.0 / self.ik[1:]
        if n % 2 == 0:  # the Nyquist mode has no odd derivative or primitive on the grid
            self.ik[-1] = 0.0
            self.inv_ik[-1] = 0.0
        self._coef: dict[int, tuple] = {}
        self._spectra = np.empty((2, M), dtype=complex)

        dx, dy = np.fft.irfft(self.ik * np.fft.rfft(P.T), n)
        theta = np.unwrap(np.arctan2(dy, dx))
        self.m = round(turning_number(P))
        self.symmetries = detect_symmetries(P, theta)
        self.fixed_centroid = any(sym.name == "neg" for sym in self.symmetries)
        self.v = np.empty(M + 3, dtype=complex)
        length = TWO_PI * float(np.mean(np.hypot(dx, dy)))
        self.v[M] = math.log(length)
        self.v[M + 1] = length * length / (2.0 * TWO_PI * TWO_PI)
        cx, cy = P.mean(axis=0)
        self.v[M + 2] = complex(cx, cy)
        self.v[:M] = np.fft.rfft(self.project(theta) - self.m * self.alpha)

    # ------------------------------------------------------------ state
    def length(self, v=None) -> float:
        return math.exp((self.v if v is None else v)[self.M].real)

    def time(self, v=None) -> float:
        v = self.v if v is None else v
        length = math.exp(v[self.M].real)
        return v[self.M + 1].real - length * length / (2.0 * TWO_PI * TWO_PI)

    def theta(self, v=None) -> np.ndarray:
        v = self.v if v is None else v
        return self.m * self.alpha + np.fft.irfft(v[:self.M], self.n)

    def theta_alpha(self) -> np.ndarray:
        return self.m + np.fft.irfft(self.ik * self.v[:self.M], self.n)

    def points(self) -> np.ndarray:
        """The samples X = c + (L / 2 pi) * primitive(e^{i theta})."""
        theta = self.theta()
        x, y = np.fft.irfft(self.inv_ik * np.fft.rfft(np.stack((np.cos(theta), np.sin(theta)))),
                            self.n)
        c, scale = self.v[self.M + 2], self.length() / TWO_PI
        return np.column_stack([c.real + scale * x, c.imag + scale * y])

    def project(self, theta: np.ndarray) -> np.ndarray:
        theta = close_angles(theta)
        for sym in self.symmetries:
            theta = sym.average(theta)
        return theta

    def accept(self, v: np.ndarray) -> None:
        """Take ``v`` as the state, projected onto closed symmetric curves."""
        v = v.copy()
        v[:self.M] = np.fft.rfft(self.project(self.theta(v)) - self.m * self.alpha)
        self.v = v

    # ------------------------------------------------------------- steps
    def rate(self, v: np.ndarray) -> np.ndarray:
        """The remainder: W theta_alpha for phi, and the scalar rates. A curve
        with the half-turn symmetry keeps its centroid, so its rate is not
        evaluated."""
        M, n, spectra = self.M, self.n, self._spectra
        if self.fixed_centroid:
            theta_alpha = np.fft.irfft(self.ik * v[:M], n)
        else:
            spectra[0] = v[:M]
            np.multiply(self.ik, v[:M], out=spectra[1])
            phi, theta_alpha = np.fft.irfft(spectra, n)
        if self.m:
            theta_alpha += self.m
        spec = np.fft.rfft(theta_alpha * theta_alpha)
        mu = spec[0].real / n
        spec *= self.inv_ik
        W = np.fft.irfft(spec, n)
        out = np.zeros(M + 3, dtype=complex)
        out[:M] = np.fft.rfft(W * theta_alpha)
        scale = math.exp(v[M].real) / TWO_PI
        out[M] = -mu
        out[M + 1] = scale * scale * (1.0 - mu)
        if not self.fixed_centroid:
            theta = phi + self.m * self.alpha if self.m else phi
            out[M + 2] = (scale / n) * ((1j * theta_alpha + W) * np.exp(1j * theta)).sum()
        return out

    def coefficients(self, j: int) -> tuple:
        coef = self._coef.get(j)
        if coef is None:
            coef = self._coef[j] = etdrk4_coefficients(self.linear, 2.0 ** (j / LADDER))
        return coef

    def step(self, v: np.ndarray, coef: tuple, Nv: np.ndarray | None = None) -> np.ndarray:
        """One ETDRK4 step from ``v``; ``Nv`` is its rate, if already known."""
        E, E2, Q, f1, f2x2, f3 = coef
        rate = self.rate
        if Nv is None:
            Nv = rate(v)
        E2v = E2 * v
        a = E2v + Q * Nv
        Na = rate(a)
        b = E2v + Q * Na
        Nb = rate(b)
        c = E2 * a + Q * (2.0 * Nb - Nv)
        Nc = rate(c)
        return E * v + f1 * Nv + f2x2 * (Na + Nb) + f3 * Nc

    def error(self, fine: np.ndarray, coarse: np.ndarray) -> float:
        """Largest difference of phi and ln L between two results of one step."""
        M = self.M
        diff = fine - coarse
        return max(float(np.max(np.abs(np.fft.irfft(diff[:M], self.n)))), abs(diff[M].real))

    def step_to_time(self, h: float, t_over: float, t_end: float) -> np.ndarray:
        """The state one step after ``self.v`` that ends at time ``t_end``,
        given a step ``h`` that ends at ``t_over`` >= ``t_end``: the step is
        found by regula falsi on the end time, to a few units of roundoff."""
        lo, hi = (0.0, self.time()), (h, t_over)
        best = None
        for _ in range(12):
            trial = lo[0] + (hi[0] - lo[0]) * (t_end - lo[1]) / (hi[1] - lo[1])
            v = self.step(self.v, etdrk4_coefficients(self.linear, trial))
            t = self.time(v)
            if best is None or abs(t - t_end) < abs(best[1] - t_end):
                best = (v, t)
            if abs(t - t_end) <= 4.0 * np.finfo(float).eps * abs(t_end):
                break
            if t < t_end:
                lo = (trial, t)
            else:
                hi = (trial, t)
        return best[0]


def csf_evolve(c0: PlaneCurve, stop: StopRule | None = None,
               record_dt: float | None = None,
               expect_double_point: bool | None = None) -> CsfRun:
    """Evolve by curve-shortening flow, recording frames and diagnostics.

    The curve is first redistributed uniformly in arc length
    (``resample_uniform``) and then stepped in tangent-angle/length form
    (module docstring). Frames (with full diagnostics) are recorded whenever
    ``record_dt`` time has passed or the length has shrunk by the factor
    ``RECORD_SHRINK`` since the last record, and at the stop. The default
    time stride is an estimate of a 250-frame run: total area over 2*pi
    bounds the extinction time of any figure-eight from above.
    """
    stop = stop or StopRule(time=0.1)
    if stop.time is None and stop.kmax_spacing is None:
        raise ValueError("stop rule has no active condition")
    clock = perf_counter()
    flow = ThetaLengthFlow(resample_uniform(c0.points))
    run = CsfRun(symmetries=[s.name for s in flow.symmetries])
    seconds = run.seconds
    seconds["projections"] += perf_counter() - clock

    def record(time):
        start = perf_counter()
        curve = PlaneCurve(flow.points())
        run.times.append(time)
        run.frames.append(curve)
        run.diagnostics.append(curve_geometry(curve, time, expect_double_point))
        seconds["diagnostics"] += perf_counter() - start

    t = 0.0
    record(t)
    if record_dt is None:
        horizon = stop.time if stop.time is not None else \
            run.diagnostics[0].total_area / (2.0 * math.pi)
        record_dt = horizon / 250.0
    next_record = record_dt
    length0 = flow.length()
    next_length = RECORD_SHRINK * length0
    max_drop = -math.log1p(-MAX_LENGTH_DROP)

    h_acc = math.inf
    since_check = CHECK_STEPS  # the first step is checked
    while True:
        length = flow.length()
        theta_alpha = flow.theta_alpha()
        if length < LENGTH_FLOOR * length0:
            run.stop_reason = "extinction reached"
            break
        if stop.kmax_spacing is not None and \
                float(np.max(np.abs(theta_alpha))) * TWO_PI / flow.n > stop.kmax_spacing:
            run.stop_reason = "singularity reached"
            break
        if stop.time is not None and t >= stop.time:
            run.stop_reason = "time reached"
            break
        if run.steps >= MAX_STEPS:
            run.stop_reason = "step budget"
            break

        start = perf_counter()
        mu = float(theta_alpha @ theta_alpha) / flow.n
        bound = min(h_acc, record_dt * (TWO_PI / length) ** 2, max_drop / mu)
        j = math.floor(LADDER * math.log2(bound))
        if j < -60 * LADDER:
            raise IntegrationError(f"CSF step fell below 2^-60 at t={t:.6g}")
        coef = flow.coefficients(j)
        if since_check >= CHECK_STEPS:
            Nv = flow.rate(flow.v)
            coarse = flow.step(flow.v, coef, Nv)
            half = flow.coefficients(j - LADDER)
            v = flow.step(flow.step(flow.v, half, Nv), half)
            run.checks += 1
            ratio = flow.error(v, coarse) / TOL
            if not math.isfinite(ratio):  # a non-finite result is rejected
                ratio = math.inf
            h = 2.0 ** (j / LADDER)
            h_acc = h * (min(5.0, max(0.2, 0.9 * ratio ** -0.2)) if ratio > 0.0 else 5.0)
            if ratio > 1.0:
                run.rejected += 1
                seconds["steps"] += perf_counter() - start
                continue
            since_check = 0
        else:
            v = flow.step(flow.v, coef)
            if not np.all(np.isfinite(v)):
                raise IntegrationError(f"CSF state went non-finite after t={t:.6g}")
            since_check += 1
        t = flow.time(v)
        final = stop.time is not None and t >= stop.time
        if final:
            v = flow.step_to_time(2.0 ** (j / LADDER), t, stop.time)
        mid = perf_counter()
        seconds["steps"] += mid - start
        flow.accept(v)
        seconds["projections"] += perf_counter() - mid
        run.steps += 1
        t = stop.time if final else flow.time()
        length = flow.length()
        if final or t >= next_record - 1e-15 or length <= next_length:
            record(t)
            while next_record <= t:
                next_record += record_dt
            next_length = RECORD_SHRINK * length
    if run.times[-1] != t:
        record(t)
    return run
