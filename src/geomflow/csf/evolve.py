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

Each step is one step in tau of the ETDRK4 stepper of ``numerics.etd``
(Cox & Matthews, J. Comput. Phys. 176, 2002): the stiff part -k^2 of phi is
exact, W theta_alpha is the remainder, and the
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

Steps are powers 2^(j / ``LADDER``) in tau, so the stepper's cache computes
the coefficients of each step once. The stepper's step-doubling check bounds
the local error of phi and ln L by ``TOL`` and sets the next steps. Every
step is further capped so that it advances t by at most one frame stride and
L by at most ``MAX_LENGTH_DROP``. A run to a fixed time sizes its last step
off the ladder to end exactly there, with coefficients that bypass the
cache. A run fails with ``BudgetError`` at ``MAX_STEPS`` steps, and a run to
a time more than ``MAX_STEPS`` strides away before its first step.

Frames are recorded whenever the frame stride in time has passed or the
length has shrunk by ``RECORD_SHRINK`` since the last frame, and at the
stop. A run ends at its time, when the largest turning per sample
max|theta_alpha| 2 pi / n passes ``StopRule.kmax_spacing``, or when the
curve has lost seven decades of length (``LENGTH_FLOOR``). One evaluation of
the remainder at each accepted state gives the next step its N(v) and the
stop tests and step bound their theta_alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..errors import BudgetError, IntegrationError, SetupError, TopologyError
from ..numerics.etd import CHECK_STEPS, Etdrk4, etdrk4_coefficients
from ..numerics.periodic import (PeriodicPrimitive, cyclic_shift, irfft, rfft, trig_interpolant,
                                 wavenumbers)
from ..numerics.roots import find_root
from .curve import PlaneCurve, curve_geometry, edge_lengths, row_lengths, turning_number

TWO_PI = 2.0 * math.pi
RECORD_SHRINK = 0.93  # a frame is recorded once the length shrinks by this factor
LENGTH_FLOOR = 1e-7  # every run stops once its length falls below this share of the initial
TOL = 1e-8  # bound on the step-doubling error of phi and ln L
LADDER = 8  # steps per octave: every ladder step is 2 ** (j / LADDER)
MAX_LENGTH_DROP = 0.07  # largest share of its length a curve may lose in one step
SYMMETRY_TOL = 1e-9  # a symmetry of the initial samples holds to this share of L
MAX_STEPS = 2_000_000  # most accepted steps one run may take
_FRAME_BLOCK = 32  # recorded frames measured together
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
    resolve the blowup and continuing would only manufacture noise. A rule
    with neither condition, or with one not finite and positive, raises
    ``SetupError``.
    """

    time: float | None = None
    kmax_spacing: float | None = 0.5

    def __post_init__(self):
        if self.time is None and self.kmax_spacing is None:
            raise SetupError("stop rule has no active condition")
        for name in ("time", "kmax_spacing"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise SetupError(f"stop rule {name} must be finite and positive, got {value}")


@dataclass
class CsfRun:
    """Recorded frames, each its points (n, 2), a row of a stack that
    ``ThetaLengthFlow.points`` built, with its time and ``curve_geometry``
    record; and how the run was stepped: accepted steps, step-doubling
    checks and rejected checks, the stepper's remainder calls and the state
    rows they carried, the names of the symmetries it held, and ``seconds``
    spent in the steps, the projections (with the equal-arclength start)
    and the frame diagnostics."""

    times: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    stop_reason: str = ""
    steps: int = 0
    checks: int = 0
    rejected: int = 0
    remainder_calls: int = 0
    remainder_rows: int = 0
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

    Takes the trigonometric interpolant of both coordinates in index space,
    whose arc length is the ``PeriodicPrimitive`` of its speed; anchors the
    new mesh half a cell past the rightmost downward x-axis crossing, found
    by ``find_root`` between the two samples that straddle it (falling back
    to the old first point when the samples do not cross); and evaluates the
    interpolant at the primitive's ``inverse`` of the uniform arc positions.
    A curve symmetric about an axis through its crossing keeps a symmetric
    sample set, and samples already uniform in arc length come back up to a
    cyclic shift.
    """
    n = P.shape[0]
    curve = trig_interpolant(P, period=float(n))
    arc = PeriodicPrimitive(np.hypot(*irfft(wavenumbers(n, float(n)) * rfft(P.T), n)),
                            period=float(n))

    y = P[:, 1]
    y_next = cyclic_shift(y, 1)
    crossing = np.nonzero(((y > 0.0) & (y_next <= 0.0)) | ((y >= 0.0) & (y_next < 0.0)))[0]
    if crossing.size:
        fracs = y[crossing] / (y[crossing] - y_next[crossing])
        x_cross = P[crossing, 0] + fracs * (P[(crossing + 1) % n, 0] - P[crossing, 0])
        j = int(crossing[np.argmax(x_cross)])
        ends = {float(j): y[j], float(j + 1): y_next[j]}  # the samples' own signs
        u_anchor = find_root(lambda u: ends[u] if u in ends else float(curve(u)[1]),
                             (j, j + 1), 1e-12)
        s_anchor = float(arc(u_anchor)[0])
    else:
        s_anchor = 0.0

    targets = (s_anchor + (np.arange(n) + 0.5) * (arc.total / n)) % arc.total
    return curve(arc.inverse(targets))


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
        """0.5 (theta + (sign theta[perm] + offset)), built on the gathered
        copy."""
        image = theta[self.perm]
        if self.sign < 0.0:
            np.negative(image, out=image)
        image += self.offset
        image += theta
        image *= 0.5
        return image


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
        gx, gy = float(c.sum()) / n, float(s.sum()) / n
        if math.hypot(gx, gy) <= 1e-16:
            break
        cc, ss, cs = float(c @ c) / n, float(s @ s) / n, float(c @ s) / n
        det = cc * ss - cs * cs
        a = -(gx * cs + gy * ss) / det
        b = (gx * cc + gy * cs) / det
        c *= a  # the new theta = theta + a c + b s, built on c
        c += theta
        s *= b
        c += s
        theta = c
        if math.hypot(gx, gy) < 1e-8:  # Newton leaves a residual of order |g|^2: below roundoff
            break
    return theta


def _exp_rows(log_length: np.ndarray) -> np.ndarray:
    """exp of each entry by ``math.exp``, whose last bit ``np.exp`` does not
    always match: the lengths of stacked states equal those of single ones."""
    return np.array([math.exp(x) for x in log_length.flat]).reshape(log_length.shape)


class ThetaLengthFlow:
    """The flow on an n-point equal-arclength mesh: the state is the complex
    vector [rfft(phi), ln L, q, c], with the linear multipliers -k^2 of phi
    and 0 of the scalars, stepped in tau by ``etd``."""

    def __init__(self, P: np.ndarray):
        n = P.shape[0]
        self.n = n
        self.M = M = n // 2 + 1
        self.alpha = TWO_PI * np.arange(n) / n
        k = np.arange(M, dtype=float)
        self.etd = Etdrk4(np.concatenate([-k * k, np.zeros(3)]), self.remainder)
        self.ik = wavenumbers(n)
        self.inv_ik = np.zeros(M, dtype=complex)
        np.divide(1.0, self.ik, out=self.inv_ik, where=self.ik != 0.0)

        dx, dy = irfft(self.ik * rfft(P.T), n)
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
        rfft(self.project(theta) - self.m * self.alpha, out=self.v[:M])

    # ------------------------------------------------------------ state
    def length(self, v=None) -> float:
        return math.exp((self.v if v is None else v)[self.M].real)

    def time(self, v=None) -> float:
        v = self.v if v is None else v
        length = math.exp(v[self.M].real)
        return v[self.M + 1].real - length * length / (2.0 * TWO_PI * TWO_PI)

    def theta(self, v=None) -> np.ndarray:
        """theta of the state ``v`` (default the current one), or of a stack
        of states (..., M + 3)."""
        v = self.v if v is None else v
        phi = irfft(v[..., :self.M], self.n)
        return phi + self.m * self.alpha if self.m else phi

    def points(self, states: np.ndarray) -> np.ndarray:
        """The samples X = c + (L / 2 pi) * primitive(e^{i theta}) of a stack
        of states (F, M + 3), as an (F, n, 2) array."""
        theta = self.theta(states)
        xy = irfft(self.inv_ik * rfft(np.stack((np.cos(theta), np.sin(theta)), axis=1)), self.n)
        c = states[:, self.M + 2, None]
        scale = _exp_rows(states[:, self.M].real)[:, None] / TWO_PI
        return np.stack((c.real + scale * xy[:, 0], c.imag + scale * xy[:, 1]), axis=-1)

    def project(self, theta: np.ndarray) -> np.ndarray:
        theta = close_angles(theta)
        for sym in self.symmetries:
            theta = sym.average(theta)
        return theta

    def accept(self, v: np.ndarray) -> None:
        """Take ``v``, a stepper result no one else holds, as the state (it is
        not copied), projected onto closed symmetric curves."""
        theta = self.project(self.theta(v))
        rfft(theta - self.m * self.alpha if self.m else theta, out=v[:self.M])
        self.v = v

    # ------------------------------------------------------------- steps
    def rate(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The remainder at ``v``, one state or a stack of them (..., M + 3):
        W theta_alpha for phi and the scalar rates; and theta_alpha, which
        the run's stop tests and step bound read. A curve with the half-turn
        symmetry keeps its centroid, so its rate is not evaluated. The
        per-state scalars are read and written through ``.T[j]``, which is a
        scalar on one state and a column on a stack."""
        M, n = self.M, self.n
        if self.fixed_centroid:
            theta_alpha = irfft(self.ik * v[..., :M], n)
        else:
            spectra = np.empty(v.shape[:-1] + (2, M), dtype=complex)
            spectra[..., 0, :] = v[..., :M]
            np.multiply(self.ik, v[..., :M], out=spectra[..., 1, :])
            both = irfft(spectra, n)
            phi, theta_alpha = both[..., 0, :], both[..., 1, :]
        if self.m:
            theta_alpha += self.m
        spec = rfft(theta_alpha * theta_alpha)
        mu = spec.T[0].real / n
        spec *= self.inv_ik
        W = irfft(spec, n)
        out = np.empty(v.shape, dtype=complex)
        rfft(W * theta_alpha, out=out[..., :M])
        scale = (math.exp(v[M].real) if v.ndim == 1 else _exp_rows(v.T[M].real)) / TWO_PI
        entries = out.T
        entries[M] = -mu
        entries[M + 1] = scale * scale * (1.0 - mu)
        if self.fixed_centroid:
            entries[M + 2] = 0.0
        else:
            theta = phi + self.m * self.alpha if self.m else phi
            entries[M + 2] = (scale / n) * ((1j * theta_alpha + W)
                                            * np.exp(1j * theta)).sum(axis=-1)
        return out, theta_alpha

    def remainder(self, _t, v: np.ndarray) -> np.ndarray:
        """The stepper's remainder: ``rate``'s first result."""
        return self.rate(v)[0]

    def error(self, fine: np.ndarray, coarse: np.ndarray) -> float:
        """Largest difference of phi and ln L between two results of one
        step, as a share of ``TOL``."""
        M = self.M
        diff = fine - coarse
        return max(float(np.max(np.abs(irfft(diff[:M], self.n)))),
                   abs(diff[M].real)) / TOL

    def step_to_time(self, h: float, t_over: float, t_end: float,
                     Nv: np.ndarray) -> np.ndarray:
        """The state one step after ``self.v``, whose remainder is ``Nv``,
        that ends at time ``t_end``, given a step ``h`` that ends at
        ``t_over`` >= ``t_end``: the step is found by regula falsi on the end
        time, to a few units of roundoff."""
        lo, hi = (0.0, self.time()), (h, t_over)
        best = None
        for _ in range(12):
            trial = lo[0] + (hi[0] - lo[0]) * (t_end - lo[1]) / (hi[1] - lo[1])
            # trial steps agree to 12 digits near convergence: no cache
            v = self.etd.step(self.v, 0.0, trial, etdrk4_coefficients(self.etd.L, trial), Nv)
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
               record_dt: float | None = None) -> CsfRun:
    """Evolve by curve-shortening flow, recording frames and diagnostics.

    The curve is first redistributed uniformly in arc length on its
    trigonometric interpolant (``resample_uniform``) and then stepped in
    tangent-angle/length form (module docstring). Frames (with full
    diagnostics) are recorded whenever ``record_dt`` time has passed or the
    length has shrunk by the factor ``RECORD_SHRINK`` since the last record,
    and at the stop. The default
    time stride is an estimate of a 250-frame run: total area over 2*pi
    bounds the extinction time of any figure-eight from above.

    A recorded frame keeps its state; the frames are rebuilt as points
    (``ThetaLengthFlow.points``) and measured (``curve_geometry``) together
    in blocks of ``_FRAME_BLOCK`` and at the stop, except frame 0, which is
    measured at once: the default stride reads its area. The flow keeps a
    figure-eight's single double point until the singularity (Grayson,
    Invent. Math. 96, 1989), so when frame 0 has one, a later frame without
    one raises ``TopologyError`` naming its time when its block is measured.
    The frames of a curve that starts without one get NaN eight-specific
    fields.

    A ``record_dt`` that is not finite and positive raises ``SetupError``.
    Each step advances t by at most one stride, so a run to a time more than
    ``MAX_STEPS`` strides away raises ``BudgetError`` before its first step,
    and so does any run once it has taken ``MAX_STEPS`` steps.
    """
    stop = stop or StopRule(time=0.1)
    if record_dt is not None:
        if not (math.isfinite(record_dt) and record_dt > 0.0):
            raise SetupError(f"record_dt must be finite and positive, got {record_dt}")
        if stop.time is not None and stop.time / record_dt > MAX_STEPS:
            raise BudgetError(f"a run to t={stop.time:g} in strides of {record_dt:g} would "
                              f"take over {MAX_STEPS} steps")
    clock = perf_counter()
    flow = ThetaLengthFlow(resample_uniform(c0.points))
    run = CsfRun(symmetries=[s.name for s in flow.symmetries])
    seconds = run.seconds
    seconds["projections"] += perf_counter() - clock
    pending = []  # the states of the recorded frames not measured yet

    def measure():
        start = perf_counter()
        frames = flow.points(np.array(pending))
        records = curve_geometry(frames, run.times[len(run.frames):])
        if (run.diagnostics or records)[0].crossing is not None:  # frame 0 has a double point
            for d in records:
                if d.crossing is None:
                    raise TopologyError(f"the frame at t={d.time:.6g} has no double point, "
                                        "though frame 0 has one")
        run.frames.extend(frames)
        run.diagnostics.extend(records)
        pending.clear()
        seconds["diagnostics"] += perf_counter() - start

    def record(time):
        run.times.append(time)
        pending.append(flow.v)
        if len(pending) == _FRAME_BLOCK:
            measure()

    t = 0.0
    record(t)
    measure()
    if record_dt is None:
        horizon = stop.time if stop.time is not None else \
            run.diagnostics[0].total_area / (2.0 * math.pi)
        record_dt = horizon / 250.0
    next_record = record_dt
    length0 = flow.length()
    next_length = RECORD_SHRINK * length0
    max_drop = -math.log1p(-MAX_LENGTH_DROP)

    etd = flow.etd
    Nv = None  # the remainder at the state, and its theta_alpha, once it is accepted
    while True:
        if Nv is None:
            start = perf_counter()
            Nv, theta_alpha = flow.rate(flow.v)
            seconds["steps"] += perf_counter() - start
        length = flow.length()
        if length < LENGTH_FLOOR * length0:
            run.stop_reason = "extinction reached"
            break
        if stop.kmax_spacing is not None and \
                float(np.abs(theta_alpha).max()) * TWO_PI / flow.n > stop.kmax_spacing:
            run.stop_reason = "singularity reached"
            break
        if stop.time is not None and t >= stop.time:
            run.stop_reason = "time reached"
            break
        if run.steps >= MAX_STEPS:
            raise BudgetError(f"CSF run took {MAX_STEPS} steps by t={t:.6g} without stopping")

        start = perf_counter()
        mu = float(theta_alpha @ theta_alpha) / flow.n
        bound = min(etd.h_acc, record_dt * (TWO_PI / length) ** 2, max_drop / mu)
        j = math.floor(LADDER * math.log2(bound))
        if j < -60 * LADDER:
            raise IntegrationError(f"CSF step fell below 2^-60 at t={t:.6g}")
        h = 2.0 ** (j / LADDER)
        v = etd.advance(flow.v, 0.0, h, Nv, flow.error)
        if v is None:  # a rejected check
            seconds["steps"] += perf_counter() - start
            continue
        if not np.isfinite(v).all():
            raise IntegrationError(f"CSF state went non-finite after t={t:.6g}")
        t = flow.time(v)
        final = stop.time is not None and t >= stop.time
        if final:
            v = flow.step_to_time(h, t, stop.time, Nv)
        mid = perf_counter()
        seconds["steps"] += mid - start
        flow.accept(v)
        seconds["projections"] += perf_counter() - mid
        Nv = None
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
    if pending:
        measure()
    run.checks, run.rejected = etd.checks, etd.rejected
    run.remainder_calls, run.remainder_rows = etd.calls, etd.rows
    return run
