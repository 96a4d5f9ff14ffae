"""Adaptive explicit ODE integration.

The workhorse is the Dormand-Prince 8(5,3) pair (DOP853; Hairer, Norsett &
Wanner, *Solving Ordinary Differential Equations I*, 2nd ed., 1993,
section II.5) with proportional step control. Its 12 stages give the
8th-order solution that is propagated; the 5th- and 3rd-order embedded
estimates, combined as in Hairer's DOP853 code but in the max norm, drive
the step size with the exponent -1/8. The last stage is the field at the new
point, so each accepted step costs 12 field evaluations.

Dense output is the method's 7th-order continuous extension (section II.6):
three more stages give one polynomial per step. They are computed only in
steps that need the polynomial: steps holding an output time strictly
inside them, steps in which an event happens, and every step of a run that
stores its nodes for :meth:`Trajectory.sample`. A run with an empty list of
output times stores nothing but its events, so only its event steps cost 15
field evaluations.

Unless the control names one, the first trial step comes from the field
(Hairer, Norsett & Wanner, section II.4): one Euler trial estimates the
second derivative, and the step is sized so that an 8th-order error term
would be 0.01 in the scaled max norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import DetectionError, IntegrationError
from .roots import find_root

# DOP853 tableau. Stages 0-11 make the step, stage 12 is the field at the new
# point, stages 13-15 serve the dense output only.
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])

# Nonzero entries (column: value) of each row of the stage matrix.
_A_ROWS = [
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    # row 12: the 8th-order weights
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
]
_A = np.zeros((16, 16))
for _i, _row in enumerate(_A_ROWS):
    for _j, _a in _row.items():
        _A[_i, _j] = _a
_B = _A[12, :12].copy()
# The step loop reads stage row i as its first i entries, each kept as its own
# array, and the nodes as Python floats: slicing _A and indexing _C at every
# stage cost more than the small products they feed.
_ROWS = [_A[i, :i].copy() for i in range(16)]
_NODES = _C.tolist()

# Error weights on stages 0-11: the 8th-order weights minus the 3rd-order
# ones (E3), and the 5th-order estimate (E5).
_E3 = _B.copy()
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                    0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
_E5 = np.zeros(12)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]

# Weights of the four highest terms of the continuous extension, on stages 0-15.
_D = np.zeros((4, 16))
_D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
]


def _power_weights() -> np.ndarray:
    """Stage weights of the continuous extension in powers of s = (t - t0)/h.

    Hairer's form is y0 + s(F0 + (1-s)(F1 + s(F2 + (1-s)(F3 + s(F4 + (1-s)(F5
    + s F6)))))) with F0 = y1 - y0, F1 = h f0 - F0, F2 = 2 F0 - h (f0 + f1) and
    F3-F6 = h D k, so F_i carries the factor s^(i//2 + 1) (1-s)^((i+1)//2).
    Every F is h times a stage combination, so the polynomial is
    y0 + h sum_j s^j (W[j-1] @ k) for the 7 x 16 matrix W returned here.
    """
    e0, e12, b = np.eye(16)[0], np.eye(16)[12], np.zeros(16)
    b[:12] = _B
    weights = np.zeros((7, 16))
    for i, row in enumerate([b, e0 - b, 2.0 * b - e0 - e12, *_D]):
        first, order = i // 2 + 1, (i + 1) // 2
        for m in range(order + 1):  # binomial expansion of (1 - s)^order
            weights[first + m - 1] += (-1) ** m * math.comb(order, m) * row
    return weights


_W = _power_weights()

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_EVENT_TOL = 1e-12  # time tolerance of Brent's method on an event crossing

# |h lambda| up to which DOP853's amplification factor on the imaginary axis
# stays at most 1 (it exceeds 1 + 1e-6 only from 5.96 on): the step cap, over
# the spectral radius lambda, of an explicit method of lines for a dispersive
# equation. Modes near the cap are damped (the factor is 0.70 at 5.5), so the
# cap suits data whose highest modes carry only roundoff.
IMAGINARY_AXIS_REACH = 5.5


@dataclass
class StepControl:
    """Tolerances and budget for one integration.

    ``initial_step`` is the first trial step, capped by the span (``math.inf``
    asks for the whole span); None, the default, estimates it from the field
    at the initial point. ``max_step`` is optional and caps the step size;
    useful when the right hand side is a semidiscretized PDE whose stability
    limit is known.
    """

    initial_step: float | None = None
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_steps: int = 10_000_000
    max_step: float | None = None

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


@dataclass
class SolverStats:
    """What one integration did: accepted and rejected steps (a
    rejection is a trial step that failed the error test or met a non-finite
    field value), field evaluations (dense-output stages, the first-step
    trial and every stage of a rejected step included), event calls made
    while locating crossings, and the smallest and largest accepted step
    (None before any step)."""

    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    event_evals: int = 0
    min_step: float | None = None
    max_step: float | None = None


@dataclass
class Trajectory:
    """Sampled solution of an ODE.

    ``states[i]`` is the state at ``times[i]``, of shape ``(d,)`` for a single
    system and ``(m, d)`` for a batch of ``m`` rows, so ``states`` is
    ``(n, d)`` or ``(n, m, d)``. A run that stores its nodes also keeps, for
    each step, the coefficients of its DOP853 continuous extension:
    ``coeffs[i, j - 1]`` multiplies s**j, with s running from 0 at
    ``times[i]`` to 1 at ``times[i + 1]``, so ``coeffs`` is ``(n - 1, 7) +``
    the state shape and :meth:`sample` evaluates the 7th-order polynomials.

    With an event, a single system's ``event_time`` is a float and its
    ``event_state`` a ``(d,)`` array, both None when the event never
    happened. A batch holds one ``event_time`` per row, shape ``(m,)``, and
    ``event_state`` of shape ``(m, d)``, NaN in the rows whose event never
    happened. ``stats`` counts the steps and field evaluations of the run
    (of the whole batch, for a row of one).
    """

    times: np.ndarray
    states: np.ndarray
    coeffs: np.ndarray | None = None
    event_time: float | np.ndarray | None = None
    event_state: np.ndarray | None = None
    stats: SolverStats = field(default_factory=SolverStats)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("times and states length mismatch")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("states contain non-finite entries")

    @property
    def y_end(self) -> np.ndarray:
        return self.states[-1]

    def sample(self, t) -> np.ndarray:
        """Dense output at times ``t`` (scalar or array); an array ``t`` of
        length k gives ``(k,) + state shape``."""
        if self.coeffs is None:
            raise ValueError("trajectory holds output-time samples, not nodes")
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if t_arr.min() < self.times[0] - 1e-12 or t_arr.max() > self.times[-1] + 1e-12:
            raise ValueError("sample time outside the integrated span")
        idx = np.clip(np.searchsorted(self.times, t_arr, side="right") - 1, 0, len(self.times) - 2)
        col = (slice(None),) + (None,) * (self.states.ndim - 1)  # broadcast times over the state
        t0 = self.times[idx]
        s = ((t_arr - t0) / (self.times[idx + 1] - t0))[col]
        # Horner's rule in place, taking one power's coefficients at a time,
        # so that no (k, 7) + state-shape array is built
        out = np.take(self.coeffs[:, 6], idx, axis=0)
        for j in range(5, -1, -1):
            out *= s
            out += np.take(self.coeffs[:, j], idx, axis=0)
        out *= s
        out += np.take(self.states, idx, axis=0)
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out

    def row(self, r: int) -> Trajectory:
        """Row ``r`` of a batch trajectory, as the trajectory of a single
        system (views of this one's arrays; the batch's ``stats``)."""
        hit = self.event_time is not None and not np.isnan(self.event_time[r])
        return Trajectory(self.times, self.states[:, r],
                          None if self.coeffs is None else self.coeffs[:, :, r],
                          float(self.event_time[r]) if hit else None,
                          self.event_state[r] if hit else None, self.stats)


def _dense_at(y, coeffs, s):
    """The continuous extension y + sum_j coeffs[j - 1] s**j at the fraction
    ``s`` of its step."""
    out = coeffs[6]
    for j in range(5, -1, -1):
        out = out * s + coeffs[j]
    return y + out * s


def _event_crossing(event, event_min_time, t, h, y, coeffs, g_prev, g_new):
    """Time in (max(t, event_min_time), t + h] where ``event`` turns
    nonpositive on the step's continuous extension ``y``, ``coeffs``, located
    by Brent's method to ``_EVENT_TOL``; None when the crossing lies before
    ``event_min_time``."""
    lo, hi = max(t, event_min_time), t + h

    def g(tq):
        return event(tq, _dense_at(y, coeffs, (tq - t) / h))

    g_lo = g(lo) if lo > t else g_prev
    if np.sign(g_lo) == np.sign(g_new):
        return None
    # the ends are known; at t + h the polynomial matches the step's own
    # event value only to rounding, which could lose the sign change
    ends = {lo: g_lo, hi: g_new}
    return find_root(lambda tq: ends[tq] if tq in ends else g(tq), (lo, hi), _EVENT_TOL)


def _first_step(evaluate, t0: float, y0: np.ndarray, f0: np.ndarray, ctrl: StepControl,
                cap: float) -> float:
    """Hairer, Norsett & Wanner's starting step (section II.4), at most
    ``cap``: h0 = 0.01 |y0| / |f0| in the max norm scaled as the error is,
    one field evaluation at t0 + h0 to estimate |f'|, and the step h1 at
    which an 8th-order error term max(|f0|, |f'|) h1^8 would be 0.01; the
    first step is min(100 h0, h1)."""
    scale = ctrl.abs_tol + ctrl.rel_tol * np.abs(y0)
    d0 = float(np.max(np.abs(y0) / scale))
    d1 = float(np.max(np.abs(f0) / scale))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, cap)
    f1 = evaluate(t0 + h0, y0 + h0 * f0)
    if not np.isfinite(f1).all():  # the stage loop shrinks h0 as far as it must
        return h0
    d2 = float(np.max(np.abs(f1 - f0) / scale)) / h0
    d12 = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if d12 <= 1e-15 else (0.01 / d12) ** (1 / 8)
    return min(100.0 * h0, h1, cap)


def integrate_ode(
    field: Callable[[float, np.ndarray], np.ndarray],
    y0,
    t_span: tuple[float, float],
    ctrl: StepControl | None = None,
    *,
    output_times: Sequence[float] | None = None,
    event: Callable[[float, np.ndarray], float | np.ndarray] | None = None,
    event_min_time: float | Sequence[float] = 0.0,
) -> Trajectory:
    """Integrate ``y' = field(t, y)`` over ``t_span`` with DOP853.

    ``y0`` is one state of shape ``(d,)`` or a batch of ``m`` states of shape
    ``(m, d)``; ``field`` receives and returns arrays of that shape. A batch
    is stepped as one system: the error norm is the max over all entries, so
    the rows share one step sequence and each row is held at least as
    tightly as it would be alone.

    With ``output_times`` the trajectory holds exactly those samples: the
    step's end state where a time falls on it, the step's continuous
    extension where it falls inside. An empty ``output_times`` asks for the
    events alone: the trajectory holds no samples, and only the steps in
    which a row's event crosses build the continuous extension. Without
    ``output_times`` every accepted node is stored with its step's
    extension, for :meth:`Trajectory.sample`.

    ``event`` maps the state to one value per row (a scalar for a ``(d,)``
    state), and ``event_min_time`` is a scalar or one time per row. Each
    row's first downward zero crossing (positive to nonpositive) after its
    ``event_min_time`` is located by Brent's method on that row's slice of
    the continuous extension in the step where it happens, to ``_EVENT_TOL``
    in time; ``event`` then sees that row alone, as a one-row state. The
    run ends at ``t_span[1]`` or once every row has had its event, with the
    last step cut at the latest event time.

    A trial step evaluates all eleven of its stages before it checks their
    values, so a step rejected for a non-finite field value has made every
    one of those calls, and ``stats.rhs_evals`` counts them; the step is then
    retried at a quarter of its size. The three dense-output stages are
    checked together after the last of them.
    """
    ctrl = ctrl or StepControl()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be a nonempty forward interval")
    y = np.array(y0, dtype=float)
    shape = y.shape
    if y.ndim not in (1, 2):
        raise ValueError("the state must have shape (d,) or (m, d)")
    batch = y.ndim == 2
    n_rows, width = shape if batch else (1, shape[0])
    stats = SolverStats()
    y = y.reshape(-1)  # the steps run on the flattened state; the field sees the rows

    def evaluate(t, u):
        stats.rhs_evals += 1
        return np.asarray(field(t, u.reshape(shape)), dtype=float).reshape(-1)

    def nonfinite(where: str, stages) -> IntegrationError:
        """The error for the non-finite values among the field values
        ``stages``; in a batch it names the rows of the first non-finite one."""
        msg = f"field returned non-finite values {where}"
        if batch:
            values = next(v for v in stages if not np.isfinite(v).all())
            bad = ~np.all(np.isfinite(values.reshape(n_rows, width)), axis=1)
            msg += f" in row(s) {np.flatnonzero(bad).tolist()}"
        return IntegrationError(msg)

    out_req = None
    if output_times is not None:
        out_req = np.asarray(output_times, dtype=float)
        if out_req.size and (out_req.min() < t0 - 1e-12 or out_req.max() > t1 + 1e-12):
            raise ValueError("output_times must lie inside t_span")

    f = evaluate(t0, y)
    if not np.all(np.isfinite(f)):
        raise nonfinite("at the initial point", [f])

    ts = [t0]
    ys = [y.copy()]
    cs: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    out_ts: list[float] = []
    next_out = 0
    if out_req is not None:
        while next_out < out_req.size and out_req[next_out] <= t0 + 1e-15:
            out_ts.append(float(out_req[next_out]))
            out_vals.append(y.copy())
            next_out += 1

    if event is not None:
        def row_events(t, u):
            return np.reshape(event(t, u.reshape(shape)), -1)

        def one_row_event(t, u):  # the event of one row's (width,) state
            stats.event_evals += 1
            return np.reshape(event(t, u.reshape(1, width) if batch else u), -1)[0]

        min_times = np.broadcast_to(np.asarray(event_min_time, dtype=float), (n_rows,))
        event_times = np.full(n_rows, np.nan)
        event_states = np.full((n_rows, width), np.nan)
        g_prev = row_events(t0, y)
    finished = False

    cap = t1 - t0 if ctrl.max_step is None else min(t1 - t0, ctrl.max_step)
    h = (_first_step(evaluate, t0, y, f, ctrl, cap) if ctrl.initial_step is None
         else min(ctrl.initial_step, cap))
    t = t0
    k = np.empty((16, y.size))

    while t < t1:
        if stats.accepted + stats.rejected >= ctrl.max_steps:
            raise IntegrationError(f"step budget {ctrl.max_steps} exhausted at t={t:.6g}")
        last = h >= t1 - t
        if last:
            h = t1 - t
        k[0] = f
        for i in range(1, 12):
            k[i] = evaluate(t + _NODES[i] * h, y + h * (_ROWS[i] @ k[:i]))
        if not np.isfinite(k[1:12]).all():
            stats.rejected += 1
            h *= 0.25
            if h < 1e-15 * max(abs(t), 1.0):
                raise nonfinite(f"near t={t:.6g}", k[1:12])
            continue
        y_new = y + h * (_B @ k[:12])
        scale = ctrl.abs_tol + ctrl.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err5 = float(np.max(np.abs(h * (_E5 @ k[:12])) / scale))
        err3 = float(np.max(np.abs(h * (_E3 @ k[:12])) / scale))
        # err5^2 / sqrt(err5^2 + 0.01 err3^2), without squaring tiny errors to 0
        norm = err5 * (err5 / math.hypot(err5, 0.1 * err3)) if err5 > 0.0 else 0.0
        if norm > 1.0:
            stats.rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * norm ** (-1 / 8))
            continue
        stats.accepted += 1
        stats.min_step = h if stats.min_step is None else min(stats.min_step, h)
        stats.max_step = h if stats.max_step is None else max(stats.max_step, h)
        t_new = t1 if last else t + h

        # the field at the new point serves the next step and the continuous
        # extension, which a step needs for stored nodes, an output time
        # strictly inside it or an event in it
        if event is not None:
            g_new = row_events(t_new, y_new)
            hits = np.isnan(event_times) & (t_new > min_times) & (g_prev > 0.0) & (g_new <= 0.0)
        dense = (out_req is None or (event is not None and hits.any())
                 or (next_out < out_req.size and out_req[next_out] < t_new))
        if dense or not last:
            k[12] = evaluate(t_new, y_new)
            if not np.isfinite(k[12]).all():
                raise nonfinite(f"at t={t_new:.6g}", k[12:13])
        coeffs = None
        if dense:
            for i in range(13, 16):
                k[i] = evaluate(t + _NODES[i] * h, y + h * (_ROWS[i] @ k[:i]))
            if not np.isfinite(k[13:16]).all():
                raise nonfinite(f"near t={t:.6g}", k[13:16])
            coeffs = h * (_W @ k)

        t_end, y_end = t_new, y_new  # last point this step emits
        if event is not None:
            for r in np.flatnonzero(hits):  # each row searches its own slice of the step
                y_r, c_r = y.reshape(n_rows, width)[r], coeffs.reshape(7, n_rows, width)[:, r]
                crossing = _event_crossing(one_row_event, min_times[r], t, h, y_r, c_r,
                                           g_prev[r], g_new[r])
                if crossing is not None:
                    event_times[r] = crossing
                    event_states[r] = _dense_at(y_r, c_r, (crossing - t) / h)
            g_prev = g_new
            finished = hits.any() and not np.isnan(event_times).any()
            if finished:
                t_end = float(event_times.max())
                y_end = _dense_at(y, coeffs, (t_end - t) / h)

        if out_req is not None:
            while next_out < out_req.size and out_req[next_out] <= t_end + 1e-15:
                tq = float(out_req[next_out])
                out_ts.append(tq)
                out_vals.append(y_new if tq >= t_new else _dense_at(y, coeffs, (tq - t) / h))
                next_out += 1
        else:
            ts.append(t_end)
            ys.append(y_end.copy())
            if t_end < t_new:  # the cut step: rescale its polynomial onto [t, t_end]
                coeffs *= (((t_end - t) / h) ** np.arange(1, 8))[:, None]
            cs.append(coeffs)
        if finished:
            break

        t, y, f = t_new, y_new, k[12].copy()
        factor = _MAX_FACTOR if norm == 0.0 else min(_MAX_FACTOR, _SAFETY * norm ** (-1 / 8))
        h *= max(_MIN_FACTOR, factor)
        if ctrl.max_step is not None:
            h = min(h, ctrl.max_step)

    if out_req is not None:
        if out_req.size and not out_ts:
            raise DetectionError("no output times fell inside the integrated span")
        traj = Trajectory(np.array(out_ts), np.array(out_vals).reshape((-1, n_rows, width)),
                          stats=stats)
    else:
        traj = Trajectory(np.array(ts), np.array(ys).reshape((-1, n_rows, width)),
                          coeffs=np.array(cs).reshape((-1, 7, n_rows, width)), stats=stats)
    if event is not None:
        traj.event_time, traj.event_state = event_times, event_states
    return traj if batch else traj.row(0)
