"""The fourth-order exponential time differencing Runge-Kutta scheme (ETDRK4)
of Cox & Matthews (J. Comput. Phys. 176, 2002) for v' = L v + N(t, v) with a
diagonal linear part L, which it integrates exactly.

The phi-function weights are taken as means over a circle of
``CONTOUR_POINTS`` points around each h L (Kassam & Trefethen, SIAM J. Sci.
Comput. 26, 2005), which avoids the cancellation of their closed forms near
h L = 0. The full circle serves real and imaginary spectra alike; a zero
multiplier gets the classical RK4 weights h/2, h/6, h/3 and h/6.

Steps taken as rows of one stacked pass give the bits of the separate steps.
Numpy's complex product rounds differently with its operands swapped, and
numpy swaps them to reuse a temporary right operand of 2^18 bytes or more in
place: ``Etdrk4.step`` builds its stages in place, with the operands of
each product in a fixed order, and a stack of coefficients is built in
blocks below that size.
"""

from __future__ import annotations

import math

import numpy as np

CONTOUR_POINTS = 32
_CONTOUR = np.exp(2j * math.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS)
CHECK_STEPS = 8  # steps between two step-doubling checks; a check costs two extra steps
MAX_GROWTH = 5.0  # most a check may raise the accuracy bound, in multiples of its step
# Steps that agree to this many digits share their coefficients: equal
# intervals from ``linspace`` differ in their last bits.
STEP_DIGITS = 12
CACHED_STEPS = 32  # a full cache starts over; the CSF runs use 22 to 27 ladder steps
# Most bytes of one contour temporary (rows, L.size, CONTOUR_POINTS) while a
# stack of coefficients is built: the whole stack of 128 rows at N = 32 at
# once raised the peak memory of ``torsion stability`` by 6 MB.
STACK_BLOCK_BYTES = 2 ** 16


def etdrk4_coefficients(L: np.ndarray, h):
    """exp(hL), exp(hL/2) and the weights Q, f1, 2 f2, f3 of one step h
    (``Etdrk4.step``), or of steps ``h`` of shape (k, 1) as rows (k, ·).
    All six are complex: exp(hL) and exp(hL/2) of a real L are cast once
    here, exactly, rather than at each product with the state."""
    hL = h * L
    z = hL[..., None] + _CONTOUR
    ez = np.exp(z)
    z3 = z ** 3
    q = h * np.mean((np.exp(0.5 * z) - 1.0) / z, axis=-1)
    f1 = h * np.mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3, axis=-1)
    f2 = h * np.mean((2.0 + z + ez * (z - 2.0)) / z3, axis=-1)
    f3 = h * np.mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3, axis=-1)
    return (np.exp(hL).astype(complex, copy=False), np.exp(0.5 * hL).astype(complex, copy=False),
            q, f1, 2.0 * f2, f3)


class Etdrk4:
    """ETDRK4 steps of v' = L v + ``remainder``(t, v), with the counts of
    steps taken (a check counts as three), checks and rejected checks, and
    of the remainder calls the stepper makes and the state rows they carry
    (the N(v) that a caller passes in is the caller's). ``remainder`` takes
    a state with a leading axis of rows, with ``t`` an array (rows, 1) of
    one time per row, as well as a single state, and returns a new array;
    ``step`` may overwrite that array, and the state it was given, once the
    call has returned."""

    def __init__(self, L: np.ndarray, remainder):
        self.L = L
        self.remainder = remainder
        self.h_acc = math.inf
        self.since_check = CHECK_STEPS  # the first step is checked
        self.steps = self.checks = self.rejected = 0
        self.calls = self.rows = 0
        self._coef = {}
        self._pairs = {}
        self._stack = np.empty(0), ()  # offsets and coefficients (``coefficient_stack``)

    def coefficients(self, h: float) -> tuple:
        key = float(f"{h:.{STEP_DIGITS}e}")
        coef = self._coef.get(key)
        if coef is None:
            if len(self._coef) >= CACHED_STEPS:
                self._coef.clear()
            coef = self._coef[key] = etdrk4_coefficients(self.L, h)
        return coef

    def coefficient_pair(self, h: float) -> tuple:
        """``coefficients``(h) and ``coefficients``(h/2) stacked as rows
        (2, ·): one step of both from one state (``advance``). A pair is
        cached with the two entries it was stacked from, and stacked anew
        once either has left their cache."""
        coef, half = self.coefficients(h), self.coefficients(0.5 * h)
        key = float(f"{h:.{STEP_DIGITS}e}")
        entry = self._pairs.get(key)
        if entry is None or entry[0] is not coef or entry[1] is not half:
            if len(self._pairs) >= CACHED_STEPS:
                self._pairs.clear()
            entry = self._pairs[key] = (
                coef, half, tuple(np.stack(rows) for rows in zip(coef, half)))
        return entry[2]

    def coefficient_stack(self, offsets: np.ndarray) -> tuple:
        """The coefficients of the steps ``offsets`` (k,) from one state,
        stacked as rows (k, ·), built by vectorised ``etdrk4_coefficients``
        calls over blocks of rows (``STACK_BLOCK_BYTES``). The stack is
        cached as one entry that serves every run of offsets agreeing with
        its first rows to ``STEP_DIGITS`` digits of their largest, and grows
        by the rows a longer run adds: equally spaced outputs repeat their
        offsets from step to step, though not their count, and not their bits
        (1e-3 becomes 9.9999999999989e-4 past t = 0.5, which a key rounded
        to ``STEP_DIGITS`` would tell apart)."""
        have, coef = self._stack
        k = min(have.size, offsets.size)
        if k and np.max(np.abs(have[:k] - offsets[:k])) > 10.0 ** -STEP_DIGITS * offsets[k - 1]:
            have, coef = have[:0], ()
        if offsets.size > have.size:
            per_block = max(1, STACK_BLOCK_BYTES // (16 * CONTOUR_POINTS * self.L.size))
            blocks = [coef] if coef else []
            blocks += [etdrk4_coefficients(self.L, offsets[j:j + per_block, None])
                       for j in range(have.size, offsets.size, per_block)]
            coef = tuple(map(np.concatenate, zip(*blocks)))
            self._stack = np.concatenate([have, offsets[have.size:]]), coef
        return tuple(rows[:offsets.size] for rows in coef)

    def step(self, v: np.ndarray, t, h, coef: tuple, Nv: np.ndarray) -> np.ndarray:
        """The state one step h after v at time t, from the coefficients
        ``coef`` of h and the remainder ``Nv`` at v:

            a = E2 v + Q N(v),  b = E2 v + Q N(a),  c = E2 a + Q (2 N(b) - N(v)),
            v + h = E v + f1 N(v) + 2 f2 (N(a) + N(b)) + f3 N(c).

        Stacked coefficients (k, ·) with a step per row, ``h`` of shape
        (k, 1), take k steps from v at once. The stages are built in place,
        on their own temporaries and on the remainder's results, with the
        operands of every product in the order above; ``v`` and ``Nv`` are
        not written."""
        E, E2, Q, f1, f2x2, f3 = coef
        N = self.remainder
        self.calls += 3
        self.rows += 3 * (E.size // self.L.size)
        E2v = E2 * v
        a = Q * Nv
        a += E2v
        Na = N(t + 0.5 * h, a)
        b = Q * Na
        b += E2v
        Nb = N(t + 0.5 * h, b)
        d = np.add(Nb, Nb, out=b)  # b is spent: 2 N(b) - N(v) takes its place
        d -= Nv
        c = E2 * a
        c += np.multiply(Q, d, out=d)
        Nc = N(t + h, c)
        out = E * v
        out += np.multiply(f1, Nv, out=a)
        Na += Nb
        out += np.multiply(f2x2, Na, out=Na)
        out += np.multiply(f3, Nc, out=Nc)
        return out

    def advance(self, v: np.ndarray, t: float, h: float, Nv: np.ndarray,
                error) -> np.ndarray | None:
        """One step h from v at time t, with the remainder ``Nv`` at v. The
        first step and one in every ``CHECK_STEPS`` after it are also taken
        as two half steps, which are kept: ``error``(fine, coarse) is then
        their error ratio against the single step, which sets the accuracy
        bound ``h_acc`` on the next steps, and a ratio above 1 (or not
        finite) rejects the step (None).

        The single step and the first half step start from the same v and
        N(v), so a check takes them as one stacked pass (``coefficient_pair``,
        with the stage times of each row); its results are those of the
        separate steps bit for bit. A check makes seven remainder calls
        carrying ten rows, where the three steps one after another would
        make ten calls."""
        if self.since_check < CHECK_STEPS:
            self.steps += 1
            self.since_check += 1
            return self.step(v, t, h, self.coefficients(h), Nv)
        coarse, mid = self.step(v, t, np.array([[h], [0.5 * h]]), self.coefficient_pair(h), Nv)
        fine = self.step(mid, t + 0.5 * h, 0.5 * h, self.coefficients(0.5 * h),
                         self.remainder(t + 0.5 * h, mid))
        self.calls += 1
        self.rows += 1
        self.steps += 3
        self.checks += 1
        ratio = error(fine, coarse)
        if not math.isfinite(ratio):
            ratio = math.inf
        self.h_acc = h * (min(MAX_GROWTH, max(0.2, 0.9 * ratio ** -0.2)) if ratio > 0.0
                          else MAX_GROWTH)
        if ratio > 1.0:
            self.rejected += 1
            return None
        self.since_check = 0
        return fine
