"""Tests for the shared numerical kernels."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geomflow.csf import make_concinnous_eight, resample_uniform
from geomflow.csf.evolve import ThetaLengthFlow
from geomflow.errors import BracketError, QuadratureError
from geomflow.geoflow.periods import endpoint_times, orbit_terms, period_numeric
from geomflow.numerics.etd import CACHED_STEPS, CHECK_STEPS, Etdrk4, etdrk4_coefficients
from geomflow.numerics.ode import StepControl, integrate_ode
from geomflow.numerics.periodic import (PeriodicPrimitive, cyclic_shift, irfft, periodic_grid,
                                        rfft, trig_interpolant, wavenumbers)
from geomflow.numerics.quadrature import _GAUSS32_NODES, _GAUSS32_WEIGHTS, integrate_singular
from geomflow.numerics.roots import find_root
from geomflow.numerics.special import elliptic_K
from geomflow.torsionflow import UNIT_CURVATURE
from geomflow.torsionflow.evolve import torsion_stepper
from oracles import fd4_derivative, spectral_derivative


class TestIntegrateOde:
    def test_zero_field_constant(self):
        tr = integrate_ode(lambda t, y: np.zeros(3), [1.0, 2.0, 3.0], (0.0, 1.0))
        assert np.allclose(tr.y_end, [1.0, 2.0, 3.0], atol=0.0)

    def test_exponential(self):
        tr = integrate_ode(lambda t, y: y, [1.0], (0.0, 1.0),
                           StepControl(abs_tol=1e-11, rel_tol=1e-11))
        assert abs(tr.y_end[0] - math.e) < 1e-9

    def test_harmonic_returns_home(self):
        # y'' = -y as a 2-system: closed-form circular solution returns to the start
        tr = integrate_ode(lambda t, y: np.array([y[1], -y[0]]), [1.0, 0.0],
                           (0.0, 2.0 * math.pi), StepControl(abs_tol=1e-12, rel_tol=1e-12))
        assert np.max(np.abs(tr.y_end - np.array([1.0, 0.0]))) < 1e-8

    def test_tolerance_self_consistency(self):
        field = lambda t, y: np.array([math.sin(t) * y[0] - 0.3 * y[0] ** 2 + 0.1])
        coarse = integrate_ode(field, [0.7], (0.0, 4.0), StepControl(abs_tol=1e-8, rel_tol=1e-8))
        fine = integrate_ode(field, [0.7], (0.0, 4.0), StepControl(abs_tol=5e-9, rel_tol=5e-9))
        # halving tolerances moves the terminal state by less than the coarse budget
        assert abs(coarse.y_end[0] - fine.y_end[0]) < 1e-7

    def test_event_detection(self):
        tr = integrate_ode(lambda t, y: np.array([y[1], -y[0]]), [1.0, 0.0], (0.0, 10.0),
                           StepControl(abs_tol=1e-12, rel_tol=1e-12),
                           event=lambda t, y: y[0])
        assert tr.event_time == pytest.approx(math.pi / 2, abs=1e-9)

    def test_dense_output_sampling(self):
        tr = integrate_ode(lambda t, y: np.array([math.cos(t)]), [0.0], (0.0, 3.0),
                           StepControl(abs_tol=1e-11, rel_tol=1e-11))
        ts = np.linspace(0.0, 3.0, 57)
        assert np.max(np.abs(tr.sample(ts)[:, 0] - np.sin(ts))) < 1e-6

    def test_nonfinite_field_raises(self):
        from geomflow.errors import IntegrationError
        with pytest.raises(IntegrationError):
            integrate_ode(lambda t, y: np.array([float("nan")]), [1.0], (0.0, 1.0))

    def test_nonfinite_stage_rejects_the_step_after_all_its_stages(self):
        # call 4 is stage 3 of the first trial step: the trial still takes all
        # eleven stages, is rejected, and every later step (15 calls with the
        # dense stages of the stored nodes) is accepted
        calls = []

        def field(t, y):
            calls.append(t)
            return np.full_like(y, np.nan if len(calls) == 4 else 1.0)

        tr = integrate_ode(field, [0.0], (0.0, 1.0), StepControl(initial_step=0.5))
        assert tr.stats.rejected == 1
        assert tr.stats.rhs_evals == len(calls) == 1 + 11 + 15 * tr.stats.accepted
        assert tr.y_end[0] == pytest.approx(1.0, abs=1e-14)

    def test_step_budget(self):
        from geomflow.errors import IntegrationError
        with pytest.raises(IntegrationError):
            integrate_ode(lambda t, y: y, [1.0], (0.0, 1.0), StepControl(max_steps=3))

    def test_step_control_validation(self):
        with pytest.raises(ValueError):
            StepControl(abs_tol=0.0)
        with pytest.raises(ValueError):
            StepControl(max_steps=0)


class TestDop853Core:
    """The DOP853 tableau, its observed order and the solver statistics."""

    def test_tableau_matches_scipy(self):
        coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        from geomflow.numerics import ode
        assert np.max(np.abs(ode._A - coefficients.A)) <= 1e-15
        assert np.max(np.abs(ode._B - coefficients.B)) <= 1e-15
        assert np.max(np.abs(ode._C - coefficients.C)) <= 1e-15
        assert np.max(np.abs(ode._D - coefficients.D)) <= 1e-15
        # scipy's error weights carry a zero for the stage at the new point
        for ours, theirs in ((ode._E3, coefficients.E3), (ode._E5, coefficients.E5)):
            assert theirs[12] == 0.0
            assert np.max(np.abs(ours - theirs[:12])) <= 1e-15

    def test_observed_order_is_eight(self):
        # fixed steps: max_step = initial_step = h and tolerances no step fails
        def end_error(h):
            tr = integrate_ode(lambda t, y: np.cos(t) * y, [1.0], (0.0, 4.0),
                               StepControl(initial_step=h, max_step=h, abs_tol=1.0, rel_tol=1.0))
            assert tr.stats.rejected == 0 and tr.stats.max_step == h
            return abs(tr.y_end[0] - math.exp(math.sin(4.0)))

        ratio = end_error(0.5) / end_error(0.25)
        assert 7.5 < math.log2(ratio) < 8.5

    def test_stats_count_every_field_call(self):
        calls = []

        def field(t, y):
            calls.append(t)
            return _van_der_pol(t, y)

        for output_times in (None, [4.0, 8.0]):
            calls.clear()
            tr = integrate_ode(field, [2.0, 0.0], (0.0, 8.0), StepControl(abs_tol=1e-10, rel_tol=1e-10),
                               output_times=output_times)
            assert tr.stats.rhs_evals == len(calls)
            assert tr.stats.accepted > 0 and tr.stats.rejected > 0
            assert 0.0 < tr.stats.min_step <= tr.stats.max_step

    def test_output_time_at_a_step_end_needs_no_dense_stages(self):
        # one step over the whole span: the initial field, 11 stages and no more
        tr = integrate_ode(lambda t, y: -y, [1.0], (0.0, 0.1),
                           StepControl(initial_step=math.inf, abs_tol=1e-8, rel_tol=1e-8),
                           output_times=[0.1])
        assert (tr.stats.accepted, tr.stats.rejected, tr.stats.rhs_evals) == (1, 0, 12)

    @staticmethod
    def _field_times(span, ctrl):
        """Times of every field call of y' = -y from 1 over (0, span)."""
        calls = []

        def field(t, y):
            calls.append(t)
            return -y

        tr = integrate_ode(field, [1.0], (0.0, span), ctrl, output_times=[span])
        assert tr.stats.rhs_evals == len(calls)
        return tr, calls

    def test_first_step_comes_from_the_field(self):
        # at tolerance 1e-8 the scale is 2e-8: h0 = 0.01 |y0| / |f0| = 0.01, and
        # the Euler trial to 0.01 gives |f'| = |f0|, so the first step is
        # h1 = (0.01 / |f0|)^(1/8) = (2e-10)^(1/8) = 0.061; calls 0 and 1 are
        # the field at t0 and the trial, call 12 is stage 11 at t0 + h
        tr, calls = self._field_times(10.0, StepControl(abs_tol=1e-8, rel_tol=1e-8))
        assert calls[1] == 0.01
        assert calls[12] == pytest.approx(2e-10 ** 0.125, rel=1e-12)
        assert abs(tr.y_end[0] - math.exp(-10.0)) < 1e-9

    @pytest.mark.parametrize("span, max_step", [(1e-3, None), (10.0, 0.02)])
    def test_first_step_respects_span_and_max_step(self, span, max_step):
        tr, calls = self._field_times(
            span, StepControl(abs_tol=1e-8, rel_tol=1e-8, max_step=max_step))
        assert calls[1] == min(0.01, span)  # the trial stays inside the span
        assert calls[12] == min(span, max_step or span)
        if max_step is None:  # one step, whose end is the output time
            assert (tr.stats.accepted, tr.stats.rejected, tr.stats.rhs_evals) == (1, 0, 13)
        else:
            assert tr.stats.max_step <= max_step


# a stiff, dispersive diagonal part and a time-dependent quadratic remainder
_ETD_L = np.array([0.0, -1.0, -10.0, -100.0, 5j, -20.0 + 30j])
_ETD_V0 = np.array([0.5, 0.4, -0.3, 0.2, 0.1 + 0.2j, 0.3 - 0.1j])


def _etd_stepper(calls: list | None = None) -> Etdrk4:
    def remainder(t, v):
        if calls is not None:
            calls.append(v.size // _ETD_L.size)  # the state rows of the call
        return np.cos(t) * v * v - 0.5 * v + 0.3

    return Etdrk4(_ETD_L, remainder)


def _plain_step(etd: Etdrk4, v: np.ndarray, t: float, h: float) -> np.ndarray:
    """One ETDRK4 step with freshly computed coefficients and remainder."""
    return etd.step(v, t, h, etdrk4_coefficients(_ETD_L, h), etd.remainder(t, v))


class TestEtdrk4Core:
    """The shared ETDRK4 stepper: coefficients, order, the checked step, the
    remainder evaluations and the coefficient cache."""

    def test_zero_multiplier_gets_rk4_weights(self):
        h = 0.01
        E, E2, Q, f1, f2x2, f3 = etdrk4_coefficients(np.zeros(1), h)
        for got, want in [(E, 1.0), (E2, 1.0), (Q, h / 2), (f1, h / 6), (f2x2, h / 3),
                          (f3, h / 6)]:
            assert abs(got[0] - want) <= 1e-15 * max(want, 1.0)

    def test_observed_order_four(self):
        # halving h divides the error by about 16 (measured 16.0-16.1 here)
        def fixed_steps(m):
            etd, v, h = _etd_stepper(), _ETD_V0, 1.0 / m
            for j in range(m):
                v = _plain_step(etd, v, j * h, h)
            return v

        ref = fixed_steps(1024)
        errs = [np.max(np.abs(fixed_steps(m) - ref)) for m in (8, 16, 32, 64)]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(14.0 < r < 18.0 for r in ratios), ratios

    def test_checked_step_is_two_half_steps(self):
        etd, h, t = _etd_stepper(), 0.1, 0.2
        seen = []
        fine = etd.advance(_ETD_V0, t, h, etd.remainder(t, _ETD_V0),
                           lambda f, c: seen.append((f, c)) or 0.5)
        half = _plain_step(etd, _plain_step(etd, _ETD_V0, t, 0.5 * h), t + 0.5 * h, 0.5 * h)
        assert np.array_equal(fine, half) and np.array_equal(seen[0][0], half)
        assert np.array_equal(seen[0][1], _plain_step(etd, _ETD_V0, t, h))
        assert (etd.steps, etd.checks, etd.rejected, etd.since_check) == (3, 1, 0, 0)
        assert etd.h_acc == h * 0.9 * 0.5 ** -0.2

    @pytest.mark.parametrize("ratio,factor", [(2.0, 0.9 * 2.0 ** -0.2), (math.nan, 0.2),
                                              (math.inf, 0.2)])
    def test_rejected_check_keeps_the_next_step_checked(self, ratio, factor):
        etd, h = _etd_stepper(), 0.1
        assert etd.advance(_ETD_V0, 0.0, h, etd.remainder(0.0, _ETD_V0),
                           lambda f, c: ratio) is None
        assert (etd.checks, etd.rejected, etd.since_check) == (1, 1, CHECK_STEPS)
        assert etd.h_acc == h * factor

    def test_remainder_evaluations(self):
        # N(v) and three stages a step; a check takes the single step and the
        # first half step from the shared N(v) as one stacked pass of three
        # two-row calls, then the second half step
        calls = []
        etd = _etd_stepper(calls)
        v = etd.advance(_ETD_V0, 0.0, 0.1, etd.remainder(0.0, _ETD_V0), lambda f, c: 0.0)
        assert calls == [1, 2, 2, 2, 1, 1, 1, 1] and etd.h_acc == 0.5
        assert (etd.calls, etd.rows) == (7, 10)  # the stepper's own, without N(v)
        calls.clear()
        etd.advance(v, 0.1, 0.1, etd.remainder(0.1, v), lambda f, c: 0.0)
        assert calls == [1, 1, 1, 1] and etd.steps == 4
        assert (etd.calls, etd.rows) == (10, 13)

    def test_coefficient_cache(self):
        etd = _etd_stepper()
        coef = etd.coefficients(0.1)
        assert etd.coefficients(0.1 * (1.0 + 1e-14)) is coef  # equal to 12 digits
        for got, want in zip(coef, etdrk4_coefficients(_ETD_L, 0.1)):
            assert np.array_equal(got, want)
        for j in range(3 * CACHED_STEPS):
            etd.coefficients(0.01 * (j + 1))
            assert len(etd._coef) <= CACHED_STEPS

    def test_coefficient_pair_stacks_the_cached_coefficients(self):
        # the pair of a check always holds the coefficients a separate single
        # step and half step would use, also once the cache has started over
        # and a step equal to 12 digits has computed them anew
        etd = _etd_stepper()
        for h in (0.1, 0.1 * (1.0 - 1e-14)):
            pair = etd.coefficient_pair(h)
            assert etd.coefficient_pair(h) is pair
            for rows, coef, half in zip(pair, etd.coefficients(h), etd.coefficients(0.5 * h)):
                assert np.array_equal(rows, np.stack((coef, half)))
            for j in range(CACHED_STEPS):
                etd.coefficients(0.003 * (j + 1))

    def test_coefficient_stack_rows_are_the_single_coefficients(self):
        # a stack of 200 steps gives each row the bits of its own step: it is
        # built in blocks below the size at which numpy reuses temporaries in
        # place and rounds complex products with their operands swapped, as
        # one call for all 200 rows would
        etd = _etd_stepper()
        offsets = np.linspace(0.0, 0.3, 301)[1:]
        stack = etd.coefficient_stack(offsets[:200])
        for k, h in enumerate(offsets[:200]):
            for rows, single in zip(stack, etdrk4_coefficients(_ETD_L, h)):
                assert np.array_equal(rows[k], single)
        # the entry serves offsets equal to 12 digits of the largest, also
        # where 1e-3 has become 9.9999999999989e-4, as times[k] - t does past
        # t = 0.5, and a shorter run of them, without a new build
        entry = etd._stack
        for same in (offsets[:200] * (1.0 + 1e-14), offsets[:200] - 1.1e-16, offsets[:37]):
            got = etd.coefficient_stack(same)
            assert etd._stack is entry
            assert all(np.array_equal(a, b[:same.size]) for a, b in zip(got, stack))
        # a longer run adds its new rows, and other offsets start over
        longer = etd.coefficient_stack(offsets)
        for k, h in enumerate(offsets):
            for rows, single in zip(longer, etdrk4_coefficients(_ETD_L, h)):
                assert np.array_equal(rows[k], single)
        other = etd.coefficient_stack(0.5 * offsets[:10])
        assert etd._stack[0].size == 10
        assert np.array_equal(other[0][-1], np.exp(0.5 * offsets[9] * _ETD_L))


def _reference_step(etd: Etdrk4, v, t, h, coef: tuple, Nv) -> np.ndarray:
    """ETDRK4 step as one expression per stage, with exp(hL) and exp(hL/2)
    of a real L taken real: the stages that ``Etdrk4.step`` builds in
    place."""
    E, E2, Q, f1, f2x2, f3 = coef
    if np.isrealobj(etd.L):
        E, E2 = E.real, E2.real
    N = etd.remainder
    E2v = E2 * v
    a = E2v + Q * Nv
    Na = N(t + 0.5 * h, a)
    b = E2v + Q * Na
    Nb = N(t + 0.5 * h, b)
    c = E2 * a + np.multiply(Q, 2.0 * Nb - Nv)
    Nc = N(t + h, c)
    return E * v + f1 * Nv + np.multiply(f2x2, Na + Nb) + f3 * Nc


def _bits(a: np.ndarray) -> np.ndarray:
    """The float64 words of a complex array: ``array_equal`` counts -0.0
    equal to 0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestEtdrk4InPlaceStages:
    """``Etdrk4.step`` builds its stages in place: the bits of the stage
    expressions, without writing into v or N(v)."""

    def _check(self, etd, v, t, h, coef, Nv):
        v0, Nv0 = v.copy(), Nv.copy()
        got = etd.step(v, t, h, coef, Nv)
        assert np.array_equal(_bits(v), _bits(v0)) and np.array_equal(_bits(Nv), _bits(Nv0))
        want = _reference_step(etd, v, t, h, coef, Nv)
        assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("shear", [0.0, 0.05], ids=["symmetric eight", "bent eight"])
    def test_csf_flow(self, shear):
        # real L; one state, and a check's two-row pass of a step and its half
        P = make_concinnous_eight(1.0, n_points=128).points
        P = np.column_stack([P[:, 0] + shear * P[:, 1], P[:, 1] + 2.0 * shear * P[:, 0] ** 2])
        flow = ThetaLengthFlow(resample_uniform(P))
        assert flow.fixed_centroid == (shear == 0.0)
        etd, v = flow.etd, flow.v
        Nv = flow.rate(v)[0]
        h = 2.0 ** -9
        self._check(etd, v, 0.0, h, etd.coefficients(h), Nv)
        self._check(etd, v, 0.0, np.array([[h], [0.5 * h]]), etd.coefficient_pair(h), Nv)

    def test_torsion_flow_on_a_stack(self):
        # imaginary L; the outputs inside one step as one stacked pass
        n, t = 128, 0.3
        tau = 2.0 + 0.5 * np.sin(periodic_grid(n)) + 0.2 * np.cos(3.0 * periodic_grid(n))
        stepper, flux = torsion_stepper(UNIT_CURVATURE, n, float(np.mean(tau)))
        v = rfft(tau)
        offsets = np.linspace(0.0, 2e-4, 6)[1:]
        self._check(stepper, v, t, offsets[:, None], stepper.coefficient_stack(offsets),
                    flux(tau) - stepper.L * v)


def _van_der_pol(t, y):
    """Van der Pol field on one state (2,) or on a batch of rows (m, 2), with
    the same bits on both (numpy's scalar ``x ** 2`` is not always ``x * x``)."""
    x, v = y.T
    return np.array([v, (1.0 - x * x) * v - x]).T


class TestIntegrateOdeAgainstDop853:
    """``integrate_ode`` against scipy's DOP853 on the Van der Pol
    oscillator, whose x crosses zero downward at t = 2.16, 8.82, 15.49."""

    def test_end_state(self):
        integrate = pytest.importorskip("scipy.integrate")
        tr = integrate_ode(_van_der_pol, [2.0, 0.0], (0.0, 8.0),
                           StepControl(abs_tol=1e-13, rel_tol=1e-13))
        ref = integrate.solve_ivp(_van_der_pol, (0.0, 8.0), [2.0, 0.0], method="DOP853",
                                  rtol=1e-13, atol=1e-13)
        assert np.max(np.abs(tr.y_end - ref.y[:, -1])) < 1e-11

    @pytest.mark.parametrize("output_times", [None, np.linspace(0.0, 20.0, 41)])
    def test_event_after_min_time(self, output_times):
        # event_min_time = 3 skips the crossing at 2.16; the run ends at 8.82
        integrate = pytest.importorskip("scipy.integrate")
        crossing = lambda t, y: y[0]
        crossing.direction = -1
        ref = integrate.solve_ivp(_van_der_pol, (0.0, 20.0), [2.0, 0.0], method="DOP853",
                                  rtol=1e-13, atol=1e-13, events=crossing)
        expected = ref.t_events[0][ref.t_events[0] > 3.0][0]
        tr = integrate_ode(_van_der_pol, [2.0, 0.0], (0.0, 20.0),
                           StepControl(abs_tol=1e-14, rel_tol=1e-14),
                           output_times=output_times, event=crossing, event_min_time=3.0)
        assert tr.event_time == pytest.approx(expected, rel=1e-12)
        assert abs(tr.event_state[0]) < 1e-9
        if output_times is None:
            assert tr.times[-1] == tr.event_time
            assert np.array_equal(tr.states[-1], tr.event_state)
        else:
            assert np.array_equal(tr.times, output_times[output_times <= tr.event_time])

    def test_stored_derivatives_are_the_field(self):
        # each step's stored polynomial runs from node to node, and its slope
        # at both ends is the field there (at the start only for the last
        # step, which is cut at the event), to rounding in the stage weights
        # (up to about 500 in size)
        tr = integrate_ode(_van_der_pol, [2.0, 0.0], (0.0, 20.0),
                           StepControl(abs_tol=1e-10, rel_tol=1e-10),
                           event=lambda t, y: y[0], event_min_time=3.0)
        c = tr.coeffs
        assert c.shape == (tr.times.size - 1, 7, 2)
        h = np.diff(tr.times)[:, None]
        fields = np.array([_van_der_pol(t, y) for t, y in zip(tr.times, tr.states)])
        assert np.max(np.abs(tr.states[:-1] + c.sum(axis=1) - tr.states[1:])) < 5e-13
        assert np.max(np.abs(c[:, 0] / h - fields[:-1])) < 1e-12
        end_slopes = (np.arange(1, 8)[:, None] * c).sum(axis=1) / h
        assert np.max(np.abs(end_slopes[:-1] - fields[1:-1])) < 5e-11


class TestIntegrateOdeBatch:
    """A state of shape (m, d) is stepped as one system of m rows with shared
    steps, per-row events and per-row event_min_time."""

    @pytest.mark.parametrize("output_times", [None, np.linspace(0.0, 20.0, 41)])
    def test_one_row_batch_equals_single_state(self, output_times):
        ctrl = StepControl(abs_tol=1e-10, rel_tol=1e-10)
        crossing = lambda t, y: y[..., 0]
        single = integrate_ode(_van_der_pol, [2.0, 0.0], (0.0, 20.0), ctrl,
                               output_times=output_times, event=crossing, event_min_time=3.0)
        batch = integrate_ode(_van_der_pol, [[2.0, 0.0]], (0.0, 20.0), ctrl,
                              output_times=output_times, event=crossing, event_min_time=[3.0])
        assert batch.states.shape == (single.times.size, 1, 2)
        assert np.array_equal(batch.times, single.times)
        assert np.array_equal(batch.states[:, 0], single.states)
        if output_times is None:
            assert np.array_equal(batch.coeffs[:, :, 0], single.coeffs)
            ts = np.linspace(0.0, single.times[-1], 77)
            assert np.array_equal(batch.sample(ts)[:, 0], single.sample(ts))
        assert batch.event_time[0] == single.event_time
        assert np.array_equal(batch.event_state[0], single.event_state)

    def test_rows_match_dop853(self):
        # each row's event after its own min time, and every row's state at
        # the end of the run (the latest event), against DOP853 on that row;
        # events sit on the 7th-order continuous extension, so they are as
        # good as the states (see test_event_times_match_lone_runs)
        integrate = pytest.importorskip("scipy.integrate")
        y0 = np.array([[2.0, 0.0], [1.0, 0.0], [0.5, 1.5]])
        min_times = np.array([3.0, 0.0, 1.0])
        tr = integrate_ode(_van_der_pol, y0, (0.0, 20.0), StepControl(abs_tol=1e-14, rel_tol=1e-14),
                           event=lambda t, y: y[..., 0], event_min_time=min_times)
        assert tr.times[-1] == np.max(tr.event_time)
        crossing = lambda t, y: y[0]
        crossing.direction = -1
        for row in range(3):
            ref = integrate.solve_ivp(_van_der_pol, (0.0, 20.0), y0[row], method="DOP853",
                                      rtol=1e-13, atol=1e-13, events=crossing)
            after = ref.t_events[0] > min_times[row]
            assert tr.event_time[row] == pytest.approx(ref.t_events[0][after][0], abs=1e-11)
            assert np.max(np.abs(tr.event_state[row] - ref.y_events[0][after][0])) < 1e-10
            end = integrate.solve_ivp(_van_der_pol, (0.0, tr.times[-1]), y0[row],
                                      method="DOP853", rtol=1e-13, atol=1e-13)
            assert np.max(np.abs(tr.y_end[row] - end.y[:, -1])) < 1e-10

    def test_event_times_match_lone_runs(self):
        # a row's event sits as close to its lone run's and to DOP853's as
        # Brent's tolerance _EVENT_TOL = 1e-12 on the crossing allows (measured:
        # at most 8.3e-14 from the lone runs, 1.1e-13 from scipy)
        integrate = pytest.importorskip("scipy.integrate")
        y0 = np.array([[2.0, 0.0], [1.0, 0.0], [0.5, 1.5]])
        min_times = np.array([3.0, 0.0, 1.0])
        ctrl = StepControl(abs_tol=1e-14, rel_tol=1e-14)
        tr = integrate_ode(_van_der_pol, y0, (0.0, 20.0), ctrl,
                           event=lambda t, y: y[..., 0], event_min_time=min_times)
        crossing = lambda t, y: y[0]
        crossing.direction = -1
        for row in range(3):
            lone = integrate_ode(_van_der_pol, y0[row], (0.0, 20.0), ctrl,
                                 event=crossing, event_min_time=min_times[row])
            ref = integrate.solve_ivp(_van_der_pol, (0.0, 20.0), y0[row], method="DOP853",
                                      rtol=1e-13, atol=1e-13, events=crossing)
            expected = ref.t_events[0][ref.t_events[0] > min_times[row]][0]
            assert abs(tr.event_time[row] - lone.event_time) < 1e-12
            assert abs(tr.event_time[row] - expected) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(x0=st.floats(-2.0, 2.0), v0=st.floats(-2.0, 2.0),
           tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    # a state near 0 gives error estimates whose squares underflow
    @example(x0=0.0, v0=6.817434441174966e-292, tol=1e-6, fractions=[0.0])
    def test_one_row_batch_is_bit_identical(self, x0, v0, tol, fractions):
        ctrl = StepControl(abs_tol=tol, rel_tol=tol)
        single = integrate_ode(_van_der_pol, [x0, v0], (0.0, 6.0), ctrl)
        batch = integrate_ode(_van_der_pol, [[x0, v0]], (0.0, 6.0), ctrl)
        assert np.array_equal(batch.times, single.times)
        assert np.array_equal(batch.states[:, 0], single.states)
        ts = 6.0 * np.array(fractions)
        assert np.array_equal(batch.sample(ts)[:, 0], single.sample(ts))

    def test_sample_has_the_bits_of_the_gathering_reference(self):
        # sample takes each power's coefficients with np.take and runs Horner's
        # rule in place; this reference gathers them by fancy indexing into
        # new arrays, with the same arithmetic, so the bits must agree
        def reference(tr, t):
            idx = np.clip(np.searchsorted(tr.times, t, side="right") - 1, 0, len(tr.times) - 2)
            t0 = tr.times[idx]
            col = (slice(None),) + (None,) * (tr.states.ndim - 1)
            s = ((t - t0) / (tr.times[idx + 1] - t0))[col]
            out = tr.coeffs[idx, 6]
            for j in range(5, -1, -1):
                out = out * s + tr.coeffs[idx, j]
            return tr.states[idx] + out * s

        y0 = np.array([[2.0, 0.0], [1.0, 0.0], [0.5, 1.5]])
        batch = integrate_ode(_van_der_pol, y0, (0.0, 6.0),
                              StepControl(abs_tol=1e-10, rel_tol=1e-10))
        ts = np.linspace(0.0, 6.0, 997)
        for tr in (batch, batch.row(1)):
            assert np.array_equal(tr.sample(ts), reference(tr, ts))
            assert np.array_equal(tr.sample(2.5), reference(tr, np.array([2.5]))[0])

    def test_events_alone_keep_their_bits_and_skip_dense_stages(self):
        # an empty output_times stores no samples; the events are located on
        # the same polynomials as in a run with stored nodes, and only the
        # steps in which a row's event crosses build the three dense stages
        y0 = np.array([[2.0, 0.0], [1.0, 0.0], [0.5, 1.5]])
        kwargs = dict(event=lambda t, y: y[..., 0], event_min_time=[3.0, 0.0, 1.0])
        ctrl = StepControl(abs_tol=1e-12, rel_tol=1e-12)
        full = integrate_ode(_van_der_pol, y0, (0.0, 20.0), ctrl, **kwargs)
        lean = integrate_ode(_van_der_pol, y0, (0.0, 20.0), ctrl, output_times=[], **kwargs)
        assert lean.times.shape == (0,) and lean.states.shape == (0, 3, 2)
        assert np.array_equal(lean.event_time, full.event_time)
        assert np.array_equal(lean.event_state, full.event_state)
        assert (lean.stats.accepted, lean.stats.rejected) == (full.stats.accepted,
                                                               full.stats.rejected)
        crossing_steps = np.unique(np.searchsorted(full.times, full.event_time) - 1).size
        assert full.stats.rhs_evals - lean.stats.rhs_evals == 3 * (full.stats.accepted
                                                                    - crossing_steps)

    def test_event_location_sees_one_row_and_is_counted(self):
        # the crossing search evaluates each hit row's own slice of the step,
        # a (1, d) state, and every such call counts in stats.event_evals
        shapes = []

        def crossing(t, y):
            shapes.append(y.shape)
            return y[..., 0]

        y0 = np.array([[2.0, 0.0], [1.0, 0.0], [0.5, 1.5]])
        tr = integrate_ode(_van_der_pol, y0, (0.0, 20.0), event=crossing,
                           event_min_time=[3.0, 0.0, 1.0])
        assert set(shapes) == {(3, 2), (1, 2)}
        assert 0 < tr.stats.event_evals == shapes.count((1, 2)) <= 15 * 3

    def test_nonfinite_row_is_named(self):
        from geomflow.errors import IntegrationError

        def field(t, y):
            out = _van_der_pol(t, y)
            if t > 0.5:
                out[1] = np.nan
            return out

        with pytest.raises(IntegrationError, match=r"row\(s\) \[1\]"):
            integrate_ode(field, [[2.0, 0.0], [1.0, 0.0], [0.5, 1.5]], (0.0, 2.0))

    def test_nonfinite_dense_stage_names_its_row(self):
        from geomflow.errors import IntegrationError
        calls = []

        def field(t, y):
            # calls 2-12 are the first step's stages, 13 the field at its end
            # and 14 its first dense stage
            calls.append(t)
            out = np.zeros_like(y)
            if len(calls) == 14:
                out[2, 1] = np.nan
            return out

        with pytest.raises(IntegrationError, match=r"near t=0 in row\(s\) \[2\]"):
            integrate_ode(field, np.ones((3, 2)), (0.0, 1.0), StepControl(initial_step=0.5))
        assert len(calls) == 16


class TestEllipticK:
    def test_m_zero(self):
        assert elliptic_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_against_quadrature_oracle(self):
        special = pytest.importorskip("scipy.special")
        m = 0.5
        assert elliptic_K(m) == pytest.approx(float(special.ellipk(m)), abs=1e-12)

    def test_period_table_row_for_sol(self):
        # 4/sqrt(1+beta^2) * K((1-beta^2)/(1+beta^2)) at beta = 0.999
        beta = 0.999
        m = (1.0 - beta**2) / (1.0 + beta**2)
        val = 4.0 / math.sqrt(1.0 + beta**2) * elliptic_K(m)
        assert val == pytest.approx(4.44622, abs=5e-3)

    def test_monotone_and_bounded_below(self):
        ms = np.linspace(0.0, 0.99, 40)
        vals = [elliptic_K(m) for m in ms]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(math.pi / 2)
        assert all(v >= math.pi / 2 for v in vals)

    def test_domain_errors(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                elliptic_K(bad)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, (0.0, 2.0), 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_endpoint_equation_degenerate_case(self):
        # alpha = 1, beta = 1: e^{2t} + e^{-2t} = 2 touches zero exactly at t = 0
        # (degenerate level set: the root is a tangency at the bracket edge)
        f = lambda t: math.exp(2 * t) + math.exp(-2 * t) - 2.0
        assert abs(find_root(f, (0.0, 2.0), 1e-12)) < 1e-6

    def test_endpoint_equation_against_closed_form(self):
        # alpha = 1/2, beta = 0.7: (1/2)e^{2t} + e^{-t} = (3/2)/beta^2.
        # Closed form of the root via the trigonometric cubic resolution:
        # t0 = log(2 cos(arccos(-beta^3)/3) / beta).
        beta = 0.7
        f = lambda t: 0.5 * math.exp(2 * t) + math.exp(-t) - 1.5 / beta**2
        t0_closed = math.log(2.0 * math.cos(math.acos(-beta**3) / 3.0) / beta)
        root = find_root(f, (0.0, 5.0), 1e-12)
        assert root == pytest.approx(t0_closed, abs=1e-9)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, (-1.0, 1.0), 1e-10)

    @settings(max_examples=200, deadline=None)
    @given(root=st.floats(-10.0, 10.0), left=st.floats(1e-6, 10.0), right=st.floats(1e-6, 10.0),
           slope=st.floats(0.1, 10.0), sign=st.sampled_from([-1.0, 1.0]))
    @example(root=2.2250738585e-313, left=1.0, right=1.0, slope=1.0, sign=-1.0)
    def test_sign_change_gives_root_inside(self, root, left, right, slope, sign):
        # tanh saturates away from the root, so secant proposals often fail;
        # the example's root makes f(a) * f(x) underflow to zero near it
        a, b = root - left, root + right
        x = find_root(lambda x: sign * math.tanh(slope * (x - root)), (a, b), 1e-12)
        assert a <= x <= b
        assert abs(x - root) <= 1e-12

    def test_root_spacing_wider_than_tol_ends_the_search(self):
        # near 100 the float spacing (1.4e-14) exceeds tol = 1e-14, and the
        # root lies between two floats, so no call returns zero: the search
        # stops at tol + 4 eps |x| instead of running to its iteration cap
        calls = []
        x = find_root(lambda x: calls.append(x) or x - 100.001 - 5e-15, (0.0, 1000.0), 1e-14)
        assert abs(x - 100.001) <= 1e-14 + 4.0 * np.finfo(float).eps * 100.001
        assert len(calls) <= math.ceil(math.log2(1000.0 / 1e-14)) + 3

    @settings(max_examples=200, deadline=None)
    @given(shape=st.sampled_from(["linear", "tanh", "atan", "expm1", "sinh"]),
           root=st.floats(-10.0, 10.0), left=st.floats(1e-6, 10.0), right=st.floats(1e-6, 10.0),
           slope=st.floats(0.1, 10.0), sign=st.sampled_from([-1.0, 1.0]),
           tol=st.sampled_from([1e-14, 1e-12, 1e-9, 1e-6]))
    def test_matches_brentq_within_the_bisection_budget(self, shape, root, left, right, slope,
                                                        sign, tol):
        # simple roots of saturating, linear and exponential shapes: the
        # root agrees with scipy's brentq, and Brent's method makes no more
        # calls than bisection's ceil(log2(width / tol)) + 2, plus one
        # (on multiple roots Brent's method may need more than bisection)
        optimize = pytest.importorskip("scipy.optimize")
        g = {"linear": lambda u: u, "tanh": math.tanh, "atan": math.atan,
             "expm1": math.expm1, "sinh": math.sinh}[shape]
        f = lambda x: sign * g(slope * (x - root))
        a, b = root - left, root + right
        calls = []
        x = find_root(lambda x: calls.append(x) or f(x), (a, b), tol)
        assert abs(x - optimize.brentq(f, a, b, xtol=tol)) <= tol
        assert len(calls) <= math.ceil(math.log2((b - a) / tol)) + 3

    @settings(max_examples=200, deadline=None)
    @given(root=st.floats(-10.0, 10.0), gap=st.floats(1e-3, 10.0), width=st.floats(1e-3, 10.0),
           above=st.booleans())
    def test_bracket_without_sign_change_raises(self, root, gap, width, above):
        a = root + gap if above else root - gap - width
        with pytest.raises(BracketError):
            find_root(lambda x: math.tanh(x - root), (a, a + width), 1e-12)


def _period_integrand(alpha, beta):
    def radicand(t):
        return 1.0 - beta**2 / (alpha + 1.0) * (alpha * np.exp(2 * t) + np.exp(-2 * alpha * t))
    def f(t):
        return 2.0 / np.sqrt(radicand(t))
    return radicand, f


class TestIntegrateSingular:
    def test_rule_is_numpys_32_point_gauss_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(32)
        assert np.array_equal(_GAUSS32_NODES, nodes)
        assert np.array_equal(_GAUSS32_WEIGHTS, weights)

    def test_arcsine(self):
        v = integrate_singular(lambda t: 1.0 / np.sqrt(1.0 - t * t), -1.0, 1.0)
        assert v == pytest.approx(math.pi, abs=1e-10)

    def test_period_integral_matches_elliptic_formula(self):
        alpha, beta = 1.0, 0.5
        radicand, f = _period_integrand(alpha, beta)
        t0 = find_root(radicand, (0.0, 3.0), 1e-14)
        t1 = find_root(lambda t: radicand(-t), (0.0, 3.0), 1e-14)
        val = integrate_singular(f, -t1, t0)
        exact = 4.0 / math.sqrt(1.0 + beta**2) * elliptic_K((1 - beta**2) / (1 + beta**2))
        assert val == pytest.approx(exact, abs=1e-8)

    def test_period_integral_paper_table_row(self):
        alpha, beta = 0.5, 0.999
        radicand, f = _period_integrand(alpha, beta)
        t0 = find_root(radicand, (0.0, 3.0), 1e-14)
        t1 = find_root(lambda t: radicand(-t), (0.0, 3.0), 1e-14)
        val = integrate_singular(f, -t1, t0)
        assert val == pytest.approx(6.28842, abs=5e-3)

    def test_cosine_weight_matches_bessel_closed_form(self):
        # the integral of cos(3t)/sqrt(1-t^2) over (-1, 1) is pi J0(3)
        special = pytest.importorskip("scipy.special")
        f = lambda t: (2.0 + np.cos(3 * t)) / np.sqrt((t + 1.0) * (1.0 - t))
        exact = math.pi * (2.0 + float(special.j0(3.0)))
        assert integrate_singular(f, -1.0, 1.0) == pytest.approx(exact, abs=1e-9)


    def test_rows_keep_the_bits_of_single_integrals(self, monkeypatch):
        # period integrands of several betas in one pass, with a block small
        # enough to split the rows: each row's value is the float a call over
        # its own interval returns, so rows that converge late (beta near 1)
        # do not move the others
        import geomflow.numerics.quadrature as quadrature
        alpha, betas = 0.7, np.array([0.3, 0.6, 0.9, 0.999])
        c = betas ** 2 / (alpha + 1.0)
        t0, t1 = np.array([endpoint_times(alpha, beta) for beta in betas]).T

        def pair(t, c, t0, t1):
            r = orbit_terms(alpha, c, t0, t1, t)[2]
            return np.array([2.0 / np.sqrt(r), c / np.sqrt(r)])

        single = [integrate_singular(lambda t, k=k: pair(t, c[k], t0[k], t1[k]), -t1[k], t0[k])
                  for k in range(betas.size)]
        sizes = []
        monkeypatch.setattr(quadrature, "QUAD_BLOCK", 128)
        rows = integrate_singular(lambda t, *p: sizes.append(t.size) or pair(t, *p),
                                  -t1, t0, c, t0, t1)
        assert rows.shape == (2, betas.size)
        assert all(np.array_equal(rows[:, k], single[k]) for k in range(betas.size))
        assert rows[0, 0] == period_numeric(alpha, betas[0]).period
        assert sizes == [128, 128, 128]  # four rows of 32 nodes, then two blocks of 2 x 64

    def test_unconverged_rows_raise(self):
        # cos(1e7 t) is far beyond the finest resolution; cos(t) converges
        with pytest.raises(QuadratureError, match="in 1 row"):
            integrate_singular(lambda t, s: np.cos(s * t) / np.sqrt(1.0 - t * t),
                               np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
                               np.array([1.0, 1e7]))


class TestPeriodicDerivative:
    """The derivative oracles of ``oracles.py`` against closed forms, before
    they check the library."""

    def test_first_derivative_of_sine(self):
        s = periodic_grid(64)
        err = np.max(np.abs(spectral_derivative(np.sin(s), 1) - np.cos(s)))
        assert err < 1e-10

    def test_constant_annihilated(self):
        c = np.full(32, 2.7)
        for order in (1, 2, 3):
            assert np.max(np.abs(spectral_derivative(c, order))) < 1e-12

    def test_third_derivative_of_sine(self):
        s = periodic_grid(64)
        err = np.max(np.abs(spectral_derivative(np.sin(s), 3) + np.cos(s)))
        assert err < 1e-8

    def test_linearity(self):
        rng = np.random.default_rng(7)
        u, v = rng.standard_normal(64), rng.standard_normal(64)
        lhs = spectral_derivative(2.0 * u + 3.0 * v, 1)
        rhs = 2.0 * spectral_derivative(u, 1) + 3.0 * spectral_derivative(v, 1)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_fd4_fallback(self):
        s = periodic_grid(128)
        for order, exact in ((1, np.cos(s)), (3, -np.cos(s))):
            err = np.max(np.abs(fd4_derivative(np.sin(s), order) - exact))
            assert err < 1e-5


def _trig_polynomial(n, mean, modes):
    """mean + sum over m of a_m cos(m s) + b_m sin(m s) on the n-point grid,
    for the pairs (a_m, b_m) of ``modes`` below the Nyquist mode."""
    s = periodic_grid(n)
    ab = np.array(modes[:n // 2 - 1])
    m = np.arange(1, ab.shape[0] + 1)[:, None]
    return mean + np.sum(ab[:, :1] * np.cos(m * s) + ab[:, 1:] * np.sin(m * s), axis=0)


_MESHES = st.sampled_from([16, 32, 64, 128, 256])
_MODES = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=7)


class TestPeriodicPrimitive:
    """``PeriodicPrimitive`` against the spectral derivative oracle and the
    exact primitive, on random trigonometric polynomials below the Nyquist
    mode."""

    @settings(max_examples=200, deadline=None)
    @given(n=_MESHES, mean=st.floats(-5.0, 5.0), modes=_MODES)
    def test_derivative_of_primitive_is_the_samples(self, n, mean, modes):
        f = _trig_polynomial(n, mean, modes)
        prim = PeriodicPrimitive(f)
        assert prim.mean == pytest.approx(mean, abs=1e-14)
        assert prim.nodes[0] == 0.0
        osc = prim.nodes - prim.mean * periodic_grid(n)
        assert np.max(np.abs(prim.mean + spectral_derivative(osc, 1) - f)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(n=_MESHES, modes=_MODES)
    def test_primitive_of_derivative_is_the_oscillation(self, n, modes):
        g = _trig_polynomial(n, 0.0, modes)
        prim = PeriodicPrimitive(spectral_derivative(g, 1))
        assert abs(prim.mean) < 1e-12
        assert np.max(np.abs(prim.nodes - (g - g[0]))) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(n=_MESHES, modes=_MODES, lift=st.floats(0.02, 2.0),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_inverse_undoes_the_primitive(self, n, modes, lift, fracs):
        # f = c + sum a_m cos(m s) + b_m sin(m s) with c = (1 + lift) sum(|a_m| + |b_m|)
        # + lift is positive everywhere, not only at the nodes, so F is monotone
        # (min f / max f reaches about 0.01); targets include 0 and F(2 pi).
        # 1,000 cases measured at most 3.1e-16 of the total; the bound leaves
        # room for a draw on which the four Newton steps stop short of it.
        ab = np.array(modes[:n // 2 - 1])
        c = (1.0 + lift) * float(np.sum(np.abs(ab))) + lift
        prim = PeriodicPrimitive(_trig_polynomial(n, c, modes))
        targets = prim.total * np.array([0.0, 1.0] + fracs)
        s = prim.inverse(targets)
        m = np.arange(1, ab.shape[0] + 1)
        exact = c * s + np.sum((ab[:, 0] * np.sin(np.outer(s, m))
                                - ab[:, 1] * (np.cos(np.outer(s, m)) - 1.0)) / m, axis=1)
        assert np.all((s >= 0.0) & (s <= 2.0 * math.pi))
        assert np.max(np.abs(exact - targets)) < 1e-13 * prim.total


class TestPeriodicHelpers:
    def test_primitive_splits_mean_and_oscillation(self):
        s = periodic_grid(64)
        prim = PeriodicPrimitive(2.0 + np.cos(s))
        assert prim.mean == pytest.approx(2.0, abs=1e-14)
        assert np.max(np.abs(prim.nodes - (2.0 * s + np.sin(s)))) < 1e-12
        assert prim.total == pytest.approx(4.0 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("n", [7, 8, 32, 33, 98, 129])
    @pytest.mark.parametrize("period", [2.0 * math.pi, 1.0, 98.0])
    def test_wavenumbers(self, n, period):
        # i k 2 pi / period, with the Nyquist entry 0 for even n only; on the
        # period 2 pi the integers themselves, also where rfftfreq(n, 1/n) is
        # not (n = 98)
        ik = wavenumbers(n, period)
        k = np.arange(n // 2 + 1)
        assert ik.shape == k.shape and np.all(ik.real == 0.0)
        top = k.size - 1 if n % 2 == 0 else k.size
        assert np.allclose(ik.imag[:top], k[:top] * (2.0 * math.pi / period), rtol=1e-15, atol=0)
        assert (ik[-1] == 0.0) == (n % 2 == 0)
        if period == 2.0 * math.pi:
            assert np.array_equal(ik.imag[:top], k[:top])

    def test_trig_interp_reproduces_band_limited(self):
        s = periodic_grid(32)
        data = np.sin(2 * s) + 0.5 * np.cos(5 * s)
        pts = np.array([0.0, 0.13, 2.9, 6.1])
        exact = np.sin(2 * pts) + 0.5 * np.cos(5 * pts)
        assert np.max(np.abs(trig_interpolant(data)(pts) - exact)) < 1e-13

    def test_interpolant_matches_per_call_spectrum(self):
        # the interpolant's mode sum against the same spectrum, redone at
        # every evaluation and summed in extended precision, at scalar points
        # as the Frenet right-hand side asks and at point arrays. Measured
        # over 200 points: 5.0e-16, 1.8e-15 and 5.7e-15 at n = 32, 128 and
        # 512 for the powers of e^{is}; an exp(i s k) mode matrix reads
        # 1.1e-15, 8.9e-15 and 2.7e-14.
        def per_call(samples, s):
            spec = np.fft.rfft(samples) / samples.size
            w = np.full(spec.size, 2.0)
            w[0] = w[-1] = 1.0
            ks = np.arange(spec.size, dtype=np.longdouble) * np.longdouble(s)
            total = np.sum(w * (spec.real * np.cos(ks) - spec.imag * np.sin(ks)))
            return float(total)

        rng = np.random.default_rng(7)
        for n, bound in ((32, 1e-15), (128, 4e-15), (512, 1.2e-14)):
            data = 1.0 + 0.3 * rng.standard_normal(n)
            interp = trig_interpolant(data)
            pts = rng.uniform(0.0, 2 * math.pi, 200)
            exact = np.array([per_call(data, p) for p in pts])
            assert max(abs(interp(p) - e) for p, e in zip(pts, exact)) < bound
            assert np.max(np.abs(interp(pts) - exact)) < bound

    def test_mode_sum_bits_do_not_depend_on_blas_threads(self):
        # the n = 512 eight's resampling, whose interpolant calls sum 257
        # modes over 512 points, in two processes with one and two BLAS
        # threads: a BLAS product there differed in the last bits
        script = ("import hashlib, sys; from geomflow.csf import make_concinnous_eight, "
                  "resample_uniform; points = make_concinnous_eight(1.0, n_points=512).points; "
                  "sys.stdout.write(hashlib.sha256(resample_uniform(points).tobytes()).hexdigest())")
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, check=True)
            digests.append(done.stdout)
        assert len(digests[0]) == 64 and digests[0] == digests[1]


class TestRealTransforms:
    """``rfft`` and ``irfft`` call the kernels under ``np.fft.rfft`` and
    ``np.fft.irfft`` directly: the same bits, on one field, on stacks, and
    written into strided views."""

    @pytest.mark.parametrize("n", [7, 32, 33, 128, 256, 1024])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3), "transposed"])
    def test_same_bits_as_numpy(self, n, lead):
        # a transposed stack (3, n) walks its last axis with a stride; the
        # results keep numpy's layout as well as its bits
        rng = np.random.default_rng(n)
        if lead == "transposed":
            x, lead = rng.standard_normal((n, 3)).T, (3,)
        else:
            x = rng.standard_normal(lead + (n,))
        spec, want = rfft(x), np.fft.rfft(x)
        assert spec.shape == lead + (n // 2 + 1,)
        assert np.array_equal(spec, want) and spec.strides == want.strides
        back, want = irfft(spec, n), np.fft.irfft(spec, n)
        assert np.array_equal(back, want) and back.strides == want.strides

    @pytest.mark.parametrize("n", [7, 32, 33, 128, 256, 1024])
    def test_writes_into_strided_views(self, n):
        rng = np.random.default_rng(n + 1)
        M = n // 2 + 1
        x = rng.standard_normal(n)
        v = np.full(M + 3, np.nan, dtype=complex)
        assert rfft(x, out=v[:M]).base is v
        assert np.array_equal(v[:M], np.fft.rfft(x)) and np.isnan(v[M:]).all()
        stack = rng.standard_normal((4, n))
        out = np.full((4, M + 3), np.nan, dtype=complex)
        rfft(stack, out=out[..., :M])
        assert np.array_equal(out[..., :M], np.fft.rfft(stack))
        assert np.isnan(out[..., M:]).all()
        # and back, from the strided spectra into a strided real view
        back = np.full((4, n + 3), np.nan)
        irfft(out[..., :M], n, out=back[..., :n])
        assert np.array_equal(back[..., :n], np.fft.irfft(out[..., :M], n))
        assert np.isnan(back[..., n:]).all()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 300), rows=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-6, 1e6))
    def test_same_bits_on_random_data(self, n, rows, seed, scale):
        x = scale * np.random.default_rng(seed).standard_normal((rows, n))
        spec = rfft(x)
        assert np.array_equal(spec, np.fft.rfft(x))
        assert np.array_equal(irfft(spec, n), np.fft.irfft(spec, n))


class TestInterpolation:
    @pytest.mark.parametrize("n", [32, 33, 128])
    def test_columns_match_their_own_interpolants(self, n):
        # the columns of (n, d) samples share one mode matrix per evaluation
        rng = np.random.default_rng(n)
        values = rng.standard_normal((n, 3))
        batched = trig_interpolant(values, period=float(n))
        columns = [trig_interpolant(values[:, c], period=float(n)) for c in range(3)]
        pts = rng.uniform(-5.0, 2.0 * n, 200)
        assert batched(pts).shape == (200, 3) and batched(0.7).shape == (3,)
        for c, interp in enumerate(columns):
            assert np.max(np.abs(batched(pts)[:, c] - interp(pts))) < 1e-14
            assert abs(batched(0.7)[c] - interp(0.7)) < 1e-14

    def test_monotone_inversion_solves_the_map(self):
        # F(y) = y + 0.3 sin(y) on [0, 2 pi], the primitive of 32 samples,
        # seeded from its nodes and polished against its values and slopes;
        # the targets past either end stay at the ends of the period
        prim = PeriodicPrimitive(1.0 + 0.3 * np.cos(periodic_grid(32)))
        targets = np.random.default_rng(3).uniform(0.0, 2 * math.pi, 100)
        y = prim.inverse(targets)
        assert np.max(np.abs(y + 0.3 * np.sin(y) - targets)) < 1e-14
        assert np.array_equal(prim.inverse(np.array([-1.0, 7.0])), [0.0, 2 * math.pi])

    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 5, 13])
    def test_cyclic_shift_is_roll(self, k):
        a = np.arange(26.0).reshape(13, 2)
        assert np.array_equal(cyclic_shift(a, k), np.roll(a, -k, axis=0))
        assert np.array_equal(cyclic_shift(a[:, 0], k), np.roll(a[:, 0], -k))
