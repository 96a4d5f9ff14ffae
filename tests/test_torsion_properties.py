"""Properties of the fused torsion right-hand side on random positive,
band-limited torsion fields, and of the evolution's output grid."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from geomflow.numerics.periodic import periodic_grid  # noqa: E402
from geomflow.torsionflow import (CurvatureProfile, TorsionField, make_torsion_rhs,  # noqa: E402
                                  torsion_evolve)
from geomflow.torsionflow.evolve import (ABS_TOL, ETD_SAFETY, REL_TOL,  # noqa: E402
                                         remainder_rate)

# The mesh sizes the CLI and the acceptance criteria use. On them a constant
# field has exactly zero non-constant Fourier modes, since the FFT's first
# butterflies subtract equal samples.
MESHES = [32, 64, 128, 256, 512]


def band_limited(n, seed, mean, modes, depth):
    """mean + a random trigonometric polynomial of degree ``modes`` whose
    largest excursion from the mean is ``depth * mean``, so the field stays
    at least (1 - depth) * mean."""
    rng = np.random.default_rng(seed)
    s = periodic_grid(n)
    m = np.arange(1, modes + 1)[:, None]
    a, b = rng.standard_normal((2, modes, 1))
    osc = np.sum(a * np.cos(m * s) + b * np.sin(m * s), axis=0)
    return mean + depth * mean * osc / np.max(np.abs(osc))


fields = dict(n=st.sampled_from(MESHES), seed=st.integers(0, 2**32 - 1),
              mean=st.floats(0.2, 20.0), modes=st.integers(1, 8),
              depth=st.floats(0.0, 0.8), kappa=st.floats(0.25, 4.0))


@settings(max_examples=60, deadline=None)
@given(**fields)
def test_flux_form_sums_to_zero(n, seed, mean, modes, depth, kappa):
    tau = band_limited(n, seed, mean, modes, depth)
    r = make_torsion_rhs(CurvatureProfile(constant=kappa), n)(0.0, tau)
    assert np.all(np.isfinite(r))
    assert abs(float(np.sum(r))) <= 1e-14 * n * max(float(np.max(np.abs(r))), 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(MESHES), value=st.floats(1e-3, 1e3), kappa=st.floats(0.25, 4.0))
def test_constant_field_is_exactly_stationary(n, value, kappa):
    r = make_torsion_rhs(CurvatureProfile(constant=kappa), n)(0.0, np.full(n, value))
    assert np.all(r == 0.0)


@settings(max_examples=60, deadline=None)
@given(**fields, where=st.integers(0, 511), bad=st.sampled_from([0.0, -1e-12, -0.5, -math.inf]))
def test_nonpositive_state_gives_all_nan(n, seed, mean, modes, depth, kappa, where, bad):
    tau = band_limited(n, seed, mean, modes, depth)
    tau[where % n] = bad
    with np.errstate(all="raise"):  # the guard runs before any fractional power
        r = make_torsion_rhs(CurvatureProfile(constant=kappa), n)(0.0, tau)
    assert r.shape == (n,)
    assert np.all(np.isnan(r))


@settings(max_examples=25, deadline=None)
@given(amplitude=st.floats(0.02, 0.3),
       gaps=st.lists(st.one_of(st.floats(0.0, 0.2), st.floats(1.2, 3.0)), min_size=1,
                     max_size=12))
@example(amplitude=0.25, gaps=[1e-12, 1.5])
@example(amplitude=0.25, gaps=[1.5] * 5 + [1e-12, 1.5])
def test_output_grid_matches_one_output_at_a_time(amplitude, gaps):
    # gaps in units of the step bound at t = 0: clusters of outputs inside
    # one step beside gaps that take several; each output must match the run
    # that ends on it alone, to the sum of the two runs' local tolerances.
    # In the two examples a checked step is cut short to land on an output
    # just past its start; its check must not shrink the accuracy bound to
    # five times that step (it made the runs refuse 3e11 projected steps)
    s = periodic_grid(32)
    tau0 = TorsionField(1.0 + amplitude * np.sin(s) + 0.3 * amplitude * np.cos(2.0 * s))
    bound = ETD_SAFETY / remainder_rate(tau0.samples, 1.0, float(np.mean(tau0.samples)))
    times = bound * np.cumsum(gaps)
    assume(times[-1] > 0.0)
    grid = torsion_evolve(tau0, T=times[-1], output_times=times)
    tol = ABS_TOL + REL_TOL * float(np.max(tau0.samples))
    for t, row in zip(times, grid.samples):
        if t == 0.0:
            assert np.array_equal(row, tau0.samples)
            continue
        alone = torsion_evolve(tau0, T=t, output_times=[t])
        steps = max(grid.record["steps"], alone.record["steps"])
        assert np.max(np.abs(row - alone.samples[0])) <= steps * tol
