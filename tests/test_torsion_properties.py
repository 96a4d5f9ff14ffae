"""Properties of the fused torsion right-hand side on random positive,
band-limited torsion fields."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from geomflow.numerics import periodic_grid  # noqa: E402
from geomflow.torsionflow import CurvatureProfile, make_torsion_rhs  # noqa: E402

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
