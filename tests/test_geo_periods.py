"""Period functions: numeric quadrature path vs closed elliptic forms."""

import math

import numpy as np
import pytest

from geomflow.geoflow import (endpoint_times, period, period_closed_form,
                              period_numeric)
from geomflow.numerics.special import elliptic_K

REFERENCE_TABLE = {
    0.1: 14.0792, 0.2: 9.94735, 0.3: 8.11985, 0.4: 7.03114, 0.5: 6.28842,
    0.6: 5.7403, 0.7: 5.31436, 0.8: 4.97106, 0.9: 4.68673, 1.0: 4.44622,
}


class TestPeriodNumeric:
    def test_sol_matches_elliptic_formula(self):
        beta = 0.5
        rec = period_numeric(1.0, beta)
        exact = 4.0 / math.sqrt(1 + beta**2) * elliptic_K((1 - beta**2) / (1 + beta**2))
        assert rec.period == pytest.approx(exact, abs=1e-8)

    @pytest.mark.parametrize("alpha,expected", sorted(REFERENCE_TABLE.items()))
    def test_reference_table(self, alpha, expected):
        rec = period_numeric(alpha, 0.999)
        assert rec.period == pytest.approx(expected, abs=5e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            period_numeric(0.5, 1.0)
        with pytest.raises(ValueError):
            period_numeric(0.5, 0.0)
        with pytest.raises(ValueError):
            period_numeric(0.0, 0.5)

    def test_endpoint_times_solve_the_equations(self):
        alpha, beta = 0.37, 0.62
        t0, t1 = endpoint_times(alpha, beta)
        target = (alpha + 1) / beta**2
        assert alpha * math.exp(2 * t0) + math.exp(-2 * alpha * t0) == pytest.approx(target, rel=1e-12)
        assert alpha * math.exp(-2 * t1) + math.exp(2 * alpha * t1) == pytest.approx(target, rel=1e-12)


class TestPeriodClosedForm:
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_matches_numeric_across_betas(self, alpha):
        for beta in np.arange(0.1, 0.95, 0.1):
            num = period_numeric(alpha, float(beta)).period
            closed = period_closed_form(alpha, float(beta)).period
            assert abs(num - closed) < 1e-6

    def test_limits_toward_degenerate_level(self):
        assert period_closed_form(1.0, 0.9999).period == pytest.approx(
            math.pi * math.sqrt(2), abs=1e-2)
        assert period_closed_form(0.5, 0.9999).period == pytest.approx(
            2 * math.pi, abs=1e-2)

    def test_monotone_decreasing_in_beta(self):
        for alpha in (1.0, 0.5):
            vals = [period_closed_form(alpha, b).period for b in np.linspace(0.05, 0.99, 30)]
            assert all(later < earlier for earlier, later in zip(vals, vals[1:]))

    def test_unsupported_alpha(self):
        with pytest.raises(ValueError):
            period_closed_form(0.3, 0.5)

    def test_dispatch_helper(self):
        assert period(0.5, 0.7).source == "closed_form_half"
        assert period(1.0, 0.7).source == "closed_form_sol"
        assert period(0.4, 0.7).source == "numeric"
