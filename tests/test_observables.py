import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostcav.cavity import Cavity1D, Scheme
from boostcav.observables import (
    Route,
    boosted_em,
    closed_form_coefficients,
    comoving_energy,
    em_plate_energy_per_area,
    inertia_ratios,
    lab_prior_discrepancy_report,
    mass_shell_residual,
    nonrel_fit,
    route_comparison,
    static_m0,
    sweep,
)
from boostcav.regsum import FitError, RegConfig

M0 = -math.pi / 24.0


class TestStaticM0:
    def test_zeta_exact(self):
        assert static_m0(1.0) == 0.5 * (-math.pi / 12.0)
        assert abs(static_m0(1.0) + 0.13089969) < 1e-8
        assert abs(static_m0(10.0) + math.pi / 240.0) < 1e-15

    def test_cutoff_within_tolerance(self):
        got = static_m0(1.0, RegConfig.cutoff())
        assert abs(got - M0) < 1e-6 * abs(M0)

    def test_abel_plana(self):
        got = static_m0(1.0, RegConfig.abel_plana())
        assert abs(got - M0) < 1e-10

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            static_m0(-1.0)

    def test_cutoff_fit_without_a_digit_is_refused(self):
        # damped sums near 1/x^2 = 1e123 round away every digit of m0: the fit reads a value
        # near 1e104 with a larger stated error, which sweep once squared into an OverflowError
        config = RegConfig.cutoff(hi=4.35e-59, lo=6.02e-62)
        with pytest.raises(FitError, match=r"cutoff m0 = \S+ has a stated error of "):
            static_m0(1.0, config)
        with pytest.raises(FitError):
            sweep(Scheme.LORENTZ_EXACT, 1.04e-58, [-0.9999999999999933, 0.7], Route.CLOSED_FORM,
                  config)


class TestComovingEnergy:
    def test_lab_prior_shifted(self):
        got = comoving_energy(Scheme.GALILEO_LAB_PRIOR, Cavity1D(1.0, 0.2))
        assert abs(got - 0.96 * M0) < 1e-15

    def test_contraction_scheme_invariant(self):
        got = comoving_energy(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.9))
        assert abs(got - M0) < 1e-15

    def test_static(self):
        for scheme in Scheme:
            assert abs(comoving_energy(scheme, Cavity1D(1.0, 0.0)) - M0) < 1e-15


class TestBoostedEM:
    def test_contracted_closed_form_values(self):
        em = boosted_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.6), Route.CLOSED_FORM)
        assert abs(em.energy - 2.125 * M0) < 1e-12
        assert abs(em.momentum - 1.875 * M0) < 1e-12
        assert abs(em.energy + 0.278162) < 1e-6
        assert abs(em.momentum + 0.245437) < 1e-6

    def test_comoving_prior_closed_form(self):
        em = boosted_em(Scheme.GALILEO_COMOVING_PRIOR, Cavity1D(1.0, 0.2), Route.CLOSED_FORM)
        assert abs(em.energy - 1.02 * M0) < 1e-14
        assert abs(em.momentum - 0.2 * M0) < 1e-14

    def test_static_row(self):
        em = boosted_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.0), Route.CLOSED_FORM)
        assert em.energy == M0
        assert em.momentum == 0.0

    @pytest.mark.parametrize("v", [0.1, 0.4, 0.6, 0.9])
    def test_numeric_route_matches_closed(self, v):
        numeric = boosted_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, v), Route.PER_MODE_NUMERIC)
        closed = boosted_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, v), Route.CLOSED_FORM)
        assert abs(numeric.energy - closed.energy) <= 1e-8 * abs(closed.energy)
        assert abs(numeric.momentum - closed.momentum) <= 1e-8 * abs(closed.momentum)

    def test_route_comparison_flags(self):
        cmp_ = route_comparison(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.6))
        assert cmp_.agree
        lab = route_comparison(Scheme.GALILEO_LAB_PRIOR, Cavity1D(1.0, 0.3))
        # closed and quadrature lab-prior forms genuinely differ; reported,
        # not gated
        assert lab.rel_diff_momentum > 0.1
        assert "factor-2" in lab.note


class TestMassShell:
    @pytest.mark.parametrize("v", np.arange(0.0, 0.951, 0.05).tolist())
    def test_contracted_shell_identity(self, v):
        for route in (Route.CLOSED_FORM, Route.PER_MODE_NUMERIC):
            em = boosted_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, float(v)), route)
            assert abs(mass_shell_residual(em, M0)) <= 1e-10 * M0**2

    def test_comoving_prior_violation_quantified(self):
        em = boosted_em(Scheme.GALILEO_COMOVING_PRIOR, Cavity1D(1.0, 0.2), Route.CLOSED_FORM)
        # (1.02^2 - 0.04 - 1) m0^2 = 4e-4 m0^2 = v^4/4 m0^2
        assert abs(mass_shell_residual(em, M0) - 4e-4 * M0**2) < 1e-12


class TestNonRelFit:
    def test_contracted_expansion_coefficients(self):
        fit = nonrel_fit(Scheme.LORENTZ_EXACT, 0.2, degree=6)
        assert abs(fit.energy_coeffs[0] - 1.0) < 1e-3
        assert abs(fit.energy_coeffs[1] - 2.0) < 1e-3
        assert abs(fit.momentum_coeffs[0] - 2.0) < 1e-3

    def test_comoving_prior_expansion(self):
        fit = nonrel_fit(Scheme.GALILEO_COMOVING_PRIOR, 0.2, degree=4)
        assert abs(fit.energy_coeffs[0] - 1.0) < 1e-6
        assert abs(fit.energy_coeffs[1] - 0.5) < 1e-6
        assert abs(fit.momentum_coeffs[0] - 1.0) < 1e-9

    def test_tiny_window_constant_term(self):
        fit = nonrel_fit(Scheme.LORENTZ_EXACT, 0.05, degree=4)
        assert abs(fit.energy_coeffs[0] - 1.0) < 1e-7

    def test_residual_gate(self):
        # degree 2 cannot represent the v^4 content over this window
        with pytest.raises(FitError):
            nonrel_fit(Scheme.LORENTZ_EXACT, 0.3, degree=2)

    @pytest.mark.parametrize("degree", [31, 40])
    def test_degree_too_high_for_the_samples(self, degree):
        # 16 powers on 16 samples (design condition 1.3e13) or more powers than samples
        # (condition inf): no least-squares fit is left, only an interpolant
        with pytest.raises(FitError, match=r"condition number \S+ exceeds 1\.0e\+12") as exc:
            nonrel_fit(Scheme.LORENTZ_EXACT, 0.2, degree=degree)
        assert "schedule" not in str(exc.value)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            nonrel_fit(Scheme.LORENTZ_EXACT, 0.4, degree=4)
        with pytest.raises(ValueError):
            nonrel_fit(Scheme.LORENTZ_EXACT, 0.2, degree=1)
        with pytest.raises(ValueError):
            nonrel_fit(Scheme.LORENTZ_EXACT, 0.2, degree=4, n_samples=5)
        for v_max in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="v_max must be > 0"):
                nonrel_fit(Scheme.LORENTZ_EXACT, v_max, degree=4)

    def test_vanishing_column_fails_the_condition_check(self):
        # v^2 <= 1e-600 underflows to 0 at every sample: a zero column, condition inf
        with pytest.raises(FitError, match=r"condition number inf exceeds 1\.0e\+12"):
            nonrel_fit(Scheme.LORENTZ_EXACT, 1e-300, degree=4)

    def test_inertia_ratios_reported_side_by_side(self):
        de, dp = inertia_ratios()
        assert abs(de - 4.0) < 1e-3
        assert abs(dp - 2.0) < 1e-3


class TestMismatch:
    def test_energy_excess_ratio_near_four(self):
        v = 0.05
        lab = closed_form_coefficients(Scheme.GALILEO_LAB_PRIOR, v)[0]
        com = closed_form_coefficients(Scheme.GALILEO_COMOVING_PRIOR, v)[0]
        ratio = (lab - 1.0) / (com - 1.0)
        assert 3.9 <= ratio <= 4.1

    def test_momentum_ratio_tends_to_one(self):
        for v, tol in ((0.01, 2e-4), (0.001, 2e-6)):
            ratio = (closed_form_coefficients(Scheme.GALILEO_LAB_PRIOR, v)[1]
                     / closed_form_coefficients(Scheme.GALILEO_COMOVING_PRIOR, v)[1])
            assert abs(ratio - 1.0) < tol

    def test_discrepancy_report_content(self):
        report = lab_prior_discrepancy_report(Cavity1D(1.0, 0.2))
        assert report.max_rel_diff > 0.01
        coeff_e = report.entries[0]
        assert abs(coeff_e.value_a - 1.0816) < 1e-10   # 1 + 2 v^2 + v^4
        assert abs(coeff_e.value_b - 1.04 / 0.96) < 1e-10


class TestSweep:
    def test_contracted_sweep_shape_and_monotonicity(self):
        table = sweep(Scheme.LORENTZ_EXACT, 1.0, np.arange(0.0, 0.91, 0.1))
        assert len(table.rows) == 10
        energies = [r.energy for r in table.rows]
        assert all(b < a for a, b in zip(energies, energies[1:]))  # more negative
        first = table.rows[0]
        assert first.energy == M0 and first.momentum == 0.0 and first.shell_residual == 0.0

    def test_point_particle_reference_column(self):
        table = sweep(Scheme.LORENTZ_EXACT, 1.0, [0.6])
        row = table.rows[0]
        assert abs(row.energy_point_particle - 1.25 * M0) < 1e-14
        assert abs(row.momentum_point_particle - 0.75 * M0) < 1e-14
        # cavity energy lies below the point-particle curve (more negative)
        assert row.energy < row.energy_point_particle

    def test_galilean_grid_capped(self):
        table = sweep(Scheme.GALILEO_COMOVING_PRIOR, 1.0, [0.1, 0.3, 0.7])
        assert [r.velocity for r in table.rows] == [0.1, 0.3]
        assert any("capped" in w for w in table.warnings)

    def test_invalid_grids(self):
        with pytest.raises(ValueError):
            sweep(Scheme.LORENTZ_EXACT, 1.0, [])
        with pytest.raises(ValueError):
            sweep(Scheme.LORENTZ_EXACT, 1.0, [1.5])


class TestPlates:
    def test_reference_values(self):
        energy, slope = em_plate_energy_per_area(1.0)
        assert abs(energy + math.pi**2 / 720.0) < 1e-15
        assert abs(slope - math.pi**2 / 240.0) < 1e-15

    def test_cubic_scaling(self):
        energy, _ = em_plate_energy_per_area(2.0)
        assert abs(energy + math.pi**2 / 5760.0) < 1e-16

    @pytest.mark.parametrize("a", [0.3, 1.0, 7.5])
    def test_signs(self, a):
        energy, slope = em_plate_energy_per_area(a)
        assert energy < 0.0 < slope

    def test_rejects_bad_separation(self):
        with pytest.raises(ValueError):
            em_plate_energy_per_area(0.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf, 1e100, 1e-100, 1e-80])
    def test_rejects_separation_outside_float64(self, a):
        with pytest.raises(ValueError, match="plate separation a"):
            em_plate_energy_per_area(a)


class TestDivergenceAndParity:
    def test_energy_grows_unbounded(self):
        em = boosted_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.99), Route.CLOSED_FORM)
        assert abs(em.energy) > 50.0 * abs(M0)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("route", [Route.CLOSED_FORM, Route.PER_MODE_NUMERIC])
    def test_parity(self, scheme, route):
        plus = boosted_em(scheme, Cavity1D(1.0, 0.3), route)
        minus = boosted_em(scheme, Cavity1D(1.0, -0.3), route)
        assert abs(plus.energy - minus.energy) < 1e-10 * abs(plus.energy)
        assert abs(plus.momentum + minus.momentum) < 1e-10 * abs(plus.momentum)


@pytest.fixture
def cutoff_fits(monkeypatch):
    """Count the cutoff fits of m0 (observables.cutoff_finite_part calls)."""
    from boostcav import observables

    calls = []
    fit = observables.cutoff_finite_part

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(observables, "cutoff_finite_part", counted)
    return calls


class TestStaticM0FittedOnce:
    """m0 does not depend on v: one cutoff fit serves a whole grid."""

    CUTOFF = RegConfig.cutoff()

    @pytest.mark.parametrize("route", list(Route))
    def test_sweep(self, cutoff_fits, route):
        table = sweep(Scheme.GALILEO_COMOVING_PRIOR, 1.3, [0.0, 0.1, 0.2, 0.3, 0.4], route,
                      self.CUTOFF)
        assert len(table.rows) == 5
        assert len(cutoff_fits) == 1

    def test_nonrel_fit(self, cutoff_fits):
        # c_E = E/m0 and c_P = P/m0 are fitted directly; no m0 is regularized
        nonrel_fit(Scheme.LORENTZ_EXACT, 0.2, 6)
        assert not cutoff_fits

    def test_route_comparison(self, cutoff_fits):
        route_comparison(Scheme.LORENTZ_EXACT, Cavity1D(1.3, 0.4), self.CUTOFF)
        assert len(cutoff_fits) == 1

    def test_passed_m0_is_used(self, cutoff_fits):
        em = boosted_em(Scheme.LORENTZ_EXACT, Cavity1D(1.3, 0.4), Route.CLOSED_FORM, self.CUTOFF,
                        m0=-2.0)
        assert not cutoff_fits
        assert em.energy == -2.0 * closed_form_coefficients(Scheme.LORENTZ_EXACT, 0.4)[0]


CONFIGS = {"zeta": None, "cutoff": RegConfig.cutoff(), "abel-plana": RegConfig.abel_plana()}


class TestLengthOnlyScales:
    """m0 = m0(1)/L and E/m0, P/m0 depend on v alone, so L m0, L E and L P do not depend on L."""

    @pytest.mark.parametrize("method", sorted(CONFIGS))
    @pytest.mark.parametrize("route", list(Route), ids=lambda r: r.value)
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.label)
    # below |v| ~ 1e-150, P = c_P m0 leaves the normal float64 range at one end
    # of the L range, where no result keeps 53 bits to compare in ulp
    @settings(max_examples=12, deadline=None)
    @given(log10_length=st.floats(-150.0, 150.0),
           v=st.floats(-0.5, 0.5).filter(lambda v: v == 0.0 or abs(v) >= 1e-100))
    def test_within_4_ulp_of_the_unit_cavity(self, scheme, route, method, log10_length, v):
        length = 10.0 ** log10_length
        config = CONFIGS[method]
        m0 = static_m0(length, config)
        scaled = boosted_em(scheme, Cavity1D(length, v), route, config)
        unit = boosted_em(scheme, Cavity1D(1.0, v), route, config)
        for got, want in ((length * m0, static_m0(1.0, config)),
                          (length * scaled.energy, unit.energy),
                          (length * scaled.momentum, unit.momentum)):
            assert abs(got - want) <= 4.0 * math.ulp(want)
