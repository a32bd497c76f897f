import math
import re
import warnings

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from boostcav.cavity import Cavity2D
from boostcav import rect2d, regsum
from boostcav.regsum import RegConfig, RegMethod
from boostcav.rect2d import (
    Route2D,
    UnderdeterminedError,
    boosted_em_2d,
    finite_parts,
    mass_shell_probe_2d,
    static_limit_report,
    subtraction_solver_2d,
)

ZETA3 = 1.2020569031595943


@pytest.fixture(scope="module")
def square_parts():
    return finite_parts(Cavity2D(1.0, 1.0, 0.0))


class TestStaticLimit:
    def test_per_mode_route_recovers_rest_energy(self, square_parts):
        res = boosted_em_2d(Cavity2D(1.0, 1.0, 0.0), Route2D.PER_MODE, parts=square_parts)
        budget = 2.0 * (res.energy_error + square_parts.S_omega.error_estimate)
        assert abs(res.energy - res.static_energy) <= max(budget, 1e-12)
        assert res.momentum == 0.0

    def test_grouped_route_misses_by_s_k(self, square_parts):
        report = static_limit_report(Cavity2D(1.0, 1.0, 0.0))
        gap = report.entries[0].value_a - report.entries[0].value_b
        assert abs(gap - square_parts.S_k.value) <= 5.0 * (
            square_parts.S_k.error_estimate + square_parts.S_omega.error_estimate
        )
        assert abs(gap) > 100.0 * square_parts.S_k.error_estimate


class TestShellProbe:
    def test_rest_velocity_row(self, square_parts):
        rows = mass_shell_probe_2d(Cavity2D(1.0, 1.0, 0.0), [0.0], parts=square_parts)
        assert abs(rows[0].residual) <= rows[0].residual_error

    def test_residual_matches_analytic_law(self, square_parts):
        rows = mass_shell_probe_2d(Cavity2D(1.0, 1.0, 0.0), [0.2, 0.4, 0.6],
                                   parts=square_parts)
        e_m = square_parts.S_omega.value
        budget = 4.0 * abs(e_m) * (
            square_parts.U.error_estimate + square_parts.W.error_estimate
            + square_parts.S_omega.error_estimate
        )
        for row in rows:
            assert abs(row.residual - row.predicted_residual) <= budget

    def test_square_residual_beyond_error_bars(self, square_parts):
        rows = mass_shell_probe_2d(Cavity2D(1.0, 1.0, 0.0), [0.6], parts=square_parts)
        assert abs(rows[0].residual) > 10.0 * rows[0].residual_error


class TestSubtractionSolver:
    def test_both_branches_zero_the_residual(self, square_parts):
        sol = subtraction_solver_2d(Cavity2D(1.0, 1.0, 0.0), [0.2, 0.4, 0.6],
                                    parts=square_parts)
        names = {br.name for br in sol.branches}
        assert names == {"zero-transverse-part", "zero-longitudinal-part"}
        for br in sol.branches:
            assert br.max_rel_residual <= 1e-10

    def test_branch_shifts_cancel_the_parts(self, square_parts):
        sol = subtraction_solver_2d(Cavity2D(1.0, 1.0, 0.0), [0.2, 0.4, 0.6],
                                    parts=square_parts)
        by_name = {br.name: br for br in sol.branches}
        assert abs(by_name["zero-transverse-part"].delta_W + square_parts.W.value) < 1e-15
        assert abs(by_name["zero-longitudinal-part"].delta_U + square_parts.U.value) < 1e-15

    def test_single_point_underdetermined(self, square_parts):
        with pytest.raises(UnderdeterminedError):
            subtraction_solver_2d(Cavity2D(1.0, 1.0, 0.0), [0.5], parts=square_parts)

    def test_zero_velocities_do_not_count(self, square_parts):
        with pytest.raises(UnderdeterminedError):
            subtraction_solver_2d(Cavity2D(1.0, 1.0, 0.0), [0.0, 0.2, 0.4],
                                  parts=square_parts)


class TestGeometry:
    def test_swap_symmetry_at_rest(self):
        em_ab = rect2d.static_energy_2d(Cavity2D(1.0, 2.0, 0.0))
        em_ba = rect2d.static_energy_2d(Cavity2D(2.0, 1.0, 0.0))
        assert abs(em_ab.value - em_ba.value) <= 5.0 * (
            em_ab.error_estimate + em_ba.error_estimate
        )

    def test_swap_asymmetry_under_boost(self):
        moving_ab = boosted_em_2d(Cavity2D(1.0, 2.0, 0.5))
        moving_ba = boosted_em_2d(Cavity2D(2.0, 1.0, 0.5))
        gap = abs(moving_ab.energy - moving_ba.energy)
        assert gap > 10.0 * (moving_ab.energy_error + moving_ba.energy_error)


@pytest.fixture(scope="module")
def wide_parts():
    return finite_parts(Cavity2D(1.0, 30.0, 0.0))


class TestWideCavityAsymptotics:
    """Strip-limit closed forms: per unit transverse length,

        E_m/b  -> -zeta(3)/(16 pi a^2)
        S_k/b  -> -zeta(3)/(8 pi a^2)    (so U/E_m -> 3/2, W/E_m -> -1/2)

    The transverse finite part W never vanishes in the wide limit; it
    approaches -E_m/2. These targets come from the continuum transverse
    integral with the longitudinal sum continued at its integer arguments
    (sum n^2 log n -> zeta(3)/(4 pi^2)), matching the known strip energy.
    """

    def test_rest_energy_tracks_strip_density(self, wide_parts):
        # every Bessel argument is >= 60 pi, so S_omega is the two leading terms
        expected = -ZETA3 * 30.0 / (16.0 * math.pi) + math.pi / 48.0
        assert abs(wide_parts.S_omega.value - expected) <= wide_parts.S_omega.error_estimate

    def test_longitudinal_and_transverse_shares(self, wide_parts):
        e_m = wide_parts.S_omega.value
        assert abs(wide_parts.U.value / e_m - 1.5) < 0.06
        assert abs(wide_parts.W.value / e_m + 0.5) < 0.06

    def test_transverse_part_positive_and_large(self, wide_parts):
        # the wide-cavity transverse finite part is comparable to |E_m|, not
        # a vanishing correction
        assert wide_parts.W.value > 0.25 * abs(wide_parts.S_omega.value)

    def test_wide_cavity_shell_residual_stays_finite(self, wide_parts):
        # with U/E_m -> 3/2 and W/E_m -> -1/2, the relative shell residual at
        # v = 0.6 tends to -(3/2)(gamma^2(1+v^2) - 1) = -1.6875 instead of 0
        rows = mass_shell_probe_2d(Cavity2D(1.0, 30.0, 0.0), [0.6], parts=wide_parts)
        e_m = wide_parts.S_omega.value
        rel = rows[0].residual / e_m**2
        assert -2.1 < rel < -1.6
        budget = 4.0 * abs(e_m) * (
            wide_parts.U.error_estimate + wide_parts.W.error_estimate
            + wide_parts.S_omega.error_estimate
        )
        assert abs(rows[0].residual - rows[0].predicted_residual) <= budget


PART_NAMES = ("U", "W", "S_omega", "S_k")
# classical lattice value of the unit square, see tests/test_regsum.py
SQUARE_REST_ENERGY = 0.0410405973441


def _reference_parts(a, b):
    """The Chowla-Selberg series for F = S_omega and its side derivatives in mpmath.

    30 digits, summed to Bessel argument 80 (K_1 ~ 1e-36), with x the
    shorter side, y the longer, k_n = n pi/x, z = 2 j k_n y and
    K_1'(z) = -K_0(z) - K_1(z)/z:

        F    = pi/(48x) - zeta(3) y/(16 pi x^2) - (1/2pi) sum k_n K_1(z)/j
        x F_x = -pi/(48x) + zeta(3) y/(8 pi x^2) + (1/2pi) sum (k_n K_1(z)/j + 2 y k_n^2 K_1'(z))
        y F_y = -zeta(3) y/(16 pi x^2) - (y/pi) sum k_n^2 K_1'(z)
    """
    with mpmath.workdps(30):
        x, y = sorted((mpmath.mpf(a), mpmath.mpf(b)))
        pi, zeta3 = mpmath.pi, mpmath.zeta(3)
        f = pi / (48 * x) - zeta3 * y / (16 * pi * x**2)
        x_fx = -pi / (48 * x) + zeta3 * y / (8 * pi * x**2)
        y_fy = -zeta3 * y / (16 * pi * x**2)
        bessel = {}  # z depends on n j only
        n = 1
        while 2 * n * pi * y / x <= 80:
            k = n * pi / x
            j = 1
            while 2 * j * k * y <= 80:
                z = 2 * j * k * y
                if n * j not in bessel:
                    bessel[n * j] = mpmath.besselk(0, z), mpmath.besselk(1, z)
                k0, k1 = bessel[n * j]
                k1_prime = -k0 - k1 / z
                f -= k * k1 / (2 * pi * j)
                x_fx += (k * k1 / j + 2 * y * k**2 * k1_prime) / (2 * pi)
                y_fy -= y * k**2 * k1_prime / pi
                j += 1
            n += 1
        s_k = -x_fx if a <= b else -y_fy
        return {"U": (f + s_k) / 2, "W": (f - s_k) / 2, "S_omega": f, "S_k": s_k}


GRID = [(s, r * s) for s in (0.37, 2.9) for r in (1e-3, 0.03, 0.5, 1.0, 2.0, 30.0, 1e3)]


class TestChowlaSelberg:
    """The closed form is the default route; its errors are real bounds."""

    @pytest.mark.parametrize("a, b", GRID)
    def test_error_bounds_the_30_digit_reference(self, a, b):
        parts = finite_parts(Cavity2D(a, b, 0.0))
        ref = _reference_parts(a, b)
        for name in PART_NAMES:
            fp = getattr(parts, name)
            assert fp.method is RegMethod.ZETA_EXACT
            assert fp.error_estimate > 0.0
            assert abs(fp.value - float(ref[name])) <= fp.error_estimate, name

    def test_square_is_the_lattice_constant(self, square_parts):
        assert abs(square_parts.S_omega.value - SQUARE_REST_ENERGY) <= 1e-12

    def test_config_selects_the_route(self):
        cav = Cavity2D(1.0, 2.0, 0.0)
        assert finite_parts(cav, RegConfig.zeta()) == finite_parts(cav)
        cutoff = finite_parts(cav, rect2d.default_config())
        assert cutoff.S_omega.method is RegMethod.EXPONENTIAL_CUTOFF
        with pytest.raises(ValueError):
            finite_parts(cav, RegConfig.abel_plana())

    @pytest.mark.parametrize("a, b", [(1e-200, 1.0), (1e200, 1.0), (1e-200, 1e-200)])
    def test_unrepresentable_parts_are_rejected(self, a, b):
        with pytest.raises(ValueError, match=re.escape(f"a = {a:g}, b = {b:g}:")):
            finite_parts(Cavity2D(a, b, 0.0))


class TestHalvesByConstruction:
    """U = (S_omega + S_k)/2 and W = (S_omega - S_k)/2 hold exactly on both routes."""

    @pytest.mark.parametrize("cutoff", [False, True], ids=["chowla-selberg", "cutoff"])
    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (3.0, 0.5)])
    def test_u_and_w_are_half_sum_and_difference(self, cutoff, a, b):
        cav = Cavity2D(a, b, 0.0)
        parts = finite_parts(cav, rect2d.default_config() if cutoff else None)
        s_omega, s_k = parts.S_omega, parts.S_k
        assert parts.U.value == 0.5 * (s_omega.value + s_k.value)
        assert parts.W.value == 0.5 * (s_omega.value - s_k.value)
        pairs = list(zip(s_omega.fitted_divergent_coeffs, s_k.fitted_divergent_coeffs))
        assert parts.U.fitted_divergent_coeffs == tuple(0.5 * (x + y) for x, y in pairs)
        assert parts.W.fitted_divergent_coeffs == tuple(0.5 * (x - y) for x, y in pairs)
        for half in (parts.U, parts.W):
            assert half.error_estimate == 0.5 * (s_omega.error_estimate + s_k.error_estimate)
            assert half.fit_residual == 0.5 * (s_omega.fit_residual + s_k.fit_residual)
            assert (half.method, half.condition_number) == (s_omega.method,
                                                            s_omega.condition_number)
        assert len(s_omega.fitted_divergent_coeffs) == (2 if cutoff else 0)


class TestCutoffWorkBudget:
    """The cutoff cross-check estimates its term count and fails fast past the budget."""

    @pytest.mark.parametrize("a, b", [(1e-200, 1.0), (1.0, 1e4)])
    def test_extreme_sides_fail_fast(self, a, b):
        cav = Cavity2D(a, b, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"a = {a:g}, b = {b:g}:")) as exc:
                finite_parts(cav, rect2d.default_config())
        assert "spectrum terms, over the budget of 1e+09" in str(exc.value)

    def test_largest_tested_aspect_is_within_budget(self):
        # b/a = 50 sums about 2.7e7 terms at its smallest cutoff
        # the schedule is in units of 1/omega_min
        x_lo = rect2d.default_config().epsilon_schedule[-1]
        omega_min = rect2d._FourPartsSummand(1.0, 50.0).omega_min
        cap = -math.log(regsum._TRUNCATION_DAMPING) * omega_min / x_lo
        assert 2e7 < 50.0 * cap * cap / (4.0 * math.pi) < rect2d._TERM_BUDGET


SIDES = st.floats(min_value=1e-2, max_value=1e2)


@settings(max_examples=60, deadline=None)
@given(a=SIDES, b=SIDES, lam=st.floats(min_value=1e-2, max_value=1e2))
def test_scaling_law(a, b, lam):
    """S(lam a, lam b) = S(a, b)/lam, within the stated errors."""
    base = finite_parts(Cavity2D(a, b, 0.0))
    scaled = finite_parts(Cavity2D(lam * a, lam * b, 0.0))
    for name in PART_NAMES:
        p, q = getattr(base, name), getattr(scaled, name)
        assert abs(q.value - p.value / lam) <= q.error_estimate + p.error_estimate / lam, name


@settings(max_examples=60, deadline=None)
@given(a=SIDES, b=SIDES)
def test_swap_symmetry_and_linearity(a, b):
    """S_omega(a, b) = S_omega(b, a) and U + W = S_omega, within the stated errors."""
    ab = finite_parts(Cavity2D(a, b, 0.0))
    ba = finite_parts(Cavity2D(b, a, 0.0))
    assert abs(ab.S_omega.value - ba.S_omega.value) <= (
        ab.S_omega.error_estimate + ba.S_omega.error_estimate)
    assert abs(ab.U.value + ab.W.value - ab.S_omega.value) <= (
        ab.U.error_estimate + ab.W.error_estimate + ab.S_omega.error_estimate)
