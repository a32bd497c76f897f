import functools
import math
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from boostcav.cavity import Cavity2D
from boostcav import quadrature, rect2d
from boostcav.cli import main
from boostcav.observables import Route
from boostcav.regsum import RegConfig, RegMethod
from boostcav.rect2d import (
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
    def test_refuses_the_1d_closed_form_route(self):
        with pytest.raises(ValueError, match="the rectangle has no closed-form route"):
            boosted_em_2d(Cavity2D(1.0, 1.0, 0.3), Route.CLOSED_FORM)

    def test_per_mode_route_recovers_rest_energy(self, square_parts):
        res = boosted_em_2d(Cavity2D(1.0, 1.0, 0.0), Route.PER_MODE)
        budget = 2.0 * (res.energy_error + square_parts.S_omega.error_estimate)
        assert abs(res.energy - square_parts.S_omega.value) <= max(budget, 1e-12)
        assert res.momentum == 0.0

    def test_grouped_route_misses_by_s_k(self, square_parts):
        report = static_limit_report(Cavity2D(1.0, 1.0, 0.0))
        gap = report.entries[0].value_a - report.entries[0].value_b
        assert abs(gap - square_parts.S_k.value) <= 5.0 * (
            square_parts.S_k.error_estimate + square_parts.S_omega.error_estimate
        )
        assert abs(gap) > 100.0 * square_parts.S_k.error_estimate


class TestShellProbe:
    def test_rest_velocity_row(self):
        rows = mass_shell_probe_2d(Cavity2D(1.0, 1.0, 0.0), [0.0])
        assert abs(rows[0].residual) <= rows[0].residual_error

    def test_residual_matches_analytic_law(self, square_parts):
        rows = mass_shell_probe_2d(Cavity2D(1.0, 1.0, 0.0), [0.2, 0.4, 0.6])
        e_m = square_parts.S_omega.value
        budget = 4.0 * abs(e_m) * (
            square_parts.U.error_estimate + square_parts.W.error_estimate
            + square_parts.S_omega.error_estimate
        )
        for row in rows:
            assert abs(row.residual - row.predicted_residual) <= budget

    @pytest.mark.parametrize("v", [1e-9, 1e-7, 1e-5, 0.3])
    def test_predicted_residual_has_no_cancellation(self, square_parts, v):
        # 2 (gamma^2 (1 + v^2) - 1) U W = 4 gamma^2 v^2 U W in exact rational arithmetic;
        # gamma^2 (1 + v^2) - 1 formed in floats loses everything at v = 1e-9
        [row] = mass_shell_probe_2d(Cavity2D(1.0, 1.0, 0.0), [v])
        vq, u, w = (Fraction(x) for x in (v, square_parts.U.value, square_parts.W.value))
        exact = float(4 * vq * vq / (1 - vq * vq) * u * w)
        assert abs(row.predicted_residual - exact) <= 4.0 * math.ulp(exact)

    def test_square_residual_beyond_error_bars(self):
        rows = mass_shell_probe_2d(Cavity2D(1.0, 1.0, 0.0), [0.6])
        assert abs(rows[0].residual) > 10.0 * rows[0].residual_error

    def test_overflowing_squares_form_the_residual_as_a_product(self):
        # |E_s| ~ 3e156: E_s^2 overflows, (E_s - P_s)(E_s + P_s) ~ 3e304 does not;
        # E_s - P_s is a difference of two such numbers, good to about 1e-7
        tiny = Cavity2D(1e-150, 1e-150, 0.0)
        [row] = mass_shell_probe_2d(tiny, [0.99999999])
        assert row.result.energy > math.sqrt(sys.float_info.max) and math.isfinite(row.residual)
        assert abs(row.residual - row.predicted_residual) <= 1e-6 * row.predicted_residual

    def test_row_holds_the_per_mode_result(self):
        rows = mass_shell_probe_2d(Cavity2D(1.3, 4.1), [0.1, 0.5, 0.9])
        assert [row.result for row in rows] == [
            boosted_em_2d(Cavity2D(1.3, 4.1, v), Route.PER_MODE)
            for v in (0.1, 0.5, 0.9)
        ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_velocity_named(self, bad):
        for grid in ([bad], [0.1, 0.2, bad]):
            with pytest.raises(ValueError, match=re.escape(f"|v| < 1, got {bad!r}")):
                mass_shell_probe_2d(Cavity2D(1.0, 1.0, 0.0), grid)

    def test_repeated_velocities_give_one_row(self, capsys):
        rows = mass_shell_probe_2d(Cavity2D(1.0, 1.0, 0.0), [0.3, 0.3, 0.1])
        assert [row.result.velocity for row in rows] == [0.1, 0.3]
        # five grid points that round to the same 12 digits
        assert main(["rect2d", "--a", "1", "--b", "1", "--v", "0.5",
                     "--shell-grid", "0.2:0.2000000000005:0.0000000000001"]) == 0
        assert capsys.readouterr().out.count("shell probe v = 0.2") == 1


class TestSubtractionSolver:
    def test_both_branches_zero_the_residual(self):
        sol = subtraction_solver_2d(Cavity2D(1.0, 1.0, 0.0), [0.2, 0.4, 0.6])
        names = {br.name for br in sol.branches}
        assert names == {"zero-transverse-part", "zero-longitudinal-part"}
        for br in sol.branches:
            assert br.max_rel_residual <= 1e-10

    def test_branch_shifts_cancel_the_parts(self, square_parts):
        sol = subtraction_solver_2d(Cavity2D(1.0, 1.0, 0.0), [0.2, 0.4, 0.6])
        by_name = {br.name: br for br in sol.branches}
        assert abs(by_name["zero-transverse-part"].delta_W + square_parts.W.value) < 1e-15
        assert abs(by_name["zero-longitudinal-part"].delta_U + square_parts.U.value) < 1e-15

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.3, 4.1)])
    @pytest.mark.parametrize("grid", [
        [0.2, 0.6, 0.999],
        [0.999, 0.9999999, 0.999999999],
        [-(1.0 - 1e-12), 0.5, 1.0 - 1e-12],
    ])
    def test_branch_residuals_do_not_cancel_near_light_speed(self, a, b, grid):
        # each branch zeroes the residual analytically; the float residual is a few
        # rounding errors of e_m^2 at every |v| < 1, not (c_E u)^2 - (c_P u)^2
        sol = subtraction_solver_2d(Cavity2D(a, b, 0.0), grid)
        for br in sol.branches:
            assert br.max_rel_residual <= 4.0 * sys.float_info.epsilon

    # NaN fails every comparison: a |v| >= 1 test lets it through, it counts as nonzero,
    # and max(0.0, nan) is 0.0, so a NaN grid would report a zero residual
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_velocity_named(self, bad):
        for grid in ([bad, bad, bad], [0.1, 0.2, bad]):
            with pytest.raises(ValueError, match=re.escape(f"|v| < 1, got {bad!r}")):
                subtraction_solver_2d(Cavity2D(1.0, 1.0), grid)

    def test_single_point_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            subtraction_solver_2d(Cavity2D(1.0, 1.0, 0.0), [0.5])

    def test_zero_velocities_do_not_count(self):
        with pytest.raises(UnderdeterminedError):
            subtraction_solver_2d(Cavity2D(1.0, 1.0, 0.0), [0.0, 0.2, 0.4])


GRID_50 = [k / 50.0 for k in range(50)]
# each rectangle function, with the arguments it takes after the rectangle
RECTANGLE_CALLS = pytest.mark.parametrize("func, args", [
    (boosted_em_2d, ()),
    (static_limit_report, ()),
    (subtraction_solver_2d, (GRID_50,)),
    (mass_shell_probe_2d, (GRID_50,)),
], ids=["boosted_em_2d", "static_limit_report", "subtraction_solver_2d", "mass_shell_probe_2d"])


class TestOneWayIn:
    """Each rectangle function takes the rectangle, and one boost law serves them all."""

    @RECTANGLE_CALLS
    def test_one_closed_form_evaluation_per_call(self, monkeypatch, func, args):
        calls = []

        def counting(cavity, *config):
            calls.append(cavity)
            return finite_parts(cavity, *config)

        monkeypatch.setattr(rect2d, "finite_parts", counting)
        func(Cavity2D(1.3, 4.1, 0.5), *args)
        assert calls == [Cavity2D(1.3, 4.1, 0.5)]

    @RECTANGLE_CALLS
    def test_parts_are_not_an_argument(self, square_parts, func, args):
        with pytest.raises(TypeError):
            func(Cavity2D(1.0, 1.0), *args, parts=square_parts)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.3, 4.1), (2.7, 0.9)])
    def test_static_limit_is_the_boost_at_rest(self, a, b):
        grouped, per_mode = static_limit_report(Cavity2D(a, b)).entries
        at_rest = Cavity2D(a, b, 0.0)
        assert grouped.value_a == boosted_em_2d(at_rest, Route.GROUPED).energy
        assert per_mode.value_a == boosted_em_2d(at_rest, Route.PER_MODE).energy


class TestGeometry:
    def test_swap_symmetry_at_rest(self):
        em_ab = rect2d.finite_parts(Cavity2D(1.0, 2.0, 0.0)).S_omega
        em_ba = rect2d.finite_parts(Cavity2D(2.0, 1.0, 0.0)).S_omega
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
        rows = mass_shell_probe_2d(Cavity2D(1.0, 30.0, 0.0), [0.6])
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


@functools.lru_cache(maxsize=None)
def _bessel_k01(ratio, n):
    """K_0(z) and K_1(z) in 30 digits at z = 2 pi n ratio.

    mpmath takes 10-60 ms a pair at these arguments, and every rectangle of
    one aspect ratio y/x needs the same ones.
    """
    with mpmath.workdps(30):
        z = 2 * mpmath.pi * n * ratio
        return mpmath.besselk(0, z), mpmath.besselk(1, z)


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
        n = 1
        while 2 * n * pi * y / x <= 80:
            k = n * pi / x
            j = 1
            while 2 * j * k * y <= 80:
                z = 2 * j * k * y
                k0, k1 = _bessel_k01(y / x, n * j)
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
            assert fp.error_estimate > 0.0
            assert abs(fp.value - float(ref[name])) <= fp.error_estimate, name

    def test_square_is_the_lattice_constant(self, square_parts):
        assert abs(square_parts.S_omega.value - SQUARE_REST_ENERGY) <= 1e-12

    def test_config_selects_the_route(self):
        cav = Cavity2D(1.0, 2.0, 0.0)
        assert finite_parts(cav, RegConfig(RegMethod.ZETA_EXACT)) == finite_parts(cav)
        cutoff = finite_parts(cav, rect2d.default_config())
        assert len(cutoff.S_omega.fitted_divergent_coeffs) == 2
        with pytest.raises(ValueError):
            finite_parts(cav, RegConfig(RegMethod.ABEL_PLANA))

    @pytest.mark.parametrize("a, b", [(1e-200, 1.0), (1e200, 1.0), (1e-200, 1e-200),
                                      (1.0, 1e-301)])
    def test_unrepresentable_parts_are_rejected(self, a, b):
        with pytest.raises(ValueError, match=re.escape(f"a = {a:g}, b = {b:g}:")):
            finite_parts(Cavity2D(a, b, 0.0))


@settings(max_examples=40, deadline=None)
@given(log_aspect=st.floats(min_value=-3.0, max_value=3.0),
       log_short=st.floats(min_value=-150.0, max_value=150.0))
def test_zeta_parts_hold_their_errors_at_any_scale(log_aspect, log_short):
    """Each part within its stated error of the 30-digit series, or, where a square
    leaves float64, the ValueError naming the sides: b/a and the shorter side log-uniform."""
    short, aspect = 10.0**log_short, 10.0**log_aspect
    a, b = (short, short * aspect) if aspect >= 1.0 else (short / aspect, short)
    ref = _reference_parts(a, b)
    try:
        parts = finite_parts(Cavity2D(a, b, 0.0))
    except ValueError as exc:
        assert str(exc).startswith(f"rectangle a = {a:g}, b = {b:g}: finite part ")
        assert max(abs(ref[name]) for name in PART_NAMES) ** 2 > sys.float_info.max
        return
    for name in PART_NAMES:
        fp = getattr(parts, name)
        assert abs(fp.value - float(ref[name])) <= fp.error_estimate, name


class TestPoissonRowsAtZero:
    """The zeta route's rows j >= 1 at eps = 0 against their Bessel sums in mpmath."""

    @staticmethod
    def _exact_sums(y):
        """sum_{j>=1} 2 Omega_j(0) and 2 R_j(0) on the 1 x y rectangle, in 30 digits.

        2 Omega_j(0) = -(4c/xi_j) sum_m m K_1(m j Theta) and 2 R_j(0) = 4 sum_m m^2 K_0(m j Theta),
        c = pi, xi_j = 2 j y, Theta = 2 pi y; the terms past argument 60 (K ~ 1e-27) are dropped.
        """
        with mpmath.workdps(30):
            y = mpmath.mpf(y)
            theta = 2 * mpmath.pi * y
            omega = r = mpmath.mpf(0)
            for j in range(1, int(60 / theta) + 1):
                for m in range(1, int(60 / (j * theta)) + 1):
                    k0, k1 = _bessel_k01(y, m * j)
                    omega -= 4 * mpmath.pi / (2 * j * y) * m * k1
                    r += 4 * m * m * k0
            return omega, r

    def test_error_bounds_the_30_digit_sums(self):
        # Theta = 2 pi y from 2 pi to 47, past where e^{-Theta} falls below the rounding
        # and no row is left; the reference pair is the zeta route's, |T0| + |T1|
        rowless = 0
        ys = (1.0, 1.5, 2.0, 2.5, 3.5, 5.0, 6.5, 7.5)
        for y in ys:
            scale = y / (4.0 * math.pi)
            t = math.pi / 48.0 + ZETA3 * y / (16.0 * math.pi)
            omega, r, omega_err, r_err = rect2d._poisson_rows(
                0.0, y, (t / scale, t / (scale * math.pi * math.pi)))
            rowless += not omega
            for rows, err, exact in zip((omega, r), (omega_err, r_err), self._exact_sums(y)):
                # the rows' stated error, plus the fsum and the factor h of each row
                bound = err + rect2d._gamma(2) * sum(abs(row) for row in rows)
                with mpmath.workdps(30):
                    actual = float(abs(mpmath.fsum(mpmath.mpf(row) for row in rows) - exact))
                assert actual <= bound, (y, actual, bound)
        assert 0 < rowless < len(ys)


def test_rectangle_runs_no_adaptive_quadrature(monkeypatch, capsys):
    """The closed form and the rect2d command never reach the Gauss-Legendre panels."""
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature on the rectangle's path")

    monkeypatch.setattr(quadrature, "_abscissae", refuse)
    for a, b in ((1.0, 1.0), (1.0, 5.0), (1.0, 0.05)):
        finite_parts(Cavity2D(a, b, 0.0))
    assert main(["rect2d", "--a", "1.3", "--b", "4.1", "--v", "0.55",
                 "--shell-grid", "0.05:0.8:0.15"]) == 0
    assert "shell probe v = 0.8" in capsys.readouterr().out


class TestHalvesByConstruction:
    """U = (S_omega + S_k)/2 and W = (S_omega - S_k)/2 hold exactly on both routes."""

    @pytest.mark.parametrize("cutoff", [False, True], ids=["chowla-selberg", "cutoff"])
    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (3.0, 0.5)])
    def test_u_and_w_are_half_sum_and_difference(self, cutoff, a, b):
        cav = Cavity2D(a, b, 0.0)
        config = rect2d.default_config() if cutoff else RegConfig(RegMethod.ZETA_EXACT)
        parts = finite_parts(cav, config)
        s_omega, s_k = parts.S_omega, parts.S_k
        assert parts.U.value == 0.5 * (s_omega.value + s_k.value)
        assert parts.W.value == 0.5 * (s_omega.value - s_k.value)
        pairs = list(zip(s_omega.fitted_divergent_coeffs, s_k.fitted_divergent_coeffs))
        assert parts.U.fitted_divergent_coeffs == tuple(0.5 * (x + y) for x, y in pairs)
        assert parts.W.fitted_divergent_coeffs == tuple(0.5 * (x - y) for x, y in pairs)
        for half in (parts.U, parts.W):
            assert half.error_estimate == 0.5 * (s_omega.error_estimate + s_k.error_estimate)
            assert half.fit_residual == 0.5 * (s_omega.fit_residual + s_k.fit_residual)
            assert half.condition_number == s_omega.condition_number
        assert len(s_omega.fitted_divergent_coeffs) == (2 if cutoff else 0)


class TestCutoffAtExtremeSides:
    """The cutoff cross-check answers at every aspect ratio and scale float64 holds."""

    # b/a from 1e3 to 1e7 in both orientations, and sides near the ends of float64
    @pytest.mark.parametrize("a, b", [
        (1.0, 1e3), (1e3, 1.0), (1.0, 1e4), (1e4, 1.0), (1.0, 1e5), (1e5, 1.0), (1.0, 1e7),
        (1e-150, 1e-150), (1e150, 1e150), (1e-150, 5e-150), (5e150, 1e150)])
    def test_agrees_with_chowla_selberg(self, a, b):
        cav = Cavity2D(a, b, 0.0)
        cutoff, exact = finite_parts(cav, rect2d.default_config()), finite_parts(cav)
        for name in PART_NAMES:
            cut, ref = getattr(cutoff, name), getattr(exact, name)
            assert abs(cut.value - ref.value) <= cut.error_estimate + ref.error_estimate, name

    # a finite part of 1e-200 x 1, or of 1 x 1e-200, is about 1e398, and of 1e200 x 1 about
    # 1e198, whose square leaves float64
    @pytest.mark.parametrize("a, b", [(1e-200, 1.0), (1.0, 1e-200), (1e200, 1.0)])
    def test_unrepresentable_sides_are_named(self, capsys, a, b):
        cav = Cavity2D(a, b, 0.0)
        for config in (rect2d.default_config(), RegConfig(RegMethod.ZETA_EXACT)):
            with pytest.raises(ValueError, match=re.escape(f"rectangle a = {a:g}, b = {b:g}: ")):
                finite_parts(cav, config)
        assert main(["rect2d", "--a", f"{a:g}", "--b", f"{b:g}"]) == 2
        assert f"usage error: rectangle a = {a:g}, b = {b:g}: " in capsys.readouterr().err


    def test_refuses_where_zeta_does(self):
        # sides from 1e-200 to 1e200 in both orders: inside every range, past the squares'
        # (1e-155^2), past the parts' own (1e-200 x 1) and past the aspect ratio's (1e-200 x 1e200)
        sides = (1e-200, 1e-160, 1e-155, 1e-150, 1e-100, 1.0, 1e100, 1e150, 1e155, 1e160, 1e200)

        def outcome(a, b, config):
            try:
                finite_parts(Cavity2D(a, b, 0.0), config)
            except ValueError as exc:
                return str(exc)
            return "answers"

        differ = [(a, b) for a in sides for b in sides
                  if outcome(a, b, rect2d.default_config()) != outcome(a, b, RegConfig(RegMethod.ZETA_EXACT))]
        assert not differ


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


@functools.lru_cache(maxsize=None)
def _boost_parts(a, b, method):
    config = rect2d.default_config() if method == "cutoff" else RegConfig(RegMethod.ZETA_EXACT)
    return finite_parts(Cavity2D(a, b), config)


# zeta parts at aspect 1, near U's and S_omega's zero crossings (1.83, 2.736865), and at
# 1e3 and 1e12; cutoff parts at aspect 1 and 20. Each non-square one on both orientations.
BOOST_GEOMETRIES = [(1.0, y, "zeta") for y in (1.0, 1.83, 2.736865, 1e3, 1e12)]
BOOST_GEOMETRIES += [(1.0, y, "cutoff") for y in (1.0, 20.0)]
BOOST_GEOMETRIES += [(b, a, method) for a, b, method in BOOST_GEOMETRIES if a != b]


@pytest.mark.parametrize("geometry", BOOST_GEOMETRIES, ids=str)
@settings(max_examples=60, deadline=None)
@given(v=st.one_of(st.floats(-0.99, 0.99),
                   st.builds(lambda bits, sign: sign * (1.0 - 2.0**-bits),
                             st.integers(1, 53), st.sampled_from((-1.0, 1.0))),
                   st.builds(lambda gap, sign: sign * (1.0 - 10.0**-gap),
                             st.floats(2.0, 16.0), st.sampled_from((-1.0, 1.0)))))
def test_boost_within_its_stated_errors(geometry, v):
    """E_s and P_s within their stated errors of the 40-digit law on the same float parts,
    on both routes, up to v = 1 - 2^-53."""
    parts = _boost_parts(*geometry)
    with mpmath.workdps(40):
        w = mpmath.mpf(v)
        ce, cp = (1 + w * w) / (1 - w * w), 2 * w / (1 - w * w)
        u, s_omega, s_k = (mpmath.mpf(p.value) for p in (parts.U, parts.S_omega, parts.S_k))
        laws = {Route.PER_MODE: (ce * u + parts.W.value, cp * u),
                Route.GROUPED: (ce * (s_omega + s_k), cp / 2 * (s_omega - s_k))}
        for route, (energy, momentum) in laws.items():
            res = rect2d._boost_2d(parts, v, route)
            assert abs(res.energy - energy) <= res.energy_error, route
            assert abs(res.momentum - momentum) <= res.momentum_error, route
