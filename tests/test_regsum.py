import functools
import math
import re
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostcav.cavity import Cavity2D
from boostcav import rect2d, regsum
from boostcav.observables import static_m0
from boostcav.regsum import (
    FitError,
    _PowerFit,
    Linear1DSummand,
    RegConfig,
    RegMethod,
    abel_plana_m0,
    cutoff_finite_part,
    geometric_schedule,
    zeta_linear_sum,
)

# classical lattice value: (pi/2) [zeta(-1/2) beta(-1/2) - zeta(-1)] for the
# unit square spectrum, from sum_{n,m>=1} (n^2+m^2)^{-s} = zeta(s)beta(s) - zeta(2s)
SQUARE_REST_ENERGY = 0.0410405973441


class ConvergentSummand:
    """sum n e^{-eps n} less its eps^-2 divergence: damped sums G_1(x) - 1/x^2, finite part -1/12."""

    omega_min = 1.0
    divergent_powers = ()

    def damped_sums(self, eps):
        return [[regsum._geometric(e)[0] - 1.0 / e / e for e in eps]]


class TestZetaAssignment:
    def test_linear_sum(self):
        assert abs(zeta_linear_sum(math.pi) + math.pi / 12.0) < 1e-15
        assert zeta_linear_sum(0.0) == 0.0
        assert abs(zeta_linear_sum(2.0 * math.pi) + math.pi / 6.0) < 1e-15
        for slope in (math.nan, math.inf):
            with pytest.raises(ValueError, match="slope must be finite"):
                zeta_linear_sum(slope)


class TestAbelPlana:
    @pytest.mark.parametrize("length", [1.0, 2.0, 0.5])
    def test_static_energy(self, length):
        exact = -math.pi / (24.0 * length)
        assert abs(abel_plana_m0(length) - exact) <= 1e-15 * abs(exact)

    def test_bits(self):
        # recorded under the panel-doubling rule, which stopped at 8 panels
        assert abel_plana_m0(1.0).hex() == "-0x1.0c152382d7364p-3"

    def test_within_the_docstring_bound(self):
        # m0 = -(pi/L) * (the 8-panel sum); dividing out pi in 30 digits adds one rounding
        with mpmath.workdps(30):
            total = -mpmath.mpf(abel_plana_m0(1.0)) / mpmath.mpf(math.pi)
            integral = mpmath.quad(lambda t: t / mpmath.expm1(2 * mpmath.pi * t), [0, 7])
            # about 8 roundings of relative 2^-53 in each weighted value (exp, expm1, the
            # product and quotient, the abscissa, the weight) and the sum, doubled
            rounding = 16 * 2.0**-53 * integral
            assert abs(total - integral) <= 4.2e-22 + rounding
            assert abs(total - mpmath.mpf(1) / 24) <= 1e-19 + rounding

    def test_rejects_bad_length(self):
        for length in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="proper_length must be positive and finite"):
                abel_plana_m0(length)


class TestConfig:
    def test_schedule_validation(self):
        for schedule in ((0.1, 0.2, 0.05, 0.01), (0.1, 0.05), (0.1, 0.05, 0.02, 0.0),
                         (math.inf, 0.1, 0.05, 0.01), (0.1, math.nan, 0.05, 0.01),
                         (0.1, 0.05, 0.02, math.nan)):
            with pytest.raises(ValueError):
                RegConfig(method=RegMethod.EXPONENTIAL_CUTOFF, epsilon_schedule=schedule)

    @pytest.mark.parametrize("kw", [{"hi": math.inf}, {"lo": math.nan}, {"lo": 0.3}, {"points": 3}])
    def test_geometric_schedule_validation(self, kw):
        with pytest.raises(ValueError):
            geometric_schedule(**kw)

    def test_geometric_schedule_shape(self):
        sched = geometric_schedule(hi=0.2, lo=0.01, points=8)
        assert len(sched) == 8
        assert all(b < a for a, b in zip(sched, sched[1:]))
        assert sched[0] == 0.2 and abs(sched[-1] - 0.01) < 1e-17

    @pytest.mark.parametrize("hi, lo", [(0.2, 0.01), (0.25, 0.05)])
    def test_default_schedules_are_geomspace_bit_for_bit(self, hi, lo):
        # the 1D default and rect2d's
        assert geometric_schedule(hi=hi, lo=lo, points=8) == tuple(np.geomspace(hi, lo, 8).tolist())

    @settings(max_examples=200, deadline=None)
    @given(hi=st.floats(0.01, 1.0), ratio=st.floats(1.01, 1e3), points=st.integers(4, 40))
    def test_schedule_is_geomspace_to_rounding(self, hi, ratio, points):
        # libm's and numpy's log10 may differ by an ulp at an endpoint, and 10^y turns
        # one ulp of y into ln(10)|y| ulps of the point, so the 16 ulp scale with |log10 lo|
        lo = hi / ratio
        got = geometric_schedule(hi=hi, lo=lo, points=points)
        ref = np.geomspace(hi, lo, points).tolist()
        assert (got[0], got[-1]) == (hi, lo)
        for a, b in zip(got, ref):
            assert abs(a - b) <= 16.0 * max(1.0, abs(math.log10(lo))) * math.ulp(b)

    def test_halved(self):
        cfg = RegConfig.cutoff()
        half = cfg.halved()
        assert all(abs(h - e / 2) < 1e-18 for h, e in zip(half.epsilon_schedule,
                                                          cfg.epsilon_schedule))


class TestCutoffFit:
    def test_linear_summand_reference_schedule(self):
        # S(eps) = sum n e^{-eps n} has the closed form e^-eps/(1-e^-eps)^2,
        # whose eps-expansion constant is -1/12; the eps^2, eps^4 stabilizers
        # absorb this schedule's coarseness.
        summand = Linear1DSummand(math.pi, weight=1.0)  # c_n = n, w_n = n
        # four points interpolate the four fitted powers: no refit, so no stated error
        with pytest.raises(FitError, match="a 4-point cutoff schedule leaves no small-x refit"):
            cutoff_finite_part(summand, RegConfig(RegMethod.EXPONENTIAL_CUTOFF,
                                                  (0.1, 0.05, 0.02, 0.01)))
        config = RegConfig(
            method=RegMethod.EXPONENTIAL_CUTOFF,
            epsilon_schedule=(0.1, 0.07, 0.05, 0.03, 0.02, 0.01),
        )
        [fp] = cutoff_finite_part(summand, config)
        assert abs(fp.value + 1.0 / 12.0) < 1e-6
        # the engine's raw sums must agree with the closed form
        schedule = list(config.epsilon_schedule)
        [sums] = summand.damped_sums(schedule)
        for eps, total in zip(schedule, sums):
            x = math.exp(-eps)
            assert abs(total - x / (1 - x) ** 2) < 1e-9

    def test_convergent_summand_fits_with_no_divergent_power(self):
        # G_1(x) - 1/x^2 = -1/12 + x^2/240 - ...: even in x, so the fit's model holds
        summand = ConvergentSummand()
        for hi, lo in ((0.2, 0.01), (1.0, 0.1), (3.0, 0.3), (0.2, 1e-3), (6.0, 1.0), (0.25, 0.05)):
            config = RegConfig(RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule(hi=hi, lo=lo))
            [fp] = cutoff_finite_part(summand, config)
            assert abs(fp.value + 1.0 / 12.0) <= fp.error_estimate, (hi, lo, fp)
            assert fp.fitted_divergent_coeffs == ()
        with pytest.raises(FitError, match="use at least 5 points"):
            cutoff_finite_part(summand, RegConfig(RegMethod.EXPONENTIAL_CUTOFF,
                                                  geometric_schedule(points=4)))

    def test_static_1d_energy(self):
        config = RegConfig.cutoff()
        [fp] = cutoff_finite_part(Linear1DSummand(1.0, weight=0.5), config)
        target = -math.pi / 24.0
        assert abs(fp.value - target) < 1e-6 * abs(target)
        assert abs(fp.value - target) < 5.0 * max(fp.error_estimate, 1e-12)

    def test_halving_robustness_1d(self):
        config = RegConfig.cutoff()
        summand = Linear1DSummand(1.0, weight=0.5)
        [full] = cutoff_finite_part(summand, config)
        [half] = cutoff_finite_part(summand, config.halved())
        assert abs(half.value - full.value) < 5.0 * full.error_estimate

    def test_condition_guard(self):
        # nearly coincident schedule points make the design matrix singular
        config = RegConfig(
            method=RegMethod.EXPONENTIAL_CUTOFF,
            epsilon_schedule=(0.1, 0.0999999999, 0.0999999998, 0.0999999997),
        )
        with pytest.raises(FitError):
            cutoff_finite_part(Linear1DSummand(1.0), config)

    def test_schedule_past_every_term_is_rejected(self):
        # every x here, down to 42, damps even omega_min's term by e^{-42} = 5.7e-19 or less, so
        # the damped sums would hold no divergence to fit; the schedule lies past 2 pi, so it
        # is never built
        with pytest.raises(ValueError, match="cutoff schedule reaches x = 1e[+]08: it must stay "
                                             "below 2 pi"):
            RegConfig(RegMethod.EXPONENTIAL_CUTOFF, (1e8, 1e6, 1e4, 1e2, 42.0))

    def test_fit_column_past_float64_fails_fast(self):
        # damped sums 1/eps stay finite down to x = 1e-80, where the fit's x^-4 column does not
        class Quartic:
            omega_min = 1.0
            divergent_powers = (4,)

            def damped_sums(self, eps):
                return [[1.0 / e for e in eps]]

        config = RegConfig(RegMethod.EXPONENTIAL_CUTOFF, (0.1, 1e-20, 1e-40, 1e-60, 1e-80))
        with pytest.raises(FitError, match=re.escape("x^-4 overflows at cutoff x = 1e-80")):
            cutoff_finite_part(Quartic(), config)

    # lo = 2e-5 and 1e-5 take about 2.1e6 and 4.1e6 spectrum terms, each sum in O(1)
    @pytest.mark.parametrize("lo", [2e-5, 1e-5])
    def test_small_cutoffs_fit_m0(self, lo):
        config = RegConfig(RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule(lo=lo))
        [fp] = cutoff_finite_part(Linear1DSummand(1.0), config)
        assert abs(fp.value + math.pi / 24.0) <= fp.error_estimate

    def test_wrong_method_rejected(self):
        with pytest.raises(ValueError):
            cutoff_finite_part(Linear1DSummand(1.0), RegConfig(RegMethod.ZETA_EXACT))

    def test_fits_in_units_of_omega_min(self):
        # sum (n pi / 2L) e^{-eps n pi / L} = L/(2 pi eps^2) - pi/(24 L) + O(eps^2):
        # the schedule scales with 1/omega_min = L/pi, so each length fits the
        # unit cavity's sums times 1/L, and the divergent coefficient is L/(2 pi)
        [unit] = cutoff_finite_part(Linear1DSummand(1.0), RegConfig.cutoff())
        assert unit.fitted_divergent_coeffs[0] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-10)
        for length in (0.25, 4.0):
            [fp] = cutoff_finite_part(Linear1DSummand(length), RegConfig.cutoff())
            assert fp.value * length == pytest.approx(unit.value, rel=1e-12)
            assert fp.fitted_divergent_coeffs[0] / length == pytest.approx(
                unit.fitted_divergent_coeffs[0], rel=1e-12)
            assert fp.condition_number == unit.condition_number
        # L/(2 pi) is representable at L = 1e160 although omega_min^-2 is not
        [far] = cutoff_finite_part(Linear1DSummand(1e160), RegConfig.cutoff())
        assert far.fitted_divergent_coeffs[0] == pytest.approx(1e160 / (2.0 * math.pi), rel=1e-9)
        assert far.value * 1e160 == pytest.approx(unit.value, rel=1e-9)

    @pytest.mark.parametrize("summand, columns", [(Linear1DSummand(1.0), 1),
                                                  (rect2d._FourPartsSummand(1.0, 2.0), 2)])
    def test_one_finite_part_per_column(self, summand, columns):
        parts = cutoff_finite_part(summand, RegConfig.cutoff())
        assert type(parts) is tuple and len(parts) == columns
        assert all(type(part) is regsum.FinitePart for part in parts)

    def test_linear_summand_holds_its_weight_and_lowest_frequency(self):
        assert vars(Linear1DSummand(1.0)) == {"weight": 0.5, "omega_min": math.pi}

    def test_summands_reject_non_finite_input(self):
        for length in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="proper_length must be positive and finite"):
                Linear1DSummand(length)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="weight must be finite"):
                Linear1DSummand(1.0, bad)


class TestScheduleGuard:
    """RegConfig refuses a cutoff schedule that reaches 2 pi, the radius of the damped sums'
    Laurent series in x (regsum._geometric), before any sum is taken."""

    CUTOFF = RegMethod.EXPONENTIAL_CUTOFF

    # Each failed otherwise: m0 = -0.125654 with a stated error of 1.1e-13 (the truth is
    # -0.130900); 0.14 s of rectangle sums before a FitError; a ZeroDivisionError where the
    # node step floors to 0; an OverflowError from the fit's x^4 column.
    @pytest.mark.parametrize("call", [
        lambda: cutoff_finite_part(Linear1DSummand(1.0),
                                   RegConfig(TestScheduleGuard.CUTOFF, (700.0, 10.0, 1.0, 0.1))),
        lambda: rect2d.finite_parts(Cavity2D(1.0, 1.0),
                                    RegConfig(TestScheduleGuard.CUTOFF, (1e5, 1.0, 0.5, 0.1))),
        lambda: rect2d.finite_parts(Cavity2D(1.0, 0.001), RegConfig(
            RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule(hi=1e300, lo=1e-9))),
        lambda: cutoff_finite_part(Linear1DSummand(1e300), RegConfig(
            RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule(hi=2.52e87, lo=2.52e-13))),
    ], ids=["1d-x700", "square-x1e5", "1x0.001-x1e300", "1d-L1e300-x4-column"])
    def test_schedule_reaching_the_radius_is_refused_at_once(self, call):
        timings = []
        for _ in range(3):  # the fastest of three, so a scheduler pause is not counted
            start = time.perf_counter()
            with pytest.raises(ValueError, match="it must stay below 2 pi") as info:
                call()
            timings.append(time.perf_counter() - start)
        assert info.traceback[-1].name == "_validate"  # RegConfig's
        assert min(timings) < 1e-3

    def test_radius_is_the_bound(self):
        top = math.nextafter(2.0 * math.pi, 0.0)
        below = RegConfig(self.CUTOFF, (top, 3.0, 1.0, 0.5, 0.2, 0.1))
        assert cutoff_finite_part(Linear1DSummand(1.0), below)[0].error_estimate > 0.0
        with pytest.raises(FitError, match="a 4-point cutoff schedule"):  # valid, but no refit
            cutoff_finite_part(Linear1DSummand(1.0), RegConfig(self.CUTOFF, (top, 1.0, 0.5, 0.1)))
        with pytest.raises(ValueError, match=re.escape(
                "cutoff schedule reaches x = 6.28319: it must stay below 2 pi, the radius of "
                "the damped sums' Laurent series in x")):
            RegConfig(self.CUTOFF, (2.0 * math.pi, 1.0, 0.5, 0.1))
        # the older refusals keep their wording, and come first
        with pytest.raises(ValueError, match="must be finite, strictly decreasing and positive"):
            RegConfig(self.CUTOFF, (10.0, 20.0, 1.0, 0.5))


class TestRefitGuard:
    """A cutoff schedule needs two points more than the fitted powers, or the small-x refit
    is empty and the stated error is rounding alone: 6 points for the 1D sum (x^-2, 1, x^2,
    x^4) and 7 for the rectangle's (x^-3, x^-2, 1, x^2, x^4). At 4 points the 1D fit
    interpolated, and actual/stated read 6.4e4 on (1, 0.1) and 8.4e11 on (5.68, 2.26)."""

    @pytest.mark.parametrize("points", [4, 5])
    @pytest.mark.parametrize("span", [(0.2, 0.01), (1.0, 0.1), (5.68, 2.26)])
    def test_1d_schedule_without_refit_fails(self, points, span):
        config = RegConfig(RegMethod.EXPONENTIAL_CUTOFF,
                           geometric_schedule(hi=span[0], lo=span[1], points=points))
        with pytest.raises(FitError, match=re.escape(
                f"a {points}-point cutoff schedule leaves no small-x refit for 4 fitted powers; "
                "use at least 6 points")):
            cutoff_finite_part(Linear1DSummand(1.0), config)

    def test_1d_six_points_fit(self):
        config = RegConfig(RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule(points=6))
        [fp] = cutoff_finite_part(Linear1DSummand(1.0), config)
        assert 0.0 < abs(fp.value + math.pi / 24.0) <= fp.error_estimate

    @pytest.mark.parametrize("points", [5, 6])
    def test_rectangle_schedule_without_refit_fails(self, points):
        with pytest.raises(FitError, match=re.escape(
                f"a {points}-point cutoff schedule leaves no small-x refit for 5 fitted powers; "
                "use at least 7 points")):
            rect2d.finite_parts(Cavity2D(1.0, 2.0), RegConfig(
                RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule(hi=0.25, lo=0.05, points=points)))

    def test_rectangle_seven_points_fit(self):
        exact = rect2d.finite_parts(Cavity2D(1.0, 2.0))
        cut = rect2d.finite_parts(Cavity2D(1.0, 2.0), RegConfig(
            RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule(hi=0.25, lo=0.05, points=7)))
        for name in ("S_omega", "S_k"):
            part = getattr(cut, name)
            assert abs(part.value - getattr(exact, name).value) <= part.error_estimate


class TestDivergenceFit:
    """The pure-float least squares against numpy's SVD-based lstsq, pinv and cond."""

    @staticmethod
    def _check(x, powers, row, data_seed):
        """Fit these powers at x; compare cond, a solve and pseudoinverse row `row` with numpy."""
        fit = _PowerFit(list(x), powers)
        design = np.array(fit.columns).T
        cond = np.linalg.cond(design)
        # numpy's own error grows like cond * eps; the fit is refined against exact residuals
        tol = 64.0 * cond * np.finfo(float).eps
        assert fit.cond == pytest.approx(cond, rel=tol)
        rng = np.random.default_rng(data_seed)
        values = design @ rng.normal(size=design.shape[1]) + 1e-6 * rng.normal(size=len(x))
        ref = np.linalg.lstsq(design, values, rcond=None)[0]
        coeffs = np.array(fit.solve(values.tolist()))
        assert np.max(np.abs(coeffs - ref)) <= tol * np.max(np.abs(ref))
        dual = np.linalg.pinv(design)[row]
        assert np.max(np.abs(np.array(fit.pinv[row]) - dual)) <= tol * np.max(np.abs(dual))

    def _check_cutoff(self, x, divergent_powers, data_seed):
        # the cutoff fit's powers; the noise estimate reads the x^0 row
        self._check(x, [-p for p in divergent_powers] + [0, 2, 4], len(divergent_powers), data_seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_default_1d_schedule(self, seed):
        self._check_cutoff(RegConfig.cutoff().epsilon_schedule,
                           Linear1DSummand.divergent_powers, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_default_2d_schedule(self, seed):
        self._check_cutoff(rect2d.default_config().epsilon_schedule,
                           rect2d._FourPartsSummand.divergent_powers, seed)

    @pytest.mark.parametrize("degree", [6, 14, 20, 24, 28])
    @pytest.mark.parametrize("first", [0, 1])
    def test_nonrel_designs(self, degree, first):
        # nonrel_fit's polynomial designs: 16 velocities on (0.2/16, 0.2], even powers 0..d
        # for E/m0 and odd powers 1..d for P/m0, condition numbers from 2.8e1 to 5.8e11
        vs = np.linspace(0.2 / 16, 0.2, 16).tolist()
        self._check(vs, list(range(first, degree + 1, 2)), 0, degree)

    @settings(max_examples=100, deadline=None)
    @given(hi=st.floats(0.05, 0.5), ratio=st.floats(1.5, 50.0), points=st.integers(6, 12),
           powers=st.sampled_from([(2,), (3, 2)]), seed=st.integers(0, 2**32 - 1))
    def test_drawn_schedules(self, hi, ratio, points, powers, seed):
        self._check_cutoff(geometric_schedule(hi=hi, lo=hi / ratio, points=points), powers, seed)

    def test_refinement_sharpens_the_static_constant(self):
        # m0(1) = -pi/24 from the default schedule: 8.7e-11 relative, inside its error
        [fp] = cutoff_finite_part(Linear1DSummand(1.0), RegConfig.cutoff())
        assert abs(fp.value / (-math.pi / 24.0) - 1.0) <= 8.8e-11
        assert abs(fp.value + math.pi / 24.0) <= fp.error_estimate


@functools.lru_cache(maxsize=None)
def _cutoff_parts(a, b):
    cav = Cavity2D(a, b, 0.0)
    return rect2d.finite_parts(cav, rect2d.default_config())


def _cutoff_energy(a, b):
    return _cutoff_parts(a, b).S_omega


# b/a from 1 to 50 with a and b in both orders, and one pair off the grid
BOUND_GRID = [(1.0, 1.0)] + [
    sides for r in (2.0, 5.0, 20.0, 50.0) for sides in ((1.0, r), (r, 1.0))
] + [(0.7, 35.0)]


class TestRect2DSums:
    """The exponential-cutoff route for the rectangle (the cross-check)."""

    def test_square_matches_lattice_zeta_value(self):
        parts = _cutoff_parts(1.0, 1.0)
        assert abs(parts.S_omega.value - SQUARE_REST_ENERGY) < 1e-6
        assert abs(parts.S_omega.value - SQUARE_REST_ENERGY) < 5.0 * parts.S_omega.error_estimate

    def test_square_symmetry_halves_s_omega(self):
        # on the square, sum k^2/2w and sum p^2/2w coincide, so S_k = S_omega/2
        parts = _cutoff_parts(1.0, 1.0)
        assert abs(parts.S_k.value - 0.5 * parts.S_omega.value) < 3.0 * (
            parts.S_k.error_estimate + parts.S_omega.error_estimate
        )
        assert abs(parts.U.value + parts.W.value - parts.S_omega.value) < 3.0 * (
            parts.U.error_estimate + parts.W.error_estimate + parts.S_omega.error_estimate
        )

    def test_disjoint_schedules_agree(self):
        cav = Cavity2D(1.0, 1.0, 0.0)
        a = rect2d.finite_parts(cav, RegConfig(
            RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule(hi=0.25, lo=0.02))).S_omega
        b = rect2d.finite_parts(cav, RegConfig(
            RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule(hi=0.19, lo=0.03, points=7))).S_omega
        assert abs(a.value - b.value) / abs(a.value) < 1e-4

    @pytest.mark.parametrize("a, b", BOUND_GRID)
    def test_error_bounds_the_closed_form(self, a, b):
        cutoff = _cutoff_parts(a, b)
        exact = rect2d.finite_parts(Cavity2D(a, b, 0.0))
        for name in ("U", "W", "S_omega", "S_k"):
            cut, ref = getattr(cutoff, name), getattr(exact, name)
            assert abs(cut.value - ref.value) <= cut.error_estimate, name

    @pytest.mark.parametrize("a, b", BOUND_GRID + [(1e-150, 5e-150), (1e100, 3e99)])
    def test_rest_energy_is_blind_to_the_orientation(self, a, b):
        # both orientations sum the one 1 x long/short rectangle; only S_k reads which side is a
        assert _cutoff_parts(a, b).S_omega == _cutoff_parts(b, a).S_omega

    @pytest.mark.parametrize("a, b", BOUND_GRID)
    def test_fitted_divergences_are_the_weyl_terms(self, a, b):
        # (eps^-3, eps^-2) coefficients: the area and Dirichlet-perimeter terms
        cutoff = _cutoff_parts(a, b)
        weyl = {
            "U": (3.0 * a * b / (8.0 * math.pi), -(2.0 * a + b) / (8.0 * math.pi)),
            "W": (a * b / (8.0 * math.pi), -b / (8.0 * math.pi)),
            "S_omega": (a * b / (2.0 * math.pi), -(a + b) / (4.0 * math.pi)),
            "S_k": (a * b / (4.0 * math.pi), -a / (4.0 * math.pi)),
        }
        for name, terms in weyl.items():
            fitted = getattr(cutoff, name).fitted_divergent_coeffs
            assert len(fitted) == 2, name
            for got, exact in zip(fitted, terms):
                assert abs(got - exact) <= 1e-8 * abs(exact), name

    def test_dimensional_scaling(self):
        base = _cutoff_energy(1.0, 1.0)
        scaled = _cutoff_energy(2.0, 2.0)
        assert abs(scaled.value - base.value / 2.0) / abs(base.value / 2.0) < 1e-4

    def test_large_aspect_tracks_strip_law(self):
        # E_m/b approaches -zeta(3)/(16 pi a^2); convergence is O(1/b) through
        # the b-independent end contribution, so the ratio closes in slowly.
        strip = -1.2020569031595943 / (16.0 * math.pi)
        ratios = []
        for b in (5.0, 20.0, 50.0):
            fp = _cutoff_energy(1.0, b)
            ratios.append(fp.value / (strip * b))
        assert ratios[0] < ratios[1] < ratios[2] <= 1.0
        assert abs(ratios[2] - 1.0) < 0.1

    def test_summand_validation(self):
        for a, b in ((-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                rect2d._FourPartsSummand(a, b)
        # sides whose ratio, or pi over it, leaves float64
        for a, b in ((1e200, 1e-200), (1e-160, 1e160)):
            prefix = re.escape(f"a = {a:g}, b = {b:g}: aspect ratio")
            with pytest.raises(ValueError, match=prefix) as info:
                rect2d._FourPartsSummand(a, b)
            # b/a underflows to 0 or overflows to inf here: the message names the range instead
            assert "b/a = 0" not in str(info.value) and "inf" not in str(info.value)

    @pytest.mark.parametrize("aspect", [1.0, 5.0])
    @pytest.mark.parametrize("side", [1e-200, 1e-160, 1e-150, 1e-100, 1e100, 1e150, 1e160, 1e200])
    def test_extreme_sides_scale_the_unit_fit(self, side, aspect):
        # every part is g(b/a)/a: side * part is the (1, b/a) rectangle's, within its error
        cavity = Cavity2D(side, aspect * side, 0.0)
        if side <= 1e-160:  # parts of about 1/side, whose squares leave float64: zeta's refusal
            with pytest.raises(ValueError, match=re.escape(
                    f"rectangle a = {side:g}, b = {aspect * side:g}: finite part S_omega = ")
                    + r"\S+ or its square is not finite in float64$"):
                rect2d.finite_parts(cavity, rect2d.default_config())
            return
        cutoff = rect2d.finite_parts(cavity, rect2d.default_config())
        unit = _cutoff_parts(1.0, aspect)
        exact = rect2d.finite_parts(Cavity2D(1.0, aspect, 0.0))
        close = functools.partial(pytest.approx, rel=1e-12, abs=0.0)
        for name in ("U", "W", "S_omega", "S_k"):
            cut, ref, one = getattr(cutoff, name), getattr(exact, name), getattr(unit, name)
            assert abs(side * cut.value - ref.value) <= side * cut.error_estimate, name
            assert side * cut.error_estimate == close(one.error_estimate), name
            if 1e-150 <= side <= 1e150:  # past these the eps^-3 coefficient (~side^2) leaves float64
                area, perimeter = cut.fitted_divergent_coeffs
                assert (area, perimeter) == close((one.fitted_divergent_coeffs[0] * side * side,
                                                   one.fitted_divergent_coeffs[1] * side)), name


# the enumeration's cap: past w = CAP/eps every damping factor is below 1e-18
CAP = -math.log(1e-18)


class TestRectDampedSums:
    """The rectangle's closed-form damped sums against an enumeration of the lattice.

    The enumeration is the reference implementation: every lattice point with
    w <= CAP/eps, in numpy rows each summed by math.fsum. The closed form sums
    every term, so the two differ by the tail past the cap, the enumeration's
    rounding and the closed form's own error, and each of the three is bounded.
    """

    @staticmethod
    def _enumerated(sides, eps):
        """(S_omega, S_k) enumerated under the cap, and a bound on the rounding of each.

        The lattice is the a/min x b/min rectangle's, the unit the damped sums
        are taken in. w = sqrt(k^2 + p^2) carries at most 2.5 ulps, so
        e^{-eps w} carries (3 eps w + 1) and a term (3 eps w + 6); math.fsum
        rounds each row once, and the sum of the rows once more.
        """
        cap = CAP / eps
        k_step, p_step = (math.pi / (side / min(sides)) for side in sides)
        rows, rounding = ([], []), [0.0, 0.0]
        n = 1
        while n * k_step < cap:
            k = n * k_step
            p = np.arange(1.0, math.sqrt(cap * cap - k * k) / p_step + 2.0) * p_step
            w = np.sqrt(k * k + p * p)
            w = w[w <= cap]
            damping = np.exp(-eps * w)
            for i, terms in enumerate((0.5 * w * damping, k * k / (2.0 * w) * damping)):
                rows[i].append(math.fsum(terms.tolist()))
                rounding[i] += float(np.sum((3.0 * eps * w + 6.0) * terms)) + rows[i][-1]
            n += 1
        sums = [math.fsum(row) for row in rows]
        return sums, [2.0**-52 * (r + s) for r, s in zip(rounding, sums)]

    @staticmethod
    def _tail(aspect, eps):
        """Bound on either sum over the lattice points past w = W = CAP/eps.

        At most N(w) = aspect w^2/(4 pi) points lie within w (each cell of the
        lattice, of area pi^2/aspect, fits inside the quarter disc), and both
        weights are at most w/2, whose damped f = (w/2) e^{-eps w} falls past
        1/eps: the tail is at most int_W^inf N (-f') dw
        = (aspect/4pi) [W^2 f(W) + int_W^inf w^2 e^{-eps w} dw].
        """
        big_w = CAP / eps
        return aspect / (4.0 * math.pi) * math.exp(-eps * big_w) * (
            0.5 * big_w**3 + big_w**2 / eps + 2.0 * big_w / eps**2 + 2.0 / eps**3)

    def _check(self, sides, schedule):
        summand = rect2d._FourPartsSummand(*sides)
        worst = 0.0
        for eps in schedule:
            got = summand.damped(eps)
            ref, ref_rounding = self._enumerated(sides, eps)
            tail = self._tail(summand.aspect, eps)
            for part, exact, rounding in zip(got, ref, ref_rounding):
                value, err = part.value, part.error_estimate
                bound = err + rounding + tail
                assert abs(value - exact) <= bound, (eps, value, exact, bound)
                worst = max(worst, abs(value - exact) / bound)
        assert summand.damped_sums(list(schedule)) == [
            [summand.damped(eps)[i].value for eps in schedule] for i in (0, 1)]
        return worst

    # Raw cutoffs at and near the cap: at the smallest of the second schedule each
    # enumerated sum has a few terms or none, and the cap's tail bound is 1e-20 to 3e-12;
    # at b/a = 8000 and eps = 2 the enumeration sums 272,000 terms.
    @pytest.mark.parametrize("schedule", [(4.0, 3.0, 2.0, 1.5, 1.0), (40.0, 30.0, 20.0, 10.0, 5.0)])
    @pytest.mark.parametrize("sides", [(1.0, 1.0), (1.0, 0.37), (1.0, 2.7), (1.0, 20.0),
                                       (2.7, 1.0), (1.0, 8000.0)])
    def test_closed_form_is_the_enumerated_sum(self, sides, schedule):
        if sides == (1.0, 8000.0):
            schedule = schedule[:4] + (2.0,)
        assert self._check(sides, schedule) <= 1.0

    def test_default_schedule_ends(self):
        # the fit's own cutoffs x = 0.25 and 0.05 over omega_min on the square: 43,000 and
        # 1.08 million enumerated terms, where each sum carries its full Weyl divergence
        summand = rect2d._FourPartsSummand(1.0, 1.0)
        schedule = [x / summand.omega_min for x in (0.25, 0.05)]
        assert self._check((1.0, 1.0), schedule) <= 1.0
        for eps in schedule:
            s_omega, s_k = summand.damped(eps)
            # each stated error is about 40 ulps of its sum, nearly all the rounding bound
            assert s_omega.error_estimate <= 64.0 * sys.float_info.epsilon * s_omega.value
            assert s_k.error_estimate <= 64.0 * sys.float_info.epsilon * s_k.value

    @pytest.mark.parametrize("z", [1e-3, 0.0177, 0.25, 1.0, 6.3, 40.0, 200.0])
    def test_step_estimate_lies_below_the_integrals(self, z):
        # the node step is sized from e^{-z} times the z -> 0 values 2 pi/z^3 and pi/z^3
        # of the j = 0 integrals; below them, its bound is at most eps/4 of each
        (omega, r), _ = rect2d._row_integrals(z, 1.0, 0.0, 0.05)
        assert omega >= 2.0 * math.pi * math.exp(-z) / z**3
        assert r >= math.pi * math.exp(-z) / z**3

    @pytest.mark.parametrize("aspect", [1e-3, 1.0, 1e3, 1e7])
    def test_work_does_not_grow_with_the_aspect(self, aspect, monkeypatch):
        # each cutoff costs a few dozen nodes per Poisson index j, and j = 0 alone
        # is left once e^{-2 pi b/a} (or a/b) is below the rounding
        calls = []
        row_integrals = rect2d._row_integrals
        monkeypatch.setattr(rect2d, "_row_integrals",
                            lambda z, a, b, h: calls.append(z) or row_integrals(z, a, b, h))
        summand = rect2d._FourPartsSummand(1.0, aspect)
        summand.damped_sums([x / summand.omega_min for x in rect2d.default_config().epsilon_schedule])
        assert len(calls) <= 8 * (6 if aspect == 1.0 else 1)


class TestLinearDampedSums:
    """The 1D closed form against an explicit enumeration of the whole series."""

    @staticmethod
    def _enumerated(summand, eps):
        """math.fsum of n step weight e^{-eps n step} over n = 1, 2, ... until the rest is small.

        Past the peak n = 1/x, x = eps step, each term is at most r = (n + 1)/n e^{-x}
        times the one before, so the rest of the series is at most term r/(1 - r);
        the enumeration stops once that falls below 2^-60 of the partial sum.
        """
        terms, partial = [], 0.0
        n = 1
        while True:
            w = n * summand.omega_min
            term = summand.weight * w * math.exp(-eps * w)
            terms.append(term)
            partial += term
            r = (n + 1) / n * math.exp(-eps * summand.omega_min)
            if r < 1.0 and abs(term) * r / (1.0 - r) < 2.0**-60 * abs(partial):
                return math.fsum(terms)
            n += 1

    def _check(self, summand, eps):
        [sums] = summand.damped_sums(eps)
        for e, total in zip(eps, sums):
            exact = self._enumerated(summand, e)
            assert abs(total - exact) <= 8.0 * sys.float_info.epsilon * abs(exact), e

    # x from 5e-3 (9,100 terms) to 45, where the first term is the sum to rounding
    @settings(max_examples=100, deadline=None)
    @given(length=st.floats(1e-3, 1e3), weight=st.floats(-2.0, -0.1) | st.floats(0.1, 2.0),
           x=st.lists(st.floats(5e-3, 45.0), min_size=1, max_size=8))
    def test_closed_form_is_the_enumerated_sum(self, length, weight, x):
        summand = Linear1DSummand(length, weight)
        self._check(summand, [xi / summand.omega_min for xi in x])

    def test_cutoffs_beyond_any_enumeration(self):
        # lo = 1e-12: about 4e13 terms at the smallest cutoff
        summand = Linear1DSummand(1.0)
        config = RegConfig(RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule(lo=1e-12))
        [sums] = summand.damped_sums([x / summand.omega_min for x in config.epsilon_schedule])
        assert all(math.isfinite(s) and s > 0.0 for s in sums)
        [fp] = cutoff_finite_part(summand, config)
        assert abs(fp.value + math.pi / 24.0) <= fp.error_estimate

    @pytest.mark.parametrize("length, lo, x", [(1.0, 1e-160, "1e-160"), (1.0, 1e-200, "2.96e-172"),
                                               (1e-10, 1e-150, "1e-150")])
    def test_past_float64_fails_fast(self, length, lo, x):
        # G_1(x) ~ 1/x^2 overflows below x = 7.5e-155: at 1e-160, and at 2.96e-172, the first
        # point of the lo = 1e-200 schedule past it; at L = 1e-10 the sum, step G_1 / 2, does
        with pytest.raises(FitError, match=re.escape(
                f"the damped sums at cutoff x = {x} are not finite in float64")):
            cutoff_finite_part(Linear1DSummand(length),
                               RegConfig(RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule(lo=lo)))

    def test_cutoff_underflowing_to_zero_is_an_infinite_sum(self):
        # eps = x/omega_min = 5e-324/pi rounds to 0, where the whole series diverges
        assert regsum._geometric(0.0) == (math.inf, math.inf)
        config = RegConfig(RegMethod.EXPONENTIAL_CUTOFF, (0.2, 0.1, 0.05, 5e-324))
        with pytest.raises(FitError, match=re.escape("cutoff x = 4.94e-324 are not finite")):
            cutoff_finite_part(Linear1DSummand(1.0), config)

    @pytest.mark.parametrize("x", [800.0, 2000.0])
    def test_overflowing_cutoff_fails_fast(self, x):
        # sinh(x/2) squared overflowed at x = 800, sinh(x/2) itself at x = 2000; both lie
        # past the radius 2 pi, so the schedule is refused before any sum
        with pytest.raises(ValueError, match=re.escape(
                f"cutoff schedule reaches x = {x:g}: it must stay below 2 pi")):
            cutoff_finite_part(Linear1DSummand(1.0),
                               RegConfig(RegMethod.EXPONENTIAL_CUTOFF, (x, 10.0, 1.0, 0.1)))


class TestBitIdentity:
    """float.hex values of the cutoff route, pinned so refactors of the
    spectrum pass and the divergence fit cannot drift by even one ulp.

    Recorded once the fit solved through the pseudoinverse of its one-sided
    Jacobi SVD, refined twice against math.fsum residuals; RECT again once
    the rectangle's damped sums ran in column-major slabs of rows, with
    (1, 20) added then, and once more when they took their closed form
    (whole sums, no cap); STATIC_CUTOFF again once the 1D damped sums took
    theirs, and once more when they took the rectangle's q/(1 - q)^2 kernel.
    Each value's distance to the oracle (Chowla-Selberg; -pi/(24 L)) is
    noted beside it.
    """

    # (value, error_estimate) of U, W, S_omega, S_k; beside each, its distance to the
    # oracle with the enumerated damped sums, then with the closed-form ones
    RECT = {
        (1.0, 1.0): (
            ("0x1.f84e8e7721e0cp-6", "0x1.24fe396a176eap-27"),  # 7.11e-11 -> 7.23e-11
            ("0x1.50345efc93b48p-7", "0x1.24fe396a176eap-27"),  # 3.02e-11 -> 2.86e-11
            ("0x1.50345efab5dd8p-5", "0x1.867e2a9d0f63dp-27"),  # 4.09e-11 -> 1.01e-10
            ("0x1.50345ef8d8068p-6", "0x1.86fc906e3ef2ep-28"),  # 1.01e-10 -> 4.37e-11
        ),
        (1.0, 5.0): (
            ("-0x1.d28f7bff8e622p-4", "0x1.22c72bec75b9ap-26"),  # 1.47e-09 -> 1.33e-09
            ("0x1.e9c31536f9910p-5", "0x1.22c72bec75b9ap-26"),  # 4.45e-11 -> 5.59e-11
            ("-0x1.bb5be2c823334p-5", "0x1.7959dfe487f64p-26"),  # 1.51e-09 -> 1.28e-09
            ("-0x1.63b8834d85955p-3", "0x1.9868efe8c6f9fp-27"),  # 1.42e-09 -> 1.39e-09
        ),
        (1.0, 20.0): (
            ("-0x1.4dcfab4118397p-1", "0x1.1526100d99b1ap-24"),  # 8.32e-09 -> 7.17e-09
            ("0x1.e9c315317344dp-3", "0x1.1526100d99b1ap-24"),  # 2.30e-10 -> 3.85e-10
            ("-0x1.a6bdcbe976d07p-2", "0x1.667c7ade702f5p-24"),  # 8.55e-09 -> 6.78e-09
            ("-0x1.c840708d750aap-1", "0x1.879f4a7986680p-25"),  # 8.09e-09 -> 7.55e-09
        ),
    }
    # relative distance to -pi/(24 L): 8.173e-11 at both lengths, 0.096 of the stated error
    # (with the 1/(4 sinh^2(x/2)) sums, -0x1.0c15238273612p-3: 8.671e-11, 0.107)
    STATIC_CUTOFF = {1.0: "-0x1.0c152382791bcp-3", 2.5: "-0x1.acee9f37282c6p-5"}

    @pytest.mark.parametrize("sides", sorted(RECT))
    def test_rectangle_parts(self, sides):
        parts = _cutoff_parts(*sides)
        got = tuple((fp.value.hex(), fp.error_estimate.hex())
                    for fp in (parts.U, parts.W, parts.S_omega, parts.S_k))
        assert got == self.RECT[sides]

    @pytest.mark.parametrize("length", sorted(STATIC_CUTOFF))
    def test_static_cutoff(self, length):
        m0 = static_m0(length, RegConfig.cutoff())
        assert m0.value.hex() == self.STATIC_CUTOFF[length]
