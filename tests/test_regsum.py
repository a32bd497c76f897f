import functools
import math

import numpy as np
import pytest

from boostcav.cavity import Cavity2D
from boostcav import rect2d
from boostcav.observables import static_m0
from boostcav.regsum import (
    FitError,
    Linear1DSummand,
    RegConfig,
    RegMethod,
    SequenceSummand,
    abel_plana_m0,
    cutoff_finite_part,
    geometric_schedule,
    zeta_linear_sum,
)

# classical lattice value: (pi/2) [zeta(-1/2) beta(-1/2) - zeta(-1)] for the
# unit square spectrum, from sum_{n,m>=1} (n^2+m^2)^{-s} = zeta(s)beta(s) - zeta(2s)
SQUARE_REST_ENERGY = 0.0410405973441


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
        config = RegConfig(
            method=RegMethod.EXPONENTIAL_CUTOFF,
            epsilon_schedule=(0.1, 0.05, 0.02, 0.01),
        )
        summand = Linear1DSummand(math.pi, weight=1.0)  # c_n = n, w_n = n
        fp = cutoff_finite_part(summand, config)
        assert abs(fp.value + 1.0 / 12.0) < 1e-6
        # the engine's raw sums must agree with the closed form
        from boostcav.regsum import _damped_sums
        schedule = np.asarray(config.epsilon_schedule)
        for eps, total in zip(schedule, _damped_sums(summand, schedule, 1e-18)):
            x = math.exp(-eps)
            assert abs(total - x / (1 - x) ** 2) < 1e-9

    def test_convergent_passthrough(self):
        config = RegConfig.cutoff()
        finite = SequenceSummand(np.ones(10), np.arange(1.0, 11.0))
        fp = cutoff_finite_part(finite, config)
        assert fp.value == 10.0
        assert all(c == 0.0 for c in fp.fitted_divergent_coeffs)

    def test_static_1d_energy(self):
        config = RegConfig.cutoff()
        fp = cutoff_finite_part(Linear1DSummand(1.0, weight=0.5), config)
        target = -math.pi / 24.0
        assert abs(fp.value - target) < 1e-6 * abs(target)
        assert abs(fp.value - target) < 5.0 * max(fp.error_estimate, 1e-12)

    def test_halving_robustness_1d(self):
        config = RegConfig.cutoff()
        summand = Linear1DSummand(1.0, weight=0.5)
        full = cutoff_finite_part(summand, config)
        half = cutoff_finite_part(summand, config.halved())
        assert abs(half.value - full.value) < 5.0 * full.error_estimate

    def test_condition_guard(self):
        # nearly coincident schedule points make the design matrix singular
        config = RegConfig(
            method=RegMethod.EXPONENTIAL_CUTOFF,
            epsilon_schedule=(0.1, 0.0999999999, 0.0999999998, 0.0999999997),
        )
        with pytest.raises(FitError):
            cutoff_finite_part(Linear1DSummand(1.0), config)

    def test_wrong_method_rejected(self):
        with pytest.raises(ValueError):
            cutoff_finite_part(Linear1DSummand(1.0), RegConfig.zeta())

    def test_fits_in_units_of_omega_min(self):
        # sum (n pi / 2L) e^{-eps n pi / L} = L/(2 pi eps^2) - pi/(24 L) + O(eps^2):
        # the schedule scales with 1/omega_min = L/pi, so each length fits the
        # unit cavity's sums times 1/L, and the divergent coefficient is L/(2 pi)
        unit = cutoff_finite_part(Linear1DSummand(1.0), RegConfig.cutoff())
        assert unit.fitted_divergent_coeffs[0] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-10)
        for length in (0.25, 4.0):
            fp = cutoff_finite_part(Linear1DSummand(length), RegConfig.cutoff())
            assert fp.value * length == pytest.approx(unit.value, rel=1e-12)
            assert fp.fitted_divergent_coeffs[0] / length == pytest.approx(
                unit.fitted_divergent_coeffs[0], rel=1e-12)
            assert fp.condition_number == unit.condition_number
        # L/(2 pi) is representable at L = 1e160 although omega_min^-2 is not
        far = cutoff_finite_part(Linear1DSummand(1e160), RegConfig.cutoff())
        assert far.fitted_divergent_coeffs[0] == pytest.approx(1e160 / (2.0 * math.pi), rel=1e-9)
        assert far.value * 1e160 == pytest.approx(unit.value, rel=1e-9)

    def test_summands_reject_non_finite_input(self):
        for length in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="proper_length must be positive and finite"):
                Linear1DSummand(length)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="weight must be finite"):
                Linear1DSummand(1.0, bad)
            with pytest.raises(ValueError, match="coefficients must be finite"):
                SequenceSummand([1.0, bad, 1.0], [1.0, 2.0, 3.0])
        for bad in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="frequency must be positive and finite"):
                SequenceSummand([1.0, 1.0, 1.0], [1.0, bad, 3.0])


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
        a = rect2d.static_energy_2d(cav, rect2d.default_config(hi=0.25, lo=0.02))
        b = rect2d.static_energy_2d(cav, rect2d.default_config(hi=0.19, lo=0.03, points=7))
        assert abs(a.value - b.value) / abs(a.value) < 1e-4

    @pytest.mark.parametrize("a, b", BOUND_GRID)
    def test_error_bounds_the_closed_form(self, a, b):
        cutoff = _cutoff_parts(a, b)
        exact = rect2d.finite_parts(Cavity2D(a, b, 0.0))
        for name in ("U", "W", "S_omega", "S_k"):
            cut, ref = getattr(cutoff, name), getattr(exact, name)
            assert abs(cut.value - ref.value) <= cut.error_estimate, name

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


class TestBitIdentity:
    """float.hex values of the cutoff route, pinned so refactors of the
    spectrum pass and the divergence fit cannot drift by even one ulp."""

    # (value, error_estimate) of U, W, S_omega, S_k
    RECT = {
        (1.0, 1.0): (
            ("0x1.f84e8e7625ecdp-6", "0x1.2f520d0943116p-27"),
            ("0x1.50345f7480372p-7", "0x1.2f520d0943116p-27"),
            ("0x1.50345f1833043p-5", "0x1.8c6e29a4596c8p-27"),
            ("0x1.50345ebbe5d14p-6", "0x1.a46be0dc596cap-28"),
        ),
        (1.0, 5.0): (
            ("-0x1.d28f7bfc2fb4dp-4", "0x1.31f5e349ea42fp-26"),
            ("0x1.e9c31547c59dap-5", "0x1.31f5e349ea42fp-26"),
            ("-0x1.bb5be2b099cc1p-5", "0x1.86361d3a4dd80p-26"),
            ("-0x1.63b883500941dp-3", "0x1.bb6b52b30d5bcp-27"),
        ),
    }
    STATIC_CUTOFF = {1.0: "-0x1.0c1523826cb8bp-3", 2.5: "-0x1.acee9f37145abp-5"}

    @pytest.mark.parametrize("sides", sorted(RECT))
    def test_rectangle_parts(self, sides):
        parts = _cutoff_parts(*sides)
        got = tuple((fp.value.hex(), fp.error_estimate.hex())
                    for fp in (parts.U, parts.W, parts.S_omega, parts.S_k))
        assert got == self.RECT[sides]

    @pytest.mark.parametrize("length", sorted(STATIC_CUTOFF))
    def test_static_cutoff(self, length):
        m0 = static_m0(length, RegConfig.cutoff())
        assert m0.hex() == self.STATIC_CUTOFF[length]
