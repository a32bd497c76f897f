"""Stated rounding bounds against the 40-digit shadow run of the same code (tests/_shadow.py).

The inputs are drawn as floats and passed to the shadow as mpf of the same
values, so the difference between the two results is the float run's
rounding, which each stated error must bound.
"""

import math

from hypothesis import example, given, settings, strategies as st
from mpmath import mpf, sqrt

from _shadow import MODULES, shadow
from boostcav import rect2d
from boostcav.cavity import Cavity1D, Cavity2D, Scheme
from boostcav.observables import (Route, boosted_em, closed_form_coefficients, mass_shell_residual,
                                  static_m0)
from boostcav.regsum import RegConfig, RegMethod
from boostcav.stress import per_mode_coefficients, per_mode_em

DECADES = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)  # 1e-3 .. 1e3


@st.composite
def _moving_cavities(draw):
    scheme = draw(st.sampled_from(list(Scheme)))
    top = 1.0 - 1e-12 if scheme is Scheme.LORENTZ_EXACT else 0.5
    return scheme, draw(DECADES), draw(st.floats(-top, top))


def test_shadow_runs_at_40_digits_and_restores():
    v = mpf(0.6)  # the float nearest 0.6
    with shadow():
        zeta3 = mpf("1.2020569031595942853997381615114499907649")
        contracted = Cavity1D(mpf(2), v).lab_length(Scheme.LORENTZ_EXACT)
        assert abs(rect2d._ZETA3 - zeta3) < 1e-39
        assert abs(contracted - 2 * sqrt(1 - v * v)) < 1e-39
    assert all(module.math is math for module in MODULES)
    assert rect2d._ZETA3 == 1.2020569031595942


@settings(max_examples=200, deadline=None)
@given(_moving_cavities(), st.integers(1, 10**4))
def test_per_mode_rounding_within_quad_error(drawn, n):
    scheme, length, v = drawn
    em = per_mode_em(scheme, Cavity1D(length, v), n)
    with shadow():
        exact = per_mode_em(scheme, Cavity1D(mpf(length), mpf(v)), n)
        assert abs(em.energy - exact.energy) <= em.quad_error
        assert abs(em.momentum - exact.momentum) <= em.quad_error


@settings(max_examples=40, deadline=None)
@given(DECADES, DECADES)
# parts below the normal range, where the error of the move to the sides is absolute
@example(1e308, 1.5)
@example(1.2e308, 0.8)
def test_zeta_parts_rounding_within_their_errors(shorter, aspect):
    a, b = (shorter, shorter * aspect) if aspect >= 1.0 else (shorter / aspect, shorter)
    parts = rect2d.finite_parts(Cavity2D(a, b))
    with shadow():
        exact = rect2d.finite_parts(Cavity2D(mpf(a), mpf(b)))
        for name in ("U", "W", "S_omega", "S_k"):
            part, shadow_part = getattr(parts, name), getattr(exact, name)
            assert abs(part.value - shadow_part.value) <= part.error_estimate, name


# |v| anywhere below 1, and 1 - |v| from 2^-1 down to 2^-53
VELOCITIES = st.one_of(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    st.builds(lambda bits, sign: sign * (1.0 - 2.0**-bits), st.floats(1.0, 53.0),
              st.sampled_from((-1.0, 1.0))),
)
# each 1D route's law: the scheme's printed coefficients, or the per-mode law its quadrature fits
LAWS = {Route.CLOSED_FORM: closed_form_coefficients, Route.PER_MODE: per_mode_coefficients}
REGULATORS = {"zeta": RegConfig(RegMethod.ZETA_EXACT), "cutoff": RegConfig.cutoff(),
              "abel-plana": RegConfig(RegMethod.ABEL_PLANA)}
# 1e-3 .. 1e3, and the top of the range, where m0 falls below the normal range past L = 5.9e306
LENGTHS_1D = st.one_of(DECADES, st.floats(1e300, 1.7e308))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(Scheme)), st.sampled_from(list(LAWS)),
       st.sampled_from(sorted(REGULATORS)), LENGTHS_1D, VELOCITIES)
# pinned: a cutoff m0, whose fit error (E errs by 2.3e-11 here) the columns must carry, and
# an m0 below the normal range, whose rounding is absolute (E errs by 2.6e-322 here)
@example(Scheme.LORENTZ_EXACT, Route.CLOSED_FORM, "cutoff", 1.0, 0.6)
@example(Scheme.LORENTZ_EXACT, Route.CLOSED_FORM, "zeta", 1e308, 0.99)
def test_1d_boost_within_its_stated_errors(scheme, route, regulator, length, v):
    """E and P within their error columns of the 40-digit law on the 40-digit m0, both routes."""
    em = boosted_em(scheme, Cavity1D(length, v), route, m0=static_m0(length, REGULATORS[regulator]))
    with shadow():
        exact_m0 = static_m0(mpf(length)).value
        c_e, c_p = LAWS[route](scheme, mpf(v))
        assert abs(em.energy - c_e * exact_m0) <= em.energy_error
        assert abs(em.momentum - c_p * exact_m0) <= em.momentum_error


@settings(max_examples=40, deadline=None)
@given(DECADES, DECADES, VELOCITIES)
def test_2d_boost_and_shell_within_their_stated_errors(shorter, aspect, v):
    """E_s, P_s on both routes and the shell residual within their columns, both orientations.

    The float run goes through boosted_em_2d and mass_shell_probe_2d; the shadow forms the
    same values with the same code on its own parts (what boosted_em_2d passes _boost_2d).
    """
    for a, b in ((shorter, shorter * aspect), (shorter * aspect, shorter)):
        ems = {route: rect2d.boosted_em_2d(Cavity2D(a, b, v), route)
               for route in (Route.PER_MODE, Route.GROUPED)}
        [row] = rect2d.mass_shell_probe_2d(Cavity2D(a, b), [v])
        with shadow():
            parts = rect2d.finite_parts(Cavity2D(mpf(a), mpf(b)))
            for route, em in ems.items():
                exact = rect2d._boost_2d(parts, mpf(v), route)
                assert abs(em.energy - exact.energy) <= em.energy_error, (a, b, route)
                assert abs(em.momentum - exact.momentum) <= em.momentum_error, (a, b, route)
            exact = rect2d._boost_2d(parts, mpf(v), Route.PER_MODE)
            residual = mass_shell_residual(exact, parts.S_omega.value)
            assert abs(row.residual - residual) <= row.residual_error, (a, b)
