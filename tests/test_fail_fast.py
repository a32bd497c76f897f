"""Every public computation answers or fails fast at any float64 input.

Lengths and velocities are drawn across float64 (5e-324 to 1.7e308, and up to
a ulp below light speed), cutoff schedules from 1e-300 to 1e300, and a
boost's m0 may be NaN or infinite. Each call returns, or raises ValueError or
FitError (a bare OverflowError or ZeroDivisionError fails the test), within
one second. A per-mode or boost call that returns gives a finite energy and
momentum.
"""

import math
import time

from hypothesis import given, settings, strategies as st

from boostcav import rect2d, regsum
from boostcav.cavity import Cavity1D, Cavity2D, Scheme
from boostcav.modes import gram_matrix
from boostcav.observables import Route, boosted_em, static_m0, sweep
from boostcav.regsum import (
    FinitePart,
    FitError,
    Linear1DSummand,
    RegConfig,
    RegMethod,
    cutoff_finite_part,
)
from boostcav.stress import per_mode_em, per_mode_em_2d, per_mode_em_2d_law


def _decades(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


LENGTHS = st.one_of(st.floats(5e-324, 1.7e308), _decades(-323.3, 308.23))
VELOCITIES = st.one_of(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    st.builds(lambda gap, sign: sign * (1.0 - 10.0 ** -gap), st.floats(0.0, 16.0),
              st.sampled_from((-1.0, 1.0))),
)
# decreasing schedules: anywhere in 1e-300..1e300, below the radius 2 pi, and where fits keep digits
SCHEDULES = st.one_of(
    st.lists(_decades(-300.0, 300.0), min_size=4, max_size=8),
    st.lists(_decades(-300.0, 0.79), min_size=4, max_size=8),
    st.lists(_decades(-3.0, 0.79), min_size=4, max_size=8),
).map(lambda xs: tuple(sorted(xs, reverse=True)))
CONFIGS = st.one_of(st.none(), st.sampled_from(list(RegMethod)), SCHEDULES)
SCHEMES = st.sampled_from(list(Scheme))
ROUTES_1D = st.sampled_from((Route.CLOSED_FORM, Route.PER_MODE))
MODES = st.integers(1, 6)


def _config(spec):
    """Zeta for None, the config of a method, or a cutoff config on a schedule; built in the timed call."""
    if spec is None:
        return RegConfig(RegMethod.ZETA_EXACT)
    if isinstance(spec, RegMethod):
        return RegConfig(spec)
    return RegConfig(RegMethod.EXPONENTIAL_CUTOFF, spec)


def _static_m0(draw):
    length, config = draw(LENGTHS), draw(CONFIGS)
    return lambda: static_m0(length, _config(config))


def _boosted_em(draw):
    scheme, length, v = draw(SCHEMES), draw(LENGTHS), draw(VELOCITIES)
    route = draw(ROUTES_1D)
    # the zeta m0 of L, or a non-finite one, which the boost law refuses
    m0 = draw(st.one_of(st.none(), st.sampled_from((math.nan, math.inf, -math.inf))))
    return lambda: boosted_em(scheme, Cavity1D(length, v), route,
                              m0=static_m0(length) if m0 is None else FinitePart(m0, 0.0))


def _sweep(draw):
    scheme, length, grid = draw(SCHEMES), draw(LENGTHS), draw(st.lists(VELOCITIES, min_size=1,
                                                                        max_size=4))
    route, config = draw(ROUTES_1D), draw(CONFIGS)
    return lambda: sweep(scheme, length, grid, route, _config(config))


def _gram_matrix(draw):
    scheme, length, v = draw(SCHEMES), draw(LENGTHS), draw(VELOCITIES)
    n_modes, t = draw(st.integers(1, 4)), draw(st.floats(-1e3, 1e3))
    return lambda: gram_matrix(scheme, Cavity1D(length, v), n_modes, t)


def _per_mode_em(draw):
    scheme, length, v, n = draw(SCHEMES), draw(LENGTHS), draw(VELOCITIES), draw(MODES)
    return lambda: per_mode_em(scheme, Cavity1D(length, v), n)


def _per_mode_em_2d(draw):
    a, b, v, n, m = draw(LENGTHS), draw(LENGTHS), draw(VELOCITIES), draw(MODES), draw(MODES)
    return lambda: per_mode_em_2d(Cavity2D(a, b, v), n, m)


def _per_mode_em_2d_law(draw):
    a, b, v, n, m = draw(LENGTHS), draw(LENGTHS), draw(VELOCITIES), draw(MODES), draw(MODES)
    return lambda: per_mode_em_2d_law(Cavity2D(a, b, v), n, m)


def _boosted_em_2d(draw):
    a, b, v = draw(LENGTHS), draw(LENGTHS), draw(VELOCITIES)
    route = draw(st.sampled_from((Route.PER_MODE, Route.GROUPED)))
    return lambda: rect2d.boosted_em_2d(Cavity2D(a, b, v), route)


def _finite_parts(draw):
    a, b, config = draw(LENGTHS), draw(LENGTHS), draw(CONFIGS)
    return lambda: rect2d.finite_parts(Cavity2D(a, b), _config(config))


class _Convergent:
    """G_1(x) - 1/x^2 on omega_min = 1; 1.0 / (e * e) would divide by zero once e * e underflows."""

    omega_min = 1.0

    def __init__(self, divergent_powers):
        self.divergent_powers = divergent_powers

    def damped_sums(self, eps):
        return [[regsum._geometric(e)[0] - 1.0 / e / e for e in eps]]


def _cutoff_finite_part(draw):
    config = draw(st.one_of(SCHEDULES, st.sampled_from(list(RegMethod))))
    if draw(st.booleans()):
        length, weight = draw(LENGTHS), draw(st.floats(-2.0, 2.0))
        return lambda: cutoff_finite_part(Linear1DSummand(length, weight), _config(config))
    powers = draw(st.sampled_from(((), (2,))))
    return lambda: cutoff_finite_part(_Convergent(powers), _config(config))


# each draws its inputs and returns the call on them
CALLS = {f.__name__[1:]: f for f in (_static_m0, _boosted_em, _sweep, _gram_matrix, _per_mode_em,
                                      _per_mode_em_2d, _per_mode_em_2d_law, _boosted_em_2d,
                                      _finite_parts, _cutoff_finite_part)}


@settings(max_examples=500, deadline=None)
@given(name=st.sampled_from(sorted(CALLS)), data=st.data())
def test_every_call_answers_or_fails_fast(name, data):
    call = CALLS[name](data.draw)
    start = time.perf_counter()
    try:
        result = call()
    except (ValueError, FitError):
        result = None
    assert time.perf_counter() - start < 1.0, name
    if result is not None and name.startswith("per_mode_em"):
        assert math.isfinite(result[0]) and math.isfinite(result[1]), (name, result)
    if result is not None and name.startswith("boosted_em"):
        assert math.isfinite(result.energy) and math.isfinite(result.momentum), (name, result)
