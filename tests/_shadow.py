"""A 40-digit shadow run: the package's own code with mpmath in place of `math`.

Inside `shadow()` the modules that compute (cavity, modes, stress, regsum,
observables, rect2d) read MATH, mpmath's functions under math's names, at 40 digits, and
rect2d's zeta(3) is mpmath's. Called with mpf inputs of the same float values,
the same code runs with the same truncations and model, so |float - shadow|
is the float run's rounding alone. Plain float literals are exact binary
values and need no swap; the Gauss-Legendre nodes and thresholds on
sys.float_info stay as they are, as part of the algorithm.
"""

import contextlib
import types

import mpmath

from boostcav import cavity, modes, observables, rect2d, regsum, stress

DIGITS = 40
MODULES = (cavity, modes, stress, regsum, observables, rect2d)

MATH = types.SimpleNamespace(
    exp=mpmath.exp, expm1=mpmath.expm1, log=mpmath.log, log1p=mpmath.log1p,
    sqrt=mpmath.sqrt, hypot=mpmath.hypot, cos=mpmath.cos, sin=mpmath.sin,
    cosh=mpmath.cosh, sinh=mpmath.sinh, fsum=mpmath.fsum, isfinite=mpmath.isfinite,
    isnan=mpmath.isnan,
    # math's floor and ceil return ints, which src uses as counts
    floor=lambda x: int(mpmath.floor(x)), ceil=lambda x: int(mpmath.ceil(x)),
    pi=mpmath.pi,  # evaluated at the working precision wherever it is used
    inf=mpmath.inf,
)


@contextlib.contextmanager
def shadow():
    """Run the block at DIGITS digits with MATH in place of each module's math."""
    saved_math, saved_zeta3 = [module.math for module in MODULES], rect2d._ZETA3
    with mpmath.workdps(DIGITS):
        try:
            for module in MODULES:
                module.math = MATH
            rect2d._ZETA3 = mpmath.zeta(3)
            yield
        finally:
            for module, math_module in zip(MODULES, saved_math):
                module.math = math_module
            rect2d._ZETA3 = saved_zeta3
