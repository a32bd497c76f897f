"""The closed form's oracles: the complex jet of a mode, and the stress densities it integrates.

stress.per_mode_em and per_mode_em_2d read only a mode's affine coefficients
and w'. These keep N and the walls: they differentiate the mode's affine form
N exp(i th) sin s one point at a time and integrate its T00 and T01 densities
between the walls by the package's Gauss-Legendre rule, under the active
stress fault.
"""

import cmath
import math

from boostcav import stress
from boostcav.quadrature import gauss_legendre


def affine_jet(norm, coeffs, t, x):
    """(u, du/dt, du/dx) of modes.affine_value; exp(i th), sin s and cos s are evaluated once."""
    th_t, th_x, s_t, s_x = coeffs
    nph = norm * cmath.exp(1j * (th_t * t + th_x * x))
    s = s_t * t + s_x * x
    sin_s, cos_s = math.sin(s), math.cos(s)
    return (nph * sin_s,
            nph * (1j * th_t * sin_s + s_t * cos_s),
            nph * (1j * th_x * sin_s + s_x * cos_s))


def jet_quadrature(norm, coeffs, wp, p2, walls, t, n: int):
    """The per-mode T00 and T01 integrals over the walls, divided by 2 w', as (e, p).

    By the complex jet (u, u_t, u_x) of the mode N exp(i th) sin s; p2 is the
    squared transverse wavenumber of a rectangle mode's x profile, 0 in 1D.
    The phase th cancels from both densities, which are A + B cos 2s with s
    running over n pi, so on stress._panels(n) panels the truncation is below
    1e-20 (b - a)/2 |B|.
    """
    sigma = stress._FAULT.get()[0]

    def densities(xs):
        jets = [affine_jet(norm, coeffs, t, x) for x in xs]
        return (
            [(abs(ut) ** 2 + abs(ux) ** 2 + p2 * abs(u) ** 2) / (4.0 * wp) for u, ut, ux in jets],
            [-sigma * (ut * ux.conjugate()).real / (2.0 * wp) for _, ut, ux in jets],
        )

    left, right = walls
    return gauss_legendre(densities, left, right, panels=stress._panels(n))
