"""Per-mode vacuum stress-tensor integrals over the instantaneous cavity.

Convention (canonical massless scalar, fixed by the static limit):

    T00 = (|d_t phi|^2 + |d_x phi|^2 [+ |d_y phi|^2]) / 2
    T01 = -Re( d_t phi * conj(d_x phi) )

and the vacuum expectation of any mode bilinear B is the per-mode sum

    <0| B |0> = sum_n  B(u_n, conj(u_n)) / (2 w'_n)

with w'_n the scheme's comoving/expansion frequency. At v = 0 this makes
the per-mode energy exactly w_n / 2, which pins every factor.

Closed form. Every mode is u = N e^{i th} sin s with th and s affine in
(t, x), and the walls sit at s = 0 and s = n pi, so

    |u_t|^2 + |u_x|^2 = N^2 [(th_t^2 + th_x^2) sin^2 s + (s_t^2 + s_x^2) cos^2 s]
    Re(u_t conj(u_x)) = N^2 (th_t th_x sin^2 s + s_t s_x cos^2 s)

and over a cavity of lab length l, int sin^2 s dx = int cos^2 s dx = l/2
exactly (n half-periods of s). Hence, with sigma the canonical T01 sign, +1,
and p the transverse wavenumber of a rectangle mode (0 in 1D):

    e = N^2 l (th_t^2 + th_x^2 + s_t^2 + s_x^2 + p^2) / (8 w')
    p = -sigma N^2 l (th_t th_x + s_t s_x) / (4 w')

per_mode_em and per_mode_em_2d evaluate these in `math` (Moore, J. Math.
Phys. 11 (1970) 2679, for the modes). N, the coefficients and w' come from
the mode's record: a SpacetimeMode in 1D; for a rectangle mode, its
SpacetimeMode2D, with the 1D normalization sqrt(2 gamma/a) of the x
side. Two quadratures by the one Gauss-Legendre rule are the closed
form's oracles: coefficient_fits, the route every 1D request takes,
integrates the real densities of the first mode, one quadrature per
velocity, and verify compares the same quadrature with the closed form at
other modes and slices; _jet_quadrature integrates the densities of the
complex jet (u, u_t, u_x), evaluated one abscissa at a time, for the tests.

Faults. verify proves its checks have teeth by running them under a wrong
stress tensor: inside `with _injected_fault(sign, rule)` every per-mode term,
on every route, takes sigma = sign and the w' of rule, "lab-phase" (the lab
phase frequency, wrong for a moving cavity) or "doubled" (2 w', wrong at rest).
"""

import contextlib
import contextvars
import math
import sys
from typing import NamedTuple

from .cavity import Cavity1D, Cavity2D, Scheme
from .modes import SpacetimeMode, affine_jet, mode, mode_2d
from .quadrature import gauss_legendre

__all__ = [
    "PerModeEM",
    "CoefficientFit",
    "per_mode_em",
    "per_mode_em_2d",
    "per_mode_coefficients",
    "per_mode_em_2d_law",
    "coefficient_fits",
]

class PerModeEM(NamedTuple):
    """Cavity-integrated energy/momentum contribution of a single mode.

    quad_error bounds the rounding error of energy and momentum: it is the
    closed form's stated rounding bound 8 eps gamma^2 e, not a quadrature
    estimate (the field keeps its name).
    """

    n: int
    energy: float
    momentum: float
    quad_error: float
    m: int | None = None


class CoefficientFit(NamedTuple):
    """Velocity-dependent per-mode coefficients: e_n = c_E w_n/2, p_n = c_P w_n/2."""

    c_energy: float
    c_momentum: float


# the active fault as (T01 sign, prefactor rule); the default is the canonical tensor
_FAULT = contextvars.ContextVar("boostcav_stress_fault", default=(1.0, None))


@contextlib.contextmanager
def _injected_fault(t01_sign: float = 1.0, prefactor: str | None = None):
    """Run the block under the fault (t01_sign, prefactor); the module docstring says how."""
    if prefactor not in (None, "lab-phase", "doubled"):
        raise ValueError(f"unknown prefactor rule {prefactor!r}")
    token = _FAULT.set((t01_sign, prefactor))
    try:
        yield
    finally:
        _FAULT.reset(token)


def _prefactor_frequency(comoving, lab_phase):
    rule = _FAULT.get()[1]
    if rule == "lab-phase":
        return lab_phase
    if rule == "doubled":
        return 2.0 * comoving
    return comoving


def _mode_terms(u: SpacetimeMode):
    """N, (th_t, th_x, s_t, s_x) and the prefactor frequency w' of the 1D mode u."""
    comoving, lab_phase, coeffs = u._row()
    return u.normalization, coeffs, _prefactor_frequency(comoving, lab_phase)


def _profile_terms(cavity: Cavity2D, n: int, m: int):
    """N, (th_t, th_x, s_t, s_x), w' and p^2 of rectangle mode (n, m)'s x profile.

    The profile is the contracted 1D mode with the frequency w in its phase;
    it carries the 1D normalization sqrt(2 gamma/a) of the lorentz mode of
    the x side (per_mode_em_2d says why).
    """
    u = mode_2d(cavity, n, m)
    w, p = u.frequency, u.wavenumber_y
    if not p * p < math.inf:
        raise ValueError(f"side b = {cavity.proper_length_y!r} is too small for mode m = {m}: "
                         "(m pi/b)^2 is not finite in float64")
    return (math.sqrt(2.0 * cavity.gamma() / cavity.proper_length_x), u._coeffs,
            _prefactor_frequency(w, cavity.gamma() * w), p ** 2)


def _closed_form(norm, coeffs, wp, p2, length, velocity, n: int,
                 m: int | None = None) -> PerModeEM:
    """The module docstring's e and p of the mode N exp(i th) sin s over a cavity of lab length l.

    quad_error is the stated rounding bound 8 eps gamma^2 e: e >= |p| and
    neither sum cancels, so a few eps of rounding per operation remain,
    amplified only by the 1 - v^2 inside gamma (and inside galileo-lab's w').
    """
    th_t, th_x, s_t, s_x = coeffs
    n2l = norm * norm * length
    e = n2l * (th_t * th_t + th_x * th_x + s_t * s_t + s_x * s_x + p2) / (8.0 * wp)
    p = -_FAULT.get()[0] * n2l * (th_t * th_x + s_t * s_x) / (4.0 * wp)
    bound = 8.0 * sys.float_info.epsilon * e / (1.0 - velocity * velocity)
    return PerModeEM(n=n, energy=e, momentum=p, quad_error=bound, m=m)


def _panels(n: int) -> int:
    """Panels for densities A + B cos 2s with s running over n pi: at most two periods each.

    On a panel of half-width h the phase 2s spans at most 4 pi, so
    B cos 2s is bounded by |B| cosh(pi (rho - 1/rho)) on the Bernstein
    ellipse E_rho, and the quadrature module's Thm 19.3 bound at rho = 10.7
    is 6.4e-21 h |B|; A is integrated exactly. Summed over the panels of
    [a, b] the truncation is below 1e-20 (b - a)/2 |B|, far under the
    rounding.
    """
    return max(4, math.ceil(n / 2))


def _jet_quadrature(norm, coeffs, wp, p2, walls, t, n: int):
    """The per-mode T00 and T01 integrals over the walls, divided by 2 w', as (e, p).

    The oracle of the closed form, by the complex jet (u, u_t, u_x) of the
    mode N exp(i th) sin s; p2 is the squared transverse wavenumber of a
    rectangle mode's x profile, 0 in 1D. The phase th cancels from both
    densities, which are A + B cos 2s with s running over n pi, so on
    _panels(n) panels the truncation is below 1e-20 (b - a)/2 |B|.
    """
    sigma = _FAULT.get()[0]

    def densities(xs):
        jets = [affine_jet(norm, coeffs, t, x) for x in xs]
        return (
            [(abs(ut) ** 2 + abs(ux) ** 2 + p2 * abs(u) ** 2) / (4.0 * wp) for u, ut, ux in jets],
            [-sigma * (ut * ux.conjugate()).real / (2.0 * wp) for _, ut, ux in jets],
        )

    left, right = walls
    return gauss_legendre(densities, left, right, panels=_panels(n))


def _density_quadrature(scheme: Scheme, cavity: Cavity1D, n: int,
                        t: float) -> tuple[float, float]:
    """(e_n, p_n) by one Gauss-Legendre quadrature of the real densities on the slice t.

    With u = N e^{i th} sin s the densities are real:

        e = N^2 [(th_t^2 + th_x^2) sin^2 s + (s_t^2 + s_x^2) cos^2 s] / (4 w')
        p = -sigma N^2 (th_t th_x sin^2 s + s_t s_x cos^2 s) / (2 w')

    one sin and one cos per node, s = s_t t + s_x x. Both are A + B cos 2s
    with s running over n pi between the walls, so the truncation on
    _panels(n) panels is below 1e-20 (b - a)/2 |B|: the result is the
    densities' integral to rounding.
    """
    u = mode(scheme, cavity, n)
    norm, (th_t, th_x, s_t, s_x), wp = _mode_terms(u)
    left, right = u.walls(t)
    # the sin^2 s and cos^2 s weights of each density
    n2, sigma = norm * norm, _FAULT.get()[0]
    e_sin = n2 * (th_t * th_t + th_x * th_x) / (4.0 * wp)
    e_cos = n2 * (s_t * s_t + s_x * s_x) / (4.0 * wp)
    p_sin = -sigma * n2 * th_t * th_x / (2.0 * wp)
    p_cos = -sigma * n2 * s_t * s_x / (2.0 * wp)

    def densities(xs):
        e, p = [], []
        for x in xs:
            s = s_t * t + s_x * x
            sin_s, cos_s = math.sin(s), math.cos(s)
            sin2, cos2 = sin_s * sin_s, cos_s * cos_s
            e.append(e_sin * sin2 + e_cos * cos2)
            p.append(p_sin * sin2 + p_cos * cos2)
        return e, p

    return gauss_legendre(densities, left, right, panels=_panels(n))


def per_mode_em(scheme: Scheme, cavity: Cavity1D, n: int) -> PerModeEM:
    """The per-mode T00 and T01 integrals over the instantaneous cavity, in closed form.

    Returns the contributions

        e_n = int (|u_t|^2 + |u_x|^2) / (4 w') dx = N^2 l (th_t^2 + th_x^2 + s_t^2 + s_x^2) / (8 w')
        p_n = -int Re(u_t conj(u_x)) / (2 w') dx  = -sigma N^2 l (th_t th_x + s_t s_x) / (4 w')

    with l the lab length; both are time independent. quad_error is the
    closed form's stated rounding bound.
    """
    norm, coeffs, wp = _mode_terms(mode(scheme, cavity, n))
    return _closed_form(norm, coeffs, wp, 0.0, cavity.lab_length(scheme), cavity.velocity, n)


def per_mode_em_2d(cavity: Cavity2D, n: int, m: int) -> PerModeEM:
    """2D analogue of per_mode_em with the transverse gradient in T00.

    The mode is its x profile f (the contracted 1D mode with the frequency w
    in its phase) times sin(p y). sin^2(p y) and cos^2(p y) both integrate
    to b/2 over [0, b], which cancels the 2/b in the square of the 2D
    normalization; so f carries the 1D normalization sqrt(2 gamma/a), and
    the x integrals are the 1D closed form with p^2 |f|^2 added to T00:

        e_nm = int (|f_t|^2 + |f_x|^2 + p^2 |f|^2) / (4 w') dx
        p_nm = -int Re(f_t conj(f_x)) / (2 w')            dx
    """
    norm, coeffs, wp, p2 = _profile_terms(cavity, n, m)
    return _closed_form(norm, coeffs, wp, p2, cavity.lab_length_x(), cavity.velocity, n, m)


def per_mode_coefficients(scheme: Scheme, velocity: float) -> tuple[float, float]:
    """Closed-form (c_E, c_P) the quadrature must reproduce, per scheme.

    Defined by e_n = c_E * w_n / 2 and p_n = c_P * w_n / 2 with w_n = n pi / L.
    """
    v = velocity
    if scheme is Scheme.GALILEO_LAB_PRIOR:
        return (1.0 + v * v) / (1.0 - v * v), 2.0 * v / (1.0 - v * v)
    if scheme is Scheme.GALILEO_COMOVING_PRIOR:
        return 1.0 + v * v / 2.0, v
    g2 = 1.0 / (1.0 - v * v)
    return g2 * (1.0 + v * v), 2.0 * g2 * v


def per_mode_em_2d_law(cavity: Cavity2D, n: int, m: int) -> tuple[float, float]:
    """Closed-form 2D per-mode law: the oracle the quadrature is checked against.

        e_nm = [gamma^2 (1+v^2) (w^2 + k^2) + p^2] / (4 w)
        p_nm = gamma^2 v (w^2 + k^2) / (2 w)
    """
    u = mode_2d(cavity, n, m)
    v = cavity.velocity
    g2 = 1.0 / (1.0 - v * v)
    w = u.frequency
    k2 = u.wavenumber_x**2
    p2 = u.wavenumber_y**2
    e = (g2 * (1.0 + v * v) * (w * w + k2) + p2) / (4.0 * w)
    p = g2 * v * (w * w + k2) / (2.0 * w)
    return e, p


def coefficient_fits(scheme: Scheme, velocities) -> tuple[CoefficientFit, ...]:
    """The coefficients (c_E, c_P) = (e_1, p_1)/(pi/2) at every velocity of a grid.

    e_n = c_E w_n/2 and p_n = c_P w_n/2 at every n (verify's "per-mode
    proportionality to w_n" check holds the closed form to it), and the
    coefficients are dimensionless and time independent; so the first mode
    of the unit cavity (L = 1) on the slice t = 0 gives them at every L.
    One Gauss-Legendre quadrature of the real densities per velocity
    (_density_quadrature); the closed form of per_mode_em is its oracle
    (verify checks the two against each other).
    """
    fits = []
    for v in velocities:
        e, p = _density_quadrature(scheme, Cavity1D(1.0, float(v)), 1, 0.0)
        fits.append(CoefficientFit(e / (math.pi / 2.0), p / (math.pi / 2.0)))
    return tuple(fits)
