"""Per-mode vacuum stress-tensor integrals over the instantaneous cavity.

Convention (canonical massless scalar, fixed by the static limit):

    T00 = (|d_t phi|^2 + |d_x phi|^2 [+ |d_y phi|^2]) / 2
    T01 = -Re( d_t phi * conj(d_x phi) )

and the vacuum expectation of any mode bilinear B is the per-mode sum

    <0| B |0> = sum_n  B(u_n, conj(u_n)) / (2 w'_n)

with w'_n the scheme's comoving/expansion frequency: 1/(2 w'_n) is the
paper's weight. A mode normalized to the scheme's conserved pairing
(modes.canonical_norm, 2 x its lab phase frequency) would enter with the
Klein-Gordon weight 1/(2 x lab phase frequency) instead. The paper's weight
is gamma times that for lorentz and the rectangle, gamma^2 times for
galileo-lab and equal for galileo-comoving. Both weights give the per-mode
energy w_n / 2 at v = 0, so the static limit pins neither one's velocity
dependence.

Closed form. Every mode is u = N e^{i th} sin s with th and s affine in
(t, x), and the walls sit at s = 0 and s = n pi, so

    |u_t|^2 + |u_x|^2 = N^2 [(th_t^2 + th_x^2) sin^2 s + (s_t^2 + s_x^2) cos^2 s]
    Re(u_t conj(u_x)) = N^2 (th_t th_x sin^2 s + s_t s_x cos^2 s)

and over a cavity of lab length l, int sin^2 s dx = int cos^2 s dx = l/2
exactly (n half-periods of s). The mode has unit norm, N^2 l / 2 = 1, so
N^2 l = 2 in every scheme (lorentz 2 gamma/L * L/gamma, both galileo
schemes 2/L * L) and for a rectangle mode's x profile (2 gamma/a * a/gamma).
Hence, with sigma the canonical T01 sign, +1, and p the transverse
wavenumber of a rectangle mode (0 in 1D):

    e = (th_t^2 + th_x^2 + s_t^2 + s_x^2 + p^2) / (4 w')
    p = -sigma (th_t th_x + s_t s_x) / (2 w')

per_mode_em and per_mode_em_2d evaluate these in `math` (Moore, J. Math.
Phys. 11 (1970) 2679, for the modes) from the coefficients and w' alone,
read off the mode's record: a SpacetimeMode in 1D; for a rectangle mode,
its SpacetimeMode2D. Quadratures by the one Gauss-Legendre rule are the
closed form's oracles, and they keep N and the walls, so a wrong N shows:
coefficient_fits, the route every 1D request takes, integrates the real
densities of the first mode, one quadrature per velocity, and verify
compares the same quadrature with the closed form at other modes and
slices. The tests' oracle integrates the densities of the complex jet
(u, u_t, u_x) of 1D and rectangle modes (tests/_oracles.py).

Faults. verify proves its checks have teeth by running them under a wrong
stress tensor: inside `with _injected_fault(sign, rule)` every per-mode term,
on every route, takes sigma = sign and the w' of rule, "lab-phase" (the lab
phase frequency: the Klein-Gordon weight, which the checks reject because
they pin the paper's law) or "doubled" (2 w', wrong at rest).
"""

import contextlib
import contextvars
import math
import sys
from typing import NamedTuple

from .cavity import Cavity1D, Cavity2D, Scheme, _light_cone, lorentz_factor
from .modes import SpacetimeMode, SpacetimeMode2D
from .quadrature import gauss_legendre

__all__ = [
    "PerModeEM",
    "per_mode_em",
    "per_mode_em_2d",
    "per_mode_coefficients",
    "per_mode_em_2d_law",
    "coefficient_fits",
]

class PerModeEM(NamedTuple):
    """Cavity-integrated energy/momentum contribution of a single mode.

    quad_error bounds the rounding error of energy and momentum: it is the
    closed form's stated rounding bound 8 eps e, not a quadrature estimate.
    """

    energy: float
    momentum: float
    quad_error: float


# coefficient_fits' bound against the per-mode law, (roundings, floor), derived there
_FIT_BOUND = 54, 8

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
    """(th_t, th_x, s_t, s_x) and the prefactor frequency w' of the 1D mode u."""
    comoving, lab_phase, coeffs = u._row()
    return coeffs, _prefactor_frequency(comoving, lab_phase)


def _mode_2d(cavity: Cavity2D, n: int, m: int) -> SpacetimeMode2D:
    """Rectangle mode (n, m), refused where (n pi/a)^2 or (m pi/b)^2 is not finite in float64."""
    u = SpacetimeMode2D(cavity, n, m)
    for k, length, side, label, index in ((u.wavenumber_x, cavity.proper_length_x, "a", "n", n),
                                          (u.wavenumber_y, cavity.proper_length_y, "b", "m", m)):
        if not k * k < math.inf:
            raise ValueError(f"side {side} = {length!r} is too small for mode {label} = {index}: "
                             f"({label} pi/{side})^2 is not finite in float64")
    return u


def _profile_terms(cavity: Cavity2D, n: int, m: int):
    """(th_t, th_x, s_t, s_x), w' and p^2 of rectangle mode (n, m)'s x profile.

    The profile is the contracted 1D mode with the frequency w in its phase
    (per_mode_em_2d says why its integrals are the 1D ones).
    """
    u = _mode_2d(cavity, n, m)
    w, g = u.frequency, lorentz_factor(cavity.velocity)
    return u._coeffs, _prefactor_frequency(w, g * w), u.wavenumber_y ** 2


def _closed_form(coeffs, wp, p2) -> PerModeEM:
    """The module docstring's e and p of a unit-normalized mode exp(i th) sin s, N^2 l = 2.

    Each coefficient is divided by w' before it is squared, and 1/4 and 1/2
    are applied before the last product, so a sum overflows only where e
    does. quad_error is the stated rounding bound 8 eps e: e >= |p| and
    neither sum cancels, and gamma and galileo-lab's w' take 1 - v^2 from
    cavity._light_cone, within a few ulps at any |v| < 1, so a few eps of
    rounding per operation remain at every velocity.
    """
    r0, r1, r2, r3 = (c / wp for c in coeffs)
    e = 0.25 * wp * (r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3 + p2 / wp / wp)
    p = -_FAULT.get()[0] * 0.5 * wp * (r0 * r1 + r2 * r3)
    return PerModeEM(energy=e, momentum=p, quad_error=8.0 * sys.float_info.epsilon * e)


def _finite(em, cavity, index):
    """em, the (energy, momentum, ...) of mode index, refused unless both are finite in float64."""
    if not (math.isfinite(em[0]) and math.isfinite(em[1])):
        where = (f"n = {index} of L = {cavity.proper_length!r}" if isinstance(cavity, Cavity1D)
                 else f"(n, m) = {index} of a = {cavity.proper_length_x!r}, "
                      f"b = {cavity.proper_length_y!r}")
        raise ValueError(f"mode {where} at v = {cavity.velocity!r}: energy {em[0]!r} or momentum "
                         f"{em[1]!r} is not finite in float64")
    return em


def _panels(n: int) -> int:
    """Panels for densities A + B cos 2s with s running over n pi: at most two periods each.

    On a panel of half-width h the phase 2s spans at most 4 pi, so
    B cos 2s is bounded by |B| cosh(pi (rho - 1/rho)) on the Bernstein
    ellipse E_rho, and the quadrature module's Thm 19.3 bound at rho = 10.7
    is 6.4e-21 h |B|; A is integrated exactly. Summed over the panels of
    [a, b] the truncation is below 1e-20 (b - a)/2 |B|, far under the
    rounding.
    """
    return math.ceil(n / 2)


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
    u = SpacetimeMode(scheme, cavity, n)
    (th_t, th_x, s_t, s_x), wp = _mode_terms(u)
    left, right = cavity.walls(scheme, t)
    # the sin^2 s and cos^2 s weights of each density
    norm, sigma = u.normalization, _FAULT.get()[0]
    n2 = norm * norm
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

        e_n = int (|u_t|^2 + |u_x|^2) / (4 w') dx = (th_t^2 + th_x^2 + s_t^2 + s_x^2) / (4 w')
        p_n = -int Re(u_t conj(u_x)) / (2 w') dx  = -sigma (th_t th_x + s_t s_x) / (2 w')

    by the unit norm, N^2 l = 2 with l the lab length; both are time
    independent. quad_error is the closed form's stated rounding bound.
    """
    coeffs, wp = _mode_terms(SpacetimeMode(scheme, cavity, n))
    em = _closed_form(coeffs, wp, 0.0)
    return _finite(em, cavity, n)


def per_mode_em_2d(cavity: Cavity2D, n: int, m: int) -> PerModeEM:
    """2D analogue of per_mode_em with the transverse gradient in T00.

    The mode is its x profile f (the contracted 1D mode with the frequency w
    in its phase) times sin(p y). sin^2(p y) and cos^2(p y) both integrate
    to b/2 over [0, b], which cancels the 2/b in the square of the 2D
    normalization; so f has unit norm over the lab length a/gamma, and the
    x integrals are the 1D closed form with p^2 |f|^2 added to T00:

        e_nm = int (|f_t|^2 + |f_x|^2 + p^2 |f|^2) / (4 w') dx
        p_nm = -int Re(f_t conj(f_x)) / (2 w')            dx
    """
    coeffs, wp, p2 = _profile_terms(cavity, n, m)
    em = _closed_form(coeffs, wp, p2)
    return _finite(em, cavity, (n, m))


def per_mode_coefficients(scheme: Scheme, velocity: float) -> tuple[float, float]:
    """Closed-form (c_E, c_P) the quadrature must reproduce, per scheme.

    Defined by e_n = c_E * w_n / 2 and p_n = c_P * w_n / 2 with w_n = n pi / L.
    galileo-lab and lorentz share the law ((1+v^2)/(1-v^2), 2v/(1-v^2)), the one
    place it is written; 1 - v^2 comes from cavity._light_cone, so both are
    within a few ulps at any |v| < 1.
    """
    v = velocity
    if scheme is Scheme.GALILEO_COMOVING_PRIOR:
        return 1.0 + v * v / 2.0, v
    light_cone = _light_cone(v)
    return (1.0 + v * v) / light_cone, 2.0 * v / light_cone


def per_mode_em_2d_law(cavity: Cavity2D, n: int, m: int) -> tuple[float, float]:
    """2D per-mode law; verify's "rect2d: per-mode coefficient law" compares per_mode_em_2d to it.

        e_nm = [c_E (w^2 + k^2) + p^2] / (4 w)
        p_nm = c_P (w^2 + k^2) / (4 w)

    with (c_E, c_P) the lorentz per_mode_coefficients.
    """
    u = _mode_2d(cavity, n, m)
    ce, cp = per_mode_coefficients(Scheme.LORENTZ_EXACT, cavity.velocity)
    w = u.frequency
    w2k2 = w * w + u.wavenumber_x**2
    e = (ce * w2k2 + u.wavenumber_y**2) / (4.0 * w)
    p = cp * w2k2 / (4.0 * w)
    return _finite((e, p), cavity, (n, m))


def coefficient_fits(scheme: Scheme, velocities) -> tuple[tuple[float, float], ...]:
    """The coefficients (c_E, c_P) = (e_1, p_1)/(pi/2) at every velocity of a grid.

    e_n = c_E w_n/2 and p_n = c_P w_n/2 at every n (verify's "per-mode
    proportionality to w_n" check holds the closed form to it), and the
    coefficients are dimensionless and time independent; so the first mode
    of the unit cavity (L = 1) on the slice t = 0 gives them at every L.
    One Gauss-Legendre quadrature of the real densities per velocity
    (_density_quadrature); the closed form of per_mode_em is its oracle
    (verify checks the two against each other).

    Rounding (_FIT_BOUND, (54, 8)). Each coefficient is within
    observables._gamma(54) of the law, counting as _closed_form does, with
    libm within one ulp (2 roundings). The float pi cancels between k and
    pi/2, and gamma between N^2 and the lab length, which adds 1; gamma^2
    (lorentz) or w' (galileo-lab) carries at most 7 (1 - v^2 passes 3, then
    the square root and the reciprocal). The weights of sin^2 s and cos^2 s
    take 11 from the affine coefficients, N^2 and w'; each node adds 7
    (sin^2 or cos^2 5, a product and the sum), its weight 3 (the table, the
    half-width, the product), and fsum and the division 1 each. Each density
    is A + B cos 2s with |B| <= |A|, as its sin^2 and cos^2 weights share a
    sign. The abscissae and s_x x move s by at most 3 pi u, and so the
    integral by 6 pi u |B| l; s_x l is pi within 3 roundings, which moves it
    by 3 u |B| l: 22 more of A l. The truncation, below 1e-20 A l, adds 1:
    54 in all. Below the normal range each rounding errs by up to 2^-1075
    absolute instead, and only c_P gets there: p_sin and p_cos carry 2.2 of
    it, each node's value 5.2, its 16 weighted values 16 more and fsum 1,
    and the division by pi/2 leaves 15.1, so c_P is within 8 2^-1074.
    """
    fits = (_density_quadrature(scheme, Cavity1D(1.0, float(v)), 1, 0.0) for v in velocities)
    return tuple((e / (math.pi / 2.0), p / (math.pi / 2.0)) for e, p in fits)
