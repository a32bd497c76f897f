"""Normalized spacetime mode functions of the moving Dirichlet cavity.

Every mode in all three schemes is an exponential phase times a sine whose
phase and argument are affine in (t, x):

    u(t, x) = N * exp(i*(th_t*t + th_x*x)) * sin(s_t*t + s_x*x)

which makes all derivatives closed-form. The spatial normalization N fixes
unit L2 norm over the instantaneous cavity at any lab time. The mode is the
pair of plane waves (N/2i)(exp(i k+.X) - exp(i k-.X)), k+- = grad(th +- s),
X = (t, x) (Moore, J. Math. Phys. 11 (1970) 2679). So it solves its field
equation where the scheme's operator symbol vanishes on k+ and k-
(kg_residual), and each Gram or overlap entry is a closed-form sum of four
exponential integrals (gram_matrix).

Scheme coefficients (k = n*pi/L, g = gamma):

    galileo-lab       th = k*(v*x - t),            s = k*(x - v*t),   N = sqrt(2/L)
    galileo-comoving  th = -k*t,                   s = k*(x - v*t),   N = sqrt(2/L)
    lorentz           th = -k*g*(t - v*x),         s = k*g*(x - v*t), N = sqrt(2*g/L)

A rectangle mode (n, m) is the lorentz x profile with w = hypot(k, p) in
place of k in th, times sin(p*y), with N = 2*sqrt(g/(a*b)) and p = m*pi/b.
"""

import cmath
import math
import operator
import sys
from typing import NamedTuple

from .cavity import Cavity1D, Cavity2D, Scheme, _validated, lorentz_factor

__all__ = [
    "OutsideCavityError",
    "SpacetimeMode",
    "SpacetimeMode2D",
    "mode",
    "mode_2d",
    "boundary_residual",
    "kg_residual",
    "canonical_norm",
    "gram_matrix",
    "spatial_overlap_matrix",
]


class OutsideCavityError(ValueError):
    """Point lies outside the instantaneous cavity; modes are defined inside only."""


def _check_index(n: int, name: str = "n") -> None:
    """n must be a positive integer: an int or any integer type (operator.index)."""
    try:
        positive = operator.index(n) >= 1
    except TypeError:
        positive = False
    if not positive:
        raise ValueError(f"mode index {name} must be a positive integer, got {n!r}")


_WALL_SLACK = 1e-12  # relative slack when classifying a point as inside


# A mode's frequencies, normalization and affine coefficients are properties
# of its record, SpacetimeMode or SpacetimeMode2D. The contracted coefficients
# are the one piece the lorentz 1D mode and the rectangle's x profile share.

def lorentz_coefficients(w: float, k: float, velocity: float):
    """Affine coefficients of a contracted mode with phase frequency w and wavenumber k.

    The 1D mode has w = k; the rectangle's x profile has w = hypot(k, p).
    """
    g = lorentz_factor(velocity)
    v = velocity
    return -w * g, w * g * v, -k * g * v, k * g


# The affine form of the module docstring and its first derivatives, written
# only here for 1D and 2D modes alike. Each evaluates one point (t, x).

def affine_value(norm, coeffs, t, x):
    """N exp(i(th_t t + th_x x)) sin(s_t t + s_x x)."""
    th_t, th_x, s_t, s_x = coeffs
    return norm * cmath.exp(1j * (th_t * t + th_x * x)) * math.sin(s_t * t + s_x * x)


def affine_jet(norm, coeffs, t, x):
    """(u, du/dt, du/dx) of affine_value; exp(i th), sin s and cos s are evaluated once."""
    th_t, th_x, s_t, s_x = coeffs
    nph = norm * cmath.exp(1j * (th_t * t + th_x * x))
    s = s_t * t + s_x * x
    sin_s, cos_s = math.sin(s), math.cos(s)
    return (nph * sin_s,
            nph * (1j * th_t * sin_s + s_t * cos_s),
            nph * (1j * th_x * sin_s + s_x * cos_s))


@_validated
class SpacetimeMode(NamedTuple):
    """One normalized 1D cavity mode; evaluation plus closed-form derivatives."""

    scheme: Scheme
    cavity: Cavity1D
    n: int

    def _validate(self) -> None:
        _check_index(self.n)

    # -- spectral data ----------------------------------------------------
    @property
    def base_frequency(self) -> float:
        """n*pi/L, the proper-frame standing-wave frequency."""
        return self.n * math.pi / self.cavity.proper_length

    @property
    def comoving_frequency(self) -> float:
        """The expansion frequency entering the 1/(2w') vacuum prefactor."""
        return self._row()[0]

    @property
    def lab_phase_frequency(self) -> float:
        """Coefficient of -t in the total lab-frame phase at fixed x."""
        return self._row()[1]

    @property
    def normalization(self) -> float:
        """N, which gives the mode unit L2 norm over the instantaneous cavity."""
        if self.scheme is not Scheme.LORENTZ_EXACT:
            return math.sqrt(2.0 / self.cavity.proper_length)
        return math.sqrt(2.0 * lorentz_factor(self.cavity.velocity) / self.cavity.proper_length)

    # -- affine phase/argument coefficients -------------------------------
    @property
    def _coeffs(self) -> tuple[float, float, float, float]:
        """(th_t, th_x, s_t, s_x) of the module docstring's table."""
        return self._row()[2]

    def _row(self) -> tuple[float, float, tuple[float, float, float, float]]:
        """(comoving_frequency, lab_phase_frequency, _coeffs), from one n pi/L and one gamma."""
        k = self.base_frequency
        v = self.cavity.velocity
        if self.scheme is Scheme.GALILEO_LAB_PRIOR:
            return (1.0 - v**2) * k, k, (-k, v * k, -v * k, k)
        if self.scheme is Scheme.GALILEO_COMOVING_PRIOR:
            return k, k, (-k, 0.0, -v * k, k)
        coeffs = lorentz_coefficients(k, k, v)
        return k, coeffs[3], coeffs  # s_x = gamma k

    # -- geometry ----------------------------------------------------------
    def walls(self, t: float) -> tuple[float, float]:
        return self.cavity.walls(self.scheme, t)

    def contains(self, t: float, x: float) -> bool:
        left, right = self.walls(t)
        slack = _WALL_SLACK * (right - left)
        return left - slack <= x <= right + slack

    def _require_inside(self, t: float, x: float) -> None:
        if not self.contains(t, x):
            left, right = self.walls(t)
            raise OutsideCavityError(
                f"x outside instantaneous cavity [{left:.6g}, {right:.6g}] at t={t:.6g}"
            )

    # -- evaluation ---------------------------------------------------------
    def value(self, t: float, x: float, *, check: bool = True) -> complex:
        if check:
            self._require_inside(t, x)
        return affine_value(self.normalization, self._coeffs, t, x)

    __call__ = value

    def d_dt(self, t: float, x: float) -> complex:
        return affine_jet(self.normalization, self._coeffs, t, x)[1]

    def d_dx(self, t: float, x: float) -> complex:
        return affine_jet(self.normalization, self._coeffs, t, x)[2]


@_validated
class SpacetimeMode2D(NamedTuple):
    """Exact-contraction mode of the moving rectangle (boost along x)."""

    cavity: Cavity2D
    n: int
    m: int

    def _validate(self) -> None:
        _check_index(self.n, "n")
        _check_index(self.m, "m")

    @property
    def wavenumber_x(self) -> float:
        return self.n * math.pi / self.cavity.proper_length_x

    @property
    def wavenumber_y(self) -> float:
        return self.m * math.pi / self.cavity.proper_length_y

    @property
    def frequency(self) -> float:
        return math.hypot(self.wavenumber_x, self.wavenumber_y)

    # The vacuum prefactor frequency; proper-frame value, velocity independent.
    comoving_frequency = frequency

    @property
    def normalization(self) -> float:
        g = self.cavity.gamma()
        return 2.0 * math.sqrt(g / (self.cavity.proper_length_x * self.cavity.proper_length_y))

    @property
    def _coeffs(self) -> tuple[float, float, float, float]:
        """(th_t, th_x, s_t, s_x) of the x profile; the mode is the profile times sin(p y)."""
        return lorentz_coefficients(self.frequency, self.wavenumber_x, self.cavity.velocity)

    def walls_x(self, t: float) -> tuple[float, float]:
        return self.cavity.walls_x(t)

    def contains(self, t: float, x: float, y: float) -> bool:
        left, right = self.walls_x(t)
        b = self.cavity.proper_length_y
        sx = _WALL_SLACK * (right - left)
        sy = _WALL_SLACK * b
        return left - sx <= x <= right + sx and -sy <= y <= b + sy

    def value(self, t: float, x: float, y: float, *, check: bool = True) -> complex:
        if check and not self.contains(t, x, y):
            raise OutsideCavityError("(x, y) outside the instantaneous cavity")
        return affine_value(self.normalization, self._coeffs, t, x) * self._sin_py(y)

    __call__ = value

    def _sin_py(self, y: float) -> float:
        return math.sin(self.wavenumber_y * y)

    def d_dt(self, t: float, x: float, y: float) -> complex:
        return affine_jet(self.normalization, self._coeffs, t, x)[1] * self._sin_py(y)

    def d_dx(self, t: float, x: float, y: float) -> complex:
        return affine_jet(self.normalization, self._coeffs, t, x)[2] * self._sin_py(y)

    def d_dy(self, t: float, x: float, y: float) -> complex:
        p = self.wavenumber_y
        return affine_value(self.normalization, self._coeffs, t, x) * p * math.cos(p * y)


def mode(scheme: Scheme, cavity: Cavity1D, n: int) -> SpacetimeMode:
    return SpacetimeMode(scheme, cavity, n)


def mode_2d(cavity: Cavity2D, n: int, m: int) -> SpacetimeMode2D:
    return SpacetimeMode2D(cavity, n, m)


def boundary_residual(scheme: Scheme, cavity: Cavity1D, n: int, t: float) -> tuple[complex, complex]:
    """Mode values at the two instantaneous walls; zero for Dirichlet walls."""
    u = mode(scheme, cavity, n)
    left, right = u.walls(t)
    return u.value(t, left, check=False), u.value(t, right, check=False)


def _plane_waves(u: SpacetimeMode):
    """The mode's two plane waves (c, k_t, k_x, d); u is the sum of c exp(i(k_t t + k_x x)).

    c = +-N/2i and k = grad(th +- s); d is the wave's eigenvalue of the
    scheme's conserved time operator D over i: k_t for d_t, k_t + v k_x for
    galileo-comoving's d_t + v d_x.
    """
    th_t, th_x, s_t, s_x = u._coeffs
    c = u.normalization / 2j
    shift = u.cavity.velocity if u.scheme is Scheme.GALILEO_COMOVING_PRIOR else 0.0
    plus, minus = (th_t + s_t, th_x + s_x), (th_t - s_t, th_x - s_x)
    return (c, *plus, plus[0] + shift * plus[1]), (-c, *minus, minus[0] + shift * minus[1])


def kg_residual(scheme: Scheme, cavity: Cavity1D, n: int, t: float, x: float) -> float:
    """|governing PDE applied to the mode|: (N/2)|q(k+) exp(i k+.X) - q(k-) exp(i k-.X)|.

    galileo-lab and lorentz modes solve the lab-frame wave equation, symbol
    q(k) = k_t^2 - k_x^2; galileo-comoving modes solve the Galileo-shifted
    operator (d_t + v d_x)^2 - d_x^2, q(k) = (k_t + v k_x)^2 - k_x^2. Squares
    are products, so q is exactly 0 where the coefficients are symmetric.
    """
    u = mode(scheme, cavity, n)
    u._require_inside(t, x)

    def wave(_, k_t, k_x, d):
        return (d * d - k_x * k_x) * cmath.exp(1j * (k_t * t + k_x * x))

    plus, minus = _plane_waves(u)
    residual = wave(*plus) - wave(*minus)
    return float(0.5 * u.normalization * abs(residual))


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------

def canonical_norm(scheme: Scheme, cavity: Cavity1D, n: int) -> float:
    """Diagonal of the scheme's conserved sesquilinear pairing (analytic): 2 w_n."""
    return float(2.0 * mode(scheme, cavity, n).lab_phase_frequency)


def _pairwise_matrix(scheme: Scheme, cavity: Cavity1D, n_modes: int, t: float,
                     pair, term=None) -> list[list[complex]]:
    """Sums over wave pairs (j of mode n, l of mode m) of w exp(i(a t + b x)) dx on the cavity.

    pair(j, l) gives the weight w and wave vector (a, b) of the product of
    waves j and l. The x integral over [L, R] is
    exp(i b (L + R)/2) (R - L) sinc(b (R - L)/2), which does not cancel as b -> 0.
    term(w, a, b), if given, replaces that integral. Rows are modes n.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if term is None:
        left, right = cavity.walls(scheme, t)
        mid, width = 0.5 * (left + right), right - left

        def term(w, a, b):
            z = 0.5 * b * width
            return w * cmath.exp(1j * (a * t + b * mid)) * width * (math.sin(z) / z if z else 1.0)

    waves = [_plane_waves(mode(scheme, cavity, n)) for n in range(1, n_modes + 1)]
    return [[sum(term(*pair(j, l)) for j in waves_n for l in waves_m) for waves_m in waves]
            for waves_n in waves]


def _gram_pair(j, l):
    """Weight and wave vector of waves j and l in the conserved pairing (gram_matrix)."""
    (c_j, a_j, b_j, d_j), (c_l, a_l, b_l, d_l) = j, l
    return -c_j.conjugate() * c_l * (d_j + d_l), a_l - a_j, b_l - b_j


def _gram_slice(scheme: Scheme, cavity: Cavity1D, n_modes: int, t: float):
    """The cavity, slice and norms 2 w_n that gram_matrix and _gram_bound evaluate.

    The matrix is dimensionless, G(L, t) = G(1, t/L). Where a product of two
    norms is not a normal float (L above about 4e154, where the pairing's sums
    underflow too, or near the smallest L), the unit cavity at t/L stands in.
    """
    norms = [canonical_norm(scheme, cavity, n) for n in range(1, n_modes + 1)]
    if n_modes < 1 or sys.float_info.min <= norms[0] * norms[0] and norms[-1] * norms[-1] < math.inf:
        return cavity, t, norms
    return _gram_slice(scheme, Cavity1D(1.0, cavity.velocity), n_modes, t / cavity.proper_length)


def gram_matrix(
    scheme: Scheme,
    cavity: Cavity1D,
    n_modes: int,
    t: float,
) -> list[list[complex]]:
    """Mode Gram matrix under the scheme's conserved pairing; the identity.

    Entry (n, m) is  i * int( conj(u_n) D u_m - u_m conj(D u_n) ) dx  over
    the instantaneous cavity, divided by sqrt of the analytic diagonals,
    with D the scheme's conserved first-order time operator (d_t for the
    wave-equation schemes, d_t + v d_x for galileo-comoving). In closed form
    (Moore 1970): waves j of u_n and l of u_m, c exp(i k.X) with
    D exp(i k.X) = i d exp(i k.X), add -conj(c_j) c_l (d_j + d_l) exp(i (k_l - k_j).X).

    The naive equal-time overlap int u_n conj(u_m) dx is *not* diagonal for
    the moving cavity (the mode phases mix t and x); see
    spatial_overlap_matrix for that diagnostic. The conserved pairing is
    slice-independent, which is what makes the orthonormality statement
    exact at every lab time. _gram_bound bounds what rounding leaves of it.
    Rows are lists of complex; np.array(gram_matrix(...)) makes the matrix.
    """
    cavity, t, norms = _gram_slice(scheme, cavity, n_modes, t)
    gram = _pairwise_matrix(scheme, cavity, n_modes, t, _gram_pair)
    # times the reciprocal, not divided by the root: the tests pin the bits of this rounding
    return [[g * (1.0 / math.sqrt(a * b)) for g, b in zip(row, norms)]
            for row, a in zip(gram, norms)]


def _gram_bound(scheme: Scheme, cavity: Cavity1D, n_modes: int, t: float) -> list[list[float]]:
    """Per-entry bound on |gram_matrix - I| from rounding alone.

    Entry (n, m) is S / sqrt(nu_n nu_m): nu = 2 w the analytic diagonals, S
    the sum over four wave pairs of T = w exp(i(a t + b mid)) (R - L) sinc,
    with |T| <= |w| (R - L). The weight, width and sinc of T are rounded to
    a few eps, relative; its phase to eps (|a t| + |b| max(|L|, |R|)),
    absolute, and exp makes that a relative error of T. The waves' own
    rounding (k, gamma, N) shifts the same weights and phases: for any k and
    gamma the waves solve the field equation with s = 0, n pi on the walls.
    The norms, their product, the root and the division add a few eps
    relative to the entry, which is delta_nm. So

        |G_nm - delta_nm| <= 4 eps [sum |w| (R - L)(1 + |a t| + |b| max(|L|, |R|))
                                    / sqrt(nu_n nu_m) + delta_nm].

    At verify's cavities it is 8e-15 to 4e-13 against |G - I| of 1e-16 to
    1e-15; |G - I| stays under half of it on random cavities, slices and
    velocities up to 1 - 1e-6 (tests/test_modes.py).
    """
    cavity, t, norms = _gram_slice(scheme, cavity, n_modes, t)
    left, right = cavity.walls(scheme, t)
    width, reach = right - left, max(abs(left), abs(right))

    def spread(w, a, b):
        return abs(w) * width * (1.0 + abs(a * t) + abs(b) * reach)

    total = _pairwise_matrix(scheme, cavity, n_modes, t, _gram_pair, spread)
    return [[4.0 * sys.float_info.epsilon * (s / math.sqrt(a * b) + (i == k))
             for k, (s, b) in enumerate(zip(row, norms))]
            for i, (row, a) in enumerate(zip(total, norms))]


def spatial_overlap_matrix(
    scheme: Scheme,
    cavity: Cavity1D,
    n_modes: int,
    t: float,
) -> list[list[complex]]:
    """Literal equal-time overlaps int u_n conj(u_m) dx (unit diagonal).

    Off-diagonal entries are nonzero for the galileo-lab and lorentz
    families: on a fixed-t slice their phases retain x-dependence that no
    measure choice can cancel. They grow as O(v) between modes of opposite
    parity and O(v^2) between modes of equal parity. Kept as a diagnostic
    of exactly that time-space mixing; gram_matrix holds the conserved
    pairing that is exactly diagonal. In closed form, as there, waves j and
    l add c_j conj(c_l) exp(i (k_j - k_l).X).
    """

    def pair(j, l):
        (c_j, a_j, b_j, _), (c_l, a_l, b_l, _) = j, l
        return c_j * c_l.conjugate(), a_j - a_l, b_j - b_l

    return _pairwise_matrix(scheme, cavity, n_modes, t, pair)
