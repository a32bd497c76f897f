"""Boosted rectangular (2+1D) cavity: regularized sums and the shell probe.

The per-mode law for the moving rectangle gives

    E_s = gamma^2 (1 + v^2) U + W        U = FP[ sum (w^2 + k^2) / (4 w) ]
    P_s = 2 gamma^2 v U                  W = FP[ sum p^2 / (4 w) ]

so the mass-shell residual has the closed algebraic form

    E_s^2 - P_s^2 - E_m^2 = 2 (gamma^2 (1 + v^2) - 1) U W = 4 gamma^2 v^2 U W,

which vanishes for all v only if one of the two finite parts is driven to
zero; the subtraction solver reports exactly those two branches. A second,
"grouped" route evaluates the boost prefactors on the regrouped sums
FP[ sum (w/2 +- k^2/(2w)) ]; it fails its own static limit by the finite
amount FP[ sum k^2/(2w) ] and is reported side by side, never corrected.
The per-mode route is the 1D cavity's boost law, observables._boost, on U
and W, and both routes return its one record, EnergyMomentum.

The four finite parts come by default from the Chowla-Selberg closed form,
the eps^0 term of the Poisson rows whose damped sums the cutoff route fits
(a cutoff RegConfig, default_config) on regsum's one kernel. Both routes
run those rows, so the independent checks are the tests' lattice
enumeration of the damped sums, their 30-digit mpmath Bessel series and
the benchmark's scipy oracle.
"""

import math
import sys
from typing import NamedTuple

from .cavity import Cavity2D, Scheme, _check_length, _fmt, _velocity_grid, lorentz_factor
from .observables import (_CLOSED_FORM_BOUND, EnergyMomentum, Route, _boost, _gamma,
                          mass_shell_residual)
from .regsum import (FinitePart, RegConfig, RegMethod, _geometric, _rescaled,
                     cutoff_finite_part, geometric_schedule)
from .reports import DiscrepancyEntry, DiscrepancyReport
from .stress import per_mode_coefficients

__all__ = [
    "FourParts",
    "ShellProbeRow",
    "SubtractionBranch",
    "SubtractionSolution",
    "UnderdeterminedError",
    "default_config",
    "finite_parts",
    "boosted_em_2d",
    "static_limit_report",
    "mass_shell_probe_2d",
    "subtraction_solver_2d",
]


class UnderdeterminedError(ValueError):
    """Too few velocity points to constrain the two finite-part shifts."""


class FourParts(NamedTuple):
    """The four regularized sums every 2D observable is built from."""

    U: FinitePart
    W: FinitePart
    S_omega: FinitePart
    S_k: FinitePart


class ShellProbeRow(NamedTuple):
    result: EnergyMomentum  # the per-mode (E_s, P_s) the residual is formed from
    residual: float
    residual_error: float
    predicted_residual: float  # analytic 4 g^2 v^2 U W


class SubtractionBranch(NamedTuple):
    name: str
    delta_U: float
    delta_W: float
    max_rel_residual: float


class SubtractionSolution(NamedTuple):
    branches: tuple[SubtractionBranch, ...]
    note: str


def _linear(a: FinitePart, b: FinitePart, sign: float, scale: float, roundings: int) -> FinitePart:
    """scale (a + sign b), field by field, with its error.

    Value and fitted coefficients follow exactly (the rule is linear), error and fit residual
    as scale times the sum of a's and b's; the error adds _gamma(roundings) of |value|, the
    roundings not in a's and b's (S_k = S_omega - R: 1; U and W: 0, chowla_selberg counts them).
    """
    value = scale * (a.value + sign * b.value)
    error = scale * (a.error_estimate + b.error_estimate) + _gamma(roundings) * abs(value)
    coeffs = zip(a.fitted_divergent_coeffs, b.fitted_divergent_coeffs)
    return FinitePart(value=value, error_estimate=error,
                      fitted_divergent_coeffs=tuple(scale * (x + sign * y) for x, y in coeffs),
                      fit_residual=scale * (a.fit_residual + b.fit_residual),
                      condition_number=a.condition_number)


_ZETA3 = 1.2020569031595942854  # Apery's constant zeta(3)
_STRIP = 1.5  # half-width a of the strip |Im t| < a on which the trapezoidal rules bound their integrands


def _row_integrals(z: float, a: float, b: float, h: float):
    """Trapezoidal sums, step h, of int_R (a cosh^2 t G_2 - b cosh t G_1) dt and int_R G_2 dt.

    G_p is regsum._geometric at Y = z cosh t. Returns the two sums and, for each,
    its bound on the nodes left out plus its rounding bound (_FourPartsSummand).
    """
    eps = sys.float_info.epsilon
    omega, r, rounding = [], [], [0.0, 0.0]
    i = 0
    while True:
        t = i * h
        cosh_t = math.cosh(t)
        y = z * cosh_t
        g1, g2 = _geometric(y)
        f2, f1 = a * cosh_t * cosh_t * g2, b * cosh_t * g1
        weight = 2.0 if i else 1.0  # the nodes +t and -t; t = 0 once
        omega.append(weight * (f2 - f1))
        r.append(weight * g2)
        rounding[0] += weight * (5.0 * y + 32.0) * (f2 + f1)
        rounding[1] += weight * (5.0 * y + 32.0) * g2
        if not i:
            first = f2 + f1, g2
        elif (f2 + f1 <= 0.125 * eps * first[0] and g2 <= 0.125 * eps * first[1]
              and z * math.sinh(t) >= 2.0 + math.log(2.0) / h):
            ratio = math.exp(h * (2.0 - z * math.sinh(t)))
            tail = 2.0 * ratio / (1.0 - ratio)  # both sides
            return ((h * math.fsum(omega), h * math.fsum(r)),
                    (h * (tail * (f2 + f1) + eps * rounding[0]),
                     h * (tail * g2 + eps * rounding[1])))
        i += 1


def _poisson_rows(eps: float, y: float, reference: tuple[float, float] | None = None):
    """The rows 2 Omega_j and 2 R_j of the 1 x y rectangle's damped sums, and a bound on each sum.

    Node step, node truncation and j truncation as _FourPartsSummand derives
    them. At eps > 0 the rows start with c^2 Omega_0 and R_0, which set the j
    truncation; at eps = 0, where those diverge, they start at j = 1 and the
    truncation is measured against the reference pair.
    """
    eps_mach = sys.float_info.epsilon
    c = math.pi  # the rows' wavenumber step, pi over the unit side
    z = c * eps
    lam = math.cos(_STRIP)
    log_ratio = z + math.log(8.0 / (lam**3 * eps_mach))
    h = 2.0 * math.pi * _STRIP / (log_ratio + math.log1p(math.exp(-log_ratio)))
    h = math.floor(h * 2.0**40) / 2.0**40
    decay = 2.0 * math.exp(-2.0 * math.pi * _STRIP / h)
    decay /= -math.expm1(-2.0 * math.pi * _STRIP / h)  # 2/(e^{2 pi _STRIP/h} - 1)

    if reference is None:
        (omega0, r0), (omega0_err, r0_err) = _row_integrals(z, 1.0, 0.0, h)
        u = 1.0 / (lam * z)
        omega, r = [c * c * omega0], [r0]
        omega_err = c * c * (omega0_err + decay * 2.0 * math.pi * u * u * u)
        r_err = r0_err + decay * math.pi * u * u * u
        reference = abs(omega[0]), r[0]
    else:
        omega, r, omega_err, r_err = [], [], 0.0, 0.0
    theta = 2.0 * math.pi * y
    j = 1
    while True:
        xi = 2.0 * j * y
        zj = j * theta
        g1, g2 = _geometric(zj)
        # E(j Theta) / (1 - e^{-Theta}), times 2 for the terms at -j
        e = (4.0 * math.sqrt(math.pi / (2.0 * zj)) * (1.0 + 3.0 / (8.0 * zj))
             * (1.0 + 1.0 / zj) / -math.expm1(-theta))
        rest_omega = ((eps * c / xi) ** 2 * g2 + c / xi * g1) * e
        rest_r = g2 * e
        if (rest_omega <= 0.125 * eps_mach * reference[0]
                and rest_r <= 0.125 * eps_mach * reference[1]):
            return omega, r, omega_err + rest_omega, r_err + rest_r
        rho = math.hypot(eps, xi)
        big_a, big_b = (eps * c / rho) ** 2, c * (xi / rho) ** 2 / rho
        (omega_j, r_j), (omega_j_err, r_j_err) = _row_integrals(c * rho, big_a, big_b, h)
        u = 1.0 / (lam * c * rho)
        omega.append(2.0 * omega_j)
        r.append(2.0 * r_j)
        omega_err += 2.0 * (omega_j_err + decay * math.pi * u * u * (2.0 * big_a * u + big_b))
        r_err += 2.0 * (r_j_err + decay * math.pi * u * u * u)
        j += 1


class _FourPartsSummand:
    """The 1 x y rectangle's damped sums, y = long/short, in closed form, and their eps^0 terms.

    Every part of the a x b rectangle is g(y)/min(a, b), y = max(a, b)/min(a, b),
    so both routes take their parts on the 1 x y rectangle, representable at
    any scale, and finite_parts scales them back (regsum._rescaled). Its unit side
    carries the rows, wavenumber r = m c with c = pi, and its side y the columns,
    u = n s with s = pi/y; w = sqrt(r^2 + u^2). The two weights are

        S_omega: w/2   S_k: k^2/(2w), k the wavenumber along a,

    and U = (S_omega + S_k)/2, W = (S_omega - S_k)/2 follow by linearity
    (_linear). S_omega is blind to the orientation; S_k alone reads it
    (_s_k). Each damped sum is A eps^-3 + B eps^-2 + C + O(eps^2): Weyl area
    and perimeter terms, no eps^-1 (the corner term is a constant). damped(eps)
    returns S_omega and S_k at one cutoff, chowla_selberg() their eps^0 terms,
    each a FinitePart with the bound on its error; damped_sums gives the fit
    the values.

    Each sum is taken whole: no cap on w, no term enumerated, the same work
    at every aspect ratio (Chowla & Selberg, PNAS 35 (1949) 371, whose closed
    form is the eps^0 term, took the same step). Along the side y, by
    Poisson summation, sum_{n>=1} g(n s) = (1/2s) sum_{j in Z} g^(xi_j) - g(0)/2
    with xi_j = 2 pi j/s = 2 j y and rho_j = sqrt(eps^2 + xi_j^2). With
    K_nu(z) = int_0^inf e^{-z cosh t} cosh(nu t) dt,

        e^{-eps w}/w  ->  2 K_0(r rho) = int_R e^{-r rho cosh t} dt,
        w e^{-eps w}  ->  -d/d eps of the transform (eps r/rho) 2 K_1(r rho) of e^{-eps w}
                       =  int_R [(eps r/rho)^2 cosh^2 t - (xi^2 r/rho^3) cosh t] e^{-r rho cosh t} dt.

    With r = m c the rows are geometric in q = e^{-Y}, Y = Z cosh t, Z = c rho,
    and sum to G_1 = sum m q^m and G_2 = sum m^2 q^m (regsum._geometric). So, the
    n = 0 terms g(0)/2 summing to (c/4) G_1(c eps) over the rows,

        S_omega = (y/4pi) sum_j Omega_j - (c/4) G_1(c eps),
        Omega_j = int_R [A_j cosh^2 t G_2(Y) - B_j cosh t G_1(Y)] dt,
                  A_j = (eps c/rho_j)^2, B_j = xi_j^2 c/rho_j^3,
        R       = sum (r^2/2w) e^{-eps w} = (y c^2/4pi) sum_j R_j - (c/4) G_1(c eps),
        R_j     = int_R G_2(Y) dt,

    and S_k = R when k runs along the rows (a <= b), else S_omega - R.
    Three facts bound the rule, for p = 1, 2:
      (i) G_p(Y) <= p!/Y^{p+1}: sinh u >= u, and Lazarevic's (sinh u/u)^3 >= cosh u;
      (ii) e^Y G_p(Y) falls (the weights m^p e^{-mY} have mean m >= 1);
      (iii) |d ln G_p/d ln Y| <= Y + p + 1 (coth(Y/2) <= 1 + 2/Y, and
            ln G_2 = ln G_1 + ln coth(Y/2) adds 1/sinh Y <= 1/Y).

    Node step: both integrands are analytic on |Im t| < pi/2, where Re Y > 0.
    On Im t = sigma, |sigma| <= _STRIP, |cosh t| <= cosh(Re t) and
    |G_p(Y)| <= G_p(lam Z cosh(Re t)), lam = cos(_STRIP), so by (i) and
    int sech = pi, int sech^3 = pi/2 every line carries at most
    M = 2 pi A/(lam Z)^3 + pi B/(lam Z)^2 of Omega_j and pi/(lam Z)^3 of R_j.
    The trapezoidal rule then errs by at most 2M/(e^{2 pi _STRIP/h} - 1)
    (Trefethen & Weideman, SIAM Rev. 56 (2014) 385, Thm 5.1). h makes that
    eps/4 of e^{-z} times the z -> 0 value of Omega_0 and R_0 (z = c eps;
    c^2 2 pi/z^3 and pi/z^3), which stays below both (the tests check z
    from 1e-3 to 200), then drops to a multiple of 2^-40, so every node
    k h is exact; every j uses it, and each adds its own bound.

    Node truncation: by (ii), cosh(t + d) >= cosh t + d sinh t and
    cosh(t + d) <= e^d cosh t, the i-th node past t weighs at most r^i
    times the one at t, r = e^{h (2 - Z sinh t)}, cosh^2 included. The sum
    stops at the first node whose terms are below eps/8 of the t = 0 ones
    with r <= 1/2, and adds r/(1 - r) times them.

    j truncation: Z_j >= j Theta with Theta = 2 pi y >= 2 pi, rho_j >= xi_j,
    and by (ii) G_p(Y) <= G_p(Z) e^{-Z (cosh t - 1)}, so with K_0 <= K_1 and
    Hankel's K_1(Z) <= sqrt(pi/2Z) e^{-Z} (1 + 3/8Z) (DLMF 10.40.2, 10.40(ii))

        |Omega_j| <= [(eps c/xi_j)^2 G_2(j Theta) + (c/xi_j) G_1(j Theta)] E(j Theta),
        R_j <= G_2(j Theta) E(j Theta),   E(Z) = 2 sqrt(pi/2Z) (1 + 3/8Z)(1 + 1/Z).

    These fall by e^{-Theta} a step, so the terms from j on add at most
    1/(1 - e^{-Theta}) times the one at j; the sum stops at the first j where
    that is below eps/8 of Omega_0 and of R_0 (at eps = 0, chowla_selberg's
    reference), and adds it.

    Rounding, with libm's exp, expm1, cosh and sinh within one ulp: Y
    carries at most 5 eps, so by (iii) G_p carries (5Y + 15) eps; forming
    G_p, the powers of cosh t, A, B and the products add 17 eps. Each term so
    errs by at most (5Y + 32) eps of its magnitude, and math.fsum, the
    prefactors and the subtraction add 6 eps of the magnitudes they combine.
    """

    divergent_powers = (3, 2)

    def __init__(self, a: float, b: float):
        _check_length(a, "side a")
        _check_length(b, "side b")
        self.sides = a, b  # named in messages; a <= b puts k along the rows
        self.aspect = max(a, b) / min(a, b)
        # inside this y and pi/y are float64; damped sums that overflow raise below.
        # y itself may have overflowed, so the message names the range
        if not self.aspect < 1e300:
            raise ValueError(f"rectangle a = {a:g}, b = {b:g}: aspect ratio b/a is outside "
                             "(1e-300, 1e300)")
        self.omega_min = math.hypot(math.pi, math.pi / self.aspect)

    def damped_sums(self, eps: list[float]) -> list[list[float]]:
        """S_omega(eps_i) and S_k(eps_i), whole sums: one column per weight."""
        return [[part.value for part in column] for column in zip(*map(self.damped, eps))]

    def damped(self, eps: float) -> tuple[FinitePart, FinitePart]:
        """S_omega and S_k at one cutoff, each with the bound on its error."""
        y = self.aspect
        z = math.pi * eps
        g1, g2 = _geometric(z)
        try:
            if math.isfinite(y * math.pi * math.pi * g2):
                omega, r, omega_err, r_err = _poisson_rows(eps, y)
                edge = 0.25 * math.pi * g1  # the n = 0 terms
                eps_mach = sys.float_info.epsilon
                edge_err = eps_mach * (5.0 * z + 32.0) * edge
                scale, sums = y / (4.0 * math.pi), []
                for rows, rows_err in ((omega, omega_err), (r, r_err)):
                    main = scale * math.fsum(rows)
                    sums.append(FinitePart(main - edge, scale * rows_err + edge_err
                                           + 6.0 * eps_mach * (abs(main) + edge)))
                    scale *= math.pi * math.pi
                parts = sums[0], self._s_k(*sums)
                if all(math.isfinite(p.value) and math.isfinite(p.error_estimate) for p in parts):
                    return parts
        except OverflowError:
            pass
        a, b = self.sides
        raise ValueError(f"rectangle a = {a:g}, b = {b:g}: the damped sums at cutoff "
                         f"eps = {eps:g} (in units of 1/min(a, b)) are not finite in float64")

    def _s_k(self, s_omega: FinitePart, r: FinitePart) -> FinitePart:
        """S_k from S_omega and R: R if k runs along the rows, else S_omega - R (one rounding)."""
        a, b = self.sides
        return r if a <= b else _linear(s_omega, r, -1.0, 1.0, 1)

    def chowla_selberg(self) -> tuple[FinitePart, FinitePart]:
        """S_omega and S_k of the 1 x y rectangle: the eps^0 terms of the damped sums.

        With c = pi and Theta = 2 pi y, every row j >= 1 is finite at eps = 0
        (A_j = 0, B_j = c/xi_j): Omega_j(0) = -(2c/xi_j) sum_m m K_1(m j Theta)
        and R_j(0) = 2 sum_m m^2 K_0(m j Theta). The divergent j = 0 row and the
        n = 0 edge leave T0 - T1 and T0 - 2 T1, T0 = c/48, T1 = zeta(3) y/(16 pi)
        (Chowla & Selberg's closed form, with m for their n):

            S_omega = T0 - T1 + (y/4pi) sum_{j>=1} 2 Omega_j(0),
            R       = T0 - 2 T1 + (y c^2/4pi) sum_{j>=1} 2 R_j(0);

        the j truncation is measured against |T0| + |T1|.

        Rounding (Higham, Accuracy and Stability, 2nd ed., 3.1): n roundings
        move a value by at most _gamma(n) of it, and at eps = 0 the rows of a
        sum share one sign. T0 passes 2 (pi, the division), T1 5 (zeta(3),
        y = long/short, the product, 16 pi, the division), the Omega sum 7
        (y, 4 pi, y/4pi, each row's fsum and factor h, the outer fsum and the
        factor), the R sum 11 (pi^2 adds 3, its factor 1); each then passes the
        two additions, the division by the shorter side and the halving into
        U and W, 4 more. y's rounding enters T1 and the factor linearly, and
        the rows within the 5 eps of Y and the rounding of B_j that bound each
        term. S_omega - R adds u of S_k.
        """
        y = self.aspect
        t0, t1 = math.pi / 48.0, _ZETA3 * y / (16.0 * math.pi)
        scale = y / (4.0 * math.pi)
        omega, r, omega_err, r_err = _poisson_rows(
            0.0, y, ((t0 + t1) / scale, (t0 + t1) / (scale * math.pi * math.pi)))
        sums = []
        for weight, rows, rows_err, n in ((1.0, omega, omega_err, 7), (2.0, r, r_err, 11)):
            main = scale * math.fsum(rows)
            sums.append(FinitePart(t0 - weight * t1 + main, scale * rows_err + _gamma(6) * t0
                                   + _gamma(9) * weight * t1 + _gamma(n + 4) * abs(main)))
            scale *= math.pi * math.pi
        return sums[0], self._s_k(*sums)


def default_config() -> RegConfig:
    """The rectangles' cutoff cross-check schedule, x from 0.25 to 0.05.

    finite_parts uses the Chowla-Selberg closed form unless handed a config;
    this one routes it through the exponential-cutoff fit instead.
    """
    return RegConfig(RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule(hi=0.25, lo=0.05))


def finite_parts(cavity: Cavity2D, config: RegConfig = RegConfig(RegMethod.ZETA_EXACT)) -> FourParts:
    """U, W, S_omega, S_k of the rectangle by the route the config names.

    ZETA_EXACT, the default, gives the Chowla-Selberg closed form:
    the eps^0 term of the Poisson rows whose damped sums S_omega and S_k a
    cutoff config fits, on one schedule. Both routes work on the 1 x y
    rectangle, y = long/short, and divide by the shorter side, so S_omega(a, b)
    = S_omega(b, a) bit for bit on either. Either way U = (S_omega + S_k)/2 and
    W = (S_omega - S_k)/2, so both identities hold by construction, bit for
    bit, and the errors of all four parts correlate. The tests check the rows
    by lattice enumeration and a 30-digit Bessel series; the benchmark, scipy.

    Raises ValueError for any other method, for b/a outside (1e-300, 1e300),
    when a damped sum is not finite in float64, and, on both routes alike,
    when a part or its square is not.
    """
    a, b = cavity.proper_length_x, cavity.proper_length_y
    summand = _FourPartsSummand(a, b)
    if config.method is RegMethod.ZETA_EXACT:
        parts = summand.chowla_selberg()
    elif config.method is RegMethod.EXPONENTIAL_CUTOFF:
        parts = cutoff_finite_part(summand, config)
    else:
        raise ValueError(f"rect2d finite parts have no {config.method.value} route (use zeta or cutoff)")
    s_omega, s_k = (_rescaled(part, min(a, b), summand.divergent_powers) for part in parts)
    for name, part in (("S_omega", s_omega), ("S_k", s_k)):
        # Every observable squares the parts (E^2 - P^2 - E_m^2); U and W are
        # no larger in magnitude than the larger of these two.
        if not (math.isfinite(part.value * part.value) and math.isfinite(part.error_estimate)):
            raise ValueError(f"rectangle a = {a:g}, b = {b:g}: finite part {name} = "
                             f"{part.value:g} or its square is not finite in float64")
    return FourParts(U=_linear(s_omega, s_k, 1.0, 0.5, 0), W=_linear(s_omega, s_k, -1.0, 0.5, 0),
                     S_omega=s_omega, S_k=s_k)


def _boost_2d(parts: FourParts, v: float, route: Route) -> EnergyMomentum:
    """Lab-frame (E_s, P_s) at velocity v from the rectangle's parts, by the chosen route.

    The per-mode route is the boost law (observables._boost) on U and W. The
    grouped route, not that law, puts c_E on S_omega + S_k and c_P/2 on
    S_omega - S_k. Its columns are |c_E| and |c_P/2| times the parts' errors
    plus _gamma(8) of |S_omega| + |S_k| (the coefficients' 6 roundings, the
    sum or difference and the product), plus 2^-1074 (1 + |S_omega| + |S_k|)
    below the normal range.
    """
    ce, cp = coefficients = per_mode_coefficients(Scheme.LORENTZ_EXACT, v)
    if route is Route.PER_MODE:
        return _boost(parts.U, parts.W, coefficients, _CLOSED_FORM_BOUND, v, route)
    if route is not Route.GROUPED:
        raise ValueError(f"the rectangle has no {route.value} route (use per-mode or grouped)")
    energy = ce * (parts.S_omega.value + parts.S_k.value)  # gamma^2(1+v^2) on S_omega + S_k
    g2v = cp / 2.0
    momentum = g2v * (parts.S_omega.value - parts.S_k.value)
    magnitude = abs(parts.S_omega.value) + abs(parts.S_k.value)
    size = parts.S_omega.error_estimate + parts.S_k.error_estimate + _gamma(8) * magnitude
    tiny = 2.0**-1074 * (1.0 + magnitude)
    return EnergyMomentum(velocity=v, route=route, energy=energy, momentum=momentum,
                          energy_error=ce * size + tiny, momentum_error=abs(g2v) * size + tiny)


def boosted_em_2d(cavity: Cavity2D, route: Route = Route.PER_MODE) -> EnergyMomentum:
    """Lab-frame (E_s, P_s) of the moving rectangle by the chosen route."""
    return _boost_2d(finite_parts(cavity), cavity.velocity, route)


def static_limit_report(cavity: Cavity2D) -> DiscrepancyReport:
    """Quantifies the grouped route's failure of its own v = 0 limit."""
    parts = finite_parts(cavity)
    grouped = _boost_2d(parts, 0.0, Route.GROUPED)
    per_mode = _boost_2d(parts, 0.0, Route.PER_MODE)
    entries = (
        DiscrepancyEntry("E_s(v=0)", grouped.energy, parts.S_omega.value),
        DiscrepancyEntry("E_s(v=0) per-mode", per_mode.energy, parts.S_omega.value),
    )
    return DiscrepancyReport(
        title=(f"static limit of the grouped 2D route, a={_fmt(cavity.proper_length_x)}, "
               f"b={_fmt(cavity.proper_length_y)}"),
        label_a="route value at v = 0",
        label_b="rest-frame energy FP[sum w/2]",
        entries=entries,
        note=(
            "the grouped closed form misses its own static limit by the finite "
            f"amount FP[sum k^2/(2w)] = {_fmt(parts.S_k.value)}; the per-mode route "
            "reproduces it exactly (U + W = S_omega by linearity)"
        ),
    )


def mass_shell_probe_2d(cavity: Cavity2D, v_grid) -> tuple[ShellProbeRow, ...]:
    """Per-mode shell residual E^2 - P^2 - E_m^2 at each distinct velocity of the grid."""
    parts = finite_parts(cavity)
    e_m, e_m_err = parts.S_omega.value, parts.S_omega.error_estimate
    rows = []
    for v in _velocity_grid(v_grid):
        res = _boost_2d(parts, v, Route.PER_MODE)
        residual = mass_shell_residual(res, e_m)
        err = (2.0 * abs(res.energy) * res.energy_error
               + 2.0 * abs(res.momentum) * res.momentum_error + 2.0 * abs(e_m) * e_m_err)
        # 2 (gamma^2 (1 + v^2) - 1) U W, with the 2 gamma^2 v^2 that cancels in it formed directly
        gv = lorentz_factor(v) * v
        predicted = 4.0 * gv * gv * parts.U.value * parts.W.value
        rows.append(ShellProbeRow(res, residual, err, predicted))
    return tuple(rows)


def subtraction_solver_2d(cavity: Cavity2D, v_grid) -> SubtractionSolution:
    """Finite-part shifts (U0+dU, W0+dW) that restore the shell on the grid.

    The residual is 2(gamma^2(1+v^2)-1)(U0+dU)(W0+dW) at every grid point,
    so demanding zero for all v forces the product to vanish: the solution
    manifold is the pair of branches dW = -W0 and dU = -U0. Each branch is
    evaluated on the grid and reported with its worst post-shift residual
    relative to the shifted rest energy squared.
    """
    nonzero = [v for v in _velocity_grid(v_grid) if v != 0.0]
    if len(nonzero) < 3:
        raise UnderdeterminedError(
            f"need >= 3 distinct nonzero velocities to constrain two shifts, "
            f"got {len(nonzero)}"
        )
    parts = finite_parts(cavity)
    u0 = parts.U.value
    w0 = parts.W.value

    def branch(name: str, du: float, dw: float) -> SubtractionBranch:
        u = u0 + du
        w = w0 + dw
        e_m = u + w
        worst = 0.0
        for v in nonzero:
            d2 = (1.0 - v) / (1.0 + v)  # (c_E u + w)^2 - (c_P u)^2, as c_E -+ c_P = D^(+-2)
            residual = (d2 * u + w) * (u / d2 + w) - e_m**2
            worst = max(worst, abs(residual) / max(e_m**2, 1e-300))
        return SubtractionBranch(name=name, delta_U=du, delta_W=dw, max_rel_residual=worst)

    branches = (
        branch("zero-transverse-part", 0.0, -w0),
        branch("zero-longitudinal-part", -u0, 0.0),
    )
    note = (
        "shell-for-all-v forces (U0+dU)(W0+dW) = 0; the solution manifold is "
        f"the union of the two branches above (U0 = {_fmt(u0)}, W0 = {_fmt(w0)})"
    )
    return SubtractionSolution(branches=branches, note=note)
