"""Frame-dependent Casimir energy and momentum: the 1D cavity's, and the boost law of both.

One boost law for every cavity (_boost): a cavity's static parts U and W
give E = c_E U + W and P = c_P U, with the 1D cavity the case (U, W) =
(m0, 0) and the rectangle's per-mode route its own U and W. Two 1D routes
supply (c_E, c_P): the closed forms each scheme's algebra prints, and a
per-mode numeric route, integrated from the real T00 and T01 densities of
one mode (stress.coefficient_fits). The numeric route rests on the per-mode
proportionality to w_n, which verify checks, so one mode gives the
coefficients and regularization is confined to the single static sum;
velocity-dependent sums are never regularized directly. Everything here
runs on `math`; nonrel_fit uses the divergence fit's float least squares.

E/m0 and P/m0 depend on v alone and m0(L) = m0(1)/L, so the coefficients
and the cutoff fit run on the unit cavity and L only scales them; zeta and
Abel-Plana form m0 with pi/L, which may differ from m0(1)/L by rounding.
"""

import enum
import math
import sys
from typing import NamedTuple

from .cavity import (NONREL_VELOCITY_LIMIT, Cavity1D, Scheme, _check_length, _fmt,
                     _velocity_grid, lorentz_factor, nonrelativistic_flag)
from .regsum import (
    FinitePart,
    FitError,
    Linear1DSummand,
    RegConfig,
    RegMethod,
    _PowerFit,
    _rescaled,
    abel_plana_m0,
    cutoff_finite_part,
    zeta_linear_sum,
)
from .reports import DiscrepancyEntry, DiscrepancyReport
from .stress import _FIT_BOUND, coefficient_fits, per_mode_coefficients

__all__ = [
    "Route",
    "EnergyMomentum",
    "SweepRow",
    "SweepTable",
    "RouteComparison",
    "NonRelFit",
    "static_m0",
    "closed_form_coefficients",
    "boosted_em",
    "route_comparison",
    "mass_shell_residual",
    "shell_residual_warning",
    "nonrel_fit",
    "sweep",
    "em_plate_energy_per_area",
    "lab_prior_discrepancy_report",
]

ROUTE_AGREEMENT_RTOL = 1e-8  # documented tolerance for lorentz / galileo-comoving
_NONREL_RESIDUAL_LIMIT = 1e-6  # worst residual nonrel_fit accepts
_NONREL_SAMPLES = 16  # nonrel_fit's sample velocities
_CLOSED_FORM_BOUND = 6, 1  # (c_E, c_P) in closed form, every scheme's: see _boost
_GALILEAN_CAP = 0.5  # sweep's largest |v| for a Galilean scheme


class Route(enum.Enum):
    """How a result's E and P were formed; the CLI prints the value."""

    CLOSED_FORM = "closed-form"  # 1D: the scheme's printed coefficients on m0
    PER_MODE = "per-mode"        # 1D: the quadrature's on m0; the rectangle: the law on U, W
    GROUPED = "grouped"          # the rectangle: prefactors on FP[sum(w/2 +- k^2/2w)]


class EnergyMomentum(NamedTuple):
    """A moving cavity's lab-frame energy and momentum, each with a bound on its error."""

    velocity: float
    route: Route
    energy: float
    momentum: float
    energy_error: float
    momentum_error: float


class SweepRow(NamedTuple):
    result: EnergyMomentum
    shell_residual: float
    energy_point_particle: float
    momentum_point_particle: float


class SweepTable(NamedTuple):
    rows: tuple[SweepRow, ...]
    warnings: tuple[str, ...] = ()


class RouteComparison(NamedTuple):
    closed: EnergyMomentum
    numeric: EnergyMomentum
    rel_diff_energy: float
    rel_diff_momentum: float
    agree: bool


class NonRelFit(NamedTuple):
    """Small-velocity polynomial coefficients of E(v)/m0 (even) and P(v)/m0 (odd)."""

    energy_coeffs: tuple[float, ...]    # v^0, v^2, v^4, ...
    momentum_coeffs: tuple[float, ...]  # v^1, v^3, ...
    energy_residual: float
    momentum_residual: float


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u/(1 - n u), u = eps/2: n roundings move a value by at most gamma_n of it."""
    u = 0.5 * sys.float_info.epsilon
    return n * u / (1.0 - n * u)


def static_m0(proper_length: float,
              config: RegConfig = RegConfig(RegMethod.ZETA_EXACT)) -> FinitePart:
    """Regularized static cavity energy m0(L) = -pi/(24 L), with a bound on its error.

    zeta rounds 3 times (pi, /L, /12), Abel-Plana 26 with its truncation (abel_plana_m0):
    _gamma of the count of |m0|, plus 2^-1074 below the normal range. The cutoff route moves
    its fit on the unit cavity to L (regsum._rescaled), and refuses one with no digit left.
    """
    Cavity1D(proper_length)  # validates L
    if config.method is RegMethod.ZETA_EXACT:
        # m0 = (1/2) sum n pi/L -> (pi/2L) * (-1/12)
        m0, roundings = 0.5 * zeta_linear_sum(math.pi / proper_length), 3
    elif config.method is RegMethod.ABEL_PLANA:
        m0, roundings = abel_plana_m0(proper_length), 26
    else:
        [fp] = cutoff_finite_part(Linear1DSummand(1.0, weight=0.5), config)
        if not fp.error_estimate < abs(fp.value):  # m0 = -pi/24 never vanishes: no digit is left
            raise FitError(f"cutoff m0 = {fp.value:.3g} has a stated error of "
                           f"{fp.error_estimate:.3g}")
        return _rescaled(fp, proper_length, Linear1DSummand.divergent_powers)
    return FinitePart(m0, _gamma(roundings) * abs(m0) + 2.0**-1074)


def closed_form_coefficients(scheme: Scheme, velocity: float) -> tuple[float, float]:
    """(E/m0, P/m0) closed forms as printed by each scheme's algebra.

    Only galileo-lab prints its own, (1 + 2v^2 + v^4, v + v^3), which agree
    with the quadrature-derived per-mode law only through O(v^2) in energy
    and differ by a factor ~2 in momentum; see lab_prior_discrepancy_report.
    The other schemes print the per-mode law (stress.per_mode_coefficients).
    """
    v = velocity
    if scheme is Scheme.GALILEO_LAB_PRIOR:
        return 1.0 + 2.0 * v * v + v**4, v + v**3
    return per_mode_coefficients(scheme, v)


def _boost(u_part: FinitePart, w_part: FinitePart, coefficients: tuple[float, float],
           bound: tuple[int, int], velocity: float, route: Route) -> EnergyMomentum:
    """The boost law E = c_E U + W, P = c_P U on a cavity's static parts, with error bounds.

    u_part and w_part are U and W, each with a bound on its error: the
    rectangle's finite parts, or the 1D cavity's m0 (static_m0) and a zero W.
    bound is (roundings, floor): each of (c_E, c_P) is within _gamma(roundings)
    of the law's, and c_P within floor 2^-1074 below the normal range. Every
    closed form has (6, 1): the Lorentz c_E = (1 + v^2)/(1 - v^2) passes 2
    roundings above the line, 3 below (cavity._light_cone) and the division,
    c_P = 2v/(1 - v^2) 4; galileo-lab's printed pair, with libm's pow within
    an ulp, 4 and 3, and galileo-comoving's 2 and none. Each column adds the parts' bounds,
    weighted |c_E| and |c_P| (the law is linear in them), and the boost's
    rounding (Higham, Accuracy and Stability, 2nd ed., 2.1 and 3.1): the
    product and the sum add 2, so _gamma(roundings + 2) of |c_E U| + |W| and
    of |c_P U|. Below the normal range each product errs by 2^-1075 and c_P
    by floor 2^-1074 times U, so each column also adds 2^-1074 (1 + floor
    |U|), below half an ulp of any normal column. Raises ValueError unless
    the parts, E and P are finite.
    """
    u, u_err = u_part.value, u_part.error_estimate
    w, w_err = w_part.value, w_part.error_estimate
    (ce, cp), (roundings, floor) = coefficients, bound
    ce_u, cp_u = ce * u, cp * u
    energy, momentum = ce_u + w, cp_u
    if not all(map(math.isfinite, (u, w, energy, momentum))):
        raise ValueError(f"boost at v = {velocity!r}: static parts U = {u!r}, W = {w!r} or "
                         f"energy {energy!r}, momentum {momentum!r} not finite in float64")
    rounding, tiny = _gamma(roundings + 2), 2.0**-1074 * (1.0 + floor * abs(u))
    return EnergyMomentum(
        velocity=velocity, route=route, energy=energy, momentum=momentum,
        energy_error=abs(ce) * u_err + w_err + rounding * (abs(ce_u) + abs(w)) + tiny,
        momentum_error=abs(cp) * u_err + rounding * abs(cp_u) + tiny)


def _boosts_1d(scheme: Scheme, velocities, route: Route, m0: FinitePart) -> list[EnergyMomentum]:
    """The boost law on (U, W) = (m0, 0) at each velocity, with the route's coefficients."""
    if route is Route.CLOSED_FORM:
        pairs = [closed_form_coefficients(scheme, v) for v in velocities]
        bound = _CLOSED_FORM_BOUND
    elif route is Route.PER_MODE:
        pairs, bound = coefficient_fits(scheme, velocities), _FIT_BOUND
    else:
        raise ValueError(f"the 1D cavity has no {route.value} route (use closed-form or per-mode)")
    return [_boost(m0, FinitePart(0.0, 0.0), c, bound, v, route)
            for v, c in zip(velocities, pairs)]


def boosted_em(scheme: Scheme, cavity: Cavity1D, route: Route = Route.PER_MODE, *,
               m0: FinitePart) -> EnergyMomentum:
    """Lab-frame vacuum energy and momentum of the moving cavity.

    CLOSED_FORM evaluates the scheme's printed formulas; PER_MODE
    multiplies the quadrature-extracted coefficients by the regularized m0.
    m0 is static_m0(L, config) of the caller's regulator, whose stated error
    the result's error columns carry.
    """
    [em] = _boosts_1d(scheme, [cavity.velocity], route, m0)
    return em


def route_comparison(
    scheme: Scheme, cavity: Cavity1D, config: RegConfig = RegConfig(RegMethod.ZETA_EXACT)
) -> RouteComparison:
    """Both routes side by side; disagreement is reported, never hidden."""
    m0 = static_m0(cavity.proper_length, config)
    closed = boosted_em(scheme, cavity, Route.CLOSED_FORM, m0=m0)
    numeric = boosted_em(scheme, cavity, Route.PER_MODE, m0=m0)
    scale_e = max(abs(closed.energy), abs(numeric.energy), 1e-300)
    # momentum vanishes at v = 0; measure its disagreement on the overall
    # energy-momentum scale so quadrature noise around zero is not inflated
    scale_p = max(abs(closed.momentum), abs(numeric.momentum), scale_e)
    de = abs(closed.energy - numeric.energy) / scale_e
    dp = abs(closed.momentum - numeric.momentum) / scale_p
    # galileo-lab's routes differ by construction: lab_prior_discrepancy_report states by how much
    agree = scheme is Scheme.GALILEO_LAB_PRIOR or (de <= ROUTE_AGREEMENT_RTOL
                                                   and dp <= ROUTE_AGREEMENT_RTOL)
    return RouteComparison(closed=closed, numeric=numeric, rel_diff_energy=de, rel_diff_momentum=dp,
                           agree=agree)


def mass_shell_residual(em: EnergyMomentum, m0: float) -> float:
    """E^2 - P^2 - m0^2; zero iff the boosted pair stays on the static shell.

    Where E^2 leaves float64 (|E| > 1.3e154: L below about 1e-149 with |v|
    near 1), Python's float power raises OverflowError; the same difference
    is then formed as (E - P)(E + P) - m0^2, representable there in 1D (on
    the rectangle, whose results rect2d passes with m0 = E_m, the product
    may pass 1.8e308 and read +-inf).
    """
    try:
        return em.energy**2 - em.momentum**2 - m0**2
    except OverflowError:
        return (em.energy - em.momentum) * (em.energy + em.momentum) - m0**2


def shell_residual_warning(ems, m0: float, rest: str = "m0") -> str:
    """Empty unless E^2 - P^2 - m0^2 is not the plain float64 shell check.

    Where m0^2 underflows (L above about 1e154) the residual checks nothing;
    where some E^2 overflows (|E| above about 1.3e154) mass_shell_residual
    forms it as (E - P)(E + P) - m0^2. The warning says which and gives the
    relative residual (E/m0)^2 - (P/m0)^2 - 1 of largest magnitude over ems
    (EnergyMomentum results; the rectangle's with its rest energy E_m as m0).
    rest names m0 in the message.
    """
    largest = max(abs(em.energy) for em in ems)
    if m0 * m0 < sys.float_info.min:
        cause = (f"{rest}^2 underflows float64 (to {_fmt(m0 * m0)}), so E^2-P^2-{rest}^2 is not "
                 "representable")
    elif largest * largest == math.inf:
        cause = (f"E^2 overflows float64 (|E| up to {_fmt(largest)}), so E^2-P^2-{rest}^2 is "
                 f"formed as (E-P)(E+P)-{rest}^2")
    else:
        return ""

    def relative(em) -> float:
        return (em.energy / m0) ** 2 - (em.momentum / m0) ** 2 - 1.0

    worst = max(ems, key=lambda em: abs(relative(em)))
    return (f"{cause}; relative residual (E/{rest})^2-(P/{rest})^2-1 = {_fmt(relative(worst))} "
            f"({worst.route.value}, v = {_fmt(worst.velocity)})")


def nonrel_fit(scheme: Scheme, v_max: float, degree: int) -> NonRelFit:
    """Least-squares small-velocity expansion of the per-mode-numeric route.

    Fits the per-mode coefficients c_E = E/m0 and c_P = P/m0 themselves, so
    no regularized m0 enters, at 16 evenly spaced velocities on (0, v_max].
    Even powers only for E/m0 and odd only for P/m0 (the parity the exact
    expressions obey). Raises FitError when the worst residual exceeds
    1e-6, which flags a degree too low for the requested window, and when a
    design's condition number exceeds 1e12 (a degree too high for the
    samples).
    """
    if v_max > NONREL_VELOCITY_LIMIT:
        raise ValueError(f"v_max must be <= {NONREL_VELOCITY_LIMIT} for a non-relativistic fit")
    if not v_max > 0.0:
        raise ValueError("v_max must be > 0 for a non-relativistic fit")
    if degree < 2:
        raise ValueError("degree must be >= 2")
    # np.linspace(v_max / 16, v_max, 16) in floats
    start = v_max / _NONREL_SAMPLES
    step = (v_max - start) / (_NONREL_SAMPLES - 1)
    vs = [i * step + start for i in range(_NONREL_SAMPLES - 1)] + [v_max]
    e_over, p_over = zip(*coefficient_fits(scheme, vs))

    def fit(powers, data):
        power_fit = _PowerFit(vs, powers)
        coeffs = power_fit.solve(data)
        resid = max(map(abs, power_fit.residuals(coeffs, data)))
        return tuple(c / s for c, s in zip(coeffs, power_fit.scale)), resid

    e_coeffs, e_res = fit(range(0, degree + 1, 2), e_over)
    p_coeffs, p_res = fit(range(1, degree + 1, 2), p_over)
    if max(e_res, p_res) > _NONREL_RESIDUAL_LIMIT:
        raise FitError(
            f"non-relativistic fit residual {max(e_res, p_res):.3e} exceeds "
            f"{_NONREL_RESIDUAL_LIMIT:g}; raise the degree or shrink v_max"
        )
    return NonRelFit(e_coeffs, p_coeffs, e_res, p_res)


def sweep(scheme: Scheme, proper_length: float, v_grid, route: Route = Route.CLOSED_FORM,
          config: RegConfig = RegConfig(RegMethod.ZETA_EXACT)) -> SweepTable:
    """Velocity sweep with point-particle reference columns m0*gamma(, v), sorted by v."""
    grid = _velocity_grid(v_grid)
    if not grid:
        raise ValueError("velocity grid is empty")
    warnings: list[str] = []
    dropped = [v for v in grid if abs(v) > _GALILEAN_CAP] if scheme.is_galilean else []
    if dropped:
        grid = [v for v in grid if abs(v) <= _GALILEAN_CAP]
        warnings.append(f"{scheme.value}: grid capped at |v| <= {_GALILEAN_CAP} "
                        f"(dropped {len(dropped)} point(s); non-relativistic scheme)")
        if not grid:
            raise ValueError("velocity grid empty after capping Galilean scheme at "
                             f"{_GALILEAN_CAP}")
    flag = nonrelativistic_flag(scheme, max(abs(v) for v in grid))
    if flag:
        warnings.append(flag)
    m0 = static_m0(proper_length, config)

    def row(em: EnergyMomentum) -> SweepRow:
        gamma = lorentz_factor(em.velocity)
        return SweepRow(result=em, shell_residual=mass_shell_residual(em, m0.value),
                        energy_point_particle=m0.value * gamma,
                        momentum_point_particle=m0.value * gamma * em.velocity)

    rows = tuple(map(row, _boosts_1d(scheme, grid, route, m0)))
    shell = shell_residual_warning([r.result for r in rows], m0.value)
    if shell:
        warnings.append(shell)
    return SweepTable(rows=rows, warnings=tuple(warnings))


def em_plate_energy_per_area(separation: float) -> tuple[float, float]:
    """Parallel-plate vacuum energy per unit area and its separation derivative.

    Returns (-pi^2/(720 a^3), +3 pi^2/(720 a^4)); the positive derivative is
    what makes the plates attract. A separation whose energy or slope is not
    finite and nonzero in float64 is rejected.
    """
    _check_length(separation, "plate separation a")
    try:
        energy = -math.pi**2 / (720.0 * separation**3)
        slope = 3.0 * math.pi**2 / (720.0 * separation**4)
    except (OverflowError, ZeroDivisionError):  # a**4 overflows, or a denominator is 0
        energy = slope = math.inf
    if not (math.isfinite(energy) and math.isfinite(slope) and energy and slope):
        raise ValueError(f"plate separation a = {separation!r} puts the energy per area or its "
                         f"slope outside the float64 range")
    return energy, slope


def lab_prior_discrepancy_report(cavity: Cavity1D, m0: FinitePart) -> DiscrepancyReport:
    """galileo-lab closed forms vs the quadrature-derived per-mode law, at rest energy m0."""
    v = cavity.velocity
    c_closed = closed_form_coefficients(Scheme.GALILEO_LAB_PRIOR, v)
    c_quad = per_mode_coefficients(Scheme.GALILEO_LAB_PRIOR, v)
    closed, quad = (_boost(m0, FinitePart(0.0, 0.0), c, _CLOSED_FORM_BOUND, v, route)
                    for c, route in ((c_closed, Route.CLOSED_FORM), (c_quad, Route.PER_MODE)))
    entries = (
        DiscrepancyEntry("E/m0 coefficient", c_closed[0], c_quad[0]),
        DiscrepancyEntry("P/m0 coefficient", c_closed[1], c_quad[1]),
        DiscrepancyEntry("E", closed.energy, quad.energy),
        DiscrepancyEntry("P", closed.momentum, quad.momentum),
    )
    return DiscrepancyReport(
        title=f"galileo-lab routes at v = {_fmt(v)}",
        label_a="closed form (1 + 2v^2 + v^4, v + v^3)",
        label_b="per-mode quadrature ((1+v^2)/(1-v^2), 2v/(1-v^2))",
        entries=entries,
        note="energies agree through O(v^2) only; momenta differ by a factor ~2 at leading order",
    )
