"""Frame-dependent Casimir energy and momentum of the 1D cavity.

Two routes everywhere: the closed forms each scheme's algebra prints, and a
per-mode numeric route that multiplies velocity coefficients, integrated
from the real T00 and T01 densities of one mode (stress.coefficient_fits),
by the regularized static energy. The numeric route rests on the per-mode
proportionality to w_n, which verify checks, so one mode gives the
coefficients and regularization is confined to the single static sum;
velocity-dependent sums are never regularized directly. Everything here
runs on `math`; nonrel_fit uses the divergence fit's float least squares.

E/m0 and P/m0 depend on v alone and m0(L) = m0(1)/L, so the coefficients
and every regularized m0 are computed on the unit cavity and L only scales.
"""

import enum
import math
import sys
from typing import NamedTuple

from .cavity import Cavity1D, Scheme, _check_length, nonrelativistic_flag
from .regsum import (
    FitError,
    Linear1DSummand,
    RegConfig,
    RegMethod,
    _PowerFit,
    abel_plana_m0,
    cutoff_finite_part,
    zeta_linear_sum,
)
from .reports import DiscrepancyEntry, DiscrepancyReport
from .stress import coefficient_fits
from . import stress

__all__ = [
    "Route",
    "EnergyMomentum",
    "SweepRow",
    "SweepTable",
    "RouteComparison",
    "NonRelFit",
    "static_m0",
    "comoving_energy",
    "closed_form_coefficients",
    "boosted_em",
    "route_comparison",
    "mass_shell_residual",
    "shell_residual_warning",
    "nonrel_fit",
    "inertia_ratios",
    "sweep",
    "em_plate_energy_per_area",
    "lab_prior_discrepancy_report",
]

ROUTE_AGREEMENT_RTOL = 1e-8  # documented tolerance for lorentz / galileo-comoving
_NONREL_RESIDUAL_LIMIT = 1e-6  # worst residual nonrel_fit accepts


class Route(enum.Enum):
    CLOSED_FORM = "closed-form"
    PER_MODE_NUMERIC = "per-mode"


class EnergyMomentum(NamedTuple):
    energy: float
    momentum: float
    scheme: Scheme
    velocity: float
    route: Route


class SweepRow(NamedTuple):
    velocity: float
    energy: float
    momentum: float
    shell_residual: float
    energy_point_particle: float
    momentum_point_particle: float
    route: Route


class SweepTable(NamedTuple):
    rows: tuple[SweepRow, ...]
    scheme: Scheme
    proper_length: float
    method: RegMethod
    warnings: tuple[str, ...] = ()


class RouteComparison(NamedTuple):
    closed: EnergyMomentum
    numeric: EnergyMomentum
    rel_diff_energy: float
    rel_diff_momentum: float
    agree: bool
    note: str = ""


class NonRelFit(NamedTuple):
    """Small-velocity polynomial coefficients of E(v)/m0 (even) and P(v)/m0 (odd)."""

    energy_coeffs: tuple[float, ...]    # v^0, v^2, v^4, ...
    momentum_coeffs: tuple[float, ...]  # v^1, v^3, ...
    energy_residual: float
    momentum_residual: float


def static_m0(proper_length: float, config: RegConfig | None = None) -> float:
    """Regularized static cavity energy m0(L) = -pi/(24 L) by the chosen route."""
    Cavity1D(proper_length)  # validates L
    if config is None or config.method is RegMethod.ZETA_EXACT:
        # m0 = (1/2) sum n pi/L -> (pi/2L) * (-1/12)
        return 0.5 * zeta_linear_sum(math.pi / proper_length)
    if config.method is RegMethod.ABEL_PLANA:
        return abel_plana_m0(proper_length)
    fp = cutoff_finite_part(Linear1DSummand(1.0, weight=0.5), config)
    if not fp.error_estimate < abs(fp.value):  # m0 = -pi/24 never vanishes: no digit is left
        raise FitError(f"cutoff m0 = {fp.value:.3g} has a stated error of {fp.error_estimate:.3g}")
    return fp.value / proper_length


def comoving_energy(scheme: Scheme, cavity: Cavity1D, config: RegConfig | None = None) -> float:
    """Vacuum energy in the cavity rest frame under the given scheme."""
    m0 = static_m0(cavity.proper_length, config)
    if scheme is Scheme.GALILEO_LAB_PRIOR:
        return (1.0 - cavity.velocity**2) * m0
    return m0


def closed_form_coefficients(scheme: Scheme, velocity: float) -> tuple[float, float]:
    """(E/m0, P/m0) closed forms as printed by each scheme's algebra.

    For galileo-lab these are (1 + 2v^2 + v^4, v + v^3), which agree with
    the quadrature-derived per-mode law only through O(v^2) in energy and
    differ by a factor ~2 in momentum; see lab_prior_discrepancy_report.
    """
    v = velocity
    if scheme is Scheme.GALILEO_LAB_PRIOR:
        return 1.0 + 2.0 * v * v + v**4, v + v**3
    if scheme is Scheme.GALILEO_COMOVING_PRIOR:
        return 1.0 + v * v / 2.0, v
    return (1.0 + v * v) / (1.0 - v * v), 2.0 * v / (1.0 - v * v)


def _coefficients(scheme: Scheme, velocities, route: Route) -> list[tuple[float, float]]:
    """(E/m0, P/m0) at each velocity by the route: printed formulas or per-mode quadrature."""
    if route is Route.CLOSED_FORM:
        return [closed_form_coefficients(scheme, v) for v in velocities]
    return list(coefficient_fits(scheme, velocities))  # each fit is its (c_E, c_P)


def boosted_em(
    scheme: Scheme,
    cavity: Cavity1D,
    route: Route = Route.PER_MODE_NUMERIC,
    config: RegConfig | None = None,
    *,
    m0: float | None = None,
) -> EnergyMomentum:
    """Lab-frame vacuum energy and momentum of the moving cavity.

    CLOSED_FORM evaluates the scheme's printed formulas; PER_MODE_NUMERIC
    multiplies the quadrature-extracted coefficients by the regularized m0.
    A caller that already holds static_m0(L, config) passes it as m0.
    """
    if m0 is None:
        m0 = static_m0(cavity.proper_length, config)
    [(c_e, c_p)] = _coefficients(scheme, (cavity.velocity,), route)
    return EnergyMomentum(
        energy=c_e * m0, momentum=c_p * m0, scheme=scheme, velocity=cavity.velocity, route=route
    )


def route_comparison(
    scheme: Scheme, cavity: Cavity1D, config: RegConfig | None = None
) -> RouteComparison:
    """Both routes side by side; disagreement is reported, never hidden."""
    m0 = static_m0(cavity.proper_length, config)
    closed = boosted_em(scheme, cavity, Route.CLOSED_FORM, config, m0=m0)
    numeric = boosted_em(scheme, cavity, Route.PER_MODE_NUMERIC, config, m0=m0)
    scale_e = max(abs(closed.energy), abs(numeric.energy), 1e-300)
    # momentum vanishes at v = 0; measure its disagreement on the overall
    # energy-momentum scale so quadrature noise around zero is not inflated
    scale_p = max(abs(closed.momentum), abs(numeric.momentum), scale_e)
    de = abs(closed.energy - numeric.energy) / scale_e
    dp = abs(closed.momentum - numeric.momentum) / scale_p
    note = ""
    if scheme is Scheme.GALILEO_LAB_PRIOR:
        note = (
            "galileo-lab closed forms agree with quadrature only through O(v^2) "
            "in energy and carry a leading factor-2 momentum mismatch; "
            "agreement is not asserted for this scheme"
        )
        agree = True
    else:
        agree = de <= ROUTE_AGREEMENT_RTOL and dp <= ROUTE_AGREEMENT_RTOL
    return RouteComparison(
        closed=closed, numeric=numeric, rel_diff_energy=de, rel_diff_momentum=dp,
        agree=agree, note=note,
    )


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
    (records with energy, momentum, route and velocity: EnergyMomentum,
    SweepRow, or rect2d's results and shell probe rows with their rest energy
    E_m as m0). rest names m0 in the message.
    """
    largest = max(abs(em.energy) for em in ems)
    if m0 * m0 < sys.float_info.min:
        cause = (f"{rest}^2 underflows float64 (to {m0 * m0:.12g}), so E^2-P^2-{rest}^2 is not "
                 "representable")
    elif largest * largest == math.inf:
        cause = (f"E^2 overflows float64 (|E| up to {largest:.12g}), so E^2-P^2-{rest}^2 is formed "
                 f"as (E-P)(E+P)-{rest}^2")
    else:
        return ""

    def relative(em) -> float:
        return (em.energy / m0) ** 2 - (em.momentum / m0) ** 2 - 1.0

    worst = max(ems, key=lambda em: abs(relative(em)))
    return (f"{cause}; relative residual (E/{rest})^2-(P/{rest})^2-1 = {relative(worst):.12g} "
            f"({worst.route.value}, v = {worst.velocity:.12g})")


def nonrel_fit(
    scheme: Scheme,
    v_max: float,
    degree: int,
    *,
    n_samples: int = 16,
) -> NonRelFit:
    """Least-squares small-velocity expansion of the per-mode-numeric route.

    Fits the per-mode coefficients c_E = E/m0 and c_P = P/m0 themselves, so
    no regularized m0 enters. Even powers only for E/m0 and odd only for
    P/m0 (the parity the exact expressions obey). Raises FitError when the
    worst residual exceeds 1e-6, which flags a degree too low for the
    requested window, and when a design's condition number exceeds 1e12
    (a degree too high for the samples).
    """
    if v_max > 0.3:
        raise ValueError("v_max must be <= 0.3 for a non-relativistic fit")
    if not v_max > 0.0:
        raise ValueError("v_max must be > 0 for a non-relativistic fit")
    if degree < 2:
        raise ValueError("degree must be >= 2")
    if n_samples < 12:
        raise ValueError("need at least 12 sample velocities")
    # np.linspace(v_max / n_samples, v_max, n_samples) in floats
    start = v_max / n_samples
    step = (v_max - start) / (n_samples - 1)
    vs = [i * step + start for i in range(n_samples - 1)] + [v_max]
    e_over, p_over = zip(*_coefficients(scheme, vs, Route.PER_MODE_NUMERIC))

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


def inertia_ratios(
    scheme: Scheme = Scheme.LORENTZ_EXACT, *, v_max: float = 0.2
) -> tuple[float, float]:
    """The two candidate inertia/energy ratios at v = 0, reported side by side.

    Returns (dE/d(v^2/2) / m0, dP/dv / m0). For the exact treatment these
    are 4 and 2; the package reports both without endorsing either as "the"
    inertia.
    """
    fit = nonrel_fit(scheme, v_max, degree=6)
    return 2.0 * fit.energy_coeffs[1], fit.momentum_coeffs[0]


def sweep(
    scheme: Scheme,
    proper_length: float,
    v_grid,
    route: Route = Route.CLOSED_FORM,
    config: RegConfig | None = None,
) -> SweepTable:
    """Velocity sweep with point-particle reference columns m0*gamma(, v), sorted by v."""
    grid = sorted({float(v) for v in v_grid})
    if not grid:
        raise ValueError("velocity grid is empty")
    if any(abs(v) >= 1.0 for v in grid):
        raise ValueError("all grid velocities must satisfy |v| < 1")
    warnings: list[str] = []
    if scheme.is_galilean and any(abs(v) > 0.5 for v in grid):
        dropped = [v for v in grid if abs(v) > 0.5]
        grid = [v for v in grid if abs(v) <= 0.5]
        warnings.append(
            f"{scheme.label}: grid capped at |v| <= 0.5 "
            f"(dropped {len(dropped)} point(s); non-relativistic scheme)"
        )
        if not grid:
            raise ValueError("velocity grid empty after capping Galilean scheme at 0.5")
    flag = nonrelativistic_flag(scheme, max(abs(v) for v in grid))
    if flag:
        warnings.append(flag)
    m0 = static_m0(proper_length, config)
    method = config.method if config is not None else RegMethod.ZETA_EXACT
    grid = [Cavity1D(proper_length, v).velocity for v in grid]  # validates L and each v

    def row(v: float, c_e: float, c_p: float) -> SweepRow:
        em = EnergyMomentum(c_e * m0, c_p * m0, scheme, v, route)
        gamma = 1.0 / math.sqrt(1.0 - v * v)
        return SweepRow(
            velocity=v,
            energy=em.energy,
            momentum=em.momentum,
            shell_residual=mass_shell_residual(em, m0),
            energy_point_particle=m0 * gamma,
            momentum_point_particle=m0 * gamma * v,
            route=route,
        )

    rows = tuple(row(v, *c) for v, c in zip(grid, _coefficients(scheme, grid, route)))
    shell = shell_residual_warning(rows, m0)
    if shell:
        warnings.append(shell)
    return SweepTable(rows=rows, scheme=scheme, proper_length=proper_length, method=method,
                      warnings=tuple(warnings))


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


def lab_prior_discrepancy_report(cavity: Cavity1D, *, m0: float | None = None) -> DiscrepancyReport:
    """galileo-lab closed forms vs the quadrature-derived per-mode law (m0 by zeta unless given)."""
    v = cavity.velocity
    c_closed = closed_form_coefficients(Scheme.GALILEO_LAB_PRIOR, v)
    c_quad = stress.per_mode_coefficients(Scheme.GALILEO_LAB_PRIOR, v)
    if m0 is None:
        m0 = static_m0(cavity.proper_length)
    entries = (
        DiscrepancyEntry("E/m0 coefficient", c_closed[0], c_quad[0]),
        DiscrepancyEntry("P/m0 coefficient", c_closed[1], c_quad[1]),
        DiscrepancyEntry("E", c_closed[0] * m0, c_quad[0] * m0),
        DiscrepancyEntry("P", c_closed[1] * m0, c_quad[1] * m0),
    )
    return DiscrepancyReport(
        title=f"galileo-lab routes at v = {v:g}",
        label_a="closed form (1 + 2v^2 + v^4, v + v^3)",
        label_b="per-mode quadrature ((1+v^2)/(1-v^2), 2v/(1-v^2))",
        entries=entries,
        note="energies agree through O(v^2) only; momenta differ by a factor ~2 at leading order",
    )
