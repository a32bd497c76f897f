"""Boosted rectangular (2+1D) cavity: regularized sums and the shell probe.

The per-mode quadrature law for the moving rectangle gives

    E_s = gamma^2 (1 + v^2) U + W        U = FP[ sum (w^2 + k^2) / (4 w) ]
    P_s = 2 gamma^2 v U                  W = FP[ sum p^2 / (4 w) ]

so the mass-shell residual has the closed algebraic form

    E_s^2 - P_s^2 - E_m^2 = 2 (gamma^2 (1 + v^2) - 1) U W,

which vanishes for all v only if one of the two finite parts is driven to
zero; the subtraction solver reports exactly those two branches. A second,
"grouped" route evaluates the boost prefactors on the regrouped sums
FP[ sum (w/2 +- k^2/(2w)) ]; it fails its own static limit by the finite
amount FP[ sum k^2/(2w) ] and is reported side by side, never corrected.

The four finite parts come by default from the Chowla-Selberg closed form
(the Epstein-zeta value, exponentially convergent, a few milliseconds at
any aspect ratio). The exponential-cutoff fit stays available through a
cutoff RegConfig (default_config) as the independent cross-check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .cavity import Cavity2D, Scheme, _check_length
from .quadrature import gauss_legendre
from .regsum import FinitePart, RegConfig, RegMethod, cutoff_finite_part
from .reports import DiscrepancyEntry, DiscrepancyReport
from .stress import per_mode_coefficients

__all__ = [
    "Route2D",
    "FourParts",
    "Rect2DResult",
    "ShellProbeRow",
    "SubtractionBranch",
    "SubtractionSolution",
    "UnderdeterminedError",
    "default_config",
    "static_energy_2d",
    "finite_parts",
    "boosted_em_2d",
    "static_limit_report",
    "mass_shell_probe_2d",
    "subtraction_solver_2d",
]


class Route2D(enum.Enum):
    GROUPED = "grouped"      # boost prefactors on FP[sum(w/2 +- k^2/2w)]
    PER_MODE = "per-mode"    # quadrature-established per-mode coefficient law


class UnderdeterminedError(ValueError):
    """Too few velocity points to constrain the two finite-part shifts."""


@dataclass(frozen=True)
class FourParts:
    """The four regularized sums every 2D observable is built from."""

    U: FinitePart
    W: FinitePart
    S_omega: FinitePart
    S_k: FinitePart


@dataclass(frozen=True)
class Rect2DResult:
    proper_length_x: float
    proper_length_y: float
    velocity: float
    route: Route2D
    static_energy: float
    energy: float
    momentum: float
    energy_error: float
    momentum_error: float
    parts: FourParts


@dataclass(frozen=True)
class ShellProbeRow:
    velocity: float
    residual: float
    residual_error: float
    predicted_residual: float | None  # analytic 2(g^2(1+v^2)-1) U W, per-mode route only


@dataclass(frozen=True)
class SubtractionBranch:
    name: str
    delta_U: float
    delta_W: float
    max_rel_residual: float


@dataclass(frozen=True)
class SubtractionSolution:
    branches: tuple[SubtractionBranch, ...]
    note: str


# Spectrum terms one cutoff fit may sum: about 37x the 2.7e7 that b/a = 50,
# the largest aspect ratio the tests sum, needs at its smallest cutoff.
_TERM_BUDGET = 1e9


class _FourPartsSummand:
    """The rectangle spectrum w = sqrt(k_n^2 + p_m^2), k_n = n pi/a, p_m = m pi/b.

    Each block is one row of fixed index along the shorter side, ascending
    along the longer side (hence in w), with two coefficient rows:

        S_omega: w/2   S_k: k^2/(2w)

    U = (S_omega + S_k)/2 and W = (S_omega - S_k)/2 follow by linearity
    (_four_parts).

    By Poisson summation each damped sum is A eps^-3 + B eps^-2 + C + O(eps^2):
    Weyl area and perimeter terms, no eps^-1 (the corner term is a constant).
    """

    divergent_powers = (3, 2)

    def __init__(self, a: float, b: float):
        _check_length(a, "side a")
        _check_length(b, "side b")
        self.a = a
        self.b = b
        self.omega_min = math.hypot(math.pi / a, math.pi / b)

    def blocks(self, omega_cap: float):
        cap = float(omega_cap)
        # lattice points under the quarter circle of radius cap: a b cap^2 / (4 pi)
        terms = (self.a * cap) * (self.b * cap) / (4.0 * math.pi)
        if not terms <= _TERM_BUDGET:
            raise ValueError(
                f"rectangle a = {self.a:g}, b = {self.b:g}: the cutoff sum needs about "
                f"{terms:.3g} spectrum terms, over the budget of {_TERM_BUDGET:.0e}"
            )
        # the Python loop runs over the shorter side's (fewer) modes
        row_step, col_step = math.pi / min(self.a, self.b), math.pi / max(self.a, self.b)
        c2 = None  # squared column wavenumbers of the first, longest row; later rows are prefixes
        for i in range(1, int(omega_cap / row_step) + 1):
            r = i * row_step
            remainder = omega_cap * omega_cap - r * r
            if remainder <= col_step * col_step:
                break
            n = int(math.sqrt(remainder) / col_step)
            if c2 is None:
                c2 = np.arange(1, n + 1, dtype=float) * col_step
                c2 *= c2
            w = np.sqrt(r * r + c2[:n])
            rows = np.empty((2, n))
            np.multiply(0.5, w, out=rows[0])
            np.divide(r * r if self.a <= self.b else c2[:n], np.multiply(2.0, w, out=rows[1]),
                      out=rows[1])
            yield rows, w


def _four_parts(s_omega: FinitePart, s_k: FinitePart) -> FourParts:
    """U = (S_omega + S_k)/2 and W = (S_omega - S_k)/2, field by field.

    Both routes build U and W this way. The halves are linear in the data,
    so value and fitted coefficients follow exactly, and the error and fit
    residual of each half are bounded by the mean of the two.
    """
    def half(sign: float) -> FinitePart:
        return FinitePart(
            value=0.5 * (s_omega.value + sign * s_k.value),
            error_estimate=0.5 * (s_omega.error_estimate + s_k.error_estimate),
            method=s_omega.method,
            fitted_divergent_coeffs=tuple(
                0.5 * (a + sign * b)
                for a, b in zip(s_omega.fitted_divergent_coeffs, s_k.fitted_divergent_coeffs)
            ),
            fit_residual=0.5 * (s_omega.fit_residual + s_k.fit_residual),
            condition_number=s_omega.condition_number,
        )

    return FourParts(U=half(1.0), W=half(-1.0), S_omega=s_omega, S_k=s_k)


_ZETA3 = 1.2020569031595942854  # Apery's constant zeta(3)
_Z_MAX = 60.0  # K_1(60) ~ 1.4e-27: Bessel terms past it sit ~25 digits below the leading ones
_ROUNDING = 16.0 * np.finfo(float).eps  # rounding bound per unit of summed term magnitude


def _bessel_k(nu: int, z: float) -> tuple[float, float]:
    """K_nu(z) for nu in {0, 1} and z >= 2 pi, with a bound on its error.

    e^z K_nu(z) = int_0^inf exp(-2 z sinh^2(t/2)) cosh(nu t) dt. Past
    T = 2 asinh(5/sqrt(z)) the integrand is below e^{-50} of its peak, and by
    convexity of cosh the dropped range adds at most e^{T-50}/(z sinh T - 1).
    """
    t_max = 2.0 * math.asinh(5.0 / math.sqrt(z))
    value, err = gauss_legendre(
        lambda t: np.exp(-2.0 * z * np.sinh(0.5 * t) ** 2) * np.cosh(nu * t), 0.0, t_max
    )
    tail = math.exp(t_max - 50.0) / (z * math.sinh(t_max) - 1.0)
    scale = math.exp(-z)
    return float(value) * scale, (float(err) + tail) * scale


def _chowla_selberg(a: float, b: float) -> FourParts:
    """Exact U, W, S_omega, S_k of the a x b rectangle (a along the boost).

    With x the shorter side, y the longer and k_n = n pi/x,

        S_omega = pi/(48x) - zeta(3) y/(16 pi x^2) - (1/2pi) sum_n k_n sum_j K_1(2 j k_n y)/j

    (Chowla & Selberg, PNAS 35 (1949) 371). Every Bessel argument
    z = c n j, c = 2 pi y/x, is at least 2 pi, so grouping the terms by
    m = n j (weight (pi/x) sigma_2(m)/m, sigma_2 the sum of squared divisors)
    leaves at most nine K evaluations below _Z_MAX. With K_1' = -K_0 - K_1/z,
    the part along each side, -s dS_omega/ds, is a fixed combination of

        T0 = pi/(48x)   T1 = zeta(3) y/(16 pi x^2)
        T2 = (1/2pi) sum (k_n/j) K_1(z)   T3 = (1/2pi) sum (k_n/j) (z K_0(z) + K_1(z)):

        S_omega = T0 - T1 - T2,   along y: T1 - T3,   along x: T0 - 2 T1 - T2 + T3.

    S_k is the part along a; U = (S_omega + S_k)/2, W = (S_omega - S_k)/2.
    Each error is the dropped-tail bound plus the propagated K quadrature
    error plus _ROUNDING times the summed magnitude of the terms.
    """
    x, y = min(a, b), max(a, b)
    step = math.pi / x
    c = 2.0 * math.pi * (y / x)
    t_sum = d_sum = t_err = d_err = 0.0
    m_max = int(_Z_MAX / c)
    for m in range(1, m_max + 1):
        z = c * m
        weight = step * sum(d * d for d in range(1, m + 1) if m % d == 0) / m
        k0, e0 = _bessel_k(0, z)
        k1, e1 = _bessel_k(1, z)
        t_sum += weight * k1
        d_sum += weight * (z * k0 + k1)
        t_err += weight * e1
        d_err += weight * (z * e0 + e1)
    # Dropped m > m_max: sigma_2(m)/m <= zeta(2) m, K_0 < K_1 <= sqrt(pi/2z) e^{-z} (1 + 3/(8z))
    # (DLMF 10.40(iv)), and each term is at most 4 e^{-2 pi} < 1/2 times the one
    # before, so the tail is at most twice its first term.
    z = c * (m_max + 1)
    k1_bound = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z) * (1.0 + 3.0 / (8.0 * z))
    first = step * (math.pi**2 / 6.0) * (m_max + 1) * k1_bound
    t_err += 2.0 * first
    d_err += 2.0 * first * (z + 1.0)

    terms = np.array([math.pi / (48.0 * x), _ZETA3 * (y / x) / (16.0 * math.pi * x),
                      t_sum / (2.0 * math.pi), d_sum / (2.0 * math.pi)])
    errors = np.array([0.0, 0.0, t_err / (2.0 * math.pi), d_err / (2.0 * math.pi)])

    def combine(row: np.ndarray) -> tuple[float, float]:
        weights = np.abs(row)
        return float(row @ terms), float(weights @ errors + _ROUNDING * (weights @ terms))

    s_omega_row = np.array([1.0, -1.0, -1.0, 0.0])
    along_y_row = np.array([0.0, 1.0, 0.0, -1.0])
    with np.errstate(all="ignore"):  # extreme sides overflow; reported below
        s_omega = combine(s_omega_row)
        s_k = combine(s_omega_row - along_y_row if a <= b else along_y_row)
    for name, (value, error) in (("S_omega", s_omega), ("S_k", s_k)):
        # Every observable squares the parts (E^2 - P^2 - E_m^2); U and W are
        # no larger in magnitude than the larger of these two.
        if not (math.isfinite(value * value) and math.isfinite(error)):
            raise ValueError(f"rectangle a = {a:g}, b = {b:g}: finite part {name} = {value:g} "
                             "or its square is not finite in float64")
    # The halving sums' own rounding, at most eps (|S_omega| + |S_k|)/2, lies
    # inside the two parts' rounding terms.
    return _four_parts(FinitePart(*s_omega, method=RegMethod.ZETA_EXACT),
                       FinitePart(*s_k, method=RegMethod.ZETA_EXACT))


def default_config(**schedule_kw) -> RegConfig:
    """The rectangles' cutoff cross-check schedule, x from 0.25 to 0.05 unless overridden.

    finite_parts uses the Chowla-Selberg closed form unless handed a config;
    this one routes it through the exponential-cutoff fit instead.
    """
    return RegConfig.cutoff(**{"hi": 0.25, "lo": 0.05, **schedule_kw})


def finite_parts(cavity: Cavity2D, config: RegConfig | None = None) -> FourParts:
    """U, W, S_omega, S_k of the rectangle by the route the config names.

    No config, or a ZETA_EXACT one, gives the Chowla-Selberg closed form. A
    cutoff config gives the exponential-cutoff fit of S_omega and S_k from
    one pass over the spectrum with identical schedules. Either way U and W
    are built from those two as U = (S_omega + S_k)/2 and
    W = (S_omega - S_k)/2, so both identities hold by construction, bit for
    bit, and the errors of all four parts correlate.

    Raises ValueError for any other method, and (closed form) when a part
    or its square is not finite in float64.
    """
    a, b = cavity.proper_length_x, cavity.proper_length_y
    if config is None or config.method is RegMethod.ZETA_EXACT:
        return _chowla_selberg(a, b)
    if config.method is RegMethod.EXPONENTIAL_CUTOFF:
        return _four_parts(*cutoff_finite_part(_FourPartsSummand(a, b), config))
    raise ValueError(f"rect2d finite parts have no {config.method.value} route (use zeta or cutoff)")


def static_energy_2d(cavity: Cavity2D, config: RegConfig | None = None) -> FinitePart:
    """Finite part of (1/2) sum_nm w_nm, the rest-frame vacuum energy."""
    return finite_parts(cavity, config).S_omega


def boosted_em_2d(
    cavity: Cavity2D,
    route: Route2D = Route2D.PER_MODE,
    *,
    parts: FourParts | None = None,
) -> Rect2DResult:
    """Lab-frame (E_s, P_s) of the moving rectangle by the chosen route.

    Passing precomputed parts skips the spectral sums (they are velocity
    independent, so sweeps over v reuse one set); without them the closed
    form supplies the parts.
    """
    if parts is None:
        parts = finite_parts(cavity)
    v = cavity.velocity
    ce, cp = per_mode_coefficients(Scheme.LORENTZ_EXACT, v)
    if route is Route2D.PER_MODE:
        energy = ce * parts.U.value + parts.W.value
        momentum = cp * parts.U.value
        energy_err = abs(ce) * parts.U.error_estimate + parts.W.error_estimate
        momentum_err = abs(cp) * parts.U.error_estimate
    else:
        half_ce = 0.5 * ce  # grouped route applies gamma^2(1+v^2) to S_omega + S_k
        energy = 2.0 * half_ce * (parts.S_omega.value + parts.S_k.value)
        g2v = cp / 2.0
        momentum = g2v * (parts.S_omega.value - parts.S_k.value)
        energy_err = ce * (parts.S_omega.error_estimate + parts.S_k.error_estimate)
        momentum_err = abs(g2v) * (
            parts.S_omega.error_estimate + parts.S_k.error_estimate
        )
    return Rect2DResult(
        proper_length_x=cavity.proper_length_x,
        proper_length_y=cavity.proper_length_y,
        velocity=v,
        route=route,
        static_energy=parts.S_omega.value,
        energy=energy,
        momentum=momentum,
        energy_error=energy_err,
        momentum_error=momentum_err,
        parts=parts,
    )


def static_limit_report(cavity: Cavity2D, *, parts: FourParts | None = None) -> DiscrepancyReport:
    """Quantifies the grouped route's failure of its own v = 0 limit."""
    if parts is None:
        parts = finite_parts(cavity)
    at_rest = Cavity2D(cavity.proper_length_x, cavity.proper_length_y, 0.0)
    grouped = boosted_em_2d(at_rest, Route2D.GROUPED, parts=parts)
    per_mode = boosted_em_2d(at_rest, Route2D.PER_MODE, parts=parts)
    entries = (
        DiscrepancyEntry("E_s(v=0)", grouped.energy, parts.S_omega.value),
        DiscrepancyEntry("E_s(v=0) per-mode", per_mode.energy, parts.S_omega.value),
    )
    return DiscrepancyReport(
        title=(
            f"static limit of the grouped 2D route, a={cavity.proper_length_x:g}, "
            f"b={cavity.proper_length_y:g}"
        ),
        label_a="route value at v = 0",
        label_b="rest-frame energy FP[sum w/2]",
        entries=entries,
        note=(
            "the grouped closed form misses its own static limit by the finite "
            f"amount FP[sum k^2/(2w)] = {parts.S_k.value:.12g}; the per-mode route "
            "reproduces it exactly (U + W = S_omega by linearity)"
        ),
    )


def mass_shell_probe_2d(
    cavity: Cavity2D,
    v_grid,
    route: Route2D = Route2D.PER_MODE,
    *,
    parts: FourParts | None = None,
) -> tuple[ShellProbeRow, ...]:
    """Shell residual E^2 - P^2 - E_m^2 across a velocity grid."""
    if parts is None:
        parts = finite_parts(cavity)
    e_m = parts.S_omega.value
    e_m_err = parts.S_omega.error_estimate
    rows = []
    for v in sorted(float(v) for v in v_grid):
        moving = Cavity2D(cavity.proper_length_x, cavity.proper_length_y, v)
        res = boosted_em_2d(moving, route, parts=parts)
        residual = res.energy**2 - res.momentum**2 - e_m**2
        err = (
            2.0 * abs(res.energy) * res.energy_error
            + 2.0 * abs(res.momentum) * res.momentum_error
            + 2.0 * abs(e_m) * e_m_err
        )
        predicted = None
        if route is Route2D.PER_MODE:
            ce, _ = per_mode_coefficients(Scheme.LORENTZ_EXACT, v)
            predicted = 2.0 * (ce - 1.0) * parts.U.value * parts.W.value
        rows.append(
            ShellProbeRow(velocity=v, residual=residual, residual_error=err,
                          predicted_residual=predicted)
        )
    return tuple(rows)


def subtraction_solver_2d(
    cavity: Cavity2D,
    v_grid,
    *,
    parts: FourParts | None = None,
) -> SubtractionSolution:
    """Finite-part shifts (U0+dU, W0+dW) that restore the shell on the grid.

    The residual is 2(gamma^2(1+v^2)-1)(U0+dU)(W0+dW) at every grid point,
    so demanding zero for all v forces the product to vanish: the solution
    manifold is the pair of branches dW = -W0 and dU = -U0. Each branch is
    evaluated on the grid and reported with its worst post-shift residual
    relative to the shifted rest energy squared.
    """
    grid = sorted({float(v) for v in v_grid})
    nonzero = [v for v in grid if v != 0.0]
    if any(abs(v) >= 1.0 for v in grid):
        raise ValueError("grid velocities must satisfy |v| < 1")
    if len(nonzero) < 3:
        raise UnderdeterminedError(
            f"need >= 3 distinct nonzero velocities to constrain two shifts, "
            f"got {len(nonzero)}"
        )
    if parts is None:
        parts = finite_parts(cavity)
    u0 = parts.U.value
    w0 = parts.W.value

    def branch(name: str, du: float, dw: float) -> SubtractionBranch:
        u = u0 + du
        w = w0 + dw
        e_m = u + w
        worst = 0.0
        for v in nonzero:
            ce, cp = per_mode_coefficients(Scheme.LORENTZ_EXACT, v)
            residual = (ce * u + w) ** 2 - (cp * u) ** 2 - e_m**2
            worst = max(worst, abs(residual) / max(e_m**2, 1e-300))
        return SubtractionBranch(name=name, delta_U=du, delta_W=dw, max_rel_residual=worst)

    branches = (
        branch("zero-transverse-part", 0.0, -w0),
        branch("zero-longitudinal-part", -u0, 0.0),
    )
    note = (
        "shell-for-all-v forces (U0+dU)(W0+dW) = 0; the solution manifold is "
        f"the union of the two branches above (U0 = {u0:.12g}, W0 = {w0:.12g})"
    )
    return SubtractionSolution(branches=branches, note=note)
