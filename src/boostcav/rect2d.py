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

The four finite parts come by default from the Chowla-Selberg closed form
(the Epstein-zeta value, exponentially convergent, a few milliseconds at
any aspect ratio). The exponential-cutoff fit stays available through a
cutoff RegConfig (default_config) as the independent cross-check.
"""

import enum
import math
import sys
from typing import NamedTuple

from .cavity import Cavity2D, Scheme, _check_length
from .observables import mass_shell_residual
from .regsum import _TRUNCATION_CAP, FinitePart, RegConfig, RegMethod, cutoff_finite_part
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
    PER_MODE = "per-mode"    # closed-form per-mode coefficient law on U and W


class UnderdeterminedError(ValueError):
    """Too few velocity points to constrain the two finite-part shifts."""


class FourParts(NamedTuple):
    """The four regularized sums every 2D observable is built from."""

    U: FinitePart
    W: FinitePart
    S_omega: FinitePart
    S_k: FinitePart


class Rect2DResult(NamedTuple):
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


class ShellProbeRow(NamedTuple):
    velocity: float
    residual: float
    residual_error: float
    predicted_residual: float | None  # analytic 4 g^2 v^2 U W, per-mode route only
    route: Route2D
    energy: float  # the (E_s, P_s) the residual is formed from
    momentum: float


class SubtractionBranch(NamedTuple):
    name: str
    delta_U: float
    delta_W: float
    max_rel_residual: float


class SubtractionSolution(NamedTuple):
    branches: tuple[SubtractionBranch, ...]
    note: str


# Spectrum terms one cutoff fit may sum: about 37x the 2.7e7 that b/a = 50,
# the largest aspect ratio the tests sum, needs at its smallest cutoff.
_TERM_BUDGET = 1e9
_SLAB = 1 << 14  # lattice points per slab of damped_sums, whose 640 KB of buffers stay fixed


class _FourPartsSummand:
    """The a x b rectangle's spectrum in units of 1/a: the 1 x b/a rectangle's,

        w = sqrt(k_n^2 + p_m^2), k_n = n pi, p_m = m pi a/b.

    Every part of the a x b rectangle is g(b/a)/a, so finite_parts fits this
    spectrum, representable at any scale, and scales the parts back.

    The spectrum is summed in rows of fixed index along the shorter side,
    ascending along the longer side (hence in w), with two weights:

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
        self.sides = a, b  # named in messages
        self.aspect = b / a
        # such aspects are far past the term budget, and there pi/aspect or the cutoffs overflow
        if not 1e-300 < self.aspect < 1e300:
            raise ValueError(f"rectangle a = {a:g}, b = {b:g}: aspect ratio b/a = "
                             f"{self.aspect:g} is out of range for the cutoff sum")
        self.omega_min = math.hypot(math.pi, math.pi / self.aspect)

    def damped_sums(self, eps: list[float]) -> list[list[float]]:
        """S(eps_i) = sum of c e^{-eps_i w} over w <= _TRUNCATION_CAP/eps_i: one column per weight.

        The spectrum is enumerated once, at the smallest eps, in slabs of
        consecutive rows of at most _SLAB lattice points (a longer row alone,
        in pieces of _SLAB). Every row is ascending in w, so the terms below a
        larger eps's cap are a prefix of it (_prefix_counts). A slab is stored
        column by column, so for each eps the first row's prefix, with the
        same columns of the later rows, is one contiguous block: it is damped
        in one multiply and one exp, each later row is zeroed past its own
        prefix, and both weights are contracted with it in one matrix-vector
        product. Which terms a sum takes is fixed by the counts alone; the w
        that the slab holds only gives their values.

        A one-row slab builds w and the weights in vector arithmetic, a slab
        of several rows in one matrix product: broadcast over a few rows,
        numpy's inner loop would run once per column.
        """
        import numpy as np
        caps = _TRUNCATION_CAP / np.asarray(eps)
        cap = float(caps[-1])
        # lattice points under the quarter circle of radius cap: (b/a) cap^2 / (4 pi)
        terms = cap * (self.aspect * cap) / (4.0 * math.pi)
        if not terms <= _TERM_BUDGET:
            a, b = self.sides
            raise ValueError(
                f"rectangle a = {a:g}, b = {b:g}: the cutoff sum needs about "
                f"{terms:.3g} spectrum terms, over the budget of {_TERM_BUDGET:.0e}"
            )
        # rows run over the shorter side's (fewer) modes
        row_step, col_step = math.pi / min(1.0, self.aspect), math.pi / max(1.0, self.aspect)
        r2 = np.arange(1, int(cap / row_step) + 1, dtype=float) * row_step
        r2 *= r2
        remainder = cap * cap - r2
        n_rows = int(np.count_nonzero(remainder > col_step * col_step))
        s_omega, s_k = [0.0] * len(eps), [0.0] * len(eps)
        if not n_rows:
            return [s_omega, s_k]
        r2 = r2[:n_rows]
        widths = (np.sqrt(remainder[:n_rows]) / col_step).astype(np.intp)
        counts = _prefix_counts(r2, widths, caps, col_step)
        counts, widths = counts.tolist(), widths.tolist()
        # (c^2, 1) for the first _SLAB columns: times (1, r^2) it gives r^2 + c^2, and times
        # (0, r^2/2) or (1/2, 0) k^2/2, for every row at once; each product is exact and each
        # sum rounded once, as in plain vector arithmetic
        outer = np.empty((2, min(widths[0], _SLAB))).T
        outer[:, 0] = np.arange(1, len(outer) + 1, dtype=float) * col_step
        outer[:, 0] *= outer[:, 0]
        outer[:, 1] = 1.0
        k_rows = 1.0 <= self.aspect  # k is the rows' wavenumber, else the columns'
        slab, damping = np.empty((2, _SLAB)), np.empty(_SLAB)
        i0 = 0
        while i0 < n_rows:
            i1 = min(n_rows, i0 + max(1, _SLAB // widths[i0]))
            rows = i1 - i0
            for c0 in range(0, widths[i0], _SLAB):
                c1 = min(c0 + _SLAB, widths[i0])
                n = c1 - c0
                # column-major: slab[:, c * rows + i] holds row i0 + i, column c0 + c, so
                # the first m columns of all the slab's rows are slab[:, :m * rows]
                weights = slab[:, :n * rows].reshape(2, n, rows)
                w, s_k_weight = weights
                if rows == 1:  # one row: plain vector arithmetic is faster than the product
                    if c1 <= len(outer):
                        c2 = outer[c0:c1, :1]
                    else:
                        c2 = np.arange(c0 + 1, c1 + 1, dtype=float)[:, None] * col_step
                        c2 *= c2
                    np.add(c2, r2[i0], out=w)
                    np.sqrt(w, out=w)
                    np.divide(0.5 * (r2[i0] if k_rows else c2), w, out=s_k_weight)
                else:
                    r2_i = r2[i0:i1]
                    half_k2 = ((np.zeros(rows), 0.5 * r2_i) if k_rows
                               else (np.full(rows, 0.5), np.zeros(rows)))
                    np.matmul(outer[:n], np.array([[np.ones(rows), r2_i], half_k2]), out=weights)
                    np.sqrt(w, out=w)
                    np.divide(s_k_weight, w, out=s_k_weight)
                for j, eps_j in enumerate(eps):
                    m = min(max(counts[i0][j] - c0, 0), n)
                    if not m:
                        continue
                    size = m * rows
                    e = damping[:size]
                    np.multiply(slab[0, :size], -eps_j, out=e)
                    np.exp(e, out=e)
                    for i in range(1, rows):  # each later row past its own prefix
                        if counts[i0 + i][j] < m:
                            e[counts[i0 + i][j] * rows + i::rows] = 0.0
                    sums = slab[:, :size] @ e
                    s_omega[j] += float(sums[0])
                    s_k[j] += float(sums[1])
            i0 = i1
        return [[0.5 * s for s in s_omega], s_k]  # the first weight row held w, not w/2


def _prefix_counts(r2, widths, caps, col_step):
    """counts[i, j]: how many of row i's first widths[i] terms have w <= caps[j].

    w = sqrt(r^2 + (m col_step)^2) rises with the column m, so these are
    prefixes. The circle gives each count to within rounding; the count is
    then moved until w, with each operation rounded once, of the last term
    counted lies below the cap and that of the next one above it. These
    counts alone decide which terms damped_sums sums.
    """
    import numpy as np

    def w(m):
        c = m * col_step
        return np.sqrt(r2[:, None] + c * c)

    counts = np.sqrt(np.maximum(caps * caps - r2[:, None], 0.0)) / col_step
    counts = np.minimum(counts.astype(np.intp), widths[:, None])
    while (over := (counts > 0) & (w(counts) > caps)).any():
        counts -= over
    while (under := (counts < widths[:, None]) & (w(counts + 1) <= caps)).any():
        counts += under
    return counts


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


def _per_side(part: FinitePart, a: float) -> FinitePart:
    """A part of the 1 x b/a rectangle as the a x b rectangle's.

    Value, error and fit residual scale by 1/a; the eps^-3 and eps^-2
    coefficients by a^2 and a (S_a(eps) = S_1(eps/a)/a).
    """
    area, perimeter = part.fitted_divergent_coeffs
    return part._replace(value=part.value / a, error_estimate=part.error_estimate / a,
                         fitted_divergent_coeffs=(area * a * a, perimeter * a),
                         fit_residual=part.fit_residual / a)


_ZETA3 = 1.2020569031595942854  # Apery's constant zeta(3)
_Z_MAX = 60.0  # K_1(60) ~ 1.4e-27: Bessel terms past it sit ~25 digits below the leading ones
_ROUNDING = 16.0 * sys.float_info.epsilon  # rounding bound per unit of summed term magnitude
_STRIP = 1.5  # half-width a of the strip |Im t| < a on which _bessel_k01 bounds its integrand


def _k1_upper(z: float) -> float:
    """sqrt(pi/2z) e^{-z} (1 + 3/(8z)), an upper bound on K_1(z) >= K_0(z) for every z > 0.

    The first two terms of Hankel's expansion (DLMF 10.40.2): for real order and
    positive argument the remainder has the sign of the first neglected term,
    here -15/(128 z^2) (DLMF 10.40(ii)).
    """
    return math.sqrt(math.pi / (2.0 * z)) * math.exp(-z) * (1.0 + 3.0 / (8.0 * z))


def _bessel_k01(z: float) -> tuple[float, float, float]:
    """K_0(z) and K_1(z) for 2 pi <= z <= _Z_MAX, with one bound on the error of either.

    e^z K_nu(z) = (1/2) int_R g_nu, g_nu(t) = exp(-z (cosh t - 1)) cosh(nu t),
    even and entire, is summed by the trapezoidal rule (h/2) sum_{k in Z} g_nu(k h).

    Discretization: on |Im t| <= a, |g_nu| <= exp(z - z cos(a) cosh t) cosh t,
    so every line of the strip carries int |g_nu| <= M = 2 e^z K_1(z cos a),
    and the rule errs by at most M/(e^{2 pi a/h} - 1) (Trefethen & Weideman,
    SIAM Rev. 56 (2014) 385, Thm 5.1, halved). h makes that eps/4 times
    _k1_upper(z), then drops to 46 bits, so every node k h is exact.

    Truncation: log g_nu is concave (z >= 1), so the terms fall by ever
    smaller ratios; past the first below 1e-18 they add at most r/(1 - r)
    times it, r its ratio to the one before.

    Rounding, with libm's exp and sinh within one ulp: q = 2 z sinh^2(t/2)
    carries 3 eps q, so exp(-q) carries (1 + 3q) eps, and cosh t = 1 + q/z
    and the product add (1 + 3.5 q/z) eps <= (1 + 0.6 q) eps; the closing
    math.fsum and the scaling by h e^{-z} add 2.5 eps. Each term so errs by
    at most (3.6 q + 4.5) eps of itself.

    K_1's terms bound K_0's term by term (cosh >= 1), so all three bounds,
    taken on K_1, serve both orders.
    """
    eps = sys.float_info.epsilon
    m = 2.0 * _k1_upper(z * math.cos(_STRIP))  # e^{-z} M
    h = 2.0 * math.pi * _STRIP / math.log1p(m / (0.25 * eps * _k1_upper(z)))
    h = math.floor(h * 2.0**48) / 2.0**48
    g0, g1, rounding = [0.5], [0.5], 0.5 * 4.5  # the t = 0 node has half weight
    while g1[-1] >= 1e-18:
        q = 2.0 * z * math.sinh(0.5 * len(g0) * h) ** 2
        g0.append(math.exp(-q))
        g1.append(g0[-1] * (1.0 + q / z))
        rounding += (3.6 * q + 4.5) * g1[-1]
    scale = h * math.exp(-z)
    tail = g1[-1] ** 2 / (g1[-2] - g1[-1])  # r/(1 - r) times the last term
    error = m / math.expm1(2.0 * math.pi * _STRIP / h) + scale * (tail + eps * rounding)
    return scale * math.fsum(g0), scale * math.fsum(g1), error


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
    Each error is the dropped-tail bound plus the propagated a-priori K error
    of _bessel_k01 plus _ROUNDING times the summed magnitude of the terms.
    """
    x, y = min(a, b), max(a, b)
    step = math.pi / x
    c = 2.0 * math.pi * (y / x)
    t_sum = d_sum = t_err = d_err = 0.0
    m_max = int(_Z_MAX / c)
    for m in range(1, m_max + 1):
        z = c * m
        weight = step * sum(d * d for d in range(1, m + 1) if m % d == 0) / m
        k0, k1, k_err = _bessel_k01(z)
        t_sum += weight * k1
        d_sum += weight * (z * k0 + k1)
        t_err += weight * k_err
        d_err += weight * (z + 1.0) * k_err
    # Dropped m > m_max: sigma_2(m)/m <= zeta(2) m, K_0 < K_1 <= _k1_upper, and each
    # term is at most 4 e^{-2 pi} < 1/2 times the one before, so the tail is at
    # most twice its first term.
    z = c * (m_max + 1)
    first = step * (math.pi**2 / 6.0) * (m_max + 1) * _k1_upper(z)
    t_err += 2.0 * first
    d_err += 2.0 * first * (z + 1.0)

    terms = (math.pi / (48.0 * x), _ZETA3 * (y / x) / (16.0 * math.pi * x),
             t_sum / (2.0 * math.pi), d_sum / (2.0 * math.pi))
    errors = (0.0, 0.0, t_err / (2.0 * math.pi), d_err / (2.0 * math.pi))

    def combine(row: tuple[float, ...]) -> tuple[float, float]:
        # Extreme sides overflow to inf or nan here, without an exception; reported below.
        value = error = magnitude = 0.0
        for r, term, term_err in zip(row, terms, errors):
            value += r * term
            error += abs(r) * term_err
            magnitude += abs(r) * term
        return value, error + _ROUNDING * magnitude

    s_omega = combine((1.0, -1.0, -1.0, 0.0))
    s_k = combine((1.0, -2.0, -1.0, 1.0) if a <= b else (0.0, 1.0, 0.0, -1.0))  # along x or y
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
        s_omega, s_k = cutoff_finite_part(_FourPartsSummand(a, b), config)
        return _four_parts(_per_side(s_omega, a), _per_side(s_k, a))
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
        energy = ce * (parts.S_omega.value + parts.S_k.value)  # gamma^2(1+v^2) on S_omega + S_k
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
        residual = mass_shell_residual(res, e_m)
        err = (
            2.0 * abs(res.energy) * res.energy_error
            + 2.0 * abs(res.momentum) * res.momentum_error
            + 2.0 * abs(e_m) * e_m_err
        )
        predicted = None
        if route is Route2D.PER_MODE:
            # 2 (gamma^2 (1 + v^2) - 1) U W, with the 2 gamma^2 v^2 that cancels in it formed directly
            predicted = 4.0 * v * v / (1.0 - v * v) * parts.U.value * parts.W.value
        rows.append(
            ShellProbeRow(velocity=v, residual=residual, residual_error=err,
                          predicted_residual=predicted, route=route, energy=res.energy,
                          momentum=res.momentum)
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
        f"the union of the two branches above (U0 = {u0:.12g}, W0 = {w0:.12g})"
    )
    return SubtractionSolution(branches=branches, note=note)
