"""Finite parts of divergent spectral sums.

Three independent routes:

  * exact zeta assignment for linear-in-n sums (sum n -> -1/12),
  * exponential-cutoff evaluation S(eps) = sum c e^{-eps w} followed by a
    least-squares fit of the divergent powers of 1/eps, keeping the eps^0
    constant; the powers are the summand's divergent_powers, fixed by its
    spectrum (Weyl terms), never by the config, and the schedule is
    dimensionless, in units of 1/omega_min of the summand,
  * an Abel-Plana integral representation for the 1D static sum.

Cross-agreement of the routes is the package's strongest regularization
check; nothing here ever regularizes velocity-dependent sums directly.

The 1D and rectangle (rect2d) summands sum their own spectra in closed
form on the one kernel _geometric, and every summand's finite part comes
from the one divergence fit: a least squares in plain floats (the
pseudoinverse of a one-sided Jacobi SVD, refined twice against math.fsum
residuals). The schedule and the Abel-Plana integral use `math`: every
route runs on Python floats.
"""

import enum
import math
import sys
from typing import NamedTuple, Sequence

from .cavity import _check_length, _validated
from .quadrature import gauss_legendre

__all__ = [
    "RegMethod",
    "RegConfig",
    "FinitePart",
    "FitError",
    "Linear1DSummand",
    "geometric_schedule",
    "cutoff_finite_part",
    "zeta_linear_sum",
    "abel_plana_m0",
]


class RegMethod(enum.Enum):
    ZETA_EXACT = "zeta"
    EXPONENTIAL_CUTOFF = "cutoff"
    ABEL_PLANA = "abel-plana"


class FitError(RuntimeError):
    """Divergence fit rejected (ill-conditioned design or bad schedule)."""


def geometric_schedule(*, hi: float = 0.2, lo: float = 0.01, points: int = 8) -> tuple[float, ...]:
    """Strictly decreasing cutoff schedule from hi to lo, in units of 1/omega_min.

    10**(i step + log10(hi)) with both endpoints pinned, the usual geomspace
    construction; the tests compare it with an array library's geomspace,
    bit for bit on the default schedules and to an ulp-scale bound elsewhere.
    """
    if not (0 < lo < hi < math.inf) or points < 4:
        raise ValueError("need finite 0 < lo < hi and at least 4 points")
    start = math.log10(hi)
    step = (math.log10(lo) - start) / (points - 1)
    return (float(hi), *(10.0 ** (i * step + start) for i in range(1, points - 1)), float(lo))


# Every damped sum is fitted with its summand's divergent powers, the eps^0
# constant and these eps^{+k} stabilizers (they vanish at eps -> 0, but
# absorbing them sharpens the constant by orders of magnitude).
_STABILIZER_POWERS = (2, 4)
_CONDITION_LIMIT = 1e12


@_validated
class RegConfig(NamedTuple):
    """Method selection plus, for the cutoff route, its eps schedule.

    The schedule is dimensionless, each x below 2 pi (_geometric says why): a summand
    with lowest frequency omega_min is damped at eps = x / omega_min for each x.
    """

    method: RegMethod
    epsilon_schedule: tuple[float, ...] = ()

    def _validate(self) -> None:
        if self.method is RegMethod.EXPONENTIAL_CUTOFF:
            x = self.epsilon_schedule
            if len(x) < 4:
                raise ValueError("cutoff schedule needs at least 4 points")
            # NaN fails every comparison, so this also rejects non-finite points
            if not (x[0] < math.inf and all(x1 > x2 for x1, x2 in zip(x, x[1:])) and x[-1] > 0):
                raise ValueError("cutoff schedule must be finite, strictly decreasing and positive")
            if x[0] >= 2.0 * math.pi:
                raise ValueError(f"cutoff schedule reaches x = {x[0]:g}: it must stay below 2 pi, "
                                 "the radius of the damped sums' Laurent series in x")

    @staticmethod
    def cutoff() -> "RegConfig":
        """The 1D default: exponential cutoff on geometric_schedule()."""
        return RegConfig(RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule())

    def halved(self) -> "RegConfig":
        """Same config with every cutoff halved (robustness checks)."""
        return RegConfig(self.method, tuple(e / 2.0 for e in self.epsilon_schedule))


@_validated
class FinitePart(NamedTuple):
    """A regularized value, the eps^0 constant, with its stated error and a fit's diagnostics."""

    value: float
    error_estimate: float
    fitted_divergent_coeffs: tuple[float, ...] = ()
    fit_residual: float = 0.0
    condition_number: float = 0.0

    def _validate(self) -> None:
        if math.isnan(self.value):
            raise ValueError("finite part is NaN")


def _rescaled(part: FinitePart, length: float, powers: Sequence[int]) -> FinitePart:
    """A part of a summand at unit length as the part at length L: S(eps) = S_1(eps/L)/L.

    Value, error and fit residual scale by 1/L, the coefficient of eps^-p by L^(p-1), p over
    the summand's powers; the error adds 2^-1074, two divisions' rounding below normal range.
    """
    coeffs = []
    for c, p in zip(part.fitted_divergent_coeffs, powers):
        for _ in range(p - 1):  # one product per power, as _fit_finite_parts divides
            c *= length
        coeffs.append(c)
    return part._replace(value=part.value / length,
                         error_estimate=part.error_estimate / length + 2.0**-1074,
                         fitted_divergent_coeffs=tuple(coeffs),
                         fit_residual=part.fit_residual / length)


# ---------------------------------------------------------------------------
# summands
# ---------------------------------------------------------------------------

class Linear1DSummand:
    """c_n = weight * n pi / L on the 1D Dirichlet spectrum w_n = n pi / L.

    Each damped sum is the whole series in closed form (Elizalde, Ten Physical
    Applications of Spectral Zeta Functions, 2nd ed. 2012, ch. 1): with
    omega_min = pi/L and x = eps omega_min, sum_{n>=1} n e^{-n x} = G_1(x) (_geometric).
    The fit, not the known Laurent series, extracts the constant.
    """

    divergent_powers = (2,)  # sum n e^{-eps n} = 1/eps^2 - 1/12 + eps^2/240 - ...

    def __init__(self, proper_length: float, weight: float = 0.5):
        _check_length(proper_length, "proper_length")
        if not math.isfinite(weight):
            raise ValueError(f"weight must be finite, got {weight!r}")
        self.weight = weight
        self.omega_min = math.pi / proper_length

    def damped_sums(self, eps: list[float]) -> list[list[float]]:
        """One column of weight * omega_min * G_1(eps omega_min), O(1) per cutoff."""
        return [[self.weight * self.omega_min * _geometric(e * self.omega_min)[0] for e in eps]]


def _geometric(y: float) -> tuple[float, float]:
    """G_1 = sum_{m>=1} m q^m = q/(1 - q)^2 and G_2 = sum m^2 q^m = q (1 + q)/(1 - q)^3, q = e^{-y}.

    The one kernel of the 1D and rectangle damped sums: with 1 - q = -expm1(-y)
    both fall to 0 for large y, and are infinite at y = 0. Their poles, y = 2 pi i k,
    give the Laurent series at 0 the radius 2 pi, the 1D sums' in x; the rectangle's
    rows are analytic below its shortest periodic orbit 2 min(a, b) in eps (Balian &
    Bloch, Ann. Phys. 69 (1972) 76), x = 2 pi hypot(1, short/long) >= 2 pi.
    """
    q = math.exp(-y)
    d = -math.expm1(-y)
    if not d:
        return math.inf, math.inf
    g1 = q / d / d
    return g1, g1 * (1.0 + q) / d


# ---------------------------------------------------------------------------
# divergence fit: least squares in floats
# ---------------------------------------------------------------------------

def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return math.fsum([p * q for p, q in zip(a, b)])


def _jacobi_svd(
    columns: list[list[float]],
) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """Thin SVD of the matrix with these columns by one-sided Jacobi (Hestenes).

    Plane rotations orthogonalize the columns pairwise until every pair is
    orthogonal to rounding; the column norms are then the singular values,
    each to high relative accuracy, the smallest included, and the same
    rotations applied to the identity give V. Returns the rotated columns
    (U diag(sigma)), sigma and V's columns.
    """
    u = [list(col) for col in columns]
    n = len(u)
    v = [[float(i == j) for i in range(n)] for j in range(n)]
    for _ in range(30):  # sweeps; the fit's designs need about five
        rotated = False
        for j in range(n - 1):
            for k in range(j + 1, n):
                alpha, beta, gamma = _dot(u[j], u[j]), _dot(u[k], u[k]), _dot(u[j], u[k])
                if abs(gamma) <= sys.float_info.epsilon * math.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                for a in (u, v):
                    a[j], a[k] = ([c * p - s * q for p, q in zip(a[j], a[k])],
                                  [s * p + c * q for p, q in zip(a[j], a[k])])
        if not rotated:
            break
    return u, [math.sqrt(_dot(col, col)) for col in u], v


class _PowerFit:
    """Least squares for y = sum_q b_q x^q over the given powers q, at the samples x.

    One one-sided Jacobi SVD of the column-scaled design gives its 2-norm
    condition number, checked once, and its pseudoinverse, which serves
    every data column and the rounding-noise propagation. Each solve is
    refined twice against residuals summed by math.fsum (iterative
    refinement of least squares).
    """

    def __init__(self, x: Sequence[float], powers: Sequence[int]):
        self.powers = list(powers)
        try:
            design = [[xi ** q for xi in x] for q in self.powers]
        except OverflowError:  # x^-p at a cutoff near 0
            raise FitError(f"x^{min(self.powers)} overflows at cutoff x = {min(x):.3g}") from None
        self.scale = [max(map(abs, col)) for col in design]  # 1 for the all-ones x^0 column
        # a vanishing column stays zero, so its singular value is 0 and cond inf
        self.columns = [[d / s for d in col] if s else col for col, s in zip(design, self.scale)]
        u, sigma, v = _jacobi_svd(self.columns)
        self.cond = max(sigma) / min(sigma) if min(sigma) > 0.0 else math.inf
        if self.cond > _CONDITION_LIMIT:
            raise FitError(
                f"least-squares design matrix condition number {self.cond:.3e} exceeds "
                f"{_CONDITION_LIMIT:.1e}; fit fewer powers or spread the samples wider"
            )
        # V diag(1/sigma) U^T row by row, as V diag(1/sigma^2) times (U diag(sigma))^T
        weights = [[vj[k] / (s * s) for vj, s in zip(v, sigma)] for k in range(len(v))]
        self.pinv = [[_dot(w, row) for row in zip(*u)] for w in weights]

    def residuals(self, coeffs: list[float], values: Sequence[float]) -> list[float]:
        """values - design @ coeffs, each row summed exactly by math.fsum and rounded once."""
        return [math.fsum([y] + [-col[i] * c for col, c in zip(self.columns, coeffs)])
                for i, y in enumerate(values)]

    def solve(self, values: Sequence[float]) -> list[float]:
        """Coefficients of the scaled columns for one data column."""
        coeffs = [0.0] * len(self.powers)
        target = list(values)
        for _ in range(3):  # the solve, then two refinement steps
            step = [_dot(row, target) for row in self.pinv]
            coeffs = [c + d for c, d in zip(coeffs, step)]
            target = self.residuals(coeffs, values)
        return coeffs


def _fit_finite_parts(
    x: list[float], columns: list[list[float]], powers: tuple[int, ...], omega_min: float
) -> list[FinitePart]:
    """The eps^0 constant of every column of damped sums, with its error.

    The fit runs in x = eps omega_min, and b_q x^q = (b_q omega_min^q) eps^q
    gives the divergent coefficients back in eps units. The error estimate
    adds the fit residual, the shift of a refit restricted to the small-x
    half of the schedule, and the extraction noise scaled by 2^{leading
    power}: one x-halving scales the raw sums (hence the noise) by that
    much, so the estimate also covers nearby schedules.

    The noise is the propagated float64 rounding of the data through the
    (linear) fit: each sum y_i carries accumulation rounding O(eps_mach
    |y_i|), which the divergent columns amplify through the constant's row
    of the pseudoinverse. It is what makes small-eps schedules *worse*
    beyond a point.

    A schedule of fewer points than the fitted powers plus two leaves no
    refit and raises FitError: the fit would interpolate, and its stated
    error would be the rounding alone.
    """
    fit_powers = [-p for p in powers] + [0, *_STABILIZER_POWERS]
    n_div = len(powers)  # the index of the x^0 term
    fit = _PowerFit(x, fit_powers)
    lower = len(x) - max(len(fit_powers) + 1, len(x) // 2)  # first point of the small-x half
    if lower <= 0:
        raise FitError(f"a {len(x)}-point cutoff schedule leaves no small-x refit for "
                       f"{len(fit_powers)} fitted powers; use at least {len(fit_powers) + 2} points")
    refit = _PowerFit(x[lower:], fit_powers)
    dual = fit.pinv[n_div]  # the scaled a0 is sum_i dual_i y_i
    parts = []
    for values in columns:
        coeffs = fit.solve(values)
        a0 = coeffs[n_div]
        residual = max(map(abs, fit.residuals(coeffs, values)))
        refit_shift = abs(refit.solve(values[lower:])[n_div] - a0)
        noise = 16.0 * sys.float_info.epsilon * math.fsum(
            [abs(d) * abs(y) for d, y in zip(dual, values)])
        divergent = []
        for c, s, p in zip(coeffs, fit.scale, powers):
            # b x^-p = (b / omega_min^p) eps^-p; one division per power keeps a
            # representable coefficient from overflowing on the way
            c /= s
            for _ in range(p):
                c /= omega_min
            divergent.append(c)
        parts.append(FinitePart(
            value=a0,
            error_estimate=refit_shift + residual + 2.0 ** max(powers, default=0) * noise,
            fitted_divergent_coeffs=tuple(divergent),
            fit_residual=residual,
            condition_number=fit.cond,
        ))
    return parts


def cutoff_finite_part(summand, config: RegConfig) -> tuple[FinitePart, ...]:
    """Exponential-cutoff finite part of sum_n c_n with damping e^{-eps w_n}.

    Evaluates S(eps) at eps = x / omega_min over the dimensionless schedule x, fits

        S = sum_k b_k x^{-k} + a_0 + b_2 x^2 + b_4 x^4,

    k over summand.divergent_powers, and returns each column's a_0. The error
    estimate combines the fit residual with a refit restricted to the small-x half
    of the schedule.

    Past the divergent powers the model is a_0 + b_2 x^2 + b_4 x^4, even in
    x, so the damped sums must be even there too: the 1D sums are, by G_1's
    Laurent series 1/x^2 - 1/12 + x^2/240 - ..., and the rectangle's are
    C + O(eps^2) (rect2d._FourPartsSummand). A finite list is not: its sums
    carry the odd term -x sum c_n w_n / omega_min, which the stated error
    does not bound.

    A summand has omega_min, divergent_powers and damped_sums(eps), which
    sums its own spectrum: one column of S(eps_i) per weight. It comes back
    as a tuple with one FinitePart per column (the 1D summand has one, the
    rectangle's one per coefficient row), all from the same damped sums, so
    linear identities between the weights survive the fit exactly.
    """
    if config.method is not RegMethod.EXPONENTIAL_CUTOFF:
        raise ValueError("cutoff_finite_part requires an EXPONENTIAL_CUTOFF config")
    x = list(config.epsilon_schedule)
    eps = [xi / summand.omega_min for xi in x]
    columns = summand.damped_sums(eps)
    for xi, *sums in zip(x, *columns):
        if not all(map(math.isfinite, sums)):
            raise FitError(f"the damped sums at cutoff x = {xi:.3g} are not finite in float64")
    return tuple(_fit_finite_parts(x, columns, summand.divergent_powers, summand.omega_min))


# ---------------------------------------------------------------------------
# exact and integral routes
# ---------------------------------------------------------------------------

def zeta_linear_sum(slope: float) -> float:
    """Regularized value of sum_{n>=1} slope*n, i.e. slope * (-1/12)."""
    if not math.isfinite(slope):
        raise ValueError(f"slope must be finite, got {slope!r}")
    return -slope / 12.0


def abel_plana_m0(proper_length: float) -> float:
    """Static cavity energy -pi/(24 L) via the Abel-Plana sum-minus-integral.

    The regularized sum_n n equals -2 int_0^inf t/(e^{2 pi t} - 1) dt; with
    the half-sum-of-frequencies weight this yields
    m0 = -(pi/L) int_0^inf t/(e^{2 pi t} - 1) dt.

    The integrand decays like t e^{-2 pi t}, so the tail beyond t = 7 is
    9.0e-20, below the rounding of the 1/24 result. Gauss-Legendre on 8
    panels of [0, 7] evaluates the integral: its nearest pole, t = i, lies
    on the Bernstein ellipse rho = 5.1 of the first panel, and the
    quadrature module's Thm 19.3 bound at rho = 4.3, summed over the
    panels, is 4.2e-22. The integral is 1/24 within 1e-19 plus rounding.

    Rounding (u = eps/2, y = 2 pi t, libm's exp and expm1 within an ulp): a weighted term errs
    by (16.5 + 3y) u of itself at most (node and weight 7.5 + y, as |f'/f| <= 2 pi; exp and expm1
    6 + 2y; three products 3), y averages 1.47, and fsum and -pi/L add 4: 25 u of m0 in all.
    """
    _check_length(proper_length, "proper_length")

    def integrand(ts: list[float]) -> list[float]:
        # e^{-2 pi t} / -expm1(-2 pi t): the overflow-safe form of 1/(e^{2 pi t} - 1)
        return [t * math.exp(-2.0 * math.pi * t) / -math.expm1(-2.0 * math.pi * t) for t in ts]

    return -(math.pi / proper_length) * gauss_legendre(integrand, 0.0, 7.0, panels=8)
