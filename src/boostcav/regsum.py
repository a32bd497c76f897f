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

Each summand sums its own spectrum: the 1D one and the rectangle's
(rect2d) in closed form on the one kernel _geometric, a sequence in
floats with math.fsum. The divergence fit is one least squares in plain
floats for every summand (the pseudoinverse of a one-sided Jacobi SVD,
refined twice against math.fsum residuals), and the schedule and the
Abel-Plana integral use `math`: every route runs on Python floats.
"""

import bisect
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
    "SequenceSummand",
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
_TRUNCATION_DAMPING = 1e-18  # a sequence sum stops once e^{-eps w} drops below it,
_TRUNCATION_CAP = -math.log(_TRUNCATION_DAMPING)  # that is, once eps w exceeds this
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

    # -- convenience constructors ------------------------------------------
    @staticmethod
    def zeta() -> "RegConfig":
        return RegConfig(method=RegMethod.ZETA_EXACT)

    @staticmethod
    def abel_plana() -> "RegConfig":
        return RegConfig(method=RegMethod.ABEL_PLANA)

    @staticmethod
    def cutoff(**schedule_kw) -> "RegConfig":
        """Exponential cutoff on geometric_schedule(**schedule_kw)."""
        return RegConfig(
            method=RegMethod.EXPONENTIAL_CUTOFF,
            epsilon_schedule=geometric_schedule(**schedule_kw),
        )

    def halved(self) -> "RegConfig":
        """Same config with every cutoff halved (robustness checks)."""
        return RegConfig(self.method, tuple(e / 2.0 for e in self.epsilon_schedule))


@_validated
class FinitePart(NamedTuple):
    """Extracted eps^0 constant with an error estimate and fit diagnostics."""

    value: float
    error_estimate: float
    method: RegMethod
    fitted_divergent_coeffs: tuple[float, ...] = ()
    fit_residual: float = 0.0
    condition_number: float = 0.0

    def _validate(self) -> None:
        if math.isnan(self.value):
            raise ValueError("finite part is NaN")


# ---------------------------------------------------------------------------
# summands
# ---------------------------------------------------------------------------

class SequenceSummand:
    """Explicit finite (or truncatable) sequence of (coefficient, frequency).

    Terms are kept in ascending frequency (stable order among ties).
    """

    divergent_powers = (2,)  # an unsaturated sequence is fitted like the 1D spectrum

    def __init__(self, coefficients: Sequence[float], frequencies: Sequence[float]):
        c = [float(x) for x in coefficients]
        w = [float(x) for x in frequencies]
        if len(c) != len(w) or not w:
            raise ValueError("coefficients and frequencies must be non-empty and of equal length")
        if not all(map(math.isfinite, c)):
            raise ValueError("coefficients must be finite")
        for x in w:
            _check_length(x, "frequency")
        order = sorted(range(len(w)), key=w.__getitem__)
        self._c = [c[i] for i in order]
        self._w = [w[i] for i in order]
        self.omega_min = self._w[0]

    def damped_sums(self, eps: list[float]) -> list[list[float]]:
        """One column: S(eps) is math.fsum of c_n e^{-eps w_n} over the prefix eps w_n <= CAP."""
        prefixes = [bisect.bisect_right(self._w, _TRUNCATION_CAP, key=e.__mul__) for e in eps]
        return [[math.fsum([c * math.exp(-e * w) for c, w in zip(self._c[:m], self._w)])
                 for e, m in zip(eps, prefixes)]]

    def saturated_sum(self, omega_cap: float) -> float | None:
        """Undamped total when the sequence is already finite below the cutoffs.

        Detected by the term count not growing when the frequency cap is
        pushed 25% past omega_cap, the schedule's most permissive truncation
        point (any infinite polynomial-density spectrum gains terms there).
        """
        count = bisect.bisect_right(self._w, 1.25 * omega_cap)
        if count != bisect.bisect_right(self._w, omega_cap):
            return None
        return math.fsum(self._c[:count])


class Linear1DSummand:
    """c_n = weight * n pi / L on the 1D Dirichlet spectrum w_n = n pi / L.

    Each damped sum is the whole series in closed form (Elizalde, Ten Physical
    Applications of Spectral Zeta Functions, 2nd ed. 2012, ch. 1): with
    step = pi/L and x = eps step, sum_{n>=1} n e^{-n x} = G_1(x) (_geometric).
    The fit, not the known Laurent series, extracts the constant.
    """

    divergent_powers = (2,)  # sum n e^{-eps n} = 1/eps^2 - 1/12 + eps^2/240 - ...

    def __init__(self, proper_length: float, weight: float = 0.5):
        _check_length(proper_length, "proper_length")
        if not math.isfinite(weight):
            raise ValueError(f"weight must be finite, got {weight!r}")
        self.step = math.pi / proper_length
        self.weight = weight
        self.omega_min = self.step

    def damped_sums(self, eps: list[float]) -> list[list[float]]:
        """One column of weight * step * G_1(eps step), O(1) per cutoff."""
        return [[self.weight * self.step * _geometric(e * self.step)[0] for e in eps]]


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

    def dual(self, k: int) -> list[float]:
        """Row k of the pseudoinverse: the k-th scaled coefficient is sum_i dual_i y_i."""
        return self.pinv[k]


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
    """
    fit_powers = [-p for p in powers] + [0, *_STABILIZER_POWERS]
    n_div = len(powers)  # the index of the x^0 term
    fit = _PowerFit(x, fit_powers)
    lower = len(x) - max(len(fit_powers) + 1, len(x) // 2)  # first point of the small-x half
    refit = _PowerFit(x[lower:], fit_powers) if lower > 0 else None
    dual = fit.dual(n_div)
    parts = []
    for values in columns:
        coeffs = fit.solve(values)
        a0 = coeffs[n_div]
        residual = max(map(abs, fit.residuals(coeffs, values)))
        refit_shift = abs(refit.solve(values[lower:])[n_div] - a0) if refit else 0.0
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
            error_estimate=refit_shift + residual + 2.0 ** max(powers) * noise,
            method=RegMethod.EXPONENTIAL_CUTOFF,
            fitted_divergent_coeffs=tuple(divergent),
            fit_residual=residual,
            condition_number=fit.cond,
        ))
    return parts


def cutoff_finite_part(summand, config: RegConfig) -> FinitePart | tuple[FinitePart, ...]:
    """Exponential-cutoff finite part of sum_n c_n with damping e^{-eps w_n}.

    Evaluates S(eps) at eps = x / omega_min over the dimensionless schedule
    x (a sequence sum truncated once the damping factor falls below 1e-18;
    the 1D and rectangle sums are whole), fits

        S = sum_k b_k x^{-k} + a_0 + b_2 x^2 + b_4 x^4,

    k over summand.divergent_powers, and returns a_0. The error estimate
    combines the fit residual with a refit restricted to the small-x half
    of the schedule.

    A summand has omega_min, divergent_powers and damped_sums(eps), which
    sums its own spectrum: one column of S(eps_i) per weight. With one
    column one FinitePart comes back; with several (the rectangle's, one
    per coefficient row) a tuple of them, all from the same damped sums, so
    linear identities between the weights survive the fit exactly.
    """
    if config.method is not RegMethod.EXPONENTIAL_CUTOFF:
        raise ValueError("cutoff_finite_part requires an EXPONENTIAL_CUTOFF config")
    x = list(config.epsilon_schedule)
    eps = [xi / summand.omega_min for xi in x]

    if isinstance(summand, SequenceSummand):
        saturated = summand.saturated_sum(_TRUNCATION_CAP / x[-1] * summand.omega_min)
        if saturated is not None:
            # Absolutely convergent (finite below every cutoff): the damped sums
            # carry no divergence and the eps -> 0 limit is the plain sum.
            return FinitePart(
                value=saturated,
                error_estimate=0.0,
                method=config.method,
                fitted_divergent_coeffs=tuple(0.0 for _ in summand.divergent_powers),
                fit_residual=0.0,
                condition_number=1.0,
            )

    columns = summand.damped_sums(eps)
    for xi, *sums in zip(x, *columns):
        if not all(map(math.isfinite, sums)):
            raise FitError(f"the damped sums at cutoff x = {xi:.3g} are not finite in float64")
    parts = _fit_finite_parts(x, columns, summand.divergent_powers, summand.omega_min)
    return parts[0] if len(parts) == 1 else tuple(parts)


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
    """
    _check_length(proper_length, "proper_length")

    def integrand(ts: list[float]) -> list[float]:
        # e^{-2 pi t} / -expm1(-2 pi t): the overflow-safe form of 1/(e^{2 pi t} - 1)
        return [t * math.exp(-2.0 * math.pi * t) / -math.expm1(-2.0 * math.pi * t) for t in ts]

    return -(math.pi / proper_length) * gauss_legendre(integrand, 0.0, 7.0, panels=8)
