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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .cavity import _check_length
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
    """Strictly decreasing cutoff schedule from hi to lo, in units of 1/omega_min."""
    if not (0 < lo < hi < math.inf) or points < 4:
        raise ValueError("need finite 0 < lo < hi and at least 4 points")
    return tuple(np.geomspace(hi, lo, points))


# Every damped sum is fitted with its summand's divergent powers, the eps^0
# constant and these eps^{+k} stabilizers (they vanish at eps -> 0, but
# absorbing them sharpens the constant by orders of magnitude).
_STABILIZER_POWERS = (2, 4)
_TRUNCATION_DAMPING = 1e-18  # each sum stops once e^{-eps w} drops below it
_CONDITION_LIMIT = 1e12
_ABEL_PLANA_TOL = 1e-12  # largest quadrature error abel_plana_m0 accepts


@dataclass(frozen=True)
class RegConfig:
    """Method selection plus, for the cutoff route, its eps schedule.

    The schedule is dimensionless: a summand with lowest frequency omega_min
    is damped at eps = x / omega_min for each x in epsilon_schedule.
    """

    method: RegMethod
    epsilon_schedule: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.method is RegMethod.EXPONENTIAL_CUTOFF:
            x = self.epsilon_schedule
            if len(x) < 4:
                raise ValueError("cutoff schedule needs at least 4 points")
            # NaN fails every comparison, so this also rejects non-finite points
            if not (x[0] < math.inf and all(x1 > x2 for x1, x2 in zip(x, x[1:])) and x[-1] > 0):
                raise ValueError("cutoff schedule must be finite, strictly decreasing and positive")

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


@dataclass(frozen=True)
class FinitePart:
    """Extracted eps^0 constant with an error estimate and fit diagnostics."""

    value: float
    error_estimate: float
    method: RegMethod
    fitted_divergent_coeffs: tuple[float, ...] = ()
    fit_residual: float = 0.0
    condition_number: float = 0.0

    def __post_init__(self) -> None:
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
        c = np.asarray(coefficients, dtype=float)
        w = np.asarray(frequencies, dtype=float)
        if c.shape != w.shape or c.ndim != 1:
            raise ValueError("coefficients and frequencies must be equal-length 1D")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        order = np.argsort(w, kind="stable")
        self._c = c[order]
        self._w = w[order]
        self.omega_min = float(np.min(w))
        # a NaN makes both extremes NaN
        _check_length(self.omega_min, "lowest frequency")
        _check_length(float(np.max(w)), "highest frequency")

    def blocks(self, omega_cap: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        keep = self._w <= omega_cap
        yield self._c[keep], self._w[keep]

    def saturated_sum(self, omega_cap: float) -> float | None:
        """Undamped total when the sequence is already finite below the cutoffs.

        Detected by the term count not growing when the frequency cap is
        pushed 25% past omega_cap, the schedule's most permissive truncation
        point (any infinite polynomial-density spectrum gains terms there).
        """
        past = self._w <= 1.25 * omega_cap
        if np.count_nonzero(past) != np.count_nonzero(self._w <= omega_cap):
            return None
        return float(np.sum(self._c[past]))


class Linear1DSummand:
    """c_n = weight * n pi / L on the 1D Dirichlet spectrum w_n = n pi / L."""

    divergent_powers = (2,)  # sum n e^{-eps n} = 1/eps^2 - 1/12 + eps^2/240 - ...

    def __init__(self, proper_length: float, weight: float = 0.5):
        _check_length(proper_length, "proper_length")
        if not math.isfinite(weight):
            raise ValueError(f"weight must be finite, got {weight!r}")
        self.step = math.pi / proper_length
        self.weight = weight
        self.omega_min = self.step

    def blocks(self, omega_cap: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n_max = int(omega_cap / self.step)
        w = np.arange(1, n_max + 1, dtype=float) * self.step
        yield self.weight * w, w


# ---------------------------------------------------------------------------
# cutoff evaluation and divergence fit
# ---------------------------------------------------------------------------

def _damped_sums(summand, eps: np.ndarray, damping: float) -> np.ndarray:
    """S(eps_i) = sum of c e^{-eps_i w} over w <= -ln(damping)/eps_i, one row per eps_i.

    The spectrum is enumerated once, at the smallest eps; every block is
    ascending in w, so the terms below a larger eps's cap are its prefix.
    Matrix blocks give one column per coefficient row, contracted with the
    damping factors in one matrix-vector product.
    """
    caps = -math.log(damping) / eps
    table = None
    for c, w in summand.blocks(caps[-1]):
        if table is None:
            table = np.zeros(eps.shape + c.shape[:-1])
        counts = np.searchsorted(w, caps, side="right")
        for i in np.flatnonzero(counts):
            m = counts[i]
            decay = np.exp(-eps[i] * w[:m])
            table[i] += np.sum(c[:m] * decay) if c.ndim == 1 else c[:, :m] @ decay
    if table is None:
        raise FitError("no spectrum term lies below the largest cutoff")
    return table


class _DivergenceFit:
    """Least squares for S = sum_q b_q x^q on one dimensionless schedule x.

    One float64 QR factorization of the column-scaled design, its
    conditioning checked once, serves every data column and the
    rounding-noise propagation.
    """

    def __init__(self, x: np.ndarray, divergent_powers: tuple[int, ...]):
        self.powers = np.array([-p for p in divergent_powers] + [0, *_STABILIZER_POWERS], dtype=float)
        design = x[:, None] ** self.powers
        self.scale = np.max(np.abs(design), axis=0)  # 1 for the all-ones x^0 column
        self.scaled = design / self.scale
        self.cond = float(np.linalg.cond(self.scaled))
        if self.cond > _CONDITION_LIMIT:
            raise FitError(
                f"divergence-fit design matrix condition number {self.cond:.3e} exceeds "
                f"{_CONDITION_LIMIT:.1e}; use a wider or shorter schedule"
            )
        self.q, self.r = np.linalg.qr(self.scaled)
        self.n_div = len(divergent_powers)  # also the row of the x^0 term

    def solve(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of the scaled columns, one column per data column."""
        return np.linalg.solve(self.r, self.q.T @ values)

    def noise(self, values: np.ndarray) -> np.ndarray:
        """Propagated float64 rounding of the data through the (linear) fit.

        The constant is a linear functional a0 = sum_i d_i y_i of the summed
        data; each y_i carries accumulation rounding O(eps_mach |y_i|), which
        the divergent columns amplify. This bounds that contribution, per data
        column, and is what makes small-eps schedules *worse* beyond a point.
        """
        dual = self.q @ np.linalg.solve(self.r.T, np.eye(len(self.powers))[self.n_div])
        return (16.0 * np.finfo(float).eps * np.abs(dual)) @ np.abs(values)


def _fit_finite_parts(
    x: np.ndarray, table: np.ndarray, powers: tuple[int, ...], omega_min: float
) -> list[FinitePart]:
    """The eps^0 constant of every column of the damped-sum table, with its error.

    The fit runs in x = eps omega_min, and b_q x^q = (b_q omega_min^q) eps^q
    gives the divergent coefficients back in eps units. The error estimate
    adds the fit residual, the shift of a refit restricted to the small-x
    half of the schedule, and the extraction noise scaled by 2^{leading
    power}: one x-halving scales the raw sums (hence the noise) by that
    much, so the estimate also covers nearby schedules.
    """
    fit = _DivergenceFit(x, powers)
    n_params, n_div = len(fit.powers), fit.n_div
    lower = slice(len(x) - max(n_params + 1, len(x) // 2), len(x))
    values = table.reshape(len(x), -1)  # one column per coefficient row
    coeffs = fit.solve(values)
    a0 = coeffs[n_div]
    residual = np.max(np.abs(fit.scaled @ coeffs - values), axis=0)
    refit_shift = np.zeros_like(a0)
    if lower.stop - lower.start >= n_params and lower.start > 0:
        refit_shift = np.abs(_DivergenceFit(x[lower], powers).solve(values[lower])[n_div] - a0)
    error = refit_shift + residual + 2.0 ** max(powers) * fit.noise(values)
    # b x^-p = (b / omega_min^p) eps^-p; one division per power keeps a
    # representable coefficient from overflowing on the way
    divergent = coeffs[:n_div] / fit.scale[:n_div, None]
    for row, p in zip(divergent, powers):
        for _ in range(p):
            row /= omega_min
    return [
        FinitePart(
            value=float(a0[j]),
            error_estimate=float(error[j]),
            method=RegMethod.EXPONENTIAL_CUTOFF,
            fitted_divergent_coeffs=tuple(float(c) for c in divergent[:, j]),
            fit_residual=float(residual[j]),
            condition_number=fit.cond,
        )
        for j in range(values.shape[1])
    ]


def cutoff_finite_part(summand, config: RegConfig) -> FinitePart | tuple[FinitePart, ...]:
    """Exponential-cutoff finite part of sum_n c_n with damping e^{-eps w_n}.

    Evaluates S(eps) at eps = x / omega_min over the dimensionless schedule
    x (each sum truncated once the damping factor falls below 1e-18), fits

        S = sum_k b_k x^{-k} + a_0 + b_2 x^2 + b_4 x^4,

    k over summand.divergent_powers, and returns a_0. The error estimate
    combines the fit residual with a refit restricted to the small-x half
    of the schedule.

    A summand has omega_min, divergent_powers and blocks(omega_cap),
    yielding (c, w) pairs with w ascending and at most omega_cap. When c is
    a matrix with one row per weight, one FinitePart per row comes back, all
    from the same damped sums, so linear identities between the weights
    survive the fit exactly.
    """
    if config.method is not RegMethod.EXPONENTIAL_CUTOFF:
        raise ValueError("cutoff_finite_part requires an EXPONENTIAL_CUTOFF config")
    x = np.asarray(config.epsilon_schedule, dtype=float)
    eps = x / summand.omega_min

    if isinstance(summand, SequenceSummand):
        saturated = summand.saturated_sum(-math.log(_TRUNCATION_DAMPING) / eps[-1])
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

    table = _damped_sums(summand, eps, _TRUNCATION_DAMPING)
    parts = _fit_finite_parts(x, table, summand.divergent_powers, summand.omega_min)
    return parts[0] if table.ndim == 1 else tuple(parts)


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
    ~1e-19, below the rounding of the 1/24 result: Gauss-Legendre on [0, 7],
    starting from one panel per unit of t, evaluates the integral; a
    quadrature error above 1e-12 raises FitError.
    """
    _check_length(proper_length, "proper_length")

    def integrand(t: np.ndarray) -> np.ndarray:
        decay = np.exp(-2.0 * math.pi * t)  # overflow-safe form of t/(e^{2pi t}-1)
        return t * decay / -np.expm1(-2.0 * math.pi * t)

    value, abserr = gauss_legendre(integrand, 0.0, 7.0, oscillations=7)
    if abserr > _ABEL_PLANA_TOL:
        raise FitError(f"Abel-Plana integral tolerance not met (abserr {abserr:.2e})")
    return float(-(math.pi / proper_length) * value)
