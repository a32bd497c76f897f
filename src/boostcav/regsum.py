"""Finite parts of divergent spectral sums.

Three independent routes:

  * exact zeta assignment for linear-in-n sums (sum n -> -1/12),
  * exponential-cutoff evaluation S(eps) = sum c e^{-eps w} followed by a
    least-squares fit of the divergent powers of 1/eps, keeping the eps^0
    constant; the powers are the summand's divergent_powers, fixed by its
    spectrum (Weyl terms), never by the config,
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


def geometric_schedule(
    omega_min: float, *, hi: float = 0.2, lo: float = 0.01, points: int = 8
) -> tuple[float, ...]:
    """Strictly decreasing cutoff schedule, dimensionless [lo, hi] in 1/omega_min."""
    if omega_min <= 0:
        raise ValueError("omega_min must be positive")
    if not (0 < lo < hi) or points < 4:
        raise ValueError("need 0 < lo < hi and at least 4 points")
    return tuple(np.geomspace(hi, lo, points) / omega_min)


# Every damped sum is fitted with its summand's divergent powers, the eps^0
# constant and these eps^{+k} stabilizers (they vanish at eps -> 0, but
# absorbing them sharpens the constant by orders of magnitude).
_STABILIZER_POWERS = (2, 4)
_TRUNCATION_DAMPING = 1e-18  # each sum stops once e^{-eps w} drops below it
_CONDITION_LIMIT = 1e12
_ABEL_PLANA_TOL = 1e-12  # largest quadrature error abel_plana_m0 accepts


@dataclass(frozen=True)
class RegConfig:
    """Method selection plus, for the cutoff route, its eps schedule."""

    method: RegMethod
    epsilon_schedule: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.method is RegMethod.EXPONENTIAL_CUTOFF:
            eps = self.epsilon_schedule
            if len(eps) < 4:
                raise ValueError("cutoff schedule needs at least 4 points")
            if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])) or eps[-1] <= 0:
                raise ValueError("cutoff schedule must be strictly decreasing and positive")

    # -- convenience constructors ------------------------------------------
    @staticmethod
    def zeta() -> "RegConfig":
        return RegConfig(method=RegMethod.ZETA_EXACT)

    @staticmethod
    def abel_plana() -> "RegConfig":
        return RegConfig(method=RegMethod.ABEL_PLANA)

    @staticmethod
    def cutoff(omega_min: float, **schedule_kw) -> "RegConfig":
        """Exponential cutoff on geometric_schedule(omega_min, **schedule_kw)."""
        return RegConfig(
            method=RegMethod.EXPONENTIAL_CUTOFF,
            epsilon_schedule=geometric_schedule(omega_min, **schedule_kw),
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
        if np.any(w <= 0):
            raise ValueError("frequencies must be positive")
        order = np.argsort(w, kind="stable")
        self._c = c[order]
        self._w = w[order]
        self.omega_min = float(np.min(w))

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
        if proper_length <= 0:
            raise ValueError("proper_length must be positive")
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
    """Least squares for S(eps) = sum_q a_q eps^q on one schedule.

    The column-scaled normal matrix is built (in extended precision) and its
    conditioning checked once; every data column and the rounding-noise
    propagation share it.
    """

    def __init__(self, eps: np.ndarray, divergent_powers: tuple[int, ...]):
        powers = [-p for p in divergent_powers] + [0, *_STABILIZER_POWERS]
        self.design = np.stack([eps.astype(np.longdouble) ** float(q) for q in powers], axis=1)
        self.scale = np.max(np.abs(self.design), axis=0)
        self.scaled = self.design / self.scale
        self.cond = float(np.linalg.cond(self.scaled.astype(float)))
        if self.cond > _CONDITION_LIMIT:
            raise FitError(
                f"divergence-fit design matrix condition number {self.cond:.3e} exceeds "
                f"{_CONDITION_LIMIT:.1e}; use a wider or shorter schedule"
            )
        self.normal = self.scaled.T @ self.scaled
        self.n_div = len(divergent_powers)  # also the column of the eps^0 term

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        rhs = self.scaled.T @ values.astype(np.longdouble)
        return _gauss_solve(self.normal, rhs) / self.scale

    def noise(self, values: np.ndarray) -> float:
        """Propagated float64 rounding of the data through the (linear) fit.

        The constant is a linear functional a0 = sum_i d_i y_i of the summed
        data; each y_i carries accumulation rounding O(eps_mach |y_i|), which
        the divergent columns amplify. This bounds that contribution and is
        what makes small-eps schedules *worse* beyond a point.
        """
        basis = np.zeros(self.scaled.shape[1], dtype=np.longdouble)
        basis[self.n_div] = 1.0
        # sensitivities of the scaled constant to each data point
        dual = self.scaled @ _gauss_solve(self.normal, basis)
        per_point = 16.0 * np.finfo(float).eps * np.abs(values.astype(np.longdouble))
        return float(np.sum(np.abs(dual) * per_point) / self.scale[self.n_div])


def _gauss_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # numpy.linalg does not accept longdouble; the systems here are tiny.
    m = mat.copy()
    r = rhs.copy()
    size = m.shape[0]
    for col in range(size):
        pivot = col + int(np.argmax(np.abs(m[col:, col])))
        if m[pivot, col] == 0:
            raise FitError("singular divergence-fit system")
        if pivot != col:
            m[[col, pivot]] = m[[pivot, col]]
            r[[col, pivot]] = r[[pivot, col]]
        factor = m[col + 1:, col] / m[col, col]
        m[col + 1:] -= factor[:, None] * m[col]
        r[col + 1:] -= factor * r[col]
    out = np.zeros_like(r)
    for col in range(size - 1, -1, -1):
        out[col] = (r[col] - m[col, col + 1:] @ out[col + 1:]) / m[col, col]
    return out


def _fit_finite_parts(eps: np.ndarray, table: np.ndarray, powers: tuple[int, ...]) -> list[FinitePart]:
    """The eps^0 constant of every column of the damped-sum table, with its error.

    The error estimate adds the fit residual, the shift of a refit restricted
    to the small-eps half of the schedule, and the extraction noise scaled by
    2^{leading power}: one eps-halving scales the raw sums (hence the noise)
    by that much, so the estimate also covers nearby schedules.
    """
    fit = _DivergenceFit(eps, powers)
    n_params = fit.design.shape[1]
    lower = slice(len(eps) - max(n_params + 1, len(eps) // 2), len(eps))
    refit = None
    if lower.stop - lower.start >= n_params and lower.start > 0:
        refit = _DivergenceFit(eps[lower], powers)
    n_div = fit.n_div
    parts = []
    for values in table.reshape(len(eps), -1).T:
        coeffs = fit.coefficients(values)
        a0 = float(coeffs[n_div])
        residual = float(np.max(np.abs(fit.design @ coeffs - values.astype(np.longdouble))))
        refit_shift = 0.0
        if refit is not None:
            refit_shift = abs(float(refit.coefficients(values[lower])[n_div]) - a0)
        error = refit_shift + residual + 2.0 ** max(powers) * fit.noise(values)
        parts.append(FinitePart(
            value=a0,
            error_estimate=float(error),
            method=RegMethod.EXPONENTIAL_CUTOFF,
            fitted_divergent_coeffs=tuple(float(c) for c in coeffs[:n_div]),
            fit_residual=residual,
            condition_number=fit.cond,
        ))
    return parts


def cutoff_finite_part(summand, config: RegConfig) -> FinitePart | tuple[FinitePart, ...]:
    """Exponential-cutoff finite part of sum_n c_n with damping e^{-eps w_n}.

    Evaluates S(eps) over the schedule (each sum truncated once the damping
    factor falls below 1e-18), fits

        S(eps) = sum_k a_k eps^{-k} + a_0 + a_2 eps^2 + a_4 eps^4,

    k over summand.divergent_powers, and returns a_0. The error estimate
    combines the fit residual with a refit restricted to the small-eps half
    of the schedule.

    A summand has divergent_powers and blocks(omega_cap), yielding (c, w)
    pairs with w ascending and at most omega_cap. When c is a matrix with one
    row per weight, one FinitePart per row comes back, all from the same
    damped sums, so linear identities between the weights survive the fit
    exactly.
    """
    if config.method is not RegMethod.EXPONENTIAL_CUTOFF:
        raise ValueError("cutoff_finite_part requires an EXPONENTIAL_CUTOFF config")
    eps = np.asarray(config.epsilon_schedule, dtype=float)

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
    parts = _fit_finite_parts(eps, table, summand.divergent_powers)
    return parts[0] if table.ndim == 1 else tuple(parts)


# ---------------------------------------------------------------------------
# exact and integral routes
# ---------------------------------------------------------------------------

def zeta_linear_sum(slope: float) -> float:
    """Regularized value of sum_{n>=1} slope*n, i.e. slope * (-1/12)."""
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
    if proper_length <= 0:
        raise ValueError("proper_length must be positive")

    def integrand(t: np.ndarray) -> np.ndarray:
        decay = np.exp(-2.0 * math.pi * t)  # overflow-safe form of t/(e^{2pi t}-1)
        return t * decay / -np.expm1(-2.0 * math.pi * t)

    value, abserr = gauss_legendre(integrand, 0.0, 7.0, oscillations=7)
    if abserr > _ABEL_PLANA_TOL:
        raise FitError(f"Abel-Plana integral tolerance not met (abserr {abserr:.2e})")
    return float(-(math.pi / proper_length) * value)
