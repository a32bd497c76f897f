"""Per-mode vacuum stress-tensor integrals over the instantaneous cavity.

Convention (canonical massless scalar, fixed by the static limit):

    T00 = (|d_t phi|^2 + |d_x phi|^2 [+ |d_y phi|^2]) / 2
    T01 = -Re( d_t phi * conj(d_x phi) )

and the vacuum expectation of any mode bilinear B is the per-mode sum

    <0| B |0> = sum_n  B(u_n, conj(u_n)) / (2 w'_n)

with w'_n the scheme's comoving/expansion frequency. At v = 0 this makes
the per-mode energy exactly w_n / 2, which pins every factor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .cavity import Cavity1D, Cavity2D, Scheme, wall_positions
from .modes import (
    _check_index,
    affine_coefficients,
    affine_jet,
    base_frequency,
    expansion_frequency,
    lorentz_coefficients,
    mode_2d,
    mode_normalization,
    phase_frequency,
)
from .quadrature import gauss_legendre

__all__ = [
    "PrefactorRule",
    "StressConvention",
    "DEFAULT_CONVENTION",
    "PerModeEM",
    "NotProportionalError",
    "CoefficientFit",
    "per_mode_em",
    "per_mode_em_2d",
    "per_mode_coefficients",
    "per_mode_em_2d_law",
    "coefficient_fits",
]

# Velocities per batched quadrature. Each chunk holds its rows' abscissae for
# every doubling; 16 to 400 rows run equally fast, 32 keeps the memory small.
_CHUNK_ROWS = 32


class PrefactorRule(enum.Enum):
    """Which frequency enters the 1/(2w') vacuum prefactor.

    SCHEME is the validated choice. The others are deliberate fault
    injections for negative-control tests: LAB_PHASE uses the lab-frame
    phase frequency (wrong for moving cavities), DOUBLED uses 2 w' (breaks
    the static limit outright).
    """

    SCHEME = "scheme"
    LAB_PHASE = "lab-phase"
    DOUBLED = "doubled"


@dataclass(frozen=True)
class StressConvention:
    """Component rules and sum-rule prefactor for the vacuum stress tensor.

    momentum_sign multiplies the canonical T01 = -Re(dt phi conj(dx phi));
    +1 makes a boosted negative-energy cavity carry momentum opposite to
    its velocity. It exists (with the prefactor rule) so the verification
    suite can inject deliberate faults.
    """

    momentum_sign: float = 1.0
    prefactor_rule: PrefactorRule = PrefactorRule.SCHEME


DEFAULT_CONVENTION = StressConvention()


@dataclass(frozen=True)
class PerModeEM:
    """Cavity-integrated energy/momentum contribution of a single mode."""

    n: int
    energy: float
    momentum: float
    quad_error: float
    m: int | None = None


class NotProportionalError(RuntimeError):
    """Per-mode results failed the e_n proportional-to-w_n factorization."""

    def __init__(self, message: str, ratios: np.ndarray):
        super().__init__(message)
        self.ratios = ratios


@dataclass(frozen=True)
class CoefficientFit:
    """Velocity-dependent per-mode coefficients: e_n = c_E w_n/2, p_n = c_P w_n/2."""

    c_energy: float
    c_momentum: float
    n_dispersion: float
    t_dispersion: float


def _prefactor_frequency(convention: StressConvention, comoving, lab_phase):
    if convention.prefactor_rule is PrefactorRule.LAB_PHASE:
        return lab_phase
    if convention.prefactor_rule is PrefactorRule.DOUBLED:
        return 2.0 * comoving
    return comoving


def _stress_integrals(norm, coeffs, wp, p2, walls, t, n: int, scale, convention: StressConvention):
    """The per-mode T00 and T01 integrals over the walls, divided by 2 w', and their errors.

    The mode is N exp(i th) sin s with th and s affine in (t, x); p2 is the
    squared transverse wavenumber of a rectangle mode's x profile, 0 in 1D.
    Both come back stacked on a leading axis of length 2; scale is the
    frequency that sets the absolute tolerance.
    """
    def densities(x):
        u, ut, ux = affine_jet(norm, coeffs, t, x)
        return np.stack((
            (np.abs(ut) ** 2 + np.abs(ux) ** 2 + p2 * np.abs(u) ** 2) / (4.0 * wp),
            -convention.momentum_sign * np.real(ut * np.conj(ux)) / (2.0 * wp),
        ))

    left, right = walls
    return gauss_legendre(
        densities, left, right, oscillations=n, rtol=1e-14, atol=1e-13 * max(1.0, scale)
    )


def _mode_integrals(
    scheme: Scheme,
    proper_length: float,
    velocities: np.ndarray,
    n: int,
    t_samples: np.ndarray,
    convention: StressConvention,
) -> tuple[np.ndarray, np.ndarray]:
    """per_mode_em's e_n and p_n for every (velocity, time) row, and their errors.

    Both come back with shape (2, velocities, times). One panelled
    quadrature serves every row, and each row is bit-identical to its own
    scalar integration.
    """
    v = velocities[:, None, None]  # against abscissae of shape (velocities, times, points)
    wp = _prefactor_frequency(
        convention,
        expansion_frequency(scheme, proper_length, v, n),
        phase_frequency(scheme, proper_length, v, n),
    )
    return _stress_integrals(
        mode_normalization(scheme, proper_length, v),
        affine_coefficients(scheme, proper_length, v, n), wp, 0.0,
        wall_positions(scheme, proper_length, velocities[:, None], t_samples[None, :]),
        t_samples[None, :, None], n, base_frequency(proper_length, n), convention,
    )


def per_mode_em(
    scheme: Scheme,
    cavity: Cavity1D,
    n: int,
    t: float = 0.0,
    *,
    convention: StressConvention = DEFAULT_CONVENTION,
) -> PerModeEM:
    """Quadrature of the per-mode T00 and T01 over the instantaneous cavity.

    Returns the contributions

        e_n = int (|u_t|^2 + |u_x|^2) / (4 w')  dx
        p_n = -int Re(u_t conj(u_x)) / (2 w')   dx

    with closed-form derivatives and a convergence-checked Gauss-Legendre
    quadrature. Both are time independent; t only picks the slice.
    """
    _check_index(n)
    (e, p), (e_err, p_err) = _mode_integrals(
        scheme, cavity.proper_length, np.array([cavity.velocity]), n, np.array([t], dtype=float),
        convention,
    )
    return PerModeEM(n=n, energy=float(e[0, 0]), momentum=float(p[0, 0]),
                     quad_error=float(max(e_err[0, 0], p_err[0, 0])))


def per_mode_em_2d(
    cavity: Cavity2D,
    n: int,
    m: int,
    t: float = 0.0,
    *,
    convention: StressConvention = DEFAULT_CONVENTION,
) -> PerModeEM:
    """2D analogue of per_mode_em with the transverse gradient in T00.

    The mode is its x profile f (the contracted 1D mode with the frequency w
    in its phase) times sin(p y). sin^2(p y) and cos^2(p y) both integrate
    to b/2 over [0, b], which cancels the 2/b in the square of the 2D
    normalization; so f carries the 1D normalization sqrt(2 gamma/a) and
    only the x integral is numerical:

        e_nm = int (|f_t|^2 + |f_x|^2 + p^2 |f|^2) / (4 w') dx
        p_nm = -int Re(f_t conj(f_x)) / (2 w')            dx
    """
    u = mode_2d(cavity, n, m)
    w = u.frequency
    (e, p), (e_err, p_err) = _stress_integrals(
        mode_normalization(Scheme.LORENTZ_EXACT, cavity.proper_length_x, cavity.velocity),
        lorentz_coefficients(w, u.wavenumber_x, cavity.velocity),
        _prefactor_frequency(convention, w, cavity.gamma() * w), u.wavenumber_y ** 2,
        u.walls_x(t), t, n, w, convention,
    )
    return PerModeEM(n=n, m=m, energy=float(e), momentum=float(p),
                     quad_error=float(max(e_err, p_err)))


def per_mode_coefficients(scheme: Scheme, velocity: float) -> tuple[float, float]:
    """Closed-form (c_E, c_P) the quadrature must reproduce, per scheme.

    Defined by e_n = c_E * w_n / 2 and p_n = c_P * w_n / 2 with w_n = n pi / L.
    """
    v = velocity
    if scheme is Scheme.GALILEO_LAB_PRIOR:
        return (1.0 + v * v) / (1.0 - v * v), 2.0 * v / (1.0 - v * v)
    if scheme is Scheme.GALILEO_COMOVING_PRIOR:
        return 1.0 + v * v / 2.0, v
    g2 = 1.0 / (1.0 - v * v)
    return g2 * (1.0 + v * v), 2.0 * g2 * v


def per_mode_em_2d_law(cavity: Cavity2D, n: int, m: int) -> tuple[float, float]:
    """Closed-form 2D per-mode law: the oracle the quadrature is checked against.

        e_nm = [gamma^2 (1+v^2) (w^2 + k^2) + p^2] / (4 w)
        p_nm = gamma^2 v (w^2 + k^2) / (2 w)
    """
    u = mode_2d(cavity, n, m)
    v = cavity.velocity
    g2 = 1.0 / (1.0 - v * v)
    w = u.frequency
    k2 = u.wavenumber_x**2
    p2 = u.wavenumber_y**2
    e = (g2 * (1.0 + v * v) * (w * w + k2) + p2) / (4.0 * w)
    p = g2 * v * (w * w + k2) / (2.0 * w)
    return e, p


def coefficient_fits(
    scheme: Scheme,
    velocities,
    n_max: int,
    t_samples: tuple[float, ...] = (0.0, 0.37),
    *,
    convention: StressConvention = DEFAULT_CONVENTION,
    dispersion_limit: float = 1e-8,
) -> tuple[CoefficientFit, ...]:
    """Fit the n- and t-independent coefficients at every velocity of a grid.

    The coefficients are dimensionless, so they are fitted on the unit
    cavity (L = 1) and hold at every L, with t_samples in units of L. Fits
    e_n = c_E * (n pi)/2 and p_n = c_P * (n pi)/2 over mode indices
    1..n_max and the time samples, with one batched quadrature per
    mode index and chunk of velocities; each fit is bit-identical to the fit
    of a grid of that one velocity. Raises NotProportionalError for the
    first velocity, in grid order, whose relative dispersion exceeds
    dispersion_limit (the factorization claim fails). A quadrature that
    does not converge raises QuadratureError as gauss_legendre meets it.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if len(t_samples) < 2:
        raise ValueError("need at least two time samples")
    velocities = [Cavity1D(1.0, float(v)).velocity for v in velocities]
    half_w = np.array([n * math.pi / 2.0 for n in range(1, n_max + 1)])
    ts = np.array(t_samples, dtype=float)
    fits: list[CoefficientFit] = []
    for start in range(0, len(velocities), _CHUNK_ROWS):
        chunk = np.array(velocities[start:start + _CHUNK_ROWS])
        # e_n/(w_n/2) and p_n/(w_n/2), shape (2, rows, times, modes)
        table = np.empty((2, len(chunk), len(ts), n_max))
        for n in range(1, n_max + 1):
            em, _ = _mode_integrals(scheme, 1.0, chunk, n, ts, convention)
            table[..., n - 1] = em / half_w[n - 1]
        fits.extend(_fit(table[0, i], table[1, i], dispersion_limit) for i in range(len(chunk)))
    return tuple(fits)


def _fit(e_ratio: np.ndarray, p_ratio: np.ndarray, dispersion_limit: float) -> CoefficientFit:
    """Mean coefficients of one velocity's (time, mode) ratio tables, gated on their spread."""
    c_e = float(np.mean(e_ratio))
    c_p = float(np.mean(p_ratio))
    scale = max(abs(c_e), abs(c_p), 1e-300)
    # dispersion across n at fixed t, and across t at fixed n
    n_disp = max(
        float(np.max(np.ptp(e_ratio, axis=1))), float(np.max(np.ptp(p_ratio, axis=1)))
    ) / scale
    t_disp = max(
        float(np.max(np.ptp(e_ratio, axis=0))), float(np.max(np.ptp(p_ratio, axis=0)))
    ) / scale
    if max(n_disp, t_disp) > dispersion_limit:
        raise NotProportionalError(
            f"per-mode ratios disperse beyond {dispersion_limit:g} "
            f"(n: {n_disp:.3e}, t: {t_disp:.3e})",
            np.stack([e_ratio, p_ratio]),
        )
    return CoefficientFit(c_energy=c_e, c_momentum=c_p, n_dispersion=n_disp, t_dispersion=t_disp)
