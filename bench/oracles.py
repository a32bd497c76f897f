"""Closed-form oracles for every number the benchmark checks.

Nothing here imports boostcav: each value is derived from the physics the
package implements, so a faster or restructured package is judged against
an independent reference. Units: hbar = c = 1.

1D cavity (proper length L, velocity v, k_n = n pi / L):
    m0 = -pi / (24 L)                               (all regularizers)
    lorentz           E/m0 = (1+v^2)/(1-v^2),  P/m0 = 2v/(1-v^2)
    galileo-comoving  E/m0 = 1 + v^2/2,        P/m0 = v
    galileo-lab       printed (1+2v^2+v^4, v+v^3); per-mode law as lorentz

Rectangle (sides a along the boost, b transverse): S_omega by the
Chowla-Selberg / Bessel-K expansion (Chowla & Selberg, PNAS 35 (1949) 371),
S_k = -a dS_omega/da taken analytically, U = (S_omega+S_k)/2 and
W = (S_omega-S_k)/2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import k0, k1

ZETA3 = 1.2020569031595942853997

SCHEMES = ("galileo-lab", "galileo-comoving", "lorentz")


# ---------------------------------------------------------------------------
# 1D cavity
# ---------------------------------------------------------------------------

def m0(length: float) -> float:
    return -math.pi / (24.0 * length)


def gamma(v: float) -> float:
    return 1.0 / math.sqrt(1.0 - v * v)


def closed_form_coefficients(scheme: str, v: float) -> tuple[float, float]:
    """(E/m0, P/m0) as each scheme's algebra prints them."""
    if scheme == "galileo-lab":
        return 1.0 + 2.0 * v * v + v**4, v + v**3
    if scheme == "galileo-comoving":
        return 1.0 + v * v / 2.0, v
    return (1.0 + v * v) / (1.0 - v * v), 2.0 * v / (1.0 - v * v)


def per_mode_coefficients(scheme: str, v: float) -> tuple[float, float]:
    """(E/m0, P/m0) of the quadrature route: galileo-lab follows the exact law."""
    if scheme == "galileo-comoving":
        return closed_form_coefficients(scheme, v)
    return closed_form_coefficients("lorentz", v)


def plate_energy(separation: float) -> tuple[float, float]:
    """Parallel plates: energy per area and its separation derivative."""
    return -math.pi**2 / (720.0 * separation**3), math.pi**2 / (240.0 * separation**4)


def mode_row(scheme: str, length: float, v: float, n: int, t: float):
    """(omega_comoving, omega_lab_phase, N, u(t, x_mid), x_mid) of mode n.

    The lorentz mode is the proper-frame standing wave N e^{-i k t'} sin(k x')
    seen through the boost t' = g(t - v x), x' = g(x - v t). The Galilean
    modes use x' = x - v t with the lab time (comoving) or the lab-frame
    phase k (v x - t) (lab). x_mid is the centre of the instantaneous cavity.
    """
    k = n * math.pi / length
    g = gamma(v)
    if scheme == "lorentz":
        x_mid = v * t + 0.5 * length / g
        t_p, x_p = g * (t - v * x_mid), g * (x_mid - v * t)
        phase = -k * t_p
        return k, g * k, math.sqrt(2.0 * g / length), _wave(phase, k * x_p, 2.0 * g / length), x_mid
    x_mid = v * t + 0.5 * length
    phase = k * (v * x_mid - t) if scheme == "galileo-lab" else -k * t
    omega_c = (1.0 - v * v) * k if scheme == "galileo-lab" else k
    return omega_c, k, math.sqrt(2.0 / length), _wave(phase, k * (x_mid - v * t), 2.0 / length), x_mid


def _wave(phase: float, arg: float, norm_sq: float) -> complex:
    return math.sqrt(norm_sq) * complex(math.cos(phase), math.sin(phase)) * math.sin(arg)


# ---------------------------------------------------------------------------
# rectangle
# ---------------------------------------------------------------------------

_Z_MAX = 60.0  # K_1(60) ~ 1e-27: terms past this cannot reach 1e-16 relative


def _bessel_terms(x: float, y: float):
    """k_n and z = 2 j k_n y over every (n, j) with z <= _Z_MAX, plus j."""
    step = math.pi / x
    n_max = max(1, int(_Z_MAX / (2.0 * step * y)) + 1)
    n = np.arange(1, n_max + 1, dtype=float)[:, None]
    j = np.arange(1, n_max + 1, dtype=float)[None, :]
    kn = n * step
    z = 2.0 * j * kn * y
    keep = z <= _Z_MAX
    return np.broadcast_to(kn, z.shape)[keep], z[keep], np.broadcast_to(j, z.shape)[keep]


def _cs(x: float, y: float) -> tuple[float, float, float]:
    """F(x, y) = FP (1/2) sum w over sides (x, y) with dF/dx and dF/dy.

    F = pi/(48x) - zeta(3) y/(16 pi x^2) - (1/2pi) sum_n k_n sum_j K1(2 j k_n y)/j,
    k_n = n pi / x; converges fastest for y >= x.
    """
    kn, z, j = _bessel_terms(x, y)
    b1 = k1(z)
    b1p = -k0(z) - b1 / z  # K1'(z)
    f = math.pi / (48.0 * x) - ZETA3 * y / (16.0 * math.pi * x * x) - float(np.sum(kn * b1 / j)) / (2.0 * math.pi)
    fx = (
        -math.pi / (48.0 * x * x)
        + ZETA3 * y / (8.0 * math.pi * x**3)
        + float(np.sum(kn * b1 / j + 2.0 * y * kn * kn * b1p)) / (2.0 * math.pi * x)
    )
    fy = -ZETA3 / (16.0 * math.pi * x * x) - float(np.sum(kn * kn * b1p)) / math.pi
    return f, fx, fy


def rect_parts(a: float, b: float) -> dict[str, float]:
    """Exact U, W, S_omega, S_k of the a x b rectangle (a along the boost)."""
    if b >= a:
        s_omega, fa, _ = _cs(a, b)
    else:  # the spectrum is symmetric in the sides; sum along the short one
        s_omega, _, fa = _cs(b, a)
    s_k = -a * fa
    return {
        "U": 0.5 * (s_omega + s_k),
        "W": 0.5 * (s_omega - s_k),
        "S_omega": s_omega,
        "S_k": s_k,
    }


def boost_factors(v: float) -> tuple[float, float]:
    """gamma^2 (1+v^2) and 2 gamma^2 v."""
    g2 = 1.0 / (1.0 - v * v)
    return g2 * (1.0 + v * v), 2.0 * g2 * v


def rect_routes(parts: dict[str, float], v: float) -> dict[str, tuple[float, float]]:
    """(E_s, P_s) of the per-mode law and of the grouped closed form."""
    ce, cp = boost_factors(v)
    u, w = parts["U"], parts["W"]
    return {
        "per-mode": (ce * u + w, cp * u),
        "grouped": (ce * (parts["S_omega"] + parts["S_k"]), 0.5 * cp * (parts["S_omega"] - parts["S_k"])),
    }
